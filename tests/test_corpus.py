import json
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from seqlab.corpus import (
    CorpusError,
    RESERVED,
    Sentence,
    TaggedCorpus,
    build_vocab,
    corpus_stats,
    iob1_to_bio2,
    make_batches,
    parse_conll,
    render_stats,
)
from seqlab.numeric import RngState
from synthetic_data import to_conll


def small_corpus(lengths, task="ner"):
    sents = [
        Sentence(["w%d_%d" % (i, t) for t in range(n)],
                 {task: ["O"] * n})
        for i, n in enumerate(lengths)
    ]
    return TaggedCorpus(task, "train", sents, ["O"])


class TestParseConll:
    def test_single_sentence(self):
        c = parse_conll("John B-PER\nsmiled O\n\n")
        assert len(c) == 1
        assert c.sentences[0].tokens == ["John", "smiled"]
        assert c.sentences[0].labels["main"] == ["B-PER", "O"]
        assert c.label_set == ["B-PER", "O"]

    def test_two_sentences(self):
        c = parse_conll("a O\n\nb O\n")
        assert len(c) == 2

    def test_missing_column_errors_with_line(self):
        with pytest.raises(CorpusError, match="line 1"):
            parse_conll("John\n", label_column=1)

    def test_empty_file_is_empty_corpus(self):
        assert len(parse_conll("")) == 0

    def test_docstart_skipped(self):
        c = parse_conll("-DOCSTART- O\n\na O\n")
        assert len(c) == 1

    def test_iob1_conversion(self):
        c = parse_conll("New I-LOC\nYork I-LOC\nOrg I-ORG\n", scheme="iob1")
        assert c.sentences[0].labels["main"] == ["B-LOC", "I-LOC", "B-ORG"]

    def test_round_trip(self):
        text = "John B-PER\nSmith I-PER\nate O\n\nLima B-LOC\n"
        c1 = parse_conll(text)
        c2 = parse_conll(to_conll(c1))
        assert [s.tokens for s in c1.sentences] == [s.tokens for s in c2.sentences]
        assert [s.labels for s in c1.sentences] == [s.labels for s in c2.sentences]
        assert c1.label_set == c2.label_set


def test_iob1_to_bio2_cases():
    assert iob1_to_bio2(["I-A", "I-A", "O", "I-B"]) == ["B-A", "I-A", "O", "B-B"]
    assert iob1_to_bio2(["B-A", "I-A"]) == ["B-A", "I-A"]


class TestBuildVocab:
    def make(self, words):
        sents = [Sentence(list(words), {"t": ["O"] * len(words)})]
        return TaggedCorpus("t", "train", sents, ["O"])

    def test_min_freq_threshold(self):
        c = self.make(["a", "a", "a", "b"])
        v = build_vocab([c], min_freq=2)
        assert set(v.word_to_id) == set(RESERVED) | {"a"}

    def test_pretrained_overrides_frequency(self):
        c = self.make(["a", "a", "a", "b"])
        v = build_vocab([c], pretrained_words=["b"], min_freq=2)
        assert "b" in v.word_to_id

    def test_empty_corpus(self):
        c = TaggedCorpus("t", "train", [], [])
        v = build_vocab([c])
        assert set(v.word_to_id) == set(RESERVED)

    def test_deterministic(self):
        c = self.make(["x", "y", "zz", "y"])
        assert build_vocab([c]).to_dict() == build_vocab([c]).to_dict()

    def test_case_insensitive_lookup(self):
        c = self.make(["Hello"])
        v = build_vocab([c])
        assert v.word_id("HELLO") == v.word_id("hello")

    def test_digit_normalization_word_not_char(self):
        c = self.make(["B52"])
        v = build_vocab([c])
        assert "b00" in v.word_to_id
        assert "5" in v.char_to_id  # original chars kept for the char-CNN

    def test_lm_vocab_truncation(self):
        c = self.make(["a", "a", "b", "b", "c"])
        v = build_vocab([c], lm_vocab_size=2)
        assert set(v.lm_word_to_id) == set(RESERVED) | {"a", "b"}

    def test_ids_independent_of_hash_seed(self):
        # pretrained-only words of one length tie on the sort key; their ids
        # must not follow the set order that string hashing sets
        script = (
            "import json\n"
            "from seqlab.corpus import Sentence, TaggedCorpus, build_vocab\n"
            "c = TaggedCorpus('t', 'train', [Sentence(['a', 'b'], {'t': ['O', 'O']})], ['O'])\n"
            "abc = 'abcdefghijklmnopqrstuvwxyz'\n"
            "words = ['q' + x + y for x in abc for y in abc][::-1]\n"
            "print(json.dumps(build_vocab([c], pretrained_words=words).word_to_id))\n"
        )
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        maps = []
        for hash_seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                       PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
            out = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                                 capture_output=True, text=True).stdout
            maps.append(json.loads(out))
        assert maps[0] == maps[1]
        assert list(maps[0])[4:8] == ["a", "b", "qaa", "qab"]


class TestMakeBatches:
    def test_equal_length_grouping(self):
        c = small_corpus([3, 3, 5])
        batches = make_batches(c, build_vocab([c]), 2, RngState(0))
        sizes = sorted((b.length, b.size) for b in batches)
        assert sizes == [(3, 2), (5, 1)]

    def test_single_full_batch(self):
        c = small_corpus([4] * 16)
        batches = make_batches(c, build_vocab([c]), 16, RngState(0))
        assert len(batches) == 1 and batches[0].size == 16

    def test_batch_size_one(self):
        c = small_corpus([2, 2, 3])
        batches = make_batches(c, build_vocab([c]), 1, RngState(0))
        assert len(batches) == 3

    @given(st.lists(st.integers(min_value=1, max_value=6), min_size=1, max_size=30),
           st.integers(min_value=1, max_value=8), st.integers(min_value=0, max_value=100))
    @settings(max_examples=40, deadline=None)
    def test_partition_property(self, lengths, batch_size, seed):
        c = small_corpus(lengths)
        batches = make_batches(c, build_vocab([c]), batch_size, RngState(seed))
        seen = [i for b in batches for i in b.sentence_indices]
        assert sorted(seen) == list(range(len(lengths)))
        for b in batches:
            assert b.size <= batch_size
            assert all(len(c.sentences[i]) == b.length for i in b.sentence_indices)

    def test_id_matrices(self):
        c = parse_conll("John B-PER\nSmith I-PER\n\n", task_name="ner")
        v = build_vocab([c])
        (batch,) = make_batches(c, v, 4, RngState(0))
        assert batch.token_ids.shape == (1, 2)
        assert batch.char_ids.shape == (1, 2, 5)
        assert batch.label_ids["ner"].tolist() == [[0, 1]]
        assert np.all(batch.token_ids >= 4)  # past reserved ids


class TestCorpusStats:
    def test_mean_entity_length(self):
        c = parse_conll("New B-LOC\nYork I-LOC\nand O\nLima B-LOC\n\n", task_name="ner")
        s = corpus_stats(c)
        assert s.n_entities == 2
        assert s.mean_entity_length == 1.5
        assert s.per_type_mean_length == {"LOC": 1.5}

    def test_no_entities_flag(self):
        c = parse_conll("a O\n\n")
        s = corpus_stats(c)
        assert s.n_entities == 0
        assert s.mean_entity_length == 0.0
        assert not s.has_entities

    def test_counts(self):
        c = parse_conll("a O\nb B-X\n\na O\n\n")
        s = corpus_stats(c)
        assert s.n_sentences == 2
        assert s.n_words == 2
        assert s.n_labels == 2

    def test_renderings(self):
        c = parse_conll("New B-LOC\nYork I-LOC\n\n")
        s = corpus_stats(c)
        assert "sentences" in render_stats(s)
