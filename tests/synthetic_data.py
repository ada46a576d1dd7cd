"""Synthetic two-task corpora: word identity determines the fine label, and
the coarse auxiliary label collapses every fine type to ENT. Also fixture
writers and counters that only the tests use."""

import json

from seqlab.corpus import Sentence, TaggedCorpus, build_vocab
from seqlab.numeric import RngState

FINE = "fine"
COARSE = "coarse"

SINGLE_ENTS = {"ada": "AAA", "bix": "AAA", "cor": "BBB", "dax": "BBB"}
PAIR_ENT = ("port", "erin")  # always a two-token CCC entity
FILLERS = ["the", "ran", "saw", "old", "new", "far"]


def coarsen(label):
    if label == "O":
        return "O"
    return label[:2] + "ENT"


def make_sentence(rng):
    tokens, fine = [], []
    n_segments = int(rng.integers(2, 5))
    for _ in range(n_segments):
        roll = rng.random()
        if roll < 0.35:
            word = SINGLE_ENTS and sorted(SINGLE_ENTS)[int(rng.integers(0, len(SINGLE_ENTS)))]
            tokens.append(word)
            fine.append("B-" + SINGLE_ENTS[word])
        elif roll < 0.5:
            tokens.extend(PAIR_ENT)
            fine.extend(["B-CCC", "I-CCC"])
        else:
            tokens.append(FILLERS[int(rng.integers(0, len(FILLERS)))])
            fine.append("O")
    labels = {FINE: fine, COARSE: [coarsen(lab) for lab in fine]}
    return Sentence(tokens, labels)


def _label_set(sentences, task):
    seen, out = set(), []
    for s in sentences:
        for lab in s.labels[task]:
            if lab not in seen:
                seen.add(lab)
                out.append(lab)
    return out


def make_corpus(n, seed, split="train", task=FINE):
    rng = RngState(seed).child("synthetic/%s/%s" % (split, task))
    sentences = [make_sentence(rng) for _ in range(n)]
    return TaggedCorpus(task, split, sentences, _label_set(sentences, task))


def make_vocab(*corpora, lm_vocab_size=50):
    return build_vocab(list(corpora), lm_vocab_size=lm_vocab_size)


def tiny_spec_kwargs():
    return dict(hidden=6, d_word=6, d_char=3, char_window=3, char_filters=4,
                input_dropout=0.33, blstm_dropout=0.5, lam=0.05)


def to_conll(corpus):
    """Serialize a corpus to two-column text (token, label) for fixtures."""
    lines = []
    for sent in corpus.sentences:
        labs = sent.labels.get(corpus.task_name, ["O"] * len(sent))
        for tok, lab in zip(sent.tokens, labs):
            lines.append("%s %s" % (tok, lab))
        lines.append("")
    return "\n".join(lines) + "\n" if lines else ""


def parameter_count(model):
    return sum(p.size for p in model.parameters())


def lm_pair_parameter_count(hidden, n_lm_words):
    """Scalar parameters in one LM head pair: 2 * (H*|V| + |V|)."""
    return 2 * (hidden * n_lm_words + n_lm_words)


def save_contextual_jsonl(store, path):
    """Write a contextual store in the JSON-lines format `load_contextual_store` reads."""
    with open(path, "w", encoding="utf-8") as fh:
        for key, values in store._records.items():
            L, T, d = values.shape
            fh.write(json.dumps({
                "key": key,
                "token_count": T,
                "layer_count": L,
                "dim": d,
                "values": values.reshape(-1).tolist(),
            }) + "\n")
