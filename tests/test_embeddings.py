import io
import json
import re
import struct
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import pretrained_reference
from seqlab import embeddings, numeric as nm
from seqlab.corpus import Sentence, TaggedCorpus, build_vocab
from seqlab.embeddings import (
    ContextualVectorStore,
    ElmoWeights,
    EmbeddingError,
    _load_binary,
    _load_jsonl,
    elmo_combine,
    load_contextual_store,
    load_pretrained,
    sentence_key,
)
from seqlab.numeric import RngState, Tensor, grad_check
from synthetic_data import add_sentence, save_contextual_jsonl, save_contextual_store


def vocab_of(words):
    sents = [Sentence(list(words), {"t": ["O"] * len(words)})]
    return build_vocab([TaggedCorpus("t", "train", sents, ["O"])])


class TestLoadPretrained:
    def test_direct_read(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("hello 0.1 0.2\n")
        v = vocab_of(["hello"])
        m = load_pretrained(path, v)
        assert m.d_word == 2
        assert m.matrix[v.word_id("hello")].tolist() == [0.1, 0.2]
        assert m.coverage == 1

    def test_oov_bound(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("other 1.0 1.0\n")
        v = vocab_of(["missing"])
        m = load_pretrained(path, v)
        row = m.matrix[v.word_id("missing")]
        bound = np.sqrt(3.0 / 2)
        assert np.all(np.abs(row) <= bound)
        assert np.any(row != 0)

    def test_pad_row_zero(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("a 1.0 2.0\n")
        m = load_pretrained(path, vocab_of(["a"]))
        assert np.array_equal(m.matrix[0], np.zeros(2))

    def test_dim_mismatch(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("a 1.0 2.0\nb 1.0\n")
        with pytest.raises(EmbeddingError, match="line 2"):
            load_pretrained(path, vocab_of(["a"]))

    def test_bad_float(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("a x y\n")
        with pytest.raises(EmbeddingError, match="line 1"):
            load_pretrained(path, vocab_of(["a"]))

    def test_bad_value_named_with_its_line(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("a 1 2\n\nb 3 zz\nc 4\n")
        with pytest.raises(EmbeddingError,
                           match=r"^line 3: could not convert string to float: 'zz'$"):
            load_pretrained(path, vocab_of(["a"]))

    def test_errors_in_file_order_across_blocks(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("a 1 2\nb 1 2\nc 1 x\nd 1\ne 1 y\n")
        with mock.patch.object(embeddings, "BLOCK_LINES", 2):
            with pytest.raises(EmbeddingError, match=r"^line 3: .*'x'$"):
                load_pretrained(path, vocab_of(["a"]))
        path.write_text("a 1 2\nb 1 2\nc 1\nd 1 x\n")
        for block in (1, 2, 4096):
            with mock.patch.object(embeddings, "BLOCK_LINES", block):
                with pytest.raises(EmbeddingError, match=r"^line 3: dimension 1, expected 2$"):
                    load_pretrained(path, vocab_of(["a"]))

    def test_non_utf8_line_is_named(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_bytes(b"a 1 2\nb 1 2\n\nc 3 4\n\xe9t\xe9 5 6\nd 7 8\n")
        message = "^%s: line 5 is not UTF-8 \\(byte 0xe9\\)$" % re.escape(str(path))
        for block in (2, 4096):
            with mock.patch.object(embeddings, "BLOCK_LINES", block):
                with pytest.raises(EmbeddingError, match=message):
                    load_pretrained(path, vocab_of(["a"]))

    @pytest.mark.parametrize("value", ["1_0", "\u0661", "\uff11"])
    def test_forms_the_c_reader_rejects(self, tmp_path, value):
        # float() accepts underscores and non-ASCII digits; the loader does not
        path = tmp_path / "emb.txt"
        path.write_text("a 1 %s\n" % value, encoding="utf-8")
        with pytest.raises(EmbeddingError, match=r"^line 1: .*%r$" % value):
            load_pretrained(path, vocab_of(["a"]))

    def test_information_separators_are_whitespace(self, tmp_path):
        # the C reader strips U+001C..U+001F around a value; float() rejects them
        path = tmp_path / "emb.txt"
        path.write_text("a \x1c1 2\x1f\n")
        assert load_pretrained(path, vocab_of(["a"])).matrix[4].tolist() == [1.0, 2.0]

    def test_cased_and_digit_keys_are_found(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("Paris 1 2\nb52 3 4\nrome 5 6\n")
        v = vocab_of(["Paris", "b52", "rome"])
        m = load_pretrained(path, v)
        assert m.coverage == 3
        assert [m.matrix[v.word_id(w)].tolist() for w in ("Paris", "b52", "rome")] == [
            [1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]

    @pytest.mark.parametrize("text, row", [
        ("Paris 1 1\nparis 2 2\n", [2.0, 2.0]),   # exact beats normalized ...
        ("paris 2 2\nParis 1 1\n", [2.0, 2.0]),   # ... in either order
        ("PARIS 1 1\nParis 2 2\n", [1.0, 1.0]),   # first normalized-only key wins
        ("PARIS 1 1\nParis 2 2\nPARIS 3 3\n", [3.0, 3.0]),  # its last line
        ("paris 1 1\nparis 2 2\n", [2.0, 2.0]),   # repeated exact key: last line
    ], ids=["exact_last", "exact_first", "first_normalized", "normalized_repeat", "repeat"])
    def test_tie_rule(self, tmp_path, text, row):
        path = tmp_path / "emb.txt"
        path.write_text(text)
        v = vocab_of(["paris"])
        for block in (1, 4096):
            with mock.patch.object(embeddings, "BLOCK_LINES", block):
                m = load_pretrained(path, v)
            assert m.matrix[v.word_id("paris")].tolist() == row and m.coverage == 1


KEYS = st.one_of(
    st.sampled_from(["Paris", "paris", "PARIS", "b52", "B52", "b00", "rome", "Rome",
                     "<UNK>", "<PAD>"]),
    st.text(alphabet="aAb05\u00e9\u00c9", max_size=3),
)
VALUES = st.one_of(
    st.floats().map(repr),
    st.floats(allow_nan=False).map(lambda v: "%.4e" % v),
    st.sampled_from(["inf", "-inf", "+Infinity", "nan", "-nan", "NaN", "1E5", "-0.0", ".5",
                     "5.", "+7", "0001", "1e-400", "1e400", "4.9e-324"]),
)


@st.composite
def vector_files(draw):
    """Valid vector files: vector lines, blank lines and space-free lines."""
    dim = draw(st.integers(1, 4))
    vector = st.tuples(KEYS, st.lists(VALUES, min_size=dim, max_size=dim)).map(
        lambda kv: " ".join([kv[0]] + kv[1]))
    lines = draw(st.lists(st.one_of(vector, vector, st.just(""), st.sampled_from(["word", "\t"])),
                          min_size=1, max_size=12))
    return "\n".join(lines) + draw(st.sampled_from(["", "\n"]))


CORPUS_WORDS = st.lists(st.one_of(KEYS.filter(bool), st.sampled_from(["PaRiS", "b99"])),
                        min_size=1, max_size=6)
# inserted into valid files; U+001C..U+001F are left out because the C reader
# takes them as whitespace where float() rejects them (pinned above)
GARBAGE = st.text(alphabet=" \n\r\tx_e.-+#\"\x00\x0c\x85\u2028\u0661", min_size=1, max_size=3)


@pytest.fixture(scope="module")
def vec_path(tmp_path_factory):
    return tmp_path_factory.mktemp("vectors") / "emb.txt"


def load_both(path, text, words, block):
    path.write_text(text, encoding="utf-8")
    vocab = vocab_of(words)
    with mock.patch.object(embeddings, "BLOCK_LINES", block):
        try:
            got = load_pretrained(path, vocab, seed=7)
        except EmbeddingError:
            got = None
    try:
        want = pretrained_reference.load_pretrained(path, vocab, seed=7)
    except EmbeddingError:
        want = None
    return got, want


class TestLoadPretrainedOracle:
    """The streamed loader against the per-value reference in
    tests/pretrained_reference.py."""

    @settings(max_examples=150, deadline=None)
    @given(text=vector_files(), words=CORPUS_WORDS, block=st.integers(1, 4))
    def test_matches_reference_on_valid_files(self, vec_path, text, words, block):
        got, want = load_both(vec_path, text, words, block)
        assert (got is None) == (want is None)  # None: no vector line at all
        if got is not None:
            assert got.matrix.tobytes() == want.matrix.tobytes()
            assert got.coverage == want.coverage and got.d_word == want.d_word

    @settings(max_examples=150, deadline=None)
    @given(text=vector_files(), words=CORPUS_WORDS, block=st.integers(1, 4),
           edits=st.lists(st.tuples(st.floats(0, 1), GARBAGE), max_size=3),
           cut=st.floats(0, 1))
    def test_garbled_files_load_or_raise(self, vec_path, text, words, block, edits, cut):
        for at, junk in edits:
            i = int(at * len(text))
            text = text[:i] + junk + text[i:]
        text = text[:int(cut * len(text)) + 1] if cut < 0.5 else text
        got, want = load_both(vec_path, text, words, block)  # raises nothing else
        if got is not None:
            assert want is not None
            assert got.matrix.tobytes() == want.matrix.tobytes()
            assert got.coverage == want.coverage


class TestElmoCombine:
    def test_frozen_setting_returns_top_layer(self):
        rng = RngState(0)
        layers = rng.uniform(-2, 2, (2, 3, 4))
        w = ElmoWeights.frozen_top_layer(2)
        out = elmo_combine(layers, w)
        assert np.array_equal(out.data, layers[1])

    def test_gamma_zero(self):
        w = ElmoWeights(2, gamma=0.0)
        out = elmo_combine(np.ones((2, 3, 4)), w)
        assert np.array_equal(out.data, np.zeros((3, 4)))

    def test_equal_weights_convex_combination(self):
        layers = np.array([[[2.0, 0.0]], [[0.0, 2.0]]])  # L=2, T=1, d=2
        out = elmo_combine(layers, ElmoWeights(2))
        assert out.data.tolist() == [[1.0, 1.0]]

    def test_linear_in_gamma(self):
        rng = RngState(1)
        layers = rng.uniform(-1, 1, (3, 2, 5))
        raw = rng.uniform(-1, 1, 3)
        out1 = elmo_combine(layers, ElmoWeights(3, raw_weights=raw, gamma=0.7))
        out2 = elmo_combine(layers, ElmoWeights(3, raw_weights=raw, gamma=1.4))
        assert np.allclose(out2.data, 2.0 * out1.data, atol=1e-12)

    def test_softmax_normalization(self):
        raw = np.array([0.3, -1.2, 2.0])
        s = np.exp(raw - np.log(np.exp(raw).sum()))
        assert abs(s.sum() - 1.0) < 1e-12

    def test_identical_layers(self):
        layer = RngState(2).uniform(-1, 1, (1, 4, 3))
        layers = np.concatenate([layer, layer], axis=0)
        w = ElmoWeights(2, raw_weights=[1.3, -0.2], gamma=2.5)
        assert np.allclose(elmo_combine(layers, w).data, 2.5 * layer[0], atol=1e-12)

    def test_layer_count_mismatch(self):
        with pytest.raises(EmbeddingError):
            elmo_combine(np.zeros((3, 2, 2)), ElmoWeights(2))

    def test_grad_check(self):
        rng = RngState(3)
        layers = Tensor(rng.uniform(-1, 1, (2, 3, 4)))
        w = ElmoWeights(2, raw_weights=[0.5, -0.5], gamma=1.2)

        def loss():
            out = elmo_combine(layers, w)
            return nm.tsum(nm.mul(out, out))

        assert grad_check(loss, w.parameters()) < 1e-4


class TestContextualStore:
    def test_shape_contract(self):
        store = ContextualVectorStore()
        tokens = ["a", "b", "c"]
        add_sentence(store, tokens, np.zeros((2, 3, 4)))
        assert store.lookup(tokens).shape == (2, 3, 4)

    def test_missing_sentence_error_names_it(self):
        store = ContextualVectorStore()
        with pytest.raises(EmbeddingError, match="unseen sentence"):
            store.lookup(["unseen", "sentence"])

    def test_duplicate_key_error(self):
        store = ContextualVectorStore()
        add_sentence(store, ["a"], np.zeros((1, 1, 2)))
        with pytest.raises(EmbeddingError, match="duplicate"):
            add_sentence(store, ["a"], np.zeros((1, 1, 2)))

    def test_inconsistent_dims_rejected(self):
        store = ContextualVectorStore()
        add_sentence(store, ["a"], np.zeros((2, 1, 4)))
        with pytest.raises(EmbeddingError, match="inconsistent"):
            add_sentence(store, ["b"], np.zeros((3, 1, 4)))

    def test_token_count_must_match_key(self):
        store = ContextualVectorStore()
        with pytest.raises(EmbeddingError, match="token count"):
            add_sentence(store, ["a", "b"], np.zeros((1, 3, 4)))

    @pytest.mark.parametrize("saver", [save_contextual_store, save_contextual_jsonl])
    def test_round_trip(self, tmp_path, saver):
        rng = RngState(4)
        store = ContextualVectorStore()
        add_sentence(store, ["New", "York"], rng.uniform(-1, 1, (2, 2, 3)).astype(np.float32))
        add_sentence(store, ["x"], rng.uniform(-1, 1, (2, 1, 3)).astype(np.float32))
        path = tmp_path / "store.bin"
        saver(store, path)
        loaded = load_contextual_store(path)
        assert loaded.n_layers == 2 and loaded.dim == 3
        assert np.allclose(loaded.lookup(["New", "York"]),
                           store.lookup(["New", "York"]), atol=1e-7)

    def test_sentence_key_whitespace_safe(self):
        assert sentence_key(["a b", "c"]) != sentence_key(["a", "b c"])


def jsonl_record(**fields):
    rec = {"key": sentence_key(["a"]), "layer_count": 1, "token_count": 1, "dim": 2,
           "values": [[[0.5, 1.5]]]}
    rec.update(fields)
    return json.dumps(rec)


def binary_record(key=b"k", counts=(1, 1, 2), values=b"\0" * 8):
    return struct.pack("<B", len(key)) + key + struct.pack("<III", *counts) + values


class TestContextualLoadersTotal:
    """Malformed stores raise EmbeddingError naming the record, nothing else."""

    @pytest.mark.parametrize("line", [
        "[1,2,3]", '"text"', "{}", jsonl_record(token_count="1"), jsonl_record(dim=True),
        jsonl_record(layer_count=-1), jsonl_record(key=["a"]), jsonl_record(values={"a": 1}),
        jsonl_record(values=[[[1e999999]]]).replace("Infinity", "1" + "0" * 400),
        jsonl_record(values=[[[1]], [[1, 2]]]), jsonl_record(dim=3), "{", "[" * 100000,
        jsonl_record(values=[[[None, True]]]), jsonl_record(values=[[[1.0, False]]]),
        jsonl_record(values=[[[1, "2"]]]), jsonl_record(values=[[[float("nan"), 1]]]),
        jsonl_record(values=[[[1, float("-inf")]]]), jsonl_record(values=[[[1e308, 1e309]]]),
    ], ids=["list", "string", "empty", "str_count", "bool_dim", "negative", "list_key",
            "dict_values", "huge_int", "ragged", "shape", "truncated", "deep", "null",
            "false", "str_value", "nan", "minus_infinity", "overflow_float"])
    def test_jsonl_record_rejected(self, line):
        with pytest.raises(EmbeddingError, match="^malformed record 1: "):
            _load_jsonl(io.StringIO(jsonl_record() + "\n" + line + "\n"))

    @pytest.mark.parametrize("data", [
        binary_record()[:5], binary_record()[:-1], binary_record(counts=(1, 1, 2 ** 31)),
        binary_record(counts=(2 ** 32 - 1,) * 3), b"\x05ab",
        binary_record(values=struct.pack("<2f", 1, float("nan"))),
        binary_record(values=struct.pack("<2f", float("inf"), 1)),
    ], ids=["header", "payload", "huge", "overflow", "key", "nan", "infinity"])
    def test_binary_record_rejected(self, data):
        with pytest.raises(EmbeddingError, match="^malformed record 1: "):
            _load_binary(io.BytesIO(binary_record(key=b"j") + data))

    @settings(max_examples=150, deadline=None)
    @given(data=st.binary(max_size=64), prefix=st.sampled_from([b"", binary_record()]))
    def test_binary_fuzz(self, data, prefix):
        try:
            store = _load_binary(io.BytesIO(prefix + data))
        except EmbeddingError:
            return
        for values in store._records.values():
            assert np.isfinite(values).all()

    @settings(max_examples=150, deadline=None)
    @given(text=st.one_of(
        st.text(alphabet='{}[]":,0123456789.-e ntrufalsekyvdimcoyg_\n', max_size=80),
        st.builds(lambda rec, cut: rec[:cut], st.builds(jsonl_record), st.integers(0, 120)),
        st.recursive(st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=3),
                     lambda kids: st.lists(kids, max_size=3)
                     | st.dictionaries(st.sampled_from(["key", "values", "layer_count",
                                                        "token_count", "dim"]), kids),
                     max_leaves=8).map(json.dumps),
        st.builds(lambda leaves: jsonl_record(values=[[leaves]], dim=2),
                  st.lists(st.none() | st.booleans() | st.integers() | st.floats()
                           | st.text(max_size=2), min_size=2, max_size=2))))
    def test_jsonl_fuzz(self, text):
        try:
            store = _load_jsonl(io.StringIO(text))
        except EmbeddingError:
            return
        # a store that loads holds JSON numbers only, all of them finite
        for line in filter(str.strip, text.splitlines()):
            leaves = np.array(json.loads(line)["values"], dtype=object).reshape(-1)
            assert all(type(x) in (int, float) for x in leaves)
        for values in store._records.values():
            assert np.isfinite(values).all()
