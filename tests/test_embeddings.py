import numpy as np
import pytest

from seqlab import numeric as nm
from seqlab.corpus import Sentence, TaggedCorpus, build_vocab
from seqlab.embeddings import (
    ContextualVectorStore,
    ElmoWeights,
    EmbeddingError,
    elmo_combine,
    load_contextual_store,
    load_pretrained,
    save_contextual_store,
    sentence_key,
)
from seqlab.numeric import RngState, Tensor, grad_check
from synthetic_data import save_contextual_jsonl


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
        store.add_sentence(tokens, np.zeros((2, 3, 4)))
        assert store.lookup(tokens).shape == (2, 3, 4)

    def test_missing_sentence_error_names_it(self):
        store = ContextualVectorStore()
        with pytest.raises(EmbeddingError, match="unseen sentence"):
            store.lookup(["unseen", "sentence"])

    def test_duplicate_key_error(self):
        store = ContextualVectorStore()
        store.add_sentence(["a"], np.zeros((1, 1, 2)))
        with pytest.raises(EmbeddingError, match="duplicate"):
            store.add_sentence(["a"], np.zeros((1, 1, 2)))

    def test_merge_union_and_duplicate(self):
        s1 = ContextualVectorStore()
        s1.add_sentence(["a"], np.zeros((1, 1, 2)))
        s2 = ContextualVectorStore()
        s2.add_sentence(["b"], np.ones((1, 1, 2)))
        merged = s1.merge(s2)
        assert len(merged) == 2
        with pytest.raises(EmbeddingError, match="duplicate"):
            s1.merge(s1)

    def test_inconsistent_dims_rejected(self):
        store = ContextualVectorStore()
        store.add_sentence(["a"], np.zeros((2, 1, 4)))
        with pytest.raises(EmbeddingError, match="inconsistent"):
            store.add_sentence(["b"], np.zeros((3, 1, 4)))

    def test_token_count_must_match_key(self):
        store = ContextualVectorStore()
        with pytest.raises(EmbeddingError, match="token count"):
            store.add_sentence(["a", "b"], np.zeros((1, 3, 4)))

    @pytest.mark.parametrize("saver", [save_contextual_store, save_contextual_jsonl])
    def test_round_trip(self, tmp_path, saver):
        rng = RngState(4)
        store = ContextualVectorStore()
        store.add_sentence(["New", "York"], rng.uniform(-1, 1, (2, 2, 3)).astype(np.float32))
        store.add_sentence(["x"], rng.uniform(-1, 1, (2, 1, 3)).astype(np.float32))
        path = tmp_path / "store.bin"
        saver(store, path)
        loaded = load_contextual_store(path)
        assert loaded.n_layers == 2 and loaded.dim == 3
        assert np.allclose(loaded.lookup(["New", "York"]),
                           store.lookup(["New", "York"]), atol=1e-7)

    def test_sentence_key_whitespace_safe(self):
        assert sentence_key(["a b", "c"]) != sentence_key(["a", "b c"])
