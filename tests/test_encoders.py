import numpy as np
import pytest

from seqlab import numeric as nm
from seqlab.corpus import build_vocab, encode_batch, parse_conll
from seqlab.embeddings import ContextualVectorStore, ElmoWeights, random_embeddings
from seqlab.encoders import BLSTM, CharCNN, EncoderError, WordRepresentation
from seqlab.numeric import RngState, Tensor, grad_check
from synthetic_data import add_sentence


class TestCharCNN:
    def test_output_dim_5_char_word(self):
        cnn = CharCNN(n_chars=10, d_char=4, window=3, n_filters=30, seed=0)
        out = cnn.encode(np.array([[2, 3, 4, 5, 6]]))
        assert out.shape == (1, 30)

    def test_one_char_word(self):
        cnn = CharCNN(10, 4, 3, 30, seed=0)
        assert cnn.encode(np.array([[2]])).shape == (1, 30)

    def test_zero_filters_give_zero_vector(self):
        cnn = CharCNN(10, 4, 3, 8, seed=0)
        cnn.filters.data[...] = 0.0
        cnn.bias.data[...] = 0.0
        out = cnn.encode(np.array([[1, 2, 3]]))
        assert np.array_equal(out.data, np.zeros((1, 8)))

    def test_even_window_rejected(self):
        with pytest.raises(EncoderError):
            CharCNN(10, 4, 2, 8, seed=0)

    def test_trailing_pad_invariance(self):
        cnn = CharCNN(10, 3, 3, 6, seed=1)
        word = np.array([[2, 5, 7]])
        padded = np.array([[2, 5, 7, 0, 0]])
        assert np.allclose(cnn.encode(word).data, cnn.encode(padded).data, atol=1e-12)

    def test_grad_check(self):
        cnn = CharCNN(6, 2, 3, 3, seed=2)
        ids = np.array([[2, 3], [4, 0]])

        def loss():
            out = cnn.encode(ids)
            return nm.tsum(nm.mul(out, out))

        assert grad_check(loss, cnn.parameters()) < 1e-4

    def test_grad_check_window_5_full_and_all_pad_rows(self):
        cnn = CharCNN(7, 2, 5, 3, seed=3)
        ids = np.array([[2, 3, 4, 5], [0, 0, 0, 0], [6, 1, 0, 0]])

        def loss():
            out = cnn.encode(ids)
            return nm.tsum(nm.mul(out, out))

        assert grad_check(loss, cnn.parameters()) < 1e-4

    def test_all_pad_row_is_one_position_of_pads(self):
        cnn = CharCNN(10, 4, 3, 5, seed=4)
        out = cnn.encode(np.array([[3, 1], [0, 0]]))
        expected = np.tanh(cnn.emb.data[0] @ cnn.filters.data.sum(axis=0) + cnn.bias.data)
        assert np.allclose(out.data[1], expected, rtol=0, atol=1e-12)


class TestBLSTM:
    def test_output_shape(self):
        layer = BLSTM(d_in=5, hidden=7, seed=0, prefix="t")
        out = layer.forward(Tensor(np.zeros((2, 4, 5))))
        assert out.shape == (2, 4, 14)

    def test_zero_weights_zero_inputs_zero_outputs(self):
        # one closed-form step: gates sigmoid(0)=.5, tanh(0)=0 => h = 0
        layer = BLSTM(3, 4, seed=0, prefix="t")
        for p in layer.parameters():
            p.data[...] = 0.0
        out = layer.forward(Tensor(np.zeros((1, 3, 3))))
        assert np.array_equal(out.data, np.zeros((1, 3, 8)))

    def test_t1_boundary(self):
        layer = BLSTM(2, 3, seed=1, prefix="t")
        out = layer.forward(Tensor(RngState(0).uniform(-1, 1, (1, 1, 2))))
        assert out.shape == (1, 1, 6)

    def test_input_dim_mismatch(self):
        layer = BLSTM(4, 3, seed=0, prefix="t")
        with pytest.raises(EncoderError):
            layer.forward(Tensor(np.zeros((1, 2, 5))))

    def test_double_reverse_identity_with_tied_directions(self):
        layer = BLSTM(3, 4, seed=2, prefix="t")
        fwd = layer._dirs["fwd"]
        bwd = layer._dirs["bwd"]
        for a, b in zip(bwd, fwd):
            a.data[...] = b.data
        x = RngState(1).uniform(-1, 1, (2, 5, 3))
        y1 = layer.forward(Tensor(x)).data
        y2 = layer.forward(Tensor(x[:, ::-1, :].copy())).data
        H = 4
        swapped = np.concatenate([y2[:, ::-1, H:], y2[:, ::-1, :H]], axis=2)
        assert np.allclose(swapped, y1, atol=1e-12)

    def test_grad_check(self):
        layer = BLSTM(2, 3, seed=4, prefix="t")
        x = Tensor(RngState(3).uniform(-1, 1, (2, 4, 2)))

        def loss():
            out = layer.forward(x)
            return nm.tsum(nm.mul(out, out))

        assert grad_check(loss, layer.parameters()) < 1e-4


def tiny_batch(vocab=None, with_ctx=False):
    corpus = parse_conll("John B-PER\nsmiled O\n\n", task_name="ner")
    vocab = vocab or build_vocab([corpus])
    batch = encode_batch(corpus.sentences, [0], vocab, tasks=["ner"])
    return corpus, vocab, batch


class TestWordRepresentation:
    def make(self, d_word=6, n_filters=4, with_ctx=False, d_ctx=5):
        corpus, vocab, batch = tiny_batch()
        cnn = CharCNN(vocab.n_chars, 3, 3, n_filters, seed=0)
        emb = random_embeddings(vocab, d_word, seed=0)
        store = None
        weights = None
        if with_ctx:
            store = ContextualVectorStore()
            add_sentence(store, batch.tokens[0], RngState(9).uniform(-1, 1, (2, 2, d_ctx)))
            weights = ElmoWeights(2)
        repr_ = WordRepresentation(vocab, emb, cnn, elmo_weights=weights,
                                   contextual_store=store)
        return repr_, batch

    def test_d_repr_static(self):
        repr_, batch = self.make()
        assert repr_.d_repr == 10
        assert repr_.forward(batch).shape == (1, 2, 10)

    def test_d_repr_with_contextual(self):
        repr_, batch = self.make(with_ctx=True)
        assert repr_.d_repr == 15
        assert repr_.forward(batch).shape == (1, 2, 15)

    def test_eval_mode_deterministic(self):
        repr_, batch = self.make()
        assert np.array_equal(repr_.forward(batch).data, repr_.forward(batch).data)

    def test_missing_contextual_record_propagates(self):
        from seqlab.embeddings import EmbeddingError

        repr_, batch = self.make(with_ctx=True)
        repr_.contextual_store = ContextualVectorStore(2, 5)
        with pytest.raises(EmbeddingError, match="missing"):
            repr_.forward(batch)

    def test_grad_check(self):
        repr_, batch = self.make(d_word=3, n_filters=2, with_ctx=True, d_ctx=2)

        def loss():
            out = repr_.forward(batch)
            return nm.tsum(nm.mul(out, out))

        assert grad_check(loss, repr_.parameters()) < 1e-4
