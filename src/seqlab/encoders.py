"""Token representations (word embedding + char-CNN + optional contextual
vector) and bi-directional LSTM encoding."""

import numpy as np

from . import numeric as nm
from .numeric import glorot_parameter, init_parameter


class EncoderError(ValueError):
    pass


class CharCNN:
    """Character convolution with tanh and max-pooling over time."""

    def __init__(self, n_chars, d_char, window, n_filters, seed, prefix="repr.char_cnn",
                 saved=None):
        if window % 2 != 1:
            raise EncoderError("window size must be odd")
        self.d_char = d_char
        self.window = window
        self.n_filters = n_filters
        self.emb = glorot_parameter(prefix + ".emb", (n_chars, d_char), seed, saved,
                                    row_sparse=True)
        self.filters = glorot_parameter(prefix + ".filters", (window, d_char, n_filters),
                                        seed, saved)
        self.bias = init_parameter(prefix + ".bias", (n_filters,), np.zeros, saved)

    def parameters(self):
        return [self.emb, self.filters, self.bias]

    def encode(self, char_ids):
        """(N, max_word_len) char ids -> (N, n_filters) word vectors, as one
        tape node over (emb, filters, bias).

        A word with n non-PAD characters, padded with window // 2 PADs on
        both sides, has max(n, 1) convolution positions, so trailing PAD
        columns cannot change it. Only those positions are convolved, packed
        word after word into M rows: per window offset k a (M, d_char) @
        (d_char, F) product, summed in k order, plus the bias, tanh, and a max
        over the word's rows. The backward routes each (word, filter)
        gradient to the word's first argmax row.
        """
        char_ids = np.asarray(char_ids)
        n, length = char_ids.shape
        lengths = np.maximum(np.count_nonzero(char_ids, axis=1), 1)
        starts = np.cumsum(lengths) - lengths
        half = self.window // 2
        padded = np.zeros((n, length + 2 * half), dtype=np.intp)
        padded[:, half : half + length] = char_ids
        # packed row m is position p of word w; its window's ids at k are
        # padded[w, p + k], found in the flattened array
        word = np.repeat(np.arange(n), lengths)
        first = word * padded.shape[1] + np.arange(word.size) - starts[word]
        ids = padded.reshape(-1)[first + np.arange(self.window)[:, None]]  # (window, M)
        emb, filters, bias = self.emb, self.filters, self.bias
        rows = emb.data[ids]  # (window, M, d_char)
        act = rows[0] @ filters.data[0]
        for k in range(1, self.window):
            act += rows[k] @ filters.data[k]
        act += bias.data
        np.tanh(act, out=act)
        out = np.maximum.reduceat(act, starts, axis=0)

        def backward(g):
            # first argmax row of each (word, filter); a NaN is the max of
            # its word, as argmax has it
            hit = (act == out[word]) | np.isnan(act)
            arg = np.minimum.reduceat(np.where(hit, np.arange(word.size)[:, None], word.size),
                                      starts, axis=0)
            d = np.zeros_like(act)
            np.put_along_axis(d, arg, g * (1.0 - out * out), axis=0)
            if bias.requires_grad:
                bias.accumulate(d.sum(axis=0))
            if filters.requires_grad:
                filters.accumulate(np.stack([rows[k].T @ d for k in range(self.window)]))
            if emb.requires_grad:
                emb.accumulate_rows(ids.reshape(-1), np.concatenate(
                    [d @ filters.data[k].T for k in range(self.window)]))

        return nm.make_node(out, (emb, filters, bias), backward)


class BLSTM:
    """Single-layer bi-directional LSTM; output is [forward; backward]."""

    def __init__(self, d_in, hidden, seed, prefix, saved=None):
        self.d_in = d_in
        self.hidden = hidden
        self._dirs = {}

        def forget_bias(shape):
            b = np.zeros(shape)
            b[hidden : 2 * hidden] = 1.0
            return b

        for direction in ("fwd", "bwd"):
            name = "%s.%s" % (prefix, direction)
            self._dirs[direction] = (
                glorot_parameter(name + ".W_x", (d_in, 4 * hidden), seed, saved),
                glorot_parameter(name + ".W_h", (hidden, 4 * hidden), seed, saved),
                init_parameter(name + ".b", (4 * hidden,), forget_bias, saved))

    def parameters(self):
        return [p for triple in self._dirs.values() for p in triple]

    def forward(self, x):
        """(B, T, d_in) -> (B, T, 2H); output dropout is the caller's."""
        if x.shape[-1] != self.d_in:
            raise EncoderError(
                "input dimension %d != layer input size %d" % (x.shape[-1], self.d_in)
            )
        return nm.blstm(x, self._dirs["fwd"], self._dirs["bwd"])


class WordRepresentation:
    """Concatenation of word embedding, char-CNN vector, and optional
    contextual vector per token: the `elmo_weights` mix of the store's
    layers, or without weights the top layer as it is. `table` is the
    initial (|vocab|, d_word) word table; a frozen one is never updated."""

    def __init__(self, table, char_cnn, trainable=True, elmo_weights=None,
                 contextual_store=None, saved=None):
        self.char_cnn = char_cnn
        self.elmo_weights = elmo_weights
        self.contextual_store = contextual_store
        self.word_emb = init_parameter("repr.word_emb", np.shape(table),
                                       lambda _: np.array(table, dtype=np.float64), saved,
                                       row_sparse=True)
        # a frozen table is no gradient target: nothing would clear its rows
        self.word_emb.requires_grad = trainable

    @property
    def d_repr(self):
        d = self.word_emb.shape[1] + self.char_cnn.n_filters
        if self.contextual_store is not None:
            d += self.contextual_store.dim
        return d

    def parameters(self):
        params = [self.word_emb] if self.word_emb.requires_grad else []
        params.extend(self.char_cnn.parameters())
        if self.elmo_weights is not None:
            params.extend(self.elmo_weights.parameters())
        return params

    def forward(self, batch):
        """Batch -> (B, T, d_repr); input dropout is the caller's. The
        contextual layers of the B sentences are mixed in one call."""
        from .embeddings import elmo_combine

        B, T = batch.token_ids.shape
        words = nm.gather(self.word_emb, batch.token_ids)  # (B, T, d_word)
        chars = self.char_cnn.encode(batch.char_ids.reshape(B * T, -1))
        chars = chars.reshape(B, T, self.char_cnn.n_filters)
        parts = [words, chars]
        if self.contextual_store is not None:
            layers = np.stack([self.contextual_store.lookup(tokens) for tokens in batch.tokens],
                              axis=1)  # (L, B, T, d_ctx)
            parts.append(layers[-1] if self.elmo_weights is None
                         else elmo_combine(layers, self.elmo_weights))
        return nm.concat(parts, axis=2)
