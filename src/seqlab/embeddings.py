"""Per-token input vectors: static embeddings and precomputed contextual layers."""

import hashlib
import json
import struct

import numpy as np

from . import numeric as nm
from .numeric import RngState, Tensor

UNIT_SEP = "\x1f"


class EmbeddingError(ValueError):
    pass


def sentence_key(tokens):
    """Deterministic whitespace-safe key for a token sequence."""
    joined = UNIT_SEP.join(tokens)
    return hashlib.sha256(joined.encode("utf-8")).hexdigest()


class EmbeddingMatrix:
    """|vocab| x d word-embedding table; row 0 (PAD) is pinned to zero."""

    def __init__(self, matrix, trainable=True, coverage=0):
        self.matrix = np.asarray(matrix, dtype=np.float64)
        self.d_word = self.matrix.shape[1]
        self.trainable = trainable
        self.coverage = coverage
        self.matrix[0] = 0.0


def load_pretrained(path, vocab, seed=0):
    """Read `word f_1 ... f_d` text embeddings for the given vocabulary.

    Words missing from the file get rows drawn uniform in +/-sqrt(3/d);
    the PAD row is zero. Dimension mismatches and bad floats are errors.
    """
    vectors = {}
    dim = None
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            parts = line.rstrip("\n").split(" ")
            if len(parts) < 2:
                continue
            word, values = parts[0], parts[1:]
            if dim is None:
                dim = len(values)
            elif len(values) != dim:
                raise EmbeddingError(
                    "line %d: dimension %d, expected %d" % (lineno, len(values), dim)
                )
            try:
                vectors[word] = np.array([float(v) for v in values])
            except ValueError as e:
                raise EmbeddingError("line %d: %s" % (lineno, e)) from None
    if dim is None:
        raise EmbeddingError("no embeddings found in %s" % path)
    rng = RngState(seed).child("pretrained-oov")
    bound = np.sqrt(3.0 / dim)
    matrix = np.zeros((vocab.n_words, dim))
    coverage = 0
    for word, idx in vocab.word_to_id.items():
        if word in vectors:
            matrix[idx] = vectors[word]
            coverage += 1
        elif idx != 0:
            matrix[idx] = rng.uniform(-bound, bound, dim)
    return EmbeddingMatrix(matrix, coverage=coverage)


def random_embeddings(vocab, dim, seed=0):
    """Uniform +/-sqrt(3/d) table for runs without a pretrained file."""
    rng = RngState(seed).child("random-embeddings")
    bound = np.sqrt(3.0 / dim)
    matrix = rng.uniform(-bound, bound, (vocab.n_words, dim))
    return EmbeddingMatrix(matrix)


class ElmoWeights:
    """Trainable softmax-normalized layer weights and scale for mixing
    contextual-vector layers."""

    def __init__(self, n_layers, raw_weights=None, gamma=1.0, prefix="repr.elmo",
                 saved=None):
        raw = np.zeros(n_layers) if raw_weights is None else np.asarray(raw_weights, float)
        if raw.shape != (n_layers,):
            raise EmbeddingError("need %d raw weights, got %s" % (n_layers, raw.shape))
        self.n_layers = n_layers
        self.raw = nm.init_parameter(prefix + ".raw", raw.shape, lambda _: raw, saved)
        self.gamma = nm.init_parameter(prefix + ".gamma", (), lambda _: np.array(float(gamma)),
                                       saved)

    @classmethod
    def frozen_top_layer(cls, n_layers=2, prefix="repr.elmo"):
        """Weights pinned (numerically) to the top layer with unit scale."""
        raw = np.full(n_layers, -60.0)
        raw[-1] = 60.0
        return cls(n_layers, raw_weights=raw, gamma=1.0, prefix=prefix)

    def parameters(self):
        return [self.raw, self.gamma]


def elmo_combine(layers, weights):
    """gamma * sum_l softmax(raw)_l * layers[l]; differentiable in raw, gamma.

    `layers` is (L, T, d) as array or Tensor.
    """
    if not isinstance(layers, Tensor):
        layers = Tensor(np.asarray(layers, dtype=np.float64))
    if layers.ndim != 3 or layers.shape[0] != weights.n_layers:
        raise EmbeddingError(
            "expected %d layers, got shape %s" % (weights.n_layers, layers.shape)
        )
    log_s = weights.raw - nm.logsumexp(weights.raw, axis=0)
    s = nm.exp(log_s)
    mixed = nm.tsum(nm.mul(layers, s.reshape(-1, 1, 1)), axis=0)
    return nm.mul(mixed, weights.gamma)


class ContextualVectorStore:
    """Precomputed per-sentence layer activations, keyed by sentence hash."""

    def __init__(self, n_layers=None, dim=None):
        self.n_layers = n_layers
        self.dim = dim
        self._records = {}

    def __len__(self):
        return len(self._records)

    def add(self, key, values, token_count=None):
        values = np.asarray(values, dtype=np.float64)
        if values.ndim != 3:
            raise EmbeddingError("record %r: values must be (layers, tokens, dim)" % key)
        if token_count is not None and values.shape[1] != token_count:
            raise EmbeddingError("record %r: token count mismatch" % key)
        if self.n_layers is None:
            self.n_layers, self.dim = values.shape[0], values.shape[2]
        elif (values.shape[0], values.shape[2]) != (self.n_layers, self.dim):
            raise EmbeddingError(
                "record %r: inconsistent layer count or dimension" % key
            )
        if key in self._records:
            raise EmbeddingError("duplicate sentence key %r" % key)
        self._records[key] = values

    def add_sentence(self, tokens, values):
        self.add(sentence_key(tokens), values, token_count=len(tokens))

    def lookup(self, tokens):
        key = sentence_key(tokens)
        try:
            return self._records[key]
        except KeyError:
            raise EmbeddingError(
                "contextual vectors missing for sentence %r" % " ".join(tokens)
            ) from None

    def merge(self, other):
        """Union of two stores; duplicate keys are an error."""
        out = ContextualVectorStore(self.n_layers, self.dim)
        for key, values in self._records.items():
            out.add(key, values)
        for key, values in other._records.items():
            out.add(key, values)
        return out


_MAGIC = b"SLCV"


def save_contextual_store(store, path):
    """Binary record format: key, counts, then float32 little-endian values."""
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        for key, values in store._records.items():
            raw = bytes.fromhex(key)
            fh.write(struct.pack("<B", len(raw)))
            fh.write(raw)
            L, T, d = values.shape
            fh.write(struct.pack("<III", T, L, d))
            fh.write(values.astype("<f4").tobytes())


def load_contextual_store(path):
    """Load a store from the binary format or its JSON-lines fixture variant."""
    with open(path, "rb") as fh:
        head = fh.read(4)
        if head == _MAGIC:
            return _load_binary(fh)
    with open(path, encoding="utf-8") as fh:
        return _load_jsonl(fh)


def _load_binary(fh):
    store = ContextualVectorStore()
    index = 0
    while True:
        klen = fh.read(1)
        if not klen:
            break
        try:
            key = fh.read(klen[0]).hex()
            T, L, d = struct.unpack("<III", fh.read(12))
            payload = fh.read(4 * L * T * d)
            values = np.frombuffer(payload, dtype="<f4").reshape(L, T, d)
        except (struct.error, ValueError) as e:
            raise EmbeddingError("malformed record %d: %s" % (index, e)) from None
        store.add(key, values.astype(np.float64), token_count=T)
        index += 1
    return store


def _load_jsonl(fh):
    store = ContextualVectorStore()
    for index, line in enumerate(fh):
        line = line.strip()
        if not line:
            continue
        try:
            rec = json.loads(line)
            values = np.array(rec["values"], dtype=np.float64).reshape(
                rec["layer_count"], rec["token_count"], rec["dim"]
            )
            key = rec["key"]
        except (KeyError, ValueError) as e:
            raise EmbeddingError("malformed record %d: %s" % (index, e)) from None
        store.add(key, values, token_count=rec["token_count"])
    return store
