"""Per-token input vectors: static embeddings and precomputed contextual layers."""

import hashlib
import itertools
import json
import struct

import numpy as np

from . import numeric as nm
from .corpus import normalize_word
from .numeric import RngState, Tensor

UNIT_SEP = "\x1f"
# Lines of a pretrained-vector file parsed per C-reader call: large enough to
# amortize the call, small enough that a block of a 300-d file stays a few MB.
BLOCK_LINES = 4096


class EmbeddingError(ValueError):
    pass


def sentence_key(tokens):
    """Deterministic whitespace-safe key for a token sequence."""
    joined = UNIT_SEP.join(tokens)
    return hashlib.sha256(joined.encode("utf-8")).hexdigest()


def not_utf8(path):
    """Message naming the first line of `path` that is not UTF-8. The file
    is read again as bytes, so only the error path pays for the search."""
    with open(path, "rb") as fh:
        for lineno, line in enumerate(fh, start=1):
            try:
                line.decode("utf-8")
            except UnicodeDecodeError as e:
                return "%s: line %d is not UTF-8 (byte 0x%02x)" % (path, lineno,
                                                                 line[e.start])
    return "%s is not UTF-8" % path


def load_pretrained(path, vocab, seed=0):
    """Read `word f_1 ... f_d` text embeddings for the given vocabulary.

    The file is streamed in blocks of BLOCK_LINES lines, each parsed by
    numpy's C text reader straight into the table. Lines without a space are
    skipped; a dimension mismatch or a value the reader rejects is an error
    naming the line. A file key fills the row of the vocabulary word equal to
    it, else of its normalized form: an exact key beats a normalized one,
    among normalized-only keys the first in file order wins, and a repeated
    key takes its last line. Words left without a vector get rows drawn
    uniform in +/-sqrt(3/d). Returns the (|vocab|, d) table; its PAD row
    (row 0) is zero.
    """
    word_to_id = vocab.word_to_id
    claim = {}  # vocabulary id -> the file key whose vector fills its row
    matrix = dim = None
    lineno = 0
    with open(path, encoding="utf-8") as fh:
        while True:
            try:
                lines = list(itertools.islice(fh, BLOCK_LINES))
            except UnicodeDecodeError:
                raise EmbeddingError(not_utf8(path)) from None
            if not lines:
                break
            keys, kept, linenos, mismatch = [], [], [], None
            for line in lines:
                lineno += 1
                cut = line.find(" ")
                if cut < 0:
                    continue
                n_values = line.count(" ")
                if dim is None:
                    dim = n_values
                    matrix = np.zeros((vocab.n_words, dim))
                elif n_values != dim:
                    mismatch = "line %d: dimension %d, expected %d" % (lineno, n_values, dim)
                    break
                keys.append(line[:cut])
                kept.append(line)
                linenos.append(lineno)
            # parsed first, so that a bad value above the mismatched line is named
            rows = _parse_block(kept, linenos, dim) if kept else None
            if mismatch:
                raise EmbeddingError(mismatch)
            take = {}  # vocabulary id -> row of this block; later rows win
            for row, key in enumerate(keys):
                idx = word_to_id.get(key)
                if idx is None:
                    idx = word_to_id.get(normalize_word(key))
                    if idx is None or claim.get(idx, key) != key:
                        continue
                claim[idx] = key
                take[idx] = row
            if take:
                n = len(take)
                matrix[np.fromiter(take, np.intp, n)] = rows[np.fromiter(take.values(), np.intp, n)]
    if dim is None:
        raise EmbeddingError("no embeddings found in %s" % path)
    rng = RngState(seed).child("pretrained-oov")
    bound = np.sqrt(3.0 / dim)
    for idx in word_to_id.values():
        if idx not in claim and idx != 0:
            matrix[idx] = rng.uniform(-bound, bound, dim)
    matrix[0] = 0.0
    return matrix


def _floats(lines, dim):
    """The (len(lines), dim) float64 values after the first field of each
    line, or None if the C reader rejects a value or finds another shape."""
    try:
        rows = np.loadtxt(lines, dtype=np.float64, delimiter=" ", comments=None,
                          quotechar=None, ndmin=2, usecols=range(1, dim + 1))
    except ValueError:
        return None
    return rows if rows.shape == (len(lines), dim) else None


def _parse_block(lines, linenos, dim):
    """Parse a block of `word f_1 ... f_d` lines in one C call; if that fails,
    parse them one by one to name the first bad line and value."""
    rows = _floats(lines, dim)
    if rows is not None:
        return rows
    rows = np.empty((len(lines), dim))
    for i, (lineno, line) in enumerate(zip(linenos, lines)):
        row = _floats([line], dim)
        if row is None:
            values = line.rstrip("\n").split(" ")[1:]
            bad = next((v for v in values if _floats(["_ " + v], 1) is None), line)
            raise EmbeddingError("line %d: could not convert string to float: %r"
                                 % (lineno, bad))
        rows[i] = row
    return rows


def random_embeddings(vocab, dim, seed=0):
    """Uniform +/-sqrt(3/d) (|vocab|, d) table for runs without a pretrained
    file; its PAD row (row 0) is zero."""
    rng = RngState(seed).child("random-embeddings")
    bound = np.sqrt(3.0 / dim)
    matrix = rng.uniform(-bound, bound, (vocab.n_words, dim))
    matrix[0] = 0.0
    return matrix


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

    def parameters(self):
        return [self.raw, self.gamma]


def elmo_combine(layers, weights):
    """gamma * sum_l softmax(raw)_l * layers[l]; differentiable in raw, gamma.

    `layers` is (L, ..., d) as array or Tensor, such as a batch's (L, B, T, d).
    """
    if not isinstance(layers, Tensor):
        layers = Tensor(np.asarray(layers, dtype=np.float64))
    if layers.ndim < 2 or layers.shape[0] != weights.n_layers:
        raise EmbeddingError(
            "expected %d layers, got shape %s" % (weights.n_layers, layers.shape)
        )
    log_s = weights.raw - nm.logsumexp(weights.raw, axis=0)
    s = nm.exp(log_s)
    mixed = nm.tsum(nm.mul(layers, s.reshape((-1,) + (1,) * (layers.ndim - 1))), axis=0)
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

    def lookup(self, tokens):
        key = sentence_key(tokens)
        try:
            return self._records[key]
        except KeyError:
            raise EmbeddingError(
                "contextual vectors missing for sentence %r" % " ".join(tokens)
            ) from None


_MAGIC = b"SLCV"


def load_contextual_store(path):
    """Load a store from the binary format or its JSON-lines fixture variant."""
    with open(path, "rb") as fh:
        head = fh.read(4)
        if head == _MAGIC:
            return _load_binary(fh)
    with open(path, encoding="utf-8") as fh:
        try:
            return _load_jsonl(fh)
        except UnicodeDecodeError:
            raise EmbeddingError(not_utf8(path)) from None


def _load_binary(fh):
    store = ContextualVectorStore()
    index = 0
    pos = fh.tell()
    size = fh.seek(0, 2)  # from the end: the file's size
    fh.seek(pos)
    while True:
        klen = fh.read(1)
        if not klen:
            break
        key, head = fh.read(klen[0]), fh.read(12)
        if len(key) != klen[0] or len(head) != 12:
            raise EmbeddingError("malformed record %d: truncated header" % index)
        T, L, d = struct.unpack("<III", head)
        nbytes = 4 * L * T * d
        if nbytes > size - fh.tell():
            raise EmbeddingError("malformed record %d: %d x %d x %d values, only %d bytes "
                                 "left" % (index, L, T, d, size - fh.tell()))
        values = np.frombuffer(fh.read(nbytes), dtype="<f4").reshape(L, T, d)
        store.add(key.hex(), _finite(index, values.astype(np.float64)), token_count=T)
        index += 1
    return store


_JSONL_COUNTS = ("layer_count", "token_count", "dim")


def _finite(index, values):
    if not np.isfinite(values).all():
        raise EmbeddingError("malformed record %d: non-finite value %r"
                             % (index, float(values[~np.isfinite(values)][0])))
    return values


def _load_jsonl(fh):
    store = ContextualVectorStore()
    for index, line in enumerate(fh):
        line = line.strip()
        if not line:
            continue
        try:
            rec = json.loads(line)
        except (ValueError, RecursionError) as e:
            raise EmbeddingError("malformed record %d: %s" % (index, e)) from None
        if not (isinstance(rec, dict) and isinstance(rec.get("key"), str) and "values" in rec
                and all(type(rec.get(k)) is int and rec[k] >= 0 for k in _JSONL_COUNTS)):
            raise EmbeddingError(
                "malformed record %d: need an object with a string key, values, and "
                "non-negative integer %s" % (index, ", ".join(_JSONL_COUNTS)))
        shape = tuple(rec[k] for k in _JSONL_COUNTS)
        try:
            values = np.array(rec["values"], dtype=np.float64).reshape(shape)
        except (TypeError, ValueError, OverflowError) as e:
            raise EmbeddingError("malformed record %d: %s" % (index, e)) from None
        # numpy reads null as nan, true as 1.0 and "2" as 2.0; JSON needs a number
        for x in np.array(rec["values"], dtype=object).flat:
            if type(x) not in (int, float):
                raise EmbeddingError("malformed record %d: value %s is not a number"
                                     % (index, json.dumps(x)))
        store.add(rec["key"], _finite(index, values), token_count=shape[1])
    return store
