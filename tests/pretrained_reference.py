"""Per-value reference for `embeddings.load_pretrained`.

The whole file is read into a dict of per-word arrays, one Python `float()`
per value, and the lookup cascade is then applied to the dict. Tests compare
the streamed, C-parsed loader against this on valid files.
"""

import numpy as np

from seqlab.corpus import normalize_word
from seqlab.embeddings import EmbeddingError
from seqlab.numeric import RngState


def load_pretrained(path, vocab, seed=0):
    vectors = {}  # raw key -> values of its last line, in first-appearance order
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
    word_to_id = vocab.word_to_id
    exact = {word_to_id[key]: key for key in vectors if key in word_to_id}
    normalized = {}
    for key in vectors:
        idx = word_to_id.get(normalize_word(key))
        if key not in word_to_id and idx is not None:
            normalized.setdefault(idx, key)
    rng = RngState(seed).child("pretrained-oov")
    bound = np.sqrt(3.0 / dim)
    matrix = np.zeros((vocab.n_words, dim))
    for word, idx in word_to_id.items():
        key = exact.get(idx, normalized.get(idx))
        if key is not None:
            matrix[idx] = vectors[key]
        elif idx != 0:
            matrix[idx] = rng.uniform(-bound, bound, dim)
    matrix[0] = 0.0  # PAD
    return matrix
