"""Seeded synthetic inputs for the benchmark workloads.

Everything here is plain numpy and file I/O: the program under test only
ever sees the files written by `write_*`. Word forms are letters only,
because seqlab maps every digit to 0 when it looks a word up, so
`w123`-style forms would collapse into a handful of vocabulary entries.
"""

import hashlib
import string
import struct

import numpy as np

LETTERS = np.array(list(string.ascii_lowercase))
ENTITY_RATE = 0.15   # chance that the next token opens an entity


def make_rng(seed, tag):
    """Independent numpy stream per (seed, tag), stable across runs."""
    digest = hashlib.sha256(("perfbench/%d/%s" % (seed, tag)).encode()).digest()
    return np.random.Generator(np.random.PCG64(int.from_bytes(digest[:8], "little")))


def make_lexicon(rng, n, taken=(), min_len=2, max_len=10):
    """`n` distinct lowercase letter-only words, none of them in `taken`."""
    seen = set(taken)
    words = []
    while len(words) < n:
        length = int(rng.integers(min_len, max_len + 1))
        word = "".join(rng.choice(LETTERS, length))
        if word not in seen:
            seen.add(word)
            words.append(word)
    return words


def zipf_probs(n, exponent=1.1):
    p = 1.0 / np.arange(1, n + 1) ** exponent
    return p / p.sum()


class Language:
    """Filler words and per-type entity words with Zipfian frequencies."""

    def __init__(self, rng, n_filler, n_types, words_per_type):
        self.fillers = make_lexicon(rng, n_filler)
        self.entity_words = []
        taken = set(self.fillers)
        for _ in range(n_types):
            words = make_lexicon(rng, words_per_type, taken)
            taken.update(words)
            self.entity_words.append([w.capitalize() for w in words])
        self.n_types = n_types
        self.filler_cdf = np.cumsum(zipf_probs(n_filler))
        self.type_cdf = np.cumsum(zipf_probs(n_types, 0.8))
        self.entity_cdf = np.cumsum(zipf_probs(words_per_type))

    @property
    def words(self):
        return self.fillers + [w for ws in self.entity_words for w in ws]

    def sentence(self, rng, length, first_type=None):
        """Tokens and fine BIO labels; `first_type` opens with a two-token
        entity of that type so that both its B- and I- labels occur."""
        tokens, labels = [], []
        if first_type is not None:
            self._entity(rng, first_type, 2, tokens, labels)
        while len(tokens) < length:
            if rng.random() < ENTITY_RATE:
                typ = _draw(rng, self.type_cdf)
                n = min(int(rng.integers(1, 4)), length - len(tokens))
                self._entity(rng, typ, n, tokens, labels)
            else:
                tokens.append(self.fillers[_draw(rng, self.filler_cdf)])
                labels.append("O")
        return tokens, labels

    def _entity(self, rng, typ, n, tokens, labels):
        words = self.entity_words[typ]
        for k in range(n):
            tokens.append(words[_draw(rng, self.entity_cdf)])
            labels.append("%s-T%d" % ("I" if k else "B", typ))


def _draw(rng, cdf):
    return min(int(np.searchsorted(cdf, rng.random(), side="right")), len(cdf) - 1)


def length_plan(rng, lengths, per_length):
    """Every length in `lengths` exactly `per_length` times, in seeded order.

    seqlab batches sentences of equal length together, so a fixed length
    histogram fixes the batch shapes; the seed changes only the content.
    """
    plan = [int(t) for t in lengths for _ in range(per_length)]
    rng.shuffle(plan)
    return plan


def make_corpus(rng, lang, lengths, per_length, cover_types=False, seen=None):
    """List of (tokens, fine labels); no sentence repeats one in `seen`."""
    seen = set() if seen is None else seen
    out = []
    for i, length in enumerate(length_plan(rng, lengths, per_length)):
        first = i if cover_types and i < lang.n_types else None
        while True:
            tokens, labels = lang.sentence(rng, length, first)
            key = tuple(tokens)
            if key not in seen:
                seen.add(key)
                out.append((tokens, labels))
                break
    if cover_types and len(out) < lang.n_types:
        raise ValueError("corpus of %d sentences cannot cover %d types"
                         % (len(out), lang.n_types))
    return out


def cover_words(rng, corpus, words):
    """Overwrite filler tokens so every word of `words` occurs at least once.

    Only a token whose word occurs elsewhere too is overwritten, so no word
    that was present goes missing.
    """
    counts = {}
    for tokens, _ in corpus:
        for t in tokens:
            counts[t] = counts.get(t, 0) + 1
    missing = [w for w in words if w not in counts]
    slots = [(i, j) for i, (tokens, labels) in enumerate(corpus)
             for j, lab in enumerate(labels) if lab == "O"]
    for k in rng.permutation(len(slots)):
        if not missing:
            return
        i, j = slots[k]
        tokens = corpus[i][0]
        if counts[tokens[j]] > 1:
            counts[tokens[j]] -= 1
            tokens[j] = missing.pop()
    if missing:
        raise ValueError("not enough filler tokens to cover the lexicon")


def coarsen(labels, n_coarse):
    """Fine `X-T<k>` labels mapped onto `n_coarse` coarse types."""
    out = []
    for lab in labels:
        if lab == "O":
            out.append(lab)
        else:
            out.append("%s-C%d" % (lab[0], int(lab[3:]) % n_coarse))
    return out


def write_conll(path, corpus):
    with open(path, "w", encoding="utf-8") as fh:
        for tokens, labels in corpus:
            for tok, lab in zip(tokens, labels):
                fh.write("%s %s\n" % (tok, lab))
            fh.write("\n")


def write_vectors(path, rng, words, dim):
    """`word f_1 ... f_d` text vectors, one line per word."""
    values = rng.uniform(-0.5, 0.5, (len(words), dim))
    with open(path, "w", encoding="utf-8") as fh:
        for word, row in zip(words, values):
            fh.write(word + " " + " ".join("%.5f" % v for v in row) + "\n")


def write_contextual_store(path, rng, sentences, n_layers, dim):
    """Binary contextual-vector store: b"SLCV", then per sentence a
    length-prefixed sha256 key of the tokens joined by U+001F, the counts
    (T, L, d) as little-endian uint32, and L*T*d little-endian float32."""
    with open(path, "wb") as fh:
        fh.write(b"SLCV")
        for tokens in sentences:
            key = hashlib.sha256("\x1f".join(tokens).encode("utf-8")).digest()
            values = rng.standard_normal((n_layers, len(tokens), dim)).astype("<f4")
            fh.write(struct.pack("<B", len(key)))
            fh.write(key)
            fh.write(struct.pack("<III", len(tokens), n_layers, dim))
            fh.write(values.tobytes())
