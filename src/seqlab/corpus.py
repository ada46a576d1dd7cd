"""Column-format corpora: parsing, vocabularies, equal-length batching, stats."""

import re
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .evaluation import extract_chunks

PAD, UNK, START, END = "<PAD>", "<UNK>", "<START>", "<END>"
RESERVED = [PAD, UNK, START, END]

_DIGIT_RE = re.compile(r"\d")


class CorpusError(ValueError):
    pass


def normalize_word(token):
    """Lookup normalization: lowercase, digits mapped to 0."""
    return _DIGIT_RE.sub("0", token.lower())


@dataclass
class Sentence:
    tokens: list
    labels: dict = field(default_factory=dict)  # task name -> label sequence

    def __post_init__(self):
        if len(self.tokens) < 1:
            raise CorpusError("sentence must have at least one token")
        for task, seq in self.labels.items():
            if len(seq) != len(self.tokens):
                raise CorpusError(
                    "label sequence for task %r has length %d, expected %d"
                    % (task, len(seq), len(self.tokens))
                )

    def __len__(self):
        return len(self.tokens)


@dataclass
class TaggedCorpus:
    task_name: str
    split: str
    sentences: list
    label_set: list

    def __len__(self):
        return len(self.sentences)


def iob1_to_bio2(labels):
    """Convert an IOB1 sequence to BIO2 (every chunk starts with B-)."""
    out = []
    prev = "O"
    for lab in labels:
        if lab.startswith("I-"):
            typ = lab[2:]
            if prev == "O" or (prev[2:] != typ if prev != "O" else True):
                lab = "B-" + typ
        out.append(lab)
        prev = lab
    return out


def parse_conll(text, token_column=0, label_column=1, task_name="main",
                split="train", scheme="bio2"):
    """Parse whitespace-separated column format into a TaggedCorpus.

    Blank lines separate sentences; lines starting with -DOCSTART- are
    skipped. With scheme="iob1" label sequences are converted to BIO2. With
    `label_column` None the text is unlabelled: sentences carry no labels.
    """
    if hasattr(text, "read"):
        text = text.read()
    sentences = []
    label_set = []
    seen_labels = set()
    tokens, labels = [], []
    need = max(token_column, label_column or 0) + 1

    def flush():
        if not tokens:
            return
        gold = {}
        if label_column is not None:
            labs = iob1_to_bio2(labels) if scheme == "iob1" else list(labels)
            for lab in labs:
                if lab not in seen_labels:
                    seen_labels.add(lab)
                    label_set.append(lab)
            gold[task_name] = labs
        sentences.append(Sentence(list(tokens), gold))
        tokens.clear()
        labels.clear()

    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped:
            flush()
            continue
        if stripped.startswith("-DOCSTART-"):
            continue
        cols = stripped.split()
        if len(cols) < need:
            raise CorpusError(
                "line %d has %d columns, need at least %d" % (lineno, len(cols), need)
            )
        tokens.append(cols[token_column])
        if label_column is not None:
            labels.append(cols[label_column])
    flush()
    return TaggedCorpus(task_name, split, sentences, label_set)


class Vocabulary:
    """Word/char/label id maps with reserved PAD, UNK, START, END tokens."""

    def __init__(self):
        self.word_to_id = {tok: i for i, tok in enumerate(RESERVED)}
        self.char_to_id = {PAD: 0, UNK: 1}
        self.label_to_id = {}  # task -> {label: id}
        self.lm_word_to_id = {tok: i for i, tok in enumerate(RESERVED)}

    @property
    def n_words(self):
        return len(self.word_to_id)

    @property
    def n_chars(self):
        return len(self.char_to_id)

    @property
    def n_lm_words(self):
        return len(self.lm_word_to_id)

    def word_id(self, token):
        return self.word_to_id.get(normalize_word(token), self.word_to_id[UNK])

    def char_ids(self, token):
        unk = self.char_to_id[UNK]
        return [self.char_to_id.get(c, unk) for c in token]

    def lm_word_id(self, token):
        return self.lm_word_to_id.get(normalize_word(token), self.lm_word_to_id[UNK])

    def labels_for(self, task):
        return self.label_to_id[task]

    def label_names(self, task):
        m = self.label_to_id[task]
        names = [None] * len(m)
        for lab, i in m.items():
            names[i] = lab
        return names

    def to_dict(self):
        return {
            "word_to_id": self.word_to_id,
            "char_to_id": self.char_to_id,
            "label_to_id": self.label_to_id,
            "lm_word_to_id": self.lm_word_to_id,
        }

    @classmethod
    def from_dict(cls, d):
        """The inverse of `to_dict`. Every map must take strings to the ids
        0..n-1, each once, with the reserved tokens at their fixed ids."""
        v = cls()
        v.word_to_id = _id_map(d["word_to_id"], "word_to_id", RESERVED)
        v.char_to_id = _id_map(d["char_to_id"], "char_to_id", [PAD, UNK])
        labels = d["label_to_id"]
        if type(labels) is not dict:
            raise CorpusError("label_to_id must map task names to label maps")
        v.label_to_id = {t: _id_map(m, "label_to_id[%r]" % t, []) for t, m in labels.items()}
        v.lm_word_to_id = _id_map(d["lm_word_to_id"], "lm_word_to_id", RESERVED)
        return v


def _id_map(m, name, reserved):
    """A copy of `m`, checked to map strings to the ids 0..n-1, each once
    (ints, not bools), with `reserved[i]` at id i."""
    if (type(m) is not dict or not set(map(type, m)) <= {str}
            or not set(map(type, m.values())) <= {int}):
        raise CorpusError("%s must map strings to integer ids" % name)
    ids, n = m.values(), len(m)
    if n and (len(set(ids)) != n or min(ids) != 0 or max(ids) != n - 1):
        raise CorpusError("%s ids are not 0..%d, each once" % (name, n - 1))
    if any(m.get(tok) != i for i, tok in enumerate(reserved)):
        raise CorpusError("%s does not hold %s at ids 0..%d"
                          % (name, ", ".join(reserved), len(reserved) - 1))
    return dict(m)


def build_vocab(corpora, pretrained_words=None, min_freq=1, lm_vocab_size=5000):
    """Build the joint vocabulary over training corpora.

    Words are normalized for lookup; every pretrained word is kept regardless
    of frequency. The LM vocabulary keeps the `lm_vocab_size` most frequent
    training words (ties by first appearance).
    """
    if min_freq < 1:
        raise CorpusError("min_freq must be >= 1")
    vocab = Vocabulary()
    counts = Counter()
    order = {}
    for corpus in corpora:
        for sent in corpus.sentences:
            for tok in sent.tokens:
                norm = normalize_word(tok)
                counts[norm] += 1
                order.setdefault(norm, len(order))
                for ch in tok:
                    if ch not in vocab.char_to_id:
                        vocab.char_to_id[ch] = len(vocab.char_to_id)
        task_map = vocab.label_to_id.setdefault(corpus.task_name, {})
        for lab in corpus.label_set:
            if lab not in task_map:
                task_map[lab] = len(task_map)
    keep = set(w for w, c in counts.items() if c >= min_freq)
    if pretrained_words:
        keep.update(normalize_word(w) for w in pretrained_words)
    # corpus words by first appearance, then pretrained-only words by length
    # and spelling (not in set order, which varies with PYTHONHASHSEED)
    extra = sorted(sorted(keep.difference(order)), key=len)
    for word in [w for w in order if w in keep] + extra:
        if word not in vocab.word_to_id:
            vocab.word_to_id[word] = len(vocab.word_to_id)
    ranked = sorted(counts, key=lambda w: (-counts[w], order[w]))
    for word in ranked[:lm_vocab_size]:
        if word not in vocab.lm_word_to_id:
            vocab.lm_word_to_id[word] = len(vocab.lm_word_to_id)
    return vocab


@dataclass
class Batch:
    sentence_indices: list
    token_ids: np.ndarray      # (B, T)
    char_ids: np.ndarray       # (B, T, max_word_len)
    label_ids: dict            # task -> (B, T)
    lm_ids: np.ndarray         # (B, T) ids in the LM vocabulary
    tokens: list               # raw surface forms, per sentence

    @property
    def size(self):
        return self.token_ids.shape[0]

    @property
    def length(self):
        return self.token_ids.shape[1]


def encode_batch(sentences, indices, vocab, tasks=None):
    """Pack same-length sentences into id matrices."""
    T = len(sentences[0])
    if any(len(s) != T for s in sentences):
        raise CorpusError("all sentences in a batch must have the same length")
    B = len(sentences)
    max_word = max(len(tok) for s in sentences for tok in s.tokens)
    token_ids = np.zeros((B, T), dtype=np.int64)
    lm_ids = np.zeros((B, T), dtype=np.int64)
    char_ids = np.zeros((B, T, max_word), dtype=np.int64)
    for b, sent in enumerate(sentences):
        for t, tok in enumerate(sent.tokens):
            token_ids[b, t] = vocab.word_id(tok)
            lm_ids[b, t] = vocab.lm_word_id(tok)
            cs = vocab.char_ids(tok)
            char_ids[b, t, : len(cs)] = cs
    label_ids = {}
    for task in tasks or []:
        m = vocab.labels_for(task)
        mat = np.zeros((B, T), dtype=np.int64)
        for b, sent in enumerate(sentences):
            if task in sent.labels:
                mat[b] = [m[lab] for lab in sent.labels[task]]
        label_ids[task] = mat
    return Batch(list(indices), token_ids, char_ids, label_ids,
                 lm_ids, [list(s.tokens) for s in sentences])


def make_batches(corpus, vocab, batch_size, rng, with_labels=True):
    """Group sentences by exact length, shuffle within groups, chunk, shuffle.

    Every batch holds sentences of one token length; the final partial batch
    of each length group is kept. With `with_labels` False the batches carry
    no gold label ids, so labels the vocabulary lacks are no error.
    """
    if batch_size < 1:
        raise CorpusError("batch_size must be >= 1")
    groups = {}
    for i, sent in enumerate(corpus.sentences):
        groups.setdefault(len(sent), []).append(i)
    batches = []
    for length in sorted(groups):
        idxs = groups[length]
        rng.shuffle(idxs)
        for start in range(0, len(idxs), batch_size):
            chunk = idxs[start : start + batch_size]
            batches.append(
                encode_batch([corpus.sentences[i] for i in chunk], chunk, vocab,
                             tasks=[corpus.task_name] if with_labels else None)
            )
    rng.shuffle(batches)
    return batches


@dataclass
class CorpusStats:
    task_name: str
    split: str
    n_sentences: int
    n_words: int
    n_labels: int
    n_entities: int
    mean_entity_length: float
    has_entities: bool
    per_type_mean_length: dict
    per_type_count: dict


def corpus_stats(corpus):
    """Dataset statistics including gold entity spans and their mean lengths."""
    words = set()
    total_len = 0
    n_entities = 0
    type_lens = {}
    for sent in corpus.sentences:
        words.update(sent.tokens)
        labs = sent.labels.get(corpus.task_name)
        if labs is None:
            continue
        for chunk in extract_chunks(labs):
            span = chunk.end - chunk.start
            n_entities += 1
            total_len += span
            type_lens.setdefault(chunk.type, []).append(span)
    return CorpusStats(
        task_name=corpus.task_name,
        split=corpus.split,
        n_sentences=len(corpus.sentences),
        n_words=len(words),
        n_labels=len(corpus.label_set),
        n_entities=n_entities,
        mean_entity_length=(total_len / n_entities) if n_entities else 0.0,
        has_entities=n_entities > 0,
        per_type_mean_length={t: sum(v) / len(v) for t, v in sorted(type_lens.items())},
        per_type_count={t: len(v) for t, v in sorted(type_lens.items())},
    )


def render_stats(stats):
    """Aligned plain-text report for one split."""
    lines = [
        "task: %s  split: %s" % (stats.task_name, stats.split),
        "  sentences:       %8d" % stats.n_sentences,
        "  distinct words:  %8d" % stats.n_words,
        "  labels:          %8d" % stats.n_labels,
        "  entities:        %8d" % stats.n_entities,
        "  mean entity len: %8.2f%s"
        % (stats.mean_entity_length, "" if stats.has_entities else "  (no entities)"),
    ]
    for typ, mean_len in stats.per_type_mean_length.items():
        lines.append("    %-20s count %6d  mean length %6.2f"
                     % (typ, stats.per_type_count[typ], mean_len))
    return "\n".join(lines)
