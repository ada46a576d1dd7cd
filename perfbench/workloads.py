"""The three benchmark workloads: input generation, set-up and one round.

A round is a fixed amount of work that a run repeats until its time is up:
on a `train_*` workload, `trainer.train` for one epoch from the same initial
parameters followed by tagging a held-out test set; on `decode_fine`, one
pass of `Model.predict_labels` over the test set and `f1_score`. Because
every round of a run does identical work, rounds must also give identical
losses and labels, which is the benchmark's determinism check.
"""

import hashlib
import math
import os
import time
from dataclasses import dataclass, field

import numpy as np

import gen

from seqlab import corpus, embeddings, evaluation, mtl, numeric, trainer

TASK_MAIN, TASK_AUX = "main", "aux"
BATCH_SIZE = 16
# The trainer's own seed (batch order and dropout masks) is the same for every
# workload seed, so every run trains on the same sequence of batch shapes and
# the seed varies only words, labels and initial parameters. Batch order
# matters: the trainer keeps the previous step's graph alive while it builds
# the next, so peak memory depends on which batches are adjacent.
TRAIN_SEED = 0
LM_VOCAB_SIZE = 5000        # seqlab's default; the corpora hold fewer words
N_COARSE = 4                # entity types of the coarse auxiliary task
PRETRAINED_COVERAGE = 0.9   # share of corpus words in the vector file


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str                    # "train" or "decode"
    topology: str
    lm_mode: str
    lengths: range               # sentence lengths, each used equally often
    train_per_length: int        # main-task training sentences per length
    aux_per_length: int = 0
    dev_per_length: int = 1
    test_per_length: int = 1
    test_lengths: range = None   # default: `lengths`
    n_filler: int = 2000
    n_types: int = 4
    words_per_type: int = 25
    pretrained_words: int = 0    # lines in the pretrained-vector file
    ctx_layers: int = 0          # 0: no contextual store
    ctx_dim: int = 0
    hidden: int = 100
    d_word: int = 100

    @property
    def n_labels(self):
        return 2 * self.n_types + 1


WORKLOADS = {
    w.name: w for w in (
        Workload("train_single_long", "train", "single", "none",
                 lengths=range(40, 121, 4), train_per_length=4, dev_per_length=1,
                 test_lengths=range(42, 121, 4), n_filler=1900, n_types=4,
                 words_per_type=25),
        Workload("train_hier_lm_wide", "train", "hierarchical", "shared",
                 lengths=range(5, 30, 2), train_per_length=8, aux_per_length=8,
                 dev_per_length=2, test_lengths=range(5, 30), n_filler=2000,
                 n_types=100, words_per_type=5, pretrained_words=30000, ctx_layers=2,
                 ctx_dim=128),
        Workload("decode_fine", "decode", "single", "none",
                 lengths=range(5, 61), train_per_length=4, dev_per_length=0,
                 test_per_length=6, n_filler=3000, n_types=100, words_per_type=5),
    )
}


class CheckError(AssertionError):
    """An output of the program is not what it must be."""


# -- inputs ---------------------------------------------------------------


def generate(w, seed, workdir):
    """Write the workload's input files into `workdir`; returns their paths
    and the sizes that set-up must reproduce."""
    rng = gen.make_rng(seed, w.name)
    lang = gen.Language(rng, w.n_filler, w.n_types, w.words_per_type)
    seen = set()
    train = gen.make_corpus(rng, lang, w.lengths, w.train_per_length, cover_types=True,
                            seen=seen)
    aux = gen.make_corpus(rng, lang, w.lengths, w.aux_per_length, cover_types=True,
                          seen=seen) if w.aux_per_length else []
    dev = gen.make_corpus(rng, lang, w.lengths, w.dev_per_length, seen=seen)
    test = gen.make_corpus(rng, lang, w.test_lengths or w.lengths, w.test_per_length,
                           seen=seen)
    # the vocabulary is built from these three, so every lexicon word is in it
    gen.cover_words(rng, train + aux + dev, lang.words)
    aux = [(tokens, gen.coarsen(labels, N_COARSE)) for tokens, labels in aux]
    all_sentences = [tuple(s) for s, _ in train + aux + dev + test]
    if len(set(all_sentences)) != len(all_sentences):
        raise CheckError("generated corpora repeat a sentence")

    files = {}
    for split, data in (("train", train), ("aux", aux), ("dev", dev), ("test", test)):
        if data:
            files[split] = os.path.join(workdir, split + ".conll")
            gen.write_conll(files[split], data)
    words = {t.lower() for tokens, _ in train + aux + dev for t in tokens}
    expect = {"labels": w.n_labels, "words": 4 + len(words),
              "lm_words": 4 + min(LM_VOCAB_SIZE, len(words))}
    if w.pretrained_words:
        lexicon = sorted(x.lower() for x in lang.words)
        keep = rng.permutation(len(lexicon))[: int(PRETRAINED_COVERAGE * len(lexicon))]
        vec_words = [lexicon[i] for i in sorted(keep)]
        vec_words += gen.make_lexicon(rng, w.pretrained_words - len(vec_words),
                                      taken=set(lexicon), min_len=3, max_len=12)
        files["vectors"] = os.path.join(workdir, "vectors.txt")
        gen.write_vectors(files["vectors"], rng, vec_words, w.d_word)
        expect["words"] = 4 + len(words | set(vec_words))
    if w.ctx_layers:
        files["contextual"] = os.path.join(workdir, "contextual.bin")
        gen.write_contextual_store(files["contextual"], rng, all_sentences,
                                   w.ctx_layers, w.ctx_dim)
    if w.kind == "decode":
        # the decode model: seeded initial parameters, saved once as a
        # checkpoint that set-up loads
        vocab = corpus.build_vocab([_read(files["train"], TASK_MAIN, "train")],
                                   lm_vocab_size=LM_VOCAB_SIZE)
        model = mtl.build_model(_spec(w, seed), vocab)
        files["model"] = os.path.join(workdir, "model")
        mtl.save_checkpoint(model, files["model"])
    return files, expect


def _spec(w, seed):
    return mtl.ModelSpec(
        topology=w.topology, main_task=TASK_MAIN,
        aux_task=None if w.topology == "single" else TASK_AUX,
        lm_mode=w.lm_mode, hidden=w.hidden, d_word=w.d_word,
        use_contextual=bool(w.ctx_layers), ctx_layers=w.ctx_layers or 2,
        ctx_dim=w.ctx_dim or 1024, elmo_frozen=False, seed=seed)


def _read(path, task, split):
    with open(path, encoding="utf-8") as fh:
        return corpus.parse_conll(fh.read(), task_name=task, split=split)


# -- set-up ---------------------------------------------------------------


@dataclass
class Session:
    model: object
    main: object = None
    aux: object = None
    dev: object = None
    test: object = None
    initial: list = field(default_factory=list)


def setup(w, seed, files):
    """What a user's process does before its first step: parse the corpora,
    load vectors and the contextual store, build the vocabulary, and build
    the model or load it from its checkpoint."""
    s = Session(model=None)
    s.test = _read(files["test"], TASK_MAIN, "test")
    store = (embeddings.load_contextual_store(files["contextual"])
             if "contextual" in files else None)
    if w.kind == "decode":
        s.model = mtl.load_checkpoint(files["model"], contextual_store=store)
        return s
    s.main = _read(files["train"], TASK_MAIN, "train")
    s.dev = _read(files["dev"], TASK_MAIN, "dev")
    corpora = [s.main, s.dev]
    if "aux" in files:
        s.aux = _read(files["aux"], TASK_AUX, "train")
        corpora.append(s.aux)
    pretrained = None
    if "vectors" in files:
        with open(files["vectors"], encoding="utf-8") as fh:
            pretrained = [line.split(" ", 1)[0] for line in fh if line.strip()]
    vocab = corpus.build_vocab(corpora, pretrained_words=pretrained,
                               lm_vocab_size=LM_VOCAB_SIZE)
    matrix = (embeddings.load_pretrained(files["vectors"], vocab, seed=seed)
              if pretrained else None)
    s.model = mtl.build_model(_spec(w, seed), vocab, embedding_matrix=matrix,
                              contextual_store=store)
    s.initial = [p.data.copy() for p in s.model.parameters()]
    return s


def check_sizes(w, s, expect):
    """The built vocabulary and label inventory reach the generated sizes."""
    vocab = s.model.vocab
    got = {"labels": len(vocab.labels_for(TASK_MAIN)), "words": vocab.n_words}
    if w.lm_mode != "none":
        got["lm_words"] = vocab.n_lm_words
    for key, value in got.items():
        if value != expect[key]:
            raise CheckError("%s: built %d, generated %d" % (key, value, expect[key]))
    return got


def train_tokens(s):
    return sum(len(x) for c in (s.main, s.aux) if c is not None for x in c.sentences)


def batch_count(c):
    """Batches `make_batches` forms: one per BATCH_SIZE sentences of a length."""
    counts = {}
    for x in c.sentences:
        counts[len(x)] = counts.get(len(x), 0) + 1
    return sum(math.ceil(n / BATCH_SIZE) for n in counts.values())


def step_count(s):
    """Train steps in one epoch."""
    return sum(batch_count(c) for c in (s.main, s.aux) if c is not None)


# -- rounds ---------------------------------------------------------------


@dataclass
class Round:
    seconds: float               # wall time of trainer.train, or of the pass
    tokens: int
    batch_ms: list               # per decode batch
    digest: str                  # losses and labels of this round
    decode_digest: str           # labels and F1 of the tagging pass
    sections: list               # (start, end) clock readings of the timed calls
    history: list = None
    labels: list = None
    f1: float = None
    ops: int = 0                 # train steps plus decode batches
    batches: list = None


def run_round(w, s, workdir):
    if w.kind == "decode":
        return decode_pass(s)
    for p, init in zip(s.model.parameters(), s.initial):
        p.data[...] = init
    config = trainer.TrainConfig(epochs=1, batch_size=BATCH_SIZE, seed=TRAIN_SEED,
                                 checkpoint_dir=os.path.join(workdir, "ckpt"))
    t0 = time.perf_counter()
    state = trainer.train(s.model, s.main, s.aux, s.dev, config)
    t1 = time.perf_counter()
    for rec in state.history:
        for key in ("main_loss", "aux_loss", "lm_loss"):
            if not math.isfinite(rec[key]):
                raise CheckError("non-finite %s in epoch %d" % (key, rec["epoch"]))
    tagged = decode_pass(s)
    losses = [[rec[k] for k in ("main_loss", "aux_loss", "lm_loss", "dev_f1")]
              for rec in state.history]
    digest = hashlib.sha256((repr(losses) + tagged.digest).encode()).hexdigest()
    return Round(t1 - t0, train_tokens(s), tagged.batch_ms, digest, tagged.digest,
                 [(t0, t1)] + tagged.sections, state.history, tagged.labels, tagged.f1,
                 step_count(s) + len(tagged.batch_ms), tagged.batches)


def decode_pass(s):
    """Tag the test set batch by batch and score it, as `seqlab predict`
    followed by `evaluate` would."""
    model, test = s.model, s.test
    t0 = time.perf_counter()
    batches = corpus.make_batches(test, model.vocab, BATCH_SIZE, numeric.RngState(0))
    pred = [None] * len(test.sentences)
    batch_ms = []
    for batch in batches:
        b0 = time.perf_counter()
        labels = model.predict_labels(batch, TASK_MAIN)
        batch_ms.append(1e3 * (time.perf_counter() - b0))
        for i, idx in enumerate(batch.sentence_indices):
            pred[idx] = labels[i]
    gold = [x.labels[TASK_MAIN] for x in test.sentences]
    report = evaluation.f1_score(gold, pred)
    t1 = time.perf_counter()
    digest = hashlib.sha256(repr((pred, report.f1)).encode()).hexdigest()
    return Round(t1 - t0, sum(len(x) for x in test.sentences), batch_ms, digest, digest,
                 [(t0, t1)], labels=pred, f1=report.f1, ops=len(batch_ms),
                 batches=batches)


# -- oracles --------------------------------------------------------------


def viterbi_oracle(model, batches, pred):
    """Batched numpy Viterbi over the model's own emissions must give the
    labels the program decoded."""
    head = model.crf_heads[TASK_MAIN]
    names = model.vocab.label_names(TASK_MAIN)
    L = head.n_labels
    trans = head.transitions.data
    for batch in batches:
        states = model.forward_task(batch, TASK_MAIN, with_loss=False).states.data
        e = states @ head.proj_w.data + head.proj_b.data        # (B, T, L)
        B, T, _ = e.shape
        delta = trans[head.start, :L][None, :] + e[:, 0]
        back = np.zeros((B, T, L), dtype=np.int64)
        for t in range(1, T):
            scores = delta[:, :, None] + trans[None, :L, :L] + e[:, t][:, None, :]
            back[:, t] = np.argmax(scores, axis=1)
            delta = np.take_along_axis(scores, back[:, t][:, None, :], axis=1)[:, 0]
        last = np.argmax(delta + trans[:L, head.stop][None, :], axis=1)
        path = [last]
        for t in range(T - 1, 0, -1):
            last = back[np.arange(B), t, last]
            path.append(last)
        path = np.stack(path[::-1], axis=1)
        for b, idx in enumerate(batch.sentence_indices):
            want = [names[i] for i in path[b]]
            if pred[idx] != want:
                raise CheckError("sentence %d: decoded labels differ from the "
                                 "Viterbi oracle" % idx)


def f1_oracle(gold, pred):
    """Exact-match chunk F1 under the BIO2 rules with orphan-I repair."""
    def chunks(labels):
        out, typ, start = set(), None, 0
        for i, lab in enumerate(list(labels) + ["O"]):
            if typ is not None and (lab == "O" or lab[0] == "B" or lab[2:] != typ):
                out.add((typ, start, i))
                typ = None
            if lab != "O" and typ is None:
                typ, start = lab[2:], i
        return out

    correct = predicted = total = 0
    for g, p in zip(gold, pred):
        gc, pc = chunks(g), chunks(p)
        correct += len(gc & pc)
        predicted += len(pc)
        total += len(gc)
    prec = correct / predicted if predicted else 0.0
    rec = correct / total if total else 0.0
    return 2 * prec * rec / (prec + rec) if prec + rec > 0 else 0.0
