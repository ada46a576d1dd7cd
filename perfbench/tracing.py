"""Benchmark-side tracing of seqlab's layers.

`Tracer.install()` replaces the public functions and methods listed in
`LAYERS` with timing wrappers, at the defining module and at every seqlab
module that imported the function by name (for example `mtl` binds
`crf_nll_batch` and `trainer` binds `sgd_step`). `uninstall()` puts every
original back. Spans stay in memory; `write()` saves them at the end.

Numeric primitives (`add`, `matmul`, ...) are not wrapped: a training step
calls them thousands of times, and a Python wrapper on each would cost more
than the work it measures. Their time shows as the self time of the layer
that calls them.
"""

import bisect
import json
import time
from collections import Counter, defaultdict

import numpy as np

MODULES = ("numeric", "corpus", "embeddings", "encoders", "crf", "lm", "mtl",
           "trainer", "evaluation")

LAYERS = {
    "numeric": ["Tensor.backward", "sgd_step"],
    "corpus": ["parse_conll", "build_vocab", "make_batches", "encode_batch"],
    "embeddings": ["load_pretrained", "load_contextual_store", "random_embeddings",
                   "elmo_combine", "ContextualVectorStore.lookup"],
    "encoders": ["WordRepresentation.forward", "CharCNN.encode", "BLSTM.forward"],
    "crf": ["crf_nll_batch", "crf_log_z", "crf_gold_score", "viterbi_decode",
            "CRFLayer.emissions"],
    "lm": ["lm_losses", "joint_loss"],
    "mtl": ["build_model", "save_checkpoint", "load_checkpoint", "Model.forward_task",
            "Model.decode", "Model.predict_labels"],
    "trainer": ["train", "evaluate_model"],
    "evaluation": ["f1_score"],
}

PACKAGE = "seqlab"
PROBE = "trace.probe"
# Benchmark code that runs between the root spans of a timed section (the
# per-batch loop of a tagging pass) may take up to this long per gap. It
# takes about 20 us; an unwrapped `trainer.train` leaves 0.5-0.7 ms per gap
# between its children untraced.
GAP_S = 2e-4

# span fields
NAME, PARENT, START, END, FAILED, PHASE, B, T = range(8)


def tape_size(root):
    """Distinct nodes reachable from `root` through `_parents`."""
    seen = {id(root)}
    todo = [root]
    while todo:
        for p in todo.pop()._parents:
            if id(p) not in seen:
                seen.add(id(p))
                todo.append(p)
    return len(seen)


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self._stack = []
        self._patches = []
        self.phase, self.shape = "setup", (0, 0)

    # -- installation -------------------------------------------------------

    def _hooks(self):
        """Per-span extras: `tag` runs before the span and sets the batch
        context; `before`/`after` are probes that count work and are timed
        as their own spans, so they never inflate a layer's self time."""
        def forward_tag(args, kwargs):
            batch = args[1]
            mode = kwargs.get("mode", args[3] if len(args) > 3 else "eval")
            self.phase = "train" if mode == "train" else "decode"
            self.shape = batch.token_ids.shape

        def forward_before(args, kwargs):
            if self.phase == "train":
                model, batch = args[0], args[1]
                rows = model.word_repr.word_emb.shape[0]
                self.counts["rows_touched"] += len(np.unique(batch.token_ids)) / rows
                self.counts["train_forwards"] += 1

        def forward_after(args, kwargs, result):
            if not kwargs.get("with_loss", True):
                self.counts["tape_nodes_decode"] += tape_size(result.states)
                self.counts["decode_forwards"] += 1

        def backward_before(args, kwargs):
            self.counts["tape_nodes_train"] += tape_size(args[0])
            self.counts["backwards"] += 1

        def chars_before(args, kwargs):
            ids = np.asarray(args[1])
            self.counts["char_real"] += int((ids != 0).sum())
            self.counts["char_cells"] += ids.size

        return {
            "mtl.Model.forward_task": (forward_tag, forward_before, forward_after),
            "numeric.Tensor.backward": (None, backward_before, None),
            "encoders.CharCNN.encode": (None, chars_before, None),
        }

    def install(self):
        import importlib
        import sys

        mods = {m: importlib.import_module("%s.%s" % (PACKAGE, m)) for m in MODULES}
        hooks = self._hooks()
        for module, names in LAYERS.items():
            for dotted in names:
                owner = mods[module]
                *path, attr = dotted.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = owner.__dict__[attr]
                span_name = "%s.%s" % (module, dotted)
                wrapper = self._wrap(span_name, original, *hooks.get(span_name, (None,) * 3))
                if path:
                    self._patch(owner, attr, original, wrapper)
                    continue
                # every module that bound the function by name gets the wrapper
                for mod_name, mod in list(sys.modules.items()):
                    if mod_name == PACKAGE or mod_name.startswith(PACKAGE + "."):
                        for key, value in list(vars(mod).items()):
                            if value is original:
                                self._patch(mod, key, original, wrapper)

    def _patch(self, owner, attr, original, wrapper):
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _wrap(self, name, fn, tag=None, before=None, after=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            if tag is not None:
                tag(args, kwargs)
            if before is not None:
                self._probe(before, args, kwargs)
            span = [name, stack[-1] if stack else -1, 0.0, 0.0, False, self.phase,
                    self.shape[0], self.shape[1]]
            stack.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[FAILED] = True
                raise
            finally:
                span[END] = clock()
                stack.pop()
            if after is not None:
                self._probe(after, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.perfbench_span = name
        return wrapper

    def _probe(self, fn, *args):
        span = [PROBE, self._stack[-1] if self._stack else -1, time.perf_counter(),
                0.0, False, self.phase, 0, 0]
        self.spans.append(span)
        try:
            fn(*args)
        finally:
            span[END] = time.perf_counter()

    # -- output -------------------------------------------------------------

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": s[NAME], "parent": s[PARENT],
                                     "start": s[START], "end": s[END],
                                     "failed": s[FAILED], "phase": s[PHASE],
                                     "batch": [s[B], s[T]]}) + "\n")


def module_of(name):
    return name.split(".", 1)[0]


def self_times(spans):
    """Each span's duration minus the durations of its direct children."""
    out = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            out[s[PARENT]] -= s[END] - s[START]
    return out


def check_nesting(spans):
    """Every span lies inside its parent's interval and starts after its
    previous sibling ended. Then no self time is negative, and the self
    times under a root add up to the root's duration."""
    last_end = {}
    for i, s in enumerate(spans):
        parent = s[PARENT]
        if s[END] < s[START]:
            raise AssertionError("span %d (%s) ends before it starts" % (i, s[NAME]))
        if parent >= 0 and not (spans[parent][START] <= s[START]
                                and s[END] <= spans[parent][END]):
            raise AssertionError("span %d (%s) escapes its parent %d (%s)"
                                 % (i, s[NAME], parent, spans[parent][NAME]))
        if s[START] < last_end.get(parent, float("-inf")):
            raise AssertionError("span %d (%s) overlaps its previous sibling"
                                 % (i, s[NAME]))
        last_end[parent] = s[END]


def check_self_sums(spans, intervals):
    """The self times of the spans in each timed section add up to the wall
    time that the benchmark measured around that section.

    `intervals` are (start, end) clock readings taken outside the tracer,
    around `trainer.train` and around a tagging pass. A section may hold
    several root spans with benchmark code between them; each gap may take
    up to GAP_S. Returns a note with the number of sections checked.
    """
    check_nesting(spans)
    selfs = self_times(spans)
    starts = [s[START] for s in spans]   # spans are recorded in start order
    for lo, hi in intervals:
        inside = range(bisect.bisect_left(starts, lo), bisect.bisect_right(starts, hi))
        roots = [i for i in inside if spans[i][PARENT] < 0]
        if any(spans[i][END] > hi for i in roots) or any(
                0 <= spans[i][PARENT] < inside.start for i in inside):
            raise AssertionError("a span crosses the edge of its timed section")
        total = sum(selfs[i] for i in inside)
        wall = hi - lo
        if not wall - GAP_S * (len(roots) + 1) <= total <= wall:
            raise AssertionError("self times in a section of %.6f s sum to %.6f s "
                                 "(%d root spans)" % (wall, total, len(roots)))
    return "%d timed sections" % len(intervals)


def find_wrappers():
    """Names of every trace wrapper still reachable from seqlab's modules
    and their classes; empty when no hooks are installed."""
    import sys

    found = []
    for mod_name, mod in list(sys.modules.items()):
        if mod_name != PACKAGE and not mod_name.startswith(PACKAGE + "."):
            continue
        for key, value in vars(mod).items():
            owners = [(key, value)]
            if isinstance(value, type) and value.__module__ == mod_name:
                owners += [(key + "." + k, v) for k, v in vars(value).items()]
            found += ["%s.%s" % (mod_name, k) for k, v in owners
                      if hasattr(v, "perfbench_span")]
    return found


def busy_times(spans, start=0):
    """Per module, the time covered by its outermost spans from `start` on."""
    busy = defaultdict(float)
    enclosing = [None] * len(spans)   # modules of a span and its ancestors
    for i, s in enumerate(spans):
        mod = module_of(s[NAME])
        inside = frozenset() if s[PARENT] < 0 else enclosing[s[PARENT]]
        if mod not in inside and i >= start:
            busy[mod] += s[END] - s[START]
        enclosing[i] = inside | {mod}
    return busy


def _per(x, n):
    return x / n if n else 0.0


def layer_metrics(tracer, round_start, n_rounds):
    """Per-layer figures from the spans of one traced set-up (the spans
    before `round_start`) and of `n_rounds` traced rounds (the rest).

    "Per step" divides by train steps (`sgd_step` calls), "per batch" by
    decode batches (`Model.decode` calls, dev evaluation included), "per
    epoch" by `trainer.evaluate_model` calls. A figure whose divisor is zero
    on a workload reads 0.
    """
    spans, counts = tracer.spans, tracer.counts
    selfs = self_times(spans)
    dur = Counter()        # name -> seconds
    own = Counter()        # name -> self seconds
    train = Counter()      # name -> seconds in the train phase
    train_own = Counter()
    calls = Counter()
    by_len = Counter()     # (name, "short"|"long", "s"|"tok") -> value
    batching = 0.0         # make_batches directly under trainer.train
    for i, s in enumerate(spans):
        name, d = s[NAME], s[END] - s[START]
        dur[name] += d
        own[name] += selfs[i]
        calls[name] += 1
        if s[PHASE] == "train":
            train[name] += d
            train_own[name] += selfs[i]
            size = "short" if s[T] <= 16 else "long" if s[T] >= 64 else None
            if size:
                by_len[name, size, "s"] += d
                by_len[name, size, "tok"] += s[B] * s[T]
        if name == "corpus.make_batches" and s[PARENT] >= 0 \
                and spans[s[PARENT]][NAME] == "trainer.train":
            batching += d
    steps = calls["numeric.sgd_step"]
    batches = calls["mtl.Model.decode"]
    epochs = calls["trainer.evaluate_model"]
    ms = 1e3

    def per_tok(name, size):
        return 1e6 * _per(by_len[name, size, "s"], by_len[name, size, "tok"])

    m = {
        "numeric.backward_ms_per_step": ms * _per(train["numeric.Tensor.backward"], steps),
        "numeric.backward_us_per_tok.short": per_tok("numeric.Tensor.backward", "short"),
        "numeric.backward_us_per_tok.long": per_tok("numeric.Tensor.backward", "long"),
        "numeric.tape_nodes_per_step": _per(counts["tape_nodes_train"], counts["backwards"]),
        "numeric.tape_nodes_per_decode_batch": _per(counts["tape_nodes_decode"],
                                                    counts["decode_forwards"]),
        "numeric.sgd_step_ms_per_step": ms * _per(dur["numeric.sgd_step"], steps),
        "encoders.blstm_ms_per_step": ms * _per(train["encoders.BLSTM.forward"], steps),
        "encoders.blstm_us_per_tok.short": per_tok("encoders.BLSTM.forward", "short"),
        "encoders.blstm_us_per_tok.long": per_tok("encoders.BLSTM.forward", "long"),
        "encoders.char_cnn_ms_per_step": ms * _per(train["encoders.CharCNN.encode"], steps),
        "encoders.word_repr_self_ms_per_step":
            ms * _per(train_own["encoders.WordRepresentation.forward"], steps),
        "encoders.char_pad_ratio": _per(counts["char_real"], counts["char_cells"]),
        "embeddings.elmo_combine_ms_per_step":
            ms * _per(train["embeddings.elmo_combine"], steps),
        "embeddings.rows_touched_ratio": _per(counts["rows_touched"],
                                              counts["train_forwards"]),
        "embeddings.load_pretrained_ms": ms * _per(dur["embeddings.load_pretrained"],
                                                   calls["embeddings.load_pretrained"]),
        "embeddings.load_contextual_store_ms":
            ms * _per(dur["embeddings.load_contextual_store"],
                      calls["embeddings.load_contextual_store"]),
        "crf.nll_ms_per_step": ms * _per(train["crf.crf_nll_batch"], steps),
        "crf.log_z_ms_per_step": ms * _per(train["crf.crf_log_z"], steps),
        "crf.gold_score_ms_per_step": ms * _per(train["crf.crf_gold_score"], steps),
        "crf.viterbi_ms_per_batch": ms * _per(dur["crf.viterbi_decode"], batches),
        "crf.viterbi_calls_per_batch": _per(calls["crf.viterbi_decode"], batches),
        "lm.losses_ms_per_step": ms * _per(train["lm.lm_losses"], steps),
        "corpus.parse_conll_ms": ms * dur["corpus.parse_conll"],
        "corpus.make_batches_ms_per_epoch": ms * _per(batching, epochs),
        "mtl.forward_task_self_ms_per_step": ms * _per(train_own["mtl.Model.forward_task"],
                                                       steps),
        "mtl.decode_self_ms_per_batch": ms * _per(own["mtl.Model.decode"], batches),
        "mtl.build_model_ms": ms * _per(dur["mtl.build_model"], calls["mtl.build_model"]),
        "mtl.save_checkpoint_ms": ms * _per(dur["mtl.save_checkpoint"],
                                            calls["mtl.save_checkpoint"]),
        "mtl.load_checkpoint_ms": ms * _per(dur["mtl.load_checkpoint"],
                                            calls["mtl.load_checkpoint"]),
        "trainer.evaluate_model_ms_per_epoch": ms * _per(dur["trainer.evaluate_model"],
                                                         epochs),
        "trainer.train_self_ms_per_epoch": ms * _per(own["trainer.train"], epochs),
        "evaluation.f1_score_ms": ms * _per(dur["evaluation.f1_score"],
                                            calls["evaluation.f1_score"]),
    }
    rounds = spans[round_start:]
    busy = busy_times(spans, round_start)
    round_selfs = selfs[round_start:]
    for mod in MODULES:
        mine = [i for i, s in enumerate(rounds) if module_of(s[NAME]) == mod]
        m[mod + ".busy_ms_per_round"] = ms * _per(busy[mod], n_rounds)
        m[mod + ".self_ms_per_round"] = ms * _per(sum(round_selfs[i] for i in mine), n_rounds)
        m[mod + ".calls_per_round"] = _per(len(mine), n_rounds)
        m[mod + ".failed"] = sum(1 for s in spans if module_of(s[NAME]) == mod and s[FAILED])
    m["trace.probe_ms_per_round"] = ms * _per(
        sum(s[END] - s[START] for s in rounds if s[NAME] == PROBE), n_rounds)
    return m
