"""seqlab benchmark: train and decode throughput on seeded synthetic workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; seqlab is imported from `src/`.
The run generates its inputs from the seed under `.perfbench/`, sets up
several times, repeats rounds of fixed work (see `workloads.py`) for about
`--seconds`, checks the outputs, and prints one line per metric followed by
a JSON object as the last line. With `--trace 0` the JSON carries the
end-to-end metrics; with `--trace 1` it carries the per-layer metrics of
traced rounds, which alternate with untraced rounds so that the tracing
overhead can be measured. perfbench/DESIGN.md describes the workloads,
metrics and checks.
"""

import argparse
import json
import os
import resource
import shutil
import signal
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOAD_NAMES = ("train_single_long", "train_hier_lm_wide", "decode_fine")

# Everything runs in one thread. BLAS may use up to nproc threads, but on a
# shared 2-core machine one thread gives steadier timings; the count is
# printed with the results.
BLAS_THREADS = 1
# After every round set-up runs again, at least once and until it has taken
# SETUP_SECONDS (at most SETUP_MAX times), so that the set-up samples are
# spread over the same stretch of time as the rounds; setup_s is their median.
SETUP_MAX, SETUP_SECONDS = 10, 0.2


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def quantile(values, q):
    """Linear-interpolated quantile, q in [0, 1]."""
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


class Skipped(Exception):
    """A check that does not apply to this run."""


class Checks:
    def __init__(self):
        self.results = []   # (name, True / False / None for skipped, detail)

    def run(self, name, fn, *args):
        try:
            detail = fn(*args)
        except AssertionError as e:
            self.results.append((name, False, str(e)))
        except Skipped as e:
            self.results.append((name, None, str(e)))
        else:
            self.results.append((name, True, "" if detail is None else str(detail)))

    @property
    def ok(self):
        return all(ok is not False for _, ok, _ in self.results)

    def report(self):
        words = {True: "ok", False: "FAILED", None: "skipped"}
        for name, ok, detail in self.results:
            print("check %-28s %s%s" % (name, words[ok], "  " + detail if detail else ""))


def repeat(seconds, step):
    """Call `step` until the loop ends as close to `seconds` as whole calls
    allow, at least once; `step` returns False to stop early."""
    t0 = time.perf_counter()
    n = 0
    while step() is not False:
        n += 1
        elapsed = time.perf_counter() - t0
        if elapsed + 0.5 * elapsed / n > seconds:
            return


def one_round(wl, w, s, workdir, failures):
    """One round, or None when it raised; a failed round is recorded in
    `failures` with the operations it would have run."""
    try:
        return wl.run_round(w, s, workdir)
    except Exception as e:  # a failing program operation, reported by the caller
        failures.append((repr(e), planned_ops(wl, w, s)))
        return None


def planned_ops(wl, w, s):
    tagging = wl.batch_count(s.test)
    return tagging if w.kind == "decode" else wl.step_count(s) + tagging


def keep(rounds, r):
    """Append `r`; only the first round keeps its batches and labels (for the
    oracles), so memory does not grow with the number of rounds."""
    if rounds:
        r.batches = r.labels = None
    rounds.append(r)


def check_same(rounds, other=()):
    digests = {r.digest for r in list(rounds) + list(other)}
    if len(digests) != 1:
        raise AssertionError("%d different loss/label digests over %d rounds"
                             % (len(digests), len(rounds) + len(other)))
    return "%d rounds, digest %s" % (len(rounds) + len(other), rounds[0].digest[:12])


def check_reference(w, seed, r):
    """Against the recorded outputs of the reference commit, when that seed
    was recorded: per-epoch losses and dev F1 within a relative tolerance,
    the test set's decoded labels and F1 exactly."""
    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
        ref = json.load(fh)
    entry = ref["workloads"].get(w.name, {}).get(str(seed))
    if entry is None:
        raise Skipped("seed %d not recorded; oracles and determinism still apply" % seed)
    tol = ref["loss_rel_tol"]
    if w.kind == "train":
        if len(r.history) != len(entry["history"]):
            raise AssertionError("%d epochs, reference has %d"
                                 % (len(r.history), len(entry["history"])))
        for got, want in zip(r.history, entry["history"]):
            for key, value in want.items():
                if abs(got[key] - value) > tol * max(abs(value), 1e-12):
                    raise AssertionError("epoch %d %s = %r, reference %r"
                                         % (got["epoch"], key, got[key], value))
    if r.decode_digest != entry["decode_digest"] or r.f1 != entry["f1"]:
        raise AssertionError("decoded test labels or F1 differ from the reference "
                             "(F1 %r vs %r)" % (r.f1, entry["f1"]))
    if w.kind == "train":
        return "losses and dev F1 within %g; test labels and F1 equal" % tol
    return "labels and F1 equal"


def check_oracles(wl, s, r):
    wl.viterbi_oracle(s.model, r.batches, r.labels)
    gold = [x.labels[wl.TASK_MAIN] for x in s.test.sentences]
    want = wl.f1_oracle(gold, r.labels)
    if abs(want - r.f1) > 1e-12:
        raise AssertionError("f1_score %r, oracle %r" % (r.f1, want))
    return "F1 %.4f" % r.f1


def setup_repeated(wl, w, seed, files, least, most=1, seconds=0.0):
    times, s = [], None
    while len(times) < least or (len(times) < most and sum(times) < seconds):
        s = None  # let the previous model go before building the next
        t0 = time.perf_counter()
        s = wl.setup(w, seed, files)
        times.append(time.perf_counter() - t0)
    return s, times


def metric(value, unit):
    return {"value": value, "unit": unit}


def run_plain(wl, tracing, w, args, files, expect, workdir, checks, t_start):
    s, setup_times = setup_repeated(wl, w, args.seed, files, 1)
    checks.run("sizes", lambda: "%s" % wl.check_sizes(w, s, expect))
    first_step = time.perf_counter() - t_start
    failures, rounds = [], []

    def step():
        r = one_round(wl, w, s, workdir, failures)
        if r is None:
            return False
        keep(rounds, r)
        setup_times.extend(setup_repeated(wl, w, args.seed, files, 1, SETUP_MAX,
                                          SETUP_SECONDS)[1])

    repeat(args.seconds, step)
    checks.run("no_hooks", lambda: _no_hooks(tracing))
    checks.run("round_completed", _no_failures, failures)
    if rounds:
        checks.run("determinism", check_same, rounds)
        checks.run("oracles", check_oracles, wl, s, rounds[0])
        checks.run("reference", check_reference, w, args.seed, rounds[0])
    samples = [ms for r in rounds for ms in r.batch_ms]
    rates = [r.tokens / r.seconds for r in rounds]
    attempted = sum(r.ops for r in rounds) + sum(n for _, n in failures)
    failed = sum(n for _, n in failures)
    if not rates:
        return attempted, failed, None
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    name = "train_tok_per_s" if w.kind == "train" else "decode_tok_per_s"
    print("%s %.1f tok/s (median of %d rounds of %d tokens: %s)"
          % (name, statistics.median(rates), len(rates), rounds[0].tokens,
             " ".join("%.0f" % x for x in rates)))
    print("decode_batch_ms_p50 %.3f ms, p90 %.3f ms (%d batches, %d beyond p90)"
          % (quantile(samples, 0.5), quantile(samples, 0.9), len(samples),
             sum(1 for x in samples if x > quantile(samples, 0.9))))
    print("setup_s %.4f s (median of %d set-ups, quartiles %.4f-%.4f); "
          "first timed step at %.2f s after start"
          % (statistics.median(setup_times), len(setup_times),
             quantile(setup_times, 0.25), quantile(setup_times, 0.75), first_step))
    print("peak_rss_mb %.1f MB" % peak)
    print("failed_frac %.4f (%d of %d operations: train steps and decode batches)"
          % (failed / attempted if attempted else 0.0, failed, attempted))
    return attempted, failed, {
        "tok_per_s": metric(statistics.median(rates), "tok/s"),
        "decode_batch_ms_p50": metric(quantile(samples, 0.5), "ms"),
        "decode_batch_ms_p90": metric(quantile(samples, 0.9), "ms"),
        "setup_s": metric(statistics.median(setup_times), "s"),
        "peak_rss_mb": metric(peak, "MB"),
    }


def run_traced(wl, tracing, w, args, files, expect, workdir, checks, t_start):
    """Rounds alternate untraced and traced until `--seconds` is up; the
    first (cold) untraced round is dropped from the overhead comparison when
    there is another."""
    tracer = tracing.Tracer()
    tracer.install()
    try:
        s, _ = setup_repeated(wl, w, args.seed, files, 1)
    finally:
        tracer.uninstall()
    round_start = len(tracer.spans)
    failures, plain, traced = [], [], []

    def step():
        for rounds, hooked in ((plain, False), (traced, True)):
            if hooked:
                tracer.install()
            try:
                r = one_round(wl, w, s, workdir, failures)
            finally:
                tracer.uninstall()
            if r is None:
                return False
            keep(rounds, r)

    repeat(args.seconds, step)
    checks.run("sizes", lambda: "%s" % wl.check_sizes(w, s, expect))
    checks.run("hooks_removed", lambda: _no_hooks(tracing))
    checks.run("round_completed", _no_failures, failures)
    attempted = sum(r.ops for r in plain + traced) + sum(n for _, n in failures)
    failed = sum(n for _, n in failures)
    if not (plain and traced):
        return attempted, failed, None
    checks.run("traced_equals_untraced", check_same, plain, traced)
    checks.run("self_times_sum", tracing.check_self_sums, tracer.spans,
               [section for r in traced for section in r.sections])
    m = tracing.layer_metrics(tracer, round_start, len(traced))
    warm = plain[1:] or plain
    plain_rate = statistics.median(r.tokens / r.seconds for r in warm)
    traced_rate = statistics.median(r.tokens / r.seconds for r in traced)
    m["trace.overhead_frac"] = plain_rate / traced_rate - 1.0
    out_dir = os.path.join(ROOT, ".perfbench", "traces")
    os.makedirs(out_dir, exist_ok=True)
    out = os.path.join(out_dir, "%s-seed%d.jsonl" % (w.name, args.seed))
    tracer.write(out)
    print("%d spans in %d traced rounds written to %s" % (len(tracer.spans), len(traced),
                                                          os.path.relpath(out, ROOT)))
    print("untraced %.1f tok/s (%d warm rounds), traced %.1f tok/s (%d rounds)"
          % (plain_rate, len(warm), traced_rate, len(traced)))
    units = _per_layer_units()
    for key in sorted(m):
        print("%-40s %.6g %s" % (key, m[key], units[key]))
    return attempted, failed, {k: metric(v, units[k]) for k, v in m.items()}


def _no_hooks(tracing):
    left = tracing.find_wrappers()
    if left:
        raise AssertionError("trace wrappers installed: %s" % ", ".join(left))


def _no_failures(failures):
    if failures:
        raise AssertionError("; ".join(e for e, _ in failures))


def _per_layer_units():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


def main(argv=None):
    t_start = time.perf_counter()
    args = parse_args(argv)
    # a terminated run still removes its working directory
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "seqlab", "__init__.py")):
        print("error: no seqlab sources under %s" % src, file=sys.stderr)
        return 2
    sys.path[:0] = [HERE, src]
    import tracing
    import workloads as wl
    w = wl.WORKLOADS[args.workload]
    workdir = os.path.join(ROOT, ".perfbench", "%s-%d-%d" % (w.name, args.seed, os.getpid()))
    os.makedirs(workdir)
    checks = Checks()
    try:
        t0 = time.perf_counter()
        files, expect = wl.generate(w, args.seed, workdir)
        print("workload %s seed %d: inputs generated in %.2f s; BLAS threads %d"
              % (w.name, args.seed, time.perf_counter() - t0, BLAS_THREADS))
        run = run_traced if args.trace else run_plain
        attempted, failed, metrics = run(wl, tracing, w, args, files, expect, workdir,
                                         checks, t_start)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    checks.report()
    if metrics is None:
        print("error: no round completed", file=sys.stderr)
        return 1
    print(json.dumps({"correct": checks.ok, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if checks.ok else 1


if __name__ == "__main__":
    sys.exit(main())
