"""Record the reference outputs that `run.py` compares against.

    python3 perfbench/record_reference.py --seeds 0-31

For each workload and seed this runs one untimed round and stores in
`perfbench/reference.json` the digest of the test set's decoded labels and
its F1, and on the train workloads also the per-epoch losses and dev F1. Run it
only on the commit that defines the reference; a later commit must
reproduce these outputs, not re-record them.
"""

import argparse
import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
LOSS_REL_TOL = 1e-6


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", required=True, help="inclusive range, e.g. 0-31")
    args = ap.parse_args(argv)
    lo, hi = (int(x) for x in args.seeds.split("-"))
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    sys.path[:0] = [HERE, os.path.join(ROOT, "src")]
    import workloads as wl

    path = os.path.join(HERE, "reference.json")
    with open(path, encoding="utf-8") as fh:
        ref = json.load(fh)
    ref["loss_rel_tol"] = LOSS_REL_TOL
    for name in sorted(wl.WORKLOADS):
        w = wl.WORKLOADS[name]
        table = ref["workloads"].setdefault(name, {})
        for seed in range(lo, hi + 1):
            workdir = os.path.join(ROOT, ".perfbench", "record-%s-%d" % (name, seed))
            os.makedirs(workdir, exist_ok=True)
            try:
                files, _ = wl.generate(w, seed, workdir)
                r = wl.run_round(w, wl.setup(w, seed, files), workdir)
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
            entry = {"decode_digest": r.decode_digest, "f1": r.f1}
            if w.kind == "train":
                entry["history"] = [
                    {k: rec[k] for k in ("main_loss", "aux_loss", "lm_loss", "dev_f1")}
                    for rec in r.history]
            table[str(seed)] = entry
            print(name, seed, table[str(seed)], flush=True)
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(ref, fh, indent=1, sort_keys=True)
                fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
