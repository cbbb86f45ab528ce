"""Record the reference ``E_uniform`` values the benchmark checks against.

Runs one untraced set-up and compare per seed and stores each method's ``E_uniform`` in
``reference.json``, replacing the workload's previous entries::

    python3 perfbench/record_reference.py --workload arch-nonlinear --seeds 1-10

Only record on a commit whose results are known to be right: later runs are
held to these values.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None):
    sys.path.insert(0, str(ROOT / "src"))
    import bench

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(bench.WORKLOADS))
    parser.add_argument("--seeds", required=True, help="one seed or a range such as 1-10")
    args = parser.parse_args(argv)

    with open(bench.REFERENCE_FILE) as fh:
        ref = json.load(fh)
    scratch = ROOT / ".perfbench_work"
    scratch.mkdir(exist_ok=True)
    work = tempfile.mkdtemp(prefix="record-", dir=scratch)
    by_seed = {}
    try:
        for seed in parse_seeds(args.seeds):
            runner = bench.Bench(args.workload, seed, work)
            runner.setup()
            rnd = runner.compare()
            if runner.ledger.failures or runner.ledger.problems:
                raise SystemExit(f"seed {seed}: {runner.ledger}")
            by_seed[str(seed)] = rnd.e_uniform
            print(seed, rnd.e_uniform, flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    ref["workloads"].setdefault(args.workload, {})["by_seed"] = by_seed
    with open(bench.REFERENCE_FILE, "w") as fh:
        json.dump(ref, fh, indent=2, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    sys.exit(main())
