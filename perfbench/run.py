"""thermrom benchmark: one workload, end-to-end or per-layer metrics.

Run from the root of a source checkout; nothing needs installing, the
package is imported from ``src/``::

    python3 perfbench/run.py --workload arch-nonlinear --seed 1 --seconds 30 --trace 0

``--trace 0`` repeats the scenario set-up, then ``compare_methods``, for
``--seconds`` in all and reports the end-to-end metrics as medians.
``--trace 1`` alternates untraced and traced rounds of set-up plus compare
and reports the per-layer metrics. Both modes check the outputs. The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; metric names and units come from ``BENCHMARK.json``. The run
is a closed loop of one caller in one process, with BLAS pinned to one
thread.
"""

import os

# Pinned before numpy is imported anywhere in this process.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None):
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import bench
    except ImportError as exc:
        print(f"cannot import thermrom from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(bench.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    print("environment:", json.dumps(bench.environment(args.workload, args.seed)))

    scratch = ROOT / ".perfbench_work"
    scratch.mkdir(exist_ok=True)
    work = tempfile.mkdtemp(prefix="run-", dir=scratch)
    try:
        runner = bench.Bench(args.workload, args.seed, work)
        if args.trace:
            metrics = bench.measure_traced(runner, args.seconds)
            listed = spec["per_layer"]
        else:
            metrics = bench.measure(runner, args.seconds)
            listed = spec["end_to_end"]
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            scratch.rmdir()
    bench.report(runner.ledger, metrics, listed)
    return 0


if __name__ == "__main__":
    sys.exit(main())
