"""Fail when a traced benchmark run's Newton counts rise above their ceiling.

Usage: python3 .github/newton_ceiling.py WORKLOAD RESULT_JSON

RESULT_JSON is the last line that ``perfbench/run.py --trace 1`` prints.
The table holds, per workload and method, the mean and max Newton
iterations per step measured on one x86-64 host when each check was added.
Round-off on another CPU or BLAS can flip a step at the tolerance edge by
one iteration, so each max may rise by 1 and each mean by 3 iterations over
the run's steps (plus 1e-9 for the round-off of that sum). An inconsistent
tangent, or under linear kinematics an inconsistent ``K u + b``, shows up
here as extra iterations well before it moves ``E_uniform`` past the 1e-9
reference check.
"""

import json
import sys

MEASURED = {
    "arch-nonlinear": {"hfm": (2.0, 2), "mms-o1": (2.0, 2), "mms-oeps": (1.0, 1),
                       "modal": (11.02, 23), "modal-pod": (4.896, 13)},
    "straight-linear": {"hfm": (1.0002, 2), "mms-o1": (1.0, 1), "modal-pod": (1.0, 1)},
}


def main(workload, result):
    m = json.loads(result)["metrics"]
    over = []
    for x, (mean, top) in MEASURED[workload].items():
        steps = m["newmark.%s.steps" % x]["value"]
        ceiling = {"mean": mean + 3.0 / max(steps, 1) + 1e-9, "max": top + 1}
        for k, limit in ceiling.items():
            name = "newmark.%s.newton_iters.%s" % (x, k)
            if m[name]["value"] > limit:
                over.append("%s = %s > %s" % (name, m[name]["value"], limit))
    return f"Newton counts above their ceiling: {over}" if over else 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
