"""Workloads, measurement rounds, output checks and the result line.

The set-up is ``build_beam_scenario``: model, reference modes, forcing and
database. The compare is ``compare_methods`` on a prepared scenario with an
output directory, which is what ``thermrom compare`` runs. An untraced run
repeats the set-up, then the compare, and reports medians; a traced run
repeats set-up plus compare with and without tracing.
"""

from __future__ import annotations

import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy
from thermrom import kernels, load_database, save_database
from thermrom.errors import IntegrationError, SolverError
from thermrom.scenarios import ScenarioConfig, build_beam_scenario, compare_methods, run_method

HERE = Path(__file__).resolve().parent
REFERENCE_FILE = HERE / "reference.json"

MIN_REPEATS = 3
# Share of an untraced run spent repeating the set-up (at least MIN_REPEATS
# times); the rest repeats the compare. Many short samples and a median
# keep the sub-second slow-downs of a shared machine out of the figures.
SETUP_SHARE = 0.10


@dataclass(frozen=True)
class Workload:
    config: dict
    methods: tuple


# Why each workload exists is in README.md and BENCHMARK.json. The arch
# cycle counts keep one compare near 2-3 s on one core, so a run takes many
# samples; 5 cycles (250 steps) include the modal baseline's Newton peak at
# step 128. arch-fine-mesh is for runs by hand and is not in BENCHMARK.json:
# its matrices spill out of the per-core cache, so other tenants of a shared
# host move its timings by more than any bound the benchmark may set.
WORKLOADS = {
    "arch-nonlinear": Workload(
        dict(scenario="curved-nonlinear", eps=1e-3, cycles=5),
        ("hfm", "mms-o1", "mms-oeps", "modal", "modal-pod")),
    "arch-fine-mesh": Workload(
        dict(scenario="curved-nonlinear", eps=1e-3, cycles=2, n_elements=240),
        ("hfm", "mms-o1", "modal-pod")),
    "straight-linear": Workload(
        dict(scenario="straight-linear", eps=1e-2),
        ("hfm", "mms-o1", "modal-pod")),
}

STEP_METRICS = {
    "hfm": "hfm_step_ms", "mms-o1": "mms_o1_step_ms", "mms-oeps": "mms_oeps_step_ms",
    "modal": "modal_step_ms", "modal-pod": "modal_pod_step_ms",
}


@dataclass
class Round:
    """One compare: its time, per-method step times and errors."""

    compare_s: float | None
    bytes_written: int = 0
    step_ms: dict = field(default_factory=dict)
    e_uniform: dict = field(default_factory=dict)


@dataclass
class Ledger:
    """Method integrations attempted and failed, and failed output checks."""

    attempted: int = 0
    failures: list = field(default_factory=list)
    problems: list = field(default_factory=list)

    def check(self, ok, message):
        if not ok:
            self.problems.append(message)


def environment(workload, seed):
    """What makes two results comparable, recorded with every result."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": workload,
        "seed": seed,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {v: os.environ.get(v) for v in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "kernel_backend": kernels.get_backend(),
    }


class Bench:
    """One workload at one seed: rounds, checks and end-to-end metrics."""

    def __init__(self, workload_name, seed, work_dir):
        self.name = workload_name
        self.workload = WORKLOADS[workload_name]
        self.cfg = ScenarioConfig(seed=seed, **self.workload.config)
        self.work_dir = Path(work_dir)
        self.db_dir = self.work_dir / "database"
        self.ledger = Ledger()
        self.scenario = None
        self.compares = 0

    def setup(self, span=None):
        """Build the scenario; returns its set-up time."""
        span = span or (lambda name: contextlib.nullcontext())
        start = time.perf_counter()
        with span("scenarios.setup"):
            self.scenario = build_beam_scenario(self.cfg)
        return time.perf_counter() - start

    def compare(self):
        """Compare the workload's methods on the last scenario built.

        Each compare writes to a fresh directory, deleted afterwards:
        truncating and rewriting the previous compare's files makes ext4
        flush them and stalls the writer for a varying time.
        """
        scn = self.scenario
        self.compares += 1
        out_dir = self.work_dir / f"compare-{self.compares}"
        bundle, compare_s = self._compare(scn, out_dir)
        rnd = Round(compare_s, tree_bytes(out_dir))
        shutil.rmtree(out_dir, ignore_errors=True)
        if bundle is not None:
            for method, res in bundle.results.items():
                rnd.step_ms[method] = 1e3 * res.runtime / scn.n_steps
                traj = res.trajectory
                finite = all(np.all(np.isfinite(a)) for a in (
                    res.displacement, traj.displacement, traj.velocity, traj.acceleration))
                self.ledger.check(finite, f"{method}: trajectory is not finite")
            rnd.e_uniform = {m: e["E_uniform"] for m, e in bundle.errors.items()}
        return rnd

    def _compare(self, scn, out_dir):
        """``compare_methods`` on the prepared scenario. When a method
        raises, each method is run alone to find and record the failures,
        and the others are compared again without them."""
        methods = self.workload.methods
        self.ledger.attempted += len(methods)
        start = time.perf_counter()
        try:
            bundle = compare_methods(self.cfg, methods, scenario=scn, out_dir=out_dir)
            return bundle, time.perf_counter() - start
        except (IntegrationError, SolverError):
            pass
        failed = set()
        for method in methods:
            try:
                run_method(scn, method)
            except (IntegrationError, SolverError) as exc:
                failed.add(method)
                self.ledger.failures.append({
                    "method": method, "error": type(exc).__name__, "message": str(exc),
                    "step": getattr(exc, "step", None), "time": getattr(exc, "time", None),
                    "residual_history": [float(r) for r in exc.residual_history],
                })
        remaining = tuple(m for m in methods if m not in failed)
        if not failed or "hfm" not in remaining:
            self.ledger.check(failed, "compare_methods failed but no method fails alone")
            return None, None
        start = time.perf_counter()
        bundle = compare_methods(self.cfg, remaining, scenario=scn, out_dir=out_dir)
        return bundle, time.perf_counter() - start

    def database_round_trip(self):
        """Save and reload the scenario's database; must be bit-exact."""
        db = self.scenario.database
        shutil.rmtree(self.db_dir, ignore_errors=True)
        start = time.perf_counter()
        save_database(db, self.db_dir)
        save_s = time.perf_counter() - start
        start = time.perf_counter()
        loaded = load_database(self.db_dir)
        load_s = time.perf_counter() - start
        self.ledger.check(same_database(db, loaded),
                          "database changed in a save_database/load_database round trip")
        return {"basisdb.save_s": save_s, "basisdb.load_s": load_s,
                "basisdb.bytes_written": tree_bytes(self.db_dir)}

    def check_e_uniform(self, rounds):
        """``E_uniform`` per method: bit-identical across rounds and equal to
        the recorded reference. Returns the first round's values."""
        values = {}
        for rnd in rounds:
            for method, value in rnd.e_uniform.items():
                values.setdefault(method, []).append(value)
        for method, seen in values.items():
            self.ledger.check(len(set(seen)) == 1,
                              f"E_uniform.{method} differs between rounds: {seen}")
        first = {m: v[0] for m, v in values.items()}
        self.ledger.problems.extend(reference_mismatches(self.name, self.cfg.seed, first))
        return first

    def end_to_end(self, setups, rounds):
        done = [r for r in rounds if r.compare_s is not None]
        metrics = {
            "setup_s": statistics.median(setups),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "failed_runs": len(self.ledger.failures),
            "attempted_runs": self.ledger.attempted,
        }
        if done:
            metrics["compare_s"] = statistics.median(r.compare_s for r in done)
        for method, name in STEP_METRICS.items():
            values = [r.step_ms[method] for r in done if method in r.step_ms]
            if values:
                metrics[name] = statistics.median(values)
        for method, value in self.check_e_uniform(rounds).items():
            metrics[f"E_uniform.{method}"] = value
        return metrics


def same_database(a, b):
    """True when every stored field and array of two databases is bit-identical."""
    def same(x, y):
        if x is None or y is None:
            return x is y
        x, y = np.asarray(x), np.asarray(y)
        return x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()

    pairs = [(a.grid, b.grid), (a.alignment_residuals, b.alignment_residuals),
             (a.adjacent_angles, b.adjacent_angles)]
    for ea, eb in zip(a.entries, b.entries):
        pairs += [(ea.matrix, eb.matrix), (ea.u_eq, eb.u_eq),
                  (ea.frequencies, eb.frequencies), (ea.x_c, eb.x_c)]
    return (a.kind == b.kind and a.reference_index == b.reference_index
            and a.aligned == b.aligned and len(a) == len(b)
            and all(same(x, y) for x, y in pairs))


def tree_bytes(path):
    return sum(p.stat().st_size for p in Path(path).rglob("*") if p.is_file())


def reference_mismatches(workload, seed, e_uniform):
    """A message for every ``E_uniform`` off its recorded reference.

    A seed with recorded values must match them to ``tolerance``
    (relative). A workload whose inputs do not depend on the seed holds
    every seed to its one recorded entry at that tolerance. Other seeds of
    a seed-dependent workload are held to ``other_seed_tolerance`` around
    the median of the recorded seeds.
    """
    with open(REFERENCE_FILE) as fh:
        ref = json.load(fh)
    entry = ref["workloads"][workload]
    by_seed = entry["by_seed"]
    if not by_seed:
        return [f"no reference E_uniform recorded for {workload}"]
    if str(seed) in by_seed:
        expected, tol = by_seed[str(seed)], ref["tolerance"]
    elif not entry["seed_dependent"]:
        expected, tol = next(iter(by_seed.values())), ref["tolerance"]
    else:
        expected = {m: statistics.median(v[m] for v in by_seed.values())
                    for m in next(iter(by_seed.values()))}
        tol = ref["other_seed_tolerance"]
    out = []
    for method, want in expected.items():
        got = e_uniform.get(method)
        if got is None:
            out.append(f"E_uniform.{method}: no value to check")
        elif abs(got - want) > tol * abs(want):
            out.append(f"E_uniform.{method} = {got!r}, reference {want!r} (rel. tol {tol:g})")
    return out


def setup_due(setups, elapsed, seconds):
    """Whether the next sample of an untraced run is a set-up.

    The first sample is one. Then a set-up is due while the set-ups so far
    take less than SETUP_SHARE of the elapsed time, or while fewer than
    MIN_REPEATS have been made and the run is far enough along for the
    next one, so that they are spread evenly over the run.
    """
    if not setups:
        return True
    if len(setups) < MIN_REPEATS and len(setups) <= MIN_REPEATS * elapsed / seconds:
        return True
    return sum(setups) < SETUP_SHARE * elapsed


def measure(bench, seconds):
    """Untraced set-ups and compares, interleaved, for ``seconds`` in all;
    the end-to-end metrics.

    Each compare runs on the last scenario set up. Interleaving spreads the
    samples of both kinds over the whole run, so a slow-down of the shared
    host during part of the run weighs on every median alike. The run ends
    before the next sample would overrun ``seconds``, once both kinds have
    MIN_REPEATS samples.
    """
    start = time.perf_counter()
    setups, rounds, took = [], [], {}
    while True:
        elapsed = time.perf_counter() - start
        kind = "setup" if setup_due(setups, elapsed, seconds) else "compare"
        enough = len(setups) >= MIN_REPEATS and len(rounds) >= MIN_REPEATS
        if enough and elapsed + took.get(kind, 0.0) > seconds:
            break
        t0 = time.perf_counter()
        if kind == "setup":
            setups.append(bench.setup())
        else:
            rnd = bench.compare()
            rounds.append(rnd)
            print(f"compare {len(rounds)}: {rnd.compare_s} s; "
                  + ", ".join(f"{m} {v:.4f} ms/step" for m, v in rnd.step_ms.items()),
                  flush=True)
        took[kind] = time.perf_counter() - t0
    print(f"set-ups: {len(setups)}, median {statistics.median(setups):.4f} s", flush=True)
    bench.database_round_trip()
    return bench.end_to_end(setups, rounds)


def measure_traced(bench, seconds):
    """Pairs of an untraced and a traced round for ``seconds`` (at least
    one pair), after one untimed compare that grows the heap; the
    per-layer metrics as medians over traced rounds."""
    from layers import LayerProbe
    from tracer import Tracer

    tracer = Tracer()
    probe = LayerProbe(tracer)
    plain, traced, layer_rounds = [], [], []
    start = time.perf_counter()
    bench.setup()
    warm_up = bench.compare()
    while True:
        t0 = time.perf_counter()
        bench.setup()
        plain.append(bench.compare())
        tracer.reset()
        probe.reset()
        with tracer.installed(probe.install):
            bench.setup(span=tracer.span)
            traced.append(bench.compare())
        values = probe.metrics(bench.cfg.max_newton)
        values["scenarios.bytes_written"] = traced[-1].bytes_written
        layer_rounds.append(values)
        last = time.perf_counter() - t0
        if time.perf_counter() - start + last > seconds:
            break
    metrics = {k: statistics.median_low(r[k] for r in layer_rounds) for k in layer_rounds[0]}
    metrics.update(bench.database_round_trip())
    untraced_s = [r.compare_s for r in plain if r.compare_s is not None]
    traced_s = [r.compare_s for r in traced if r.compare_s is not None]
    if untraced_s and traced_s:
        metrics["trace.overhead"] = statistics.median(traced_s) / statistics.median(untraced_s) - 1.0
    bench.check_e_uniform([warm_up] + plain + traced)
    return metrics


def report(ledger, metrics, listed):
    """Print every metric, each failure and failed check, then the result
    line with the metrics ``listed`` in ``BENCHMARK.json``."""
    units = {m["name"]: m["unit"] for m in listed}
    for name, value in metrics.items():
        print(f"{name} = {value!r} {units.get(name) or EXTRA_UNITS.get(name, '')}")
    for failure in ledger.failures:
        print("failed run:", json.dumps(failure))
    for name in units:
        ledger.check(name in metrics, f"metric {name} was not measured")
    for problem in ledger.problems:
        print("check failed:", problem)
    print(json.dumps({
        "correct": not ledger.problems,
        "attempted": ledger.attempted,
        "failed": len(ledger.failures),
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units if name in metrics},
    }))


# Units of the end-to-end figures printed but not gated in BENCHMARK.json.
EXTRA_UNITS = {
    "failed_runs": "count", "attempted_runs": "count",
    "mms_oeps_step_ms": "ms", "modal_step_ms": "ms",
    "E_uniform.mms-oeps": "ratio", "E_uniform.modal": "ratio",
}
