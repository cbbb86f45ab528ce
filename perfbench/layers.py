"""Which thermrom attributes the traced run wraps, and how the recorded
spans become the per-layer metrics listed in ``BENCHMARK.json``.

Names are wrapped where they are looked up at call time: ``beam.py`` calls
the kernels through the ``kernels`` module, ``rom.py`` and ``scenarios.py``
bind basis, spectral and harness helpers by name, and the integrator calls
the transient systems' methods through their classes.
"""

from __future__ import annotations

import statistics

from thermrom import basisdb, beam, forcing, kernels, newmark, rom, scenarios, spectral
from tracer import tail_percentile

# Every method any workload runs; a workload that skips one reports
# ``newmark.<m>.steps = 0`` and zeros for the method's other figures.
ALL_METHODS = ("hfm", "mms-o1", "mms-oeps", "modal", "modal-pod")

_SYSTEM_METHODS = ("begin_step", "residual", "iteration_matrix")

# Bytes of the per-element arrays the force-and-tangent kernel fills per
# element: a 6x6 tangent block and a 6-vector force, float64.
_ELEMENT_BYTES = (36 + 6) * 8


def integration_label(coordinate_space):
    """Method label of an integration from its ``coordinate_space``.

    The leading-order run inside ``mms-oeps`` is labelled ``mms-o1``: it is
    the same integration of the same system as the ``mms-o1`` method.
    """
    return "hfm" if coordinate_space == "full" else coordinate_space.split(":", 1)[1]


class _Integration:
    """Per-step record of one ``newmark_integrate`` call."""

    def __init__(self, label):
        self.label = label
        self.begins = []  # clock at each step's begin_step (initial call excluded)
        self.iterations = []  # iteration_matrix calls per step
        self.end = None  # clock when the integration returned; None if it raised
        self.initial_done = False
        self.fresh_step = False


class LayerProbe:
    """Installs the wrappers on a :class:`tracer.Tracer` and keeps the
    integrator bookkeeping the newmark and kernel metrics need."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.integrations = []
        self._active = None
        self._phase = None  # "newton" while inside a Newton-iteration call

    def reset(self):
        self.integrations = []
        self._active = None
        self._phase = None

    # -- installation -------------------------------------------------------

    def install(self, tracer):
        tracer.wrap(kernels, "beam_force", "kernels.force", after=self._count_newton_kernel)
        tracer.wrap(kernels, "beam_force_and_tangent", "kernels.force_tangent",
                    after=self._kernel_bytes)
        for attr in ("internal_force", "tangent_stiffness", "force_and_tangent"):
            tracer.wrap(beam.BeamModel, attr, "beam.free_dof")

        for owner in (spectral, scenarios):
            tracer.wrap(owner, "solve_equilibrium", "spectral.equilibrium",
                        before=self._equilibrium_start, after=self._equilibrium_end)
            tracer.wrap(owner, "vibration_modes", "spectral.modes")
        tracer.wrap(spectral, "modal_derivative", "spectral.modal_derivative")
        tracer.wrap(basisdb, "build_local_basis", "spectral.local_basis")

        tracer.wrap(scenarios, "build_database", "basisdb.build")
        tracer.wrap(rom, "interpolate_basis", "basisdb.interpolate", before=self._clamp_check)
        tracer.wrap(rom, "slow_basis_derivative", "basisdb.derivative")
        for attr in ("modal_pod", "stack_columns", "stack_orthonormalize"):
            tracer.wrap(scenarios, attr, "basisdb.compress")

        tracer.wrap(scenarios, "newmark_integrate", self._integration_name,
                    before=self._integration_start, after=self._integration_end)
        for cls in (newmark.TransientSystem, rom.FullSystem, rom.AdaptiveRom,
                    rom.CorrectionRom, rom.ConstantBasisRom):
            for attr in _SYSTEM_METHODS:
                if attr in vars(cls) and not getattr(vars(cls)[attr], "__isabstractmethod__", False):
                    tracer.wrap(cls, attr, self._system_name(attr),
                                before=self._system_hook(attr), after=self._system_done)
        tracer.wrap(scenarios, "reconstruct", "rom.reconstruct")

        tracer.wrap(scenarios, "make_perturbation", "forcing.setup")
        for attr in ("leading_load", "eps_load", "full_load"):
            tracer.wrap(forcing.PerturbationForcing, attr, "forcing.load")

        for attr in ("error_uniform", "error_instant"):
            tracer.wrap(scenarios, attr, "metrics.error")
        tracer.wrap(scenarios, "write_compare_outputs", "scenarios.write_outputs")

    # -- hooks --------------------------------------------------------------

    def _count_newton_kernel(self, args, kwargs, result):
        if self._phase == "newton":
            self.tracer.counters["kernels.newton_calls"] += 1

    def _kernel_bytes(self, args, kwargs, result):
        self._count_newton_kernel(args, kwargs, result)
        f, k = result
        n_elements = args[2].shape[0]
        self.tracer.counters["kernels.force_tangent.bytes_computed"] += (
            f.nbytes + k.nbytes + n_elements * _ELEMENT_BYTES)

    def _equilibrium_start(self, args, kwargs):
        self._eq_calls = self.tracer.calls["kernels.force_tangent"]

    def _equilibrium_end(self, args, kwargs, result):
        # One force-and-tangent evaluation at the start, one per iteration.
        done = self.tracer.calls["kernels.force_tangent"] - self._eq_calls
        self.tracer.counters["spectral.equilibrium.newton_iters"] += done - 1

    def _clamp_check(self, args, kwargs):
        db, x_c = args[0], float(args[1])
        if x_c < db.grid[0] or x_c > db.grid[-1]:
            self.tracer.counters["basisdb.interpolate.clamped"] += 1

    def _integration_name(self, args, kwargs):
        return "newmark." + integration_label(kwargs.get("coordinate_space", "full"))

    def _integration_start(self, args, kwargs):
        label = integration_label(kwargs.get("coordinate_space", "full"))
        self._active = _Integration(label)
        self.integrations.append(self._active)

    def _integration_end(self, args, kwargs, result):
        self._active.end = self.tracer.clock()
        self._active = None

    def _system_name(self, attr):
        def name(args, kwargs):
            return f"rom.{self._active.label}.{attr}"
        return name

    def _system_hook(self, attr):
        def before(args, kwargs):
            run = self._active
            if attr == "begin_step":
                if run.initial_done:
                    run.begins.append(self.tracer.clock())
                    run.iterations.append(0)
                    run.fresh_step = True
                run.initial_done = True
                self._phase = None
            elif attr == "iteration_matrix":
                run.iterations[-1] += 1
                self._phase = "newton"
            else:
                # The first residual of a step evaluates the predictor.
                self._phase = None if run.fresh_step or not run.iterations else "newton"
                run.fresh_step = False
        return before

    def _system_done(self, args, kwargs, result):
        self._phase = None

    # -- metrics ------------------------------------------------------------

    def metrics(self, max_newton):
        """Per-layer figures of everything recorded since the last reset."""
        t = self.tracer
        calls, self_s, counters = t.calls, t.self_time, t.counters
        iterations = sum(sum(run.iterations) for run in self.integrations)
        out = {
            "kernels.force.calls": calls["kernels.force"],
            "kernels.force.self_s": self_s["kernels.force"],
            "kernels.force_tangent.calls": calls["kernels.force_tangent"],
            "kernels.force_tangent.self_s": self_s["kernels.force_tangent"],
            "kernels.force_tangent.bytes_computed": counters["kernels.force_tangent.bytes_computed"],
            "kernels.calls_per_newton_iter": (counters["kernels.newton_calls"] / iterations
                                              if iterations else 0.0),
            "beam.free_dof.self_s": self_s["beam.free_dof"],
            "spectral.equilibrium.calls": calls["spectral.equilibrium"],
            "spectral.equilibrium.self_s": self_s["spectral.equilibrium"],
            "spectral.equilibrium.newton_iters": counters["spectral.equilibrium.newton_iters"],
            "spectral.modes.self_s": self_s["spectral.modes"],
            "spectral.modal_derivative.calls": calls["spectral.modal_derivative"],
            "spectral.modal_derivative.self_s": self_s["spectral.modal_derivative"],
            "spectral.local_basis.self_s": self_s["spectral.local_basis"],
            "basisdb.build.self_s": self_s["basisdb.build"],
            "basisdb.interpolate.calls": calls["basisdb.interpolate"],
            "basisdb.interpolate.self_s": self_s["basisdb.interpolate"],
            "basisdb.interpolate.clamped": counters["basisdb.interpolate.clamped"],
            "basisdb.derivative.calls": calls["basisdb.derivative"],
            "basisdb.derivative.self_s": self_s["basisdb.derivative"],
            "basisdb.compress.self_s": self_s["basisdb.compress"],
        }
        for method in ALL_METHODS:
            out.update(self._newmark_metrics(method, max_newton))
            for attr in _SYSTEM_METHODS:
                out[f"rom.{method}.{attr}.self_s"] = self_s[f"rom.{method}.{attr}"]
        out.update({
            "rom.reconstruct.calls": calls["rom.reconstruct"],
            "rom.reconstruct.self_s": self_s["rom.reconstruct"],
            "forcing.setup_s": t.total["forcing.setup"],
            "forcing.load.calls": calls["forcing.load"],
            "forcing.load.self_s": self_s["forcing.load"],
            "metrics.error.self_s": self_s["metrics.error"],
            "scenarios.setup.self_s": self_s["scenarios.setup"],
            "scenarios.write_outputs.self_s": self_s["scenarios.write_outputs"],
        })
        return out

    def _newmark_metrics(self, method, max_newton):
        runs = [run for run in self.integrations if run.label == method]
        iters, step_ms = [], []
        for run in runs:
            iters.extend(run.iterations)
            marks = run.begins + ([run.end] if run.end is not None else [])
            step_ms.extend(1e3 * (b - a) for a, b in zip(marks, marks[1:]))
        pct, iter_tail, n = tail_percentile(iters)
        _, ms_tail, _ = tail_percentile(step_ms)
        peak = max(iters, default=0)
        p = f"newmark.{method}."
        return {
            p + "steps": n,
            p + "newton_iters.mean": statistics.fmean(iters) if iters else 0.0,
            p + "newton_iters.tail": iter_tail,
            p + "newton_iters.max": peak,
            p + "cap_margin": max_newton - peak,
            p + "tail_pct": pct,
            p + "self_s": self.tracer.self_time[f"newmark.{method}"],
            p + "step_ms.p50": statistics.median(step_ms) if step_ms else 0.0,
            p + "step_ms.tail": ms_tail,
        }
