"""Experiment harness for the beam: scenario definitions, runs, method
comparison and result persistence.

Beam scenarios integrate in physical time with the forcing frequency
``omega_f`` computed from the mid-span heated configuration; the pulse
center follows ``x_c = x0 + A*sin(eps*omega_f*t)``, so one forcing cycle
advances the slow phase by ``2*pi*eps``. Output time axes are
non-dimensionalized by the forcing period (one cycle = 2*pi units).
"""

from __future__ import annotations

import functools
import json
import logging
import numbers
import time
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .basisdb import (
    BasisDatabase,
    build_database,
    cell_weight,
    chain_blend,
    default_grid,
    modal_pod,
    stack_columns,
    stack_orthonormalize,
)
from .beam import BeamModel, BeamProperties, TemperaturePulse
from .errors import ConfigError, ContractError
from .forcing import make_perturbation
from .metrics import error_instant, error_uniform
from .models import Trajectory
from .newmark import NewmarkSettings, newmark_integrate
from .rom import (
    AdaptiveRom,
    ConstantBasisRom,
    CorrectionRom,
    FullSystem,
    reconstruct,
)
from .spectral import solve_equilibrium, vibration_modes

__all__ = [
    "SCENARIO_NAMES",
    "METHOD_NAMES",
    "ScenarioConfig",
    "BeamScenario",
    "build_beam_scenario",
    "build_scenario_database",
    "run_scenario",
    "compare_methods",
    "modal_subset_indices",
]

log = logging.getLogger(__name__)

METHOD_NAMES = ("hfm", "mms-o1", "mms-oeps", "modal", "modal-pod")

# Reproduction presets for the "Modal" baseline subset (1-based grid indices).
MODAL_PRESETS = {
    "curved-linear": (2, 12, 18),
    "curved-nonlinear": (4, 7, 13),
}

# Default pulse height/width are scenario specific. The linear-kinematics
# models lose positive definiteness under a strong local thermal prestress
# (the straight beam first, near 55-60 K at width 0.2 L), so the linear
# studies run a modest pulse; the nonlinear arch relieves the prestress by
# bowing and supports a hot narrow pulse, whose traveling local footprint
# is what separates the adaptive reduction from any constant basis.
_BEAM_DEFS = {
    "straight-linear": dict(
        rise=0.0, linear_kinematics=True, with_md=False,
        load_density=1.0e4, perturbed=False,
        x0_frac=0.5, amp_frac=0.3, thermal_span=2.0 * np.pi,
        pulse_height=40.0, pulse_width_fraction=0.2,
        damping_modulus=1.0e8,
    ),
    "curved-linear": dict(
        rise=5.0e-3, linear_kinematics=True, with_md=False,
        load_density=1.0e3, perturbed=True,
        x0_frac=0.1, amp_frac=0.3, thermal_span=np.pi,
        pulse_height=40.0, pulse_width_fraction=0.2,
        damping_modulus=1.0e6,
    ),
    "curved-nonlinear": dict(
        rise=5.0e-3, linear_kinematics=False, with_md=True,
        load_density=1.0e3, perturbed=True,
        x0_frac=0.1, amp_frac=0.8, thermal_span=np.pi,
        pulse_height=400.0, pulse_width_fraction=0.1,
        damping_modulus=1.0e6,
    ),
}
SCENARIO_NAMES = tuple(_BEAM_DEFS)


@dataclass(frozen=True)
class ScenarioConfig:
    """One run description: scenario, scale separation, duration, method.

    ``cycles=None`` picks the scenario default, one full (straight) or half
    (curved) thermal oscillation: ``round(thermal_span / (2*pi*eps))``.
    ``basis_size`` sets the ``modal-pod`` size; ``None`` uses the database
    basis size, which is also the ``mms-*`` size. The ``modal`` baseline
    size follows from stacking.
    """

    scenario: str = "curved-nonlinear"
    eps: float = 1.0e-3
    cycles: int | None = None
    steps_per_cycle: int = 50
    seed: int = 2024
    method: str = "hfm"
    basis_size: int | None = None
    out_dir: str | None = None
    save_states: bool = False

    # beam discretisation and pulse (None: scenario default)
    n_elements: int = 60
    pulse_height: float | None = None
    pulse_width_fraction: float | None = None
    damping_modulus: float | None = None
    db_points: int = 19
    k_modes: int = 5
    modal_subset: tuple | str = "preset"
    # Columns of the stacked "modal" baseline below this relative singular
    # value are numerically dependent; carrying them destabilizes the
    # reduced nonlinear dynamics, so they are dropped.
    modal_rank_tol: float = 1e-4

    # integrator
    newton_tol: float = 1e-8
    max_newton: int = 25

    def __post_init__(self):
        if self.scenario not in SCENARIO_NAMES:
            raise ConfigError(f"unknown scenario {self.scenario!r}")
        if self.method not in METHOD_NAMES:
            raise ConfigError(f"unknown reduction method {self.method!r}")
        if self.eps <= 0.0:
            raise ConfigError("eps must be positive")
        if self.cycles is not None and self.cycles < 1:
            raise ConfigError("cycles must be >= 1")
        if self.steps_per_cycle < 20:
            raise ConfigError("steps_per_cycle must be >= 20")
        if self.basis_size is not None and self.basis_size < 1:
            raise ConfigError("basis_size must be >= 1")
        subset = self.modal_subset
        if isinstance(subset, str):
            valid = subset in ("preset", "random")
        else:
            valid = (isinstance(subset, (tuple, list))
                     and all(isinstance(j, numbers.Integral) for j in subset))
        if not valid:
            raise ConfigError(f"modal_subset must be 'preset', 'random' or a sequence "
                              f"of 1-based grid indices, got {subset!r}")

    def resolved_cycles(self, thermal_span):
        if self.cycles is not None:
            return int(self.cycles)
        return max(1, int(round(thermal_span / (2.0 * np.pi * self.eps))))


def modal_subset_indices(cfg, n_entries):
    """Grid indices (0-based) used by the "Modal" stacking baseline."""
    subset = cfg.modal_subset
    if subset == "preset" and cfg.scenario in MODAL_PRESETS:
        subset = MODAL_PRESETS[cfg.scenario]
    elif subset in ("preset", "random"):
        if n_entries < 3:
            raise ConfigError(f"a random modal subset needs at least 3 grid "
                              f"points; the grid has {n_entries}")
        rng = np.random.default_rng(cfg.seed)
        return tuple(sorted(rng.choice(n_entries, size=3, replace=False)))
    idx = tuple(int(j) - 1 for j in subset)
    if any(not 0 <= j < n_entries for j in idx):
        raise ConfigError(f"modal subset {tuple(subset)!r} of {cfg.scenario} "
                          f"outside the grid of {n_entries} points")
    return idx


# ---------------------------------------------------------------------------
# beam scenario setup
# ---------------------------------------------------------------------------

@dataclass
class BeamScenario:
    """Everything needed to integrate one beam scenario."""

    config: ScenarioConfig
    model: BeamModel
    omega_f: float
    frequencies: np.ndarray
    x0: float
    amplitude: float
    dt: float
    n_steps: int
    times: np.ndarray
    u_initial: np.ndarray
    forcing: object
    load_vector: np.ndarray
    probe_dofs: tuple
    database: BasisDatabase | None = None

    def tau_of_t(self, t):
        return self.config.eps * self.omega_f * t

    def xc_of_tau(self, tau):
        return self.x0 + self.amplitude * np.sin(tau)

    def dxc_dtau(self, tau):
        return self.amplitude * np.cos(tau)

    def xc_of_t(self, t):
        return self.xc_of_tau(self.tau_of_t(t))

    def leading_load(self, t):
        if self.forcing is not None:
            return self.forcing.leading_load(t)
        return self.load_vector * np.sin(self.omega_f * t)

    def eps_load(self, t):
        if self.forcing is not None:
            return self.forcing.eps_load(t)
        return np.zeros(self.model.dof_count)

    def full_load(self, t):
        if self.forcing is not None:
            return self.forcing.full_load(t, self.config.eps)
        return self.load_vector * np.sin(self.omega_f * t)


def scenario_model(cfg) -> BeamModel:
    """Beam model (geometry, kinematics, pulse) for a beam scenario."""
    d = _BEAM_DEFS[cfg.scenario]
    damping = (cfg.damping_modulus if cfg.damping_modulus is not None
               else d["damping_modulus"])
    props = BeamProperties(rise=d["rise"], n_elements=cfg.n_elements,
                           damping_modulus=damping)
    height = cfg.pulse_height if cfg.pulse_height is not None else d["pulse_height"]
    width_frac = (cfg.pulse_width_fraction if cfg.pulse_width_fraction is not None
                  else d["pulse_width_fraction"])
    pulse = TemperaturePulse(height=height, width=width_frac * props.length)
    return BeamModel(props, pulse, linear_kinematics=d["linear_kinematics"])


def build_scenario_database(cfg, model=None) -> BasisDatabase:
    """Aligned local-basis database on the default pulse-center grid."""
    model = model or scenario_model(cfg)
    d = _BEAM_DEFS[cfg.scenario]
    grid = default_grid(model.properties.length, cfg.db_points)
    return build_database(model, grid, cfg.k_modes, with_md=d["with_md"])


def _sin_range(tau_end):
    """Least and greatest value of ``sin(tau)`` over ``0 <= tau <= tau_end``.

    ``sin`` rises on [0, pi/2] and falls on [pi/2, 3*pi/2], so below 3*pi/2
    the minimum sits at an end of the interval and below pi/2 so does the
    maximum.
    """
    lo = -1.0 if tau_end >= 1.5 * np.pi else min(0.0, np.sin(tau_end))
    hi = 1.0 if tau_end >= 0.5 * np.pi else np.sin(tau_end)
    return lo, hi


def build_beam_scenario(cfg, need_database=True) -> BeamScenario:
    """Assemble loads, frequencies, time grid and initial state for a run."""
    d = _BEAM_DEFS[cfg.scenario]
    model = scenario_model(cfg)
    length = model.properties.length

    # Reference configuration at mid span: forcing frequency is the average
    # of the first two natural frequencies there, the noise cutoff the third.
    x_mid = 0.5 * length
    u_mid = solve_equilibrium(model, x_mid)
    freqs, modes = vibration_modes(model, u_mid, x_mid, max(cfg.k_modes, 3))
    omega_f = 0.5 * (freqs[0] + freqs[1])
    omega_cut = freqs[2]
    log.info("%s: omega_f = %.1f rad/s, noise cutoff = %.1f rad/s",
             cfg.scenario, omega_f, omega_cut)

    cycles = cfg.resolved_cycles(d["thermal_span"])
    dt = (2.0 * np.pi / omega_f) / cfg.steps_per_cycle
    n_steps = cycles * cfg.steps_per_cycle
    times = dt * np.arange(n_steps + 1)

    load_vector = model.uniform_transverse_load(d["load_density"])
    forcing = None
    if d["perturbed"]:
        forcing = make_perturbation(
            load_vector, modes[:, :5], omega_cut, times, cfg.seed, omega_f, model.mass(),
        )

    x0 = d["x0_frac"] * length
    amplitude = d["amp_frac"] * length
    sin_lo, sin_hi = _sin_range(2.0 * np.pi * cfg.eps * cycles)
    xc_lo, xc_hi = x0 + amplitude * sin_lo, x0 + amplitude * sin_hi
    grid = default_grid(length, cfg.db_points)
    off_span = xc_lo < 0.0 or xc_hi > length
    if need_database and (xc_lo < grid[0] or xc_hi > grid[-1]):
        log.warning(
            "pulse center range [%.4g, %.4g] extends past the database grid "
            "[%.4g, %.4g]; the bases are clamped at the grid ends%s",
            xc_lo, xc_hi, grid[0], grid[-1],
            ", and the temperature vanishes off the beam span" if off_span else "")
    elif not need_database and off_span:
        log.warning(
            "pulse center range [%.4g, %.4g] extends past the beam span "
            "[0, %.4g]; the temperature vanishes off the span",
            xc_lo, xc_hi, length)
    u_initial = solve_equilibrium(model, x0)

    axial, transverse, _ = model.node_dofs(model.node_nearest(0.25 * length))

    database = build_scenario_database(cfg, model) if need_database else None

    return BeamScenario(
        config=cfg, model=model,
        omega_f=omega_f, frequencies=freqs,
        x0=x0, amplitude=amplitude,
        dt=dt, n_steps=n_steps, times=times,
        u_initial=u_initial, forcing=forcing, load_vector=load_vector,
        probe_dofs=(axial, transverse), database=database,
    )


# ---------------------------------------------------------------------------
# method runs
# ---------------------------------------------------------------------------

@dataclass
class MethodResult:
    """One method's run. ``runtime`` is its wall time in seconds, including
    ``reconstruction``, the part that builds ``displacement``."""

    method: str
    basis_size: int | None
    trajectory: Trajectory
    displacement: np.ndarray
    runtime: float
    reconstruction: float


class _GridLookup:
    """Exact node-time lookup into a stored reduced trajectory."""

    def __init__(self, trajectory):
        self._dt = float(trajectory.times[1] - trajectory.times[0])
        self._q = trajectory.displacement
        self._qd = trajectory.velocity

    def __call__(self, t):
        k = int(round(t / self._dt))
        if not 0 <= k < self._q.shape[0] or abs(t - k * self._dt) > 1e-9 * self._dt:
            raise ContractError(f"time {t!r} has no stored leading-order state")
        return self._q[k], self._qd[k]


def _mms_reconstruction(scn, traj0, traj1=None):
    """Full displacements ``u_eq + V (q0 + eps q1)`` on the basis
    interpolated at each saved time, one pass per run of consecutive saved
    times in one grid cell: with the cell and weights of
    :func:`cell_weight`, the states ``Q`` of a run give the
    :func:`chain_blend` ``(1 - w)(u_j + Q V_j') + w(u_{j+1} + Q V_{j+1}')``,
    written into their rows of the output."""
    db = scn.database
    q = traj0.displacement
    if traj1 is not None:
        q = q + scn.config.eps * traj1.displacement
    cells, weights = cell_weight(db, scn.xc_of_t(traj0.times))
    out = np.empty((q.shape[0], db.n))
    starts = np.flatnonzero(np.diff(cells, prepend=-1))
    for a, b in zip(starts, [*starts[1:], cells.size]):
        node, rows, w = db.entries[cells[a]], slice(a, b), weights[a:b, None]
        out[rows] = reconstruct(node.u_eq, node.matrix, q[rows])
        if np.any(w):  # a run on a node reconstructs from that node alone
            nxt = db.entries[cells[a] + 1]
            chain_blend(out[rows], reconstruct(nxt.u_eq, nxt.matrix, q[rows]), w, overwrite=True)
    return out


def _integrate(scn, system, q0, method):
    """The harness's one Newmark integration: ``system`` from ``q0`` at rest."""
    cfg = scn.config
    return newmark_integrate(
        system, q0, np.zeros_like(q0), scn.dt, scn.n_steps,
        NewmarkSettings(newton_tol=cfg.newton_tol, max_newton=cfg.max_newton),
        coordinate_space="full" if method == "hfm" else f"reduced:{method}",
        metadata={"scenario": cfg.scenario, "method": method, "eps": cfg.eps,
                  "seed": cfg.seed, "omega_f": scn.omega_f,
                  "steps_per_cycle": cfg.steps_per_cycle},
    )


def _run_methods(scn, methods):
    """Integrate each of ``methods`` on a prepared scenario, in order.

    mms-o1 and mms-oeps share one leading-order run: mms-o1 reconstructs
    from it, and mms-oeps integrates its correction on the same model and
    trajectory. The runtime of each is that run's time plus its own part,
    which is what the method costs when run alone.
    """
    cfg, db = scn.config, scn.database
    results, leading = {}, None
    last_mms = [m for m in methods if m in ("mms-o1", "mms-oeps")][-1:]
    for method in methods:
        if method not in METHOD_NAMES:
            raise ConfigError(f"unknown reduction method {method!r}")
        start, shared = time.perf_counter(), 0.0
        if method == "hfm":
            system = FullSystem(scn.model, theta_of_t=scn.xc_of_t, load=scn.full_load)
            traj = _integrate(scn, system, scn.u_initial, method)
            m, displacement = None, lambda: traj.displacement
        elif method in ("mms-o1", "mms-oeps"):
            if leading is None:
                rom0 = AdaptiveRom(scn.model, db, scn.tau_of_t, scn.xc_of_tau,
                                   load=scn.leading_load)
                traj0 = _integrate(scn, rom0, np.zeros(db.m), "mms-o1")
                leading = rom0, traj0, time.perf_counter() - start
                start = time.perf_counter()
            rom0, traj0, shared = leading
            traj, traj1, m = traj0, None, db.m
            if method == "mms-oeps":
                system = CorrectionRom(rom0, q0_of_t=_GridLookup(traj0), nu=scn.omega_f,
                                       eps_load=scn.eps_load, dxc_dtau=scn.dxc_dtau)
                traj = traj1 = _integrate(scn, system, np.zeros(m), method)
            displacement = functools.partial(_mms_reconstruction, scn, traj0, traj1)
            if [method] == last_mms:
                # Free the leading-order model; the methods after it do not use it.
                leading = rom0 = system = None
        else:
            if method == "modal":
                idx = modal_subset_indices(cfg, len(db))
                stacked = stack_columns([db.entries[j] for j in idx])
                basis = stack_orthonormalize(stacked, sv_tol=cfg.modal_rank_tol)
                log.info("modal baseline from grid indices %s: size %d",
                         [j + 1 for j in idx], basis.shape[1])
            else:
                basis = modal_pod(stack_columns(db.entries), cfg.basis_size or db.m)
            system = ConstantBasisRom(scn.model, basis, theta_of_t=scn.xc_of_t,
                                      load=scn.full_load)
            traj = _integrate(scn, system, basis.T @ scn.u_initial, method)
            m, displacement = basis.shape[1], functools.partial(
                np.matmul, traj.displacement, basis.T)
        integrated = time.perf_counter()
        disp = displacement()
        done = time.perf_counter()
        runtime = shared + done - start
        log.info("%s finished in %.2f s", method, runtime)
        results[method] = MethodResult(method=method, basis_size=m, trajectory=traj,
                                       displacement=disp, runtime=runtime,
                                       reconstruction=done - integrated)
    return results


def run_method(scn, method):
    """Integrate one reduction method alone on a prepared scenario."""
    return _run_methods(scn, (method,))[method]


# ---------------------------------------------------------------------------
# result bundling and persistence
# ---------------------------------------------------------------------------

def _write_csv(path, header, columns):
    """A CSV file of equal-length columns, each value as ``%.17g``, which
    round-trips every float64. Each run of up to 512 rows is one ``%``
    format of a repeated row; formatting a whole file at once would hold
    its text and a Python float per value at the end of a run, when the
    process holds the most."""
    values = np.column_stack(columns)
    row = ",".join(["%.17g"] * values.shape[1]) + "\n"
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for start in range(0, len(values), 512):
            chunk = values[start:start + 512]
            fh.write((row * len(chunk)) % tuple(chunk.ravel().tolist()))


def _method_errors(reference, result, probe_dofs):
    e_inst, _ = error_instant(reference, result.displacement)
    axial, transverse = probe_dofs
    return {
        "E_uniform": error_uniform(reference, result.displacement),
        "E_axial_probe": error_uniform(reference[:, axial], result.displacement[:, axial]),
        "E_transverse_probe": error_uniform(
            reference[:, transverse], result.displacement[:, transverse]
        ),
        "instant": e_inst,
    }


@dataclass
class CompareResult:
    config: ScenarioConfig
    scenario: BeamScenario
    results: dict
    errors: dict
    summary: dict


def compare_methods(cfg, methods=("hfm", "mms-o1", "mms-oeps", "modal", "modal-pod"),
                    scenario=None, out_dir=None):
    """Run the reference and a list of reductions on one scenario and
    tabulate uniform errors; optionally write the result bundle. A prepared
    ``scenario`` must have been built for ``cfg``."""
    if "hfm" not in methods:
        methods = ("hfm",) + tuple(methods)
    if scenario is not None and scenario.config != cfg:
        differ = [f.name for f in fields(cfg)
                  if getattr(cfg, f.name) != getattr(scenario.config, f.name)]
        raise ConfigError(f"the scenario was built for another configuration "
                          f"(differs in {', '.join(differ)})")
    need_db = any(m != "hfm" for m in methods)
    scn = scenario or build_beam_scenario(cfg, need_database=need_db)

    results = _run_methods(scn, methods)
    reference = results["hfm"].displacement
    errors = {}
    for method, result in results.items():
        if method == "hfm":
            continue
        errors[method] = _method_errors(reference, result, scn.probe_dofs)

    x_c = scn.xc_of_t(scn.times)
    summary = {
        "scenario": cfg.scenario,
        "eps": cfg.eps,
        "seed": cfg.seed,
        "cycles": scn.n_steps // cfg.steps_per_cycle,
        "steps_per_cycle": cfg.steps_per_cycle,
        "omega_f": scn.omega_f,
        "frequencies_mid": scn.frequencies.tolist(),
        "pulse_height": scn.model.pulse.height,
        # Saved times whose pulse center lies outside the grid, where the
        # bases are clamped to the end entries.
        "clamped_positions": 0 if scn.database is None else int(np.count_nonzero(
            (x_c < scn.database.grid[0]) | (x_c > scn.database.grid[-1]))),
        "methods": {
            name: {
                "basis_size": res.basis_size,
                "runtime_s": res.runtime,
                "reconstruction_s": res.reconstruction,
                **{k: res.trajectory.metadata[k]
                   for k in ("max_newton_iterations", "mean_newton_iterations",
                             "p99_newton_iterations", "max_step_residual")},
                "newton_cap_margin": (cfg.max_newton
                                      - res.trajectory.metadata["max_newton_iterations"]),
                **({k: v for k, v in errors[name].items() if k != "instant"}
                   if name in errors else {}),
            }
            for name, res in results.items()
        },
    }
    bundle = CompareResult(cfg, scn, results, errors, summary)
    if out_dir is not None:
        write_compare_outputs(bundle, out_dir)
    return bundle


def write_compare_outputs(bundle, out_dir):
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    scn = bundle.scenario
    t_scaled = scn.omega_f * scn.times
    axial, transverse = scn.probe_dofs
    for name, res in bundle.results.items():
        _write_csv(
            out / f"probes_{name}.csv",
            ("t_scaled", "axial", "transverse"),
            (t_scaled, res.displacement[:, axial], res.displacement[:, transverse]),
        )
        if bundle.config.save_states:
            res.trajectory.save(out / f"states_{name}.npz")
    err_names = sorted(bundle.errors)
    if err_names:
        _write_csv(
            out / "errors.csv",
            ("t_scaled",) + tuple(f"e_{n}" for n in err_names),
            (t_scaled,) + tuple(bundle.errors[n]["instant"] for n in err_names),
        )
    with open(out / "summary.json", "w") as fh:
        json.dump(bundle.summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return out


def run_scenario(cfg, out_dir=None):
    """Execute one configured run; reduced methods are compared against the
    reference solution. Returns the comparison bundle."""
    methods = ("hfm",) if cfg.method == "hfm" else ("hfm", cfg.method)
    out_dir = out_dir if out_dir is not None else cfg.out_dir
    return compare_methods(cfg, methods, out_dir=out_dir)
