"""The two-mass oscillator: model and adapting-basis demo.

Two unit masses between two walls, coupled by springs whose constants
follow a temperature offset ``T``. The demo (``thermrom demo twodof``)
integrates the full two-dof system and a single-mode model whose basis is
the lowest eigenvector of ``K(T)``, recomputed every step, and reports how
well the one mode tracks the full response as the temperature sweeps.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, ContractError
from .metrics import error_instant, error_uniform
from .models import SecondOrderModel, Trajectory
from .newmark import TransientSystem, newmark_integrate
from .rom import FullSystem
from .scenarios import _write_csv

__all__ = [
    "TwoDofModel",
    "twodof_stiffness",
    "TwoDofDemoResult",
    "scenario_twodof",
    "write_twodof_outputs",
]

#: The demo's temperature sweeps as ``T = TEMPERATURE_AMPLITUDE*sin(eps*t)``.
TEMPERATURE_AMPLITUDE = np.pi / 3.0
#: The demo's load is ``[0, sin(FORCING_FREQUENCY*t)]``; output time axes
#: are scaled by it.
FORCING_FREQUENCY = 1.5


def twodof_stiffness(temperature, a=1.0, b=20.0, alpha=2.0):
    """Stiffness matrix of the two-mass oscillator at a temperature offset.

    Three springs ground-mass1-mass2-ground with temperature-dependent
    constants

        k1 = a + b*(1 + cos(alpha*T) - sin(alpha*T))
        k2 = b*cos(alpha*T)
        k3 = a + b*(1 - cos(alpha*T) - sin(alpha*T))

    assembled as ``[[k1 + k2, -k2], [-k2, k2 + k3]]``. The admissible offset
    range is [-pi/2, pi/2]. Note that for large offsets these spring laws
    produce an indefinite matrix; the computed eigenvalues are reported by
    the demo rather than assumed constant.
    """
    t = float(temperature)
    if not -np.pi / 2 <= t <= np.pi / 2:
        raise ContractError(
            f"temperature offset {t!r} outside the admissible range [-pi/2, pi/2]"
        )
    c = np.cos(alpha * t)
    s = np.sin(alpha * t)
    k1 = a + b * (1.0 + c - s)
    k2 = b * c
    k3 = a + b * (1.0 - c - s)
    return np.array([[k1 + k2, -k2], [-k2, k2 + k3]])


@dataclass(frozen=True)
class TwoDofModel(SecondOrderModel):
    """Two identical unit masses coupled by temperature-dependent springs.

    Dampers are proportional to the springs, ``c_i = beta * k_i(T)``, hence
    ``C(T) = beta * K(T)``.
    """

    mass_value: float = 1.0
    a: float = 1.0
    b: float = 20.0
    alpha: float = 2.0
    beta: float = 0.1

    @property
    def dof_count(self) -> int:
        return 2

    def mass(self):
        return self.mass_value * np.eye(2)

    def stiffness(self, theta):
        return twodof_stiffness(theta, self.a, self.b, self.alpha)

    def damping(self, theta=None):
        if theta is None:
            theta = 0.0
        return self.beta * self.stiffness(theta)

    def internal_force(self, u, theta):
        u = np.asarray(u, dtype=float)
        if u.shape != (2,):
            raise ContractError(f"expected a length-2 displacement, got shape {u.shape}")
        return self.stiffness(theta) @ u

    def tangent_stiffness(self, u, theta):
        return self.stiffness(theta)


def _lowest_mode(k, previous):
    """Lowest eigenvector of the symmetric 2x2 ``k`` from the closed-form
    eigensolve, signed to continue ``previous``; without one, its largest
    entry is positive."""
    p, r, q = k[0, 0], k[0, 1], k[1, 1]
    disc = float(np.hypot(0.5 * (p - q), r))
    lam = 0.5 * (p + q) - disc
    if disc == 0.0:
        phi = np.array([1.0, 0.0])
    else:
        v1 = np.array([r, lam - p])
        v2 = np.array([lam - q, r])
        v = v1 if np.linalg.norm(v1) >= np.linalg.norm(v2) else v2
        phi = v / np.linalg.norm(v)
    if previous is None:
        flip = phi[np.argmax(np.abs(phi))] < 0.0
    else:
        flip = phi @ previous < 0.0
    return -phi if flip else phi


def _mode_chain(model, temperatures):
    """Sign-continuous lowest modes along a temperature sequence."""
    phi, out = None, []
    for temp in temperatures:
        phi = _lowest_mode(model.stiffness(temp), phi)
        out.append(phi)
    return np.array(out)


class _OneModeRom(TransientSystem):
    """Single-mode model tracking the instantaneous softest direction.

    The basis is the lowest eigenvector of ``K(T)`` at each step midpoint,
    with sign continuity from step to step; the load is projected at the
    step end.
    """

    def __init__(self, model, temp_of_t, load):
        self.model = model
        self.temp_of_t = temp_of_t
        self.load = load
        self._phi = None

    @property
    def ndof(self):
        return 1

    def begin_step(self, t_start, t_end):
        k = self.model.stiffness(self.temp_of_t(0.5 * (t_start + t_end)))
        self._phi = _lowest_mode(k, self._phi)
        self._k_red = float(self._phi @ k @ self._phi)
        self._c_red = self.model.beta * self._k_red
        self._g = np.array([self._phi @ self.load(t_end)])

    def mass(self):
        return np.array([[self.model.mass_value]])

    def residual(self, q, qd, qdd):
        return self.model.mass_value * qdd + self._c_red * qd + self._k_red * q - self._g

    def iteration_matrix(self, c_acc, c_vel):
        return np.array([[c_acc * self.model.mass_value + c_vel * self._c_red + self._k_red]])


@dataclass
class TwoDofDemoResult:
    reduction: str
    full: Trajectory
    rom: Trajectory
    rom_displacement: np.ndarray
    uniform_error: float
    instant_error: np.ndarray
    eigenvalues: np.ndarray
    summary: dict


def scenario_twodof(eps=0.01, reduction="adaptive-1-mode", cycles=5, steps_per_cycle=50,
                    frozen_temperature=None):
    """Oscillator demo: full 2-dof solution vs a single-mode model.

    The temperature varies as ``T = TEMPERATURE_AMPLITUDE*sin(eps*t)`` (or
    is held at ``frozen_temperature``); the forcing is
    ``[0, sin(FORCING_FREQUENCY*t)]`` from rest. ``reduction`` is
    ``adaptive-1-mode`` (basis recomputed each step) or ``fixed-1-mode``
    (basis frozen at the initial temperature). The computed stiffness
    eigenvalues along the temperature path are part of the result; they are
    not constant for these spring laws, and the spring matrix loses
    definiteness beyond temperature offsets of about 0.8, so the default
    duration keeps a slow sweep inside the stable window while a fast sweep
    crosses it (where single-mode adaptation visibly fails).
    """
    if reduction not in ("adaptive-1-mode", "fixed-1-mode"):
        raise ConfigError(f"unknown twodof reduction {reduction!r}")
    if cycles < 1 or steps_per_cycle < 1:
        raise ConfigError("the demo needs cycles >= 1 and steps_per_cycle >= 1")
    model = TwoDofModel()
    if frozen_temperature is None:
        def temp_of_t(t):
            return TEMPERATURE_AMPLITUDE * np.sin(eps * t)
    else:
        def temp_of_t(t):
            return frozen_temperature

    def load(t):
        return np.array([0.0, np.sin(FORCING_FREQUENCY * t)])

    dt = (2.0 * np.pi / FORCING_FREQUENCY) / steps_per_cycle
    n_steps = int(cycles * steps_per_cycle)

    zeros = np.zeros(2)
    full = newmark_integrate(FullSystem(model, theta_of_t=temp_of_t, load=load),
                             zeros, zeros, dt, n_steps,
                             metadata={"scenario": "twodof", "method": "hfm",
                                       "eps": eps})

    rom_temp = temp_of_t if reduction == "adaptive-1-mode" else (
        lambda t, t0=temp_of_t(0.0): t0
    )
    q0 = np.zeros(1)
    rom = newmark_integrate(_OneModeRom(model, rom_temp, load), q0, q0.copy(), dt, n_steps,
                            coordinate_space=f"reduced:{reduction}",
                            metadata={"scenario": "twodof", "method": reduction,
                                      "eps": eps})

    chain = _mode_chain(model, [rom_temp(t) for t in full.times])
    rom_disp = chain * rom.displacement[:, 0][:, None]

    e_inst, _ = error_instant(full.displacement, rom_disp)
    e_uniform = error_uniform(full.displacement, rom_disp)

    true_temps = np.array([temp_of_t(t) for t in full.times])
    eigenvalues = np.array([
        np.linalg.eigvalsh(model.stiffness(temp)) for temp in true_temps
    ])
    summary = {
        "scenario": "twodof",
        "eps": eps,
        "reduction": reduction,
        "cycles": int(cycles),
        "steps_per_cycle": int(steps_per_cycle),
        "uniform_error": e_uniform,
        "temperature_range": [float(true_temps.min()), float(true_temps.max())],
        "stiffness_eigenvalue_range": [
            [float(eigenvalues[:, 0].min()), float(eigenvalues[:, 0].max())],
            [float(eigenvalues[:, 1].min()), float(eigenvalues[:, 1].max())],
        ],
    }
    return TwoDofDemoResult(
        reduction=reduction, full=full, rom=rom,
        rom_displacement=rom_disp, uniform_error=e_uniform,
        instant_error=e_inst, eigenvalues=eigenvalues, summary=summary,
    )


def write_twodof_outputs(result, out_dir):
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    t_scaled = FORCING_FREQUENCY * result.full.times
    for name, disp in (("hfm", result.full.displacement),
                       (result.reduction, result.rom_displacement)):
        _write_csv(out / f"probes_{name}.csv", ("t_scaled", "x1", "x2"),
                   (t_scaled, disp[:, 0], disp[:, 1]))
    _write_csv(
        out / "errors.csv",
        ("t_scaled", f"e_{result.reduction}"),
        (t_scaled, np.nan_to_num(result.instant_error, nan=0.0)),
    )
    with open(out / "summary.json", "w") as fh:
        json.dump(result.summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    result.full.save(out / "states_hfm.npz")
    result.rom.save(out / f"states_{result.reduction}.npz")
    return out
