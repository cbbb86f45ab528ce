"""Second-order mechanical model contract, its checks, and trajectory
containers.

A "temperature parameter" is a single scalar throughout, such as the
pulse-center position of the beam. Grids of such scalars generalise to
product grids, but every experiment here is one-parameter.
"""

from __future__ import annotations

import io
import json
import zipfile
from abc import ABC, abstractmethod
from dataclasses import dataclass, field

import numpy as np

from .errors import ContractError
from .kernels import dense_to_band

__all__ = [
    "SecondOrderModel",
    "Trajectory",
    "CheckResult",
    "ValidationReport",
    "validate_model",
]

#: A temperature configuration is parameterised by one scalar.
TemperatureParam = float


class SecondOrderModel(ABC):
    """Contract for ``M u'' + C u' + f(u, theta) = g(t)`` models.

    Implementations must be immutable after construction; all matrix and
    force evaluations are pure functions of their arguments, so instances
    are safe for concurrent read access.
    """

    @property
    @abstractmethod
    def dof_count(self) -> int:
        """Number of unconstrained generalized coordinates."""

    @abstractmethod
    def mass(self) -> np.ndarray:
        """Symmetric positive definite mass matrix."""

    @abstractmethod
    def damping(self, theta: TemperatureParam | None = None) -> np.ndarray:
        """Symmetric positive semi-definite damping matrix.

        ``theta`` is accepted for models whose damping follows the
        temperature-dependent stiffness; constant-damping models ignore it.
        The full system asks for it every step and converts it to band
        storage only when it is a different array object from the last
        step's, so a constant-damping model returns one (read-only) array.
        """

    @abstractmethod
    def internal_force(self, u: np.ndarray, theta: TemperatureParam) -> np.ndarray:
        """Internal (elastic + thermal) force at displacement ``u``."""

    @abstractmethod
    def tangent_stiffness(self, u: np.ndarray, theta: TemperatureParam) -> np.ndarray:
        """Directional derivative of :meth:`internal_force` with respect to ``u``."""

    def force_and_tangent(self, u, theta):
        """Force and tangent together; override when a fused path is cheaper."""
        return self.internal_force(u, theta), self.tangent_stiffness(u, theta)

    @property
    def half_bandwidth(self) -> int:
        """Largest ``|i - j|`` with a nonzero entry in the mass, damping or
        tangent; the default treats them as dense."""
        return self.dof_count - 1

    def linearizations(self, thetas):
        """``at(i)``: the linearization ``u -> (f, tangent)`` at ``thetas[i]``
        of a run of steps (all None for a cold model), the tangent a
        callable that returns :meth:`tangent_stiffness` at ``u`` in LAPACK
        band storage of half-bandwidth ``p = half_bandwidth``, ``ab[p + i -
        j, j] = K[i, j]`` (see :mod:`thermrom.kernels`), which callers do
        not modify. A step's linearization is used until ``at`` is called
        for the next one, so an override may build what depends on the
        temperatures for all steps at once and share workspaces."""
        def at(i):
            theta = thetas[i]

            def linearize(u):
                u = np.array(u, dtype=float)  # the caller may update its state in place
                return self.internal_force(u, theta), lambda: dense_to_band(
                    self.tangent_stiffness(u, theta), self.half_bandwidth)
            return linearize
        return at

    @property
    def characteristic_length(self) -> float:
        """Length scale used for finite-difference step selection."""
        return 1.0


# ---------------------------------------------------------------------------
# trajectory container + persistence
# ---------------------------------------------------------------------------

_TRAJ_FIELDS = ("times", "displacement", "velocity", "acceleration")


@dataclass
class Trajectory:
    """Time grid plus state history in one coordinate space.

    ``coordinate_space`` is ``"full"`` or ``"reduced:<basis-id>"``.
    ``metadata`` holds scenario id, epsilon, step size and similar scalars;
    ``step_residuals`` records the converged Newton residual of every step
    and ``newton_iterations`` its Newton iteration count (0 at ``t = 0``).
    """

    times: np.ndarray
    displacement: np.ndarray
    velocity: np.ndarray
    acceleration: np.ndarray
    coordinate_space: str = "full"
    metadata: dict = field(default_factory=dict)
    step_residuals: np.ndarray | None = None
    newton_iterations: np.ndarray | None = None

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        for name in ("displacement", "velocity", "acceleration"):
            arr = np.asarray(getattr(self, name), dtype=float)
            setattr(self, name, arr)
            if arr.shape[0] != self.times.shape[0]:
                raise ContractError(f"{name} history does not match the time grid")
            if arr.shape[1:] != self.displacement.shape[1:]:
                raise ContractError("state vectors do not share one dimension")
        if np.any(np.diff(self.times) <= 0.0):
            raise ContractError("times must be strictly increasing")

    @property
    def ndof(self) -> int:
        return self.displacement.shape[1]

    def save(self, path) -> None:
        """Write a deterministic npz archive (fixed zip timestamps)."""
        payload = {name: getattr(self, name) for name in _TRAJ_FIELDS}
        for name in ("step_residuals", "newton_iterations"):
            if getattr(self, name) is not None:
                payload[name] = getattr(self, name)
        meta = dict(self.metadata)
        meta["coordinate_space"] = self.coordinate_space
        with zipfile.ZipFile(path, "w", zipfile.ZIP_STORED) as zf:
            for name, arr in payload.items():
                buf = io.BytesIO()
                np.lib.format.write_array(buf, np.ascontiguousarray(arr))
                info = zipfile.ZipInfo(name + ".npy", date_time=(1980, 1, 1, 0, 0, 0))
                zf.writestr(info, buf.getvalue())
            info = zipfile.ZipInfo("metadata.json", date_time=(1980, 1, 1, 0, 0, 0))
            zf.writestr(info, json.dumps(meta, sort_keys=True, indent=1))

    @classmethod
    def load(cls, path) -> "Trajectory":
        with zipfile.ZipFile(path, "r") as zf:
            arrays = {}
            for name in zf.namelist():
                if name.endswith(".npy"):
                    arrays[name[:-4]] = np.lib.format.read_array(io.BytesIO(zf.read(name)))
            meta = json.loads(zf.read("metadata.json").decode())
        space = meta.pop("coordinate_space", "full")
        return cls(
            times=arrays["times"],
            displacement=arrays["displacement"],
            velocity=arrays["velocity"],
            acceleration=arrays["acceleration"],
            coordinate_space=space,
            metadata=meta,
            step_residuals=arrays.get("step_residuals"),
            newton_iterations=arrays.get("newton_iterations"),
        )


# ---------------------------------------------------------------------------
# model validation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CheckResult:
    name: str
    deviation: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.deviation <= self.tolerance


@dataclass
class ValidationReport:
    checks: list

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def failures(self) -> list:
        return [c.name for c in self.checks if not c.passed]

    def __str__(self):
        lines = []
        for c in self.checks:
            status = "ok" if c.passed else "FAIL"
            lines.append(f"{c.name:<28s} dev={c.deviation:.3e} tol={c.tolerance:.1e} {status}")
        return "\n".join(lines)


def validate_model(model, theta, trials=3, seed=0, displacement_scale=1.0):
    """Check the second-order model contract on random states.

    Runs symmetry/definiteness checks on the mass and damping matrices and a
    central-difference consistency check of the tangent stiffness against
    the internal force (step ``h = 1e-6 * (1 + max|u|)``, relative tolerance
    1e-6). Returns a :class:`ValidationReport` listing the worst deviation
    per check.
    """
    if trials < 1:
        raise ContractError("trials must be >= 1")
    rng = np.random.default_rng(seed)
    n = model.dof_count
    checks = []

    m = model.mass()
    m_scale = np.linalg.norm(m)
    checks.append(CheckResult("mass symmetry", np.linalg.norm(m - m.T) / m_scale, 1e-12))
    try:
        np.linalg.cholesky(0.5 * (m + m.T))
        spd_dev = 0.0
    except np.linalg.LinAlgError:
        spd_dev = 1.0
    checks.append(CheckResult("mass positive definite", spd_dev, 0.5))

    c = model.damping(theta)
    c_scale = max(np.linalg.norm(c), 1e-300)
    checks.append(CheckResult("damping symmetry", np.linalg.norm(c - c.T) / c_scale, 1e-12))
    min_eig = float(np.linalg.eigvalsh(0.5 * (c + c.T)).min())
    checks.append(CheckResult("damping semi-definite", max(0.0, -min_eig) / c_scale, 1e-10))

    worst = 0.0
    for _ in range(trials):
        u = displacement_scale * rng.standard_normal(n)
        du = rng.standard_normal(n)
        du /= np.linalg.norm(du)
        h = 1e-6 * (1.0 + np.max(np.abs(u)))
        fd = (model.internal_force(u + h * du, theta)
              - model.internal_force(u - h * du, theta)) / (2.0 * h)
        kdu = model.tangent_stiffness(u, theta) @ du
        ref = max(np.linalg.norm(kdu), np.linalg.norm(fd), 1e-300)
        worst = max(worst, np.linalg.norm(fd - kdu) / ref)
    checks.append(CheckResult("tangent consistency", worst, 1e-6))

    kt = model.tangent_stiffness(displacement_scale * rng.standard_normal(n), theta)
    kt_scale = max(np.linalg.norm(kt), 1e-300)
    checks.append(CheckResult("tangent symmetry", np.linalg.norm(kt - kt.T) / kt_scale, 1e-10))

    return ValidationReport(checks)
