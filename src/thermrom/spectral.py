"""Temperature-dependent equilibria, vibration modes and static modal
derivatives; builds the local reduction basis at one temperature
configuration.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla

from .errors import BasisRankError, ContractError, SolverError, UnstableConfigurationError

__all__ = [
    "LocalBasis",
    "solve_equilibrium",
    "vibration_modes",
    "modal_derivative",
    "build_local_basis",
]

log = logging.getLogger(__name__)

ORTHONORMALITY_TOL = 1e-10
MD_STEP_SCALE = 1e-5
# Least |R_ii| of the QR factor of the unit-norm local-basis columns for
# which a column counts as independent.
BASIS_RANK_TOL = 1e-10


@dataclass
class LocalBasis:
    """Orthonormal reduction basis attached to one temperature configuration.

    ``matrix`` has orthonormal columns spanning the vibration modes (and the
    modal derivatives for kind ``"vm+md"``); ``u_eq`` is the converged static
    equilibrium and ``frequencies`` the ascending circular frequencies of the
    retained modes. ``info["modes"]`` holds the modes, whose signs the next
    node of a database build follows.
    """

    x_c: float
    u_eq: np.ndarray
    frequencies: np.ndarray
    matrix: np.ndarray
    kind: str = "vm-only"
    info: dict = field(default_factory=dict)

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    @property
    def m(self) -> int:
        return self.matrix.shape[1]

    def validate(self):
        v = self.matrix
        gram_dev = np.linalg.norm(v.T @ v - np.eye(self.m))
        if gram_dev > ORTHONORMALITY_TOL:
            raise ContractError(f"basis columns not orthonormal, |V'V - I| = {gram_dev:.2e}")
        if np.any(self.frequencies <= 0.0):
            raise UnstableConfigurationError(
                f"non-positive frequency at x_c = {self.x_c}"
            )
        if np.any(np.diff(self.frequencies) < 0.0):
            raise ContractError("frequencies must be ascending")
        return self


def solve_equilibrium(model, x_c, u_guess=None, rtol=1e-9, max_iter=50, full_output=False):
    """Newton solve of ``f(u, x_c) = 0`` with the analytic tangent.

    Converged when ``|f|_2 <= rtol * (1 + |f(u_guess)|_2)``. Raises
    :class:`SolverError` carrying the residual history after ``max_iter``
    iterations. An indefinite tangent at the solution is reported as an
    unstable-equilibrium warning, not an error.
    """
    n = model.dof_count
    u = np.zeros(n) if u_guess is None else np.asarray(u_guess, dtype=float).copy()
    if u.shape != (n,):
        raise ContractError(f"u_guess has shape {u.shape}, expected ({n},)")

    f, k = model.force_and_tangent(u, x_c)
    res0 = np.linalg.norm(f)
    tol = rtol * (1.0 + res0)
    history = [res0]
    it = 0
    while history[-1] > tol:
        if it >= max_iter:
            raise SolverError(
                f"equilibrium Newton did not converge in {max_iter} iterations "
                f"at x_c = {x_c} (last residual {history[-1]:.3e})",
                residual_history=history,
            )
        du = np.linalg.solve(k, -f)
        u += du
        f, k = model.force_and_tangent(u, x_c)
        history.append(np.linalg.norm(f))
        it += 1

    stable = True
    try:
        np.linalg.cholesky(0.5 * (k + k.T))
    except np.linalg.LinAlgError:
        stable = False
        log.warning("indefinite tangent at equilibrium, x_c = %s: unstable equilibrium", x_c)
    if full_output:
        return u, {"residuals": np.array(history), "iterations": it, "stable": stable}
    return u


def _fix_signs(phi, reference=None):
    """Deterministic mode signs: largest-magnitude entry positive, or, with a
    reference mode set, continuity (non-negative inner product column-wise)."""
    for j in range(phi.shape[1]):
        col = phi[:, j]
        if reference is not None and j < reference.shape[1]:
            flip = col @ reference[:, j] < 0.0
        else:
            flip = col[np.argmax(np.abs(col))] < 0.0
        if flip:
            phi[:, j] = -col
    return phi


def vibration_modes(model, u_eq, x_c, k, sign_reference=None):
    """Lowest-k mass-normalized modes of the tangent stiffness at ``u_eq``.

    Solves ``[K_t(u_eq, x_c) - omega^2 M] phi = 0`` with dense ``eigh`` and
    returns ascending circular frequencies with ``phi_i' M phi_j = delta_ij``.
    Sign convention: the largest-magnitude entry of each mode is positive,
    or continuity with ``sign_reference`` columns when given (used when
    sweeping a parameter grid).
    """
    n = model.dof_count
    if not 1 <= k <= n:
        raise ContractError(f"mode count {k} outside [1, {n}]")
    kt = model.tangent_stiffness(u_eq, x_c)
    vals, vecs = sla.eigh(kt, model.mass(), subset_by_index=(0, k - 1))
    if vals[0] <= 0.0:
        raise UnstableConfigurationError(
            f"tangent stiffness not positive definite at x_c = {x_c} "
            f"(lowest eigenvalue {vals[0]:.3e})"
        )
    return np.sqrt(vals), _fix_signs(vecs, sign_reference)


def modal_derivative(model, u_eq, x_c, phi):
    """Static modal derivatives of the modes ``phi`` (n x k), all ``i <= j``.

    Column ``(i, j)`` solves ``K_t(u_eq) theta_ij = -[dK_t/du . phi_j] phi_i``,
    the sensitivity of mode ``phi_i`` to a perturbation along ``phi_j``.
    The columns come in the order md11, md12, ..., md1k, md22, ..., mdkk.
    ``K_t(u_eq)`` is built once; the directional derivative of the tangent
    is a central finite difference along ``phi_j`` with step
    ``h = MD_STEP_SCALE * L / max(|phi_j|_inf, 1)``, built once per
    direction and reused for every ``i <= j``. Returns the raw
    (unnormalized) derivatives; they vanish identically for linear
    kinematics.
    """
    k = phi.shape[1]
    kt = model.tangent_stiffness(u_eq, x_c)
    theta = np.empty((phi.shape[0], k * (k + 1) // 2))
    for j in range(k):
        phi_j = phi[:, j]
        h = MD_STEP_SCALE * model.characteristic_length / max(np.max(np.abs(phi_j)), 1.0)
        k_plus = model.tangent_stiffness(u_eq + h * phi_j, x_c)
        k_minus = model.tangent_stiffness(u_eq - h * phi_j, x_c)
        minus_dk = -((k_plus - k_minus) / (2.0 * h))
        for i in range(j + 1):
            # the pairs of row i start at column i*k - i*(i-1)/2
            column = i * (2 * k - i + 1) // 2 + j - i
            try:
                theta[:, column] = np.linalg.solve(kt, minus_dk @ phi[:, i])
            except np.linalg.LinAlgError as exc:
                raise UnstableConfigurationError(
                    f"singular tangent stiffness at x_c = {x_c}"
                ) from exc
    return theta


def build_local_basis(model, x_c, k, with_md=False, u_guess=None, sign_reference=None):
    """Assemble and orthonormalize the local basis at one configuration.

    Stacks the ``k`` lowest modes (and, with ``with_md``, all
    ``k*(k+1)/2`` distinct modal derivatives for ``i <= j``), scales each
    column to unit norm and orthonormalizes, preserving the span exactly.
    Orthonormalization is a QR factorization in the fixed column order
    [modes, derivatives]: unlike an SVD it does not remix the columns, so a
    family of bases built over a parameter grid (with ``sign_reference``
    chaining the mode signs) stays column-wise continuous and can be
    aligned and interpolated. Raises :class:`BasisRankError` naming the
    dependent columns if the stack is rank deficient.
    """
    if k < 1:
        raise ContractError("k must be >= 1")
    u_eq = solve_equilibrium(model, x_c, u_guess=u_guess)
    omegas, phi = vibration_modes(model, u_eq, x_c, k, sign_reference=sign_reference)

    columns = [phi]
    labels = [f"vm{i + 1}" for i in range(k)]
    kind = "vm-only"
    if with_md:
        kind = "vm+md"
        columns.append(modal_derivative(model, u_eq, x_c, phi))
        labels += [f"md{i + 1}{j + 1}" for i in range(k) for j in range(i, k)]
    raw = np.column_stack(columns)

    norms = np.linalg.norm(raw, axis=0)
    if np.any(norms == 0.0):
        dead = [labels[i] for i in np.flatnonzero(norms == 0.0)]
        raise BasisRankError(f"zero columns in the local basis: {dead}", dead)
    scaled = raw / norms
    q, r = np.linalg.qr(scaled)
    diag = np.diagonal(r)
    dependent = np.flatnonzero(np.abs(diag) <= BASIS_RANK_TOL)
    if dependent.size:
        names = [labels[i] for i in dependent]
        raise BasisRankError(
            f"rank-deficient local basis at x_c = {x_c}; dependent columns {names}",
            names,
        )
    # deterministic orientation: positive R diagonal
    q = q * np.sign(diag)
    basis = LocalBasis(
        x_c=float(x_c),
        u_eq=u_eq,
        frequencies=omegas,
        matrix=q,
        kind=kind,
        info={"modes": phi},
    )
    return basis.validate()
