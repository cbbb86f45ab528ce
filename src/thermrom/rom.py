"""Reduced and full transient systems: the leading-order adaptive-basis
model, its first-order slow-time correction, constant-basis Galerkin
baselines, and solution reconstruction.

The slow phase ``tau`` enters through two scenario-supplied maps: the pulse
center ``x_c(tau)`` and ``tau(t) = eps * nu * t`` with ``nu`` the fast
(forcing) rate. Within one integrator step the basis, origin and reduced
operators are frozen at the step-midpoint phase, which keeps the
second-order accuracy of the integrator in the fast time while the basis
drifts at the slow rate.

The Galerkin models split their work into an offline and an online part.
Offline, when a model is built, each basis node ``(V_j, u_j)`` (each
database entry, or the one constant basis) gets its Gauss-point rows from
:meth:`BeamModel.reduced_rows`. The interpolated basis is linear in the
blend weight ``w``, and so are its rows; ``V'MV``, ``V'CV`` and the bending
tangent ``K_bend`` are quadratic in ``w``, so each grid cell ``(j, j+1)``
gets three m x m blocks of each. Online, ``begin_step`` blends the rows and
the blocks at the cell and weight from :func:`basisdb.cell_weight` (the
helper :func:`basisdb.interpolate_basis` uses too), and each Newton
iteration evaluates the reduced force and tangent from the blended rows
(:func:`kernels.reduced_force`, :func:`kernels.reduced_tangent`) at a cost
of O(m^2) per Gauss point, with no n-sized assembly or projection. Only the
applied load is projected with the step's basis.

The correction system is linear in its unknowns with the right-hand side

    V' * [dp/deps - 2*nu*M*dV/dtau*q0' - c*nu*C*(du_eq/dtau + dV/dtau*q0)]

where ``c`` is ``damping_cross_factor`` (1 by the chain rule; 2 matches an
alternative bookkeeping of the cross term and is kept as a flag) and the
equilibrium drift term ``du_eq/dtau`` can be disabled with
``include_equilibrium_drift=False`` for comparison studies.
"""

from __future__ import annotations

import logging

import numpy as np

from .basisdb import cell_weight, interpolate_basis, slow_basis_derivative
from .newmark import TransientSystem

__all__ = [
    "InterpolatedBasisSource",
    "FullSystem",
    "AdaptiveRom",
    "CorrectionRom",
    "ConstantBasisRom",
    "reconstruct",
]

log = logging.getLogger(__name__)


def reconstruct(u_eq, basis, q0, q1=None, eps=0.0):
    """Full-space displacement ``u_eq + V*(q0 + eps*q1)``."""
    q = np.asarray(q0, dtype=float)
    if q1 is not None and eps != 0.0:
        q = q + eps * np.asarray(q1, dtype=float)
    return np.asarray(u_eq) + np.asarray(basis) @ q


class InterpolatedBasisSource:
    """Provides (V, u_eq) and their slow derivatives at a pulse position
    from an aligned database."""

    def __init__(self, database, derivative_delta=None):
        self.database = database
        self.derivative_delta = derivative_delta

    def basis_at(self, x_c):
        return interpolate_basis(self.database, x_c)

    def derivative_at(self, x_c):
        return slow_basis_derivative(self.database, x_c,
                                     delta=self.derivative_delta)


class FullSystem(TransientSystem):
    """Unreduced equations of motion of a second-order model.

    ``theta_of_t`` maps time to the temperature parameter (None for a cold
    model), ``load`` is the applied force ``g(t)``. Works for the beam and
    the two-mass oscillator alike; temperature-following damping is handled
    through ``model.damping(theta)``.
    """

    def __init__(self, model, theta_of_t=None, load=None, temperature_damping=False):
        self.model = model
        self.theta_of_t = theta_of_t or (lambda t: None)
        self.load = load or (lambda t: np.zeros(model.dof_count))
        self.temperature_damping = temperature_damping
        self._mass = model.mass()
        if not temperature_damping:
            self._damping = model.damping()

    @property
    def ndof(self):
        return self.model.dof_count

    def mass(self):
        return self._mass

    def _damping_at(self, theta):
        return self.model.damping(theta) if self.temperature_damping else self._damping

    def residual(self, u, v, a, t):
        theta = self.theta_of_t(t)
        return (self._mass @ a + self._damping_at(theta) @ v
                + self.model.internal_force(u, theta) - self.load(t))

    def iteration_matrix(self, u, v, a, t, c_acc, c_vel):
        theta = self.theta_of_t(t)
        return (c_acc * self._mass + c_vel * self._damping_at(theta)
                + self.model.tangent_stiffness(u, theta))


class _ReducedBase(TransientSystem):
    """Galerkin operators on a chain of basis nodes ``(V_j, u_j)``.

    Built once: each node's Gauss-point rows, and per cell the blocks
    ``X_jj``, ``X_jk + X_kj`` and ``X_kk`` (k = j + 1) of the mass, damping
    and bending matrices, with ``X_ab = V_a' X V_b``. :meth:`_freeze` blends
    them for one position in the chain.
    """

    def __init__(self, model, bases, origins):
        self.model = model
        self._bases = [np.asarray(v, dtype=float) for v in bases]
        self._node_rows, self._node_offsets = zip(*(
            model.reduced_rows(v, u) for v, u in zip(self._bases, origins)))
        n_nodes = len(self._bases)
        stacked = np.concatenate(self._bases, axis=1)
        mass_v = np.split(model.mass() @ stacked, n_nodes, axis=1)
        damping_v = np.split(model.damping() @ stacked, n_nodes, axis=1)

        def blocks(a, b):
            return np.stack([
                self._bases[a].T @ mass_v[b],
                self._bases[a].T @ damping_v[b],
                model.bending_block(self._node_rows[a], self._node_rows[b]),
            ])

        # Mass, damping and bending blocks, stacked: per node, and per cell
        # the symmetrized cross term.
        self._node_blocks = [blocks(j, j) for j in range(n_nodes)]
        self._cross_blocks = []
        for j in range(n_nodes - 1):
            cross = blocks(j, j + 1)
            self._cross_blocks.append(cross + cross.transpose(0, 2, 1))
        self._v = None
        self._rows = None
        self._offset = None
        self._m_red = None
        self._c_red = None
        self._k_bend = None

    @property
    def ndof(self):
        return self._v.shape[1]

    def mass(self):
        return self._m_red

    def _freeze(self, j, w):
        """Freeze the operators at weight ``w`` in cell ``j``."""
        if w == 0.0:
            self._v = self._bases[j]
            self._rows, self._offset = self._node_rows[j], self._node_offsets[j]
            blocks = self._node_blocks[j]
        else:
            self._v = (1.0 - w) * self._bases[j] + w * self._bases[j + 1]
            self._rows = (1.0 - w) * self._node_rows[j] + w * self._node_rows[j + 1]
            self._offset = (1.0 - w) * self._node_offsets[j] + w * self._node_offsets[j + 1]
            blocks = ((1.0 - w) ** 2 * self._node_blocks[j]
                      + (w * (1.0 - w)) * self._cross_blocks[j]
                      + w**2 * self._node_blocks[j + 1])
        self._m_red, self._c_red, self._k_bend = blocks
        # The reduced mass must stay positive definite for any frozen basis.
        np.linalg.cholesky(self._m_red)

    def _force(self, q, t_gauss):
        return self.model.reduced_force(self._rows, self._offset, q, t_gauss)

    def _tangent(self, q, t_gauss):
        return self.model.reduced_tangent(self._rows, self._offset, q, t_gauss,
                                          self._k_bend)


class AdaptiveRom(_ReducedBase):
    """Leading-order Galerkin model on the slowly adapting basis.

    Residual at frozen slow phase ``tau``:

        V' M V q0'' + V' C V q0' + V' f(u_eq + V q0, x_c(tau)) - V' p(t)

    where ``p`` is the leading-order part of the applied load. With a
    single-entry database and a fixed pulse this reduces to a standard
    fixed-basis model.
    """

    def __init__(self, model, source, tau_of_t, xc_of_tau, load=None):
        db = source.database
        super().__init__(model, [e.matrix for e in db.entries],
                         [e.u_eq for e in db.entries])
        self.source = source
        self.tau_of_t = tau_of_t
        self.xc_of_tau = xc_of_tau
        self.load = load or (lambda t: np.zeros(model.dof_count))
        self._x_c = None
        self._t_gauss = None
        self.set_slow_time(0.0)

    def set_slow_time(self, t):
        self._x_c = self.xc_of_tau(self.tau_of_t(t))
        self._freeze(*cell_weight(self.source.database, self._x_c))
        self._t_gauss = self.model.gauss_temperature(self._x_c)

    def begin_step(self, t_start, t_end):
        self.set_slow_time(0.5 * (t_start + t_end))

    def residual(self, q, qd, qdd, t):
        return (self._m_red @ qdd + self._c_red @ qd + self._force(q, self._t_gauss)
                - self._v.T @ self.load(t))

    def iteration_matrix(self, q, qd, qdd, t, c_acc, c_vel):
        return (c_acc * self._m_red + c_vel * self._c_red
                + self._tangent(q, self._t_gauss))


class ConstantBasisRom(_ReducedBase):
    """Fixed-basis Galerkin model about a fixed origin.

    Galerkin model of the original equations on ``V`` with the full
    applied load ``g(t)``; the thermal load enters as forcing through
    ``f(u_ref + V q, theta(t))``. No slow-phase freezing: the temperature
    parameter is evaluated at the exact residual time. The basis is a
    single node, so its operators are built and frozen once.
    """

    def __init__(self, model, basis, theta_of_t=None, load=None, u_ref=None):
        u_ref = np.zeros(model.dof_count) if u_ref is None else u_ref
        super().__init__(model, [basis], [u_ref])
        self.theta_of_t = theta_of_t or (lambda t: None)
        self.load = load or (lambda t: np.zeros(model.dof_count))
        self._freeze(0, 0.0)

    def residual(self, q, qd, qdd, t):
        t_gauss = self.model.gauss_temperature(self.theta_of_t(t))
        return (self._m_red @ qdd + self._c_red @ qd + self._force(q, t_gauss)
                - self._v.T @ self.load(t))

    def iteration_matrix(self, q, qd, qdd, t, c_acc, c_vel):
        t_gauss = self.model.gauss_temperature(self.theta_of_t(t))
        return c_acc * self._m_red + c_vel * self._c_red + self._tangent(q, t_gauss)

    @property
    def basis(self):
        return self._v


class CorrectionRom(_ReducedBase):
    """First-order slow-time correction, linear in its unknowns ``q1``.

    Needs the leading-order solution through ``q0_of_t(t) -> (q0, q0dot)``
    and the analytic epsilon-derivative of the load ``eps_load(t)``. The
    stiffness is the reduced tangent at the leading-order state ``q0``, so
    the operators are time dependent but state independent; initial
    conditions are identically zero.
    """

    def __init__(self, model, source, tau_of_t, xc_of_tau, q0_of_t,
                 nu, eps_load=None, dxc_dtau=None,
                 damping_cross_factor=1.0, include_equilibrium_drift=True):
        db = source.database
        super().__init__(model, [e.matrix for e in db.entries],
                         [e.u_eq for e in db.entries])
        self.source = source
        self.tau_of_t = tau_of_t
        self.xc_of_tau = xc_of_tau
        self.q0_of_t = q0_of_t
        self.nu = float(nu)
        self.eps_load = eps_load or (lambda t: np.zeros(model.dof_count))
        self.dxc_dtau = dxc_dtau or (lambda tau: 0.0)
        self.damping_cross_factor = float(damping_cross_factor)
        self.include_equilibrium_drift = bool(include_equilibrium_drift)
        self._x_c = None
        self._t_gauss = None
        self._v_slow = None
        self._u_org_slow = None
        self.set_slow_time(0.0)

    def set_slow_time(self, t):
        tau = self.tau_of_t(t)
        self._x_c = self.xc_of_tau(tau)
        self._freeze(*cell_weight(self.source.database, self._x_c))
        self._t_gauss = self.model.gauss_temperature(self._x_c)
        dv_dxc, du_dxc = self.source.derivative_at(self._x_c)
        rate = self.dxc_dtau(tau)
        self._v_slow = dv_dxc * rate
        self._u_org_slow = du_dxc * rate
        self._tangent_cache = (None, None)
        self._rhs_cache = (None, None)

    def begin_step(self, t_start, t_end):
        self.set_slow_time(0.5 * (t_start + t_end))

    def rhs(self, t):
        """Projected slow-coupling force driving the correction."""
        if self._rhs_cache[0] == t:
            return self._rhs_cache[1]
        q0, q0d = self.q0_of_t(t)
        m = self.model.mass()
        c = self.model.damping()
        force = self.eps_load(t) - 2.0 * self.nu * (m @ (self._v_slow @ q0d))
        u_slow = self._v_slow @ q0
        if self.include_equilibrium_drift:
            u_slow = u_slow + self._u_org_slow
        force = force - self.damping_cross_factor * self.nu * (c @ u_slow)
        out = self._v.T @ force
        self._rhs_cache = (t, out)
        return out

    def tangent(self, t):
        """Reduced tangent stiffness at the leading-order state."""
        if self._tangent_cache[0] == t:
            return self._tangent_cache[1]
        q0, _ = self.q0_of_t(t)
        out = self._tangent(q0, self._t_gauss)
        self._tangent_cache = (t, out)
        return out

    def residual(self, q1, q1d, q1dd, t):
        return (self._m_red @ q1dd + self._c_red @ q1d
                + self.tangent(t) @ q1 - self.rhs(t))

    def iteration_matrix(self, q1, q1d, q1dd, t, c_acc, c_vel):
        return c_acc * self._m_red + c_vel * self._c_red + self.tangent(t)
