"""Reduced and full transient systems and solution reconstruction.

Every reduced model here is one Galerkin model, :class:`AdaptiveRom`, on a
chain of basis nodes ``(V_j, u_j)``:

    V'MV q'' + V'CV q' + f_red(q) - g = 0

with the basis, origin, operators, temperature and right-hand side ``g``
frozen for one integrator step. Time enters a system only through
``begin_step(t_start, t_end)``; its residual and iteration matrix depend on
the state alone. The three models differ in where they freeze:

- the leading-order adaptive model (mms-o1) blends the database nodes at
  the pulse position of the step midpoint, evaluates the temperature there,
  and projects the leading-order load at ``t_end``. Freezing at the slow
  phase of the midpoint keeps the integrator second-order accurate in the
  fast time while the basis drifts at the slow rate;
- the constant-basis baselines (:class:`ConstantBasisRom`) are a chain of
  one node ``(V, u_ref)`` with the temperature and the full load at
  ``t_end``;
- the first-order slow correction (:class:`CorrectionRom`) reuses the
  leading-order model's nodes and operators. Its force is linear,
  ``f_red(q1) = K0 q1`` with ``K0`` the reduced tangent at the leading-order
  state ``q0(t_end)``, and its right-hand side is the slow coupling

      V' * [dp/deps - 2*nu*M*dV/dtau*q0' - nu*C*(du_eq/dtau + dV/dtau*q0)]

  at ``t_end``.

The slow phase ``tau`` enters through two scenario-supplied maps: the pulse
center ``x_c(tau)`` and ``tau(t) = eps * nu * t`` with ``nu`` the fast
(forcing) rate.

The work is split into an offline and an online part. Offline, when a model
is built, each basis node gets its Gauss-point rows from
:meth:`BeamModel.reduced_rows`. The interpolated basis is linear in the
blend weight ``w``, and so are its rows; ``V'MV``, ``V'CV`` and the
state-independent part of the reduced tangent ``K_const`` (axial and
bending, :meth:`BeamModel.constant_block`) are quadratic in ``w``, so each
grid cell ``(j, j+1)`` gets three m x m blocks of each. Online,
``begin_step`` blends the rows and the blocks at the cell and weight from
:func:`basisdb.cell_weight` (the helper :func:`basisdb.interpolate_basis`
and the batched reconstruction use too), freezes the reduced kernel at the
step's temperature, and projects the step's right-hand side on the two node
bases ``V_j``, ``V_{j+1}``, blending the two m-vectors; the n x m basis
itself is never blended online. Each Newton iteration evaluates the reduced
weak form once, from the blended rows (:func:`kernels.reduced_linearization`),
at a cost of O(m^2) per Gauss point, with no n-sized assembly or
projection.

Every ``residual`` keeps the tangent callable of its state, and
``iteration_matrix`` builds the tangent from it; the full model's comes from
:func:`kernels.beam_linearization` through ``model.linearization(theta)``.
A reduced iteration matrix is ``c_acc M + c_vel C + K_const``, formed on
the first call of a step and kept while the coefficients and the blend
stay, plus the state-dependent tangent of the last residual; it is solved
with LAPACK ``gesv``.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg.blas import dgbmv
from scipy.linalg.lapack import dgbsv, dgesv

# interpolate_basis is not called here; it stays importable as
# rom.interpolate_basis, the name perfbench/layers.py traces.
from .basisdb import cell_weight, interpolate_basis, slow_basis_derivative  # noqa: F401
from .errors import IntegrationError
from .kernels import dense_to_band
from .newmark import TransientSystem

__all__ = [
    "FullSystem",
    "AdaptiveRom",
    "CorrectionRom",
    "ConstantBasisRom",
    "reconstruct",
]


def reconstruct(u_eq, basis, q0, q1=None, eps=0.0):
    """Full-space displacement ``u_eq + V*(q0 + eps*q1)``. The reduced
    states may be one vector or a stack of them in rows, which gives the
    displacements in rows."""
    q = np.asarray(q0, dtype=float)
    if q1 is not None and eps != 0.0:
        q = q + eps * np.asarray(q1, dtype=float)
    u = q @ np.asarray(basis).T
    u += u_eq
    return u


class FullSystem(TransientSystem):
    """Unreduced equations of motion of a second-order model.

    ``theta_of_t`` maps time to the temperature parameter (None for a cold
    model), ``load`` is the applied force ``g(t)``. The temperature, the
    damping ``model.damping(theta)``, the load and the model's
    ``linearization`` (with the beam's Gauss-point temperatures) are frozen
    at ``t_end`` of each step; the damping is re-banded only when the model
    returns a new array.

    The iteration matrix is kept in band storage of the model's
    ``half_bandwidth`` ``p`` and solved with a banded LU, and the residual
    forms ``M a + C v`` from the bands of ``M`` and ``C`` with BLAS
    ``gbmv``, so a Newton iteration costs O(n) for the beam. One
    ``(3p+1, n)`` Fortran-ordered workspace, LAPACK's ``gbsv`` layout,
    serves every iteration: :meth:`iteration_matrix` writes the band into
    its rows ``p:`` (rows ``0:p`` are the LU's fill-in space, which LAPACK
    does not read on entry) and :meth:`solve` factors it in place.
    """

    def __init__(self, model, theta_of_t=None, load=None):
        self.model = model
        self.theta_of_t = theta_of_t or (lambda t: None)
        self.load = load or (lambda t: np.zeros(model.dof_count))
        self._p = model.half_bandwidth
        self._mass = model.mass()
        self._mass_band = np.asfortranarray(dense_to_band(self._mass, self._p))
        self._damping = None
        self._work = np.zeros((3 * self._p + 1, model.dof_count), order="F")

    @property
    def ndof(self):
        return self.model.dof_count

    def mass(self):
        return self._mass

    def begin_step(self, t_start, t_end):
        theta = self.theta_of_t(t_end)
        damping = self.model.damping(theta)
        if damping is not self._damping:
            self._damping = damping
            self._damping_band = np.asfortranarray(dense_to_band(damping, self._p))
        self._linearize = self.model.linearization(theta)
        self._g = self.load(t_end)

    def residual(self, u, v, a):
        f, self._tangent = self._linearize(u)
        n, p = self._mass_band.shape[1], self._p
        if n < 2 * p + 1:
            # scipy's gbmv takes only bands with n >= 2p + 1; a dense model
            # (p = n - 1) keeps the dense products.
            return self._mass @ a + self._damping @ v + f - self._g
        inertia = dgbmv(n, n, p, p, 1.0, self._mass_band, a)
        inertia = dgbmv(n, n, p, p, 1.0, self._damping_band, v, beta=1.0, y=inertia,
                        overwrite_y=True)
        return inertia + f - self._g

    def iteration_matrix(self, c_acc, c_vel):
        """``c_acc*M + c_vel*C + K_t`` in rows ``p:`` of the workspace,
        which is returned whole; the previous matrix is overwritten."""
        band = self._work[self._p:]
        np.multiply(c_acc, self._mass_band, out=band)
        band += c_vel * self._damping_band
        band += self._tangent()
        return self._work

    def solve(self, s_mat, rhs):
        """Solve with an :meth:`iteration_matrix`, factoring it in place."""
        _, _, x, info = dgbsv(self._p, self._p, s_mat, rhs, overwrite_ab=True)
        if info > 0:
            raise np.linalg.LinAlgError(f"singular iteration matrix (zero pivot {info})")
        if info < 0:
            raise ValueError(f"illegal value in argument {-info} of gbsv")
        return x


class AdaptiveRom(TransientSystem):
    """Galerkin model on the slowly adapting basis of an aligned database.

    Residual at the frozen slow phase ``tau`` of the step midpoint:

        V' M V q0'' + V' C V q0' + V' f(u_eq + V q0, x_c(tau)) - V' p(t_end)

    where ``p`` is the leading-order part of the applied load. With a
    single-entry database and a fixed pulse this reduces to a standard
    fixed-basis model.

    Built once: each node's Gauss-point rows, and per cell the blocks
    ``X_jj``, ``X_jk + X_kj`` and ``X_kk`` (k = j + 1) of the mass, the
    damping and the state-independent tangent ``K_const`` of
    :meth:`BeamModel.constant_block`, with ``X_ab = V_a' X V_b``.
    ``begin_step`` blends them for one position in the chain and freezes the
    reduced kernel there. Subclasses choose that position (:meth:`_place`),
    the right-hand side (:meth:`_rhs`) and the reduced force with the
    callable for its state-dependent tangent (:meth:`_linearize`).
    """

    def __init__(self, model, database, tau_of_t, xc_of_tau, load=None):
        self.database = database
        self.tau_of_t = tau_of_t
        self.xc_of_tau = xc_of_tau
        self.load = load or (lambda t: np.zeros(model.dof_count))
        self._build(model, [e.matrix for e in database.entries],
                    [e.u_eq for e in database.entries])

    def _build(self, model, bases, origins):
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
                model.constant_block(self._node_rows[a], self._node_rows[b]),
            ])

        # Mass, damping and constant-tangent blocks, stacked: per node, and
        # per cell the symmetrized cross term.
        self._node_blocks = [blocks(j, j) for j in range(n_nodes)]
        for j, node in enumerate(self._node_blocks):
            _check_mass(node[0], lambda: f"at basis node j = {j}")
        self._cross_blocks = []
        for j in range(n_nodes - 1):
            cross = blocks(j, j + 1)
            self._cross_blocks.append(cross + cross.transpose(0, 2, 1))
        self._blocks = None

    @property
    def ndof(self):
        return self._bases[0].shape[1]

    def mass(self):
        return self._m_red

    def begin_step(self, t_start, t_end):
        j, w, theta = self._place(t_start, t_end)
        self._cell = j, w
        if w == 0.0:
            rows, offset = self._node_rows[j], self._node_offsets[j]
            blocks = self._node_blocks[j]
        else:
            rows = (1.0 - w) * self._node_rows[j] + w * self._node_rows[j + 1]
            offset = (1.0 - w) * self._node_offsets[j] + w * self._node_offsets[j + 1]
            blocks = ((1.0 - w) ** 2 * self._node_blocks[j]
                      + (w * (1.0 - w)) * self._cross_blocks[j]
                      + w**2 * self._node_blocks[j + 1])
            _check_mass(blocks[0], lambda: f"at t = {t_end:.6g} (cell j = {j}, "
                                           f"w = {w:.6g}, x_c = {theta})", t_end)
        if blocks is not self._blocks:
            self._blocks = blocks
            self._m_red, self._c_red, self._k_const = blocks
            self._coeffs = None
        self._kernel = self.model.reduced_linearization(
            rows, offset, self.model.gauss_temperature(theta))
        self._g = self._rhs(t_end)

    def residual(self, q, qd, qdd):
        f, self._tangent = self._linearize(q)
        return self._m_red @ qdd + self._c_red @ qd + f - self._g

    def iteration_matrix(self, c_acc, c_vel):
        """``c_acc M + c_vel C + K_const`` plus the state-dependent tangent
        of the last residual. The first part is formed once per operator
        blend and coefficient pair, so once per step at most."""
        if self._coeffs != (c_acc, c_vel):
            self._coeffs = c_acc, c_vel
            self._step_matrix = c_acc * self._m_red + c_vel * self._c_red + self._k_const
        return self._step_matrix + self._tangent()

    def solve(self, s_mat, rhs):
        """Solve with an :meth:`iteration_matrix` by LAPACK ``gesv``."""
        _, _, x, info = dgesv(s_mat, rhs)
        if info > 0:
            raise np.linalg.LinAlgError(f"singular iteration matrix (zero pivot {info})")
        if info < 0:
            raise ValueError(f"illegal value in argument {-info} of gesv")
        return x

    def _place(self, t_start, t_end):
        """Cell, blend weight and temperature parameter of the step: the
        pulse position at the midpoint's slow phase."""
        self._tau = self.tau_of_t(0.5 * (t_start + t_end))
        self._x_c = self.xc_of_tau(self._tau)
        return (*cell_weight(self.database, self._x_c), self._x_c)

    def _project(self, vec):
        """``V'vec`` for the step's basis ``V = (1 - w) V_j + w V_{j+1}``,
        blended from the projections on the two node bases."""
        j, w = self._cell
        out = self._bases[j].T @ vec
        if w != 0.0:
            out = (1.0 - w) * out + w * (self._bases[j + 1].T @ vec)
        return out

    def _rhs(self, t):
        """Projected right-hand side ``g`` of the step ending at ``t``."""
        return self._project(self.load(t))

    def _linearize(self, q):
        """Reduced force at ``q`` and a callable for the state-dependent part
        of the reduced tangent there (``K_const`` is the rest), which must
        not refer to ``self`` (see ``TransientSystem``)."""
        return self._kernel(q)


def _check_mass(m_red, where, time=None):
    """The reduced mass must be positive definite for every frozen basis.
    The node masses are checked once, when a model is built; a blend of two
    nodes can lose definiteness, so each blended step checks its own.
    ``where()`` places the basis in the message."""
    try:
        np.linalg.cholesky(m_red)
    except np.linalg.LinAlgError:
        raise IntegrationError(f"reduced mass is not positive definite {where()}",
                               time=time) from None


class ConstantBasisRom(AdaptiveRom):
    """Fixed-basis Galerkin model about a fixed origin.

    Galerkin model of the original equations on ``V`` with the full
    applied load ``g(t)``; the thermal load enters as forcing through
    ``f(u_ref + V q, theta(t))``. The chain has the one node ``(V, u_ref)``
    and the temperature parameter is taken at the end of each step.
    """

    def __init__(self, model, basis, theta_of_t=None, load=None, u_ref=None):
        u_ref = np.zeros(model.dof_count) if u_ref is None else u_ref
        self.theta_of_t = theta_of_t or (lambda t: None)
        self.load = load or (lambda t: np.zeros(model.dof_count))
        self._build(model, [basis], [u_ref])

    def _place(self, t_start, t_end):
        return 0, 0.0, self.theta_of_t(t_end)


class CorrectionRom(AdaptiveRom):
    """First-order slow-time correction, linear in its unknowns ``q1``.

    Shares the basis chain, slow maps and operators of the leading-order
    model ``leading``. Needs the leading-order solution through
    ``q0_of_t(t) -> (q0, q0dot)`` and the analytic epsilon-derivative of the
    load ``eps_load(t)``. The stiffness is the reduced tangent at the
    leading-order state ``q0``, so the operators are time dependent but
    state independent; initial conditions are identically zero.
    """

    def __init__(self, leading, q0_of_t, nu, eps_load=None, dxc_dtau=None):
        # The leading model's database, slow maps and operators, by reference.
        vars(self).update(vars(leading))
        self.q0_of_t = q0_of_t
        self.nu = float(nu)
        model = leading.model
        self.load = eps_load or (lambda t: np.zeros(model.dof_count))
        self.dxc_dtau = dxc_dtau or (lambda tau: 0.0)

    def _rhs(self, t):
        """Freeze the tangent ``K0`` at ``q0(t)``, as its state-dependent
        part and in whole, and return the projected slow-coupling force."""
        q0, q0d = self.q0_of_t(t)
        self._s0 = super()._linearize(q0)[1]()
        self._k0 = self._k_const + self._s0
        dv_dxc, du_dxc = slow_basis_derivative(self.database, self._x_c)
        rate = self.dxc_dtau(self._tau)
        v_slow = dv_dxc * rate
        force = self.load(t) - 2.0 * self.nu * (self.model.mass() @ (v_slow @ q0d))
        u_slow = v_slow @ q0 + du_dxc * rate
        force = force - self.nu * (self.model.damping() @ u_slow)
        return self._project(force)

    def _linearize(self, q):
        s0 = self._s0
        return self._k0 @ q, lambda: s0
