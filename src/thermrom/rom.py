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
(forcing) rate. The systems call these maps, and the temperature map
``theta_of_t`` of the full and constant-basis models, with arrays of times
or phases, elementwise; a map that returns one scalar is constant.

Every system asks its model for the force, and none knows the model's
kinematics or quadrature. The full model asks once per block of steps for
``model.linearizations(thetas)``; a reduced model asks for the same
contract on its chain of bases, offline once and then once per block:

- offline, ``model.reduced_force_blocks(bases, origins)`` gives the
  state-independent force blocks of each node and cell, whose first ``m``
  rows are the state-independent part ``K_const`` of the reduced tangent,
  and the node rows a step needs. The model here projects ``V'MV`` and
  ``V'CV``. The interpolated basis is linear in the blend weight ``w``, so
  these blocks are quadratic in ``w``: each node ``j`` gets the blocks
  ``X_jj`` and each grid cell ``(j, j+1)`` the symmetrized cross term
  ``X_jk + X_kj``, stacked in rows, and one blend serves them all;
- per block, ``model.reduced_linearizations(rows, thetas, cell, upper,
  weight, forces)`` gives the steps' reduced forces from the block's
  cells, upper nodes, weights and temperature parameters and the force
  rows of its steps' operator blocks: either ``at(i)``, the step's linearization
  ``q -> (f, tangent)``, or, for a force affine in the state, its arrays
  :class:`~thermrom.models.AffineForces` ``(f, J, S_T)``, step ``i``'s
  force ``f[i] + J[i] q``. The tangent, ``tangent()`` or ``S_T[i]``, is
  the state-dependent part of the reduced tangent, and ``K_const`` the
  rest. For the beam ``at(i)`` evaluates the reduced weak form once per
  state (:func:`kernels.reduced_linearization`) under full kinematics;
  under linear kinematics the force is affine, with the thermal part of
  each step frozen for the whole block. The model decides which: no
  system here branches on its kinematics.

Online, what depends on time alone is frozen for a block of
``BLOCK_STEPS`` steps at once, in a few vectorised calls, and each
``begin_step`` reads its step's row. The integrator hands a system the
intervals of its steps before the first (``plan_steps``); a
``begin_step`` off that plan, such as a direct call, freezes a block of
its one interval with the same code, so a row does not depend on the
block it was frozen in. Per block and step the reduced models freeze the
pulse position, the cell and weight from :func:`basisdb.cell_weight`
(which :func:`basisdb.interpolate_basis` and the batched reconstruction
use too), each step's operator blocks with the check of the blended
mass (a step on a node takes the node's blocks verbatim, and a block whose
steps all sit on one node, such as a constant basis, views them), the
model's reduced forces, and the right-hand side: the block's forces (the
loads, or the correction's slow coupling at each step's ``q0``), stacked,
projected on the node bases ``V_j``, ``V_{j+1}`` and blended as m-vectors
by :func:`basisdb.chain_blend`, the one blend of node arrays; the n x m
basis itself is never blended online. Nothing frozen is sized by the
number of steps times ``n``. The slow correction's force ``K0 q1`` is
affine in every scenario: its block freezes each step's tangent ``K0`` at
the step's ``q0``.

The full model's ``residual`` keeps the tangent callable of its state,
and ``iteration_matrix`` builds the tangent from it: under full kinematics
:func:`kernels.beam_linearization`, and under linear kinematics ``K(theta)
u + b(theta)``, with the loads ``b`` of the block at once and one band
workspace that each step turns from the previous step's ``K`` into its
own, with no weak form. The full iteration matrix adds the tangent band
to ``c_acc M + c_vel C``, formed once per coefficient pair and damping
band. A reduced block forms every step's ``c_acc M + c_vel C +
K_const``, with ``S_T`` added for an affine force, at once, once per
coefficient pair, in one elementwise pass. A step's ``begin_step`` binds
views of its rows and copies nothing; its iteration matrix is its row, to
which a step whose force is not affine adds the state-dependent tangent
of its last residual, and an affine step's residual is ``M q'' + C q' +
(f + J q) - g``. The reduced iteration matrix is solved with LAPACK
``gesv``; the reduced mass check is LAPACK ``potrf``.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
from scipy.linalg.lapack import dgbsv, dgesv, dpotrf

# interpolate_basis is not called here; it stays importable as
# rom.interpolate_basis, the name perfbench/layers.py traces.
from .basisdb import (  # noqa: F401
    cell_weight, chain_blend, interpolate_basis, slow_basis_derivative)
from .errors import IntegrationError
from .kernels import band_matvec, dense_to_band
from .models import AffineForces
from .newmark import TransientSystem

__all__ = [
    "FullSystem",
    "AdaptiveRom",
    "CorrectionRom",
    "ConstantBasisRom",
    "reconstruct",
]


def reconstruct(u_eq, basis, q):
    """Full-space displacement ``u_eq + V q``. The reduced state may be one
    vector or a stack of them in rows, which gives the displacements in
    rows."""
    u = np.asarray(q, dtype=float) @ np.asarray(basis).T
    u += u_eq
    return u


#: Planned steps frozen at once: ``begin_step`` freezes the time-only
#: quantities of this many steps when it runs past the last frozen one.
#: A block's fixed cost is a few dozen numpy calls; its memory grows with
#: it, and so does its time per step once its arrays outgrow the core's
#: cache. A reduced block holds each step's operator blocks (``3m x m``,
#: one row more under linear kinematics; views of the node's when every
#: step sits on one node, as on a constant basis) and, per coefficient
#: pair, each step's ``m x m`` iteration matrix; an affine block holds its
#: ``f``, ``J`` and ``S_T`` too. That is about ``4 m^2`` floats per step,
#: ``6 m^2`` when affine and ``m^2`` on one node. With the rest of a block
#: (tracemalloc), 64 steps take 0.12 MB on the 5-mode straight beam, and
#: on the arch 1.0 MB for the 20-mode adaptive model, 1.3 MB for its
#: correction and 1.1 MB for the 43-mode modal baseline.
BLOCK_STEPS = 64


def _solved(x, info, routine):
    """``x``, the solution of a LAPACK solve ``routine`` whose status is
    ``info``, or the error that ``info`` reports."""
    if info > 0:
        raise np.linalg.LinAlgError(f"singular iteration matrix (zero pivot {info})")
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of {routine}")
    return x


def _at_times(fn, times):
    """``fn`` of an array of times (or slow phases) as an array of that
    shape, or None where ``fn`` gives None (a cold model)."""
    out = fn(times)
    return None if out is None else np.broadcast_to(np.asarray(out, dtype=float), times.shape)


class _BlockFrozen(TransientSystem):
    """A system whose time-only quantities are frozen for blocks of steps.

    :meth:`_freeze` evaluates them for arrays of step intervals, one row
    per step, in a few vectorised calls; each ``begin_step`` reads its row
    (:meth:`_row`). The planned steps are frozen ``BLOCK_STEPS`` at a time;
    a ``begin_step`` that is not the next planned one freezes a block of its
    one interval with the same code, so a row depends on its interval
    alone, not on the block it was frozen in.
    """

    _plan = (np.empty(0), np.empty(0))
    _next = _stop = 0

    def plan_steps(self, t_start, t_end):
        self._plan = np.asarray(t_start, dtype=float), np.asarray(t_end, dtype=float)
        self._next = self._stop = 0

    def _row(self, t_start, t_end):
        """The frozen block that holds the step ``(t_start, t_end)`` and the
        step's row in it."""
        starts, ends = self._plan
        k = self._next
        if k < starts.size and starts[k] == t_start and ends[k] == t_end:
            self._next = k + 1
            if k >= self._stop:
                # The last block goes before the next one is frozen; what
                # the last step bound of it lives until this step binds its
                # own rows, so at most two blocks are held.
                self._block, stop = None, min(k + BLOCK_STEPS, starts.size)
                self._block = self._freeze(starts[k:stop], ends[k:stop])
                self._first, self._stop = k, stop
            return self._block, k - self._first
        return self._freeze(np.array([t_start], dtype=float), np.array([t_end], dtype=float)), 0


class FullSystem(_BlockFrozen):
    """Unreduced equations of motion of a second-order model.

    ``theta_of_t`` maps an array of times to the temperature parameters
    (None for a cold model), ``load`` a time to the applied force ``g(t)``.
    Per block of steps the temperatures, the loads and the model's
    ``linearizations`` (with the beam's Gauss-point temperatures) are
    frozen at the steps' ``t_end``; a step reads its row and asks
    ``model.damping(theta)``, re-banding it only when the model returns a
    new array.

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

    def _freeze(self, t_start, t_end):
        thetas = _at_times(self.theta_of_t, t_end)
        return SimpleNamespace(
            theta=thetas, load=np.array([self.load(t) for t in t_end]),
            linearization=self.model.linearizations(
                [None] * t_end.size if thetas is None else thetas))

    def begin_step(self, t_start, t_end):
        block, row = self._row(t_start, t_end)
        damping = self.model.damping(None if block.theta is None else block.theta[row])
        if damping is not self._damping:
            self._damping = damping
            self._damping_band = np.asfortranarray(dense_to_band(damping, self._p))
            self._coeffs = None
        self._linearize = block.linearization(row)
        self._g = block.load[row]

    def residual(self, u, v, a):
        f, self._tangent = self._linearize(u)
        inertia = band_matvec(self._damping_band, v, band_matvec(self._mass_band, a))
        return inertia + f - self._g

    def iteration_matrix(self, c_acc, c_vel):
        """``c_acc*M + c_vel*C + K_t`` in rows ``p:`` of the workspace,
        which is returned whole; the previous matrix is overwritten. The
        band ``c_acc*M + c_vel*C`` is formed once per coefficient pair and
        damping band."""
        if self._coeffs != (c_acc, c_vel):
            self._coeffs = c_acc, c_vel
            self._step_band = c_acc * self._mass_band + c_vel * self._damping_band
        np.add(self._step_band, self._tangent(), out=self._work[self._p:])
        return self._work

    def solve(self, s_mat, rhs):
        """Solve with an :meth:`iteration_matrix`, factoring it in place."""
        _, _, x, info = dgbsv(self._p, self._p, s_mat, rhs, overwrite_ab=True)
        return _solved(x, info, "gbsv")


class AdaptiveRom(_BlockFrozen):
    """Galerkin model on the slowly adapting basis of an aligned database.

    Residual at the frozen slow phase ``tau`` of the step midpoint:

        V' M V q0'' + V' C V q0' + V' f(u_eq + V q0, x_c(tau)) - V' p(t_end)

    where ``p`` is the leading-order part of the applied load. With a
    single-entry database and a fixed pulse this reduces to a standard
    fixed-basis model.

    Built once: per node and per cell the blocks ``X_jj`` and ``X_jk +
    X_kj`` (k = j + 1) of the mass and the damping, with ``X_ab = V_a' X
    V_b``, and below them the model's force blocks
    (``model.reduced_force_blocks``), stacked in rows. Per block of steps,
    :meth:`_freeze` blends them for each step's position in the chain,
    checks the blended masses, and freezes what else depends on time alone
    (see the module docstring); ``begin_step`` reads the step's row.
    Subclasses choose the positions (:meth:`_place`), the forces of the
    right-hand sides (:meth:`_block_forces`) and the reduced forces of a
    block's steps (:meth:`_freeze_force`), not ``begin_step``: the
    benchmark's tracer books a step per class that defines it.
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
        forces, cross_forces, self._node_rows = model.reduced_force_blocks(self._bases, origins)
        n_nodes = len(self._bases)
        stacked = np.concatenate(self._bases, axis=1)
        mass_v = np.split(model.mass() @ stacked, n_nodes, axis=1)
        damping_v = np.split(model.damping() @ stacked, n_nodes, axis=1)

        def inertia(a, b):
            return np.array([self._bases[a].T @ mass_v[b], self._bases[a].T @ damping_v[b]])

        # Mass and damping blocks, and the model's force blocks below them,
        # stacked in rows: per node, and per cell the symmetrized cross term.
        self._node_blocks = np.stack([np.concatenate([*inertia(j, j), forces[j]])
                                      for j in range(n_nodes)])
        singular = np.flatnonzero(_not_positive_definite(self._node_blocks[:, :self.ndof]))
        if singular.size:
            raise _mass_error(f"at basis node j = {singular[0]}")
        self._cross_blocks = []
        for j in range(n_nodes - 1):
            square = inertia(j, j + 1)
            self._cross_blocks.append(np.concatenate(
                [*(square + square.transpose(0, 2, 1)), cross_forces[j]]))
        self._cross_blocks = np.array(self._cross_blocks)

    @property
    def ndof(self):
        return self._bases[0].shape[1]

    def mass(self):
        return self._m_red

    def _freeze(self, t_start, t_end):
        """The time-only quantities of the steps ``(t_start, t_end)``, one
        row per step: position, cell and weight, the operator blocks and
        whether their blended mass failed its check, the reduced forces, and
        the right-hand sides."""
        m, count = self.ndof, t_end.size
        tau, theta, cell, weight = self._place(t_start, t_end)
        nxt = np.minimum(cell + 1, len(self._bases) - 1)
        blended = weight != 0.0
        singular = np.zeros(count, dtype=bool)
        if blended.any():
            # The blend in place; float_power squares with libm's pow, like
            # Python's float **, where numpy's ** rounds some squares apart.
            w = weight[:, None, None]
            blocks = self._node_blocks[cell]
            blocks *= np.float_power(1.0 - w, 2)
            part = self._cross_blocks[cell]
            part *= w * (1.0 - w)
            blocks += part
            np.take(self._node_blocks, nxt, axis=0, out=part, mode="clip")
            part *= np.float_power(w, 2)
            blocks += part
            # A step on a node takes the node's blocks verbatim.
            blocks[~blended] = self._node_blocks[cell[~blended]]
            singular[blended] = _not_positive_definite(blocks[blended, :m])
        elif (cell == cell[0]).all():
            # A block on one node, such as a constant basis, views its blocks.
            blocks = np.broadcast_to(self._node_blocks[cell[0]],
                                     (count, *self._node_blocks.shape[1:]))
        else:
            blocks = self._node_blocks[cell]
        block = SimpleNamespace(tau=tau, theta=theta, cell=cell, weight=weight, singular=singular,
                                mass=blocks[:, :m], damping=blocks[:, m:2 * m],
                                k_const=blocks[:, 2 * m:3 * m], linearization=None,
                                thermal=None, coeffs=None)
        # The forces projected on each node basis of the block in one batched
        # product per node (each row the bits of V_j' f alone) and blended.
        forces = self._block_forces(block, t_end)[:, None, :]
        nodes, index = np.unique(np.concatenate([cell, nxt]), return_inverse=True)
        projected = np.array([np.matmul(forces, self._bases[node])[:, 0] for node in nodes])
        steps = np.arange(count)
        block.g = chain_blend(projected[index[:count], steps], projected[index[count:], steps],
                              weight[:, None])
        self._freeze_force(block, self.model.reduced_linearizations(
            self._node_rows, theta, cell, nxt, weight, blocks[:, 2 * m:]))
        return block

    def _freeze_force(self, block, linearization):
        """Freeze the reduced forces of the block's steps from the model's
        block ``linearization``: its arrays ``(f, J, S_T)`` when it is
        affine, else the callable ``at(i)``."""
        if isinstance(linearization, AffineForces):
            block.force, block.jacobian, block.thermal = linearization
        else:
            block.linearization = linearization

    def begin_step(self, t_start, t_end):
        block, row = self._row(t_start, t_end)
        if block.singular[row]:
            raise _mass_error(f"at t = {t_end:.6g} (cell j = {int(block.cell[row])}, "
                              f"w = {float(block.weight[row]):.6g}, "
                              f"x_c = {block.theta[row]})", time=t_end)
        # The step binds views of its block's rows and copies nothing.
        self._frozen, self._step, self._g = block, row, block.g[row]
        self._m_red, self._c_red = block.mass[row], block.damping[row]
        if block.linearization is None:
            self._force, self._jacobian = block.force[row], block.jacobian[row]
            self._linearize = None
        else:
            self._linearize = block.linearization(row)

    def residual(self, q, qd, qdd):
        # ndarray.dot is the BLAS gemv of @ with less overhead per call.
        if self._linearize is None:
            f = self._force + self._jacobian.dot(q)
        else:
            f, self._tangent = self._linearize(q)
        return self._m_red.dot(qdd) + self._c_red.dot(qd) + f - self._g

    def iteration_matrix(self, c_acc, c_vel):
        """The step's row of its block's ``c_acc M + c_vel C + K_const``,
        formed for all the block's steps at once per coefficient pair, with
        an affine force's ``S_T`` added in the same pass; a step whose force
        is not affine adds the state-dependent tangent of its last
        residual."""
        block = self._frozen
        if block.coeffs != (c_acc, c_vel):
            block.coeffs = c_acc, c_vel
            block.matrices = c_acc * block.mass + c_vel * block.damping + block.k_const
            if block.thermal is not None:
                block.matrices += block.thermal
        if self._linearize is None:
            return block.matrices[self._step]
        return block.matrices[self._step] + self._tangent()

    def solve(self, s_mat, rhs):
        """Solve with an :meth:`iteration_matrix` by LAPACK ``gesv``."""
        _, _, x, info = dgesv(s_mat, rhs)
        return _solved(x, info, "gesv")

    def _place(self, t_start, t_end):
        """Slow phase, temperature parameter, cell and blend weight of each
        step: the pulse position at the midpoint's slow phase."""
        tau = _at_times(self.tau_of_t, 0.5 * (t_start + t_end))
        x_c = _at_times(self.xc_of_tau, tau)
        return (tau, x_c, *cell_weight(self.database, x_c))

    def _block_forces(self, block, t_end):
        """The forces of the right-hand sides of the steps ending at
        ``t_end``, stacked in rows: the leading-order loads."""
        return np.array([self.load(t) for t in t_end])


def _not_positive_definite(masses):
    """Per matrix of a stack, whether LAPACK ``potrf`` finds it not
    positive definite: one batched Cholesky when it finds none. The reduced
    mass must be positive definite for every frozen basis: the node masses
    are checked once, when a model is built, and a blend of two nodes can
    lose definiteness, so each block of steps checks its blended masses."""
    try:
        np.linalg.cholesky(masses)
        return np.zeros(len(masses), dtype=bool)
    except np.linalg.LinAlgError:
        return np.array([dpotrf(m_red, lower=1)[1] > 0 for m_red in masses])


def _mass_error(where, time=None):
    """The error for a reduced mass that is not positive definite;
    ``where`` places the basis."""
    return IntegrationError(f"reduced mass is not positive definite {where}", time=time)


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
        zero = np.zeros(t_end.size, dtype=int)
        return None, _at_times(self.theta_of_t, t_end), zero, zero.astype(float)


class CorrectionRom(AdaptiveRom):
    """First-order slow-time correction, linear in its unknowns ``q1``.

    Shares the basis chain, slow maps and operators of the leading-order
    model ``leading``. Needs the leading-order solution through
    ``q0_of_t(t) -> (q0, q0dot)`` and the analytic epsilon-derivative of the
    load ``eps_load(t)``. The stiffness is the reduced tangent at the
    leading-order state ``q0``, so the operators are time dependent but
    state independent; initial conditions are identically zero.

    Its blocks freeze what the leading model's do, with the slow coupling
    of each step (:meth:`_block_forces`) in place of the load and the
    affine force ``K0 q1`` of each step (:meth:`_freeze_force`) in place
    of the model's.
    """

    def __init__(self, leading, q0_of_t, nu, eps_load=None, dxc_dtau=None):
        # The leading model's database, slow maps and operators, by
        # reference; not its plan and frozen block.
        vars(self).update(vars(leading))
        self.plan_steps((), ())
        self.q0_of_t = q0_of_t
        self.nu = float(nu)
        model = leading.model
        self.load = eps_load or (lambda t: np.zeros(model.dof_count))
        self.dxc_dtau = dxc_dtau or (lambda tau: 0.0)

    def _block_forces(self, block, t_end):
        """The slow couplings ``dp/deps - 2 nu M dV/dtau q0' - nu C (du_eq/dtau
        + dV/dtau q0)`` of the steps ending at ``t_end``, stacked in rows;
        each step's ``q0`` is kept in the block for its tangent."""
        mass, damping = self.model.mass(), self.model.damping()
        block.q0, forces = [], []
        for t, tau, x_c in zip(t_end, block.tau, block.theta):
            q0, q0d = self.q0_of_t(t)
            dv_dxc, du_dxc = slow_basis_derivative(self.database, x_c)
            rate = self.dxc_dtau(tau)
            v_slow = dv_dxc * rate
            force = self.load(t) - 2.0 * self.nu * (mass @ (v_slow @ q0d))
            u_slow = v_slow @ q0 + du_dxc * rate
            forces.append(force - self.nu * (damping @ u_slow))
            block.q0.append(q0)
        return np.array(forces)

    def _freeze_force(self, block, linearization):
        """The force ``K0 q1`` of each step, affine with ``K0`` the tangent
        at the step's ``q0``: ``K_const`` and the state-dependent part of
        the model's linearization at ``q0``, the thermal part of an affine
        one."""
        if isinstance(linearization, AffineForces):
            s0 = linearization.thermal
        else:
            s0 = np.array([linearization(i)(q0)[1]() for i, q0 in enumerate(block.q0)])
        # -0.0 is the additive identity, so f + K0 q keeps the bits of K0 q.
        block.force, block.jacobian, block.thermal = (
            np.broadcast_to(-0.0, block.g.shape), block.k_const + s0, s0)
