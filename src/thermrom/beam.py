"""Planar clamped-clamped beam with membrane-bending coupling and a moving
temperature pulse.

The undeformed centerline is a shallow parabolic arch
``z0(x) = 4*w*x*(L - x)/L**2`` with midspan rise ``w`` (``w = 0`` gives a
straight beam). Temperature enters through the membrane thermal strain
``alpha_T * T(x)`` only (uniform through the thickness, no thermal moment),
evaluated analytically at the Gauss points. A ``linear_kinematics`` switch
drops the quadratic membrane term and its tangent, keeping the
temperature-dependent (prestress) stiffness and the thermal load, so the
internal force is exactly ``K(theta) u + b(theta)`` in that mode.

The beam alone knows its kinematics and its Gauss points. The full model
asks it for ``linearizations(thetas)`` per block of steps; a reduced model
on a chain of bases asks, offline, for ``reduced_force_blocks`` and, per
block, for ``reduced_linearizations``. Both return the step's
``u -> (f, tangent)``, or a reduced force affine in the state as its
arrays, and no caller branches on the kinematics.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels
from .basisdb import chain_blend
from .errors import ContractError
from .models import AffineForces, SecondOrderModel

__all__ = [
    "BeamProperties",
    "TemperaturePulse",
    "BeamModel",
    "pulse_temperature",
]


@dataclass(frozen=True)
class BeamProperties:
    """Geometry and material constants of the beam testbed.

    Defaults: 0.1 m x 10 mm x 1 mm aluminium beam (E = 70 GPa,
    rho = 2700 kg/m^3, alpha_T = 23.1e-6 1/K), 60 elements. ``rise`` is the
    midspan rise of the initially curved variant (5 mm when curved, 0 when
    straight). The Kelvin-Voigt damping modulus default of 1e6 Pa s puts
    the loss factor kappa*omega/E of the lowest beam modes in the few-percent
    range (underdamped, physically plausible structural damping); values
    near 1e8 Pa s overdamp every mode and suppress oscillatory response
    altogether.
    """

    length: float = 0.1
    thickness: float = 1.0e-3
    width: float = 1.0e-2
    rise: float = 0.0
    youngs_modulus: float = 70.0e9
    damping_modulus: float = 1.0e6
    density: float = 2700.0
    thermal_expansion: float = 23.1e-6
    n_elements: int = 60

    def __post_init__(self):
        positive = (
            "length", "thickness", "width", "youngs_modulus", "density",
            "thermal_expansion",
        )
        for name in positive:
            if getattr(self, name) <= 0.0:
                raise ContractError(f"{name} must be positive")
        if self.rise < 0.0 or self.damping_modulus < 0.0:
            raise ContractError("rise and damping_modulus must be non-negative")
        if self.n_elements < 2:
            raise ContractError("n_elements must be at least 2")

    @property
    def area(self) -> float:
        return self.width * self.thickness

    @property
    def inertia(self) -> float:
        return self.width * self.thickness**3 / 12.0

    @property
    def axial_rigidity(self) -> float:
        return self.youngs_modulus * self.area

    @property
    def bending_rigidity(self) -> float:
        return self.youngs_modulus * self.inertia


@dataclass(frozen=True)
class TemperaturePulse:
    """Shape of a sin^2 temperature pulse of height ``height`` over a window
    of width ``width``; :func:`pulse_temperature` places it at a center
    position. How the center moves is up to the scenario."""

    height: float = 100.0
    width: float = 0.02

    def __post_init__(self):
        if self.width <= 0.0:
            raise ContractError("pulse width must be positive")
        if self.height < 0.0:
            raise ContractError("pulse height must be non-negative")


def pulse_temperature(x, x_c, pulse):
    """Temperature at position ``x`` for a pulse centered at ``x_c``.

    ``T(x) = height * sin(pi*(x - x0)/width)**2`` inside the window
    ``[x0, x0 + width]`` with ``x0 = x_c - width/2`` and zero outside; the
    window may extend past the beam ends, in which case only its
    intersection with the beam carries temperature.
    """
    x = np.asarray(x, dtype=float)
    x0 = x_c - 0.5 * pulse.width
    s = x - x0
    inside = (s >= 0.0) & (s <= pulse.width)
    t = np.where(inside, pulse.height * np.sin(np.pi * s / pulse.width) ** 2, 0.0)
    if t.ndim == 0:
        return float(t)
    return t


def _positions(thetas):
    """The temperature parameters of a run of steps as an array, or None
    when they are None (a cold beam)."""
    return None if thetas[0] is None else np.asarray(thetas, dtype=float)


def _element_mass(rho_a, ell):
    m = np.zeros((6, 6))
    ax = rho_a * ell / 6.0 * np.array([[2.0, 1.0], [1.0, 2.0]])
    m[np.ix_((0, 3), (0, 3))] = ax
    l2 = ell * ell
    bend = rho_a * ell / 420.0 * np.array(
        [
            [156.0, 22.0 * ell, 54.0, -13.0 * ell],
            [22.0 * ell, 4.0 * l2, 13.0 * ell, -3.0 * l2],
            [54.0, 13.0 * ell, 156.0, -22.0 * ell],
            [-13.0 * ell, -3.0 * l2, -22.0 * ell, 4.0 * l2],
        ]
    )
    m[np.ix_((1, 2, 4, 5), (1, 2, 4, 5))] = bend
    return m


class BeamModel(SecondOrderModel):
    """Finite-element beam implementing the second-order model contract.

    The temperature parameter ``theta`` is the pulse-center position ``x_c``
    in meters. With ``pulse=None`` the beam is always cold. Instances are
    immutable; cached matrices are returned read-only.
    """

    def __init__(self, properties=None, pulse=None, linear_kinematics=False):
        self.properties = properties or BeamProperties()
        self.pulse = pulse
        self.linear_kinematics = bool(linear_kinematics)

        p = self.properties
        n_el = p.n_elements
        self.n_nodes = n_el + 1
        self.node_x = np.linspace(0.0, p.length, self.n_nodes)
        self.element_length = p.length / n_el
        self.tables = kernels.ElementTables(self.element_length)

        # Gauss-point abscissae and initial-curvature slopes, per element.
        xi = self.tables.gauss_xi
        self.x_gauss = self.node_x[:-1, None] + xi[None, :] * self.element_length
        self._x_gauss_flat = self.x_gauss.ravel()
        self.z0_slope_gauss = self._z0_slope(self.x_gauss)
        self.n_full = 3 * self.n_nodes
        clamped = [0, 1, 2, self.n_full - 3, self.n_full - 2, self.n_full - 1]
        self.free_dofs = np.array(
            [i for i in range(self.n_full) if i not in clamped], dtype=int
        )
        # Only the end nodes are clamped, so the free dofs are one slice.
        self._free = slice(3, self.n_full - 3)
        assert np.array_equal(self.free_dofs, np.arange(self.n_full)[self._free])
        # Per-Gauss-point quadrature weights and slopes, element-major, for
        # the reduced kernels.
        self._wq_gauss = np.tile(self.tables.wq, n_el)
        self._z0p_flat = self.z0_slope_gauss.ravel()

        self._mass_full = self._assemble_mass_full()
        self._mass = np.ascontiguousarray(self._mass_full[self._free, self._free])
        # Kelvin-Voigt material damping: cold reference stiffness with the
        # elastic modulus replaced by the damping modulus. Under linear
        # kinematics its unconstrained band is K0 of the force K(theta) u +
        # b(theta); the constant membrane rows G = ba + z0' bw and the
        # weights wq (-EA alpha_T) give the thermal part per temperature.
        _, self._cold_band = kernels.beam_force_and_tangent(
            *self._kernel_args(np.zeros(self.dof_count), None))
        k_cold = kernels.band_to_dense(self._cold_band[:, self._free])
        self._damping = (p.damping_modulus / p.youngs_modulus) * k_cold
        self._membrane_rows = self.tables.ba + self.z0_slope_gauss[..., None] * self.tables.bw
        self._wq_thermal = self.tables.wq * (-p.axial_rigidity * p.thermal_expansion)
        # Elements in a heated window (heated_elements). Its points span
        # less than the pulse width plus three gaps between Gauss points
        # (each under 0.39 element lengths) and lie at least 0.11 element
        # lengths inside their elements, so ceil(width / length) + 2
        # elements hold them.
        self._heated_count = 0 if pulse is None else min(
            n_el, int(np.ceil(pulse.width / self.element_length)) + 2)
        for arr in (self._mass_full, self._mass, self._damping, self.node_x,
                    self.x_gauss, self._x_gauss_flat, self.z0_slope_gauss, self.free_dofs,
                    self._wq_gauss, self._cold_band, self._membrane_rows,
                    self._wq_thermal):
            arr.flags.writeable = False

    # -- geometry -----------------------------------------------------------

    def _z0_slope(self, x):
        p = self.properties
        if p.rise == 0.0:
            return np.zeros_like(x)
        return 4.0 * p.rise * (p.length - 2.0 * x) / p.length**2

    def initial_shape(self, x):
        """Undeformed centerline elevation z0(x)."""
        p = self.properties
        return 4.0 * p.rise * x * (p.length - x) / p.length**2

    @property
    def dof_count(self) -> int:
        return self.free_dofs.size

    @property
    def characteristic_length(self) -> float:
        return self.properties.length

    def node_nearest(self, x) -> int:
        return int(np.argmin(np.abs(self.node_x - x)))

    def node_dofs(self, node) -> tuple[int, int, int]:
        """Free-vector indices of (axial, transverse, rotation) at a node.

        Raises for clamped end nodes, which carry no free components.
        """
        full = 3 * node + np.arange(3)
        pos = np.searchsorted(self.free_dofs, full)
        if np.any(pos >= self.free_dofs.size) or np.any(self.free_dofs[pos] != full):
            raise ContractError(f"node {node} has constrained components")
        return tuple(int(i) for i in pos)

    # -- assembly -----------------------------------------------------------

    def _embed(self, u, full=None):
        """``u`` in a zero-padded unconstrained vector; a given ``full``
        (zero at the clamped dofs) is filled in place."""
        u = np.asarray(u, dtype=float)
        if u.shape != (self.dof_count,):
            raise ContractError(
                f"displacement has shape {u.shape}, expected ({self.dof_count},)"
            )
        if full is None:
            full = np.zeros(self.n_full)
        full[self._free] = u
        return full

    def _assemble_mass_full(self):
        p = self.properties
        m_el = _element_mass(p.density * p.area, self.element_length)
        m = np.zeros((self.n_full, self.n_full))
        for e in range(p.n_elements):
            sl = slice(3 * e, 3 * e + 6)
            m[sl, sl] += m_el
        return m

    def gauss_temperature(self, x_c):
        """Temperatures at the Gauss points, shape (n_el, 3), of the pulse
        at ``x_c``. A 1-D array of positions gives one such array per
        position, shape (len(x_c), n_el, 3), evaluated on the
        :meth:`heated_elements` alone."""
        if self.pulse is None or x_c is None:
            return np.zeros_like(self.x_gauss)
        if np.ndim(x_c):
            first, heated = self.heated_elements(x_c)
            windows = first[:, None] + np.arange(heated.shape[1])
            out = np.zeros((len(first),) + self.x_gauss.shape)
            out[np.arange(len(first))[:, None], windows] = heated
            return out
        return pulse_temperature(self.x_gauss, float(x_c), self.pulse)

    def heated_elements(self, theta):
        """The window of elements that holds every Gauss point the pulse at
        ``theta`` may heat: its first element and :meth:`gauss_temperature`
        on it, shape (k, 3); the Gauss points of every other element are
        cold. The window has the same size ``k`` for every position, and an
        array of positions gives an array of first elements and
        temperatures of shape (..., k, 3), element for element what each
        position gives alone. Only the window's points are evaluated, so
        each temperature has the bits of :meth:`gauss_temperature`."""
        if self.pulse is None or theta is None:
            return 0, np.zeros((0, 3))
        x_c = np.asarray(theta, dtype=float)
        # Points from lo on lie at or right of the pulse window's start; the
        # window of elements starts at the element of one more point on the
        # left, which absorbs the round-off of pulse_temperature's window
        # test, and holds the pulse window and one more point on its right.
        # At the beam's right end it starts further left.
        lo = self._x_gauss_flat.searchsorted(x_c - 0.5 * self.pulse.width)
        k = self._heated_count
        first = np.minimum(np.maximum(lo - 1, 0) // 3, self.properties.n_elements - k)
        t = pulse_temperature(self.x_gauss[first[..., None] + np.arange(k)],
                              x_c[..., None, None], self.pulse)
        return (int(first), t) if x_c.ndim == 0 else (first, t)

    def mass(self, reduce=True):
        return self._mass if reduce else self._mass_full

    def damping(self, theta=None):
        return self._damping

    def _kernel_args(self, u, theta):
        """The kernel arguments at displacement ``u`` and temperature
        ``theta``."""
        p = self.properties
        return (
            self._embed(u),
            self.tables,
            self.z0_slope_gauss,
            self.gauss_temperature(theta),
            p.axial_rigidity,
            p.bending_rigidity,
            p.thermal_expansion,
            not self.linear_kinematics,
        )

    def internal_force(self, u, theta):
        f = kernels.beam_force(*self._kernel_args(u, theta))
        return f[self._free]

    def tangent_stiffness(self, u, theta):
        # Band columns are matrix columns, so slicing them keeps the free
        # dofs; the corners then hold couplings to the clamped dofs, which
        # band storage ignores.
        _, k = kernels.beam_force_and_tangent(*self._kernel_args(u, theta))
        return kernels.band_to_dense(k[:, self._free])

    def force_and_tangent(self, u, theta):
        f, k = kernels.beam_force_and_tangent(*self._kernel_args(u, theta))
        return f[self._free], kernels.band_to_dense(k[:, self._free])

    @property
    def half_bandwidth(self) -> int:
        return kernels.HALF_BANDWIDTH

    def linearizations(self, thetas):
        # The Gauss-point temperatures of all thetas are evaluated here, in
        # one pass.
        if self.linear_kinematics:
            return self._linear_forces(thetas)
        t_gauss = np.broadcast_to(self.gauss_temperature(_positions(thetas)),
                                  (len(thetas),) + self.x_gauss.shape)
        p = self.properties
        free, tables, z0p = self._free, self.tables, self.z0_slope_gauss
        # Every state is embedded into one buffer: the kernel keeps nothing
        # that refers to it.
        full = np.zeros(self.n_full)

        def at(i):
            t_i = t_gauss[i]

            def linearize(u):
                f, tangent = kernels.beam_linearization(
                    self._embed(u, full), tables, z0p, t_i, p.axial_rigidity,
                    p.bending_rigidity, p.thermal_expansion, True)
                return f[free], lambda: tangent()[:, free]
            return linearize
        return at

    def _linear_forces(self, thetas):
        """``at(i) -> (u -> (K u + b, lambda: K))`` with the free-dof band
        ``K`` and the load ``b`` at ``thetas[i]``: no weak form is
        evaluated, and only the heated elements add thermal blocks. The
        loads of all thetas are built here; the bands share one workspace,
        which ``at(i)`` turns from the previous one's into this one's."""
        count = len(thetas)
        first, t_heated = self.heated_elements(_positions(thetas))
        first = np.broadcast_to(first, (count,))
        t_heated = np.broadcast_to(t_heated, (count,) + t_heated.shape[-2:])
        windows = first[:, None] + np.arange(t_heated.shape[1])
        loads, band, hold = kernels.linear_stiffness_and_loads(
            self._cold_band, self.tables, self._membrane_rows[windows],
            t_heated * self._wq_thermal, first)
        k, b = band[:, self._free], loads[:, self._free]

        def at(i):
            hold(i)
            b_i = b[i]
            return lambda u: (kernels.band_matvec(k, u, b_i), lambda: k)
        return at

    # -- reduced evaluation -------------------------------------------------

    def reduced_force_blocks(self, bases, origins):
        """Offline, for a chain of bases ``V_j`` about origins ``u_j``: the
        state-independent force blocks of each node and each cell, and the
        node rows that :meth:`reduced_linearizations` reads.

        Returns ``(nodes, cells, rows)``: ``nodes[j]`` is ``X_jj`` and
        ``cells[j]`` is ``X_jk + X_kj`` (k = j + 1). The first ``m`` rows of
        ``X_ab`` are the state-independent part ``K_const`` of the reduced
        tangent from bases ``a`` and ``b``
        (:func:`kernels.reduced_constant_tangent`); under linear kinematics
        that is the whole cold tangent, and one more row holds the cold
        force of origin ``b`` on basis ``a``
        (:func:`kernels.reduced_cold_load`). Both are bilinear in the two
        bases, so a blend of nodes j and k with weight ``w`` has the blocks
        ``(1-w)^2 X_jj + w(1-w) (X_jk + X_kj) + w^2 X_kk``, like its mass.
        ``rows`` are the Gauss-point rows of ``u_j + V_j q`` and their
        offsets (:func:`kernels.gauss_rows`) under full kinematics, and their
        :func:`kernels.reduced_thermal_rows` under linear kinematics; both
        are linear in ``(V_j, u_j)``, so a blended basis has blended rows.
        """
        p = self.properties
        ea, ei, wq = p.axial_rigidity, p.bending_rigidity, self._wq_gauss
        z0p = self._z0p_flat if self.linear_kinematics else None
        rows, offsets = [], []
        for v, u_org in zip(bases, origins):
            v = np.asarray(v, dtype=float)
            if v.ndim != 2 or v.shape[0] != self.dof_count:
                raise ContractError(
                    f"basis has shape {v.shape}, expected ({self.dof_count}, m)"
                )
            cols = np.zeros((self.n_full, v.shape[1] + 1))
            cols[:, 0] = self._embed(u_org)
            cols[self._free, 1:] = v
            r = kernels.gauss_rows(cols, self.tables)
            rows.append(np.ascontiguousarray(r[:, :, 1:]))
            offsets.append(np.ascontiguousarray(r[:, :, 0]))

        def cold(a, b):
            return kernels.reduced_cold_load(rows[a], offsets[b], wq, z0p, ea, ei)

        def blocks(a, b):
            k_const = kernels.reduced_constant_tangent(rows[a], rows[b], wq, ea, ei, z0p)
            return k_const if z0p is None else np.vstack([k_const, cold(a, b)])

        nodes = [blocks(j, j) for j in range(len(rows))]
        cells = []
        for j in range(len(rows) - 1):
            cross = blocks(j, j + 1)
            m = cross.shape[1]
            cross[:m] = cross[:m] + cross[:m].T
            if z0p is not None:
                cross[m] += cold(j + 1, j)
            cells.append(cross)
        if z0p is None:
            return nodes, cells, (rows, offsets)
        return nodes, cells, np.stack([kernels.reduced_thermal_rows(r, u, z0p)
                                       for r, u in zip(rows, offsets)])

    def reduced_linearizations(self, rows, thetas, cell, upper, weight, forces):
        """The reduced linearizations of a block of steps on a chain of
        bases: ``f = V'f(u_org + V q)`` and the state-dependent part of
        ``V'K_t V``, whose rest is the blended ``K_const``.

        Step ``i`` blends nodes ``cell[i]`` and ``upper[i]`` with weight
        ``weight[i]`` at the temperature parameter ``thetas[i]`` (``thetas``
        None: a cold beam). ``rows`` are the node rows of
        :meth:`reduced_force_blocks`, and ``forces`` holds the force
        blocks of every step's blend.

        - Under full kinematics this is ``at(i)``, step ``i``'s
          ``q -> (f, tangent)`` as :meth:`linearizations` gives the full
          one: it blends the step's rows and offsets and freezes the reduced
          weak form at the step's Gauss temperatures
          (:func:`kernels.reduced_linearization`); each state evaluates it
          once. ``forces`` is not read.
        - Under linear kinematics the force is affine, ``f + J q``, and this
          is its :class:`~thermrom.models.AffineForces`: for the whole
          block, the thermal force and tangent of each step's heated Gauss
          points (:meth:`heated_elements`) are added to its blended cold
          ones (:func:`kernels.reduced_thermal_linearization`). No weak form
          is evaluated.
        """
        count = cell.size
        if not self.linear_kinematics:
            t_gauss = np.broadcast_to(self.gauss_temperature(thetas),
                                      (count,) + self.x_gauss.shape)
            p, (gauss_rows, offsets) = self.properties, rows
            wq, z0p = self._wq_gauss, self._z0p_flat

            def at(i):
                j, k, w = cell[i], upper[i], float(weight[i])
                return kernels.reduced_linearization(
                    chain_blend(gauss_rows[j], gauss_rows[k], w),
                    chain_blend(offsets[j], offsets[k], w), wq, z0p, t_gauss[i].ravel(),
                    p.axial_rigidity, p.bending_rigidity, p.thermal_expansion)
            return at

        first, t_heated = self.heated_elements(thetas)
        first = np.broadcast_to(first, (count,))
        t_heated = np.broadcast_to(t_heated, (count,) + t_heated.shape[-2:])
        # The rows hold three Gauss points per element; only those of each
        # step's heated window are gathered (by np.take on the nodes' rows
        # end to end, cheaper than indexing by node and point) and blended.
        points = 3 * first[:, None] + np.arange(3 * t_heated.shape[1])
        flat = rows.reshape(-1, rows.shape[-1])
        heated = np.take(flat, cell[:, None] * rows.shape[1] + points, axis=0)
        if np.any(weight):
            heated = chain_blend(heated, np.take(flat, upper[:, None] * rows.shape[1] + points,
                                                 axis=0),
                                 weight[:, None, None], overwrite=True)
        m = forces.shape[-1]
        return AffineForces(*kernels.reduced_thermal_linearization(
            heated, (t_heated * self._wq_thermal).reshape(count, -1), forces[:, m],
            forces[:, :m]))

    def strain_energy(self, u, theta):
        return kernels.beam_strain_energy(*self._kernel_args(u, theta))

    def uniform_transverse_load(self, density, reduce=True):
        """Consistent nodal force of a uniform transverse line load [N/m]."""
        if not np.isfinite(density):
            raise ContractError("load density must be finite")
        ell = self.element_length
        f_el = density * np.array(
            [0.0, ell / 2.0, ell**2 / 12.0, 0.0, ell / 2.0, -(ell**2) / 12.0]
        )
        f = np.zeros(self.n_full)
        for e in range(self.properties.n_elements):
            f[3 * e: 3 * e + 6] += f_el
        return f[self._free] if reduce else f
