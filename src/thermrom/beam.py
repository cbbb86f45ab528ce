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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import ContractError
from .models import SecondOrderModel

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

    n_gauss = 3

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
        # elastic modulus replaced by the damping modulus.
        k_cold = self.tangent_stiffness(np.zeros(self.dof_count), None)
        self._damping = (p.damping_modulus / p.youngs_modulus) * k_cold
        for arr in (self._mass_full, self._mass, self._damping, self.node_x,
                    self.x_gauss, self.z0_slope_gauss, self.free_dofs,
                    self._wq_gauss):
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
        if self.pulse is None or x_c is None:
            return np.zeros_like(self.x_gauss)
        return pulse_temperature(self.x_gauss, float(x_c), self.pulse)

    def mass(self, reduce=True):
        return self._mass if reduce else self._mass_full

    def damping(self, theta=None):
        return self._damping

    def _kernel_args(self, u, theta):
        return (self._embed(u), *self._frozen_args(theta))

    def _frozen_args(self, theta):
        """The kernel arguments after the displacement, at temperature
        ``theta``."""
        p = self.properties
        return (
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

    def linearization(self, theta):
        # The Gauss-point temperatures are evaluated here, once per theta,
        # and every state of the step is embedded into one buffer: the
        # kernel keeps nothing that refers to it.
        args = self._frozen_args(theta)
        free = self._free
        full = np.zeros(self.n_full)

        def linearize(u):
            f, tangent = kernels.beam_linearization(self._embed(u, full), *args)
            return f[free], lambda: tangent()[:, free]
        return linearize

    # -- reduced evaluation -------------------------------------------------

    def reduced_rows(self, v, u_org):
        """Gauss-point rows of ``u = u_org + V q`` for the reduced kernels.

        Returns ``(rows, offset)`` of shapes ``(3, 3*n_el, m)`` and
        ``(3, 3*n_el)``: ``rows[k] @ q + offset[k]`` is the axial strain
        (k = 0), slope (1) and curvature (2) at every Gauss point. Both are
        linear in ``(V, u_org)``, so the rows of an interpolated basis are
        the interpolated rows.
        """
        v = np.asarray(v, dtype=float)
        if v.ndim != 2 or v.shape[0] != self.dof_count:
            raise ContractError(
                f"basis has shape {v.shape}, expected ({self.dof_count}, m)"
            )
        cols = np.zeros((self.n_full, v.shape[1] + 1))
        cols[:, 0] = self._embed(u_org)
        cols[self._free, 1:] = v
        r = kernels.gauss_rows(cols, self.tables)
        return np.ascontiguousarray(r[:, :, 1:]), np.ascontiguousarray(r[:, :, 0])

    def constant_block(self, rows_a, rows_b):
        """``A_a' diag(wq EA) A_b + B_a' diag(wq EI) B_b`` from the axial and
        curvature rows of two bases: the state-independent part of the
        reduced tangent (:func:`kernels.reduced_constant_tangent`)."""
        p = self.properties
        return kernels.reduced_constant_tangent(rows_a, rows_b, self._wq_gauss,
                                                p.axial_rigidity, p.bending_rigidity)

    def reduced_linearization(self, rows, offset, t_gauss):
        """A callable ``q -> (V'f(u_org + V q), tangent)`` at the Gauss
        temperatures ``t_gauss`` (see :meth:`gauss_temperature`), from
        :meth:`reduced_rows`. ``tangent()`` returns the state-dependent part
        of ``V'K_t V``; :meth:`constant_block` of the basis is the rest. The
        kernel arguments are frozen here, once per basis and temperature."""
        p = self.properties
        return kernels.reduced_linearization(
            rows, offset, self._wq_gauss, self._z0p_flat, t_gauss.ravel(),
            p.axial_rigidity, p.bending_rigidity, p.thermal_expansion,
            nonlinear=not self.linear_kinematics)

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
