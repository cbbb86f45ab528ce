"""Element kernels for the planar thermo-elastic beam.

Kinematics: 2-node element, linear axial / Hermite-cubic transverse shape
functions, membrane strain ``e = u' + z0'*w' + 0.5*(w')**2`` (the quadratic
term and its tangent are dropped in linear-kinematics mode, while the
thermal prestress contribution to the geometric stiffness is kept), axial
force ``N = EA*(e - alpha_T*T)``, bending moment ``EI*w''``. Three-point
Gauss quadrature per element.

The weak form per Gauss point: with axial-strain, slope and curvature rows
``A``, ``W``, ``B`` (gradients ``u' = A u``, ``w' = W u``, ``w'' = B u``),
quadrature weights ``wq`` and the membrane row ``G = A + s W`` of slope
``s = z0' + nl*w'``,

    f   = G'(wq N) + W'(wq (1-nl) N_T w') + B'(wq EI w'')
    K_t = G' diag(wq EA) G + W' diag(wq N_geo) W + B' diag(wq EI) B

with ``N_T = -EA alpha_T T`` and ``N_geo = nl N + (1-nl) N_T``. Both
models evaluate it with numpy, on different rows:

* full: the rows are the element shape rows ``ba``, ``bw_g``, ``bb_g``,
  batched over elements and Gauss points; the element vectors and blocks
  are added into the unconstrained force and the banded tangent;
* reduced: for ``u = u_org + V q`` the gradients are linear in ``q``.
  Offline, :func:`gauss_rows` applies the shape rows to every element block
  of ``V`` and ``u_org``, giving rows of shape ``(3*n_el, m)`` and their
  offsets. Online, the Galerkin force ``V'f`` and tangent ``V'K_t V`` come
  from these rows alone, with the force as
  ``A'(wq N) + W'(s wq N + wq (1-nl) N_T w') + B'(wq EI w'')``. Nothing of
  size ``n`` is assembled or projected.

The reduced tangent is split so that no ``G`` is formed online. With
``G = A + s W``,

    G' diag(wq EA) G = A' diag(wq EA) A + X + X' + W' diag(wq EA s^2) W,
    X = A' diag(wq EA s) W,

so ``V'K_t V = K_const + X + X' + W' diag(wq (EA s^2 + N_geo)) W`` with the
state-independent ``K_const = A' diag(wq EA) A + B' diag(wq EI) B``
(:func:`reduced_constant_tangent`). Its per-basis blocks are built once,
offline, and blended like the mass; only the rest is evaluated per Newton
iteration, as one product of the stacked rows ``[A; W]``.

Each path has one entry point. :func:`beam_linearization` evaluates the
weak form once and returns the force with a callable that builds the
tangent from the same ``G`` and ``N_geo``; :func:`beam_force` and
:func:`beam_force_and_tangent` wrap it. Under full kinematics,
:func:`reduced_linearization` freezes what one basis and one temperature
fix (``N_T`` and the weighted rigidities) and returns ``linearize(q)``,
which evaluates the Gauss-point expressions of :func:`_weak_form` once per
state and returns the force with a callable for the state-dependent part
of the tangent. Both paths
take the membrane strain from :func:`_strain`; the reduced path computes
the slope and axial force from it with ``N_T`` frozen, in place of calling
:func:`_weak_form`, and must keep the same expressions.

Under linear kinematics ``G = A + z0' W`` does not depend on the state
and ``N_geo = N_T``, so the force at a frozen temperature is
``K(theta) u + b(theta)`` with

    K(theta) = K0 + K_T(theta),  K_T = W' diag(wq N_T) W,  b = G'(wq N_T),

where ``K0 = G' diag(wq EA) G + B' diag(wq EI) B`` is the cold tangent,
and ``N_T`` vanishes outside the pulse window. The full model keeps
``K0``, the band of its cold tangent, from the set-up and adds the thermal
blocks and load of the heated elements only, for a block of steps at once
(:func:`linear_stiffness_and_loads`: the loads of every step, and one band
workspace that each step turns from the last step's band into its own);
its force is then one BLAS ``gbmv`` with no weak form
(``BeamModel.linearizations``). The reduced model splits
its force on a basis the same way,

    V'f(u_org + V q) = f_cold + f_T + (K_cold + S_T) q,

with the cold parts ``K_cold = G' diag(wq EA) G + B' diag(wq EI) B``
(:func:`reduced_constant_tangent`) and ``f_cold = G'(wq EA e_org) +
B'(wq EI w''_org)`` (:func:`reduced_cold_load`), which are bilinear in
the rows and offsets of the basis and so are built per basis node and
cell, offline (``BeamModel.reduced_force_blocks``), and blended like the
mass. Only the thermal part, ``S_T = W' diag(c) W`` and
``f_T = G'c + W'(c w'_org)`` with ``c = wq N_T``, depends on the step; it
is evaluated for a block of steps at once, from the rows of each step's
heated Gauss points (:func:`reduced_thermal_linearization`, called by
``BeamModel.reduced_linearizations``). Full kinematics, and the
single evaluations of :func:`beam_force` and :func:`beam_force_and_tangent`
that the set-up makes, keep the weak form.

The full tangent is returned in LAPACK band storage. An element couples
the six dofs of its two nodes, so ``K[i, j] = 0`` for ``|i - j| > 5``
and the half-bandwidth is :data:`HALF_BANDWIDTH` ``p = 5``. The band
``ab`` has shape ``(2p+1, n)`` with ``ab[p + i - j, j] = K[i, j]``:
column ``j`` of ``ab`` holds column ``j`` of ``K`` from row ``j - p`` down
to ``j + p`` and the main diagonal is row ``p``. The corner entries, whose
row ``i`` falls outside ``[0, n)``, are zero here but are read neither by
LAPACK nor by :func:`band_to_dense`, so slicing band columns restricts the
matrix to a contiguous range of dofs. :func:`band_to_dense` and
:func:`dense_to_band` convert between the two layouts,
:func:`band_matvec` multiplies with a band (BLAS ``gbmv``), and
``scipy.linalg.solve_banded((p, p), ab, b)`` solves with it.

The element vectors and blocks are added in two passes, even elements
first, then odd elements. Within a pass no two elements share a dof, so
each pass is one in-place fancy add, ``flat[index] += blocks``, with no
index collisions. The flat positions of every element entry in the force
vector and in the C-ordered band, split by element parity, depend on the
element count alone; they are computed once per count and kept read-only.
On a mesh of 2-node, 3-dof elements every force and tangent entry receives
at most two element contributions, and ``0 + a + b`` equals ``0 + b + a``
exactly, so the order of the scatter does not change a bit of the result.

The element arithmetic is another matter and stays fixed: one
matrix-vector product per gradient row, the bending block summed per Gauss
point, the Gauss sum in order. The scenario set-up amplifies round-off in
the full force and tangent by many orders of magnitude, through the
finite-difference modal derivatives and the argmax that picks mode signs;
a change in their last bits moves the arch's ``E_uniform`` by up to 1e-4
relative.
"""

from __future__ import annotations

import functools

import numpy as np
from scipy.linalg.blas import dgbmv

__all__ = [
    "HALF_BANDWIDTH",
    "ElementTables",
    "get_backend",
    "band_to_dense",
    "dense_to_band",
    "band_matvec",
    "beam_linearization",
    "beam_force",
    "beam_force_and_tangent",
    "linear_stiffness_and_loads",
    "beam_strain_energy",
    "gauss_rows",
    "reduced_linearization",
    "reduced_constant_tangent",
    "reduced_cold_load",
    "reduced_thermal_rows",
    "reduced_thermal_linearization",
]

# 3-point Gauss rule on the unit interval [0, 1].
_GAUSS_XI = np.array([0.5 - np.sqrt(15.0) / 10.0, 0.5, 0.5 + np.sqrt(15.0) / 10.0])
_GAUSS_W = np.array([5.0 / 18.0, 8.0 / 18.0, 5.0 / 18.0])

#: Half-bandwidth of the full tangent: an element couples dofs ``3e .. 3e+5``.
HALF_BANDWIDTH = 5
# Band row of entry (a, b) of a 6 x 6 element block.
_BAND_ROW = HALF_BANDWIDTH + np.arange(6)[:, None] - np.arange(6)[None, :]


def get_backend() -> str:
    """Name of the kernel implementation; there is one, vectorised numpy."""
    return "numpy"


class ElementTables:
    """Precomputed shape-function tables for a uniform mesh.

    Read-only float64 arrays: ``ba`` (6,) axial strain row, ``bw`` (3, 6)
    transverse slope rows per Gauss point, ``bb`` (3, 6) curvature rows,
    ``wq`` (3,) quadrature weights scaled by the element length, and the
    per-Gauss-point outer products ``bwbw`` and ``bbbb`` (3, 6, 6) of the
    geometric and bending tangent blocks.
    """

    def __init__(self, length: float):
        ell = float(length)
        if ell <= 0.0:
            raise ValueError("element length must be positive")
        self.ba = np.array([-1.0 / ell, 0.0, 0.0, 1.0 / ell, 0.0, 0.0])
        bw = np.zeros((3, 6))
        bb = np.zeros((3, 6))
        for g, xi in enumerate(_GAUSS_XI):
            bw[g] = [
                0.0,
                (-6.0 * xi + 6.0 * xi**2) / ell,
                1.0 - 4.0 * xi + 3.0 * xi**2,
                0.0,
                (6.0 * xi - 6.0 * xi**2) / ell,
                -2.0 * xi + 3.0 * xi**2,
            ]
            bb[g] = [
                0.0,
                (-6.0 + 12.0 * xi) / ell**2,
                (-4.0 + 6.0 * xi) / ell,
                0.0,
                (6.0 - 12.0 * xi) / ell**2,
                (-2.0 + 6.0 * xi) / ell,
            ]
        self.bw = bw
        self.bb = bb
        self.wq = _GAUSS_W * ell
        self.gauss_xi = _GAUSS_XI.copy()
        self.bwbw = bw[:, :, None] * bw[:, None, :]
        self.bbbb = bb[:, :, None] * bb[:, None, :]
        for arr in (self.ba, self.bw, self.bb, self.wq, self.gauss_xi, self.bwbw,
                    self.bbbb):
            arr.flags.writeable = False


# ---------------------------------------------------------------------------
# the Gauss-point weak form, shared by the full and reduced kernels
# ---------------------------------------------------------------------------

def _strain(up, wp, z0p, nl):
    """Membrane strain ``u' + z0' w' + nl w'^2 / 2``. Linear kinematics
    skips the quadratic term rather than adding its zeros, which gives the
    same values (up to the sign of a zero strain) in two array passes."""
    strain = up + z0p * wp
    if nl:
        strain += 0.5 * nl * wp * wp
    return strain


def _membrane(up, wp, z0p, t_g, ea, a_t, nl):
    """Membrane strain and thermal axial force ``N_T``."""
    return _strain(up, wp, z0p, nl), -ea * a_t * t_g


def _weak_form(up, wp, wpp, z0p, t_g, ea, ei, a_t, nl):
    """The weak form at the Gauss points from the gradients ``(u', w', w'')``.

    Returns the slope ``s = z0' + nl w'`` of the membrane row ``G``, the
    resultants ``(N, (1-nl) N_T w', EI w'')`` that the rows ``G``, ``W``
    and ``B`` carry in the force, and ``N_geo``, the weight of ``W'W`` in
    the tangent (that of ``G'G`` is ``EA``, of ``B'B`` ``EI``).
    """
    em, nt = _membrane(up, wp, z0p, t_g, ea, a_t, nl)
    nax = ea * em + nt
    ngeo = nl * nax + (1.0 - nl) * nt
    return z0p + nl * wp, (nax, (1.0 - nl) * nt * wp, ei * wpp), ngeo


# ---------------------------------------------------------------------------
# band storage
# ---------------------------------------------------------------------------

def _diagonals(p, n):
    """For each band row ``r``: the band columns it holds inside an
    ``n x n`` matrix, and the flat positions of that diagonal
    (``i - j = r - p``) in a C-ordered ``n x n`` array, both as slices.
    Rows whose diagonal lies outside the matrix (``|r - p| >= n``) are
    skipped."""
    for r in range(2 * p + 1):
        d = r - p
        j0, j1 = max(0, -d), min(n, n - d)
        if j0 < j1:
            yield r, slice(j0, j1), slice((j0 + d) * n + j0, (j1 + d) * n + j1, n + 1)


def band_to_dense(ab):
    """The square matrix held in band storage ``ab`` (corners ignored)."""
    p, n = ab.shape[0] // 2, ab.shape[1]
    a = np.zeros((n, n))
    flat = a.reshape(-1)
    for r, cols, diag in _diagonals(p, n):
        flat[diag] = ab[r, cols]
    return a


def dense_to_band(a, p):
    """Band storage with half-bandwidth ``p`` of the square matrix ``a``;
    entries further than ``p`` from the diagonal are dropped."""
    n = a.shape[0]
    ab = np.zeros((2 * p + 1, n))
    flat = np.ravel(a)
    for r, cols, diag in _diagonals(p, n):
        ab[r, cols] = flat[diag]
    return ab


def band_matvec(ab, x, y=None):
    """``A x``, or ``A x + y`` without modifying ``y``, of the square matrix
    held in band storage ``ab``, by BLAS ``gbmv``. scipy's ``gbmv`` takes
    only bands with ``n >= 2p + 1``; a smaller band, such as a dense
    matrix's (``p = n - 1``), gets the dense product."""
    p, n = ab.shape[0] // 2, ab.shape[1]
    if n < 2 * p + 1:
        ax = band_to_dense(ab) @ x
        return ax if y is None else y + ax
    if y is None:
        return dgbmv(n, n, p, p, 1.0, ab, x)
    return dgbmv(n, n, p, p, 1.0, ab, x, beta=1.0, y=y)


# ---------------------------------------------------------------------------
# full model: element batches added into unconstrained vectors and bands
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def _dof_index(n_el: int) -> np.ndarray:
    """Unconstrained dofs ``3e .. 3e+5`` of every element, (n_el, 6), read-only."""
    index = 3 * np.arange(n_el)[:, None] + np.arange(6)[None, :]
    index.flags.writeable = False
    return index


@functools.lru_cache(maxsize=None)
def _scatter_index(n_el: int):
    """Flat positions of the element entries, each as ``(even elements, odd
    elements)``, read-only: of the force entries in the unconstrained force
    vector, and of the tangent entries ``(a, b)`` in the C-ordered band
    ``(2p+1, n)``, where entry ``(a, b)`` of element ``e`` is band row
    ``p + a - b``, column ``3e + b``."""
    dofs = _dof_index(n_el)
    band = _BAND_ROW * (3 * n_el + 3) + dofs[:, None, :]

    def by_parity(index):
        parts = tuple(np.ascontiguousarray(index[first::2]) for first in (0, 1))
        for part in parts:
            part.flags.writeable = False
        return parts

    return by_parity(dofs), by_parity(band)


def _element_state(u_full, tables):
    """``(u', w', w'')`` at the Gauss points, shapes ``(n_el, 1)``,
    ``(n_el, 3)`` and ``(n_el, 3)``. One matrix-vector product per row: a
    matrix-matrix product rounds differently."""
    u_el = u_full[_dof_index(u_full.shape[0] // 3 - 1)]
    wp, wpp = np.empty((2, u_el.shape[0], 3))
    for g in range(3):
        wp[:, g] = u_el @ tables.bw[g]
        wpp[:, g] = u_el @ tables.bb[g]
    return (u_el @ tables.ba)[:, None], wp, wpp


def _element_weak_form(u_full, tables, z0p, t_gauss, ea, ei, alpha_t, nonlinear):
    """The membrane rows ``G`` (n_el, 3, 6), the force resultants and
    ``N_geo`` at every Gauss point."""
    up, wp, wpp = _element_state(u_full, tables)
    slope, resultants, ngeo = _weak_form(up, wp, wpp, z0p, t_gauss, ea, ei, alpha_t,
                                         float(nonlinear))
    return tables.ba + slope[..., None] * tables.bw, resultants, ngeo


def _element_force(tables, gmat, resultants):
    """Element force vectors ``sum_g wq (G N + W (1-nl) N_T w' + B EI w'')``."""
    nax, lin, mb = (r[..., None] for r in resultants)
    return (tables.wq[:, None] * (gmat * nax + lin * tables.bw + mb * tables.bb)).sum(axis=1)


def _element_tangent(tables, gmat, ngeo, ea, ei):
    """Element tangent blocks (n_el, 6, 6) from the weak form's ``G`` and
    ``N_geo``."""
    return (tables.wq[:, None, None] * (
        ea * gmat[..., :, None] * gmat[..., None, :]
        + ngeo[..., None, None] * tables.bwbw
        + ei * tables.bbbb
    )).sum(axis=1)


def _add_element_blocks(out, index, blocks):
    """Add the blocks of every element into ``out`` at the flat positions
    ``index`` of :func:`_scatter_index`: even elements, then odd elements.
    The positions of one pass are distinct, so each pass is one fancy
    add."""
    flat = out.reshape(-1)
    for parity, part in enumerate(index):
        flat[part] += blocks[parity::2]
    return out


def beam_linearization(u_full, tables, z0p, t_gauss, ea, ei, alpha_t, nonlinear=True):
    """Internal force, unconstrained, and a callable that returns its
    consistent tangent in band storage of half-bandwidth
    :data:`HALF_BANDWIDTH`. The weak form is evaluated once, here; the
    tangent is built from it only when called."""
    gmat, resultants, ngeo = _element_weak_form(u_full, tables, z0p, t_gauss, ea, ei,
                                                alpha_t, nonlinear)
    n = u_full.shape[0]
    force_index, band_index = _scatter_index(n // 3 - 1)

    def tangent():
        return _add_element_blocks(np.zeros((2 * HALF_BANDWIDTH + 1, n)), band_index,
                                   _element_tangent(tables, gmat, ngeo, ea, ei))

    return (_add_element_blocks(np.zeros(n), force_index,
                                _element_force(tables, gmat, resultants)), tangent)


def beam_force(u_full, tables, z0p, t_gauss, ea, ei, alpha_t, nonlinear=True):
    """Unconstrained internal force vector (thermal load included)."""
    return beam_linearization(u_full, tables, z0p, t_gauss, ea, ei, alpha_t, nonlinear)[0]


def beam_force_and_tangent(u_full, tables, z0p, t_gauss, ea, ei, alpha_t, nonlinear=True):
    """Internal force and its consistent tangent, both unconstrained; the
    tangent in band storage of half-bandwidth :data:`HALF_BANDWIDTH`."""
    f, tangent = beam_linearization(u_full, tables, z0p, t_gauss, ea, ei, alpha_t,
                                    nonlinear)
    return f, tangent()


def linear_stiffness_and_loads(cold_band, tables, gmat, wq_nt, first):
    """Under linear kinematics, for a block of steps: the thermal loads
    ``G'(wq N_T)``, unconstrained, one row per step, and the tangent bands
    ``K0 + W' diag(wq N_T) W`` of the steps, one at a time in one workspace.

    Step ``i`` heats the ``k`` elements ``first[i], first[i] + 1, ...``,
    whose constant membrane rows ``G = ba + z0' bw`` and ``wq N_T`` are
    ``gmat[i]`` (k, 3, 6) and ``wq_nt[i]`` (k, 3); the other elements are
    cold. Returns ``(loads, band, hold)``: ``band`` is the workspace, a
    Fortran-ordered ``(2p+1, n)`` band that starts as the cold band ``K0``
    (which is not modified), and ``hold(i)`` makes it step ``i``'s band: it
    restores the columns of the elements it held from ``K0`` and adds step
    ``i``'s blocks. Every entry sums its element contributions in the order
    of :func:`_add_element_blocks`, even elements first."""
    count, k = wq_nt.shape[:2]
    n = cold_band.shape[1]
    n_el = n // 3 - 1
    steps = np.arange(count)[:, None]
    elements = first[:, None] + np.arange(k)
    dofs = _dof_index(n_el)[elements]
    element_loads = np.matmul(wq_nt[..., None, :], gmat)[..., 0, :]
    # The loads of all steps in two fancy adds, even elements then odd: in
    # a pass no two entries share a position, in one row or across rows.
    loads = np.zeros((count, n))
    flat = loads.reshape(-1)
    positions = n * steps[..., None] + dofs
    for parity in (0, 1):
        mine = elements % 2 == parity
        flat[positions[mine]] += element_loads[mine]
    # Per step, the thermal entries and their flat positions in the band's
    # C-ordered transpose (a Fortran-ordered band), even elements first;
    # the first `even` of them belong to even elements.
    order = np.argsort(elements % 2, axis=1, kind="stable")
    thermal = (wq_nt[steps, order].reshape(-1, 3) @ tables.bwbw.reshape(3, 36)).reshape(count, -1)
    band_positions = (_BAND_ROW + (2 * HALF_BANDWIDTH + 1) * dofs[steps, order][..., None, :]
                      ).reshape(count, -1)
    even = 36 * np.count_nonzero(elements % 2 == 0, axis=1)
    band_t = cold_band.T.copy()
    flat_t = band_t.reshape(-1)
    held = [0]

    def hold(i):
        lo, hi = 3 * held[0], 3 * (held[0] + k + 1)
        band_t[lo:hi] = cold_band.T[lo:hi]
        split = even[i]
        flat_t[band_positions[i, :split]] += thermal[i, :split]
        flat_t[band_positions[i, split:]] += thermal[i, split:]
        held[0] = first[i]

    return loads, band_t.T, hold


def beam_strain_energy(u_full, tables, z0p, t_gauss, ea, ei, alpha_t, nonlinear=True):
    """Potential whose gradient is :func:`beam_force` (frozen temperature)."""
    nl = float(nonlinear)
    up, wp, wpp = _element_state(u_full, tables)
    em, nt = _membrane(up, wp, z0p, t_gauss, ea, alpha_t, nl)
    return float(np.sum(tables.wq * (
        0.5 * ea * em * em + nt * em + (1.0 - nl) * 0.5 * nt * wp * wp
        + 0.5 * ei * wpp * wpp)))


# ---------------------------------------------------------------------------
# reduced model: Gauss-point rows of a basis
# ---------------------------------------------------------------------------

def gauss_rows(cols, tables):
    """Gauss-point gradient rows of unconstrained columns ``cols`` (n, k).

    Returns shape ``(3, 3*n_el, k)``: the axial strain ``ba u_e``, slope
    ``bw_g u_e`` and curvature ``bb_g u_e`` of every column at every Gauss
    point, element-major (row ``3*e + g``).
    """
    n_el = (cols.shape[0] - 3) // 3
    c_el = cols[_dof_index(n_el)]
    out = np.empty((3, n_el, 3, cols.shape[1]))
    out[0] = (tables.ba @ c_el)[:, None, :]
    out[1] = tables.bw @ c_el
    out[2] = tables.bb @ c_el
    return out.reshape(3, 3 * n_el, cols.shape[1])


def _reduced_weak_form(q, flat, offset, z0p, n_t, ea):
    """Curvature ``w''``, the membrane slope ``s`` and the axial force
    ``N`` at the Gauss points of ``u = u_org + V q``: the expressions of
    :func:`_weak_form` under full kinematics with the thermal force ``N_T``
    frozen."""
    up, wp, wpp = (flat @ q).reshape(3, -1) + offset
    return wpp, z0p + wp, ea * _strain(up, wp, z0p, 1.0) + n_t


def reduced_linearization(rows, offset, wq, z0p, t_gauss, ea, ei, alpha_t):
    """Under full kinematics: freeze the reduced weak form of one basis and
    temperature, from the rows and offsets of :func:`gauss_rows`, and
    return ``linearize(q)``.

    ``linearize(q)`` evaluates the weak form once and returns the Galerkin
    internal force ``V'f(u_org + V q)`` with a callable for the
    state-dependent part of the Galerkin tangent ``V'K_t V``,
    ``S = X + X' + W' diag(wq (EA s^2 + N)) W`` with
    ``X = A' diag(wq EA s) W``; the rest of the tangent is the basis's
    :func:`reduced_constant_tangent`. ``wq``, ``z0p`` and ``t_gauss`` are
    given per Gauss point, flattened element-major.
    """
    ng, m = rows.shape[1:]
    flat = rows.reshape(-1, m)
    n_t = -ea * alpha_t * t_gauss
    wq_ea, wq_ei = wq * ea, wq * ei

    def linearize(q):
        wpp, slope, nax = _reduced_weak_form(q, flat, offset, z0p, n_t, ea)
        # A'(wq N) + W'(s wq N) + B'(wq EI w'') as one product.
        coef = np.empty((3, ng))
        np.multiply(wq, nax, out=coef[0])
        np.multiply(slope, coef[0], out=coef[1])
        np.multiply(wq_ei, wpp, out=coef[2])

        def tangent():
            # [A; W]' [diag(wq EA s) W; diag(wq (EA s^2 + N) / 2) W] is X
            # plus half the W'W term; adding its transpose completes both.
            weights = np.empty((2, ng))
            np.multiply(wq_ea, slope, out=weights[0])
            np.multiply(weights[0], slope, out=weights[1])
            weights[1] += coef[0]
            weights[1] *= 0.5
            half = flat[:2 * ng].T @ (weights[:, :, None] * rows[1]).reshape(2 * ng, m)
            return half + half.T

        return flat.T @ coef.reshape(-1), tangent

    return linearize


def _membrane_rows(rows, z0p):
    """Under linear kinematics the membrane rows ``G = A + z0' W``, which
    do not depend on the state."""
    return rows[0] + z0p[:, None] * rows[1]


def reduced_constant_tangent(rows_a, rows_b, wq, ea, ei, z0p=None):
    """The part of the Galerkin tangent that does not depend on the state,
    from the rows of two bases. Under full kinematics (``z0p`` None) it is
    ``A_a' diag(wq EA) A_b + B_a' diag(wq EI) B_b``, which with
    ``rows_a = rows_b`` completes the tangent of
    :func:`reduced_linearization`. Under linear kinematics, with the
    slopes ``z0p`` per Gauss point, it is the cold tangent
    ``G_a' diag(wq EA) G_b + B_a' diag(wq EI) B_b``."""
    mem_a, mem_b = ((rows_a[0], rows_b[0]) if z0p is None else
                    (_membrane_rows(rows_a, z0p), _membrane_rows(rows_b, z0p)))
    return (mem_a.T @ ((wq * ea)[:, None] * mem_b)
            + rows_a[2].T @ ((wq * ei)[:, None] * rows_b[2]))


def reduced_cold_load(rows_a, offset_b, wq, z0p, ea, ei):
    """Under linear kinematics: ``G_a'(wq EA e_b) + B_a'(wq EI w''_b)``, the
    cold force of the origin of basis ``b`` projected on basis ``a``, with
    the origin's membrane strain ``e_b = u'_b + z0' w'_b``."""
    strain = offset_b[0] + z0p * offset_b[1]
    return (_membrane_rows(rows_a, z0p).T @ (wq * ea * strain)
            + rows_a[2].T @ (wq * ei * offset_b[2]))


def reduced_thermal_rows(rows, offset, z0p):
    """Under linear kinematics: per Gauss point, the membrane row
    ``G = A + z0' W``, the slope row ``W``, a one and the origin's slope
    ``w'``, as one array of shape ``(3*n_el, 2m + 2)``, which
    :func:`reduced_thermal_linearization` takes at the heated points."""
    ones = np.ones((rows.shape[1], 1))
    return np.hstack([_membrane_rows(rows, z0p), rows[1], ones, offset[1][:, None]])


def reduced_thermal_linearization(rows, wq_nt, f_cold, k_cold):
    """Under linear kinematics, for a block of steps: the reduced force
    ``f = f_cold + f_T`` of ``u = u_org + V q`` at ``q = 0``, its tangent
    ``J = k_cold + S_T`` and the thermal part ``S_T``, from the cold
    tangent and force of each step's basis and its
    :func:`reduced_thermal_rows` at the step's heated Gauss points, where
    ``c = wq N_T``:

        S_T = W' diag(c) W,  f_T = G'c + W'(c w'_org).

    ``rows`` is (B, p, 2m + 2) and ``wq_nt`` (B, p) at p heated points,
    ``f_cold`` (B, m) and ``k_cold`` (B, m, m); returns ``(f, J, S_T)``,
    one row per step."""
    m = k_cold.shape[-1]
    # [G | W | 1 | w']' diag(c) [W | 1] holds W'cW, G'c and W'(c w').
    sums = np.matmul(rows.swapaxes(-1, -2), wq_nt[..., None] * rows[..., m:2 * m + 1])
    s_t = sums[..., m:2 * m, :m]
    return f_cold + sums[..., :m, m] + sums[..., 2 * m + 1, :m], k_cold + s_t, s_t
