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
:func:`beam_force_and_tangent` wrap it. :func:`reduced_linearization`
freezes what one basis and one temperature fix (``N_T`` and the weighted
rigidities) and returns ``linearize(q)``, which evaluates the Gauss-point
expressions of :func:`_weak_form` once per state and returns the force
with a callable for the state-dependent part of the tangent. Both paths
take the membrane strain from :func:`_strain`; the reduced path computes
the slope and axial force from it with ``N_T`` frozen, in place of calling
:func:`_weak_form`, and must keep the same expressions.

The full tangent is returned in LAPACK band storage. An element couples
the six dofs of its two nodes, so ``K[i, j] = 0`` for ``|i - j| > 5``
and the half-bandwidth is :data:`HALF_BANDWIDTH` ``p = 5``. The band
``ab`` has shape ``(2p+1, n)`` with ``ab[p + i - j, j] = K[i, j]``:
column ``j`` of ``ab`` holds column ``j`` of ``K`` from row ``j - p`` down
to ``j + p`` and the main diagonal is row ``p``. The corner entries, whose
row ``i`` falls outside ``[0, n)``, are zero here but are read neither by
LAPACK nor by :func:`band_to_dense`, so slicing band columns restricts the
matrix to a contiguous range of dofs. :func:`band_to_dense` and
:func:`dense_to_band` convert between the two layouts, and
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

__all__ = [
    "HALF_BANDWIDTH",
    "ElementTables",
    "get_backend",
    "band_to_dense",
    "dense_to_band",
    "beam_linearization",
    "beam_force",
    "beam_force_and_tangent",
    "beam_strain_energy",
    "gauss_rows",
    "reduced_linearization",
    "reduced_constant_tangent",
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
        self.length = ell
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
    """Add per-element ``blocks`` into ``out`` at the flat positions
    ``index`` of :func:`_scatter_index`: even elements, then odd elements.
    The positions of one pass are distinct, so each pass is one fancy add."""
    flat = out.reshape(-1)
    for first, part in enumerate(index):
        flat[part] += blocks[first::2]
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


def _reduced_weak_form(q, flat, offset, z0p, n_t, ea, nl):
    """Slope and curvature ``(w', w'')``, the membrane slope ``s`` and the
    axial force ``N`` at the Gauss points of ``u = u_org + V q``: the
    expressions of :func:`_weak_form` with the thermal force ``N_T``
    frozen."""
    up, wp, wpp = (flat @ q).reshape(3, -1) + offset
    slope = z0p + wp if nl else z0p
    return wp, wpp, slope, ea * _strain(up, wp, z0p, nl) + n_t


def reduced_linearization(rows, offset, wq, z0p, t_gauss, ea, ei, alpha_t,
                          nonlinear=True):
    """Freeze the reduced weak form of one basis and temperature, from the
    rows and offsets of :func:`gauss_rows`, and return ``linearize(q)``.

    ``linearize(q)`` evaluates the weak form once and returns the Galerkin
    internal force ``V'f(u_org + V q)`` with a callable for the
    state-dependent part of the Galerkin tangent ``V'K_t V``,
    ``X + X' + W' diag(wq (EA s^2 + N_geo)) W`` with
    ``X = A' diag(wq EA s) W``; the rest of the tangent is
    :func:`reduced_constant_tangent`. ``wq``, ``z0p`` and ``t_gauss`` are
    given per Gauss point, flattened element-major.
    """
    ng, m = rows.shape[1:]
    flat = rows.reshape(-1, m)
    nl = float(nonlinear)
    n_t = -ea * alpha_t * t_gauss
    wq_ea, wq_ei = wq * ea, wq * ei
    # Linear kinematics keeps the thermal prestress in the slope row of the
    # force, W'(wq N_T w'), and as N_geo; full kinematics has N_geo = N, so
    # wq N_geo is the force's first coefficient row.
    wq_nt = None if nonlinear else wq * n_t

    def linearize(q):
        wp, wpp, slope, nax = _reduced_weak_form(q, flat, offset, z0p, n_t, ea, nl)
        # A'(wq N) + W'(s wq N + wq (1-nl) N_T w') + B'(wq EI w'') as one product.
        coef = np.empty((3, ng))
        np.multiply(wq, nax, out=coef[0])
        np.multiply(slope, coef[0], out=coef[1])
        if wq_nt is not None:
            coef[1] += wq_nt * wp
        np.multiply(wq_ei, wpp, out=coef[2])
        wq_ngeo = wq_nt if wq_nt is not None else coef[0]

        def tangent():
            # [A; W]' [diag(wq EA s) W; diag(wq (EA s^2 + N_geo) / 2) W] is X
            # plus half the W'W term; adding its transpose completes both.
            weights = np.empty((2, ng))
            np.multiply(wq_ea, slope, out=weights[0])
            np.multiply(weights[0], slope, out=weights[1])
            weights[1] += wq_ngeo
            weights[1] *= 0.5
            half = flat[:2 * ng].T @ (weights[:, :, None] * rows[1]).reshape(2 * ng, m)
            return half + half.T

        return flat.T @ coef.reshape(-1), tangent

    return linearize


def reduced_constant_tangent(rows_a, rows_b, wq, ea, ei):
    """``A_a' diag(wq EA) A_b + B_a' diag(wq EI) B_b`` from the rows of two
    bases: the part of the Galerkin tangent that does not depend on the
    state. With ``rows_a = rows_b`` it completes the tangent of
    :func:`reduced_linearization`."""
    return (rows_a[0].T @ ((wq * ea)[:, None] * rows_b[0])
            + rows_a[2].T @ ((wq * ei)[:, None] * rows_b[2]))
