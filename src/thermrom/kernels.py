"""Hot element-assembly kernels for the planar thermo-elastic beam.

Two interchangeable backends produce the same numbers:

* ``"numba"``: scalar element/Gauss-point loops compiled with ``numba.njit``,
* ``"numpy"``: a vectorised pure-numpy path used as fallback.

The backend is selected at import time from the ``THERMROM_NUMBA``
environment variable (enabled by default, set ``THERMROM_NUMBA=0`` to force
the numpy path) and can be switched at runtime with :func:`set_backend`.
Both paths loop over elements in the same order, so results agree to
round-off; cross-agreement is covered by the test suite and timed by
``benchmarks/kernel_benchmark.py``.

Kinematics: 2-node element, linear axial / Hermite-cubic transverse shape
functions, membrane strain ``e = u' + z0'*w' + 0.5*(w')**2`` (the quadratic
term and its tangent are dropped in linear-kinematics mode, while the
thermal prestress contribution to the geometric stiffness is kept), axial
force ``N = EA*(e - alpha_T*T)``, bending moment ``EI*w''``. Three-point
Gauss quadrature per element.

Reduced evaluation (numpy only). For a displacement ``u = u_org + V q`` the
Gauss-point gradients are linear in ``q``: offline, :func:`gauss_rows`
applies the shape rows ``ba``, ``bw_g`` and ``bb_g`` to every element block
of ``V`` and ``u_org``, giving rows ``A``, ``W``, ``B`` of shape
``(3*n_el, m)`` and their offsets. Online, :func:`reduced_force` and
:func:`reduced_tangent` return the Galerkin force ``V'f`` and
tangent ``V'K_t V`` from these rows alone, with ``G = A + (z0' + nl*w')W``:

    f_red = G'(wq N) + W'(wq (1-nl) N_T w') + B'(wq EI w'')
    K_red = G' diag(wq EA) G + W' diag(wq N_geo) W + K_bend

with ``wq`` the quadrature weights. ``K_bend = B' diag(wq EI) B`` does not
depend on the state and is passed in. Nothing of size ``n`` is assembled or projected. The Gauss-point
constitutive lines are shared with the full numpy kernels.
"""

from __future__ import annotations

import os

import numpy as np

__all__ = [
    "ElementTables",
    "element_tables",
    "numba_available",
    "get_backend",
    "set_backend",
    "beam_force",
    "beam_force_and_tangent",
    "beam_strain_energy",
    "gauss_rows",
    "reduced_force",
    "reduced_tangent",
]

_ENV_FLAG = "THERMROM_NUMBA"

# 3-point Gauss rule on the unit interval [0, 1].
_GAUSS_XI = np.array([0.5 - np.sqrt(15.0) / 10.0, 0.5, 0.5 + np.sqrt(15.0) / 10.0])
_GAUSS_W = np.array([5.0 / 18.0, 8.0 / 18.0, 5.0 / 18.0])


def _env_requests_numba() -> bool:
    return os.environ.get(_ENV_FLAG, "1").strip().lower() not in ("0", "false", "off", "no")


try:
    import numba

    _HAVE_NUMBA = True
except ImportError:  # pragma: no cover - environment dependent
    numba = None
    _HAVE_NUMBA = False

_backend = "numba" if (_HAVE_NUMBA and _env_requests_numba()) else "numpy"


def numba_available() -> bool:
    """True when numba could be imported in this process."""
    return _HAVE_NUMBA


def get_backend() -> str:
    return _backend


def set_backend(name: str) -> None:
    """Select the active kernel backend, ``"numba"`` or ``"numpy"``."""
    if name not in ("numba", "numpy"):
        raise ValueError(f"unknown kernel backend {name!r}")
    if name == "numba" and not _HAVE_NUMBA:
        raise RuntimeError("numba backend requested but numba is not importable")
    global _backend
    _backend = name


class ElementTables:
    """Precomputed shape-function tables for a uniform mesh.

    Attributes are plain float64 arrays so they can be passed straight into
    the jitted kernels: ``ba`` (6,) axial strain row, ``bw`` (3, 6) transverse
    slope rows per Gauss point, ``bb`` (3, 6) curvature rows, ``wq`` (3,)
    quadrature weights scaled by the element length.
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
        for arr in (self.ba, self.bw, self.bb, self.wq, self.gauss_xi):
            arr.flags.writeable = False


def element_tables(length: float) -> ElementTables:
    return ElementTables(length)


# ---------------------------------------------------------------------------
# scalar-loop implementations (jitted when the numba backend is active)
# ---------------------------------------------------------------------------

def _force_loop(u, n_el, ba, bw, bb, wq, z0p, t_g, ea, ei, a_t, nl):
    f = np.zeros_like(u)
    for e in range(n_el):
        o = 3 * e
        for g in range(3):
            up = 0.0
            wp = 0.0
            wpp = 0.0
            for i in range(6):
                ui = u[o + i]
                up += ba[i] * ui
                wp += bw[g, i] * ui
                wpp += bb[g, i] * ui
            z = z0p[e, g]
            em = up + z * wp + 0.5 * nl * wp * wp
            nt = -ea * a_t * t_g[e, g]
            nax = ea * em + nt
            mb = ei * wpp
            w = wq[g]
            lin_nt_wp = (1.0 - nl) * nt * wp
            for i in range(6):
                gi = ba[i] + (z + nl * wp) * bw[g, i]
                f[o + i] += w * (gi * nax + lin_nt_wp * bw[g, i] + bb[g, i] * mb)
    return f


def _force_tangent_loop(u, n_el, ba, bw, bb, wq, z0p, t_g, ea, ei, a_t, nl):
    n = u.shape[0]
    f = np.zeros(n)
    k = np.zeros((n, n))
    gvec = np.zeros(6)
    for e in range(n_el):
        o = 3 * e
        for g in range(3):
            up = 0.0
            wp = 0.0
            wpp = 0.0
            for i in range(6):
                ui = u[o + i]
                up += ba[i] * ui
                wp += bw[g, i] * ui
                wpp += bb[g, i] * ui
            z = z0p[e, g]
            em = up + z * wp + 0.5 * nl * wp * wp
            nt = -ea * a_t * t_g[e, g]
            nax = ea * em + nt
            ngeo = nl * nax + (1.0 - nl) * nt
            mb = ei * wpp
            w = wq[g]
            lin_nt_wp = (1.0 - nl) * nt * wp
            for i in range(6):
                gvec[i] = ba[i] + (z + nl * wp) * bw[g, i]
            for i in range(6):
                f[o + i] += w * (gvec[i] * nax + lin_nt_wp * bw[g, i] + bb[g, i] * mb)
                for j in range(6):
                    k[o + i, o + j] += w * (
                        ea * gvec[i] * gvec[j]
                        + ngeo * bw[g, i] * bw[g, j]
                        + ei * bb[g, i] * bb[g, j]
                    )
    return f, k


def _energy_loop(u, n_el, ba, bw, bb, wq, z0p, t_g, ea, ei, a_t, nl):
    total = 0.0
    for e in range(n_el):
        o = 3 * e
        for g in range(3):
            up = 0.0
            wp = 0.0
            wpp = 0.0
            for i in range(6):
                ui = u[o + i]
                up += ba[i] * ui
                wp += bw[g, i] * ui
                wpp += bb[g, i] * ui
            z = z0p[e, g]
            em = up + z * wp + 0.5 * nl * wp * wp
            nt = -ea * a_t * t_g[e, g]
            total += wq[g] * (
                0.5 * ea * em * em
                + nt * em
                + (1.0 - nl) * 0.5 * nt * wp * wp
                + 0.5 * ei * wpp * wpp
            )
    return total


if _HAVE_NUMBA:
    _force_jit = numba.njit(cache=True)(_force_loop)
    _force_tangent_jit = numba.njit(cache=True)(_force_tangent_loop)
    _energy_jit = numba.njit(cache=True)(_energy_loop)


# ---------------------------------------------------------------------------
# vectorised numpy implementations
# ---------------------------------------------------------------------------

def _dof_index(n_el: int) -> np.ndarray:
    return 3 * np.arange(n_el)[:, None] + np.arange(6)[None, :]


def _gauss_state(u_el, ba, bwg, bbg):
    return u_el @ ba, u_el @ bwg, u_el @ bbg


def _gauss_resultants(up, wp, wpp, z0pg, t_g, ea, ei, a_t, nl):
    """Membrane strain, thermal force, axial force, geometric-stiffness
    force and bending moment from the Gauss-point gradients."""
    em = up + z0pg * wp + 0.5 * nl * wp * wp
    nt = -ea * a_t * t_g
    nax = ea * em + nt
    ngeo = nl * nax + (1.0 - nl) * nt
    mb = ei * wpp
    return em, nt, nax, ngeo, mb


def _force_numpy(u, n_el, ba, bw, bb, wq, z0p, t_g, ea, ei, a_t, nl):
    idx = _dof_index(n_el)
    u_el = u[idx]
    f_el = np.zeros((n_el, 6))
    for g in range(3):
        up, wp, wpp = _gauss_state(u_el, ba, bw[g], bb[g])
        _, nt, nax, _, mb = _gauss_resultants(up, wp, wpp, z0p[:, g], t_g[:, g],
                                              ea, ei, a_t, nl)
        gmat = ba[None, :] + (z0p[:, g] + nl * wp)[:, None] * bw[g][None, :]
        f_el += wq[g] * (
            gmat * nax[:, None]
            + ((1.0 - nl) * nt * wp)[:, None] * bw[g][None, :]
            + mb[:, None] * bb[g][None, :]
        )
    f = np.zeros_like(u)
    np.add.at(f, idx, f_el)
    return f


def _force_tangent_numpy(u, n_el, ba, bw, bb, wq, z0p, t_g, ea, ei, a_t, nl):
    idx = _dof_index(n_el)
    u_el = u[idx]
    f_el = np.zeros((n_el, 6))
    k_el = np.zeros((n_el, 6, 6))
    for g in range(3):
        up, wp, wpp = _gauss_state(u_el, ba, bw[g], bb[g])
        _, nt, nax, ngeo, mb = _gauss_resultants(up, wp, wpp, z0p[:, g], t_g[:, g],
                                                 ea, ei, a_t, nl)
        gmat = ba[None, :] + (z0p[:, g] + nl * wp)[:, None] * bw[g][None, :]
        f_el += wq[g] * (
            gmat * nax[:, None]
            + ((1.0 - nl) * nt * wp)[:, None] * bw[g][None, :]
            + mb[:, None] * bb[g][None, :]
        )
        bwbw = np.outer(bw[g], bw[g])
        bbbb = np.outer(bb[g], bb[g])
        k_el += wq[g] * (
            ea * gmat[:, :, None] * gmat[:, None, :]
            + ngeo[:, None, None] * bwbw[None, :, :]
            + ei * bbbb[None, :, :]
        )
    n = u.shape[0]
    f = np.zeros(n)
    k = np.zeros((n, n))
    np.add.at(f, idx, f_el)
    np.add.at(k, (idx[:, :, None], idx[:, None, :]), k_el)
    return f, k


def _energy_numpy(u, n_el, ba, bw, bb, wq, z0p, t_g, ea, ei, a_t, nl):
    idx = _dof_index(n_el)
    u_el = u[idx]
    total = 0.0
    for g in range(3):
        up, wp, wpp = _gauss_state(u_el, ba, bw[g], bb[g])
        em, nt, _, _, _ = _gauss_resultants(up, wp, wpp, z0p[:, g], t_g[:, g],
                                            ea, ei, a_t, nl)
        total += wq[g] * np.sum(
            0.5 * ea * em * em
            + nt * em
            + (1.0 - nl) * 0.5 * nt * wp * wp
            + 0.5 * ei * wpp * wpp
        )
    return float(total)


# ---------------------------------------------------------------------------
# reduced evaluation from Gauss-point rows
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


def _reduced_state(q, rows, offset, z0p, t_g, ea, ei, a_t, nl):
    up, wp, wpp = (rows.reshape(-1, rows.shape[2]) @ q).reshape(3, -1) + offset
    return wp, _gauss_resultants(up, wp, wpp, z0p, t_g, ea, ei, a_t, nl)


def reduced_force(q, rows, offset, wq, z0p, t_gauss, ea, ei, alpha_t, nonlinear=True):
    """Galerkin internal force ``V'f(u_org + V q)`` from the rows and
    offsets of :func:`gauss_rows`; ``wq``, ``z0p`` and ``t_gauss`` are
    given per Gauss point, flattened element-major."""
    nl = 1.0 if nonlinear else 0.0
    wp, (_, nt, nax, _, mb) = _reduced_state(q, rows, offset, z0p, t_gauss,
                                             ea, ei, alpha_t, nl)
    wn = wq * nax
    # G'(wq N) + W'(wq (1-nl) N_T w') + B'(wq M) as one product with [A; W; B].
    coef = np.concatenate([wn, (z0p + nl * wp) * wn + wq * ((1.0 - nl) * nt * wp),
                           wq * mb])
    return rows.reshape(-1, rows.shape[2]).T @ coef


def reduced_tangent(q, rows, offset, wq, z0p, t_gauss, ea, ei, alpha_t, k_bend,
                    nonlinear=True):
    """Galerkin tangent ``V'K_t(u_org + V q)V``; ``k_bend`` is the
    state-independent bending block ``B' diag(wq EI) B``."""
    nl = 1.0 if nonlinear else 0.0
    wp, (_, _, _, ngeo, _) = _reduced_state(q, rows, offset, z0p, t_gauss,
                                            ea, ei, alpha_t, nl)
    gmat = rows[0] + (z0p + nl * wp)[:, None] * rows[1]
    return (gmat.T * (wq * ea)) @ gmat + (rows[1].T * (wq * ngeo)) @ rows[1] + k_bend


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------

def _args(u_full, tables, z0p, t_gauss, ea, ei, alpha_t, nonlinear):
    n_el = z0p.shape[0]
    nl = 1.0 if nonlinear else 0.0
    return (
        np.ascontiguousarray(u_full, dtype=np.float64),
        n_el,
        tables.ba,
        tables.bw,
        tables.bb,
        tables.wq,
        z0p,
        t_gauss,
        float(ea),
        float(ei),
        float(alpha_t),
        nl,
    )


def beam_force(u_full, tables, z0p, t_gauss, ea, ei, alpha_t, nonlinear=True):
    """Unconstrained internal force vector (thermal load included)."""
    args = _args(u_full, tables, z0p, t_gauss, ea, ei, alpha_t, nonlinear)
    if _backend == "numba":
        return _force_jit(*args)
    return _force_numpy(*args)


def beam_force_and_tangent(u_full, tables, z0p, t_gauss, ea, ei, alpha_t, nonlinear=True):
    """Internal force and its consistent tangent, both unconstrained."""
    args = _args(u_full, tables, z0p, t_gauss, ea, ei, alpha_t, nonlinear)
    if _backend == "numba":
        return _force_tangent_jit(*args)
    return _force_tangent_numpy(*args)


def beam_strain_energy(u_full, tables, z0p, t_gauss, ea, ei, alpha_t, nonlinear=True):
    """Potential whose gradient is :func:`beam_force` (frozen temperature)."""
    args = _args(u_full, tables, z0p, t_gauss, ea, ei, alpha_t, nonlinear)
    if _backend == "numba":
        return float(_energy_jit(*args))
    return _energy_numpy(*args)
