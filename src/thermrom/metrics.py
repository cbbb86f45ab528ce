"""Reduction-error metrics: instantaneous and uniform-in-time relative
errors between a reference and a reduced solution history, and the
projection floor of a reduction subspace, the least uniform error any
history in it can reach.
"""

from __future__ import annotations

import numpy as np

from .errors import ContractError

__all__ = ["error_norms", "error_instant", "error_uniform", "instant_from_norms",
           "uniform_from_norms", "projection_floor", "adaptive_projection_floor"]


def _as_history(u):
    u = np.asarray(u, dtype=float)
    if u.ndim == 1:
        u = u[:, None]
    if u.ndim != 2:
        raise ContractError("state history must be 1-D or 2-D")
    return u


#: Rows of the histories per chunk of :func:`error_norms`: small next to a
#: history, large enough that the per-chunk overhead does not show.
CHUNK_ROWS = 256


def error_norms(u_ref, u_red):
    """Per-sample norms ``|u(t)|_2`` and ``|u(t) - u_red(t)|_2`` of two
    histories of one shape, each as ``np.linalg.norm(., axis=1)`` gives it.
    They are formed ``CHUNK_ROWS`` rows at a time, so the difference of the
    whole histories and its square are never held."""
    u_ref = _as_history(u_ref)
    u_red = _as_history(u_red)
    if u_ref.shape != u_red.shape:
        raise ContractError(f"histories differ in shape: {u_ref.shape} vs {u_red.shape}")
    ref_norm, diff_norm = np.empty(len(u_ref)), np.empty(len(u_ref))
    for start in range(0, len(u_ref), CHUNK_ROWS):
        rows = slice(start, start + CHUNK_ROWS)
        ref_norm[rows] = np.linalg.norm(u_ref[rows], axis=1)
        diff_norm[rows] = np.linalg.norm(u_ref[rows] - u_red[rows], axis=1)
    return ref_norm, diff_norm


def instant_from_norms(ref_norm, diff_norm):
    """:func:`error_instant` from the :func:`error_norms` of the histories."""
    valid = ref_norm > 0.0
    errors = np.full(ref_norm.shape, np.nan)
    errors[valid] = diff_norm[valid] / ref_norm[valid]
    return errors, valid


def uniform_from_norms(ref_norm, diff_norm):
    """:func:`error_uniform` from the :func:`error_norms` of the histories."""
    if ref_norm.size == 0:
        raise ContractError("empty time grid")
    denom = np.sum(ref_norm)
    if denom == 0.0:
        raise ContractError("reference history is identically zero")
    return float(np.sum(diff_norm) / denom)


def error_instant(u_ref, u_red):
    """Per-sample relative error ``|u(t) - u_red(t)|_2 / |u(t)|_2``.

    Returns ``(errors, valid)``: samples where the reference norm vanishes
    are NaN in ``errors`` and flagged False in ``valid``.
    """
    return instant_from_norms(*error_norms(u_ref, u_red))


def error_uniform(u_ref, u_red):
    """Uniform-in-time relative error
    ``sum_t |u - u_red|_2 / sum_t |u|_2`` (one-point quadrature over the
    sampled instants)."""
    return uniform_from_norms(*error_norms(u_ref, u_red))


def projection_floor(u_ref, basis):
    """Least uniform error of the constant subspace ``span(basis)``:
    :func:`error_uniform` of the orthogonal projection ``V V'u(t)`` of the
    reference history (rows ``u(t)``) on the orthonormal columns of
    ``basis``."""
    u_ref = _as_history(u_ref)
    return error_uniform(u_ref, (u_ref @ basis) @ basis.T)


def adaptive_projection_floor(u_ref, frames):
    """Least uniform error of an affine subspace that moves with time:
    ``frames`` gives one ``(V, u_org)`` per sample of ``u_ref``, else
    ``ValueError``; it is read once, so it may generate them. Each ``u(t)``
    is replaced by its least-squares nearest point of ``u_org + span(V)``."""
    u_ref = _as_history(u_ref)
    best = np.empty_like(u_ref)
    for i, (u, (basis, origin)) in enumerate(zip(u_ref, frames, strict=True)):
        q, *_ = np.linalg.lstsq(basis, u - origin, rcond=None)
        best[i] = origin + basis @ q
    return error_uniform(u_ref, best)
