"""Reduction-error metrics: instantaneous and uniform-in-time relative
errors between a reference and a reduced solution history, and the
projection floor of a reduction subspace, the least uniform error any
history in it can reach.
"""

from __future__ import annotations

import numpy as np

from .errors import ContractError

__all__ = ["error_instant", "error_uniform", "projection_floor",
           "adaptive_projection_floor"]


def _as_history(u):
    u = np.asarray(u, dtype=float)
    if u.ndim == 1:
        u = u[:, None]
    if u.ndim != 2:
        raise ContractError("state history must be 1-D or 2-D")
    return u


def error_instant(u_ref, u_red):
    """Per-sample relative error ``|u(t) - u_red(t)|_2 / |u(t)|_2``.

    Returns ``(errors, valid)``: samples where the reference norm vanishes
    are NaN in ``errors`` and flagged False in ``valid``.
    """
    u_ref = _as_history(u_ref)
    u_red = _as_history(u_red)
    if u_ref.shape != u_red.shape:
        raise ContractError(f"histories differ in shape: {u_ref.shape} vs {u_red.shape}")
    ref_norm = np.linalg.norm(u_ref, axis=1)
    diff_norm = np.linalg.norm(u_ref - u_red, axis=1)
    valid = ref_norm > 0.0
    errors = np.full(ref_norm.shape, np.nan)
    errors[valid] = diff_norm[valid] / ref_norm[valid]
    return errors, valid


def error_uniform(u_ref, u_red):
    """Uniform-in-time relative error
    ``sum_t |u - u_red|_2 / sum_t |u|_2`` (one-point quadrature over the
    sampled instants)."""
    u_ref = _as_history(u_ref)
    u_red = _as_history(u_red)
    if u_ref.shape != u_red.shape:
        raise ContractError(f"histories differ in shape: {u_ref.shape} vs {u_red.shape}")
    if u_ref.shape[0] == 0:
        raise ContractError("empty time grid")
    denom = np.sum(np.linalg.norm(u_ref, axis=1))
    if denom == 0.0:
        raise ContractError("reference history is identically zero")
    return float(np.sum(np.linalg.norm(u_ref - u_red, axis=1)) / denom)


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
