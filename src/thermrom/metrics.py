"""Reduction-error metrics: instantaneous and uniform-in-time relative
errors between a reference and a reduced solution history.
"""

from __future__ import annotations

import numpy as np

from .errors import ContractError

__all__ = ["error_instant", "error_uniform"]


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
