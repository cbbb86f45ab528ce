"""Reduction error metrics."""

import numpy as np
import pytest

from thermrom.errors import ContractError
from thermrom.metrics import (
    adaptive_projection_floor,
    error_instant,
    error_uniform,
    projection_floor,
)


def test_identical_histories_zero_error(rng):
    u = rng.standard_normal((50, 6))
    e, valid = error_instant(u, u)
    assert np.all(e[valid] == 0.0)
    assert error_uniform(u, u) == 0.0


def test_zero_reduction_is_full_error(rng):
    u = rng.standard_normal((50, 6))
    e, valid = error_instant(u, np.zeros_like(u))
    assert np.all(valid)
    np.testing.assert_allclose(e, np.ones(50))
    assert error_uniform(u, np.zeros_like(u)) == pytest.approx(1.0)


def test_zero_norm_samples_flagged(rng):
    u = rng.standard_normal((10, 3))
    u[4] = 0.0
    e, valid = error_instant(u, u + 0.1)
    assert not valid[4]
    assert np.isnan(e[4])
    assert valid.sum() == 9


def test_mismatched_shapes(rng):
    with pytest.raises(ContractError):
        error_uniform(np.zeros((5, 2)), np.zeros((6, 2)))


def test_empty_grid():
    with pytest.raises(ContractError):
        error_uniform(np.zeros((0, 3)), np.zeros((0, 3)))


def test_one_dimensional_series():
    t = np.linspace(0.0, 1.0, 100)
    u = np.sin(2.0 * np.pi * t) + 2.0
    assert error_uniform(u, u * 0.9) == pytest.approx(0.1, rel=1e-12)


def test_uniform_error_is_quotient_of_sums(rng):
    u = rng.standard_normal((30, 4))
    ur = u + 0.05 * rng.standard_normal((30, 4))
    expected = (np.linalg.norm(u - ur, axis=1).sum()
                / np.linalg.norm(u, axis=1).sum())
    assert error_uniform(u, ur) == pytest.approx(expected, rel=1e-14)


def test_projection_floor_of_a_constant_subspace(rng):
    # zero for a history inside the subspace; for one that is not, the
    # error of its orthogonal projection, which no other history beats
    basis, _ = np.linalg.qr(rng.standard_normal((8, 3)))
    inside = rng.standard_normal((20, 3)) @ basis.T
    assert projection_floor(inside, basis) == pytest.approx(0.0, abs=1e-14)
    u = inside + 0.1 * rng.standard_normal((20, 8))
    floor = projection_floor(u, basis)
    assert floor == error_uniform(u, (u @ basis) @ basis.T) > 0.0
    assert floor <= error_uniform(u, inside)


def test_adaptive_projection_floor_follows_the_frames(rng):
    # one affine subspace per sample: zero for a history that lies in each
    # frame, and the constant floor when every frame is the same subspace
    n, m, steps = 8, 3, 12
    frames = [(np.linalg.qr(rng.standard_normal((n, m)))[0], rng.standard_normal(n))
              for _ in range(steps)]
    inside = np.array([u0 + v @ rng.standard_normal(m) for v, u0 in frames])
    assert adaptive_projection_floor(inside, frames) == pytest.approx(0.0, abs=1e-14)
    basis = frames[0][0]
    u = rng.standard_normal((steps, n))
    same = ((basis, np.zeros(n)) for _ in range(steps))
    assert adaptive_projection_floor(u, same) == pytest.approx(
        projection_floor(u, basis), rel=1e-12)
    with pytest.raises(ValueError, match="shorter"):
        adaptive_projection_floor(u, frames[:-1])
