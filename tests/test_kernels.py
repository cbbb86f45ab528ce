"""The vectorised element kernels against a scalar-loop reference."""

import numpy as np
import pytest

from thermrom import kernels


def _random_state(model, rng, scale=2e-4):
    return scale * rng.standard_normal(model.dof_count)


# ---------------------------------------------------------------------------
# scalar reference: one element, one Gauss point, one dof at a time
# ---------------------------------------------------------------------------

def _gauss_point(u, o, g, ba, bw, bb):
    up = wp = wpp = 0.0
    for i in range(6):
        up += ba[i] * u[o + i]
        wp += bw[g, i] * u[o + i]
        wpp += bb[g, i] * u[o + i]
    return up, wp, wpp


def _force_tangent_loop(u, n_el, ba, bw, bb, wq, z0p, t_g, ea, ei, a_t, nl):
    n = u.shape[0]
    f = np.zeros(n)
    k = np.zeros((n, n))
    gvec = np.zeros(6)
    for e in range(n_el):
        o = 3 * e
        for g in range(3):
            up, wp, wpp = _gauss_point(u, o, g, ba, bw, bb)
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
            up, wp, wpp = _gauss_point(u, o, g, ba, bw, bb)
            em = up + z0p[e, g] * wp + 0.5 * nl * wp * wp
            nt = -ea * a_t * t_g[e, g]
            total += wq[g] * (
                0.5 * ea * em * em
                + nt * em
                + (1.0 - nl) * 0.5 * nt * wp * wp
                + 0.5 * ei * wpp * wpp
            )
    return total


def _loop_args(model, u, x_c):
    p = model.properties
    t = model.tables
    return (model._embed(u), p.n_elements, t.ba, t.bw, t.bb, t.wq,
            model.z0_slope_gauss, model.gauss_temperature(x_c), p.axial_rigidity,
            p.bending_rigidity, p.thermal_expansion,
            0.0 if model.linear_kinematics else 1.0)


@pytest.mark.parametrize("beam", ["beam_straight_nl", "beam_curved_lin", "beam_curved_nl"])
def test_kernels_match_scalar_loops(beam, request, rng):
    model = request.getfixturevalue(beam)
    u = _random_state(model, rng)
    x_c = 0.037
    args = _loop_args(model, u, x_c)
    f_ref, k_ref = _force_tangent_loop(*args)
    e_ref = _energy_loop(*args)
    free = model.free_dofs

    f, k = model.force_and_tangent(u, x_c)
    for got, ref in ((f, f_ref[free]), (model.internal_force(u, x_c), f_ref[free]),
                     (k, k_ref[np.ix_(free, free)]),
                     (model.tangent_stiffness(u, x_c), k_ref[np.ix_(free, free)])):
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))
    e = model.strain_energy(u, x_c)
    assert abs(e - e_ref) <= 1e-12 * abs(e_ref)


def test_band_storage_matches_its_definition(rng):
    # ab[p + i - j, j] = K[i, j] inside the band, zero elsewhere; includes
    # bands wider than the matrix
    for n in range(1, 9):
        for p in range(8):
            a = rng.standard_normal((n, n))
            ab = kernels.dense_to_band(a, p)
            expected_ab = np.zeros((2 * p + 1, n))
            banded = np.zeros((n, n))
            for i in range(n):
                for j in range(n):
                    if abs(i - j) <= p:
                        expected_ab[p + i - j, j] = banded[i, j] = a[i, j]
            assert np.array_equal(ab, expected_ab)
            assert np.array_equal(kernels.band_to_dense(ab), banded)


def test_band_product_is_the_dense_product(rng):
    # A x and A x + y from band storage equal the dense products, through
    # gbmv and through the dense product below the n >= 2p + 1 that scipy's
    # gbmv takes; y is not modified
    for n in range(1, 14):
        for p in range(min(n, 6)):
            a = kernels.band_to_dense(kernels.dense_to_band(rng.standard_normal((n, n)), p))
            ab = np.asfortranarray(kernels.dense_to_band(a, p))
            x, y = rng.standard_normal((2, n))
            y_before = y.copy()
            scale = np.abs(a) @ np.abs(x) + np.abs(y)
            assert np.all(np.abs(kernels.band_matvec(ab, x) - a @ x) <= 1e-14 * scale)
            assert np.all(np.abs(kernels.band_matvec(ab, x, y) - (a @ x + y)) <= 1e-14 * scale)
            assert np.array_equal(y, y_before)


def _dense_add_at(model, u, x_c):
    """Unconstrained force and dense tangent from the element vectors and
    blocks, scattered element by element with ``np.add.at``."""
    u_full, tables, *args = model._kernel_args(u, x_c)
    gmat, resultants, ngeo = kernels._element_weak_form(u_full, tables, *args)
    f_el = kernels._element_force(tables, gmat, resultants)
    k_el = kernels._element_tangent(tables, gmat, ngeo, model.properties.axial_rigidity,
                                    model.properties.bending_rigidity)
    idx = 3 * np.arange(k_el.shape[0])[:, None] + np.arange(6)
    n = model.n_full
    f, k = np.zeros(n), np.zeros((n, n))
    np.add.at(f, idx, f_el)
    np.add.at(k, (idx[:, :, None], idx[:, None, :]), k_el)
    return f, k


@pytest.mark.parametrize("beam", ["beam_straight_nl", "beam_curved_lin", "beam_curved_nl"])
def test_band_assembly_is_bit_identical_to_dense_scatter(beam, request, rng):
    # every entry gets at most two element contributions, so the two-pass
    # block add into band storage reproduces the dense scatter exactly
    model = request.getfixturevalue(beam)
    free = model.free_dofs
    p = kernels.HALF_BANDWIDTH
    for _ in range(3):
        u = _random_state(model, rng)
        for x_c in (None, 0.037, 0.06):
            f_ref, k_ref = _dense_add_at(model, u, x_c)
            f_full, band_full = kernels.beam_force_and_tangent(*model._kernel_args(u, x_c))
            assert band_full.shape == (2 * p + 1, model.n_full)
            assert np.array_equal(f_full, f_ref)
            assert np.array_equal(kernels.band_to_dense(band_full), k_ref)
            assert np.array_equal(kernels.dense_to_band(k_ref, p), band_full)

            f, k = model.force_and_tangent(u, x_c)
            k_free = k_ref[np.ix_(free, free)]
            assert np.array_equal(f, f_ref[free])
            assert np.array_equal(model.internal_force(u, x_c), f_ref[free])
            assert np.array_equal(k, k_free)
            assert np.array_equal(model.tangent_stiffness(u, x_c), k_free)


def test_force_matches_force_and_tangent(beam_curved_nl, rng):
    u = _random_state(beam_curved_nl, rng)
    f1 = beam_curved_nl.internal_force(u, 0.02)
    f2, _ = beam_curved_nl.force_and_tangent(u, 0.02)
    np.testing.assert_allclose(f1, f2, rtol=1e-13)


def test_energy_gradient_is_force(beam_curved_nl, rng):
    # directional derivative of the strain energy equals the internal force
    model = beam_curved_nl
    u = _random_state(model, rng)
    du = rng.standard_normal(model.dof_count)
    du /= np.linalg.norm(du)
    h = 1e-7
    de = (model.strain_energy(u + h * du, 0.04)
          - model.strain_energy(u - h * du, 0.04)) / (2.0 * h)
    f = model.internal_force(u, 0.04)
    assert abs(de - f @ du) < 1e-5 * max(abs(de), 1e-12)


def test_energy_gradient_is_force_linear_mode(beam_curved_lin, rng):
    model = beam_curved_lin
    u = _random_state(model, rng)
    du = rng.standard_normal(model.dof_count)
    du /= np.linalg.norm(du)
    h = 1e-7
    de = (model.strain_energy(u + h * du, 0.04)
          - model.strain_energy(u - h * du, 0.04)) / (2.0 * h)
    f = model.internal_force(u, 0.04)
    assert abs(de - f @ du) < 1e-5 * max(abs(de), 1e-12)
