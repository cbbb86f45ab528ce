"""Equilibria, vibration modes, modal derivatives and local bases."""

import numpy as np
import pytest

from thermrom.beam import BeamModel, BeamProperties, TemperaturePulse
from thermrom.errors import ContractError, SolverError
from thermrom.spectral import (
    MD_STEP_SCALE,
    build_local_basis,
    modal_derivative,
    solve_equilibrium,
    vibration_modes,
)

L = 0.1


# -- equilibrium ---------------------------------------------------------------

def test_equilibrium_unloaded_is_zero(beam_straight_nl, beam_curved_nl):
    for model in (beam_straight_nl, beam_curved_nl):
        cold = BeamModel(model.properties, TemperaturePulse(height=0.0, width=0.02),
                         model.linear_kinematics)
        u = solve_equilibrium(cold, 0.05)
        assert np.linalg.norm(u) == 0.0


def test_equilibrium_linear_one_step(beam_curved_lin):
    model = beam_curved_lin
    x_c = 0.045
    u, info = solve_equilibrium(model, x_c, full_output=True)
    assert info["iterations"] == 1
    k = model.tangent_stiffness(np.zeros(model.dof_count), x_c)
    b = model.internal_force(np.zeros(model.dof_count), x_c)
    np.testing.assert_allclose(u, -np.linalg.solve(k, b), rtol=1e-10)


def test_equilibrium_straight_symmetric_pulse_axial_only(beam_straight_nl):
    # pulse at mid span: the pre-buckling response is pure axial expansion
    u = solve_equilibrium(beam_straight_nl, 0.05)
    transverse = np.concatenate([u[1::3], u[2::3]])
    axial = u[0::3]
    assert np.linalg.norm(axial) > 0.0
    assert np.linalg.norm(transverse) < 1e-8 * np.linalg.norm(axial)


def test_equilibrium_newton_quadratic_convergence(beam_curved_nl):
    # residual ratio test over the final iterations of a cold start
    model = beam_curved_nl
    u, info = solve_equilibrium(model, 0.05, full_output=True)
    res = info["residuals"]
    assert info["stable"]
    assert res[-1] <= 1e-9 * (1.0 + res[0])
    if len(res) >= 3:
        # quadratic: log residual at least doubles its decay rate per step
        r1, r2, r3 = res[-3], res[-2], res[-1]
        if r3 > 0.0 and r2 < 0.1 * r1:
            assert r3 / r2 < (r2 / r1) ** 1.5


def test_equilibrium_divergence_reports_history():
    model = BeamModel(BeamProperties(n_elements=4),
                      TemperaturePulse(height=40.0, width=0.02))
    with pytest.raises(SolverError) as err:
        solve_equilibrium(model, 0.05, max_iter=0)
    assert len(err.value.residual_history) >= 1


def test_equilibrium_path_continuity(beam_curved_nl):
    u_ref = solve_equilibrium(beam_curved_nl, 0.05)
    deltas = []
    for delta in (4e-3, 2e-3, 1e-3):
        u = solve_equilibrium(beam_curved_nl, 0.05 + delta, u_guess=u_ref)
        deltas.append(np.linalg.norm(u - u_ref))
    assert deltas[2] < deltas[1] < deltas[0]
    assert deltas[2] < 0.6 * deltas[0]


# -- vibration modes -------------------------------------------------------------

def test_clamped_frequency_analytic_oracle(beam60_straight):
    model = beam60_straight
    p = model.properties
    w, _ = vibration_modes(model, np.zeros(model.dof_count), None, 1)
    analytic = (4.730040744862704 / p.length) ** 2 * np.sqrt(
        p.bending_rigidity / (p.density * p.area))
    assert abs(w[0] - analytic) / analytic < 0.01


def test_modes_mass_orthonormal(beam_curved_nl):
    model = beam_curved_nl
    u = solve_equilibrium(model, 0.05)
    w, phi = vibration_modes(model, u, 0.05, 5)
    gram = phi.T @ model.mass() @ phi
    np.testing.assert_allclose(gram, np.eye(5), atol=1e-9)
    assert np.all(np.diff(w) > 0.0)


def test_eigenpair_residuals(beam_curved_nl):
    model = beam_curved_nl
    u = solve_equilibrium(model, 0.05)
    w, phi = vibration_modes(model, u, 0.05, 5)
    kt = model.tangent_stiffness(u, 0.05)
    m = model.mass()
    k_norm = np.linalg.norm(kt)
    for i in range(5):
        res = np.linalg.norm((kt - w[i] ** 2 * m) @ phi[:, i])
        assert res <= 1e-8 * k_norm * np.linalg.norm(phi[:, i])


def test_mode_shapes_change_with_pulse_position(beam60_straight):
    pulse = TemperaturePulse(height=40.0, width=0.02)
    model = BeamModel(beam60_straight.properties, pulse)
    shapes = []
    for x_c in (L / 4.0, L / 2.0, 3.0 * L / 4.0):
        u = solve_equilibrium(model, x_c)
        _, phi = vibration_modes(model, u, x_c, 2)
        shapes.append(phi)
    for a in range(3):
        for b in range(a + 1, 3):
            qa, _ = np.linalg.qr(shapes[a])
            qb, _ = np.linalg.qr(shapes[b])
            angles = np.arccos(np.clip(np.linalg.svd(qa.T @ qb, compute_uv=False),
                                       -1.0, 1.0))
            assert angles.max() > 1e-4


def test_midspan_symmetry_of_cold_modes(beam60_straight):
    # straight cold beam: first mode symmetric, second antisymmetric
    model = beam60_straight
    _, phi = vibration_modes(model, np.zeros(model.dof_count), None, 2)
    full = np.zeros((model.n_full, 2))
    full[model.free_dofs] = phi
    w1, w2 = full[1::3, 0], full[1::3, 1]
    assert np.linalg.norm(w1 - w1[::-1]) < 1e-6 * np.linalg.norm(w1)
    assert np.linalg.norm(w2 + w2[::-1]) < 1e-6 * np.linalg.norm(w2)


def test_sign_convention_deterministic(beam_curved_nl):
    model = beam_curved_nl
    u = solve_equilibrium(model, 0.05)
    _, phi1 = vibration_modes(model, u, 0.05, 3)
    _, phi2 = vibration_modes(model, u, 0.05, 3)
    assert np.array_equal(phi1, phi2)
    for j in range(3):
        col = phi1[:, j]
        assert col[np.argmax(np.abs(col))] > 0.0


# -- modal derivatives ------------------------------------------------------------

def _pair_derivative(model, u_eq, x_c, phi_i, phi_j):
    # oracle: one modal derivative per call, its own tangents each time
    h = MD_STEP_SCALE * model.characteristic_length / max(np.max(np.abs(phi_j)), 1.0)
    k_plus = model.tangent_stiffness(u_eq + h * phi_j, x_c)
    k_minus = model.tangent_stiffness(u_eq - h * phi_j, x_c)
    rhs = -((k_plus - k_minus) / (2.0 * h)) @ phi_i
    return np.linalg.solve(model.tangent_stiffness(u_eq, x_c), rhs)


def test_modal_derivative_matches_per_pair_oracle(beam_curved_nl):
    model = beam_curved_nl
    u = solve_equilibrium(model, 0.05)
    _, phi = vibration_modes(model, u, 0.05, 3)
    oracle = np.column_stack([_pair_derivative(model, u, 0.05, phi[:, i], phi[:, j])
                              for i in range(3) for j in range(i, 3)])
    theta = modal_derivative(model, u, 0.05, phi)
    assert theta.shape == (model.dof_count, 6)
    assert np.array_equal(theta, oracle)


def test_local_basis_tangents_per_direction(beam_curved_nl, monkeypatch):
    # after the equilibrium: one tangent for the modes, one for the
    # derivatives' K_t(u_eq) and two per direction, 2k + 2 in all
    model = beam_curved_nl
    calls = []
    tangent = model.tangent_stiffness

    def counted(u, theta):
        calls.append(theta)
        return tangent(u, theta)

    monkeypatch.setattr(model, "tangent_stiffness", counted)
    build_local_basis(model, 0.05, k=5, with_md=True)
    assert len(calls) <= 2 * 5 + 2


def test_modal_derivative_symmetry(beam_curved_nl):
    model = beam_curved_nl
    u = solve_equilibrium(model, 0.05)
    _, phi = vibration_modes(model, u, 0.05, 3)
    th_12 = modal_derivative(model, u, 0.05, phi[:, [0, 1]])[:, 1]
    th_21 = modal_derivative(model, u, 0.05, phi[:, [1, 0]])[:, 1]
    assert np.linalg.norm(th_12 - th_21) <= 1e-4 * np.linalg.norm(th_12)


def test_modal_derivative_axial_dominated(beam_straight_nl):
    # membrane coupling: the derivative of the first bending mode along
    # itself is an axial field for the straight beam
    model = beam_straight_nl
    cold = BeamModel(model.properties, TemperaturePulse(height=0.0, width=0.02))
    u0 = np.zeros(cold.dof_count)
    _, phi = vibration_modes(cold, u0, None, 1)
    theta = modal_derivative(cold, u0, None, phi)[:, 0]
    axial = np.linalg.norm(theta[0::3])
    trans = np.linalg.norm(np.concatenate([theta[1::3], theta[2::3]]))
    assert trans < 0.01 * axial


def test_modal_derivative_zero_for_linear(beam_curved_lin):
    model = beam_curved_lin
    u = solve_equilibrium(model, 0.05)
    _, phi = vibration_modes(model, u, 0.05, 2)
    theta = modal_derivative(model, u, 0.05, phi)[:, 1]
    scale = np.linalg.norm(phi[:, 0])
    assert np.linalg.norm(theta) < 1e-6 * scale


# -- local basis ------------------------------------------------------------------

def test_local_basis_column_counts(beam_curved_nl):
    b5 = build_local_basis(beam_curved_nl, 0.05, k=3)
    assert b5.m == 3 and b5.kind == "vm-only"
    bmd = build_local_basis(beam_curved_nl, 0.05, k=3, with_md=True)
    assert bmd.m == 3 + 6 and bmd.kind == "vm+md"


def test_local_basis_m20_for_k5(beam_curved_nl):
    basis = build_local_basis(beam_curved_nl, 0.05, k=5, with_md=True)
    assert basis.m == 20


def test_local_basis_orthonormal_and_span_preserving(beam_curved_nl):
    model = beam_curved_nl
    basis = build_local_basis(model, 0.05, k=3, with_md=True)
    v = basis.matrix
    np.testing.assert_allclose(v.T @ v, np.eye(basis.m), atol=1e-12)

    # projector oracle: the span equals the raw [modes, derivatives] span
    u = solve_equilibrium(model, 0.05)
    _, phi = vibration_modes(model, u, 0.05, 3)
    raw = np.column_stack([phi, modal_derivative(model, u, 0.05, phi)])
    q_raw, _ = np.linalg.qr(raw / np.linalg.norm(raw, axis=0))
    p1 = v @ v.T
    p2 = q_raw @ q_raw.T
    assert np.linalg.norm(p1 - p2) <= 1e-8


def test_local_basis_invalid_k(beam_curved_nl):
    with pytest.raises(ContractError):
        build_local_basis(beam_curved_nl, 0.05, k=0)


def test_local_basis_rank_error_names_columns():
    # a constant-tangent model has exactly zero modal derivatives, so the
    # md-enriched stack is rank deficient and the offender is named
    from thermrom.errors import BasisRankError
    from thermrom.twodof import TwoDofModel

    with pytest.raises(BasisRankError) as err:
        build_local_basis(TwoDofModel(), 0.0, k=1, with_md=True)
    assert "md11" in err.value.dependent_columns
