"""Beam model: pulse field, assembly oracles, loads, kinematics modes."""

import numpy as np
import pytest

from thermrom import kernels
from thermrom.beam import BeamModel, BeamProperties, TemperaturePulse, pulse_temperature
from thermrom.errors import ContractError
from thermrom.models import validate_model
from thermrom.scenarios import ScenarioConfig, build_beam_scenario

L = 0.1


def make_pulse(height=40.0, width=0.02):
    return TemperaturePulse(height=height, width=width)


# -- temperature pulse -------------------------------------------------------

def test_pulse_peak_at_center():
    pulse = make_pulse()
    assert pulse_temperature(0.04, 0.04, pulse) == pytest.approx(pulse.height)


def test_pulse_vanishes_outside_window():
    pulse = make_pulse()
    x_c = 0.05
    for x in (0.05 - 0.011, 0.05 + 0.011, 0.0, 0.1):
        assert pulse_temperature(x, x_c, pulse) == 0.0


def test_pulse_integral_quadrature_oracle():
    # closed form: integral of height*sin^2 over one window = height*width/2
    pulse = make_pulse()
    x = np.linspace(0.0, L, 20001)
    values = pulse_temperature(x, 0.05, pulse)
    integral = np.trapezoid(values, x)
    assert integral == pytest.approx(pulse.height * pulse.width / 2.0, rel=1e-6)


def test_pulse_center_motion():
    cfg = ScenarioConfig(scenario="straight-linear", eps=1e-2)
    scn = build_beam_scenario(cfg, need_database=False)
    assert scn.xc_of_tau(0.0) == pytest.approx(0.05)
    assert scn.xc_of_tau(np.pi / 2.0) == pytest.approx(0.08)
    # half-length start, 0.3 L amplitude keeps the center inside [0.2 L, 0.8 L]
    tau = np.linspace(0.0, 2.0 * np.pi, 101)
    centers = scn.xc_of_tau(tau)
    assert centers.min() == pytest.approx(0.2 * L)
    assert centers.max() == pytest.approx(0.8 * L)
    h = 1e-6
    fd = (scn.xc_of_tau(tau + h) - scn.xc_of_tau(tau - h)) / (2.0 * h)
    np.testing.assert_allclose(scn.dxc_dtau(tau), fd, rtol=0.0, atol=1e-9)


# -- mass ---------------------------------------------------------------------

def test_mass_shape_and_symmetry(beam60_straight):
    m = beam60_straight.mass()
    assert m.shape == (177, 177)
    assert np.array_equal(m, m.T)


def test_total_mass_oracle(beam60_straight):
    # rigid axial translation against the unconstrained mass matrix
    model = beam60_straight
    r = np.zeros(model.n_full)
    r[0::3] = 1.0
    p = model.properties
    total = p.density * p.width * p.thickness * p.length
    assert r @ model.mass(reduce=False) @ r == pytest.approx(total, rel=1e-12)
    assert total == pytest.approx(2.7e-3)


def test_free_dof_count_formula():
    for n_el in (2, 5, 17, 60):
        model = BeamModel(BeamProperties(n_elements=n_el))
        assert model.dof_count == 3 * (n_el + 1) - 6


# -- damping ------------------------------------------------------------------

def test_damping_proportional_to_cold_stiffness(beam_curved_nl):
    model = beam_curved_nl
    p = model.properties
    k_cold = model.tangent_stiffness(np.zeros(model.dof_count), None)
    expected = (p.damping_modulus / p.youngs_modulus) * k_cold
    np.testing.assert_allclose(model.damping(), expected, rtol=1e-12)


def test_damping_psd(beam_curved_nl):
    c = beam_curved_nl.damping()
    assert np.allclose(c, c.T)
    vals = np.linalg.eigvalsh(c)
    assert vals.min() >= -1e-12 * abs(vals.max())


def test_zero_damping_modulus():
    model = BeamModel(BeamProperties(damping_modulus=0.0, n_elements=4))
    assert np.all(model.damping() == 0.0)


# -- internal force -----------------------------------------------------------

def test_force_zero_at_reference(beam_straight_nl, beam_curved_nl):
    for model in (beam_straight_nl, beam_curved_nl):
        u0 = np.zeros(model.dof_count)
        assert np.all(model.internal_force(u0, None) == 0.0)
        cold = BeamModel(model.properties,
                         TemperaturePulse(height=0.0, width=0.02),
                         model.linear_kinematics)
        assert np.all(cold.internal_force(np.zeros(cold.dof_count), 0.05) == 0.0)


def test_linear_mode_is_affine(beam_curved_lin, rng):
    # f(u1 + u2) - f(u1) - f(u2) + f(0) = 0 for linear kinematics
    model = beam_curved_lin
    x_c = 0.06
    u1 = 1e-4 * rng.standard_normal(model.dof_count)
    u2 = 1e-4 * rng.standard_normal(model.dof_count)
    lhs = (model.internal_force(u1 + u2, x_c) - model.internal_force(u1, x_c)
           - model.internal_force(u2, x_c) + model.internal_force(np.zeros_like(u1), x_c))
    scale = np.linalg.norm(model.internal_force(u1, x_c))
    assert np.linalg.norm(lhs) < 1e-9 * scale


def test_thermal_load_nonzero(beam_straight_nl):
    b = beam_straight_nl.internal_force(np.zeros(beam_straight_nl.dof_count), 0.05)
    assert np.linalg.norm(b) > 0.0


def test_thermal_load_consistency_linear(beam_curved_lin, rng):
    # b = f(0), K = K_t(0), and f(u) = K u + b exactly in linear mode
    model = beam_curved_lin
    x_c = 0.041
    b = model.internal_force(np.zeros(model.dof_count), x_c)
    k = model.tangent_stiffness(np.zeros(model.dof_count), x_c)
    for _ in range(3):
        u = 1e-4 * rng.standard_normal(model.dof_count)
        f = model.internal_force(u, x_c)
        np.testing.assert_allclose(f, k @ u + b, atol=1e-9 * np.linalg.norm(f))


def _window_edge_on(points):
    """A pulse centre whose window, in the arithmetic of
    :func:`pulse_temperature`, has an edge exactly on one of ``points``,
    the one nearest mid-span that allows it: the right edge if it can, else
    the left edge."""
    width = make_pulse().width
    for x in sorted(points, key=lambda x: abs(x - 0.5 * L)):
        for side, target in ((+1, width), (-1, 0.0)):
            guess = x - side * 0.5 * width
            for k in range(-8, 9):
                x_c = guess + k * np.spacing(guess)
                if x - (x_c - 0.5 * width) == target:
                    return x_c
    raise AssertionError(f"no pulse centre puts an edge exactly on {points}")


@pytest.mark.parametrize("rise", [0.0, 5e-3], ids=["straight", "curved"])
@pytest.mark.parametrize("n_elements", [4, 12])
@pytest.mark.parametrize("x_c", [
    None, 0.041, 0.005, -0.05,
    lambda model: _window_edge_on(model.x_gauss.ravel()),
    lambda model: _window_edge_on(model.node_x[1:-1]),
], ids=["cold", "inside", "straddles-end", "off-span", "edge-on-gauss-point",
        "edge-on-element-boundary"])
def test_linear_linearization_is_k_u_plus_b_without_weak_form(rise, n_elements, x_c,
                                                              monkeypatch, rng):
    # under linear kinematics a frozen linearization is K(theta) u + b(theta)
    # from the cold band and the thermal part of the heated elements: it
    # matches the weak form's force and tangent, on a band too short for
    # BLAS gbmv (n = 9 < 2p + 1) too, and evaluates no weak form once it is
    # built. The heated elements carry every non-zero Gauss temperature,
    # with the bits of gauss_temperature, also with a window edge exactly
    # on a Gauss point or an element boundary.
    model = BeamModel(BeamProperties(rise=rise, n_elements=n_elements), make_pulse(),
                      linear_kinematics=True)
    if callable(x_c):
        x_c = x_c(model)
    first, t_heated = model.heated_elements(x_c)
    elements = slice(first, first + len(t_heated))
    t_all = model.gauss_temperature(x_c)
    assert np.array_equal(t_heated, t_all[elements])
    assert not np.delete(t_all, np.arange(n_elements)[elements], axis=0).any()
    linearize = model.linearizations([x_c])(0)
    calls = []
    weak_form = kernels._element_weak_form
    monkeypatch.setattr(kernels, "_element_weak_form",
                        lambda *args: calls.append(1) or weak_form(*args))
    answers = []
    for _ in range(3):
        u = 1e-4 * rng.standard_normal(model.dof_count)
        f, tangent = linearize(u)
        answers.append((u, f, kernels.band_to_dense(tangent())))
    assert not calls
    for u, f, k in answers:
        expect_f = model.internal_force(u, x_c)
        expect_k = model.tangent_stiffness(u, x_c)
        assert np.linalg.norm(f - expect_f) <= 1e-12 * np.linalg.norm(expect_f)
        assert np.linalg.norm(k - expect_k) <= 1e-12 * np.linalg.norm(expect_k)


def test_membrane_coupling_nonlinear(beam_straight_nl):
    # a pure transverse displacement generates axial force through the
    # quadratic membrane strain; brute-force Gauss quadrature oracle
    model = beam_straight_nl
    u = np.zeros(model.dof_count)
    # transverse dofs of the free vector: every node 1..n-1, component 1
    w_amp = 2e-4
    x_free = model.node_x[1:-1]
    w_field = w_amp * np.sin(np.pi * x_free / L)
    th_field = w_amp * np.pi / L * np.cos(np.pi * x_free / L)
    u[1::3] = w_field
    u[2::3] = th_field
    f = model.internal_force(u, None)
    axial = f[0::3]
    assert np.linalg.norm(axial) > 0.0

    # oracle: axial nodal force at interior node i from the two adjacent
    # elements, integrating N * dN_a/dx with N = EA * (z0'w' + w'^2/2)
    p = model.properties
    ell = model.element_length
    full = np.zeros(model.n_full)
    full[model.free_dofs] = u
    i = model.properties.n_elements // 2
    oracle = 0.0
    for e in (i - 1, i):
        ue = full[3 * e: 3 * e + 6]
        sign = +1.0 if e == i - 1 else -1.0  # dN_a/dx of node i in element e
        for xi, wq in zip(model.tables.gauss_xi, model.tables.wq):
            bw = np.array([0.0, (-6 * xi + 6 * xi**2) / ell, 1 - 4 * xi + 3 * xi**2,
                           0.0, (6 * xi - 6 * xi**2) / ell, -2 * xi + 3 * xi**2])
            wp = bw @ ue
            n_ax = p.axial_rigidity * 0.5 * wp * wp
            oracle += wq * sign / ell * n_ax
    node_axial = model.node_dofs(i)[0]
    assert f[node_axial] == pytest.approx(oracle, rel=1e-10)


# -- tangent stiffness ---------------------------------------------------------

@pytest.mark.parametrize("fixture", ["beam_straight_nl", "beam_curved_nl",
                                     "beam_curved_lin"])
def test_tangent_matches_finite_differences(fixture, request, rng):
    model = request.getfixturevalue(fixture)
    x_c = 0.052
    u = 2e-4 * rng.standard_normal(model.dof_count)
    k = model.tangent_stiffness(u, x_c)
    for _ in range(3):
        du = rng.standard_normal(model.dof_count)
        du /= np.linalg.norm(du)
        h = 1e-6 * (1.0 + np.max(np.abs(u)))
        fd = (model.internal_force(u + h * du, x_c)
              - model.internal_force(u - h * du, x_c)) / (2.0 * h)
        assert np.linalg.norm(fd - k @ du) <= 1e-6 * np.linalg.norm(k @ du)


def test_tangent_symmetry(beam_curved_nl, rng):
    u = 2e-4 * rng.standard_normal(beam_curved_nl.dof_count)
    k = beam_curved_nl.tangent_stiffness(u, 0.033)
    assert np.allclose(k, k.T, rtol=1e-12)


def test_cold_straight_tangent_textbook_oracle(beam60_straight):
    # classical clamped-beam element matrices assembled independently
    model = beam60_straight
    p = model.properties
    ell = model.element_length
    ea, ei = p.axial_rigidity, p.bending_rigidity
    k_ax = ea / ell * np.array([[1.0, -1.0], [-1.0, 1.0]])
    k_b = ei / ell**3 * np.array([
        [12.0, 6.0 * ell, -12.0, 6.0 * ell],
        [6.0 * ell, 4.0 * ell**2, -6.0 * ell, 2.0 * ell**2],
        [-12.0, -6.0 * ell, 12.0, -6.0 * ell],
        [6.0 * ell, 2.0 * ell**2, -6.0 * ell, 4.0 * ell**2],
    ])
    k_el = np.zeros((6, 6))
    k_el[np.ix_((0, 3), (0, 3))] = k_ax
    k_el[np.ix_((1, 2, 4, 5), (1, 2, 4, 5))] = k_b
    k_full = np.zeros((model.n_full, model.n_full))
    for e in range(p.n_elements):
        sl = slice(3 * e, 3 * e + 6)
        k_full[sl, sl] += k_el
    oracle = k_full[np.ix_(model.free_dofs, model.free_dofs)]
    k = model.tangent_stiffness(np.zeros(model.dof_count), None)
    np.testing.assert_allclose(k, oracle, rtol=1e-12, atol=1e-6 * np.abs(oracle).max())


def test_validate_beam_tangent_second_order(beam_straight_nl):
    # central-difference deviation of the exact tangent scales as h^2
    model = beam_straight_nl
    report = validate_model(model, 0.05, trials=2, displacement_scale=1e-4)
    assert report.passed, str(report)

    rng = np.random.default_rng(5)
    u = np.zeros(model.dof_count)
    du = rng.standard_normal(model.dof_count)
    du /= np.linalg.norm(du)
    k = model.tangent_stiffness(u, 0.05)

    def deviation(h):
        fd = (model.internal_force(u + h * du, 0.05)
              - model.internal_force(u - h * du, 0.05)) / (2.0 * h)
        return np.linalg.norm(fd - k @ du)

    d1, d2 = deviation(1e-5), deviation(5e-6)
    assert d1 / d2 == pytest.approx(4.0, rel=0.2)


# -- loads ---------------------------------------------------------------------

def test_uniform_load_resultant(beam60_straight):
    density = 1.0e4
    f = beam60_straight.uniform_transverse_load(density, reduce=False)
    assert f[1::3].sum() == pytest.approx(density * L, rel=1e-12)
    assert f[1::3].sum() == pytest.approx(1.0e3)
    assert np.all(f[0::3] == 0.0)


def test_zero_load_density(beam60_straight):
    assert np.all(beam60_straight.uniform_transverse_load(0.0) == 0.0)


def test_load_density_must_be_finite(beam60_straight):
    with pytest.raises(ContractError):
        beam60_straight.uniform_transverse_load(np.inf)


# -- misc ----------------------------------------------------------------------

def test_dimension_mismatch_raises(beam_straight_nl):
    with pytest.raises(ContractError):
        beam_straight_nl.internal_force(np.zeros(3), 0.05)


def test_curved_initial_shape(beam_curved_nl):
    model = beam_curved_nl
    p = model.properties
    assert model.initial_shape(0.0) == pytest.approx(0.0)
    assert model.initial_shape(p.length) == pytest.approx(0.0)
    assert model.initial_shape(p.length / 2.0) == pytest.approx(p.rise)
