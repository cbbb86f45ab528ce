"""Implicit time integration: accuracy order, equilibria, stability guard."""

import numpy as np
import pytest
from scipy.linalg import solve_banded

from thermrom.beam import BeamModel
from thermrom.errors import ContractError, IntegrationError
from thermrom.newmark import NewmarkSettings, TransientSystem, newmark_integrate
from thermrom.rom import FullSystem
from thermrom.twodof import TwoDofModel


class Linear1Dof(TransientSystem):
    def __init__(self, omega=2.0 * np.pi, zeta=0.0, load=None):
        self.omega = omega
        self.c = 2.0 * zeta * omega
        self.load = load or (lambda t: np.zeros(1))
        self._g = None

    @property
    def ndof(self):
        return 1

    def mass(self):
        return np.array([[1.0]])

    def begin_step(self, t_start, t_end):
        self._g = self.load(t_end)

    def residual(self, u, v, a):
        return a + self.c * v + self.omega**2 * u - self._g

    def iteration_matrix(self, c_acc, c_vel):
        return np.array([[c_acc + c_vel * self.c + self.omega**2]])


def test_settings_max_newton_bound():
    NewmarkSettings(max_newton=1)
    with pytest.raises(ContractError):
        NewmarkSettings(max_newton=0)


def test_second_order_convergence_analytic_oracle():
    # undamped oscillator, u(t) = cos(omega t); displacement error at the
    # final time scales as dt^2 over a decade of dt. The end time must not
    # be a multiple of the half period (there the leading phase error drops
    # out of the displacement sample).
    system = Linear1Dof()
    u0, v0 = np.array([1.0]), np.array([0.0])
    t_end = 2.37
    errors = []
    dts = [2e-2, 1e-2, 5e-3, 2.5e-3, 2e-3]
    for dt in dts:
        n = int(round(t_end / dt))
        traj = newmark_integrate(system, u0, v0, dt, n)
        exact = np.cos(system.omega * traj.times[-1])
        errors.append(abs(traj.displacement[-1, 0] - exact))
    rates = np.diff(np.log(errors)) / np.diff(np.log(dts))
    assert np.all(rates > 1.8)
    assert np.all(rates < 2.3)


def test_period_error_decreases_second_order():
    system = Linear1Dof()
    period_errors = []
    for dt in (2e-2, 1e-2):
        n = int(round(5.0 / dt))
        traj = newmark_integrate(system, np.array([1.0]), np.array([0.0]), dt, n)
        u = traj.displacement[:, 0]
        crossings = np.where((u[:-1] > 0) & (u[1:] <= 0))[0]
        t_cross = traj.times[crossings[-1]]
        k = crossings.size
        period_errors.append(abs(t_cross / (k - 0.75) - 1.0))
    assert period_errors[1] < 0.5 * period_errors[0]


def test_zero_forcing_stays_at_equilibrium(beam_curved_nl):
    from thermrom.spectral import solve_equilibrium

    model = beam_curved_nl
    u_eq = solve_equilibrium(model, 0.05)
    system = FullSystem(model, theta_of_t=lambda t: 0.05)
    traj = newmark_integrate(system, u_eq, np.zeros_like(u_eq), 1e-5, 50)
    drift = np.linalg.norm(traj.displacement - u_eq, axis=1).max()
    assert drift <= 1e-9 * (1.0 + np.linalg.norm(u_eq))


def test_bounded_oscillation_fixed_stable_temperature():
    # two-mass oscillator at a fixed temperature on the stable branch under
    # harmonic forcing: the response stays bounded
    model = TwoDofModel()
    temperature = -0.29
    system = FullSystem(
        model,
        theta_of_t=lambda t: temperature,
        load=lambda t: np.array([0.0, np.sin(1.5 * t)]),
    )
    dt = (2.0 * np.pi / 1.5) / 50.0
    traj = newmark_integrate(system, np.zeros(2), np.zeros(2), dt, 3000)
    amp = np.abs(traj.displacement).max(axis=1)
    n = amp.size
    early = amp[: n // 2].max()
    late = amp[n // 2:].max()
    assert late < 2.0 * early


def test_instability_guard_triggers():
    class Repeller(TransientSystem):
        @property
        def ndof(self):
            return 1

        def mass(self):
            return np.array([[1.0]])

        def residual(self, u, v, a):
            return a - 100.0 * u - np.array([1e-3])

        def iteration_matrix(self, c_acc, c_vel):
            return np.array([[c_acc - 100.0]])

    # grows like e^{10 t}: past the default limit well before overflow
    with pytest.raises(IntegrationError, match="grew beyond"):
        newmark_integrate(Repeller(), np.zeros(1), np.zeros(1), 0.05, 5000)


def test_non_finite_residual_aborts_the_integration():
    # a load that turns NaN at t > 0.5 must stop the run at the first step
    # whose residual is not finite, not be accepted on the predictor
    dt = 0.03
    system = FullSystem(TwoDofModel(), theta_of_t=lambda t: 0.0,
                        load=lambda t: np.array([0.0, np.sin(t) if t <= 0.5 else np.nan]))
    with pytest.raises(IntegrationError) as info:
        newmark_integrate(system, np.zeros(2), np.zeros(2), dt, 40)
    first_bad = int(np.argmax(dt * np.arange(41) > 0.5))
    assert info.value.step == first_bad
    assert info.value.time == dt * first_bad
    assert len(info.value.residual_history) == 1
    assert np.isnan(info.value.residual_history[-1])


def test_step_residuals_below_tolerance(beam_curved_nl):
    from thermrom.spectral import solve_equilibrium

    model = beam_curved_nl
    u_eq = solve_equilibrium(model, 0.05)
    load = model.uniform_transverse_load(1e3)
    system = FullSystem(model, theta_of_t=lambda t: 0.05,
                        load=lambda t: load * np.sin(4e4 * t))
    settings = NewmarkSettings()
    traj = newmark_integrate(system, u_eq, np.zeros_like(u_eq), 2e-6, 200, settings)
    assert traj.step_residuals is not None
    assert traj.metadata["max_newton_iterations"] <= settings.max_newton
    assert traj.newton_iterations[0] == 0
    assert traj.newton_iterations.max() == traj.metadata["max_newton_iterations"] >= 1


class _DenseFullSystem(FullSystem):
    """The full model with a dense iteration matrix and a dense LU."""

    def begin_step(self, t_start, t_end):
        super().begin_step(t_start, t_end)
        self._theta = self.theta_of_t(t_end)

    def residual(self, u, v, a):
        self._u = u.copy()
        return super().residual(u, v, a)

    def iteration_matrix(self, c_acc, c_vel):
        return (c_acc * self.model.mass() + c_vel * self.model.damping()
                + self.model.tangent_stiffness(self._u, self._theta))

    def solve(self, s_mat, rhs):
        return np.linalg.solve(s_mat, rhs)


def _forced_arch_run(model, system_type):
    from thermrom.spectral import solve_equilibrium

    u_eq = solve_equilibrium(model, 0.05)
    load = model.uniform_transverse_load(1e3)
    system = system_type(model, theta_of_t=lambda t: 0.03 + 2e2 * t,
                         load=lambda t: load * np.sin(4e4 * t))
    return newmark_integrate(system, u_eq, np.zeros_like(u_eq), 2e-6, 100)


def test_full_system_never_assembles_a_dense_tangent(beam_curved_nl, monkeypatch):
    def trap(*args, **kwargs):
        raise AssertionError("dense tangent assembled by the full model")

    monkeypatch.setattr(BeamModel, "tangent_stiffness", trap)
    traj = _forced_arch_run(beam_curved_nl, FullSystem)
    assert traj.metadata["max_newton_iterations"] >= 1
    assert np.all(np.isfinite(traj.displacement))


def test_banded_solve_matches_dense_solve(beam_curved_nl):
    banded = _forced_arch_run(beam_curved_nl, FullSystem)
    dense = _forced_arch_run(beam_curved_nl, _DenseFullSystem)
    assert dense.metadata["max_newton_iterations"] >= 1
    for name in ("displacement", "velocity", "acceleration"):
        got, ref = getattr(banded, name), getattr(dense, name)
        assert np.abs(got - ref).max() <= 1e-10 * np.abs(ref).max()


@pytest.mark.parametrize("name", ["beam_straight_nl", "beam_curved_lin", "beam_curved_nl"])
def test_banded_solve_equals_solve_banded(name, request):
    # the in-place LAPACK solve is scipy's solve_banded, bit for bit
    model = request.getfixturevalue(name)
    rng = np.random.default_rng(5)
    n, p = model.dof_count, model.half_bandwidth
    system = FullSystem(model, theta_of_t=lambda t: 0.04)
    system.begin_step(0.0, 1e-6)
    for _ in range(3):
        u, v, a = 1e-4 * rng.standard_normal((3, n))
        r = system.residual(u, v, a)
        band = system.iteration_matrix(1e12, 1e6)[p:].copy()
        x = system.solve(system.iteration_matrix(1e12, 1e6), r)
        assert np.array_equal(x, solve_banded((p, p), band, r))


def test_singular_iteration_matrix_is_a_linalg_error(beam_curved_nl):
    n = beam_curved_nl.dof_count
    system = FullSystem(beam_curved_nl, theta_of_t=lambda t: 0.04)
    system.begin_step(0.0, 1e-6)
    r = system.residual(np.zeros(n), np.zeros(n), np.zeros(n))
    s_mat = system.iteration_matrix(1e12, 1e6)
    s_mat[:, 4] = 0.0  # column 4 of the matrix
    with pytest.raises(np.linalg.LinAlgError):
        system.solve(s_mat, r)


class _NanTangentBeam(BeamModel):
    """A beam whose tangent has one NaN entry once the pulse is past 0.05."""

    def linearizations(self, thetas):
        at = super().linearizations(thetas)

        def poisoned_at(i):
            linearize = at(i)
            if thetas[i] <= 0.05:
                return linearize

            def poisoned(u):
                f, tangent = linearize(u)

                def nan_tangent():
                    k = tangent()
                    k[self.half_bandwidth, 7] = np.nan
                    return k
                return f, nan_tangent
            return poisoned
        return poisoned_at


def test_nan_tangent_is_an_integration_error(beam_curved_nl):
    # the run ends at the first Newton iteration after the pulse passes
    # x_c = 0.05, with that step's residual history
    clean = _forced_arch_run(beam_curved_nl, FullSystem)
    # theta = 0.03 + 2e2 t is 0.05 at step 50 (dt = 2e-6)
    step = 51 + int(np.argmax(clean.newton_iterations[51:] > 0))
    model = _NanTangentBeam(beam_curved_nl.properties, beam_curved_nl.pulse)
    with pytest.raises(IntegrationError, match="not finite") as info:
        _forced_arch_run(model, FullSystem)
    assert info.value.step == step
    assert info.value.time == clean.times[step]
    history = info.value.residual_history
    assert len(history) >= 2 and np.isfinite(history[0]) and np.isnan(history[-1])


def test_energy_conservation_undamped_frozen_pulse():
    # no damping, no load, frozen temperature: total energy drifts only at
    # the integrator level over 100 periods of the first mode
    from thermrom.beam import BeamModel, BeamProperties, TemperaturePulse
    from thermrom.spectral import solve_equilibrium, vibration_modes

    props = BeamProperties(n_elements=12, damping_modulus=0.0)
    pulse = TemperaturePulse(height=30.0, width=0.02)
    model = BeamModel(props, pulse)
    x_c = 0.04
    u_eq = solve_equilibrium(model, x_c)
    omega, phi = vibration_modes(model, u_eq, x_c, 1)
    u0 = u_eq + 2e-4 / np.abs(phi[:, 0]).max() * phi[:, 0]
    system = FullSystem(model, theta_of_t=lambda t: x_c)
    period = 2.0 * np.pi / omega[0]
    steps_per_period = 100
    n = 100 * steps_per_period
    traj = newmark_integrate(system, u0, np.zeros_like(u0), period / steps_per_period,
                             n, NewmarkSettings(newton_tol=1e-10))

    mass = model.mass()
    energies = np.array([
        0.5 * v @ mass @ v + model.strain_energy(u, x_c)
        for u, v in zip(traj.displacement, traj.velocity)
    ])
    e_kin_max = max(0.5 * v @ mass @ v for v in traj.velocity)
    drift = np.abs(energies - energies[0]).max()
    assert drift <= 1e-2 * e_kin_max
