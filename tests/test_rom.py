"""Reduced transient systems: leading order, slow correction, constant
basis, reconstruction."""

import dataclasses
import gc
import types
import weakref

import numpy as np
import pytest

from thermrom import beam, kernels
from thermrom.basisdb import BasisDatabase, build_database, default_grid, interpolate_basis
from thermrom.errors import ContractError, IntegrationError
from thermrom.newmark import newmark_integrate
from thermrom.rom import (
    AdaptiveRom,
    ConstantBasisRom,
    CorrectionRom,
    FullSystem,
    reconstruct,
)
from thermrom.scenarios import _mms_reconstruction
from thermrom.spectral import build_local_basis, solve_equilibrium


L = 0.1


@pytest.fixture(scope="module")
def db_nl(beam_curved_nl):
    return build_database(beam_curved_nl, default_grid(L, 7), k=3, with_md=True)


def make_adaptive(model, db, eps=1e-3, nu=1.0e4, x0=0.03, amp=0.02, load=None):
    return AdaptiveRom(
        model,
        db,
        tau_of_t=lambda t: eps * nu * t,
        xc_of_tau=lambda tau: x0 + amp * np.sin(tau),
        load=load,
    )


# -- reconstruction ----------------------------------------------------------------

def test_reconstruct_identities(db_nl, rng):
    entry = db_nl.entries[2]
    v, u_eq = entry.matrix, entry.u_eq
    zero = np.zeros(v.shape[1])
    np.testing.assert_allclose(reconstruct(u_eq, v, zero), u_eq)
    q0 = rng.standard_normal(v.shape[1])
    q1 = rng.standard_normal(v.shape[1])
    np.testing.assert_allclose(reconstruct(u_eq, v, q0, q1, 0.0),
                               u_eq + v @ q0)
    np.testing.assert_allclose(reconstruct(u_eq, v, q0, q1, 0.1),
                               u_eq + v @ (q0 + 0.1 * q1))


def test_reconstruct_projection_identity(db_nl, beam_curved_nl, rng):
    # projecting an in-span state and reconstructing reproduces it exactly
    entry = db_nl.entries[3]
    v, u_eq = entry.matrix, entry.u_eq
    q_true = rng.standard_normal(v.shape[1])
    u = u_eq + v @ q_true
    q = v.T @ (u - u_eq)
    np.testing.assert_allclose(reconstruct(u_eq, v, q), u, rtol=1e-12)


@pytest.mark.parametrize("eps", [None, 1e-2], ids=["mms-o1", "mms-oeps"])
@pytest.mark.parametrize("single_entry", [False, True], ids=["chain", "single-entry"])
def test_batched_reconstruction_equals_per_step(db_nl, beam_curved_nl, eps, single_entry,
                                                rng):
    # one pass per run of saved times in one cell gives what interpolating
    # the basis and reconstructing at every saved time gives: on nodes,
    # mid-cell, clamped past either end, and on a single-entry database,
    # for runs of one and of many times, and for cells visited twice
    db = db_nl
    if single_entry:
        db = build_database(beam_curved_nl, [db_nl.grid[3]], k=3, with_md=True)
    grid = db_nl.grid
    positions = np.concatenate([
        grid, 0.5 * (grid[:-1] + grid[1:]), [0.5 * grid[0], grid[-1] + 0.01],
        rng.uniform(grid[0], grid[-1], 12)])
    rng.shuffle(positions)
    positions = np.concatenate([positions, np.sort(positions)])
    times = np.arange(positions.size, dtype=float)
    q0 = 1e-3 * rng.standard_normal((times.size, db.m))
    q1 = rng.standard_normal((times.size, db.m)) if eps else None

    def trajectory(q):
        return types.SimpleNamespace(times=times, displacement=q)

    scn = types.SimpleNamespace(database=db, config=types.SimpleNamespace(eps=eps),
                                xc_of_t=lambda t: positions[np.asarray(t, dtype=int)])
    got = _mms_reconstruction(scn, trajectory(q0), trajectory(q1) if eps else None)
    for i, x_c in enumerate(positions):
        v, u_eq = interpolate_basis(db, x_c)
        expect = reconstruct(u_eq, v, q0[i], None if q1 is None else q1[i], eps or 0.0)
        assert np.linalg.norm(got[i] - expect) <= 1e-13 * np.linalg.norm(expect), x_c


# -- leading-order system -----------------------------------------------------------

def test_o1_residual_zero_at_equilibrium(db_nl, beam_curved_nl):
    rom = make_adaptive(beam_curved_nl, db_nl, amp=0.0, x0=db_nl.grid[3])
    m = db_nl.m
    zero = np.zeros(m)
    rom.begin_step(0.0, 0.0)
    r = rom.residual(zero, zero, zero)
    # residual = V' f(u_eq): Newton tolerance of the equilibrium solve
    scale = np.linalg.norm(
        beam_curved_nl.internal_force(db_nl.entries[3].u_eq * 0.0, db_nl.grid[3]))
    assert np.linalg.norm(r) <= 1e-8 * (1.0 + scale)


def test_o1_linear_constant_basis_shifted_origin_identity(beam_curved_lin, rng):
    # with a constant basis and linear kinematics the residual equals the
    # classic projected linear model around the shifted origin
    model = beam_curved_lin
    x_c = 0.05
    u_eq = solve_equilibrium(model, x_c)
    basis = build_local_basis(model, x_c, k=3)
    v = basis.matrix

    rom = AdaptiveRom(model, build_database(model, [x_c], k=3),
                      tau_of_t=lambda t: 0.0, xc_of_tau=lambda tau: x_c)
    rom.begin_step(0.0, 0.0)
    m_red = v.T @ model.mass() @ v
    c_red = v.T @ model.damping() @ v
    k_red = v.T @ model.tangent_stiffness(u_eq, x_c) @ v
    for _ in range(3):
        q = rng.standard_normal(3)
        qd = rng.standard_normal(3)
        qdd = rng.standard_normal(3)
        r = rom.residual(q, qd, qdd)
        expect = m_red @ qdd + c_red @ qd + k_red @ q
        np.testing.assert_allclose(r, expect, atol=1e-6 * np.linalg.norm(expect))


def test_frozen_temperature_mms_equals_constant_basis(beam_curved_nl, db_nl):
    # single-configuration database, no pulse motion: the adaptive model and
    # a constant-basis model about the same origin agree to integrator level
    model = beam_curved_nl
    x_c = db_nl.grid[2]
    db1 = build_database(model, [x_c], k=3, with_md=True)
    entry = db1.entries[0]
    load = model.uniform_transverse_load(2e2)
    omega = 0.7 * entry.frequencies[0]

    rom_a = make_adaptive(model, db1, amp=0.0, x0=x_c,
                          load=lambda t: load * np.sin(omega * t))
    rom_c = ConstantBasisRom(model, entry.matrix,
                             theta_of_t=lambda t: x_c,
                             load=lambda t: load * np.sin(omega * t),
                             u_ref=entry.u_eq)
    m = entry.m
    dt = (2.0 * np.pi / omega) / 60.0
    traj_a = newmark_integrate(rom_a, np.zeros(m), np.zeros(m), dt, 240)
    traj_c = newmark_integrate(rom_c, np.zeros(m), np.zeros(m), dt, 240)
    scale = np.abs(traj_a.displacement).max()
    assert np.abs(traj_a.displacement - traj_c.displacement).max() <= 1e-10 * scale


def test_indefinite_reduced_mass_is_an_integration_error(beam_curved_nl, db_nl):
    # nodes V and -V blend to the zero basis at mid cell, whose reduced mass
    # is singular
    entry = db_nl.entries[3]
    db = BasisDatabase(grid=[0.03, 0.07], reference_index=0, kind=entry.kind, entries=[
        dataclasses.replace(entry, matrix=entry.matrix),
        dataclasses.replace(entry, matrix=-entry.matrix),
    ])
    rom = make_adaptive(beam_curved_nl, db, amp=0.0, x0=0.05)
    with pytest.raises(IntegrationError, match=r"cell j = 0, w = 0\.5") as info:
        rom.begin_step(0.0, 2e-4)
    assert info.value.time == 2e-4
    assert "x_c = 0.05" in str(info.value)


def test_constant_basis_mass_is_checked_once(beam_curved_nl, db_nl, monkeypatch):
    # one node, one reduced mass: one Cholesky when the model is built,
    # none per step
    calls = []
    cholesky = np.linalg.cholesky
    monkeypatch.setattr(np.linalg, "cholesky", lambda a: calls.append(1) or cholesky(a))
    entry = db_nl.entries[3]
    rom = ConstantBasisRom(beam_curved_nl, entry.matrix, theta_of_t=lambda t: entry.x_c,
                           u_ref=entry.u_eq)
    assert len(calls) == 1
    zero = np.zeros(db_nl.m)
    newmark_integrate(rom, zero, zero, 1e-6, 20)
    assert len(calls) == 1
    # a zero column makes the reduced mass singular: the build fails
    singular = np.column_stack([entry.matrix, np.zeros(beam_curved_nl.dof_count)])
    with pytest.raises(IntegrationError, match="basis node j = 0"):
        ConstantBasisRom(beam_curved_nl, singular, u_ref=entry.u_eq)


def test_constant_basis_identity_equals_full(beam_straight_nl):
    # V = identity reproduces the unreduced trajectories
    model = beam_straight_nl
    n = model.dof_count
    load = model.uniform_transverse_load(1e3)
    x_c = 0.05
    u0 = solve_equilibrium(model, x_c)
    omega = 3.0e4

    full = FullSystem(model, theta_of_t=lambda t: x_c,
                      load=lambda t: load * np.sin(omega * t))
    rom = ConstantBasisRom(model, np.eye(n), theta_of_t=lambda t: x_c,
                           load=lambda t: load * np.sin(omega * t))
    dt = (2.0 * np.pi / omega) / 50.0
    traj_f = newmark_integrate(full, u0, np.zeros(n), dt, 100)
    traj_r = newmark_integrate(rom, u0.copy(), np.zeros(n), dt, 100)
    scale = np.abs(traj_f.displacement).max()
    assert np.abs(traj_f.displacement - traj_r.displacement).max() <= 1e-9 * scale


# -- reduced evaluation against the projected full model ----------------------------

@pytest.fixture(scope="module", params=["beam_straight_nl", "beam_curved_lin", "beam_curved_nl"])
def model_and_db(request):
    model = request.getfixturevalue(request.param)
    return model, build_database(model, default_grid(L, 5), k=3)


def _close(got, expect, rel=1e-12):
    assert np.linalg.norm(got - expect) <= rel * np.linalg.norm(expect)


@pytest.mark.parametrize("where", ["node", "mid-cell", "clamped", "single-entry"])
def test_reduced_operators_match_projection(model_and_db, where, rng):
    # the reduced force, tangent, mass and damping equal V'f(u_org + V q),
    # V'K_t V, V'MV and V'CV of the interpolated basis V(w)
    model, db = model_and_db
    grid = db.grid
    x_c = {"node": grid[2], "mid-cell": 0.5 * (grid[1] + grid[2]),
           "clamped": 0.5 * grid[0], "single-entry": grid[3]}[where]
    if where == "single-entry":
        db = build_database(model, [x_c], k=3)
    v, u_org = interpolate_basis(db, x_c)
    q = 1e-4 * rng.standard_normal(db.m)
    u = u_org + v @ q
    zero = np.zeros(db.m)

    adaptive = AdaptiveRom(model, db, tau_of_t=lambda t: 0.0, xc_of_tau=lambda tau: x_c)
    constant = ConstantBasisRom(model, v, theta_of_t=lambda t: x_c, u_ref=u_org)
    for rom in (adaptive, constant):
        rom.begin_step(0.0, 0.0)
        _close(rom.residual(q, zero, zero), v.T @ model.internal_force(u, x_c))
        _close(rom.iteration_matrix(0.0, 0.0),
               v.T @ model.tangent_stiffness(u, x_c) @ v)
        _close(rom.mass(), v.T @ model.mass() @ v)
        _close(rom._c_red, v.T @ model.damping() @ v)


def test_iteration_matrix_follows_coefficients_and_steps(beam_curved_nl, db_nl, rng):
    # the per-step part c_acc M + c_vel C + K_const is formed once per
    # coefficient pair and operator blend: a second pair in the same step,
    # and the first call of the next step, still give the whole matrix
    model = beam_curved_nl
    eps, nu, x0, amp = 1e-3, 1.0e4, 0.03, 0.02

    def x_c_of(t0, t1):
        return x0 + amp * np.sin(eps * nu * 0.5 * (t0 + t1))

    adaptive = make_adaptive(model, db_nl, eps=eps, nu=nu, x0=x0, amp=amp)
    entry = db_nl.entries[3]
    constant = ConstantBasisRom(model, entry.matrix, theta_of_t=lambda t: x_c_of(t, t),
                                u_ref=entry.u_eq)
    q = 1e-4 * rng.standard_normal(db_nl.m)
    zero = np.zeros(db_nl.m)
    for rom in (adaptive, constant):
        for t0, t1 in ((0.0, 3e-3), (3e-3, 6e-3), (40.0, 40.003)):
            x_c = x_c_of(t0, t1)
            if rom is constant:
                v, u_org = entry.matrix, entry.u_eq
                x_c = x_c_of(t1, t1)
            else:
                v, u_org = interpolate_basis(db_nl, x_c)
            rom.begin_step(t0, t1)
            rom.residual(q, zero, zero)
            k_t = v.T @ model.tangent_stiffness(u_org + v @ q, x_c) @ v
            m_red, c_red = v.T @ model.mass() @ v, v.T @ model.damping() @ v
            for c_acc, c_vel in ((4.0e9, 1.0e5), (1.0e9, 3.0e4), (4.0e9, 1.0e5)):
                _close(rom.iteration_matrix(c_acc, c_vel),
                       c_acc * m_red + c_vel * c_red + k_t)


def test_reduced_solve_is_lapack_gesv(db_nl, beam_curved_nl, rng):
    rom = make_adaptive(beam_curved_nl, db_nl)
    m = db_nl.m
    s_mat = rng.standard_normal((m, m)) + m * np.eye(m)
    rhs = rng.standard_normal(m)
    expect = np.linalg.solve(s_mat, rhs)
    x = rom.solve(s_mat.copy(), rhs.copy())
    assert np.linalg.norm(x - expect) <= 1e-13 * np.linalg.norm(expect)
    singular = s_mat.copy()
    singular[:, 1] = 0.0
    with pytest.raises(np.linalg.LinAlgError):
        rom.solve(singular, rhs.copy())


@pytest.mark.parametrize("name", ["beam_straight_nl", "beam_curved_lin", "beam_curved_nl"])
def test_full_residual_from_the_bands(name, request, rng):
    # M a + C v from the bands of M and C equals the dense products
    model = request.getfixturevalue(name)
    n = model.dof_count
    load = model.uniform_transverse_load(1e3)
    system = FullSystem(model, theta_of_t=lambda t: 0.04, load=lambda t: load * np.cos(t))
    system.begin_step(0.0, 0.3)
    u, v, a = (s * rng.standard_normal(n) for s in (1e-5, 1e-2, 1e2))
    expect = (model.mass() @ a + model.damping() @ v + model.internal_force(u, 0.04)
              - load * np.cos(0.3))
    got = system.residual(u, v, a)
    assert np.linalg.norm(got - expect) <= 1e-14 * np.linalg.norm(expect)


def test_reduced_models_skip_full_kernels(beam_curved_nl, db_nl, monkeypatch):
    # a few integrated steps of the Galerkin models assemble nothing of
    # full size: the full kernels are replaced by a trap
    def trap(*args, **kwargs):
        raise AssertionError("full-size kernel called by a reduced model")

    for name in ("beam_linearization", "beam_force", "beam_force_and_tangent"):
        monkeypatch.setattr(kernels, name, trap)
    model = beam_curved_nl
    entry = db_nl.entries[3]
    load = model.uniform_transverse_load(2e2)
    omega = 0.7 * entry.frequencies[0]
    roms = (
        make_adaptive(model, db_nl, load=lambda t: load * np.sin(omega * t)),
        ConstantBasisRom(model, entry.matrix, theta_of_t=lambda t: entry.x_c,
                         load=lambda t: load * np.sin(omega * t), u_ref=entry.u_eq),
    )
    for rom in roms:
        zero = np.zeros(db_nl.m)
        traj = newmark_integrate(rom, zero, zero, (2.0 * np.pi / omega) / 40.0, 5)
        assert np.all(np.isfinite(traj.displacement))
        assert np.abs(traj.displacement).max() > 0.0


# -- per-step freeze ----------------------------------------------------------------

def _step_systems(model, db, load):
    """The four transient systems on one beam and database, each with its
    initial state, and the step of a 5-step integration."""
    entry = db.entries[3]
    omega = 0.7 * entry.frequencies[0]
    m = db.m
    systems = {
        "full": (FullSystem(model, theta_of_t=lambda t: entry.x_c, load=load), entry.u_eq),
        "adaptive": (make_adaptive(model, db, load=load), np.zeros(m)),
        "constant": (ConstantBasisRom(model, entry.matrix, theta_of_t=lambda t: entry.x_c,
                                      load=load, u_ref=entry.u_eq), np.zeros(m)),
        "correction": (CorrectionRom(make_adaptive(model, db), nu=1.0e4,
                                     q0_of_t=lambda t: (1e-4 * np.sin(omega * t) * np.ones(m),
                                                        np.zeros(m)),
                                     eps_load=load, dxc_dtau=lambda tau: 0.02 * np.cos(tau)),
                       np.zeros(m)),
    }
    return systems, (2.0 * np.pi / omega) / 40.0


def _sine_load(model, db, calls):
    """A transverse sine load that appends each time it is read to ``calls``."""
    l_vec = model.uniform_transverse_load(2e2)
    omega = 0.7 * db.entries[3].frequencies[0]

    def load(t):
        calls.append(t)
        return l_vec * np.sin(omega * t)
    return load


def test_every_system_reads_its_load_once_per_step(beam_curved_nl, db_nl):
    # time enters only through begin_step: a 5-step integration reads the
    # load once for the initial residual and once per step, however many
    # Newton iterations the steps take
    calls = []
    systems, dt = _step_systems(beam_curved_nl, db_nl,
                                _sine_load(beam_curved_nl, db_nl, calls))
    for name, (system, u0) in systems.items():
        calls.clear()
        newmark_integrate(system, u0, np.zeros_like(u0), dt, 5)
        assert calls == [0.0] + [dt * k for k in range(1, 6)], name


def test_one_weak_form_per_residual(beam_curved_nl, db_nl, monkeypatch):
    # each Newton iterate evaluates the weak form once, in its residual; the
    # iteration matrix reuses it. The Gauss temperatures are evaluated once
    # per step, in begin_step.
    count = {"residual": 0, "weak_form": 0, "temperature": 0}

    def counted(name, fn):
        def wrapped(*args, **kwargs):
            count[name] += 1
            return fn(*args, **kwargs)
        return wrapped

    for name in ("_element_weak_form", "_reduced_weak_form"):
        monkeypatch.setattr(kernels, name, counted("weak_form", getattr(kernels, name)))
    monkeypatch.setattr(beam, "pulse_temperature",
                        counted("temperature", beam.pulse_temperature))
    systems, dt = _step_systems(beam_curved_nl, db_nl, _sine_load(beam_curved_nl, db_nl, []))
    for name in ("full", "adaptive", "constant"):
        system, u0 = systems[name]
        system.residual = counted("residual", system.residual)
        count.update(residual=0, weak_form=0, temperature=0)
        traj = newmark_integrate(system, u0, np.zeros_like(u0), dt, 5)
        assert traj.newton_iterations[1:].min() >= 1, name
        assert count["weak_form"] == count["residual"], (name, count)
        assert count["temperature"] == 6, (name, count)


def test_systems_are_freed_without_the_cycle_collector(beam_curved_nl, db_nl):
    # what a residual keeps for its iteration matrix must not refer back to
    # the system: a reference cycle would keep every integrated model (and
    # its operator blocks) alive until a full garbage collection
    systems, dt = _step_systems(beam_curved_nl, db_nl, _sine_load(beam_curved_nl, db_nl, []))
    enabled = gc.isenabled()
    gc.disable()
    try:
        for name in list(systems):
            system, u0 = systems.pop(name)
            newmark_integrate(system, u0, np.zeros_like(u0), dt, 5)
            ref = weakref.ref(system)
            del system
            assert ref() is None, name
    finally:
        if enabled:
            gc.enable()


# -- slow correction ----------------------------------------------------------------

def _correction_rhs(corr, t):
    """Right-hand side of the correction frozen for a step ending at ``t``."""
    corr.begin_step(t, t)
    zero = np.zeros(corr.ndof)
    return -corr.residual(zero, zero, zero)


def _correction_tangent(corr, t):
    """Stiffness of the correction frozen for a step ending at ``t``."""
    corr.begin_step(t, t)
    zero = np.zeros(corr.ndof)
    corr.residual(zero, zero, zero)
    return corr.iteration_matrix(0.0, 0.0)


def test_correction_zero_rhs_for_frozen_pulse(beam_curved_nl, db_nl):
    # stationary pulse and eps-independent load: q1 stays identically zero
    model = beam_curved_nl
    x_c = db_nl.grid[3]
    m = db_nl.m

    corr = CorrectionRom(
        make_adaptive(model, db_nl, amp=0.0, x0=x_c),
        q0_of_t=lambda t: (np.zeros(m), np.zeros(m)),
        nu=1.0e4, dxc_dtau=lambda tau: 0.0,
    )
    assert np.linalg.norm(_correction_rhs(corr, 0.37)) == 0.0
    traj = newmark_integrate(corr, np.zeros(m), np.zeros(m), 1e-5, 50)
    assert np.abs(traj.displacement).max() <= 1e-12


def test_correction_small_forcing_includes_eps_load(beam_curved_nl, db_nl):
    # purely eps-scaled mechanical load: the correction right-hand side is
    # the projected load when the pulse is frozen
    model = beam_curved_nl
    x_c = db_nl.grid[3]
    m = db_nl.m
    l_vec = model.uniform_transverse_load(5e2)

    corr = CorrectionRom(
        make_adaptive(model, db_nl, amp=0.0, x0=x_c),
        q0_of_t=lambda t: (np.zeros(m), np.zeros(m)),
        nu=1.0e4, eps_load=lambda t: l_vec * np.cos(3.0 * t),
        dxc_dtau=lambda tau: 0.0,
    )
    v, _ = interpolate_basis(db_nl, x_c)
    expect = v.T @ (l_vec * np.cos(0.6))
    np.testing.assert_allclose(_correction_rhs(corr, 0.2), expect,
                               atol=1e-12 * np.abs(expect).max())


def test_correction_rhs_matches_2d_finite_difference_oracle(beam_curved_nl, db_nl):
    # brute-force oracle: finite-difference u0(t, tau) on a (t, tau) stencil.
    # At t* the pulse sits at the midpoint of a grid cell, where the basis
    # derivative's half-cell stencil gives the cell's exact slope, and the
    # oracle's stencil stays inside the same cell.
    model = beam_curved_nl
    m = db_nl.m
    eps, nu = 1e-3, 1.1e4
    x0, amp = 0.04, 0.015
    rng = np.random.default_rng(3)
    qa = 1e-4 * rng.standard_normal(m)
    qb = 1e-4 * rng.standard_normal(m)
    om = 2.0e3

    def q0_of_t(t):
        return qa * np.sin(om * t) + qb, om * qa * np.cos(om * t)

    def xc_of_tau(tau):
        return x0 + amp * np.sin(tau)

    leading = AdaptiveRom(model, db_nl, tau_of_t=lambda t: eps * nu * t,
                          xc_of_tau=xc_of_tau)
    corr = CorrectionRom(leading, q0_of_t=q0_of_t, nu=nu,
                         dxc_dtau=lambda tau: amp * np.cos(tau))
    x_mid = 0.5 * (db_nl.grid[2] + db_nl.grid[3])
    tau_star = np.arcsin((x_mid - x0) / amp)
    t_star = tau_star / (eps * nu)
    rhs = _correction_rhs(corr, t_star)

    def u0_field(t, tau):
        v, u_eq = interpolate_basis(db_nl, xc_of_tau(tau))
        return u_eq + v @ q0_of_t(t)[0]

    d_tau = 1e-6
    d_t = 1e-7
    du0_dtau = (u0_field(t_star, tau_star + d_tau)
                - u0_field(t_star, tau_star - d_tau)) / (2.0 * d_tau)
    d2u0 = (u0_field(t_star + d_t, tau_star + d_tau)
            - u0_field(t_star + d_t, tau_star - d_tau)
            - u0_field(t_star - d_t, tau_star + d_tau)
            + u0_field(t_star - d_t, tau_star - d_tau)) / (4.0 * d_t * d_tau)
    v, _ = interpolate_basis(db_nl, xc_of_tau(tau_star))
    oracle = v.T @ (
        -2.0 * nu * (model.mass() @ d2u0)
        - 1.0 * nu * (model.damping() @ du0_dtau)
    )
    np.testing.assert_allclose(rhs, oracle, atol=1e-5 * np.linalg.norm(oracle))


def test_correction_tangent_projection_oracle(beam_curved_nl, db_nl, rng):
    model = beam_curved_nl
    m = db_nl.m
    q_fixed = 1e-4 * rng.standard_normal(m)

    leading = AdaptiveRom(model, db_nl, tau_of_t=lambda t: 0.1,
                          xc_of_tau=lambda tau: 0.045)
    corr = CorrectionRom(
        leading,
        q0_of_t=lambda t: (q_fixed * np.cos(100.0 * t), np.zeros(m)),
        nu=1.0e4, dxc_dtau=lambda tau: 0.0,
    )
    v, u_eq = interpolate_basis(db_nl, 0.045)
    for t in rng.uniform(0.0, 1.0, size=4):
        u0 = u_eq + v @ (q_fixed * np.cos(100.0 * t))
        expect = v.T @ model.tangent_stiffness(u0, 0.045) @ v
        got = _correction_tangent(corr, t)
        np.testing.assert_allclose(got, expect, rtol=1e-10)
        assert np.allclose(got, got.T)


def test_correction_tangent_constant_for_linear(beam_curved_lin):
    model = beam_curved_lin
    db = build_database(model, default_grid(L, 5), k=3)
    m = db.m
    rng = np.random.default_rng(0)

    def q0_of_t(t):
        return rng.standard_normal(m) * 0.0, np.zeros(m)

    leading = AdaptiveRom(model, db, tau_of_t=lambda t: 0.0,
                          xc_of_tau=lambda tau: db.grid[2])
    corr = CorrectionRom(leading, q0_of_t=q0_of_t, nu=1e4, dxc_dtau=lambda tau: 0.0)
    k1 = _correction_tangent(corr, 0.0)
    k2 = _correction_tangent(corr, 0.5)
    np.testing.assert_allclose(k1, k2, rtol=1e-12)


def test_correction_missing_history_contract(db_nl, beam_curved_nl):
    from thermrom.scenarios import _GridLookup
    from thermrom.models import Trajectory

    tr = Trajectory(times=np.array([0.0, 0.1, 0.2]),
                    displacement=np.zeros((3, 2)), velocity=np.zeros((3, 2)),
                    acceleration=np.zeros((3, 2)), coordinate_space="reduced:x")
    lookup = _GridLookup(tr)
    lookup(0.1)
    with pytest.raises(ContractError):
        lookup(0.15)
