"""Reduced transient systems: leading order, slow correction, constant
basis, reconstruction."""

import dataclasses
import gc
import tracemalloc
import types
import weakref

import numpy as np
import pytest

from thermrom import beam, kernels, rom
from thermrom.basisdb import (
    BasisDatabase,
    build_database,
    default_grid,
    interpolate_basis,
    slow_basis_derivative,
)
from thermrom.errors import ContractError, IntegrationError
from thermrom.models import AffineForces
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
    q = rng.standard_normal((2, v.shape[1]))
    np.testing.assert_allclose(reconstruct(u_eq, v, q[0]), u_eq + v @ q[0])
    np.testing.assert_allclose(reconstruct(u_eq, v, q), u_eq + q @ v.T)


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
        expect = reconstruct(u_eq, v, q0[i] if q1 is None else q0[i] + eps * q1[i])
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
    # one node, one reduced mass: one check of one mass when the model is
    # built, none per step
    calls, check = [], rom._not_positive_definite
    monkeypatch.setattr(rom, "_not_positive_definite",
                        lambda masses: calls.append(len(masses)) or check(masses))
    entry = db_nl.entries[3]
    rom_ = ConstantBasisRom(beam_curved_nl, entry.matrix, theta_of_t=lambda t: entry.x_c,
                            u_ref=entry.u_eq)
    assert calls == [1]
    zero = np.zeros(db_nl.m)
    newmark_integrate(rom_, zero, zero, 1e-6, 20)
    assert calls == [1]
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

@pytest.fixture(scope="module", params=["beam_straight_nl", "beam_straight_lin",
                                        "beam_curved_lin", "beam_curved_nl"])
def model_and_db(request):
    model = request.getfixturevalue(request.param)
    return model, build_database(model, default_grid(L, 5), k=3)


def _close(got, expect, rel=1e-12):
    assert np.linalg.norm(got - expect) <= rel * np.linalg.norm(expect)


@pytest.mark.parametrize("where", ["node", "mid-cell", "clamped", "single-entry",
                                   "straddles-start", "off-span"])
def test_reduced_operators_match_projection(model_and_db, where, rng):
    # the reduced force, tangent, mass and damping equal V'f(u_org + V q),
    # V'K_t V, V'MV and V'CV of the interpolated basis V(w), also where the
    # pulse window straddles the beam start or lies off the span
    model, db = model_and_db
    grid = db.grid
    x_c = {"node": grid[2], "mid-cell": 0.5 * (grid[1] + grid[2]),
           "clamped": 0.5 * grid[0], "single-entry": grid[3],
           "straddles-start": 0.1 * model.pulse.width, "off-span": -L}[where]
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


@pytest.mark.parametrize("name", ["beam_curved_nl", "beam_curved_lin"])
def test_full_iteration_matrix_follows_coefficients_and_steps(name, request, rng):
    # c_acc M + c_vel C is formed once per coefficient pair and damping band:
    # a second pair in the same step, and the first call of the next step,
    # still give the dense c_acc M + c_vel C + K_t, bit for bit, with K_t the
    # band of the model's linearization at the step's temperature
    model = request.getfixturevalue(name)
    n, p = model.dof_count, model.half_bandwidth
    system = FullSystem(model, theta_of_t=lambda t: 0.03 + 2e2 * t)
    zero = np.zeros(n)
    for t0, t1 in ((0.0, 1e-4), (1e-4, 2e-4)):
        system.begin_step(t0, t1)
        u = 1e-5 * rng.standard_normal(n)
        system.residual(u, zero, zero)
        k_t = kernels.band_to_dense(model.linearizations([0.03 + 2e2 * t1])(0)(u)[1]())
        for c_acc, c_vel in ((4.0e9, 1.0e5), (1.0e9, 3.0e4), (4.0e9, 1.0e5)):
            got = kernels.band_to_dense(system.iteration_matrix(c_acc, c_vel)[p:])
            assert np.array_equal(got, c_acc * model.mass() + c_vel * model.damping() + k_t)


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


@pytest.fixture(scope="module")
def beams_and_dbs(beam_curved_nl, db_nl, beam_straight_lin, beam_curved_lin, db_curved_vm):
    """Each coarse kinematics with a database on it: ``db_nl`` on the curved
    nonlinear beam, vibration-mode databases on the linear beams."""
    return {
        "curved-nonlinear": (beam_curved_nl, db_nl),
        "straight-linear": (beam_straight_lin,
                            build_database(beam_straight_lin, default_grid(L, 7), k=3)),
        "curved-linear": (beam_curved_lin, db_curved_vm),
    }


def test_one_weak_form_per_residual(beams_and_dbs, monkeypatch):
    # each Newton iterate evaluates the weak form once, in its residual; the
    # iteration matrix reuses it. Under linear kinematics the force is
    # K u + b from the cold operators and the thermal part: neither the full
    # nor a reduced model evaluates a weak form. The Gauss temperatures of
    # the run's six begin_step calls are evaluated at once, in the first:
    # they are one block of planned steps.
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
    for kinematics, (model, db) in beams_and_dbs.items():
        systems, dt = _step_systems(model, db, _sine_load(model, db, []))
        for name in ("full", "adaptive", "constant"):
            system, u0 = systems[name]
            system.residual = counted("residual", system.residual)
            count.update(residual=0, weak_form=0, temperature=0)
            traj = newmark_integrate(system, u0, np.zeros_like(u0), dt, 5)
            where = (kinematics, name, count)
            assert traj.newton_iterations[1:].min() >= 1, where
            if model.linear_kinematics:
                assert count["weak_form"] == 0 < count["residual"], where
            else:
                assert count["weak_form"] == count["residual"], where
            assert count["temperature"] == 1, where


def test_systems_are_freed_without_the_cycle_collector(beams_and_dbs):
    # what a residual keeps for its iteration matrix must not refer back to
    # the system: a reference cycle would keep every integrated model (and
    # its operator blocks) alive until a full garbage collection
    enabled = gc.isenabled()
    gc.disable()
    try:
        for kinematics, (model, db) in beams_and_dbs.items():
            systems, dt = _step_systems(model, db, _sine_load(model, db, []))
            for name in list(systems):
                system, u0 = systems.pop(name)
                newmark_integrate(system, u0, np.zeros_like(u0), dt, 5)
                ref = weakref.ref(system)
                del system
                assert ref() is None, (kinematics, name)
    finally:
        if enabled:
            gc.enable()


@pytest.mark.parametrize("kinematics", ["straight-linear", "curved-linear"])
def test_linear_residual_after_the_tangent_is_the_direct_one(beams_and_dbs, kinematics, rng):
    # under linear kinematics a residual after iteration_matrix is the
    # step's first force plus the tangent times the state change: it equals
    # the direct evaluation, dense for the full model and V'f(u_org + V q)
    # for the Galerkin models, on two iterates
    model, db = beams_and_dbs[kinematics]
    x_c = 0.5 * (db.grid[3] + db.grid[4])
    g = model.uniform_transverse_load(2e2)
    v, u_org = interpolate_basis(db, x_c)
    systems = {
        "full": (FullSystem(model, theta_of_t=lambda t: x_c, load=lambda t: g),
                 np.eye(model.dof_count), np.zeros(model.dof_count)),
        "adaptive": (AdaptiveRom(model, db, tau_of_t=lambda t: 0.0,
                                 xc_of_tau=lambda tau: x_c, load=lambda t: g), v, u_org),
        "constant": (ConstantBasisRom(model, v, theta_of_t=lambda t: x_c,
                                      load=lambda t: g, u_ref=u_org), v, u_org),
    }
    mass, damping = model.mass(), model.damping()
    for name, (system, basis, origin) in systems.items():
        system.begin_step(0.0, 1e-6)
        m = basis.shape[1]
        system.residual(*(1e-4 * rng.standard_normal((3, m))))
        for _ in range(2):
            system.iteration_matrix(4.0e9, 1.0e5)
            q, qd, qdd = (s * rng.standard_normal(m) for s in (1e-4, 1e-2, 1e2))
            expect = basis.T @ (mass @ (basis @ qdd) + damping @ (basis @ qd)
                                + model.internal_force(origin + basis @ q, x_c) - g)
            _close(system.residual(q, qd, qdd), expect)


# -- frozen blocks of steps ---------------------------------------------------------

def _sweep_systems(model, db, n_steps):
    """The four systems on one beam and database, with the pulse swept from
    past the beam start (clamped below the grid, its window crossing the
    start) to past the beam end over ``n_steps`` steps, each with its
    initial state, and the step."""
    entry = db.entries[3]
    omega = 0.7 * entry.frequencies[0]
    dt = (2.0 * np.pi / omega) / 40.0
    duration = n_steps * dt
    l_vec = model.uniform_transverse_load(2e2)
    m = db.m

    def x_c(t):
        return -0.01 + (L + 0.02) * t / duration

    def load(t):
        return l_vec * np.sin(omega * t)

    def adaptive():
        return AdaptiveRom(model, db, tau_of_t=lambda t: np.pi * t / duration - 0.5 * np.pi,
                           xc_of_tau=lambda tau: 0.5 * L + (0.5 * L + 0.01) * np.sin(tau),
                           load=load)

    def q0_of_t(t):
        return 1e-4 * np.sin(omega * t) * np.ones(m), 1e-4 * omega * np.cos(omega * t) * np.ones(m)

    return {
        "full": (lambda: FullSystem(model, theta_of_t=x_c, load=load), entry.u_eq),
        "adaptive": (adaptive, np.zeros(m)),
        "constant": (lambda: ConstantBasisRom(model, entry.matrix, theta_of_t=x_c, load=load,
                                              u_ref=entry.u_eq), np.zeros(m)),
        "correction": (lambda: CorrectionRom(adaptive(), q0_of_t=q0_of_t, nu=omega,
                                             eps_load=load, dxc_dtau=lambda tau: np.cos(tau)),
                       np.zeros(m)),
    }, dt


@pytest.mark.parametrize("kinematics", ["curved-nonlinear", "straight-linear", "curved-linear"])
def test_frozen_blocks_equal_one_interval_at_a_time(beams_and_dbs, kinematics):
    # an integrated run, whose begin_step reads rows frozen for blocks of
    # planned steps, equals, bit for bit, a run whose every begin_step is
    # off the plan and freezes its one interval: over a run of two blocks
    # and a partial third, with the pulse window crossing both beam ends
    # and the basis clamped at both grid ends
    model, db = beams_and_dbs[kinematics]
    n_steps = 2 * rom.BLOCK_STEPS + 5
    systems, dt = _sweep_systems(model, db, n_steps)
    for name, (make, u0) in systems.items():
        planned = newmark_integrate(make(), u0, np.zeros_like(u0), dt, n_steps)
        system = make()
        system.plan_steps = lambda t_start, t_end: None
        alone = newmark_integrate(system, u0, np.zeros_like(u0), dt, n_steps)
        assert planned.newton_iterations[1:].min() >= 1, (kinematics, name)
        for field in ("displacement", "velocity", "acceleration", "newton_iterations"):
            got, expect = getattr(planned, field), getattr(alone, field)
            assert got.tobytes() == expect.tobytes(), (kinematics, name, field)


@pytest.mark.parametrize("kinematics", ["straight-linear", "curved-nonlinear"])
def test_frozen_blocks_hold_no_array_sized_by_the_run(beams_and_dbs, kinematics):
    # a frozen block holds BLOCK_STEPS rows, and the last block goes before
    # the next is frozen: what an integration allocates beyond its
    # histories grows with the run by less than one float per step and
    # full-model unknown, the growth a freeze of the whole run would take
    # (measured: 0.12 of it for every system, from 2 to 16 blocks)
    model, db = beams_and_dbs[kinematics]

    def extra_bytes(n_steps):
        systems, dt = _sweep_systems(model, db, n_steps)
        out = {}
        for name, (make, u0) in systems.items():
            system = make()
            tracemalloc.start()
            try:
                run = newmark_integrate(system, u0, np.zeros_like(u0), dt, n_steps)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            out[name] = peak - sum(getattr(run, f).nbytes
                                   for f in ("displacement", "velocity", "acceleration"))
        return out

    short, long = 2 * rom.BLOCK_STEPS, 16 * rom.BLOCK_STEPS
    stray = (long - short) * model.dof_count * 8
    before, after = extra_bytes(short), extra_bytes(long)
    for name in before:
        assert after[name] - before[name] < stray, (name, before[name], after[name], stray)


@pytest.mark.parametrize("kinematics", ["curved-nonlinear", "straight-linear"])
def test_block_temperatures_are_those_of_each_position(beams_and_dbs, kinematics, rng):
    # the heated windows and Gauss temperatures of an array of positions are
    # those of each position alone, bit for bit, also where the window
    # crosses a beam end or lies off the span; every heated point lies in
    # its window
    model = beams_and_dbs[kinematics][0]
    width = model.pulse.width
    # window edges on every Gauss point, where the window holds most elements
    edges = model.x_gauss.ravel()
    positions = np.concatenate([[-L, -0.5 * width, 0.0, 0.3 * width, L - 0.3 * width, L,
                                 L + 0.5 * width, 2 * L], rng.uniform(-0.01, L + 0.01, 40),
                                edges + 0.5 * width, edges - 0.5 * width])
    first, heated = model.heated_elements(positions)
    t_all = model.gauss_temperature(positions)
    for i, x_c in enumerate(positions):
        alone_first, alone = model.heated_elements(x_c)
        expect = model.gauss_temperature(x_c)
        assert first[i] == alone_first and heated[i].tobytes() == alone.tobytes(), x_c
        assert t_all[i].tobytes() == expect.tobytes(), x_c
        window = np.arange(first[i], first[i] + len(alone))
        assert heated[i].tobytes() == expect[window].tobytes(), x_c
        assert not np.delete(expect, window, axis=0).any(), x_c


def test_singular_blended_mass_in_a_block_raises_at_its_step(beam_curved_nl, db_nl):
    # a step whose blended reduced mass is singular, in the middle of a
    # block, raises at its own begin_step, with its t_end and cell: the
    # steps before it, frozen in the same block, integrate
    entry = db_nl.entries[3]
    db = BasisDatabase(grid=[0.03, 0.07], reference_index=0, kind=entry.kind, entries=[
        dataclasses.replace(entry, matrix=entry.matrix),
        dataclasses.replace(entry, matrix=-entry.matrix),
    ])
    dt, bad = 1e-6, rom.BLOCK_STEPS + 10
    # from step `bad` on the step midpoint puts the pulse at mid cell
    rom_ = AdaptiveRom(beam_curved_nl, db, tau_of_t=lambda t: t,
                       xc_of_tau=lambda tau: np.where(tau < (bad - 1) * dt, 0.04, 0.05))
    zero = np.zeros(db.m)
    with pytest.raises(IntegrationError, match=r"cell j = 0, w = 0\.5") as info:
        newmark_integrate(rom_, zero, zero, dt, 2 * rom.BLOCK_STEPS)
    assert info.value.time == dt * bad
    assert "x_c = 0.05" in str(info.value)


def _step_operators(system, t0, t1):
    """Mass, damping and ``K_const`` of the step ``(t0, t1)`` and the force
    blocks of its blend, formed for that step alone with the blend written
    out; a step on a node takes the node's blocks."""
    m = system.ndof
    _, theta, cell, weight = system._place(np.array([t0]), np.array([t1]))
    j, w = int(cell[0]), float(weight[0])
    blocks = system._node_blocks[j].copy()
    if w != 0.0:
        blocks *= (1.0 - w) ** 2
        blocks += system._cross_blocks[j] * (w * (1.0 - w))
        blocks += system._node_blocks[j + 1] * w ** 2
    linearization = system.model.reduced_linearizations(
        system._node_rows, theta, cell, np.minimum(cell + 1, len(system._bases) - 1), weight,
        blocks[None, 2 * m:])
    return blocks[:m], blocks[m:2 * m], blocks[2 * m:3 * m], linearization


@pytest.mark.parametrize("name", ["straight-linear mms-o1", "straight-linear modal-pod",
                                  "curved-nonlinear correction", "curved-nonlinear mms-o1",
                                  "curved-nonlinear modal-pod"])
def test_block_rows_equal_the_step_alone(beams_and_dbs, name, rng):
    # the residual of a planned step and the iteration matrix it reads from
    # its block equal those formed for that step alone, bit for bit: over
    # two blocks and a partial third, with the pulse on grid nodes, inside
    # cells and clamped past the grid ends, so that blocks mix blended and
    # unblended steps, and with alternating coefficient pairs. An affine
    # force gives M qdd + C qd + (f + J q) - g and (c_acc M + c_vel C +
    # K_const) + S_T, with S_T its thermal tangent, and for the correction
    # the tangent at the step's q0, with J = K_const + S_T and no constant
    # force. Any other gives M qdd + C qd + f(q) - g and (c_acc M + c_vel C
    # + K_const) + tangent(), the tangent of the step's linearization at
    # the residual's q
    kinematics, method = name.split()
    model, db = beams_and_dbs[kinematics]
    g, m, nu, dt = db.grid, db.m, 2.0e3, 1e-5
    n_steps = 2 * rom.BLOCK_STEPS + 10
    positions = np.concatenate([g, g[:-1] + rng.uniform(0.05, 0.95, g.size - 1) * np.diff(g),
                                [g[0] - 0.01, g[-1] + 0.01]])
    positions = rng.permutation(np.resize(positions, n_steps + 1))
    qa = 1e-4 * rng.standard_normal(m)
    l_vec = model.uniform_transverse_load(3e2)

    def load(t):
        return l_vec * np.cos(nu * t)

    # the step midpoint's slow phase is the step's index, plus one half
    leading = AdaptiveRom(model, db, tau_of_t=lambda t: t / dt, load=load,
                          xc_of_tau=lambda tau: positions[np.floor(tau).astype(int)])
    system = {
        "mms-o1": leading,
        "modal-pod": ConstantBasisRom(
            model, db.entries[2].matrix, load=load, u_ref=db.entries[2].u_eq,
            theta_of_t=lambda t: positions[np.rint(t / dt).astype(int) - 1]),
        "correction": CorrectionRom(leading, q0_of_t=lambda t: (qa * np.sin(nu * t), qa),
                                    nu=nu, eps_load=load, dxc_dtau=lambda tau: 0.02),
    }[method]
    t_start, t_end = dt * np.arange(n_steps), dt * np.arange(1, n_steps + 1)
    system.plan_steps(t_start, t_end)
    weights = set()
    for k in range(n_steps):
        system.begin_step(t_start[k], t_end[k])
        mass, damping, k_const, linearization = _step_operators(system, t_start[k], t_end[k])
        q, qd, qdd = (s * rng.standard_normal(m) for s in (1e-4, 1e-2, 1e2))
        if method == "correction":
            s_t = linearization(0)(system.q0_of_t(t_end[k])[0])[1]()
            f = (k_const + s_t) @ q
        elif isinstance(linearization, AffineForces):
            force, jacobian, s_t = (a[0] for a in linearization)
            f = force + jacobian @ q
        else:
            f, tangent = linearization(0)(q)
            s_t = tangent()
        expect = mass @ qdd + damping @ qd + f - system._g
        assert system.residual(q, qd, qdd).tobytes() == expect.tobytes(), k
        c_acc, c_vel = 4.0e9 * (1 + k % 2), 1.0e5
        expect = c_acc * mass + c_vel * damping + k_const + s_t
        assert system.iteration_matrix(c_acc, c_vel).tobytes() == expect.tobytes(), k
        weights.add(system._place(t_start[k:k + 1], t_end[k:k + 1])[3][0] != 0.0)
    assert weights == ({False} if method == "modal-pod" else {False, True})


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


@pytest.mark.parametrize("kinematics", ["curved-nonlinear", "curved-linear"])
def test_correction_rhs_frozen_in_blocks_is_the_direct_one(beams_and_dbs, kinematics):
    # the right-hand side each planned begin_step of the correction reads
    # from its block is V'[p_eps - 2 nu M dV/dtau q0' - nu C (du_eq/dtau +
    # dV/dtau q0)], evaluated directly with the interpolated basis and its
    # slow derivative at the step's position: over two blocks and a partial
    # third, with the pulse on grid nodes, blended inside cells, on both
    # grid ends and clamped past them. The direct product with the blended
    # n x m basis rounds apart from the blend of the two node projections
    # (measured: at most 1.3e-15 of the largest entry)
    model, db = beams_and_dbs[kinematics]
    g, m, nu = db.grid, db.m, 2.0e3
    n_steps = 2 * rom.BLOCK_STEPS + 10
    rng = np.random.default_rng(5)
    positions = np.concatenate([g, g[:-1] + rng.uniform(0.05, 0.95, g.size - 1) * np.diff(g),
                                [g[0] - 0.01, g[-1] + 0.01]])
    positions = rng.permutation(np.resize(positions, n_steps + 1))
    qa, qb = 1e-4 * rng.standard_normal((2, m))
    l_vec = model.uniform_transverse_load(3e2)

    def q0_of_t(t):
        return qa * np.sin(nu * t) + qb, nu * qa * np.cos(nu * t)

    def eps_load(t):
        return l_vec * np.cos(nu * t)

    def dxc_dtau(tau):
        return 0.02 * np.cos(tau)

    dt = 1e-5
    # the step midpoint's slow phase is the step's index, plus one half
    leading = AdaptiveRom(model, db, tau_of_t=lambda t: t / dt,
                          xc_of_tau=lambda tau: positions[np.floor(tau).astype(int)])
    corr = CorrectionRom(leading, q0_of_t=q0_of_t, nu=nu, eps_load=eps_load,
                         dxc_dtau=dxc_dtau)
    t_start, t_end = dt * np.arange(n_steps), dt * np.arange(1, n_steps + 1)
    corr.plan_steps(t_start, t_end)
    zero = np.zeros(m)
    worst = 0.0
    for k in range(n_steps):
        corr.begin_step(t_start[k], t_end[k])
        got = -corr.residual(zero, zero, zero)
        x_c, tau, t = positions[k], 0.5 * (t_start[k] + t_end[k]) / dt, t_end[k]
        v, _ = interpolate_basis(db, x_c)
        dv, du = slow_basis_derivative(db, x_c)
        q0, q0d = q0_of_t(t)
        rate = dxc_dtau(tau)
        expect = v.T @ (eps_load(t) - 2.0 * nu * (model.mass() @ (dv * rate @ q0d))
                        - nu * (model.damping() @ (du * rate + dv * rate @ q0)))
        worst = max(worst, np.abs(got - expect).max() / np.abs(expect).max())
    assert worst <= 1e-14, worst


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
