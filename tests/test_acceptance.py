"""Acceptance gate: full-scale scenario comparisons and the always-runnable
property list, one verdict line per criterion.

The scenario fixtures run the complete experiments (tens of thousands of
implicit steps each) and are shared across criteria; expect several minutes
for the module. Run with ``pytest tests/test_acceptance.py -v -s`` to see
the per-criterion lines.
"""

import sys
import time

import numpy as np
import pytest

from thermrom.basisdb import (
    build_database,
    congruent_align,
    default_grid,
    interpolate_basis,
    load_database,
    modal_pod,
    save_database,
    singular_value_profile,
    stack_columns,
    stack_orthonormalize,
)
from thermrom.beam import BeamModel, BeamProperties, TemperaturePulse
from thermrom.metrics import adaptive_projection_floor, projection_floor
from thermrom.newmark import newmark_integrate
from thermrom.rom import AdaptiveRom, ConstantBasisRom
from thermrom.scenarios import (
    ScenarioConfig,
    build_scenario_database,
    compare_methods,
    modal_subset_indices,
)
from thermrom.spectral import (
    modal_derivative,
    solve_equilibrium,
    vibration_modes,
)
from thermrom.twodof import scenario_twodof

SEED = 2024


def _verdict(criterion, ok, detail):
    line = f"\n[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}"
    print(line)
    if sys.stdout is not sys.__stdout__:
        # also reach the terminal when pytest captures stdout
        print(line, file=sys.__stdout__)
    return ok


# ---------------------------------------------------------------------------
# shared full-scale bundles
# ---------------------------------------------------------------------------

@pytest.fixture(scope="session")
def nonlinear_compare_bundle():
    cfg = ScenarioConfig(scenario="curved-nonlinear", eps=1e-3, seed=SEED)
    start = time.perf_counter()
    bundle = compare_methods(
        cfg, methods=("hfm", "mms-o1", "mms-oeps", "modal", "modal-pod"))
    bundle.summary["wall_time_s"] = time.perf_counter() - start
    return bundle


@pytest.fixture(scope="session")
def straight_bundles():
    out = {}
    for eps in (1e-2, 1e-3):
        cfg = ScenarioConfig(scenario="straight-linear", eps=eps, seed=SEED)
        out[eps] = compare_methods(cfg, methods=("hfm", "mms-o1", "modal-pod"))
    return out


@pytest.fixture(scope="session")
def curved_linear_bundle():
    # eps=1e-2 makes the slow-coupling load (what the correction captures)
    # clearly visible above the interpolation floor; the inequality also
    # holds at 1e-3 but by a much smaller margin.
    cfg = ScenarioConfig(scenario="curved-linear", eps=1e-2, seed=SEED)
    return compare_methods(cfg, methods=("hfm", "mms-o1", "mms-oeps"))


# ---------------------------------------------------------------------------
# criterion 1: nonlinear-beam comparison table
# ---------------------------------------------------------------------------

def test_criterion_1_nonlinear_comparison(nonlinear_compare_bundle):
    # The abstract claims better accuracy *and* fewer unknowns than a
    # constant basis. The ordering carries the accuracy half; the basis
    # sizes and the subspace floors check that modal-POD is the
    # equal-size constant basis and that its subspace is the poorer one.
    bundle = nonlinear_compare_bundle
    errors = {name: bundle.errors[name]["E_uniform"]
              for name in ("mms-o1", "mms-oeps", "modal", "modal-pod")}
    sizes = {name: bundle.results[name].basis_size
             for name in ("mms-o1", "modal", "modal-pod")}
    scn = bundle.scenario
    db = scn.database
    u_ref = bundle.results["hfm"].displacement
    modal_basis = stack_orthonormalize(
        stack_columns([db.entries[j]
                       for j in modal_subset_indices(bundle.config, len(db))]),
        sv_tol=bundle.config.modal_rank_tol)
    floors = {
        "mms-o1": adaptive_projection_floor(
            u_ref, (interpolate_basis(db, scn.xc_of_t(t)) for t in scn.times)),
        "modal": projection_floor(u_ref, modal_basis),
        "modal-pod": projection_floor(
            u_ref, modal_pod(stack_columns(db.entries), sizes["modal-pod"])),
    }
    wall = bundle.summary["wall_time_s"]
    detail = (
        f"E(oeps)={errors['mms-oeps']:.4f} "
        f"E(o1-{sizes['mms-o1']})={errors['mms-o1']:.4f} "
        f"E(modal-{sizes['modal']})={errors['modal']:.4f} "
        f"E(pod-{sizes['modal-pod']})={errors['modal-pod']:.4f}; "
        f"E_proj(adaptive)={floors['mms-o1']:.4f} "
        f"E_proj(modal)={floors['modal']:.4f} "
        f"E_proj(pod)={floors['modal-pod']:.4f}; wall {wall:.0f}s"
    )
    ordering = (errors["mms-oeps"] <= errors["mms-o1"]
                < errors["modal"] < errors["modal-pod"])
    bands = (errors["mms-oeps"] < 0.10 and errors["mms-o1"] < 0.10
             and 0.03 <= errors["modal"] <= 0.25)
    sizes_ok = (modal_basis.shape[1] == sizes["modal"]
                and sizes["mms-o1"] == sizes["modal-pod"] < sizes["modal"])
    subspace_ok = floors["modal-pod"] > floors["mms-o1"]
    runtime_ok = wall <= 15 * 60
    ok = _verdict("criterion 1 (comparison table)",
                  ordering and bands and sizes_ok and subspace_ok and runtime_ok,
                  detail)
    assert runtime_ok, f"comparison took {wall:.0f}s > 15 min"
    assert ordering, f"method ordering violated: {detail}"
    assert bands, f"error bands violated: {detail}"
    assert sizes_ok, f"basis sizes {sizes} violate o1 == pod < modal: {detail}"
    assert subspace_ok, f"equal-size constant subspace not poorer: {detail}"


# ---------------------------------------------------------------------------
# criterion 2: straight-beam linear study
# ---------------------------------------------------------------------------

def test_criterion_2_straight_linear(straight_bundles):
    fine = straight_bundles[1e-3]
    coarse = straight_bundles[1e-2]
    pod_tr = fine.errors["modal-pod"]["E_transverse_probe"]
    pod_ax = fine.errors["modal-pod"]["E_axial_probe"]
    o1_ax_fine = fine.errors["mms-o1"]["E_axial_probe"]
    o1_ax_coarse = coarse.errors["mms-o1"]["E_axial_probe"]
    detail = (f"pod5 transverse={pod_tr:.4f} axial={pod_ax:.4f}; "
              f"o1 axial eps=1e-3: {o1_ax_fine:.4f}, eps=1e-2: {o1_ax_coarse:.4f}")
    ok = (pod_tr < 0.05 and pod_ax > 0.50
          and o1_ax_fine < 0.10 and o1_ax_fine < o1_ax_coarse)
    _verdict("criterion 2 (straight beam)", ok, detail)
    assert pod_tr < 0.05, detail
    assert pod_ax > 0.50, detail
    assert o1_ax_fine < 0.10, detail
    assert o1_ax_fine < o1_ax_coarse, detail


# ---------------------------------------------------------------------------
# criterion 3: oscillator demo
# ---------------------------------------------------------------------------

def test_criterion_3_twodof_demo():
    slow = scenario_twodof(0.01)
    fast = scenario_twodof(0.5)
    detail = (f"E(eps=0.01)={slow.uniform_error:.4f}, "
              f"E(eps=0.5)={fast.uniform_error:.4g}")
    ok = (slow.uniform_error < 0.10
          and fast.uniform_error > 3.0 * slow.uniform_error)
    _verdict("criterion 3 (oscillator demo)", ok, detail)
    assert slow.uniform_error < 0.10, detail
    assert fast.uniform_error > 3.0 * slow.uniform_error, detail


# ---------------------------------------------------------------------------
# criterion 4: stacked-database ranks
# ---------------------------------------------------------------------------

def test_criterion_4_stacking_ranks():
    ranks = {}
    for scenario, expected in (("straight-linear", 93), ("curved-linear", 95)):
        cfg = ScenarioConfig(scenario=scenario, seed=SEED)
        db = build_scenario_database(cfg)
        sigmas = singular_value_profile(stack_columns(db.entries))
        ranks[scenario] = int(np.sum(sigmas > 5e-14 * sigmas[0]))
    detail = (f"straight rank={ranks['straight-linear']} (93 +- 5), "
              f"curved rank={ranks['curved-linear']} (95 +- 5)")
    ok = (abs(ranks["straight-linear"] - 93) <= 5
          and abs(ranks["curved-linear"] - 95) <= 5)
    _verdict("criterion 4 (stacking ranks)", ok, detail)
    assert ok, detail


# ---------------------------------------------------------------------------
# criterion 5: property suite (always runnable)
# ---------------------------------------------------------------------------

def _property_beam():
    props = BeamProperties(n_elements=12)
    pulse = TemperaturePulse(height=40.0, width=0.02)
    return BeamModel(props, pulse)


def test_criterion_5_property_suite(tmp_path):
    rng = np.random.default_rng(SEED)
    checks = {}

    # Algorithm-1 identities: Q orthogonal, span preserved, V0 R -> V0
    v0, _ = np.linalg.qr(rng.standard_normal((40, 5)))
    r_rot, _ = np.linalg.qr(rng.standard_normal((5, 5)))
    aligned, q_rot = congruent_align(v0, v0 @ r_rot, return_rotation=True)
    checks["alignment"] = (
        np.linalg.norm(q_rot.T @ q_rot - np.eye(5)) < 1e-12
        and np.linalg.norm(aligned - v0) < 1e-10
        and np.linalg.norm(aligned @ aligned.T - v0 @ v0.T) < 1e-10
    )

    model = _property_beam()
    x_c = 0.05
    u_eq = solve_equilibrium(model, x_c)
    omega, phi = vibration_modes(model, u_eq, x_c, 3)

    # modal-derivative symmetry at 1e-4
    th_ij = modal_derivative(model, u_eq, x_c, phi[:, [0, 1]])[:, 1]
    th_ji = modal_derivative(model, u_eq, x_c, phi[:, [1, 0]])[:, 1]
    checks["md symmetry"] = (np.linalg.norm(th_ij - th_ji)
                             <= 1e-4 * np.linalg.norm(th_ij))

    # tangent vs finite differences at 1e-6
    u = 2e-4 * rng.standard_normal(model.dof_count)
    du = rng.standard_normal(model.dof_count)
    du /= np.linalg.norm(du)
    h = 1e-6 * (1.0 + np.max(np.abs(u)))
    fd = (model.internal_force(u + h * du, x_c)
          - model.internal_force(u - h * du, x_c)) / (2.0 * h)
    kdu = model.tangent_stiffness(u, x_c) @ du
    checks["tangent fd"] = np.linalg.norm(fd - kdu) <= 1e-6 * np.linalg.norm(kdu)

    # eigenpair residuals at 1e-8
    kt = model.tangent_stiffness(u_eq, x_c)
    mass = model.mass()
    checks["eig residual"] = all(
        np.linalg.norm((kt - omega[i] ** 2 * mass) @ phi[:, i])
        <= 1e-8 * np.linalg.norm(kt) * np.linalg.norm(phi[:, i])
        for i in range(3)
    )

    # clamped-beam first frequency within 1 percent
    beam60 = BeamModel(BeamProperties())
    w60, _ = vibration_modes(beam60, np.zeros(beam60.dof_count), None, 1)
    p = beam60.properties
    analytic = (4.730040744862704 / p.length) ** 2 * np.sqrt(
        p.bending_rigidity / (p.density * p.area))
    checks["omega1 1pct"] = abs(w60[0] - analytic) / analytic < 0.01

    # Newmark second-order convergence
    from tests.test_newmark import Linear1Dof

    errs = []
    for dt in (2e-2, 5e-3):
        system = Linear1Dof()
        n = int(round(2.37 / dt))
        traj = newmark_integrate(system, np.array([1.0]), np.array([0.0]), dt, n)
        errs.append(abs(traj.displacement[-1, 0] - np.cos(system.omega * traj.times[-1])))
    rate = np.log(errs[0] / errs[1]) / np.log(4.0)
    checks["newmark order 2"] = 1.8 < rate < 2.3

    # determinism: same seed, bit-identical outputs
    smoke = dict(scenario="curved-nonlinear", eps=5e-3, cycles=1,
                 steps_per_cycle=20, n_elements=12, db_points=5, k_modes=2,
                 seed=7)
    a = compare_methods(ScenarioConfig(**smoke), methods=("hfm", "mms-o1"))
    b = compare_methods(ScenarioConfig(**smoke), methods=("hfm", "mms-o1"))
    checks["determinism"] = all(
        a.results[m].displacement.tobytes() == b.results[m].displacement.tobytes()
        for m in ("hfm", "mms-o1")
    )

    # database persistence round-trip, bit exact
    db = build_database(model, default_grid(0.1, 5), k=2, with_md=True)
    save_database(db, tmp_path / "db")
    back = load_database(tmp_path / "db")
    checks["db roundtrip"] = all(
        x.matrix.tobytes() == y.matrix.tobytes()
        and x.u_eq.tobytes() == y.u_eq.tobytes()
        and x.frequencies.tobytes() == y.frequencies.tobytes()
        for x, y in zip(db.entries, back.entries)
    )

    # frozen temperature: adaptive model equals the constant-basis model
    db1 = build_database(model, [x_c], k=2, with_md=True)
    entry = db1.entries[0]
    load_vec = model.uniform_transverse_load(2e2)
    om_f = 0.7 * entry.frequencies[0]
    rom_a = AdaptiveRom(model, db1,
                        tau_of_t=lambda t: 0.0, xc_of_tau=lambda tau: x_c,
                        load=lambda t: load_vec * np.sin(om_f * t))
    rom_c = ConstantBasisRom(model, entry.matrix, theta_of_t=lambda t: x_c,
                             load=lambda t: load_vec * np.sin(om_f * t),
                             u_ref=entry.u_eq)
    zeros = np.zeros(entry.m)
    dt = (2.0 * np.pi / om_f) / 60.0
    tr_a = newmark_integrate(rom_a, zeros, zeros.copy(), dt, 180)
    tr_c = newmark_integrate(rom_c, zeros.copy(), zeros.copy(), dt, 180)
    scale = np.abs(tr_a.displacement).max()
    checks["frozen equivalence"] = (
        np.abs(tr_a.displacement - tr_c.displacement).max() <= 1e-10 * scale)

    detail = ", ".join(f"{name}: {'ok' if ok else 'FAIL'}"
                       for name, ok in checks.items())
    _verdict("criterion 5 (property suite)", all(checks.values()), detail)
    assert all(checks.values()), detail


# ---------------------------------------------------------------------------
# criterion 6: slow correction helps on the curved linear scenario
# ---------------------------------------------------------------------------

def test_criterion_6_correction_improves(curved_linear_bundle):
    e_o1 = curved_linear_bundle.errors["mms-o1"]["E_uniform"]
    e_oeps = curved_linear_bundle.errors["mms-oeps"]["E_uniform"]
    detail = f"E(o1)={e_o1:.5f} E(oeps)={e_oeps:.5f}"
    ok = e_oeps < e_o1
    _verdict("criterion 6 (correction value)", ok, detail)
    assert ok, detail
