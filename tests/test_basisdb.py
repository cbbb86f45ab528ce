"""Congruence alignment, database build/interpolation, stacking compression
and persistence."""

import numpy as np
import pytest

from thermrom import basisdb, spectral
from thermrom.basisdb import (
    BasisDatabase,
    build_database,
    cell_weight,
    congruent_align,
    default_grid,
    interpolate_basis,
    load_database,
    modal_pod,
    save_database,
    singular_value_profile,
    slow_basis_derivative,
    stack_columns,
    stack_orthonormalize,
)
from thermrom.beam import BeamModel, BeamProperties, TemperaturePulse
from thermrom.cli import main
from thermrom.errors import AlignmentError, ContractError, SolverError
from thermrom.spectral import LocalBasis, solve_equilibrium


def random_orthonormal(n, m, rng):
    q, _ = np.linalg.qr(rng.standard_normal((n, m)))
    return q


# -- congruent alignment --------------------------------------------------------

def test_align_identity_case(rng):
    v0 = random_orthonormal(30, 4, rng)
    aligned, q = congruent_align(v0, v0, return_rotation=True)
    np.testing.assert_allclose(q, np.eye(4), atol=1e-12)
    np.testing.assert_allclose(aligned, v0, atol=1e-12)


def test_align_recovers_reference_after_rotation(rng):
    # V0 R with any orthogonal R aligns back to V0 exactly
    v0 = random_orthonormal(40, 5, rng)
    r = random_orthonormal(5, 5, rng)
    aligned = congruent_align(v0, v0 @ r)
    np.testing.assert_allclose(aligned, v0, atol=1e-10)


def test_align_preserves_span_and_orthonormality(rng):
    v0 = random_orthonormal(25, 3, rng)
    v1 = random_orthonormal(25, 3, rng)
    aligned = congruent_align(v0, v1)
    np.testing.assert_allclose(aligned.T @ aligned, np.eye(3), atol=1e-10)
    p_before = v1 @ v1.T
    p_after = aligned @ aligned.T
    assert np.linalg.norm(p_before - p_after) <= 1e-10


def test_align_idempotent(rng):
    v0 = random_orthonormal(25, 3, rng)
    v1 = random_orthonormal(25, 3, rng)
    once = congruent_align(v0, v1)
    twice = congruent_align(v0, once)
    assert np.linalg.norm(twice - once) <= 1e-12


def test_align_orthogonal_subspaces_error():
    v0 = np.eye(6)[:, :2]
    v1 = np.eye(6)[:, 3:5]
    with pytest.raises(AlignmentError):
        congruent_align(v0, v1)


def test_align_shape_mismatch():
    with pytest.raises(ContractError):
        congruent_align(np.eye(4)[:, :2], np.eye(5)[:, :2])


# -- database build ---------------------------------------------------------------

def test_default_grid_matches_scheme():
    grid = default_grid(0.1, 19)
    assert grid.size == 19
    np.testing.assert_allclose(grid, np.arange(1, 20) * 0.1 / 20.0)


def test_database_entry_count(db_curved_small):
    assert len(db_curved_small) == 7
    assert db_curved_small.kind == "vm+md"
    assert db_curved_small.m == 9


def test_database_alignment_reduces_adjacent_deviation(beam_curved_nl):
    grid = default_grid(0.1, 7)
    raw = build_database(beam_curved_nl, grid, k=3, with_md=True, align=False)
    aligned = build_database(beam_curved_nl, grid, k=3, with_md=True, align=True)

    def max_adjacent(db):
        return max(
            np.linalg.norm(db.entries[j + 1].matrix - db.entries[j].matrix)
            for j in range(len(db) - 1)
        )

    assert max_adjacent(aligned) <= max_adjacent(raw) + 1e-12


def test_database_alignment_preserves_spans(beam_curved_nl):
    grid = default_grid(0.1, 5)
    raw = build_database(beam_curved_nl, grid, k=2, align=False)
    aligned = build_database(beam_curved_nl, grid, k=2, align=True)
    for e_raw, e_aligned in zip(raw.entries, aligned.entries):
        p1 = e_raw.matrix @ e_raw.matrix.T
        p2 = e_aligned.matrix @ e_aligned.matrix.T
        assert np.linalg.norm(p1 - p2) <= 1e-10


def test_database_reference_default_is_middle(db_curved_small):
    assert db_curved_small.reference_index == len(db_curved_small) // 2


def test_database_frequency_continuity(db_curved_small):
    for j in range(len(db_curved_small) - 1):
        w0 = db_curved_small.entries[j].frequencies
        w1 = db_curved_small.entries[j + 1].frequencies
        assert np.all(np.abs(w1 - w0) / w0 < 0.2)


def test_single_point_database(beam_curved_nl):
    db = build_database(beam_curved_nl, [0.05], k=2)
    assert len(db) == 1
    v, u = interpolate_basis(db, 0.721)  # clamps, returns the only entry
    np.testing.assert_allclose(v, db.entries[0].matrix)
    dv, du = slow_basis_derivative(db, 0.05)
    assert np.all(dv == 0.0) and np.all(du == 0.0)


def test_database_empty_grid(beam_curved_nl):
    with pytest.raises(ContractError):
        build_database(beam_curved_nl, [], k=2)


def test_database_failure_keeps_the_error_data(beam_curved_nl, monkeypatch):
    # the annotated error is the solver's own, residual history included
    raised = []

    def no_iterations(model, x_c, u_guess=None):
        try:
            return solve_equilibrium(model, x_c, u_guess=u_guess, max_iter=0)
        except SolverError as exc:
            raised.append(list(exc.residual_history))
            raise

    monkeypatch.setattr(spectral, "solve_equilibrium", no_iterations)
    with pytest.raises(SolverError) as err:
        build_database(beam_curved_nl, [0.03, 0.05], k=2)
    assert err.value.residual_history == raised[0]
    assert len(raised[0]) == 1 and raised[0][0] > 0.0
    assert "database build failed at x_c = 0.03:" in str(err.value)


# -- interpolation ----------------------------------------------------------------

def test_interpolate_node_verbatim(db_curved_small):
    j = 2
    v, u = interpolate_basis(db_curved_small, db_curved_small.grid[j])
    assert np.array_equal(v, db_curved_small.entries[j].matrix)
    assert np.array_equal(u, db_curved_small.entries[j].u_eq)


def test_interpolate_midpoint_mean(db_curved_small):
    g = db_curved_small.grid
    x = 0.5 * (g[3] + g[4])
    v, u = interpolate_basis(db_curved_small, x)
    v_expect = 0.5 * (db_curved_small.entries[3].matrix
                      + db_curved_small.entries[4].matrix)
    np.testing.assert_allclose(v, v_expect, rtol=1e-14)


def test_interpolate_continuous_at_nodes(db_curved_small):
    g = db_curved_small.grid
    eps = 1e-9 * (g[1] - g[0])
    v_left, _ = interpolate_basis(db_curved_small, g[3] - eps)
    v_right, _ = interpolate_basis(db_curved_small, g[3] + eps)
    assert np.linalg.norm(v_left - v_right) < 1e-6


def test_interpolate_raw_database_rejected(beam_curved_nl):
    db = build_database(beam_curved_nl, default_grid(0.1, 3), k=2, align=False)
    with pytest.raises(ContractError):
        interpolate_basis(db, 0.05)


def test_cell_weight_of_an_array_is_that_of_each_position(db_curved_small, rng):
    # one rule decides the cell: an array of positions gives, element for
    # element, the cell and weight of each position alone
    grid = db_curved_small.grid
    positions = np.concatenate([grid, np.nextafter(grid, 0.0), np.nextafter(grid, 1.0),
                                [-0.5, 0.5], rng.uniform(0.0, 0.1, 50)])
    cells, weights = cell_weight(db_curved_small, positions)
    for x, j, w in zip(positions, cells, weights):
        assert cell_weight(db_curved_small, float(x)) == (j, w)
    assert cell_weight(db_curved_small, grid[-1]) == (grid.size - 2, 1.0)
    assert cell_weight(db_curved_small, -0.5) == (0, 0.0)


def test_interpolate_clamps_silently(db_curved_small, caplog):
    # the run counts its clamped positions once; no warning per call
    import logging

    with caplog.at_level(logging.DEBUG, logger="thermrom.basisdb"):
        v_hi, u_hi = interpolate_basis(db_curved_small, 0.5)
        v_lo, u_lo = interpolate_basis(db_curved_small, -0.5)
    assert not caplog.records
    for (v, u), entry in (((v_hi, u_hi), db_curved_small.entries[-1]),
                          ((v_lo, u_lo), db_curved_small.entries[0])):
        assert np.array_equal(v, entry.matrix) and np.array_equal(u, entry.u_eq)


def test_orthogonality_drift_at_midpoints(db_curved_vm):
    # regression guard for the vm database of the curved beam
    g = db_curved_vm.grid
    worst = 0.0
    for j in range(len(g) - 1):
        v, _ = interpolate_basis(db_curved_vm, 0.5 * (g[j] + g[j + 1]))
        worst = max(worst, np.linalg.norm(v.T @ v - np.eye(v.shape[1])))
    assert worst <= 0.1


# -- slow derivative ----------------------------------------------------------------

def test_derivative_exact_inside_cell(db_curved_small):
    g = db_curved_small.grid
    x = g[2] + 0.3 * (g[3] - g[2])
    dv, du = slow_basis_derivative(db_curved_small, x, delta=0.1 * (g[3] - g[2]))
    expect_v = (db_curved_small.entries[3].matrix - db_curved_small.entries[2].matrix) \
        / (g[3] - g[2])
    expect_u = (db_curved_small.entries[3].u_eq - db_curved_small.entries[2].u_eq) \
        / (g[3] - g[2])
    np.testing.assert_allclose(dv, expect_v, rtol=1e-9)
    np.testing.assert_allclose(du, expect_u, rtol=1e-9)


def test_derivative_chain_rule_in_slow_phase(db_curved_small):
    # d/dtau of V(x_c(tau)) with x_c = x0 + A sin(tau): finite differences in
    # tau against the cell slope times A cos(tau)
    g = db_curved_small.grid
    x0, amp = 0.05, 0.02
    tau = 0.4

    def basis_of_tau(t):
        return interpolate_basis(db_curved_small, x0 + amp * np.sin(t))[0]

    dv_dx, _ = slow_basis_derivative(db_curved_small, x0 + amp * np.sin(tau),
                                     delta=2e-4)
    analytic = dv_dx * amp * np.cos(tau)
    h = 1e-6
    fd = (basis_of_tau(tau + h) - basis_of_tau(tau - h)) / (2.0 * h)
    np.testing.assert_allclose(analytic, fd, atol=1e-4 * np.abs(fd).max())


def test_derivative_zero_off_the_grid_one_sided_on_its_ends(db_curved_small):
    # off the grid the interpolated basis is clamped and does not move, so
    # its derivative is zero there; on an end node it is the one-sided slope
    # of the end cell
    db, g = db_curved_small, db_curved_small.grid
    past = interpolate_basis(db, g[-1] + 0.01)
    assert all(np.array_equal(a, b) for a, b in zip(past, interpolate_basis(db, g[-1] + 0.02)))
    for x in (g[0] - 0.01, np.nextafter(g[0], -1.0), np.nextafter(g[-1], 2.0), g[-1] + 0.01):
        dv, du = slow_basis_derivative(db, x)
        assert not dv.any() and not du.any(), x
    for x, (a, b) in ((g[0], (0, 1)), (g[-1], (-2, -1))):
        dv, du = slow_basis_derivative(db, x)
        h = g[b] - g[a]
        np.testing.assert_allclose(dv, (db.entries[b].matrix - db.entries[a].matrix) / h,
                                   rtol=1e-9, atol=1e-12)
        np.testing.assert_allclose(du, (db.entries[b].u_eq - db.entries[a].u_eq) / h,
                                   rtol=1e-9, atol=1e-15)


# -- stacking -----------------------------------------------------------------------

def test_stack_shape_and_blocks(db_curved_small):
    stacked = stack_columns(db_curved_small.entries)
    assert stacked.shape == (db_curved_small.n, 7 * 9)
    for j, entry in enumerate(db_curved_small.entries):
        assert np.array_equal(stacked[:, j * 9:(j + 1) * 9], entry.matrix)


def test_stack_duplicate_rank(db_curved_small, rng):
    entry = db_curved_small.entries[0]
    basis = stack_orthonormalize(stack_columns([entry, entry]))
    assert basis.shape[1] == entry.m


def test_stack_doubled_block_singular_values(rng):
    v = random_orthonormal(30, 4, rng)
    sigmas = singular_value_profile(np.hstack([v, v]))
    np.testing.assert_allclose(sigmas[:4], np.sqrt(2.0), rtol=1e-12)
    assert np.all(sigmas[4:] < 1e-12)


def test_modal_pod_full_rank_spans_stack(db_curved_small):
    stacked = stack_columns(db_curved_small.entries)
    full = stack_orthonormalize(stacked)
    pod = modal_pod(stacked, full.shape[1])
    p1 = full @ full.T
    p2 = pod @ pod.T
    assert np.linalg.norm(p1 - p2) <= 1e-8


def test_modal_pod_repeated_basis(rng):
    v = random_orthonormal(30, 4, rng)
    pod = modal_pod(np.hstack([v, v, v]), 4)
    p1 = pod @ pod.T
    p2 = v @ v.T
    assert np.linalg.norm(p1 - p2) <= 1e-10


def test_modal_pod_rank_limit(db_curved_small):
    # a size must lie in 1..rank; a negative one would slice from the end
    stacked = stack_columns([db_curved_small.entries[0]] * 2)
    for m in (db_curved_small.m + 1, 0, -3):
        with pytest.raises(ContractError, match="rank"):
            modal_pod(stacked, m)


def test_singular_profile_single_block(rng):
    v = random_orthonormal(30, 5, rng)
    sigmas = singular_value_profile(v)
    np.testing.assert_allclose(sigmas, np.ones(5), rtol=1e-12)


def test_md_database_profile_has_no_early_knee():
    # the md-enriched stack of the traveling-pulse family keeps significant
    # content beyond the per-configuration basis size m: no knee before m
    from thermrom.scenarios import ScenarioConfig, build_scenario_database

    cfg = ScenarioConfig(scenario="curved-nonlinear")
    db = build_scenario_database(cfg)
    sigmas = singular_value_profile(stack_columns(db.entries))
    assert sigmas[db.m - 1] / sigmas[0] > 1e-2


# -- persistence ---------------------------------------------------------------------

def test_database_roundtrip_bitexact(tmp_path, db_curved_small):
    save_database(db_curved_small, tmp_path / "db")
    back = load_database(tmp_path / "db")
    assert back.kind == db_curved_small.kind
    assert back.reference_index == db_curved_small.reference_index
    assert back.aligned == db_curved_small.aligned
    assert back.grid.tobytes() == db_curved_small.grid.tobytes()
    for a, b in zip(db_curved_small.entries, back.entries):
        assert a.matrix.tobytes() == b.matrix.tobytes()
        assert a.u_eq.tobytes() == b.u_eq.tobytes()
        assert a.frequencies.tobytes() == b.frequencies.tobytes()


def test_square_symmetric_bases_round_trip(tmp_path):
    # square symmetric and skew-symmetric bases are stored in full, not as
    # one triangle, so they load back bit for bit, signed zeros included;
    # a file in any other layout is refused
    bases = [np.array([[1.0, -0.0], [-0.0, 1.0]]), np.array([[0.6, 0.8], [0.8, -0.6]]),
             np.array([[0.0, -1.0], [1.0, 0.0]])]
    db = BasisDatabase(grid=[0.02, 0.05, 0.08], reference_index=1, kind="vm-only", entries=[
        LocalBasis(x_c=x, u_eq=np.array([1e-5, -2e-5]), frequencies=np.array([1.0, 2.0]),
                   matrix=v) for x, v in zip([0.02, 0.05, 0.08], bases)])
    save_database(db, tmp_path / "db")
    for a, b in zip(db.entries, load_database(tmp_path / "db").entries):
        assert a.matrix.tobytes() == b.matrix.tobytes() and a.u_eq.tobytes() == b.u_eq.tobytes()
    path = tmp_path / "db" / "entry_00" / "basis.mtx"
    path.write_text("%%MatrixMarket matrix array real symmetric\n2 2\n1\n0\n1\n")
    with pytest.raises(ContractError, match="not a general real array"):
        load_database(tmp_path / "db")


def test_matrix_files_are_those_of_scipy_mmwrite(tmp_path, db_curved_small):
    # the database's own writer gives, byte for byte, the file of scipy's
    # mmwrite, and a file mmwrite wrote loads back bit for bit, signed
    # zeros and extreme exponents included
    from scipy.io import mmwrite

    entry = db_curved_small.entries[2]
    odd = np.array([[-0.0, 1e-310, -2.5e300], [np.pi, 0.0, -1.0 / 3.0]])
    for j, matrix in enumerate((entry.matrix, entry.u_eq[:, None], odd)):
        ours, theirs = tmp_path / f"ours{j}.mtx", tmp_path / f"theirs{j}.mtx"
        basisdb._write_matrix(ours, matrix)
        mmwrite(str(theirs), matrix, precision=17, symmetry="general")
        assert ours.read_bytes() == theirs.read_bytes(), j
        for path in (ours, theirs):
            assert basisdb._read_matrix(path).tobytes() == matrix.tobytes(), (j, path)
    assert np.signbit(basisdb._read_matrix(tmp_path / "ours2.mtx")[0, 0])


def test_database_save_deterministic(tmp_path, db_curved_small):
    save_database(db_curved_small, tmp_path / "a")
    save_database(db_curved_small, tmp_path / "b")
    for path_a in sorted((tmp_path / "a").rglob("*")):
        if path_a.is_file():
            path_b = tmp_path / "b" / path_a.relative_to(tmp_path / "a")
            assert path_a.read_bytes() == path_b.read_bytes()


def test_failed_save_leaves_no_mix_of_two_databases(tmp_path, monkeypatch):
    # a save that fails part way over an older database in the same
    # directory leaves a directory that does not load, not one that loads
    # entries of both; a save that completes loads back bit for bit, the
    # straight beam's -0.0 entries included
    props = BeamProperties(n_elements=8)
    old_db, new_db = (build_database(BeamModel(props, TemperaturePulse(height, 0.02)),
                                     default_grid(0.1, 5), k=3)
                      for height in (40.0, 60.0))
    path = tmp_path / "db"
    save_database(old_db, path)
    write, calls = basisdb._write_matrix, []

    def failing(*args, **kwargs):
        calls.append(args[0])
        if len(calls) == 5:
            raise OSError("no space left on device")
        return write(*args, **kwargs)

    monkeypatch.setattr(basisdb, "_write_matrix", failing)
    with pytest.raises(OSError):
        save_database(new_db, path)
    assert len(calls) == 5
    with pytest.raises(ContractError, match="does not contain a basis database"):
        load_database(path)
    monkeypatch.setattr(basisdb, "_write_matrix", write)
    save_database(new_db, path)
    back = load_database(path)
    assert any(np.signbit(e.matrix[e.matrix == 0.0]).any() for e in new_db.entries)
    assert back.grid.tobytes() == new_db.grid.tobytes()
    for a, b in zip(new_db.entries, back.entries):
        assert a.matrix.tobytes() == b.matrix.tobytes()
        assert a.u_eq.tobytes() == b.u_eq.tobytes()


def _drop_grid(path):
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(line for line in lines if not line.startswith("grid")))


@pytest.mark.parametrize("broken, corrupt", [
    ("entry_01/basis.mtx", lambda path: path.unlink()),
    ("db_meta.txt", _drop_grid),
    ("entry_02/frequencies.txt", lambda path: path.write_text("1.0 abc\n")),
])
def test_load_corrupt_database(tmp_path, db_curved_small, capsys, broken, corrupt):
    save_database(db_curved_small, tmp_path / "db")
    corrupt(tmp_path / "db" / broken)
    with pytest.raises(ContractError, match=broken.replace("/", ".")):
        load_database(tmp_path / "db")
    assert main(["db", "inspect", str(tmp_path / "db")]) == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_load_missing_directory(tmp_path):
    with pytest.raises(ContractError):
        load_database(tmp_path / "nothing")
