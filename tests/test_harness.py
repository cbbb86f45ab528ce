"""Scenario harness: smoke runs, output files, determinism, configuration."""

import dataclasses
import json
import logging

import numpy as np
import pytest

from thermrom import scenarios
from thermrom.config import example_config_text, load_config
from thermrom.errors import ConfigError
from thermrom.metrics import error_uniform
from thermrom.models import Trajectory
from thermrom.scenarios import (
    ScenarioConfig,
    build_beam_scenario,
    compare_methods,
    modal_subset_indices,
    run_method,
    run_scenario,
)
from thermrom.twodof import scenario_twodof, write_twodof_outputs


SMOKE = dict(eps=5e-3, cycles=1, steps_per_cycle=20, n_elements=12, db_points=5,
             k_modes=2, seed=11)


@pytest.fixture(scope="module")
def smoke_bundle(tmp_path_factory):
    out = tmp_path_factory.mktemp("smoke")
    cfg = ScenarioConfig(scenario="curved-nonlinear", method="mms-o1",
                         save_states=True, **SMOKE)
    bundle = run_scenario(cfg, out_dir=out)
    return cfg, bundle, out


def test_smoke_runs_and_writes_declared_files(smoke_bundle):
    cfg, bundle, out = smoke_bundle
    assert (out / "summary.json").exists()
    assert (out / "errors.csv").exists()
    assert (out / "probes_hfm.csv").exists()
    assert (out / "probes_mms-o1.csv").exists()
    assert (out / "states_hfm.npz").exists()
    assert (out / "states_mms-o1.npz").exists()
    summary = json.loads((out / "summary.json").read_text())
    assert summary["scenario"] == "curved-nonlinear"
    assert "E_uniform" in summary["methods"]["mms-o1"]
    # the Newton report of each method is that of its trajectory
    for name, res in bundle.results.items():
        row, traj = summary["methods"][name], res.trajectory
        assert row["max_newton_iterations"] == traj.metadata["max_newton_iterations"] >= 1
        assert row["max_step_residual"] == float(traj.step_residuals.max())
        iters = traj.newton_iterations
        assert iters.shape == traj.times.shape and iters[0] == 0
        assert iters.max() == row["max_newton_iterations"]
        assert row["mean_newton_iterations"] == float(iters[1:].mean())
        assert row["p99_newton_iterations"] == float(np.percentile(iters[1:], 99))
        saved = Trajectory.load(out / f"states_{name}.npz")
        assert np.array_equal(saved.newton_iterations, iters)


def test_summary_reports_reconstruction_and_newton_margin(smoke_bundle):
    # each method's wall time is split into integration and reconstruction,
    # and its Newton peak is reported against the cap
    cfg, bundle, out = smoke_bundle
    summary = json.loads((out / "summary.json").read_text())
    for name, res in bundle.results.items():
        row = summary["methods"][name]
        assert row["reconstruction_s"] == res.reconstruction
        assert 0.0 < row["reconstruction_s"] <= row["runtime_s"] == res.runtime
        assert row["newton_cap_margin"] == cfg.max_newton - row["max_newton_iterations"]


def test_smoke_probe_csv_time_axis(smoke_bundle):
    # non-dimensional time: one forcing cycle spans 2 pi units
    cfg, bundle, out = smoke_bundle
    rows = (out / "probes_hfm.csv").read_text().strip().splitlines()
    assert rows[0] == "t_scaled,axial,transverse"
    t_last = float(rows[-1].split(",")[0])
    assert t_last == pytest.approx(2.0 * np.pi * cfg.cycles, rel=1e-9)


def test_csv_values_are_those_of_a_per_value_format(tmp_path, rng):
    # the writer, one format per run of rows, gives the bytes of formatting
    # each value with %.17g alone: signed zeros, nan, infinities,
    # denormals, the float extremes, and floats whose shortest form has 17
    # digits, over more rows than one run holds
    special = [0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, -5e-324, 1e-310,
               2.2250738585072014e-308, 1.7976931348623157e308, 0.1, 1.0 / 3.0, 1e16]
    columns = (np.array(special + list(rng.standard_normal(1100))),
               np.array(special[::-1] + list(1e-300 * rng.standard_normal(1100))))
    scenarios._write_csv(tmp_path / "x.csv", ("a", "b"), columns)
    expect = "a,b\n" + "".join(f"{a:.17g},{b:.17g}\n" for a, b in zip(*columns))
    assert (tmp_path / "x.csv").read_bytes() == expect.encode()


def test_hfm_error_against_itself_is_zero(smoke_bundle):
    cfg, bundle, out = smoke_bundle
    ref = bundle.results["hfm"].displacement
    assert error_uniform(ref, ref) == 0.0


@pytest.mark.parametrize("scenario", ["straight-linear", "curved-linear"])
def test_all_scenarios_smoke(scenario, tmp_path):
    cfg = ScenarioConfig(scenario=scenario, method="modal-pod", basis_size=2,
                         **SMOKE)
    bundle = run_scenario(cfg, out_dir=tmp_path)
    assert "modal-pod" in bundle.errors
    assert np.isfinite(bundle.errors["modal-pod"]["E_uniform"])


def test_compare_determinism_bit_identical(tmp_path):
    cfg = ScenarioConfig(scenario="curved-nonlinear", save_states=True, **SMOKE)
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    compare_methods(cfg, methods=("hfm", "mms-o1", "modal-pod"), out_dir=out_a)
    compare_methods(cfg, methods=("hfm", "mms-o1", "modal-pod"), out_dir=out_b)
    for path_a in sorted(out_a.iterdir()):
        path_b = out_b / path_a.name
        if path_a.suffix == ".json":
            # wall times are the one legitimately non-deterministic output
            sa = json.loads(path_a.read_text())
            sb = json.loads(path_b.read_text())
            for row in (*sa["methods"].values(), *sb["methods"].values()):
                row.pop("runtime_s")
                row.pop("reconstruction_s")
            assert sa == sb
        else:
            assert path_a.read_bytes() == path_b.read_bytes(), path_a.name


def test_compare_runs_the_leading_order_model_once(monkeypatch):
    # mms-o1 and mms-oeps share one leading-order model and one integration
    spaces, built = [], []
    integrate, adaptive_rom = scenarios.newmark_integrate, scenarios.AdaptiveRom

    def counting_integrate(*args, coordinate_space="full", **kwargs):
        spaces.append(coordinate_space)
        return integrate(*args, coordinate_space=coordinate_space, **kwargs)

    def counting_rom(*args, **kwargs):
        built.append(args)
        return adaptive_rom(*args, **kwargs)

    monkeypatch.setattr(scenarios, "newmark_integrate", counting_integrate)
    monkeypatch.setattr(scenarios, "AdaptiveRom", counting_rom)
    cfg = ScenarioConfig(scenario="curved-nonlinear", **SMOKE)
    compare_methods(cfg, ("hfm", "mms-o1", "mms-oeps"))
    assert sorted(spaces) == ["full", "reduced:mms-o1", "reduced:mms-oeps"]
    assert len(built) == 1


def test_mms_methods_alone_equal_the_shared_run():
    cfg = ScenarioConfig(scenario="curved-nonlinear", **SMOKE)
    scn = build_beam_scenario(cfg)
    bundle = compare_methods(cfg, ("hfm", "mms-o1", "mms-oeps"), scenario=scn)
    for method in ("mms-o1", "mms-oeps"):
        alone, shared = run_method(scn, method), bundle.results[method]
        assert alone.basis_size == shared.basis_size
        assert np.array_equal(alone.displacement, shared.displacement)
        for field in ("displacement", "velocity", "acceleration", "step_residuals",
                      "newton_iterations"):
            assert np.array_equal(getattr(alone.trajectory, field),
                                  getattr(shared.trajectory, field)), (method, field)
        assert alone.trajectory.metadata == shared.trajectory.metadata


def test_compare_rejects_a_scenario_of_another_config():
    # the summary reports cfg's scenario and eps, so the two must agree
    scn = build_beam_scenario(ScenarioConfig(scenario="curved-nonlinear", **SMOKE),
                              need_database=False)
    cfg = ScenarioConfig(scenario="straight-linear", **{**SMOKE, "eps": 1e-2})
    with pytest.raises(ConfigError, match="differs in scenario, eps"):
        compare_methods(cfg, ("hfm",), scenario=scn)


# Largest Newton iteration count per step of each method on the arch
# (curved-nonlinear, eps 1e-3, 5 cycles, seed 1). The modal baseline peaks
# at step 128, two iterations below the cap; a change that eats into the
# margin shows here before a longer run aborts with IntegrationError.
ARCH_MAX_NEWTON = {"hfm": 2, "mms-o1": 2, "mms-oeps": 1, "modal": 23, "modal-pod": 13}


def test_newton_iteration_margin_on_the_arch():
    cfg = ScenarioConfig(scenario="curved-nonlinear", eps=1e-3, cycles=5, seed=1)
    bundle = compare_methods(cfg)
    used = {name: res.trajectory.metadata["max_newton_iterations"]
            for name, res in bundle.results.items()}
    assert used == ARCH_MAX_NEWTON
    assert max(used.values()) < cfg.max_newton


def test_modal_subset_presets():
    cfg = ScenarioConfig(scenario="curved-nonlinear", **SMOKE)
    assert modal_subset_indices(cfg, 19) == (3, 6, 12)
    cfg = ScenarioConfig(scenario="curved-linear", **SMOKE)
    assert modal_subset_indices(cfg, 19) == (1, 11, 17)
    cfg = ScenarioConfig(scenario="curved-linear", modal_subset=(2, 5, 7), **SMOKE)
    assert modal_subset_indices(cfg, 19) == (1, 4, 6)
    cfg = ScenarioConfig(scenario="straight-linear", **SMOKE)
    idx = modal_subset_indices(cfg, 19)
    assert len(idx) == 3 and all(0 <= j < 19 for j in idx)


def test_modal_subset_checked_against_grid():
    # the curved-nonlinear preset (4, 7, 13) does not fit a 5-point grid
    cfg = ScenarioConfig(scenario="curved-nonlinear", method="modal", **SMOKE)
    with pytest.raises(ConfigError, match=r"\(4, 7, 13\).*5 points"):
        modal_subset_indices(cfg, 5)
    with pytest.raises(ConfigError, match="grid"):
        run_scenario(cfg)
    cfg = ScenarioConfig(scenario="straight-linear", modal_subset="random", **SMOKE)
    with pytest.raises(ConfigError, match="at least 3"):
        modal_subset_indices(cfg, 2)
    assert len(modal_subset_indices(cfg, 3)) == 3


def test_scenario_config_validation():
    with pytest.raises(ConfigError):
        ScenarioConfig(scenario="bent-spoon")
    with pytest.raises(ConfigError):
        ScenarioConfig(method="magic")
    with pytest.raises(ConfigError):
        ScenarioConfig(cycles=0)
    with pytest.raises(ConfigError):
        ScenarioConfig(steps_per_cycle=10)
    with pytest.raises(ConfigError):
        ScenarioConfig(eps=-1.0)
    # None is the default size; 0 is not another spelling of it
    for size in (0, -3):
        with pytest.raises(ConfigError, match="basis_size"):
            ScenarioConfig(basis_size=size)
    for subset in (None, 4.0, ("a",), "nearest"):
        with pytest.raises(ConfigError, match="modal_subset"):
            ScenarioConfig(modal_subset=subset)
    # sizes the set-up would index or loop over before failing outside the
    # configuration-error path
    for name, value in (("db_points", 0), ("k_modes", 0), ("max_newton", 0),
                        ("n_elements", 1), ("n_elements", -2)):
        with pytest.raises(ConfigError, match=name):
            ScenarioConfig(**{name: value})
    ScenarioConfig(db_points=1, k_modes=1, max_newton=1, n_elements=2)


def test_default_cycles_follow_thermal_span():
    cfg = ScenarioConfig(scenario="straight-linear", eps=1e-2)
    assert cfg.resolved_cycles(2.0 * np.pi) == 100
    cfg = ScenarioConfig(scenario="curved-nonlinear", eps=1e-3)
    assert cfg.resolved_cycles(np.pi) == 500


def test_twodof_demo_bundle(tmp_path):
    result = scenario_twodof(0.01, cycles=3, steps_per_cycle=30)
    assert result.full.displacement.shape == (91, 2)
    assert result.rom_displacement.shape == (91, 2)
    assert np.isfinite(result.uniform_error)
    assert result.eigenvalues.shape == (91, 2)
    out = write_twodof_outputs(result, tmp_path)
    assert (out / "summary.json").exists()
    assert (out / "probes_hfm.csv").exists()
    assert (out / "errors.csv").exists()


def test_twodof_frozen_temperature_tracks():
    # fixed temperature on the stable branch: the single-mode model tracks
    # the response up to the quasi-static second-mode content (the forcing
    # at 1.5 rad/s sits well below both natural frequencies here)
    result = scenario_twodof(1e-6, cycles=20, frozen_temperature=-0.29)
    assert result.uniform_error < 0.15


def test_twodof_fixed_vs_adaptive(tmp_path):
    adaptive = scenario_twodof(0.01, cycles=3, steps_per_cycle=30)
    fixed = scenario_twodof(0.01, cycles=3, steps_per_cycle=30,
                            reduction="fixed-1-mode")
    assert fixed.reduction == "fixed-1-mode"
    assert np.isfinite(fixed.uniform_error)
    assert adaptive.reduction == "adaptive-1-mode"


def test_twodof_demo_logs_no_warning(caplog):
    # the demo starts from rest: its first sample has a zero reference norm,
    # which the valid mask flags and no warning repeats
    with caplog.at_level(logging.WARNING, logger="thermrom"):
        result = scenario_twodof(0.01)
    assert not caplog.records
    assert np.isnan(result.instant_error[0])


# -- configuration files ------------------------------------------------------------

def test_example_config_parses(tmp_path):
    path = tmp_path / "example.ini"
    path.write_text(example_config_text())
    cfg = load_config(path)
    assert cfg.scenario == "curved-nonlinear"
    assert cfg.eps == 1e-3
    assert cfg.seed == 2024


def test_config_scenario_section_overrides(tmp_path):
    path = tmp_path / "c.ini"
    path.write_text("""
[run]
scenario = straight-linear
eps = 1e-3
cycles = 7

[straight-linear]
eps = 2e-2
""")
    cfg = load_config(path)
    assert cfg.eps == 2e-2
    assert cfg.cycles == 7


def test_config_cli_overrides_win(tmp_path):
    path = tmp_path / "c.ini"
    path.write_text("[run]\nscenario = curved-linear\neps = 1e-3\n")
    cfg = load_config(path, overrides={"eps": 5e-3, "seed": 42})
    assert cfg.eps == 5e-3
    assert cfg.seed == 42


def test_config_unknown_key_rejected(tmp_path):
    path = tmp_path / "c.ini"
    path.write_text("[run]\nscenario = curved-linear\npulse_heigth = 10\n")
    with pytest.raises(ConfigError):
        load_config(path)


def test_config_bad_value_rejected(tmp_path):
    path = tmp_path / "c.ini"
    path.write_text("[run]\nscenario = curved-linear\ncycles = soon\n")
    with pytest.raises(ConfigError):
        load_config(path)


@pytest.mark.parametrize("text, expect", [
    ("4", (4,)),
    ("4,7,13", (4, 7, 13)),
    ("random", "random"),
    ("4,x", None),
    ("4,7,", None),
    ("none", None),
])
def test_config_modal_subset_parsing(text, expect, tmp_path):
    path = tmp_path / "c.ini"
    path.write_text(f"[run]\nscenario = curved-linear\nmodal_subset = {text}\n")
    if expect is None:
        with pytest.raises(ConfigError, match="modal_subset"):
            load_config(path)
    else:
        cfg = load_config(path)
        assert cfg.modal_subset == expect
        if expect != "random":
            assert modal_subset_indices(cfg, 19) == tuple(j - 1 for j in expect)


def test_config_missing_file():
    with pytest.raises(ConfigError):
        load_config("/nonexistent/path.ini")


def test_config_parses_every_field_to_its_type(tmp_path):
    # one non-default value per ScenarioConfig field, written as text
    values = dict(
        scenario="straight-linear", eps=2e-3, cycles=3, steps_per_cycle=40,
        seed=7, method="modal-pod", basis_size=4, out_dir="runs/x",
        save_states=True, n_elements=30, pulse_height=50.0,
        pulse_width_fraction=0.15, damping_modulus=2e6, db_points=9, k_modes=3,
        modal_subset=(1, 4, 7), modal_rank_tol=1e-5, newton_tol=1e-9,
        max_newton=30,
    )
    assert set(values) == {f.name for f in dataclasses.fields(ScenarioConfig)}
    text = {k: ",".join(map(str, v)) if isinstance(v, tuple) else repr(v).strip("'")
            for k, v in values.items()}
    path = tmp_path / "all.ini"
    path.write_text("[run]\n" + "".join(f"{k} = {v}\n" for k, v in text.items()))
    cfg = load_config(path)
    for key, expect in values.items():
        got = getattr(cfg, key)
        assert type(got) is type(expect) and got == expect, key


@pytest.mark.parametrize("overrides, warns", [
    ({}, False),                          # half sweep: x_c in [0.01, 0.09]
    ({"eps": 0.25, "cycles": 3}, True),   # tau reaches 3 pi / 2: x_c = -0.07
    ({"eps": 0.0516, "cycles": 10}, False),  # x_c = 0.002: past the grid, on the span
], ids=["default-half-sweep", "sweep-past-pi", "past-the-grid"])
def test_pulse_range_warning_follows_swept_phase(overrides, warns, caplog):
    # without a database only a range that leaves the beam span is worth a
    # warning; the grid warning is covered with a database below
    cfg = ScenarioConfig(scenario="curved-nonlinear", n_elements=12, **overrides)
    with caplog.at_level(logging.WARNING, logger="thermrom.scenarios"):
        build_beam_scenario(cfg, need_database=False)
    flagged = [r.getMessage() for r in caplog.records if "pulse center range" in r.getMessage()]
    assert bool(flagged) == warns
    assert not any("grid" in message for message in flagged)


def test_clamped_positions_counted_once_per_run(caplog):
    # x_c = 0.01 + 0.08 sin(tau) sweeps [0.002, 0.09] m, past both ends of
    # the 5-point grid [L/6, 5L/6]: one set-up warning, the count of saved
    # times outside the grid in the summary, and no warning per clamp
    cfg = ScenarioConfig(scenario="curved-nonlinear", method="mms-o1",
                         **{**SMOKE, "eps": 0.0516, "cycles": 10})
    with caplog.at_level(logging.WARNING, logger="thermrom"):
        bundle = run_scenario(cfg)
    scn = bundle.scenario
    x_c = scn.x0 + scn.amplitude * np.sin(cfg.eps * scn.omega_f * scn.times)
    grid = scn.database.grid
    outside = int(np.count_nonzero((x_c < grid[0]) | (x_c > grid[-1])))
    assert 0 < outside < x_c.size
    assert bundle.summary["clamped_positions"] == outside
    [warning] = caplog.records
    assert "extends past the database grid" in warning.getMessage()
