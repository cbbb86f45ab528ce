"""Command-line interface behavior."""

import json

import pytest

from thermrom.cli import main


SMOKE_ARGS = ["--eps", "5e-3", "--cycles", "1", "--steps-per-cycle", "20"]


def run_cli(args, monkeypatch, tmp_path):
    monkeypatch.setenv("THERMROM_OUT", str(tmp_path / "outroot"))
    return main(args)


def test_demo_twodof(tmp_path, monkeypatch, capsys):
    code = run_cli(["demo", "twodof", "--eps", "0.01", "--cycles", "2",
                    "--out", str(tmp_path / "demo")], monkeypatch, tmp_path)
    assert code == 0
    out = capsys.readouterr().out
    assert "uniform error" in out
    assert "eigenvalues" in out
    assert (tmp_path / "demo" / "summary.json").exists()


def test_demo_twodof_defaults(tmp_path, monkeypatch):
    assert run_cli(["demo", "twodof"], monkeypatch, tmp_path) == 0
    summary = json.loads(
        (tmp_path / "outroot" / "twodof_eps0.01" / "summary.json").read_text())
    assert (summary["eps"], summary["cycles"], summary["steps_per_cycle"]) == (0.01, 5, 50)
    assert summary["reduction"] == "adaptive-1-mode"
    # a zero count is a configuration error, not a silent default
    assert run_cli(["demo", "twodof", "--steps-per-cycle", "0"], monkeypatch, tmp_path) == 2


def test_run_subcommand(tmp_path, monkeypatch):
    code = run_cli(
        ["run", "--scenario", "curved-nonlinear", "--method", "mms-o1",
         *SMOKE_ARGS, "--out", str(tmp_path / "run")],
        monkeypatch, tmp_path)
    assert code == 0
    summary = json.loads((tmp_path / "run" / "summary.json").read_text())
    assert "mms-o1" in summary["methods"]


@pytest.mark.parametrize("file_method, flag, expect", [
    ("modal-pod", None, "modal-pod"),  # the file's method is used
    (None, None, "mms-o1"),            # neither sets one: mms-o1
    ("modal-pod", "mms-o1", "mms-o1"),  # the flag wins over the file
])
def test_run_method_from_config_file(file_method, flag, expect, tmp_path, monkeypatch):
    cfg = tmp_path / "c.ini"
    cfg.write_text("[run]\nscenario = curved-nonlinear\nn_elements = 12\n"
                   "k_modes = 2\ndb_points = 5\nbasis_size = 3\n"
                   + (f"method = {file_method}\n" if file_method else ""))
    args = ["run", "--config", str(cfg), *SMOKE_ARGS, "--out", str(tmp_path / "run")]
    if flag:
        args += ["--method", flag]
    assert run_cli(args, monkeypatch, tmp_path) == 0
    summary = json.loads((tmp_path / "run" / "summary.json").read_text())
    assert set(summary["methods"]) == {"hfm", expect}


def test_run_twodof_points_to_demo(tmp_path, monkeypatch, capsys):
    # twodof is no beam scenario: a usage error in every subcommand that
    # takes one, whose help names the demo
    for command in (["compare"], ["run"], ["db", "build"], ["svd-profile"]):
        with pytest.raises(SystemExit) as exc:
            run_cli([*command, "--scenario", "twodof"], monkeypatch, tmp_path)
        assert exc.value.code == 2
        assert "invalid choice: 'twodof'" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        run_cli(["run", "--help"], monkeypatch, tmp_path)
    assert exc.value.code == 0
    assert "'thermrom demo twodof'" in " ".join(capsys.readouterr().out.split())
    bad = tmp_path / "twodof.ini"
    bad.write_text("[run]\nscenario = twodof\n")
    assert run_cli(["run", "--config", str(bad)], monkeypatch, tmp_path) == 2


def test_run_uses_env_output_root(tmp_path, monkeypatch):
    code = run_cli(["run", "--scenario", "curved-nonlinear", "--method",
                    "modal-pod", "--basis-size", "3", *SMOKE_ARGS],
                   monkeypatch, tmp_path)
    assert code == 0
    candidates = list((tmp_path / "outroot").iterdir())
    assert len(candidates) == 1


def test_compare_subcommand(tmp_path, monkeypatch, capsys):
    code = run_cli(
        ["compare", "--scenario", "curved-nonlinear", "--methods", "mms-o1",
         "modal-pod", *SMOKE_ARGS, "--out", str(tmp_path / "cmp")],
        monkeypatch, tmp_path)
    assert code == 0
    text = capsys.readouterr().out
    assert "mms-o1" in text
    assert (tmp_path / "cmp" / "errors.csv").exists()


def test_db_build_and_inspect(tmp_path, monkeypatch, capsys):
    db_dir = tmp_path / "db"
    code = run_cli(["db", "build", "--scenario", "curved-nonlinear",
                    *SMOKE_ARGS, "--out", str(db_dir)], monkeypatch, tmp_path)
    assert code == 0
    assert (db_dir / "db_meta.txt").exists()
    capsys.readouterr()
    code = run_cli(["db", "inspect", str(db_dir)], monkeypatch, tmp_path)
    assert code == 0
    text = capsys.readouterr().out
    assert "kind = vm+md" in text
    assert "frequencies" in text


def test_db_build_default_full_scale_entry_count(tmp_path, monkeypatch):
    # default grid: 19 entries; keep the model coarse for speed
    code = run_cli(["db", "build", "--scenario", "curved-nonlinear",
                    "--out", str(tmp_path / "db19"),
                    "--config", str_write_config(tmp_path)],
                   monkeypatch, tmp_path)
    assert code == 0
    meta = (tmp_path / "db19" / "db_meta.txt").read_text()
    assert "n_entries = 19" in meta
    assert "m = 5" in meta  # k=2 modes plus k(k+1)/2=3 derivatives


def str_write_config(tmp_path):
    path = tmp_path / "c.ini"
    path.write_text("""
[run]
scenario = curved-nonlinear
n_elements = 12
k_modes = 2
db_points = 19
""")
    return str(path)


def test_svd_profile(tmp_path, monkeypatch):
    cfg = tmp_path / "c.ini"
    cfg.write_text("[run]\nscenario = curved-linear\nn_elements = 12\n"
                   "k_modes = 2\ndb_points = 5\n")
    code = run_cli(["svd-profile", "--config", str(cfg),
                    "--out", str(tmp_path / "svd")], monkeypatch, tmp_path)
    assert code == 0
    rows = (tmp_path / "svd" / "singular_values.csv").read_text().splitlines()
    assert rows[0] == "index,sigma"
    assert len(rows) == 1 + 5 * 2


def test_write_config(tmp_path, monkeypatch):
    path = tmp_path / "example.ini"
    assert run_cli(["write-config", str(path)], monkeypatch, tmp_path) == 0
    assert "scenario = curved-nonlinear" in path.read_text()


def test_invalid_config_exits_2(tmp_path, monkeypatch):
    bad = tmp_path / "bad.ini"
    bad.write_text("[run]\nscenario = nonsense\n")
    code = run_cli(["run", "--config", str(bad), "--method", "hfm"],
                   monkeypatch, tmp_path)
    assert code == 2


def test_unknown_flag_exits_2(tmp_path, monkeypatch):
    with pytest.raises(SystemExit) as exc:
        run_cli(["run", "--what-is-this"], monkeypatch, tmp_path)
    assert exc.value.code == 2


def test_missing_subcommand_exits_2(tmp_path, monkeypatch):
    with pytest.raises(SystemExit) as exc:
        run_cli([], monkeypatch, tmp_path)
    assert exc.value.code == 2


@pytest.mark.parametrize("line", ["modal_subset = 4,x", "basis_size = 0", "db_points = 0",
                                  "k_modes = 0", "max_newton = 0", "n_elements = 1"])
def test_run_bad_config_value_is_a_configuration_error(line, tmp_path, monkeypatch, capsys):
    cfg = tmp_path / "c.ini"
    cfg.write_text(f"[run]\nscenario = curved-nonlinear\n{line}\n")
    assert run_cli(["run", "--config", str(cfg), *SMOKE_ARGS], monkeypatch, tmp_path) == 2
    assert "configuration error:" in capsys.readouterr().err
