"""Command-line interface.

Subcommands: ``db build``, ``db inspect``, ``run``, ``compare``,
``demo twodof``, ``svd-profile``. The default output root is the
``THERMROM_OUT`` environment variable or ``./thermrom_runs``. Exit codes:
0 success, 1 runtime failure, 2 usage or configuration error.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
from pathlib import Path

import numpy as np

from .basisdb import load_database, save_database, singular_value_profile, stack_columns
from .config import example_config_text, load_config
from .errors import ConfigError, ThermromError
from .scenarios import (
    METHOD_NAMES,
    SCENARIO_NAMES,
    ScenarioConfig,
    build_scenario_database,
    compare_methods,
    run_scenario,
)
from .twodof import scenario_twodof, write_twodof_outputs


def _out_root():
    return Path(os.environ.get("THERMROM_OUT", "thermrom_runs"))


def _resolve_out(arg, default_name):
    return Path(arg) if arg else _out_root() / default_name


def _build_config(args, defaults=None):
    """Flags win over the configuration file, the file over ``defaults``."""
    overrides = {
        key: getattr(args, key, None)
        for key in ("scenario", "eps", "cycles", "steps_per_cycle", "seed", "method",
                    "basis_size", "pulse_height", "save_states")
    }
    if getattr(args, "config", None):
        return load_config(args.config, overrides, defaults)
    values = {k: v for k, v in overrides.items() if v is not None}
    return ScenarioConfig(**{**(defaults or {}), **values})


def _cmd_db_build(args):
    cfg = _build_config(args)
    out = _resolve_out(args.out, f"db_{cfg.scenario}")
    db = build_scenario_database(cfg)
    save_database(db, out)
    print(f"database with {len(db)} entries (kind {db.kind}, m = {db.m}) -> {out}")
    return 0


def _cmd_db_inspect(args):
    db = load_database(args.path)
    print(f"kind = {db.kind}")
    print(f"entries = {len(db)}, basis size m = {db.m}, full dimension n = {db.n}")
    print(f"reference_index = {db.reference_index}, aligned = {db.aligned}")
    print("grid =", " ".join(f"{g:.6g}" for g in db.grid))
    if db.alignment_residuals is not None:
        print("alignment residuals: max %.3e" % db.alignment_residuals.max())
    if db.adjacent_angles is not None:
        print("adjacent principal angles [deg]: max %.3f"
              % np.degrees(db.adjacent_angles).max())
    print("frequencies [rad/s]:")
    for j, entry in enumerate(db.entries):
        freq_text = " ".join(f"{w:10.1f}" for w in entry.frequencies)
        print(f"  x_c = {db.grid[j]:8.5f} : {freq_text}")
    return 0


def _cmd_run(args):
    cfg = _build_config(args, defaults={"method": "mms-o1"})
    out = _resolve_out(args.out or cfg.out_dir,
                       f"run_{cfg.scenario}_{cfg.method}_eps{cfg.eps:g}")
    bundle = run_scenario(cfg, out_dir=out)
    _print_summary(bundle.summary)
    print(f"outputs -> {out}")
    return 0


def _cmd_compare(args):
    cfg = _build_config(args)
    methods = tuple(args.methods) if args.methods else (
        "hfm", "mms-o1", "mms-oeps", "modal", "modal-pod"
    )
    out = _resolve_out(args.out or cfg.out_dir,
                       f"compare_{cfg.scenario}_eps{cfg.eps:g}")
    bundle = compare_methods(cfg, methods, out_dir=out)
    _print_summary(bundle.summary)
    print(f"outputs -> {out}")
    return 0


def _print_summary(summary):
    print(f"scenario {summary['scenario']}  eps = {summary['eps']:g}  "
          f"cycles = {summary['cycles']}")
    header = f"{'method':<12s}{'m':>6s}{'E_uniform':>12s}{'runtime':>10s}"
    print(header)
    for name, row in summary["methods"].items():
        e_text = ("%10.2f%%" % (100.0 * row["E_uniform"])
                  if "E_uniform" in row else " " * 11 + "-")
        m_text = str(row["basis_size"]) if row["basis_size"] else "-"
        print(f"{name:<12s}{m_text:>6s}{e_text}{row['runtime_s']:>9.1f}s")


def _cmd_demo(args):
    given = {key: getattr(args, key) for key in ("eps", "cycles", "steps_per_cycle")
             if getattr(args, key) is not None}
    result = scenario_twodof(reduction=args.reduction, **given)
    eps = result.summary["eps"]
    out = _resolve_out(args.out, f"twodof_eps{eps:g}")
    write_twodof_outputs(result, out)
    lam = result.eigenvalues
    print(f"two-mass demo, eps = {eps:g}, {result.reduction}")
    print(f"uniform error = {100.0 * result.uniform_error:.2f}%")
    print("stiffness eigenvalues along the temperature path:")
    print(f"  lambda_1 in [{lam[:, 0].min():8.3f}, {lam[:, 0].max():8.3f}]")
    print(f"  lambda_2 in [{lam[:, 1].min():8.3f}, {lam[:, 1].max():8.3f}]")
    print(f"outputs -> {out}")
    return 0


def _cmd_svd_profile(args):
    cfg = _build_config(args)
    if args.database:
        db = load_database(args.database)
    else:
        db = build_scenario_database(cfg)
    sigmas = singular_value_profile(stack_columns(db.entries))
    out = _resolve_out(args.out, f"svd_{cfg.scenario}")
    out.mkdir(parents=True, exist_ok=True)
    path = out / "singular_values.csv"
    with open(path, "w") as fh:
        fh.write("index,sigma\n")
        for i, s in enumerate(sigmas):
            fh.write(f"{i + 1},{s:.17g}\n")
    print(f"{sigmas.size} singular values (sigma1 = {sigmas[0]:.4g}) -> {path}")
    return 0


def _cmd_write_config(args):
    path = Path(args.path)
    path.write_text(example_config_text())
    print(f"example configuration -> {path}")
    return 0


def _add_common(parser, with_method=False):
    parser.add_argument("--config", help="configuration file (key = value sections)")
    parser.add_argument("--scenario", choices=SCENARIO_NAMES,
                        help="beam scenario (the two-mass oscillator is "
                             "'thermrom demo twodof')")
    parser.add_argument("--eps", type=float, help="scale separation")
    parser.add_argument("--cycles", type=int)
    parser.add_argument("--steps-per-cycle", dest="steps_per_cycle", type=int)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--basis-size", dest="basis_size", type=int,
                        help="modal-pod basis size (default: the database's)")
    parser.add_argument("--pulse-height", dest="pulse_height", type=float)
    parser.add_argument("--save-states", dest="save_states", action="store_true",
                        default=None)
    parser.add_argument("--out", help="output directory")
    if with_method:
        parser.add_argument("--method", choices=METHOD_NAMES,
                            help="reduction method (default: the file's, else mms-o1)")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="thermrom",
        description="Adaptive-basis model reduction experiments for a beam "
                    "under a slowly moving temperature pulse.",
    )
    parser.add_argument("-v", "--verbose", action="count", default=0)
    sub = parser.add_subparsers(dest="command", required=True)

    p_db = sub.add_parser("db", help="basis database utilities")
    db_sub = p_db.add_subparsers(dest="db_command", required=True)
    p_build = db_sub.add_parser("build", help="build and store a database")
    _add_common(p_build)
    p_build.set_defaults(func=_cmd_db_build)
    p_inspect = db_sub.add_parser("inspect", help="print database metadata")
    p_inspect.add_argument("path")
    p_inspect.set_defaults(func=_cmd_db_inspect)

    p_run = sub.add_parser("run", help="run one scenario/method")
    _add_common(p_run, with_method=True)
    p_run.set_defaults(func=_cmd_run)

    p_cmp = sub.add_parser("compare", help="reference plus a set of reductions")
    _add_common(p_cmp)
    p_cmp.add_argument("--methods", nargs="+", choices=METHOD_NAMES)
    p_cmp.set_defaults(func=_cmd_compare)

    p_demo = sub.add_parser("demo", help="small demos")
    demo_sub = p_demo.add_subparsers(dest="demo_command", required=True)
    p_two = demo_sub.add_parser("twodof", help="two-mass oscillator demo")
    p_two.add_argument("--eps", type=float)
    p_two.add_argument("--cycles", type=int)
    p_two.add_argument("--steps-per-cycle", dest="steps_per_cycle", type=int)
    p_two.add_argument("--reduction", default="adaptive-1-mode",
                       choices=("adaptive-1-mode", "fixed-1-mode"))
    p_two.add_argument("--out")
    p_two.set_defaults(func=_cmd_demo)

    p_svd = sub.add_parser("svd-profile", help="singular values of the stacked database")
    _add_common(p_svd)
    p_svd.add_argument("--database", help="existing database directory")
    p_svd.set_defaults(func=_cmd_svd_profile)

    p_cfg = sub.add_parser("write-config", help="write an example configuration file")
    p_cfg.add_argument("path")
    p_cfg.set_defaults(func=_cmd_write_config)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    level = logging.WARNING
    if args.verbose == 1:
        level = logging.INFO
    elif args.verbose >= 2:
        level = logging.DEBUG
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except ThermromError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
