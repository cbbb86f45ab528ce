"""Flat key=value configuration files (INI sections) for the harness.

A file holds one ``[run]`` section plus optional per-scenario sections whose
keys override the run section when that scenario is selected::

    [run]
    scenario = curved-nonlinear
    eps = 1e-3
    seed = 2024

    [curved-nonlinear]
    cycles = 500
    pulse_height = 40

Unknown keys are rejected so typos fail loudly.
"""

from __future__ import annotations

import configparser
import typing
from pathlib import Path

from .errors import ConfigError
from .scenarios import ScenarioConfig

__all__ = ["load_config", "example_config_text"]

_BOOL_TRUE = ("1", "true", "yes", "on")
_BOOL_FALSE = ("0", "false", "no", "off")


def _convert(name, raw, target_type):
    raw = raw.strip()
    if name == "modal_subset" and raw not in ("preset", "random"):
        try:
            return tuple(int(tok) for tok in raw.split(","))
        except ValueError as exc:
            raise ConfigError(f"key {name!r}: expected preset, random or comma-separated "
                              f"grid indices, got {raw!r}") from exc
    if raw.lower() == "none":
        return None
    if target_type is bool:
        low = raw.lower()
        if low in _BOOL_TRUE:
            return True
        if low in _BOOL_FALSE:
            return False
        raise ConfigError(f"key {name!r}: cannot parse boolean from {raw!r}")
    if target_type in (int, float):
        try:
            return target_type(raw)
        except ValueError as exc:
            raise ConfigError(f"key {name!r}: cannot parse {target_type.__name__} "
                              f"from {raw!r}") from exc
    return raw


def _field_type(hint):
    """The parse type of a field: its non-None type if that is bool, int or
    float, else str."""
    kinds = [t for t in typing.get_args(hint) or (hint,) if t is not type(None)]
    return kinds[0] if len(kinds) == 1 and kinds[0] in (bool, int, float) else str


_FIELD_TYPES = {name: _field_type(hint)
                for name, hint in typing.get_type_hints(ScenarioConfig).items()}


def load_config(path, overrides=None, defaults=None):
    """Read a configuration file into a :class:`ScenarioConfig`.

    ``overrides`` (a dict) wins over the file; per-scenario sections win
    over ``[run]``; ``defaults`` (a dict) fill keys that none of them set.
    """
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"configuration file {path} does not exist")
    parser = configparser.ConfigParser()
    try:
        parser.read(path)
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse {path}: {exc}") from exc

    values = dict(defaults or {})

    def apply_section(section):
        for key, raw in parser.items(section):
            if key not in _FIELD_TYPES:
                raise ConfigError(f"unknown configuration key {key!r} in [{section}]")
            values[key] = _convert(key, raw, _FIELD_TYPES[key])

    if parser.has_section("run"):
        apply_section("run")
    scenario = (overrides or {}).get("scenario") or values.get("scenario")
    if scenario and parser.has_section(scenario):
        apply_section(scenario)
    for key, val in (overrides or {}).items():
        if val is not None:
            values[key] = val
    try:
        return ScenarioConfig(**values)
    except TypeError as exc:
        raise ConfigError(str(exc)) from exc


def example_config_text():
    return """\
# thermrom run configuration (key = value, sections per scenario)
[run]
scenario = curved-nonlinear
eps = 1e-3
seed = 2024
method = mms-o1
steps_per_cycle = 50
# cycles = 500          # default: scenario thermal span / (2*pi*eps)
# basis_size = 20       # modal-pod size; default: database basis size
# out_dir = runs/demo
save_states = false

# beam and pulse parameters
n_elements = 60
# pulse_height = 400          # default: per-scenario (40 / 40 / 400 K)
# pulse_width_fraction = 0.1  # default: per-scenario (0.2 / 0.2 / 0.1)
# damping_modulus = 1e6       # default: per-scenario (1e8 linear-straight,
#                             # 1e6 curved)
db_points = 19
k_modes = 5
# modal_subset = preset  # or "random", or 1-based indices like 4,7,13
modal_rank_tol = 1e-4

# integrator
newton_tol = 1e-8
max_newton = 25

[curved-nonlinear]
# scenario-specific overrides go here

[straight-linear]
eps = 1e-2
"""
