"""What a module may know: the two-mass oscillator is known by one module,
``thermrom.twodof``, and the beam's kinematics and Gauss points by the beam
and its kernels, not by the reduced models in ``thermrom.rom``."""

import re
from pathlib import Path

import pytest

import thermrom

BEAM_SIDE = ("scenarios.py", "rom.py", "models.py", "config.py")

# Beam members whose use in rom would branch on the kinematics or lay out
# the Gauss points there.
BEAM_INTERNALS = ("linear_kinematics", "heated_elements", "gauss_temperature", "x_gauss",
                  "reduced_rows")


def _source(name):
    return (Path(thermrom.__file__).parent / name).read_text()


@pytest.mark.parametrize("name", BEAM_SIDE)
def test_beam_modules_do_not_know_the_oscillator(name):
    found = sorted({m.group(0) for m in re.finditer(r"\w*twodof\w*", _source(name),
                                                    re.IGNORECASE)})
    assert not found, f"thermrom/{name} names the two-mass oscillator: {found}"


def test_reduced_models_do_not_know_the_beam_kinematics():
    text = _source("rom.py")
    found = [word for word in BEAM_INTERNALS if word in text]
    assert not found, f"thermrom/rom.py names beam internals: {found}"
