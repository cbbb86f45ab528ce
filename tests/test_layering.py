"""The two-mass oscillator is known by one module, ``thermrom.twodof``."""

import re
from pathlib import Path

import pytest

import thermrom

BEAM_SIDE = ("scenarios.py", "rom.py", "models.py", "config.py")


@pytest.mark.parametrize("name", BEAM_SIDE)
def test_beam_modules_do_not_know_the_oscillator(name):
    text = (Path(thermrom.__file__).parent / name).read_text()
    found = sorted({m.group(0) for m in re.finditer(r"\w*twodof\w*", text, re.IGNORECASE)})
    assert not found, f"thermrom/{name} names the two-mass oscillator: {found}"
