import numpy as np
import pytest

from thermrom.basisdb import build_database, default_grid
from thermrom.beam import BeamModel, BeamProperties, TemperaturePulse


def coarse_props(rise=0.0, n_elements=12):
    return BeamProperties(rise=rise, n_elements=n_elements)


def coarse_pulse(height=40.0, length=0.1):
    return TemperaturePulse(height=height, width=0.2 * length)


@pytest.fixture(scope="session")
def beam_straight_nl():
    """Coarse straight beam, full kinematics, heated pulse."""
    return BeamModel(coarse_props(), coarse_pulse())


@pytest.fixture(scope="session")
def beam_straight_lin():
    return BeamModel(coarse_props(), coarse_pulse(), linear_kinematics=True)


@pytest.fixture(scope="session")
def beam_curved_nl():
    return BeamModel(coarse_props(rise=5e-3), coarse_pulse())


@pytest.fixture(scope="session")
def beam_curved_lin():
    return BeamModel(coarse_props(rise=5e-3), coarse_pulse(), linear_kinematics=True)


@pytest.fixture(scope="session")
def beam60_straight():
    """Paper-resolution straight beam, full kinematics, cold."""
    return BeamModel(BeamProperties())


@pytest.fixture(scope="session")
def db_curved_small(beam_curved_nl):
    """Small aligned database on the coarse curved beam (vm+md)."""
    grid = default_grid(beam_curved_nl.properties.length, 7)
    return build_database(beam_curved_nl, grid, k=3, with_md=True)


@pytest.fixture(scope="session")
def db_curved_vm(beam_curved_lin):
    """Small aligned vm-only database on the coarse curved linear beam."""
    grid = default_grid(beam_curved_lin.properties.length, 7)
    return build_database(beam_curved_lin, grid, k=3)


@pytest.fixture
def rng():
    return np.random.default_rng(61)
