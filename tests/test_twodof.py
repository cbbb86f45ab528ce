"""Two-mass oscillator: spring laws, contract checks, trajectory container."""

import numpy as np
import pytest

from thermrom.errors import ContractError
from thermrom.models import Trajectory, validate_model
from thermrom.twodof import TwoDofModel, twodof_stiffness


def test_stiffness_at_zero_offset():
    # a=1, b=20, alpha=2: k1=41, k2=20, k3=1
    k = twodof_stiffness(0.0)
    np.testing.assert_allclose(k, [[61.0, -20.0], [-20.0, 21.0]], rtol=1e-15)


def test_stiffness_at_quarter_pi():
    # alpha*T = pi/2: cos 0, sin 1 -> k1 = k3 = 1, k2 = 0
    k = twodof_stiffness(np.pi / 4.0)
    np.testing.assert_allclose(k, np.eye(2), atol=1e-14)


def test_stiffness_symmetric_and_damping_proportional(rng):
    model = TwoDofModel()
    for temperature in rng.uniform(-np.pi / 2, np.pi / 2, size=10):
        k = model.stiffness(temperature)
        np.testing.assert_allclose(k, k.T, rtol=1e-15)
        np.testing.assert_allclose(model.damping(temperature), model.beta * k,
                                   rtol=1e-15)


def test_stiffness_domain_error():
    with pytest.raises(ContractError):
        twodof_stiffness(1.8)
    with pytest.raises(ContractError):
        twodof_stiffness(-2.0)


def test_eigenvectors_rotate_with_temperature():
    model = TwoDofModel()
    _, v0 = np.linalg.eigh(model.stiffness(0.0))
    _, v1 = np.linalg.eigh(model.stiffness(np.pi / 4.0))
    first0, first1 = v0[:, 0], v1[:, 0]
    angle = np.arccos(min(abs(first0 @ first1), 1.0))
    assert angle > 1e-3


def test_hot_configuration_is_indefinite():
    # For these printed spring laws a sufficiently hot configuration loses
    # definiteness; the admissible range is validated, not stability.
    vals = np.linalg.eigvalsh(twodof_stiffness(0.88))
    assert vals[0] < 0.0


def test_validate_twodof_passes():
    report = validate_model(TwoDofModel(), 0.0, trials=4)
    assert report.passed, str(report)
    tangent = [c for c in report.checks if c.name == "tangent consistency"][0]
    # exact tangent of a linear force: only finite-difference round-off left
    assert tangent.deviation < 1e-8


def test_validate_flags_asymmetric_mass():
    class Broken(TwoDofModel):
        def mass(self):
            return np.array([[1.0, 0.3], [0.0, 1.0]])

    report = validate_model(Broken(), 0.0)
    assert not report.passed
    assert "mass symmetry" in report.failures


def _sample_trajectory():
    times = np.linspace(0.0, 1.0, 11)
    states = np.linspace(0.0, 1.0, 22).reshape(11, 2)
    return Trajectory(times=times, displacement=states, velocity=2 * states,
                      acceleration=3 * states, coordinate_space="full",
                      metadata={"scenario": "twodof", "eps": 0.01, "dt": 0.1},
                      step_residuals=np.zeros(11),
                      newton_iterations=np.arange(11) % 3)


def test_trajectory_roundtrip_bitexact(tmp_path):
    traj = _sample_trajectory()
    path = tmp_path / "traj.npz"
    traj.save(path)
    back = Trajectory.load(path)
    for name in ("times", "displacement", "velocity", "acceleration",
                 "step_residuals", "newton_iterations"):
        a, b = getattr(traj, name), getattr(back, name)
        assert a.tobytes() == b.tobytes()
    assert back.metadata == traj.metadata
    assert back.coordinate_space == traj.coordinate_space


def test_trajectory_save_is_deterministic(tmp_path):
    traj = _sample_trajectory()
    p1, p2 = tmp_path / "a.npz", tmp_path / "b.npz"
    traj.save(p1)
    traj.save(p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_trajectory_validates_times():
    times = np.array([0.0, 0.0, 1.0])
    states = np.zeros((3, 2))
    with pytest.raises(ContractError):
        Trajectory(times=times, displacement=states, velocity=states,
                   acceleration=states)
