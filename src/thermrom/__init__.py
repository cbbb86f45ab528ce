"""Adaptive-basis model reduction for structural dynamics with slowly
moving temperature fields.

The package provides a planar thermo-elastic beam testbed, temperature-
parameterized reduction bases with congruence alignment and interpolation,
leading-order and first-order-corrected reduced models on the adapting
basis, constant-basis baselines, an implicit Newmark integrator and a
reproducible experiment harness with a CLI (``thermrom --help``).
"""

from .basisdb import (
    BasisDatabase,
    build_database,
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
from .beam import BeamModel, BeamProperties, TemperaturePulse, pulse_temperature
from .forcing import PerturbationForcing, make_perturbation
from .metrics import adaptive_projection_floor, error_instant, error_uniform, projection_floor
from .models import SecondOrderModel, Trajectory, validate_model
from .newmark import NewmarkSettings, TransientSystem, newmark_integrate
from .rom import (
    AdaptiveRom,
    ConstantBasisRom,
    CorrectionRom,
    FullSystem,
    reconstruct,
)
from .scenarios import (
    ScenarioConfig,
    build_beam_scenario,
    build_scenario_database,
    compare_methods,
    run_scenario,
)
from .spectral import (
    LocalBasis,
    build_local_basis,
    modal_derivative,
    solve_equilibrium,
    vibration_modes,
)
from .twodof import TwoDofModel, scenario_twodof, twodof_stiffness

__version__ = "0.1.0"
