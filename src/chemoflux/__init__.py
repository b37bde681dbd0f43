"""Pseudo-spectral simulator and verification harness for a 2D
parabolic-hyperbolic chemotaxis system with discontinuous initial data."""

from .cole_hopf import ChemistryParams
from .evolve import RunHalted, RunOutcome, StepperConfig, run
from .fields import Grid
from .harness import (ConfigError, ExperimentConfig, load_config,
                      parse_config, run_cross_validate, run_delta_sweep,
                      run_refinement, run_single, run_theta_scan)
from .initial_data import InitialDataRecipe, build_initial_data

__version__ = "0.1.0"
