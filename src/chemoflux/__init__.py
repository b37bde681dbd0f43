"""Pseudo-spectral simulator and verification harness for a 2D
parabolic-hyperbolic chemotaxis system with discontinuous initial data."""

from .cole_hopf import C_FLOOR, ChemistryParams, forward_transform
from .diagnostics import (CSV_COLUMNS, DecayFit, DiagnosticsRecord,
                          TrajectoryRecorder, fit_decay)
from .evolve import RunOutcome, StepperConfig, Trajectory, run
from .fields import Grid, lp_norm
from .harness import (ConfigError, ExperimentConfig, load_config,
                      parse_config, run_cross_validate, run_delta_sweep,
                      run_refinement, run_single, run_theta_scan)
from .initial_data import (DataSummary, InitialDataRecipe, build_initial_data,
                           mollify)
from .snapshots import write_snapshot

__version__ = "0.1.0"
