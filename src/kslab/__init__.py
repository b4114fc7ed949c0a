"""Structured-grid simulator and monitor lab for the chemotaxis-consumption
system n_t = lap n - chi div(n grad c), c_t = lap c - n c on boxes and tori."""

__version__ = "0.1.0"

from .errors import (ConfigError, CorruptionError, PositivityError,
                     SnapshotError, StoppedEarlyError)
from .grid import (Field, Grid, GridSpec, VectorField, constant_field, fill,
                   integrate, lp_norm, make_grid, read_snapshot, write_snapshot)
from .operators import chemotactic_flux, divergence, gradient, laplacian
from .solver import RunResult, SolverConfig, State, StopRule, choose_dt, run, step
from .diagnostics import (DiagnosticsRecord, WINKLER_CONSTANT,
                          energy_inequality_residual, evaluate,
                          pointwise_hessian_check, winkler_ratio)
from .blowup import (RateFit, alpha_lower_bound, check_lower_bound, classify,
                     fit_rate, nondegeneracy_map, rate_report)
from .scaling import rescale_state
from .manufactured import ManufacturedPair, mms_sources
from .harness import RunConfig, load_config, regenerate_summary, run_scenario

__all__ = [name for name in dir() if not name.startswith("_")]
