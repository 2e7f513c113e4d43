"""Monotone finite-volume schemes for 1D scalar conservation laws with
rough (fractional Brownian) initial data: solvers, seeded initial data,
scaling diagnostics and reproducible experiment drivers."""

__version__ = "0.1.0"

from .diagnostics import (
    default_beta,
    fit_rate,
    l1_distance,
    lip_bound_rhs,
    lip_plus,
    total_variation,
    tv_time_integral,
)
from .experiments import (
    StudyConfig,
    StudyResult,
    config_from_dict,
    config_to_dict,
    run_samples_parallel,
)
from .flux import (
    FluxSpec,
    MonotoneReport,
    NumericalFluxSpec,
    NumFluxKind,
    check_monotone,
    flux_value,
    max_wave_speed,
    numerical_flux,
)
from .initial_data import SplitMix64, fbm_initial_field, sample_seed
from .mesh import CellField, Grid, make_grid, restrict
from .solver import (
    Boundary,
    SchemeConfig,
    Snapshot,
    Trajectory,
    cfl_timestep,
    evolve,
    step,
)

__all__ = [
    "__version__",
    "Boundary",
    "CellField",
    "FluxSpec",
    "Grid",
    "MonotoneReport",
    "NumFluxKind",
    "NumericalFluxSpec",
    "SchemeConfig",
    "Snapshot",
    "SplitMix64",
    "StudyConfig",
    "StudyResult",
    "Trajectory",
    "cfl_timestep",
    "check_monotone",
    "config_from_dict",
    "config_to_dict",
    "default_beta",
    "evolve",
    "fbm_initial_field",
    "fit_rate",
    "flux_value",
    "l1_distance",
    "lip_bound_rhs",
    "lip_plus",
    "make_grid",
    "max_wave_speed",
    "numerical_flux",
    "restrict",
    "run_samples_parallel",
    "sample_seed",
    "step",
    "total_variation",
    "tv_time_integral",
]
