"""Coarse-grained double-slit electron simulator with a which-path qubit.

The package propagates discretized slit amplitudes to a detector screen
through the free-particle path-integral kernel, under three environmental
qubit behaviors (none / remembers / forgets), and analyzes the resulting
intensity profiles against elementary diffraction-and-interference optics.
"""

from .analysis import (AnalyticPredictions, CheckResult, ValidationReport,
                       analytic_predictions, find_first_minimum, find_peaks,
                       fringe_spacing, total_probability, validate)
from .errors import AnalysisError, ConfigError, SimulationError
from .physics import (DerivedQuantities, ExperimentConfig, GeometryMode, Grids,
                      build_grids, derive, kernel_prefactor)
from .propagation import (AmplitudeField, IntensityProfile, accumulate, intensity,
                          simulate, simulate_all)
from .qubit import (QubitBehavior, TransitionMask, build_mask, interference_possible,
                    is_allowed, render_mask, screen_state, screen_state_weights)
from .reporting import (profile_svg, read_config_file, read_profile_csv,
                        write_mask_file, write_profile_csv, write_profile_svg,
                        write_report)

__version__ = "0.1.0"

__all__ = [
    "AnalyticPredictions",
    "AmplitudeField",
    "AnalysisError",
    "CheckResult",
    "ConfigError",
    "DerivedQuantities",
    "ExperimentConfig",
    "GeometryMode",
    "Grids",
    "IntensityProfile",
    "QubitBehavior",
    "SimulationError",
    "TransitionMask",
    "ValidationReport",
    "accumulate",
    "analytic_predictions",
    "build_grids",
    "build_mask",
    "derive",
    "find_first_minimum",
    "find_peaks",
    "fringe_spacing",
    "intensity",
    "interference_possible",
    "is_allowed",
    "kernel_prefactor",
    "profile_svg",
    "read_config_file",
    "read_profile_csv",
    "render_mask",
    "screen_state",
    "screen_state_weights",
    "simulate",
    "simulate_all",
    "total_probability",
    "validate",
    "write_mask_file",
    "write_profile_csv",
    "write_profile_svg",
    "write_report",
]
