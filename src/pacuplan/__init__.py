"""Start-of-day recovery-bed occupancy forecasting and surgical case sequencing.

The top level re-exports exactly the names the README's library example
imports, the records its file formats name (``Instance``, ``Surgeon``,
``Patient``, ``LognormalParams``, ``Schedule``), the results those functions
return and ``__version__``.  Every other name is imported from its module,
e.g. ``pacuplan.forecast.exact_occupancy_cdf``.
"""

__version__ = "0.1.0"

from .distributions import LognormalParams
from .forecast import OccupancyCurve, occupancy_curve
from .model import (
    Instance,
    Patient,
    Schedule,
    Surgeon,
    Violation,
    check_feasibility,
    max_expected_occupancy,
)
from .simulation import (
    CoverageStats,
    EmpiricalCurve,
    GenSpec,
    coverage_stats,
    generate_instance,
    monte_carlo_curve,
)
from .solver import SAConfig, SolveReport, baseline_schedule, simulated_annealing

__all__ = [
    "__version__",
    "LognormalParams",
    "OccupancyCurve",
    "occupancy_curve",
    "Instance",
    "Patient",
    "Schedule",
    "Surgeon",
    "Violation",
    "check_feasibility",
    "max_expected_occupancy",
    "CoverageStats",
    "EmpiricalCurve",
    "GenSpec",
    "coverage_stats",
    "generate_instance",
    "monte_carlo_curve",
    "SAConfig",
    "SolveReport",
    "baseline_schedule",
    "simulated_annealing",
]
