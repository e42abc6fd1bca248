"""Start-of-day recovery-bed occupancy forecasting and surgical case sequencing."""

__version__ = "0.1.0"

from .distributions import (
    LognormalParams,
    lognormal_cdf,
    moment_match_sum,
    poisson_binomial_cdf,
)
from .forecast import (
    OccupancyCurve,
    exact_occupancy_cdf,
    occupancy_curve,
    time_grid,
)
from .model import (
    FEASIBILITY_EPS,
    Instance,
    Patient,
    Schedule,
    Surgeon,
    Violation,
    check_feasibility,
    compute_overtime,
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
from .solver import (
    SAConfig,
    SolveReport,
    baseline_schedule,
    construct_schedule,
    simulated_annealing,
)

__all__ = [
    "__version__",
    "LognormalParams",
    "lognormal_cdf",
    "moment_match_sum",
    "poisson_binomial_cdf",
    "OccupancyCurve",
    "exact_occupancy_cdf",
    "occupancy_curve",
    "time_grid",
    "FEASIBILITY_EPS",
    "Instance",
    "Patient",
    "Schedule",
    "Surgeon",
    "Violation",
    "check_feasibility",
    "compute_overtime",
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
    "construct_schedule",
    "simulated_annealing",
]
