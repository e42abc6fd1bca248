"""Monte Carlo validation of the analytic forecast and synthetic day generation.

Two sampling modes exist, and each is compared with the analytic model of
the process it samples.  "true" draws surgery and recovery durations
independently and sums them; its model is the "convolved" recovery model,
the exact CDF of that sum.  "matched" draws the combined duration from the
moment-matched lognormal itself, sharing the surgery draw's percentile; its
model is the paper's "moment" forecast, which is exact for that process.
The gap between the two models (up to ~0.15 patients on the default day)
is the moment-matching bias of the paper's forecast; it is computed, not
sampled, so neither mode measures it.

Sampled occupancy is accumulated with a difference array rather than by
comparing every grid time with every window.  Since the grid is regular,
each entry and exit maps to its grid index by arithmetic (the count of grid
times below it); a window adds +1 at its entry index and -1 at its exit
index, and a cumulative sum over time gives the occupancy of every sampled
day at every grid time.  Those counts go into a (time, count) histogram, from
which the mean, variance and band tallies are exact integer aggregates.  The
work per block is O(patients x samples + grid x samples) instead of
O(patients x grid x samples), with the same draws in the same order.

The generator produces synthetic days at the scale of a large surgical
department (default: 61 patients, 35 surgeons, 21 ORs, 45 needing recovery).
Parameter ranges are plausible surgical magnitudes, documented as synthetic
rather than fitted.
"""
from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from . import forecast
from .distributions import LognormalParams, _check_fields
from .model import Instance, Patient, Schedule, Surgeon, _require_complete

# The analytic recovery model that is exact for each sampling mode's process.
_RECOVERY_MODEL_OF_MODE = {"true": "convolved", "matched": "moment"}
SAMPLING_MODES = tuple(_RECOVERY_MODEL_OF_MODE)

# Samples per accumulation block.  It bounds peak memory and it also fixes the
# seeded stream: each block draws its patients in turn, so another block size
# gives other samples for the same seed.  Do not tune it for speed.
_CHUNK = 20_000

# Absolute floor added to the 3-standard-error agreement bound: far-tail grid
# points carry analytic means ~1e-7 that 1e5 samples cannot resolve, and their
# standard error can be zero.
BIAS_FLOOR = 1e-4


@dataclass(frozen=True)
class GenSpec:
    """Knobs for the synthetic day generator; ranges are (low, high) uniforms."""

    or_count: int = 21
    surgeon_count: int = 35
    patient_count: int = 61
    recovery_fraction: float = 45 / 61
    or_open_hours: float = 8.0
    day_hours: float = 24.0
    surgery_log_mean: tuple[float, float] = (math.log(0.5), math.log(3.0))
    surgery_log_var: tuple[float, float] = (0.05, 0.5)
    recovery_log_mean: tuple[float, float] = (math.log(0.25), math.log(2.0))
    recovery_log_var: tuple[float, float] = (0.05, 0.5)
    setup_hours: tuple[float, float] = (0.1, 0.5)
    cleanup_hours: tuple[float, float] = (0.1, 0.5)
    seed: int = 0

    def __post_init__(self) -> None:
        _check_fields(self, "spec")
        for name in ("or_count", "surgeon_count", "patient_count"):
            if getattr(self, name) < 1:
                raise ValueError(f"spec: {name} must be at least 1, got {getattr(self, name)}")
        if self.seed < 0:
            raise ValueError(f"spec: seed must be non-negative, got {self.seed}")
        if self.surgeon_count > self.patient_count:
            raise ValueError(
                f"{self.surgeon_count} surgeons cannot all have patients among {self.patient_count}")
        if not 0.0 <= self.recovery_fraction <= 1.0:
            raise ValueError("recovery fraction must lie in [0, 1]")
        if not 0.0 < self.or_open_hours <= self.day_hours:
            raise ValueError("OR opening hours must lie in (0, day_hours]")
        for name in ("surgery_log_mean", "surgery_log_var", "recovery_log_mean",
                     "recovery_log_var", "setup_hours", "cleanup_hours"):
            low, high = getattr(self, name)
            if not low <= high:
                raise ValueError(f"{name} range is empty: ({low}, {high})")
        if self.surgery_log_var[0] <= 0.0 or self.recovery_log_var[0] <= 0.0:
            raise ValueError("log-variance ranges must be strictly positive")
        if self.setup_hours[0] < 0.0 or self.cleanup_hours[0] < 0.0:
            raise ValueError("setup and cleanup ranges must be non-negative")


@dataclass
class EmpiricalCurve:
    """Sampled occupancy statistics on the analytic curve's grid."""

    times: np.ndarray
    sample_mean: np.ndarray
    sample_variance: np.ndarray
    standard_error: np.ndarray
    above: np.ndarray
    below: np.ndarray
    inside: np.ndarray
    n_samples: int
    mode: str
    # The model of the sampled process: the convolved curve for "true" mode,
    # the paper's moment-matched forecast for "matched" mode.
    analytic: forecast.OccupancyCurve


@dataclass(frozen=True)
class CoverageStats:
    """How the samples sat relative to the analytic mean and 95% band."""

    fraction_above: float
    fraction_below: float
    fraction_inside: float
    mean_abs_error: float
    max_abs_bias: float  # largest |sampled mean - analytic mean| over the grid
    max_bias_time: float  # the grid time where it occurs
    fraction_within_3se: float  # share of grid points with |gap| <= 3 SE + BIAS_FLOOR
    n_samples: int
    n_points: int


def generate_instance(spec: GenSpec) -> Instance:
    """Deterministic synthetic day: same spec and seed, same instance.

    Each surgeon's patients form one contiguous block inside a single OR,
    mimicking block allocation of theatre time; the patient list (the day's
    input order) runs OR by OR, block by block.
    """
    rng = np.random.default_rng(spec.seed)
    n = spec.patient_count
    block_sizes = np.ones(spec.surgeon_count, dtype=np.int64)
    for _ in range(n - spec.surgeon_count):
        block_sizes[rng.integers(spec.surgeon_count)] += 1
    or_of_surgeon = rng.permutation(np.arange(spec.surgeon_count) % spec.or_count) + 1
    surgeon_order = np.argsort(or_of_surgeon, kind="stable")

    surgery_mu = rng.uniform(*spec.surgery_log_mean, n)
    surgery_s2 = rng.uniform(*spec.surgery_log_var, n)
    recovery_mu = rng.uniform(*spec.recovery_log_mean, n)
    recovery_s2 = rng.uniform(*spec.recovery_log_var, n)
    setup = rng.uniform(*spec.setup_hours, n)
    cleanup = rng.uniform(*spec.cleanup_hours, n)
    needs_recovery = np.zeros(n, dtype=bool)
    n_recovery = int(round(spec.recovery_fraction * n))
    needs_recovery[rng.choice(n, n_recovery, replace=False)] = True

    sw = len(str(spec.surgeon_count))
    pw = len(str(n))
    open_hours, day_hours = float(spec.or_open_hours), float(spec.day_hours)
    surgeons = [Surgeon(id=f"s{i + 1:0{sw}d}", shift_start=0.0, shift_end=open_hours)
                for i in range(spec.surgeon_count)]
    patients = []
    k = 0
    for s in surgeon_order:
        for _ in range(block_sizes[s]):
            patients.append(Patient(
                id=f"p{k + 1:0{pw}d}",
                surgeon_id=surgeons[s].id,
                or_id=int(or_of_surgeon[s]),
                needs_recovery=bool(needs_recovery[k]),
                surgery=LognormalParams(float(surgery_mu[k]), float(surgery_s2[k])),
                recovery=LognormalParams(float(recovery_mu[k]), float(recovery_s2[k])),
                setup=float(setup[k]),
                cleanup=float(cleanup[k]),
            ))
            k += 1
    return Instance(surgeons=surgeons, patients=patients, or_count=spec.or_count,
                    or_open_hours=open_hours, day_hours=day_hours)


def _draw_windows(mu: np.ndarray, sd: np.ndarray, start: float, rng: np.random.Generator,
                  size: int, mode: str) -> tuple[np.ndarray, np.ndarray]:
    """Recovery entry/exit times across ``size`` sampled days for one ``RecoveryRows`` row.

    ``mu`` and ``sd`` are the row's column: surgery, combined, recovery.
    """
    if mode == "true":
        surgery = np.exp(mu[0] + sd[0] * rng.standard_normal(size))
        recovery = np.exp(mu[2] + sd[2] * rng.standard_normal(size))
        entry = start + surgery
        return entry, entry + recovery
    # One percentile draw drives both durations, so entry <= t < exit has
    # probability max(0, F_surgery(t) - F_combined(t)): the analytic model.
    w = rng.standard_normal(size)
    return start + np.exp(mu[0] + sd[0] * w), start + np.exp(mu[1] + sd[1] * w)


def _grid_index(times: np.ndarray, grid_step: float, x: np.ndarray) -> np.ndarray:
    """``np.searchsorted(times, x, "left")`` for ``times = forecast.time_grid(grid_step, ...)``.

    The number of grid times below each x, from arithmetic rather than a
    binary search: ceil(x / step) clipped to [0, G], then moved by one step
    where rounding of the quotient, or time i's ulp-level distance from
    i * step, puts it on the wrong side of x.
    """
    n = times.size
    k = np.ceil(x / grid_step)
    np.clip(k, 0, n, out=k)
    k = k.astype(np.intp)
    k -= (k > 0) & (times[k - 1] >= x)
    k += (k < n) & (times[np.minimum(k, n - 1)] < x)
    return k


def _count_dtype(n_recovery: int) -> type:
    """The narrowest integer type that holds occupancy counts up to ``n_recovery``."""
    return np.int16 if n_recovery <= np.iinfo(np.int16).max else np.int32


def _occupancy_histogram(times: np.ndarray, grid_step: float,
                         windows: Iterable[tuple[np.ndarray, np.ndarray]], block: int,
                         n_counts: int) -> np.ndarray:
    """(time, count) histogram of occupancy over one block of sampled days.

    ``windows`` yields each recovery patient's (entry, exit) draws.  A patient
    occupies a bed at grid index g when a <= g < b, with a and b the numbers
    of grid times below entry and exit, so each window adds +1 at (a, sample)
    and -1 at (b, sample) of a difference array whose cumulative sum over
    time is the occupancy.  A spare last row takes windows that end past the
    horizon and is never summed.
    """
    n_times = times.size
    steps = np.zeros((n_times + 1) * block, dtype=_count_dtype(n_counts - 1))
    column = np.arange(block)
    for entry, exit_ in windows:
        a = _grid_index(times, grid_step, entry)
        b = np.maximum(a, _grid_index(times, grid_step, exit_))  # matched mode: exit < entry
        # One index per sample, so no index repeats within an update.
        steps[a * block + column] += 1
        steps[b * block + column] -= 1
    occupancy = steps.reshape(n_times + 1, block)
    histogram = np.empty((n_times, n_counts), dtype=np.int64)
    # Row by row, because np.cumsum along axis 0 of this layout is ~8x slower
    # and one bincount over (row, count) keys ~2x slower, at 8 bytes per cell.
    histogram[0] = np.bincount(occupancy[0], minlength=n_counts)
    for g in range(1, n_times):
        np.add(occupancy[g], occupancy[g - 1], out=occupancy[g])
        histogram[g] = np.bincount(occupancy[g], minlength=n_counts)
    return histogram


def monte_carlo_curve(instance: Instance, schedule: Schedule, n_samples: int,
                      grid_step: float = forecast.GRID_STEP, mode: str = "true",
                      rng: np.random.Generator | None = None) -> EmpiricalCurve:
    """Sampled occupancy curve with exceedance tallies against the analytic band.

    The analytic curve is the model of the sampled process: the "convolved"
    recovery model in "true" mode and the paper's "moment" model in
    "matched" mode.  Occupancy at t counts patients with entry <= t < exit.
    Samples are processed in blocks of ``_CHUNK``; every statistic comes from
    an integer (time, count) histogram over all samples, so it is an exact
    aggregate.
    """
    if n_samples < 1:
        raise ValueError("need at least one sample")
    if mode not in SAMPLING_MODES:
        raise ValueError(f"unknown sampling mode {mode!r}; expected one of {SAMPLING_MODES}")
    _require_complete(instance, schedule)
    rng = np.random.default_rng(0) if rng is None else rng

    starts = [schedule.starts[p.id] for p in instance.patients]
    analytic = forecast.occupancy_curve(instance.patients, starts,
                                        grid_step=grid_step, horizon=instance.day_hours,
                                        recovery_model=_RECOVERY_MODEL_OF_MODE[mode])
    times = analytic.times
    rows = forecast.RecoveryRows.of(instance.patients)
    z = rows.starts(starts)

    n_counts = z.size + 1  # occupancy takes values 0 .. the recovery patients
    histogram = np.zeros((times.size, n_counts), dtype=np.int64)
    for block_start in range(0, n_samples, _CHUNK):
        block = min(_CHUNK, n_samples - block_start)
        windows = (_draw_windows(rows.mu[:, r], rows.sd[:, r], z[r], rng, block, mode)
                   for r in range(z.size))
        histogram += _occupancy_histogram(times, grid_step, windows, block, n_counts)

    counts = np.arange(n_counts)
    total = (histogram @ counts).astype(np.float64)
    total_sq = (histogram @ (counts * counts)).astype(np.float64)
    above = np.where(counts[None, :] > analytic.upper[:, None], histogram, 0).sum(axis=1)
    below = np.where(counts[None, :] < analytic.lower[:, None], histogram, 0).sum(axis=1)

    sample_mean = total / n_samples
    if n_samples > 1:
        sample_variance = (total_sq - n_samples * sample_mean ** 2) / (n_samples - 1)
        sample_variance = np.maximum(sample_variance, 0.0)  # round-off guard
    else:
        sample_variance = np.zeros(times.size)
    standard_error = np.sqrt(sample_variance / n_samples)
    inside = n_samples - above - below
    return EmpiricalCurve(times=times, sample_mean=sample_mean,
                          sample_variance=sample_variance, standard_error=standard_error,
                          above=above, below=below, inside=inside,
                          n_samples=n_samples, mode=mode, analytic=analytic)


def coverage_stats(empirical: EmpiricalCurve) -> CoverageStats:
    """Aggregate band coverage and the sampled mean's gap from the analytic mean."""
    cells = empirical.n_samples * empirical.times.size
    gap = np.abs(empirical.sample_mean - empirical.analytic.mean)
    worst = int(np.argmax(gap))
    return CoverageStats(
        fraction_above=float(empirical.above.sum()) / cells,
        fraction_below=float(empirical.below.sum()) / cells,
        fraction_inside=float(empirical.inside.sum()) / cells,
        mean_abs_error=float(gap.mean()),
        max_abs_bias=float(gap[worst]),
        max_bias_time=float(empirical.times[worst]),
        fraction_within_3se=float(
            (gap <= 3.0 * empirical.standard_error + BIAS_FLOOR).mean()),
        n_samples=empirical.n_samples,
        n_points=int(empirical.times.size),
    )
