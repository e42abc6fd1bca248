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
day at every grid time.  The counts are int8 on days of at most 127
recovery patients, and int16 (int32 past 32 767) beyond.  They go into a
(time, count) histogram, from which the mean, variance and band tallies are
exact integer aggregates.  While the joint table of two grid times' counts
is small next to a block, one np.bincount over the keys c[g] + B c[g + 1]
(B counts) gives both grid times' rows, as the table's two marginals;
larger days bin one grid time per bincount.  The work per block is
O(patients x samples + grid x samples) instead of O(patients x grid x
samples), with the same draws in the same order.

Drawing and binning run on two threads, because the seeded normal draws and
the binning each take about half the sampling time.  The calling thread
submits every row's draw, block by block and row by row in the serial
order, to an executor of one worker, at most ``_LOOKAHEAD`` rows (~4 MB)
ahead of the row it bins.  One worker runs them in that order and is the
only user of the generator, so the draws, every statistic and the
generator's end state are those of one thread; the worker is joined before
the call returns.

The generator produces synthetic days at the scale of a large surgical
department (default: 61 patients, 35 surgeons, 21 ORs, 45 needing recovery).
Parameter ranges are plausible surgical magnitudes, documented as synthetic
rather than fitted.
"""
from __future__ import annotations

import itertools
import math
import numbers
import time
from collections import deque
from collections.abc import Iterable
from dataclasses import dataclass
from typing import Annotated

import numpy as np

from . import forecast
from .distributions import LognormalParams, _check_fields
from .model import Instance, Patient, Schedule, Surgeon

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

# A quotient x / step this close to an integer, in steps, is checked by a search.
_NEAR_STEP = 1e-9

# A block's occupancy is binned two grid times per np.bincount, over the cells
# of their joint (count, count) table, while cells + _PAIR_COST <= samples.
# Per pair this saves about a nanosecond per sample, and costs about as much
# per cell plus a fixed ~6 us of extra numpy calls: ~5000 samples' worth.
# Measured on a 2-core x86 host; at 20 000 samples it pairs up to 122 counts.
_PAIR_COST = 5_000

# Rows submitted to the draw worker ahead of the row being binned.  A row is
# two float64 arrays of one block, 320 KB at 20 000 samples, so this bounds
# the lookahead at ~4 MB.  It absorbs the analytic curve's time and the jitter
# of either side.  On a 2-core x86 host, default day, 100 000 true-mode
# samples, best of 11: 215, 198, 193 and 170 ms with 1, 4, 8 and 16 rows; 12
# rows ran as fast as 16 and keep a `validate` process ~1.3 MB smaller.
_LOOKAHEAD = 12


@dataclass(frozen=True)
class GenSpec:
    """Knobs for the synthetic day generator; ranges are (low, high) uniforms."""

    or_count: Annotated[int, "at least 1"] = 21
    surgeon_count: Annotated[int, "at least 1"] = 35
    patient_count: Annotated[int, "at least 1"] = 61
    recovery_fraction: Annotated[float, "in [0, 1]"] = 45 / 61
    or_open_hours: Annotated[float, "positive"] = 8.0
    day_hours: float = 24.0
    surgery_log_mean: tuple[float, float] = (math.log(0.5), math.log(3.0))
    surgery_log_var: Annotated[tuple[float, float], "positive"] = (0.05, 0.5)
    recovery_log_mean: tuple[float, float] = (math.log(0.25), math.log(2.0))
    recovery_log_var: Annotated[tuple[float, float], "positive"] = (0.05, 0.5)
    setup_hours: Annotated[tuple[float, float], "non-negative"] = (0.1, 0.5)
    cleanup_hours: Annotated[tuple[float, float], "non-negative"] = (0.1, 0.5)
    seed: Annotated[int, "non-negative"] = 0

    def __post_init__(self) -> None:
        _check_fields(self, "spec")
        if self.surgeon_count > self.patient_count:
            raise ValueError("spec: surgeon_count must be at most patient_count, "
                             f"got {self.surgeon_count} surgeons for {self.patient_count} patients")
        if not self.or_open_hours <= self.day_hours:
            raise ValueError(f"spec: or_open_hours must be at most day_hours {self.day_hours}, "
                             f"got {self.or_open_hours}")


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
    # Seconds the binning thread waited for drawn windows: near zero when
    # binning bounds the run, most of it when the draws do.
    draw_wait_seconds: float


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


def _shifted_lognormal(w: np.ndarray, mu: float, sd: float, shift) -> np.ndarray:
    """shift + exp(mu + sd * w), computed in ``w``: in place, and in that order, so the same doubles."""
    w *= sd
    w += mu
    np.exp(w, out=w)
    w += shift
    return w


def _draw_windows(mu: np.ndarray, sd: np.ndarray, start: float, rng: np.random.Generator,
                  size: int, mode: str) -> tuple[np.ndarray, np.ndarray]:
    """Recovery entry/exit times across ``size`` sampled days for one ``RecoveryRows`` row.

    ``mu`` and ``sd`` are the row's column: surgery, combined, recovery.
    """
    if mode == "true":
        entry = _shifted_lognormal(rng.standard_normal(size), mu[0], sd[0], start)
        return entry, _shifted_lognormal(rng.standard_normal(size), mu[2], sd[2], entry)
    # One percentile draw drives both durations, so entry <= t < exit has
    # probability max(0, F_surgery(t) - F_combined(t)): the analytic model.
    w = rng.standard_normal(size)
    return (_shifted_lognormal(w.copy(), mu[0], sd[0], start),
            _shifted_lognormal(w, mu[1], sd[1], start))


def _grid_index(times: np.ndarray, grid_step: float, x: np.ndarray) -> np.ndarray:
    """``np.searchsorted(times, x, "left")`` for ``times = forecast.time_grid(grid_step, ...)``.

    The number of grid times below each x, from arithmetic rather than a
    binary search: q = x * (1 / step), clipped to [-1/2, G - 1/2], rounded
    up.  Time i lies within an ulp or so of i * step, and q within an ulp of
    x / step; with at most ``forecast.MAX_GRID_POINTS`` steps, both errors
    are below 1e-10 steps.  So ceil(q) is exact unless q lies within
    ``_NEAR_STEP`` of an integer, and only those entries, almost never any,
    are searched.  An infinite or huge x clips to an end without a warning.
    """
    n = times.size
    with np.errstate(over="ignore"):
        q = x * (1.0 / grid_step)
    np.clip(q, -0.5, n - 0.5, out=q)
    k = np.ceil(q)
    off = np.subtract(k, q, out=q)  # in [0, 1); near 0 or 1 is near an integer
    off -= 0.5
    near = np.abs(off, out=off) > 0.5 - _NEAR_STEP
    k = k.astype(np.intp)
    if near.any():
        k[near] = np.searchsorted(times, x[near], "left")
    return k


def _count_dtype(n_recovery: int) -> type:
    """The narrowest integer type that holds occupancy counts up to ``n_recovery``."""
    return next((t for t in (np.int8, np.int16) if n_recovery <= np.iinfo(t).max), np.int32)


def _occupancy_histogram(times: np.ndarray, grid_step: float,
                         windows: Iterable[tuple[np.ndarray, np.ndarray]], block: int,
                         n_counts: int) -> np.ndarray:
    """(time, count) histogram of occupancy over one block of sampled days.

    ``windows`` yields each recovery patient's (entry, exit) draws.  A patient
    occupies a bed at grid index g when a <= g < b, with a and b the numbers
    of grid times below entry and exit, so each window adds +1 at (a, sample)
    and -1 at (b, sample) of a difference array whose cumulative sum over
    time is the occupancy.  A spare last row takes windows that end past the
    horizon and is never summed.  While the joint (count, count) table of two
    grid times is small next to the block, one bincount of the keys
    c[g] + n_counts * c[g + 1] bins grid times g and g + 1, as the table's
    two marginals: half the bincount passes over the block.
    """
    n_times = times.size
    steps = np.zeros((n_times + 1) * block, dtype=_count_dtype(n_counts - 1))
    column = np.arange(block)
    for entry, exit_ in windows:
        a = _grid_index(times, grid_step, entry)
        b = _grid_index(times, grid_step, exit_)
        np.maximum(b, a, out=b)  # matched mode: exit < entry
        # One index per sample, so no index repeats within an update.
        a *= block
        a += column
        steps[a] += 1
        b *= block
        b += column
        steps[b] -= 1
    occupancy = steps.reshape(n_times + 1, block)
    # Row by row, because np.cumsum along axis 0 of this layout is ~8x slower.
    # A cumulative sum stays within 0 .. n_counts - 1, so the count type holds it.
    for g in range(1, n_times):
        np.add(occupancy[g], occupancy[g - 1], out=occupancy[g])
    histogram = np.empty((n_times, n_counts), dtype=np.int64)
    cells = n_counts * n_counts
    # Rows 0 .. paired - 1 are binned in pairs, the rest one bincount each;
    # one bincount over (row, count) keys of the whole block is ~2x slower.
    paired = n_times - n_times % 2 if cells + _PAIR_COST <= block else 0
    key_dtype = _count_dtype(cells - 1)
    for g in range(0, paired, 2):
        key = occupancy[g + 1].astype(key_dtype)
        key *= n_counts
        key += occupancy[g]
        table = np.bincount(key, minlength=cells).reshape(n_counts, n_counts)
        table.sum(axis=0, out=histogram[g])
        table.sum(axis=1, out=histogram[g + 1])
    for g in range(paired, n_times):
        histogram[g] = np.bincount(occupancy[g], minlength=n_counts)
    return histogram


def monte_carlo_curve(instance: Instance, schedule: Schedule, n_samples: int,
                      grid_step: float = forecast.GRID_STEP, mode: str = "true",
                      rng: np.random.Generator | None = None) -> EmpiricalCurve:
    """Sampled occupancy curve with exceedance tallies against the analytic band.

    The analytic curve is the model of the sampled process: the "convolved"
    recovery model in "true" mode and the paper's "moment" model in
    "matched" mode.  Occupancy at t counts patients with entry <= t < exit.
    ``n_samples`` must be an integer, not a bool.  Samples are processed in
    blocks of ``_CHUNK``, drawn by a one-worker executor and binned on this
    thread; every statistic comes from an integer (time, count) histogram
    over all samples, so it is an exact aggregate.
    """
    if isinstance(n_samples, bool) or not isinstance(n_samples, numbers.Integral):
        raise ValueError(f"n_samples must be an integer, got {n_samples!r}")
    if n_samples < 1:
        raise ValueError("need at least one sample")
    if mode not in SAMPLING_MODES:
        raise ValueError(f"unknown sampling mode {mode!r}; expected one of {SAMPLING_MODES}")
    starts = instance.starts_of(schedule)
    rng = np.random.default_rng(0) if rng is None else rng
    forecast.time_grid(grid_step, instance.day_hours)  # a bad grid raises before any draw
    rows = forecast.RecoveryRows(instance.patients)
    z = rows.starts(starts)
    blocks = [min(_CHUNK, n_samples - b) for b in range(0, n_samples, _CHUNK)]

    # Imported here: at module level it loads logging, ~5 ms on every CLI command.
    from concurrent.futures import ThreadPoolExecutor
    pool = ThreadPoolExecutor(1, thread_name_prefix="pacuplan-draws")
    draws = (pool.submit(_draw_windows, rows.mu[:, r], rows.sd[:, r], z[r], rng, block, mode)
             for block in blocks for r in range(z.size))
    draw_wait = 0.0

    def next_windows() -> tuple[np.ndarray, np.ndarray]:
        nonlocal draw_wait
        ahead.extend(itertools.islice(draws, 1))
        waited = time.perf_counter()
        windows = ahead.popleft().result()
        draw_wait += time.perf_counter() - waited
        return windows

    try:
        ahead = deque(itertools.islice(draws, _LOOKAHEAD))
        # The analytic curve is computed while the first rows are drawn.
        analytic = forecast.occupancy_curve(instance.patients, starts,
                                            grid_step=grid_step, horizon=instance.day_hours,
                                            recovery_model=_RECOVERY_MODEL_OF_MODE[mode])
        times = analytic.times
        n_counts = z.size + 1  # occupancy takes values 0 .. the recovery patients
        histogram = np.zeros((times.size, n_counts), dtype=np.int64)
        for block in blocks:
            windows = (next_windows() for _ in range(z.size))
            histogram += _occupancy_histogram(times, grid_step, windows, block, n_counts)
    finally:
        pool.shutdown(cancel_futures=True)  # drops the rows not yet drawn and joins the worker

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
                          n_samples=n_samples, mode=mode, analytic=analytic,
                          draw_wait_seconds=draw_wait)


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
