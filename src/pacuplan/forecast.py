"""Analytic start-of-day forecast of recovery-bed occupancy.

A patient who started surgery at Z is in recovery at time t with probability
F_surgery(t - Z) - F_combined(t - Z), where F_combined is the CDF of
surgery + recovery.  Two recovery models supply it: "moment", the paper's
closed form, uses the moment-matched lognormal for the sum; "convolved"
tabulates the exact CDF of the sum of the two independent lognormals by
numerical convolution.  Forecasts, the optimiser and the MEO use "moment";
Monte Carlo validation of independently sampled durations uses "convolved".
Aggregating the per-patient Bernoulli indicators gives the expected
headcount, its variance, and a normal-theory 95% prediction band, evaluated
on a regular time grid.

The peak of the expected headcount (MEO), the optimiser's objective, has one
kernel, ``MeoKernel``, which evaluates only each patient's band of grid
times: lags above zero and below the point where the two standardised log
arguments cross (``support_upper_bound``).  Outside the band every cell of
the full matrix is exactly zero: at lag <= 0 by definition, and past the
crossing, when the combined log-sd is the smaller, because the surgery
argument then lies below the combined one, so the erf difference is
non-positive and clips to zero.  That step rests on the numpy erf,
``distributions._erf``, being non-decreasing, which its tests check on a
dense grid and across small relative gaps.  Like scipy's erf it is not
monotone across single ulps; a small relative margin keeps cells whose
arguments are that close to the crossing, or round across it, on the
evaluated side.  Each column sum adds the same values in the same row order
as the full matrix's, and adding an exact zero leaves a float unchanged, so
the peak is bitwise the one ``occupancy_curve`` gives.  When the combined
log-sd is not the smaller the band is unbounded.

Most band columns cannot hold the peak, and the kernel proves it without
evaluating them (bound and prune).  Each cell's value, F_S(x) - F_C(x) at
lag x, lies between F_S(lo) - F_C(hi) and F_S(hi) - F_C(lo) for any lo <= x
<= hi, because both CDFs are non-decreasing.  At construction the kernel
tabulates F_S and F_C of each recovery patient at the lags m*h of its grid
step h, widened outward so that a cell whose computed lag gives table index
floor(lag / h) = m lies inside [lo_m, hi_{m+1}] despite float rounding.
Summing the cell bounds by column gives an upper and a lower bound on every
column sum.  A column whose upper bound falls below the largest lower bound,
by more than a margin that covers rounding, is not the peak: the computed
erf is within 4.5e-16 of the exact one, so a computed cell strays outside
its table bounds by at most a few ulps of 1, and three column sums of at
most ``rows`` values in [0, 1] round by far less than 1e-9 * rows for fewer
than a million rows.  Only the remaining columns' cells are evaluated,
still in row-major order, so each kept column adds the same floats in the
same order as the full matrix, its maximum column included, and the peak
stays bitwise the one ``occupancy_curve`` gives.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .distributions import SQRT2, LognormalParams, _erf, poisson_binomial_cdf

if TYPE_CHECKING:  # pragma: no cover
    from .model import Patient

# Width of the two-sided 95% normal prediction band.
Z95 = 1.96

# Below this gap between the two log-sigmas the crossing-point formula is
# numerically singular and the support is treated as unbounded.
SIGMA_TOLERANCE = 1e-12

# Relative widening of the MEO kernel's band past the crossing lag; keeps
# cells whose arguments round across the crossing inside the band.  On
# log-means in [-2, 2] and log-variances in [0.01, 2] the computed
# probability is zero from 1e-13 (relative) past the crossing on.
_BAND_MARGIN = 1e-6

# Outward widening of the MEO kernel's bound-table lags, relative and in
# grid steps; covers the rounding of a cell's lag and of its table index.
_LAG_WIDENING = 1e-9
_LAG_OFFSET = 1e-12
# Per recovery row, the rounding allowance when pruning columns by their bounds.
_PRUNE_MARGIN = 1e-9
# Recovery rows per block when the MEO kernel tabulates its bounds; keeps its
# temporaries to a few hundred kB, far below the tables themselves.
_TABLE_BLOCK_ROWS = 16

RECOVERY_MODELS = ("moment", "convolved")

# Largest lag step (hours) of the "convolved" surgery+recovery CDF table.
SUM_LAG_STEP = 0.01
# Patients convolved together; bounds the FFT buffers (~8 MB each on a 24 h day).
_SUM_BLOCK_ROWS = 64


@dataclass(frozen=True)
class OccupancyCurve:
    """Occupancy forecast sampled on a regular grid over [0, horizon]."""

    grid_step: float
    times: np.ndarray
    mean: np.ndarray
    variance: np.ndarray
    lower: np.ndarray
    upper: np.ndarray

    def peak(self) -> float:
        return float(self.mean.max()) if self.mean.size else 0.0


def time_grid(grid_step: float, horizon: float) -> np.ndarray:
    """Regular grid 0, step, 2*step, ... covering [0, horizon].

    When the step has at most 12 decimals, time i is the double nearest the
    decimal i * step (0.3, not 0.30000000000000004), within an ulp or so of
    the product i * step.
    """
    if not (math.isfinite(grid_step) and grid_step > 0.0):
        raise ValueError(f"grid step must be positive and finite, got {grid_step}")
    if not (math.isfinite(horizon) and horizon > 0.0):
        raise ValueError(f"horizon must be positive and finite, got {horizon}")
    n_steps = int(math.floor(horizon / grid_step + 1e-9))
    times = np.arange(n_steps + 1) * grid_step
    decimals = next((d for d in range(13) if round(grid_step, d) == grid_step), None)
    return times if decimals is None else np.round(times, decimals, out=times)


def support_upper_bound(surgery: LognormalParams, combined: LognormalParams,
                        start: float = 0.0) -> float:
    """Time offset at which the two standardised log arguments coincide.

    Past this point the surgery CDF no longer exceeds the combined CDF (for
    the usual case sigma_combined < sigma_surgery), so the in-recovery
    probability is zero.  Returns inf when the sigmas coincide and the
    crossing formula is singular.
    """
    s, c = surgery.sigma, combined.sigma
    if abs(c - s) < SIGMA_TOLERANCE:
        return math.inf
    try:
        return start + math.exp((c * surgery.mu - s * combined.mu) / (c - s))
    except OverflowError:  # sigmas a hair apart: the crossing lies past any float
        return math.inf


def recovery_prob_matrix(log_mean: np.ndarray, log_sd: np.ndarray,
                         combined_log_mean: np.ndarray, combined_log_sd: np.ndarray,
                         starts: np.ndarray, times: np.ndarray,
                         combined_cdf: np.ndarray | None = None,
                         cells: tuple[np.ndarray, np.ndarray] | None = None) -> np.ndarray:
    """Vectorised in-recovery probabilities, one row per patient, one column per time.

    ``combined_cdf``, when given, holds P(surgery + recovery <= t - start)
    for each evaluated cell and stands in for the moment-matched lognormal's
    CDF.  ``cells``, when given, is a pair of equal-length (row, column)
    index arrays; only those cells are evaluated, and the flat result holds
    the same floats as those cells of the full matrix.  An index outside the
    matrix raises IndexError.
    """
    times = np.asarray(times, dtype=float)
    starts = np.asarray(starts, dtype=float)
    if cells is None:
        shape = (starts.size, times.size)
    else:
        shape = cells[0].shape
        if cells[0].size and not (0 <= cells[0].min() and cells[0].max() < starts.size
                                  and 0 <= cells[1].min() and cells[1].max() < times.size):
            raise IndexError(f"cells outside the {starts.size} x {times.size} matrix")
    # One block per call, also the erf's scratch: separate scratch arrays make
    # malloc return and re-fault its pages on every call of a large day.
    x, a, b, c = np.empty((4, *shape))

    def per_cell(values: np.ndarray, out: np.ndarray) -> np.ndarray:
        """One value per row, written to each evaluated cell of that row."""
        if cells is None:
            out[...] = values[:, None]
            return out
        # "clip" takes without an intermediate buffer; the indices are checked above.
        return np.take(values, cells[0], out=out, mode="clip")

    if cells is None:
        np.subtract(times, starts[:, None], out=x)
    else:
        np.take(times, cells[1], out=x, mode="clip")
        x -= per_cell(starts, a)
    outside = x <= 0.0
    np.copyto(x, 1.0, where=outside)
    logx = np.log(x, out=x)
    zs = np.subtract(logx, per_cell(log_mean, a), out=a)
    zs /= per_cell(SQRT2 * log_sd, b)
    if combined_cdf is None:
        zc = np.subtract(logx, per_cell(combined_log_mean, b), out=b)
        zc /= per_cell(SQRT2 * combined_log_sd, c)
        combined = _erf(zc, out=zc, work=(x, c))
    else:
        combined = np.multiply(combined_cdf, 2.0, out=b)
        combined -= 1.0  # a CDF F on the erf scale, 2F - 1
    probs = _erf(zs, out=zs, work=(x, c))
    probs -= combined
    probs *= 0.5
    np.clip(probs, 0.0, 1.0, out=probs)
    np.copyto(probs, 0.0, where=outside)
    return probs


def _recovery_params(patients: Sequence["Patient"]) -> tuple[np.ndarray, ...]:
    """Recovery patients' indices, then their surgery, combined and recovery (mu, sd) arrays."""
    rows = [(i, p.surgery.mu, p.surgery.sigma, p.combined.mu, p.combined.sigma,
             p.recovery.mu, p.recovery.sigma)
            for i, p in enumerate(patients) if p.needs_recovery]
    if not rows:
        return (np.empty(0, dtype=np.int64), *(np.empty(0) for _ in range(6)))
    index, *params = zip(*rows)
    return (np.array(index, dtype=np.int64), *(np.asarray(col, dtype=float) for col in params))


def _recovery_starts(starts: Sequence[float], rows: np.ndarray, n_patients: int) -> np.ndarray:
    """The starts of the patients at ``rows``, out of one start per patient."""
    if len(starts) != n_patients:
        raise ValueError(f"expected one start per patient, got {len(starts)} starts for {n_patients} patients")
    return np.asarray(starts, dtype=float)[rows]


class MeoKernel:
    """Exact peak expected occupancy of one day's patients on a fixed time grid.

    Evaluates each recovery patient's band of grid times only, and of those
    only the columns whose bounds leave them a chance of holding the peak
    (see the module docstring); ``peak`` equals ``occupancy_curve(...).peak()``
    for the same patients, starts, grid step and horizon, bit for bit.
    ``lag_limit`` holds each recovery patient's band end, in hours after
    its start: the crossing lag widened by ``_BAND_MARGIN``, or inf.
    ``upper`` and ``lower`` hold, one row per recovery patient, the bounds
    on a cell whose lag has table index m = floor(lag / grid_step): entry m
    covers the lags [m, m + 1] steps, and the last entry every lag from
    ``times.size`` steps on.
    """

    def __init__(self, patients: Sequence["Patient"], grid_step: float, horizon: float):
        self.times = time_grid(grid_step, horizon)
        self.grid_step = grid_step
        self.n_patients = len(patients)
        (self.rows, self.log_mean, self.log_sd, self.combined_log_mean, self.combined_log_sd,
         _, _) = _recovery_params(patients)
        self.lag_limit = np.array([
            support_upper_bound(p.surgery, p.combined) * (1.0 + _BAND_MARGIN)
            if p.combined.sigma < p.surgery.sigma - SIGMA_TOLERANCE else math.inf
            for p in patients if p.needs_recovery])
        entries = self.times.size + 1
        nodes = np.arange(entries) * grid_step
        lags = np.concatenate([nodes * (1.0 - _LAG_WIDENING) - _LAG_OFFSET * grid_step,
                               nodes[1:] * (1.0 + _LAG_WIDENING) + _LAG_OFFSET * grid_step])
        self.upper = np.empty((self.rows.size, entries))
        self.lower = np.zeros((self.rows.size, entries))
        for first in range(0, self.rows.size, _TABLE_BLOCK_ROWS):
            block = slice(first, first + _TABLE_BLOCK_ROWS)
            surgery = _lognormal_cdf_matrix(self.log_mean[block], self.log_sd[block], lags[None, :])
            combined = _lognormal_cdf_matrix(self.combined_log_mean[block],
                                             self.combined_log_sd[block], lags[None, :])
            # Columns [0, entries) are the lags lo_m, the rest hi_{m+1}.
            np.subtract(surgery[:, entries:], combined[:, :entries - 1],
                        out=self.upper[block, :-1])
            np.subtract(1.0, combined[:, entries - 1], out=self.upper[block, -1])
            np.subtract(surgery[:, :entries - 1], combined[:, entries:],
                        out=self.lower[block, :-1])
        np.clip(self.upper, 0.0, 1.0, out=self.upper)
        np.clip(self.lower, 0.0, 1.0, out=self.lower)

    def peak(self, starts: Sequence[float]) -> float:
        """Peak over the grid of the expected headcount; ``starts`` has one entry per patient."""
        z = _recovery_starts(starts, self.rows, self.n_patients)
        if self.rows.size == 0:
            return 0.0
        first = np.searchsorted(self.times, z, side="right")  # first grid time with lag > 0
        end = np.maximum(np.searchsorted(self.times, z + self.lag_limit, side="left"), first)
        counts = end - first
        # The cell-sized arrays that live through the call share one block: glibc
        # trims freed heap, to fault it in again on the next call, once that
        # outgrows twice the largest block.
        block = np.empty((4, int(counts.sum())))
        row, col = block[:2].view(np.intp)
        lag, scratch = block[2:]
        row[...] = np.repeat(np.arange(z.size), counts)
        col[...] = np.repeat(first - (np.cumsum(counts) - counts), counts)
        col += np.arange(col.size)
        # Each cell's flat table index, row * entries + min(floor(lag / step), last
        # entry), built in place of ``row``.
        entries = self.upper.shape[1]
        # "clip" takes without an intermediate buffer; every index is in range.
        np.take(self.times, col, out=lag, mode="clip")
        lag -= np.take(z, row, out=scratch, mode="clip")
        lag /= self.grid_step
        np.minimum(lag, entries - 1, out=lag)
        index = row
        index *= entries
        # Lags in the band are positive, so the cast to int floors them.
        np.add(index, lag, out=index, casting="unsafe")
        n_times = self.times.size
        column_lower = np.bincount(col, np.take(self.lower, index, out=lag, mode="clip"),
                                   minlength=n_times)
        column_upper = np.bincount(col, np.take(self.upper, index, out=lag, mode="clip"),
                                   minlength=n_times)
        keep = column_upper >= column_lower.max() - _PRUNE_MARGIN * (1.0 + z.size)
        kept = np.flatnonzero(keep[col])
        row, col = index[kept] // entries, col[kept]
        probs = recovery_prob_matrix(self.log_mean, self.log_sd, self.combined_log_mean,
                                     self.combined_log_sd, z, self.times, cells=(row, col))
        # Cells run row by row, so each column adds its values in row order.
        return float(np.bincount(col, probs, minlength=n_times).max())


def _lognormal_cdf_matrix(log_mean: np.ndarray, log_sd: np.ndarray, x: np.ndarray) -> np.ndarray:
    """P(duration <= x) for one lognormal per row of ``x``; zero where x <= 0."""
    positive = x > 0.0
    z = (np.log(np.where(positive, x, 1.0)) - log_mean[:, None]) / (SQRT2 * log_sd[:, None])
    return np.where(positive, 0.5 * (1.0 + _erf(z)), 0.0)


def convolved_sum_cdf(surgery_mu: np.ndarray, surgery_sd: np.ndarray,
                      recovery_mu: np.ndarray, recovery_sd: np.ndarray,
                      starts: np.ndarray, grid_step: float, n_times: int) -> np.ndarray:
    """P(surgery + recovery <= t - start) at t = 0, grid_step, ..., one row per patient.

    Surgery S and recovery R are independent lognormals, so the CDF of the
    sum is the integral of F_R(x - s) dF_S(s).  Each patient's CDF is
    tabulated on a lag grid of step h = grid_step / m (m the least integer
    with h <= SUM_LAG_STEP), shifted so that every grid time's lag lies on
    it; the lag range runs to the last grid time minus the earliest start.
    The table is the discrete convolution, by FFT, of the surgery masses of
    the cells [ih, (i+1)h] with F_R at the lags less the cell midpoints.
    That midpoint rule overstates the CDF by h^2/24 times the density's
    slope, to leading order; a three-point second difference removes the
    term, which leaves an O(h^4) error.  Distributions much narrower than h
    are resolved to within about half a lag step in time.
    """
    m = max(1, math.ceil(grid_step / SUM_LAG_STEP - 1e-9))  # 0.1 / 0.01 rounds above 10
    h = grid_step / m
    first = np.floor(-starts / h).astype(np.int64)  # lag of t = 0 is offset + first * h
    offset = -starts - first * h
    index = first[:, None] + m * np.arange(n_times)[None, :]
    values = np.empty(index.shape)
    for lo in range(0, starts.size, _SUM_BLOCK_ROWS):
        rows = slice(lo, lo + _SUM_BLOCK_ROWS)
        n_lags = max(int(index[rows].max()), 0) + 2  # a spare column for the second difference
        surgery_mass = np.diff(_lognormal_cdf_matrix(surgery_mu[rows], surgery_sd[rows],
                                                     np.arange(n_lags + 1)[None, :] * h), axis=1)
        recovery = _lognormal_cdf_matrix(recovery_mu[rows], recovery_sd[rows],
                                         offset[rows, None] + (np.arange(n_lags)[None, :] - 0.5) * h)
        size = 1 << (2 * n_lags - 1).bit_length()  # no wrap-around in the first n_lags terms
        spectrum = np.fft.rfft(surgery_mass, size, axis=1) * np.fft.rfft(recovery, size, axis=1)
        table = np.fft.irfft(spectrum, size, axis=1)[:, :n_lags]
        padded = np.pad(table, ((0, 0), (1, 1)))
        table = table - (padded[:, 2:] - 2.0 * table + padded[:, :-2]) / 24.0
        values[rows] = np.take_along_axis(table, np.maximum(index[rows], 0), axis=1)
    return np.where(index >= 0, np.clip(values, 0.0, 1.0), 0.0)


def occupancy_curve(patients: Sequence["Patient"], starts: Sequence[float],
                    grid_step: float = 0.1, horizon: float = 24.0,
                    recovery_model: str = "moment") -> OccupancyCurve:
    """Forecast mean, variance, and 95% band on a regular grid over [0, horizon].

    ``recovery_model`` is "moment" (the paper's moment-matched lognormal for
    surgery + recovery) or "convolved" (the exact CDF of that sum, see
    ``convolved_sum_cdf``).
    """
    if recovery_model not in RECOVERY_MODELS:
        raise ValueError(f"unknown recovery model {recovery_model!r}; expected one of {RECOVERY_MODELS}")
    times = time_grid(grid_step, horizon)
    rows, mu, sd, cmu, csd, rmu, rsd = _recovery_params(patients)
    z = _recovery_starts(starts, rows, len(patients))
    if rows.size == 0:
        zero = np.zeros(times.size)
        return OccupancyCurve(grid_step, times, zero, zero.copy(), zero.copy(), zero.copy())
    combined_cdf = None
    if recovery_model == "convolved":
        combined_cdf = convolved_sum_cdf(mu, sd, rmu, rsd, z, grid_step, times.size)
    probs = recovery_prob_matrix(mu, sd, cmu, csd, z, times, combined_cdf)
    variance = (probs * (1.0 - probs)).sum(axis=0)
    # Row by row, as the MEO kernel adds: sum(axis=0) would pair up the terms of a lone column.
    mean = np.cumsum(probs, axis=0, out=probs)[-1].copy()
    half_band = Z95 * np.sqrt(variance)
    return OccupancyCurve(grid_step, times, mean, variance,
                          mean - half_band, mean + half_band)


def exact_occupancy_cdf(patients: Sequence["Patient"], starts: Sequence[float],
                        t: float, k: int) -> float:
    """P(at most k patients in recovery at time t), exact Poisson-binomial tail.

    The normal band on the curve is an approximation; this is the opt-in
    exact query for tail probabilities where that approximation is too crude.
    """
    rows, mu, sd, cmu, csd, _, _ = _recovery_params(patients)
    probs = recovery_prob_matrix(mu, sd, cmu, csd, _recovery_starts(starts, rows, len(patients)),
                                 np.array([t]))
    return poisson_binomial_cdf(probs[:, 0], k)
