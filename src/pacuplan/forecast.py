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

Every path, the Monte Carlo sampler's included, reads the recovery patients
in one array form, ``RecoveryRows``: their positions among the day's
patients and the lognormal (mu, sigma) of surgery, surgery + recovery and
recovery, one row each.  Its ``starts`` checks a raw list of starts (one
real, finite start per patient) and picks out the rows'; a ``Schedule``
checks its own starts, and ``Instance.starts_of`` that it times exactly the
day's patients.  Callers build the rows they read; the day's MEO kernel
keeps its own (``Instance._kernel``).

The peak of the expected headcount (MEO), the optimiser's objective, has one
kernel, ``MeoKernel``, and most grid columns cannot hold the peak: the
kernel proves it without evaluating them (bound and prune).  Each cell's
value, F_S(x) - F_C(x) at lag x, lies between F_S(lo) - F_C(hi) and
F_S(hi) - F_C(lo) for any lo <= x <= hi, because both CDFs are
non-decreasing, and it is exactly zero at lag x <= 0.  At construction the
kernel tabulates these bounds for each recovery patient in two phases per
grid step, with grid step h and T grid times, on the half-step nodes
lo_i = i (h / 2) (1 - w) - d h and hi_i = i (h / 2) (1 + w) + d h,
i = 0 .. 2T + 1, widened outward by w = ``_LAG_WIDENING`` and
d = ``_LAG_OFFSET`` (T + 1).  Entry m in [0, T) of phase q in {0, 1} covers
the lags [lo_{2m+q}, hi_{2m+q+1}], about [m + q / 2, m + (q + 1) / 2]
steps, and entry T of phase q every lag from lo_{2T+q} on.

A cell's entry comes from its row's shift and phase.  Time t_j lies within
a few ulps of j h, so the lag t_j - z of a row starting at z is (j + u)
steps, u = -z / h; one shift per row, k = floor(u), and one phase,
q = floor(2 (u - k)), give cell j the entry m = j + k of phase q, with no
float pass over the cells.  The difference u - k and its doubling are
exact, so the phase adds no rounding to the shift's.  Rounding cannot move
a cell out of its entry's interval: a row whose entries include some m in
[-1, T) has |z| <= (T + 1) h, and the quotient u, the time t_j and the
computed lag fl(t_j - z) then each err by at most a few (T + 1) 2^-53
steps, far below d steps; from entry T on, where lags and starts may be
large, the error is relative and w m covers it.  A tiny positive lag could
still reach m = -1 of phase 1, so that entry's upper bound is F_S(hi_0) and
its lower bound 0, and the argument needs no claim about how the division
rounds; m = -1 of phase 0 and every m <= -2 hold lags below -1/2 + d
steps, exactly zero cells, and read zero.

Each row and phase stores 3T + 1 entries: T zero entries for m <= -2, the
entries m = -1 .. T, and T - 1 copies of entry T.  For every shift k in
[-T - 1, T] a row's T cells are then the T consecutive entries from its
phase's entry T + 1 + k, one window, and a shift beyond that range reads
the window at its end: all zero, or all entry T, which covers every lag
from T + 1 steps on in either phase.  One fancy index over a sliding-window
view of the table gathers every row's window.

The bounds are stored as uint16 counts of 1 / 65535 (``_UNITS``), rounded
outward (lower down, upper up), so they still enclose the float64 ones, and
their sums by column are exact integers (uint32 up to 65537 rows), an
upper and a lower bound on every column sum.  A column whose upper bound
falls below the largest lower bound by more than a margin is not the peak.
The margin only covers the computed cells: the computed erf is within
4.5e-16 of the exact one, so a computed cell strays outside its float64
bounds by at most a few ulps of 1, and the computed column sums of at most
``rows`` values in [0, 1] round by far less than 1e-9 * rows for fewer than
a million rows; the margin is that, ``_PRUNE_MARGIN`` (1 + rows), in units
rounded up.  Only the remaining columns are evaluated, by the same
elementwise ``recovery_prob_matrix`` on the same rows, and summed in the
same row order as in ``occupancy_curve``, so the peak is bitwise the one
``occupancy_curve`` gives.
"""
from __future__ import annotations

import itertools
import math
import reprlib
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .distributions import SQRT2, _erf, _is_finite, _is_real, poisson_binomial_cdf

if TYPE_CHECKING:  # pragma: no cover
    from .model import Patient

# Width of the two-sided 95% normal prediction band.
Z95 = 1.96

# The default grid step (hours) everywhere, and the most points a grid may have.
GRID_STEP = 0.1
MAX_GRID_POINTS = 100_000

# Outward widening of the MEO kernel's bound-table lags: relative, and in
# grid steps per grid time; covers the rounding of a cell's lag and of its
# row's shift.
_LAG_WIDENING = 1e-9
_LAG_OFFSET = 1e-12
# Per recovery row, the rounding allowance when pruning columns by their bounds.
_PRUNE_MARGIN = 1e-9
# Phases per grid step of the MEO kernel's bound tables, the fixed-point
# units per 1 of their uint16 bounds, and scale factors a few ulps either side
# of it that round the bounds outward.
_PHASES = 2
_UNITS = 65535
_UNITS_DOWN, _UNITS_UP = _UNITS * (1.0 - 2.0**-50), _UNITS * (1.0 + 2.0**-50)
# Recovery rows per block when the MEO kernel tabulates its bounds, both CDFs
# at once; keeps its temporaries to a few hundred kB, far below the tables.
_TABLE_BLOCK_ROWS = 4

RECOVERY_MODELS = ("moment", "convolved")

# Largest lag step (hours) of the "convolved" surgery+recovery CDF table.
SUM_LAG_STEP = 0.01
# Patients convolved together; bounds the FFT buffers (~8 MB each on a 24 h day).
_SUM_BLOCK_ROWS = 64


@dataclass(frozen=True)
class OccupancyCurve:
    """Occupancy forecast sampled on a regular grid over [0, horizon]."""

    times: np.ndarray
    mean: np.ndarray
    variance: np.ndarray
    lower: np.ndarray
    upper: np.ndarray

    def peak(self) -> float:
        return float(self.mean.max()) if self.mean.size else 0.0


def _require_grid_step(grid_step: float) -> None:
    if not (_is_finite(grid_step) and grid_step > 0.0):
        raise ValueError(f"grid step must be positive and finite, got {grid_step}")


def time_grid(grid_step: float, horizon: float) -> np.ndarray:
    """Regular grid 0, step, 2*step, ... up to the last multiple of the step within the horizon.

    When the step has at most 12 decimals, time i is the double nearest the
    decimal i * step (0.3, not 0.30000000000000004), within an ulp or so of
    the product i * step.  A grid has at most ``MAX_GRID_POINTS`` points.
    """
    _require_grid_step(grid_step)
    if not (_is_finite(horizon) and horizon > 0.0):
        raise ValueError(f"horizon must be positive and finite, got {horizon}")
    steps = horizon / grid_step + 1e-9  # may be inf; the grid has floor(steps) + 1 points
    if steps >= MAX_GRID_POINTS:
        raise ValueError(f"grid step {grid_step} is too fine for a {horizon} h horizon: "
                         f"at most {MAX_GRID_POINTS} grid points are allowed")
    times = np.arange(int(steps) + 1) * grid_step
    decimals = next((d for d in range(13) if round(grid_step, d) == grid_step), None)
    return times if decimals is None else np.round(times, decimals, out=times)


class RecoveryRows:
    """A day's recovery patients in array form, one row each, in patient order.

    ``index`` holds their positions among the day's patients; ``mu`` and
    ``sd`` are (3, rows) arrays of their lognormal parameters for surgery,
    surgery + recovery (moment-matched) and recovery, in that order.  All
    three are read-only, so one object can serve every caller.
    """

    def __init__(self, patients: Sequence["Patient"]):
        self.n_patients = len(patients)
        rows = [(i, p.surgery.mu, p.surgery.sigma, p.combined.mu, p.combined.sigma,
                 p.recovery.mu, p.recovery.sigma) for i, p in enumerate(patients) if p.needs_recovery]
        # One fromiter over the flattened tuples takes half the time of np.array(rows).
        table = np.fromiter(itertools.chain.from_iterable(rows), dtype=float).reshape(-1, 7)
        self.index = table[:, 0].astype(np.intp)
        self.mu, self.sd = np.ascontiguousarray(table[:, 1:].reshape(-1, 3, 2).T)
        for array in (self.index, self.mu, self.sd):
            array.flags.writeable = False

    def starts(self, starts: Sequence[float]) -> np.ndarray:
        """The rows' starts, out of one finite start per patient.

        A start must be a real number, and a bool is not one.  A float or
        integer array passes by its dtype, and a sequence of floats and
        ints by its element types, before any entry is tested alone.  An
        integer that no float holds is not finite.
        """
        if len(starts) != self.n_patients:
            raise ValueError(f"expected one start per patient, got {len(starts)} starts "
                             f"for {self.n_patients} patients")
        if not (starts.dtype.kind in "fiu" if isinstance(starts, np.ndarray)
                else {*map(type, starts)} <= {float, int}):
            for i, z in enumerate(starts):
                if not _is_real(z):
                    raise ValueError(f"start {i} is not a number: {z!r}")
        try:
            starts = np.asarray(starts, dtype=float)
        except OverflowError:
            bad = next(i for i, z in enumerate(starts) if not _is_finite(z))
            raise ValueError(f"start {bad} is not finite: {reprlib.repr(starts[bad])}") from None
        if not np.isfinite(starts).all():
            bad = int(np.flatnonzero(~np.isfinite(starts))[0])
            raise ValueError(f"start {bad} is not finite: {starts[bad]}")
        return starts[self.index]


def recovery_prob_matrix(rows: RecoveryRows, starts: np.ndarray, times: np.ndarray,
                         combined_cdf: np.ndarray | None = None) -> np.ndarray:
    """Vectorised in-recovery probabilities, one row per recovery row, one column per time.

    ``starts`` holds each row's start.  ``combined_cdf``, when given, holds
    P(surgery + recovery <= t - start) for each cell and stands in for the
    moment-matched lognormal's CDF.  Every cell depends on its own row's
    parameters and start and its own time only.
    """
    times = np.asarray(times, dtype=float)
    starts = np.asarray(starts, dtype=float)
    # One block per call, also the erf's scratch: separate scratch arrays make
    # malloc return and re-fault its pages on every call of a large day.  The
    # erf arguments lead it, the surgery's and (moment model) the combined
    # one's, so one _erf call serves both; plane 1 ends up as the combined
    # CDF on the erf scale, and the lags use a plane of the erf's scratch.
    n_erf = 2 if combined_cdf is None else 1
    block = np.empty((2 + 2 * n_erf, starts.size, times.size))
    z, x = block[:n_erf], block[2]
    np.subtract(times, starts[:, None], out=x)
    outside = x <= 0.0
    np.copyto(x, 1.0, where=outside)
    logx = np.log(x, out=x)
    np.subtract(logx, rows.mu[:n_erf, :, None], out=z)
    z /= SQRT2 * rows.sd[:n_erf, :, None]
    if combined_cdf is not None:
        np.multiply(combined_cdf, 2.0, out=block[1])
        block[1] -= 1.0  # a CDF F on the erf scale, 2F - 1
    _erf(z, out=z, work=(block[2:2 + n_erf], block[2 + n_erf:]))
    probs = np.subtract(block[0], block[1], out=block[0])
    probs *= 0.5
    np.clip(probs, 0.0, 1.0, out=probs)
    np.copyto(probs, 0.0, where=outside)
    return probs


class MeoKernel:
    """Exact peak expected occupancy of one day's patients on a fixed time grid.

    Evaluates only the grid columns whose bounds leave them a chance of
    holding the peak (see the module docstring); ``peak`` equals
    ``occupancy_curve(...).peak()`` for the same patients, starts, grid step
    and horizon, bit for bit.  ``bounds`` holds, for each recovery patient
    and each of the ``_PHASES`` phases, 3T + 1 (lower, upper) pairs of uint16
    units, T = ``times.size``: entry m at T + 1 + m, so m <= -2 (zero
    padding) from 0, m = -1 at T, m = 0 .. T at T + 1 .. 2T + 1, then T - 1
    copies of entry T.  A row with shift k reads the T entries from
    T + 1 + k of its phase.  A day keeps its own: ``Instance._kernel``.
    """

    def __init__(self, rows: RecoveryRows, grid_step: float, horizon: float):
        self.times = time_grid(grid_step, horizon)
        self.grid_step = grid_step
        self.rows = rows
        n_rows, n = rows.index.size, self.times.size
        width, last = 3 * n + 1, 2 * n + 1  # entries per row and phase; m = n's entry
        nodes = np.arange(_PHASES * (n + 1)) * (grid_step / _PHASES)
        offset = _LAG_OFFSET * (n + 1) * grid_step
        # The half-step lags lo_0 .. lo_{2n+1}, then hi_0 .. hi_{2n+1}.
        lags = np.concatenate([nodes * (1.0 - _LAG_WIDENING) - offset,
                               nodes * (1.0 + _LAG_WIDENING) + offset])
        n_nodes = nodes.size
        self.bounds = np.zeros((n_rows, _PHASES, width, 2), dtype=np.uint16)
        for first in range(0, n_rows, _TABLE_BLOCK_ROWS):
            block = slice(first, first + _TABLE_BLOCK_ROWS)
            surgery, combined = _lognormal_cdf_matrix(rows.mu[:2, block], rows.sd[:2, block], lags)
            # Entry (q, m) is half-step entry e = 2m + q, m = -1 .. n, at index
            # e + 2: it covers the lags [lo_e, hi_{e+1}]; e = -1 only lags up to
            # hi_0, e = -2 none above zero, and the last two, m = n, every lag
            # from lo_e on.
            lower, upper = np.zeros((2, surgery.shape[0], n_nodes + 2))
            upper[:, 1] = surgery[:, n_nodes]
            np.subtract(surgery[:, n_nodes + 1:-1], combined[:, :n_nodes - 2], out=upper[:, 2:-2])
            np.subtract(1.0, combined[:, n_nodes - 2:n_nodes], out=upper[:, -2:])
            np.subtract(surgery[:, :n_nodes - 2], combined[:, n_nodes + 1:-1], out=lower[:, 2:-2])
            table = self.bounds[block]
            entries = table[:, :, n:last + 1].swapaxes(1, 2)  # (rows, m, phase, pair)
            _fixed_point(lower.reshape(-1, n + 2, _PHASES), -1, out=entries[..., 0])
            _fixed_point(upper.reshape(-1, n + 2, _PHASES), 1, out=entries[..., 1])
            table[:, :, last + 1:] = table[:, :, last:last + 1]
        self.bounds.flags.writeable = False
        # Every run of n entries of the flattened table (none without rows):
        # the cells of a row with shift k are the run from its entry n + 1 + k.
        flat = self.bounds.reshape(-1, 2) if n_rows else np.zeros((n, 2), np.uint16)
        self._windows = np.lib.stride_tricks.sliding_window_view(flat, n, axis=0).swapaxes(1, 2)
        self._row_start = np.arange(n_rows, dtype=np.intp) * (_PHASES * width) + n + 1
        self._sum_dtype = np.uint32 if n_rows <= 65537 else np.uint64  # 65537 * 65535 < 2**32
        self._margin = math.ceil(_PRUNE_MARGIN * (1 + n_rows) * _UNITS)

    def _cells(self, z: np.ndarray) -> np.ndarray:
        """Each cell's (lower, upper) pair: (rows, times, 2) uint16, rows starting at ``z``."""
        n = self.times.size
        steps = z / -self.grid_step
        shift = np.floor(steps)
        late = steps - shift >= 0.5  # phase 1; the difference is exact
        # Kept within [-n - 1, n], where the windows still reach the padding
        # and the repeated last entry, before the integer cast.
        np.maximum(shift, -n - 1.0, out=shift)
        np.minimum(shift, n, out=shift)
        start = self._row_start + shift.astype(np.intp)
        start += late * (3 * n + 1)
        return self._windows[start]

    def peak(self, starts: Sequence[float]) -> float:
        """Peak over the grid of the expected headcount; ``starts`` has one entry per patient."""
        z = self.rows.starts(starts)
        column_lower, column_upper = self._cells(z).sum(axis=0, dtype=self._sum_dtype).T
        keep = column_upper >= max(int(column_lower.max()) - self._margin, 0)
        probs = recovery_prob_matrix(self.rows, z, self.times[keep])
        return float(_column_sums(probs).max())


def _fixed_point(values: np.ndarray, toward: int, out: np.ndarray) -> None:
    """``values`` clipped to [0, 1] into ``out`` as counts of 1 / ``_UNITS``, rounded down (-1) or up (1).

    The scale factor lies a few ulps below (above) ``_UNITS``, more than the
    product's rounding, so the floor (ceiling) of the computed product is at
    most (least) the exact multiple of ``_UNITS``; zero stays zero.
    Overwrites ``values``.
    """
    units = np.multiply(values, _UNITS_DOWN if toward < 0 else _UNITS_UP, out=values)
    (np.floor if toward < 0 else np.ceil)(units, out=units)
    np.maximum(units, 0.0, out=units)
    out[...] = np.minimum(units, _UNITS, out=units)


def _column_sums(probs: np.ndarray) -> np.ndarray:
    """Each column's sum, adding the rows in order, zeros when there are none; overwrites ``probs``.

    ``sum(axis=0)`` would pair up the terms of a lone column.
    """
    if not probs.shape[0]:
        return np.zeros(probs.shape[1])
    return np.add.accumulate(probs, axis=0, out=probs)[-1]


def _lognormal_cdf_matrix(log_mean: np.ndarray, log_sd: np.ndarray, x: np.ndarray) -> np.ndarray:
    """P(duration <= x), zero where x <= 0; ``x`` broadcasts along a new last axis of the parameters."""
    positive = x > 0.0
    z = (np.log(np.where(positive, x, 1.0)) - log_mean[..., None]) / (SQRT2 * log_sd[..., None])
    return np.where(positive, 0.5 * (1.0 + _erf(z)), 0.0)


def convolved_sum_cdf(rows: RecoveryRows, starts: np.ndarray, grid_step: float,
                      n_times: int) -> np.ndarray:
    """P(surgery + recovery <= t - start) at t = 0, grid_step, ..., one row per recovery row.

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
        block = slice(lo, lo + _SUM_BLOCK_ROWS)
        n_lags = max(int(index[block].max()), 0) + 2  # a spare column for the second difference
        surgery_mass = np.diff(_lognormal_cdf_matrix(rows.mu[0, block], rows.sd[0, block],
                                                     np.arange(n_lags + 1)[None, :] * h), axis=1)
        recovery = _lognormal_cdf_matrix(rows.mu[2, block], rows.sd[2, block],
                                         offset[block, None] + (np.arange(n_lags)[None, :] - 0.5) * h)
        size = 1 << (2 * n_lags - 1).bit_length()  # no wrap-around in the first n_lags terms
        spectrum = np.fft.rfft(surgery_mass, size, axis=1) * np.fft.rfft(recovery, size, axis=1)
        table = np.fft.irfft(spectrum, size, axis=1)[:, :n_lags]
        padded = np.pad(table, ((0, 0), (1, 1)))
        table = table - (padded[:, 2:] - 2.0 * table + padded[:, :-2]) / 24.0
        values[block] = np.take_along_axis(table, np.maximum(index[block], 0), axis=1)
    return np.where(index >= 0, np.clip(values, 0.0, 1.0), 0.0)


def occupancy_curve(patients: Sequence["Patient"], starts: Sequence[float],
                    grid_step: float = GRID_STEP, horizon: float = 24.0,
                    recovery_model: str = "moment") -> OccupancyCurve:
    """Forecast mean, variance, and 95% band on ``time_grid(grid_step, horizon)``.

    ``recovery_model`` is "moment" (the paper's moment-matched lognormal for
    surgery + recovery) or "convolved" (the exact CDF of that sum, see
    ``convolved_sum_cdf``).
    """
    if recovery_model not in RECOVERY_MODELS:
        raise ValueError(f"unknown recovery model {recovery_model!r}; expected one of {RECOVERY_MODELS}")
    times = time_grid(grid_step, horizon)
    rows = RecoveryRows(patients)
    z = rows.starts(starts)
    combined_cdf = None
    if recovery_model == "convolved":
        combined_cdf = convolved_sum_cdf(rows, z, grid_step, times.size)
    probs = recovery_prob_matrix(rows, z, times, combined_cdf)
    variance = (probs * (1.0 - probs)).sum(axis=0)
    mean = _column_sums(probs).copy()
    half_band = Z95 * np.sqrt(variance)
    return OccupancyCurve(times, mean, variance,
                          mean - half_band, mean + half_band)


# The last tail query's patients, as a tuple, and their rows: a sweep over a
# day's grid, one call per time, builds the rows once.  The key is compared by
# equality, so equal but distinct patients reuse the rows and become the key;
# racing threads at worst build them twice.  A query over the whole grid in
# one call would retire it.
_tail_rows: tuple[tuple["Patient", ...], RecoveryRows] | None = None


def exact_occupancy_cdf(patients: Sequence["Patient"], starts: Sequence[float],
                        t: float, k: int) -> float:
    """P(at most k patients in recovery at time t), exact Poisson-binomial tail.

    The normal band on the curve is an approximation; this is the opt-in
    exact query for tail probabilities where that approximation is too crude.
    ``t`` must be finite and ``k`` an integer (see ``poisson_binomial_cdf``).
    """
    if not _is_finite(t):
        raise ValueError(f"exact_occupancy_cdf: t must be a finite number, got {t!r}")
    global _tail_rows
    key = tuple(patients)
    memo = _tail_rows
    rows = memo[1] if memo is not None and memo[0] == key else RecoveryRows(key)
    _tail_rows = (key, rows)
    probs = recovery_prob_matrix(rows, rows.starts(starts), np.array([t]))
    return poisson_binomial_cdf(probs[:, 0], k)
