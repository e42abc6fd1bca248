import math

import numpy as np
import pytest

from pacuplan import (GenSpec, Instance, LognormalParams, Patient, Surgeon, forecast,
                      generate_instance, lognormal_cdf)
from pacuplan.distributions import SQRT2, _erf, _validate_probs
from pacuplan.simulation import _CHUNK, _RECOVERY_MODEL_OF_MODE, _draw_windows


def make_patient(pid="p1", surgeon="s1", or_id=1, needs_recovery=True,
                 surgery=(0.0, 0.1), recovery=(-0.5, 0.1), duration=None,
                 setup=0.0, cleanup=0.0):
    return Patient(id=pid, surgeon_id=surgeon, or_id=or_id, needs_recovery=needs_recovery,
                   surgery=LognormalParams(*surgery), recovery=LognormalParams(*recovery),
                   expected_duration=duration, setup=setup, cleanup=cleanup)


def in_recovery_oracle(patient, start, t):
    """Scalar in-recovery probability, F_surgery(t - start) - F_combined(t - start) in [0, 1]."""
    x = t - start
    return min(1.0, max(0.0, lognormal_cdf(x, patient.surgery) - lognormal_cdf(x, patient.combined)))


def two_call_recovery_prob_matrix(rows, starts, times, combined_cdf=None):
    """``recovery_prob_matrix`` as it was before one _erf call served both CDFs.

    The surgery and combined erf arguments each get their own ``_erf`` call
    in a four-plane block; the stacked form must give the same floats.
    """
    times = np.asarray(times, dtype=float)
    starts = np.asarray(starts, dtype=float)
    x, a, b, c = np.empty((4, starts.size, times.size))
    np.subtract(times, starts[:, None], out=x)
    outside = x <= 0.0
    np.copyto(x, 1.0, where=outside)
    logx = np.log(x, out=x)
    zs = np.subtract(logx, rows.mu[0, :, None], out=a)
    zs /= SQRT2 * rows.sd[0, :, None]
    if combined_cdf is None:
        zc = np.subtract(logx, rows.mu[1, :, None], out=b)
        zc /= SQRT2 * rows.sd[1, :, None]
        combined = _erf(zc, out=zc, work=(x, c))
    else:
        combined = np.multiply(combined_cdf, 2.0, out=b)
        combined -= 1.0
    probs = _erf(zs, out=zs, work=(x, c))
    probs -= combined
    probs *= 0.5
    np.clip(probs, 0.0, 1.0, out=probs)
    np.copyto(probs, 0.0, where=outside)
    return probs


def draw_windows(patient, start, rng, size, mode):
    """``_draw_windows`` for one recovery patient, from its ``RecoveryRows`` column."""
    rows = forecast.RecoveryRows([patient])
    return _draw_windows(rows.mu[:, 0], rows.sd[:, 0], start, rng, size, mode)


def support_upper_bound(surgery, combined, start=0.0):
    """Time at which the two standardised log arguments coincide, the crossing lag past ``start``.

    Past this point the surgery CDF no longer exceeds the combined CDF (for
    the usual case sigma_combined < sigma_surgery), so the in-recovery
    probability is zero.  Returns inf when the sigmas lie within 1e-12 and
    the crossing formula is singular, or when the crossing lies past any float.
    """
    s, c = surgery.sigma, combined.sigma
    if abs(c - s) < 1e-12:
        return math.inf
    try:
        return start + math.exp((c * surgery.mu - s * combined.mu) / (c - s))
    except OverflowError:
        return math.inf


# Bound on the (n, block) intermediate of the characteristic-function product.
_DFT_BLOCK = 512


def dft_terms(probs, k):
    """Characteristic-function inversion sum for P(at most k); provably real up to round-off.

    Poisson-binomial CDF by DFT inversion (Hong 2013, Comput. Stat. Data Anal.),
    O(n^2) complex work: an implementation independent of the production recurrence.
    """
    probs = np.asarray(probs, dtype=float)
    n = probs.size
    omega = 2.0 * math.pi / (n + 1)
    total = complex(k + 1)  # l = 0 summand is the 0/0 limit (k+1) * x_0 = k+1
    for lo in range(1, n + 1, _DFT_BLOCK):
        l = np.arange(lo, min(lo + _DFT_BLOCK, n + 1))
        z = np.exp(1j * omega * l)
        x = np.prod(1.0 - probs[None, :] + probs[None, :] * z[:, None], axis=1)
        num = 1.0 - np.exp(-1j * omega * l * (k + 1))
        den = 1.0 - np.exp(-1j * omega * l)
        total += (num / den * x).sum()
    return total / (n + 1)


def dft_cdf_oracle(probs, k):
    """P(at most k successes) by DFT inversion; k < 0 yields 0, k >= n yields 1."""
    n = len(probs)
    if k < 0:
        return 0.0
    if k >= n:
        return 1.0
    return min(1.0, max(0.0, dft_terms(probs, k).real))


def per_trial_cdf_oracle(probs, k):
    """``poisson_binomial_cdf`` as it was before the block product: one step per trial.

    P(at most k successes) by the truncated recurrence
    f_j <- f_j (1 - q) + f_{j-1} q over j <= k, with the same validation,
    dropping of exact zeros and conventions (k < 0 yields 0, k >= the number
    of non-zero probabilities yields 1).
    """
    p = _validate_probs(probs)
    if k < 0:
        return 0.0
    p = p[p > 0.0]
    if k >= p.size:
        return 1.0
    f = np.zeros(k + 1)
    f[0] = 1.0
    head, tail, shifted = f[:-1], f[1:], np.empty(k)
    for q in p.tolist():  # in place, no temporaries
        np.multiply(head, q, out=shifted)
        f *= 1.0 - q
        tail += shifted
    return float(min(1.0, f.sum()))


def pmf_oracle(probs):
    """Full Poisson-binomial PMF over {0, ..., n} by iterative convolution."""
    pmf = np.zeros(len(probs) + 1)
    pmf[0] = 1.0
    for q in probs:
        pmf[1:] = pmf[1:] * (1.0 - q) + pmf[:-1] * q
        pmf[0] *= 1.0 - q
    return pmf


def broadcast_mc_oracle(instance, schedule, n_samples, grid_step=0.1, mode="true", rng=None):
    """Monte Carlo statistics by the broadcast accumulation, as a dict of arrays.

    Builds each block's full (time, sample) occupancy by comparing every grid
    time with every patient's window, entry <= t < exit, and sums it directly:
    the direct form of ``monte_carlo_curve``, with the same draws in the same
    order.
    """
    rng = np.random.default_rng(0) if rng is None else rng
    starts = [schedule.starts[p.id] for p in instance.patients]
    analytic = forecast.occupancy_curve(instance.patients, starts,
                                        grid_step=grid_step, horizon=instance.day_hours,
                                        recovery_model=_RECOVERY_MODEL_OF_MODE[mode])
    times = analytic.times
    rows = forecast.RecoveryRows(instance.patients)
    z = rows.starts(starts)
    total = np.zeros(times.size)
    total_sq = np.zeros(times.size)
    above = np.zeros(times.size, dtype=np.int64)
    below = np.zeros(times.size, dtype=np.int64)
    for block_start in range(0, n_samples, _CHUNK):
        block = min(_CHUNK, n_samples - block_start)
        occupancy = np.zeros((times.size, block), dtype=np.int16)
        for r in range(z.size):
            entry, exit_ = _draw_windows(rows.mu[:, r], rows.sd[:, r], z[r], rng, block, mode)
            occupancy += (entry[None, :] <= times[:, None]) & (times[:, None] < exit_[None, :])
        occ = occupancy.astype(np.float64)
        total += occ.sum(axis=1)
        occ *= occ
        total_sq += occ.sum(axis=1)
        above += (occupancy > analytic.upper[:, None]).sum(axis=1)
        below += (occupancy < analytic.lower[:, None]).sum(axis=1)
    sample_mean = total / n_samples
    if n_samples > 1:
        sample_variance = np.maximum((total_sq - n_samples * sample_mean ** 2) / (n_samples - 1),
                                     0.0)
    else:
        sample_variance = np.zeros(times.size)
    return {"sample_mean": sample_mean, "sample_variance": sample_variance,
            "standard_error": np.sqrt(sample_variance / n_samples),
            "above": above, "below": below, "inside": n_samples - above - below}


def make_instance(patients, surgeons=None, or_count=None, or_open_hours=8.0, day_hours=24.0):
    if surgeons is None:
        ids = sorted({p.surgeon_id for p in patients})
        surgeons = [Surgeon(id=s, shift_start=0.0, shift_end=or_open_hours) for s in ids]
    if or_count is None:
        or_count = max((p.or_id for p in patients), default=0)
    return Instance(surgeons=surgeons, patients=patients, or_count=or_count,
                    or_open_hours=or_open_hours, day_hours=day_hours)


@pytest.fixture
def empty_instance():
    return Instance(surgeons=[], patients=[], or_count=0, or_open_hours=8.0, day_hours=24.0)


@pytest.fixture(scope="session")
def default_instance():
    return generate_instance(GenSpec())


def random_genspec(rng: np.random.Generator) -> GenSpec:
    """Random day-scale generator configs.

    Per-OR workloads are kept at surgical-day scale (as in the default
    21-OR/61-patient shape): an OR chain of other surgeons' cases longer
    than two working days would force a trailing surgeon's overtime past
    its cap no matter the schedule, i.e. the instance itself would be
    infeasible, which is not what the feasibility property is about.
    """
    ors = int(rng.integers(1, 9))
    if rng.random() < 0.5:
        surgeons = int(rng.integers(1, ors + 1))  # one block per OR, any size
        patients = int(rng.integers(surgeons, 3 * surgeons + 1))
    else:
        surgeons = int(rng.integers(1, 2 * ors + 1))  # up to two blocks per OR
        patients = surgeons + int(rng.integers(0, 3))
    return GenSpec(or_count=ors, surgeon_count=surgeons, patient_count=patients,
                   recovery_fraction=float(rng.uniform(0, 1)),
                   seed=int(rng.integers(2**32)))


def late_shift_instance(rng: np.random.Generator) -> Instance:
    """A ``random_genspec`` day whose surgeons' shifts start up to 6 h late, about half of them."""
    day = generate_instance(random_genspec(rng))
    surgeons = [Surgeon(id=s.id, shift_start=float(rng.choice([0.0, rng.uniform(0.0, 6.0)])),
                        shift_end=s.shift_end) for s in day.surgeons]
    return Instance(surgeons=surgeons, patients=day.patients, or_count=day.or_count,
                    or_open_hours=day.or_open_hours, day_hours=day.day_hours)
