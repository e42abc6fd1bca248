"""Lognormal duration primitives and the Poisson-binomial count distribution.

Durations are parameterised by the mean and variance of their natural
logarithm.  The headcount of patients simultaneously in recovery is a sum of
independent, non-identical Bernoulli indicators, i.e. Poisson binomial; its
CDF is computed exactly by an O(n*k) recurrence truncated at the queried count.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

SQRT2 = math.sqrt(2.0)

# np.exp overflows to inf beyond ~709.78; reject earlier so means stay finite.
_LOG_FLOAT_MAX = math.log(np.finfo(float).max)


def _require_finite(owner: str, **fields) -> None:
    """Reject any field that is not a finite real number (a bool is not one), naming it."""
    for name, value in fields.items():
        try:
            finite = not isinstance(value, bool) and math.isfinite(value)
        except TypeError:  # not a real number at all
            finite = False
        if not finite:
            raise ValueError(f"{owner}: {name} must be a finite number, got {value!r}")


@dataclass(frozen=True)
class LognormalParams:
    """Lognormal duration: ``mu``/``sigma2`` are the mean/variance of the log."""

    mu: float
    sigma2: float

    def __post_init__(self) -> None:
        _require_finite("lognormal", mu=self.mu, sigma2=self.sigma2)
        if self.sigma2 <= 0.0:
            raise ValueError(f"log-variance must be positive, got {self.sigma2}")
        if self.mu + self.sigma2 / 2.0 > _LOG_FLOAT_MAX:
            raise ValueError(f"parameters ({self.mu}, {self.sigma2}) overflow the distribution mean")

    @property
    def sigma(self) -> float:
        return math.sqrt(self.sigma2)

    def mean(self) -> float:
        return math.exp(self.mu + self.sigma2 / 2.0)

    def variance(self) -> float:
        exponent = 2.0 * self.mu + self.sigma2
        if exponent > _LOG_FLOAT_MAX:
            raise ValueError(f"parameters ({self.mu}, {self.sigma2}) overflow the distribution variance")
        return math.expm1(self.sigma2) * math.exp(exponent)


def lognormal_cdf(t: float, params: LognormalParams) -> float:
    """P(duration <= t).  Zero for t <= 0 (support boundary, not an error)."""
    if t <= 0.0:
        return 0.0
    return 0.5 + 0.5 * math.erf((math.log(t) - params.mu) / (SQRT2 * params.sigma))


def moment_match_sum(surgery: LognormalParams, recovery: LognormalParams) -> LognormalParams:
    """Lognormal fit to the sum of two independent lognormal durations.

    Equates the first two moments: the returned distribution's mean and
    variance reproduce mean(surgery) + mean(recovery) and
    variance(surgery) + variance(recovery) exactly (to round-off).
    """
    m = surgery.mean() + recovery.mean()
    v = surgery.variance() + recovery.variance()
    if not (math.isfinite(m) and math.isfinite(v)):
        raise ValueError("moment matching overflowed; duration parameters are too extreme")
    sigma2 = math.log1p(v / (m * m))
    # Algebraically ln(m^2 / sqrt(v + m^2)); this arrangement keeps the
    # round-trip of the matched mean exact.
    mu = math.log(m) - sigma2 / 2.0
    return LognormalParams(mu=mu, sigma2=sigma2)


def _validate_probs(probs) -> np.ndarray:
    p = np.asarray(probs, dtype=float)
    if p.ndim != 1:
        raise ValueError("probability vector must be one-dimensional")
    if p.size and not (np.all(p >= 0.0) and np.all(p <= 1.0)):
        raise ValueError("success probabilities must lie in [0, 1]")
    return p


def poisson_binomial_cdf(probs, k: int) -> float:
    """P(at most k successes) among independent Bernoulli trials ``probs``.

    Exact by the truncated recurrence f_j <- f_j (1 - q) + f_{j-1} q over
    j <= k: O(n*k) real arithmetic.  A probability of exactly 0 is an exact
    no-op factor and is dropped first.  By convention k < 0 yields 0 and
    k >= the number of non-zero probabilities yields 1.
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
