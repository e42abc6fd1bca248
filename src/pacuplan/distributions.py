"""Lognormal duration primitives and the Poisson-binomial count distribution.

Durations are parameterised by the mean and variance of their natural
logarithm; ``_erf`` is the vectorised error function behind every forecast
probability.  The headcount of patients simultaneously in recovery is a sum of
independent, non-identical Bernoulli indicators, i.e. Poisson binomial; its
CDF is computed exactly by an O(n*k) recurrence truncated at the queried count
k.  The recurrence multiplies generating polynomials: the trials' are first
multiplied together in blocks of 16, in vectorised levels, so it takes one
step per block, not one per trial.
"""
from __future__ import annotations

import dataclasses
import functools
import math
import numbers
import reprlib
import typing

import numpy as np

SQRT2 = math.sqrt(2.0)

# np.exp overflows to inf beyond ~709.78; reject earlier so means stay finite.
_LOG_FLOAT_MAX = math.log(np.finfo(float).max)


def _is_finite(value) -> bool:
    """Whether ``value`` is a finite real number; a bool is not one, nor an integer no float holds."""
    try:
        return not isinstance(value, bool) and math.isfinite(value)
    except (TypeError, OverflowError):
        return False


def _is_real(value) -> bool:
    """Whether ``value`` is a real number, NaN and inf included; a bool is not one."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


# The field annotations a record check knows: the test a value passes, and the kind it names.
_KINDS = {
    str: (lambda v: isinstance(v, str), "a string"),
    int: (lambda v: isinstance(v, numbers.Integral) and not isinstance(v, bool), "an integer"),
    bool: (lambda v: isinstance(v, bool), "true or false"),
    float: (_is_finite, "a finite number"),
    tuple[float, float]: (lambda v: isinstance(v, (tuple, list)) and len(v) == 2 and all(map(_is_finite, v))
                          and v[0] <= v[1], "a (low, high) pair of finite numbers, low <= high"),
}
# X | None takes what X takes, and None.
_KINDS.update({kind | None: (lambda v, test=test: v is None or test(v), noun)
               for kind, (test, noun) in _KINDS.items()})
# The ranges a field can declare as Annotated[kind, "<range>"], by the words a refusal prints.
_RANGES = {
    "at least 1": lambda v: v >= 1,
    "positive": lambda v: v > 0,
    "non-negative": lambda v: v >= 0,
    "in [0, 1]": lambda v: 0 <= v <= 1,
    "in (0, 1)": lambda v: 0 < v < 1,
}


def _range(bounds: str, kind) -> tuple:
    """(``bounds``, its test) for a field of ``kind``; a pair's range holds for both its ends."""
    test = _RANGES[bounds]
    return bounds, (lambda v: test(v[0]) and test(v[1])) if kind == tuple[float, float] else test


@functools.cache
def _field_table(cls: type):
    """What reading and checking ``cls`` need of its constructor fields, worked out once.

    The fields, those without a default, (field, kind test, kind, range,
    range test) of those in ``_KINDS`` (None, None with no range), and
    (field, container, record) of those a reader builds: a record
    (container None), a ``list`` of records, or a ``tuple``.
    """
    hints = typing.get_type_hints(cls, include_extras=True)
    ranges = {}
    for name, hint in hints.items():
        if typing.get_origin(hint) is typing.Annotated:
            hints[name], bounds = typing.get_args(hint)
            ranges[name] = _range(bounds, hints[name])
    init = [f for f in dataclasses.fields(cls) if f.init]
    required = frozenset(f.name for f in init if f.default is f.default_factory is dataclasses.MISSING)
    kinds = tuple((f.name, *_KINDS[hints[f.name]], *ranges.get(f.name, (None, None)))
                  for f in init if hints[f.name] in _KINDS)
    built = []
    for f in init:
        container = typing.get_origin(hints[f.name])
        inner = typing.get_args(hints[f.name])[0] if container is list else hints[f.name]
        if container is tuple or dataclasses.is_dataclass(inner):
            built.append((f.name, container, inner))
    return frozenset(f.name for f in init), required, kinds, tuple(built)


def _check_fields(record, owner: str | None) -> None:
    """Reject a field of ``record`` not of its annotated kind and range, naming ``owner`` and the field.

    A list-of-records field must be a list, and an error names its first
    entry that is not such a record.  ``owner`` is formatted, with ``self``
    as the record, only when a check fails.
    """
    def error(name: str, wanted: str, value) -> ValueError:
        problem = f"{name} must be {wanted}, got {reprlib.repr(value)}"
        return ValueError(problem if owner is None else f"{owner.format(self=record)}: {problem}")

    _, _, kinds, built = _field_table(type(record))
    for name, test, noun, bounds, in_range in kinds:
        value = getattr(record, name)
        if not test(value):
            raise error(name, noun, value)
        if bounds is not None and not in_range(value):
            raise error(name, bounds, value)
    for name, container, inner in built:
        if container is list:
            value = getattr(record, name)
            if not isinstance(value, list):
                raise error(name, "a list", value)
            for i, entry in enumerate(value):
                if not isinstance(entry, inner):
                    raise error(f"{name}[{i}]", f"a {inner.__name__}", entry)


@dataclasses.dataclass(frozen=True)
class LognormalParams:
    """Lognormal duration: ``mu``/``sigma2`` are the mean/variance of the log."""

    mu: float
    sigma2: typing.Annotated[float, "positive"]

    def __post_init__(self) -> None:
        _check_fields(self, "lognormal")
        if self.mu + self.sigma2 / 2.0 > _LOG_FLOAT_MAX:
            raise ValueError(f"lognormal: mu {self.mu} and sigma2 {self.sigma2} overflow the distribution mean")

    @functools.cached_property
    def sigma(self) -> float:
        """The log-sd; computed once per object, outside the fields that compare and hash."""
        return math.sqrt(self.sigma2)

    def mean(self) -> float:
        return math.exp(self.mu + self.sigma2 / 2.0)

    def variance(self) -> float:
        """expm1(sigma2) exp(2 mu + sigma2), inf where that product overflows."""
        exponent = 2.0 * self.mu + self.sigma2
        try:
            if exponent <= _LOG_FLOAT_MAX:
                return math.expm1(self.sigma2) * math.exp(exponent)
            # The mean's check keeps exponent / 2 within range.
            half = math.exp(exponent / 2.0)
            return math.expm1(self.sigma2) * half * half
        except OverflowError:
            return math.inf


_KINDS[LognormalParams] = (lambda v: isinstance(v, LognormalParams), "a LognormalParams")


# erf(y) = 1 - exp(-y^2) P(y) / Q(y) on [0, _ERF_CUT], ascending coefficients.  Fitted
# against mpmath at 60 digits: least squares weighted by exp(-y^2) on 300 Chebyshev
# nodes, linearised, with three Sanathanan-Koerner reweightings.  Past the cut,
# 1 - erf(y) < 2e-17, below half an ulp of 1, so the formula gives 1.0 exactly.
_ERF_P = (1.0, 1.5863386571923106, 1.2698854626851688, 0.6255134443843657,
          0.20157756427948068, 0.042151352299969344, 0.005289462430386716,
          0.00030831099860626415)
_ERF_Q = (1.0, 2.714717824287823, 3.3331165001544103, 2.4240676184366197,
          1.1458824893812412, 0.3619620087367267, 0.07498565651142886,
          0.009375265376403284, 0.0005464687824869478)
_ERF_CUT = 6.0


def _horner(coefficients: tuple[float, ...], y: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The polynomial with ascending ``coefficients`` at ``y``, evaluated into ``out``."""
    np.multiply(y, coefficients[-1], out=out)
    out += coefficients[-2]
    for c in coefficients[-3::-1]:
        out *= y
        out += c
    return out


def _erf(x: np.ndarray, out: np.ndarray | None = None,
         work: np.ndarray | None = None) -> np.ndarray:
    """The error function, elementwise, as sign(x) (1 - exp(-y^2) P(y) / Q(y)), y = min(|x|, 6).

    Within 4.5e-16 of the exact value, exactly odd and non-decreasing (both
    tested); +-1 for |x| >= 6 and NaN for NaN.  ``out``, which may be ``x``
    itself, receives the result; ``work``, two arrays shaped like ``x``, is
    scratch that overlaps neither.  Both are allocated when omitted.
    """
    y, s = np.empty((2, *x.shape)) if work is None else work
    out = np.empty_like(y) if out is None else out
    np.abs(x, out=y)
    np.minimum(y, _ERF_CUT, out=y)
    # Q(y) > 0, so s takes over the sign of x, and out may overwrite x.
    np.copysign(_horner(_ERF_Q, y, s), x, out=s)
    _horner(_ERF_P, y, out)
    out /= s
    np.multiply(y, y, out=y)
    np.negative(y, out=y)
    out *= np.exp(y, out=y)  # sign(x) exp(-y^2) P(y) / Q(y)
    np.copysign(1.0, s, out=s)
    return np.subtract(s, out, out=out)


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
    if not (math.isfinite(m * m) and math.isfinite(v)):
        raise ValueError("moment matching overflowed; duration parameters are too extreme")
    if m * m == 0.0:
        raise ValueError("moment matching underflowed; duration parameters are too extreme")
    sigma2 = math.log1p(v / (m * m))
    # Algebraically ln(m^2 / sqrt(v + m^2)); this arrangement keeps the
    # round-trip of the matched mean exact.
    mu = math.log(m) - sigma2 / 2.0
    return LognormalParams(mu=mu, sigma2=sigma2)


# The Poisson-binomial recurrence steps over blocks of 2^_PAIR_LEVELS trials.
_PAIR_LEVELS = 4


def _validate_probs(probs) -> np.ndarray:
    p = np.asarray(probs, dtype=float)
    if p.ndim != 1:
        raise ValueError("probability vector must be one-dimensional")
    if p.size and not (np.all(p >= 0.0) and np.all(p <= 1.0)):
        raise ValueError("success probabilities must lie in [0, 1]")
    return p


def poisson_binomial_cdf(probs, k: int) -> float:
    """P(at most k successes) among independent Bernoulli trials ``probs``.

    Exact by the truncated recurrence f <- f * g over the trials' generating
    polynomials g, keeping the coefficients of x^0 .. x^k: O(n*k) real
    arithmetic.  The trials' polynomials (1 - q) + q x are first multiplied
    together in blocks of 2^``_PAIR_LEVELS``, one vectorised level per
    doubling, so the recurrence takes one step per block rather than per
    trial; every coefficient is a sum of products of non-negative numbers,
    so no step cancels.  A probability of exactly 0 is an exact no-op factor
    and is dropped first.  ``k`` must be an integer, not a bool.  By
    convention k < 0 yields 0 and k >= the number of non-zero probabilities
    yields 1.
    """
    if isinstance(k, bool) or not isinstance(k, numbers.Integral):
        raise ValueError(f"k must be an integer, got {k!r}")
    p = _validate_probs(probs)
    if k < 0:
        return 0.0
    p = p[p > 0.0]
    if k >= p.size:
        return 1.0
    # One row per trial, (1 - q, q), padded with the identity (1, 0) to whole blocks.
    block = 1 << _PAIR_LEVELS
    rows = np.zeros((-(-p.size // block) * block, 2))
    rows[:, 0] = 1.0
    np.subtract(1.0, p, out=rows[:p.size, 0])
    rows[:p.size, 1] = p
    for _ in range(_PAIR_LEVELS):  # each level multiplies neighbouring rows
        left, right = rows[0::2], rows[1::2]
        width = rows.shape[1]
        rows = np.zeros((left.shape[0], 2 * width - 1))
        for i in range(width):
            rows[:, i:i + width] += left[:, i, None] * right
    f = np.ones(1)
    for row in rows:
        f = np.convolve(f, row)[:k + 1]
    return float(min(1.0, f.sum()))
