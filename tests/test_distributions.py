import itertools
import math
import pickle

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import erf as scipy_erf

from pacuplan.distributions import (
    LognormalParams,
    _erf,
    lognormal_cdf,
    moment_match_sum,
    _PAIR_LEVELS,
    poisson_binomial_cdf,
)

from conftest import dft_cdf_oracle, dft_terms, per_trial_cdf_oracle, pmf_oracle

# Independent quadrature oracle over the density on [0, 3] for mu=1, sigma2=0.25.
LOGNORMAL_CDF_AT_3 = 0.578174100802873


def enumerate_cdf(probs, k):
    """Exhaustive oracle over all 2^n outcomes; n <= 12 only."""
    total = 0.0
    for bits in itertools.product((0, 1), repeat=len(probs)):
        if sum(bits) <= k:
            weight = 1.0
            for bit, p in zip(bits, probs):
                weight *= p if bit else 1.0 - p
            total += weight
    return total


class TestErfContract:
    def test_erf_matches_high_precision_reference(self):
        # Accuracy contract on the erf used throughout: <= 1e-13 absolute.
        mpmath.mp.dps = 30
        points = np.linspace(-6.0, 6.0, 50)
        for x in points:
            assert abs(math.erf(x) - float(mpmath.erf(x))) <= 1e-13


def erf_test_points():
    """A dense grid and random points in [-8, 8], plus tiny magnitudes of both signs."""
    rng = np.random.default_rng(2024)
    tiny = np.logspace(-300, -1, 300)
    return np.concatenate([np.linspace(-8.0, 8.0, 8001), rng.uniform(-8.0, 8.0, 4000),
                           tiny, -tiny])


class TestVectorisedErf:
    """``_erf`` replaces scipy's erf in every forecast probability."""

    def test_matches_mpmath(self):
        x = erf_test_points()
        with mpmath.workdps(30):
            exact = np.array([float(mpmath.erf(v)) for v in x.tolist()])
        assert np.abs(_erf(x) - exact).max() <= 4.5e-16

    def test_matches_scipy(self):
        x = erf_test_points()
        assert np.abs(_erf(x) - scipy_erf(x)).max() <= 4.5e-16

    def test_exactly_odd(self):
        x = erf_test_points()
        assert np.array_equal(_erf(-x), -_erf(x))

    def test_non_decreasing(self):
        # MeoKernel's band exactness rests on this: past the crossing the surgery
        # argument is the smaller, so its erf must not be the larger.  Across
        # single ulps neither this erf nor scipy's is monotone; the band margin
        # keeps the two arguments much further apart than the pairs below.
        grid = np.linspace(-7.0, 7.0, 1_000_001)
        assert np.all(np.diff(_erf(grid)) >= 0.0)
        a = np.random.default_rng(6).uniform(-7.0, 7.0, 500_000)
        assert np.all(_erf(a + 1e-10 * np.abs(a)) >= _erf(a))

    def test_saturation_and_special_values(self):
        big = np.array([6.0, 6.5, 27.0, 1e300, np.inf])
        assert np.all(_erf(big) == 1.0)
        assert np.all(_erf(-big) == -1.0)
        assert np.isnan(_erf(np.array([np.nan]))).all()
        assert _erf(np.array([0.0]))[0] == 0.0

    def test_buffers_give_the_same_floats(self):
        x = erf_test_points()[:12600].reshape(2, -1)
        out, work = np.empty_like(x), np.empty((2, *x.shape))
        assert _erf(x, out=out, work=work) is out
        assert np.array_equal(out, _erf(x))
        in_place = x.copy()
        assert _erf(in_place, out=in_place, work=work) is in_place
        assert np.array_equal(in_place, out)


class TestLognormalCdf:
    def test_median(self):
        for mu, s2 in [(0.0, 0.3), (1.0, 0.25), (-2.0, 1.7)]:
            assert lognormal_cdf(math.exp(mu), LognormalParams(mu, s2)) == pytest.approx(0.5, abs=1e-12)

    def test_zero_and_negative_time(self):
        params = LognormalParams(1.0, 0.25)
        assert lognormal_cdf(0.0, params) == 0.0
        assert lognormal_cdf(-5.0, params) == 0.0

    def test_quadrature_oracle(self):
        params = LognormalParams(1.0, 0.25)
        density = lambda x: math.exp(-(math.log(x) - 1.0) ** 2 / 0.5) / (x * 0.5 * math.sqrt(2 * math.pi))
        oracle, err = quad(density, 0.0, 3.0)
        assert err < 1e-10
        assert oracle == pytest.approx(LOGNORMAL_CDF_AT_3, abs=1e-10)
        assert lognormal_cdf(3.0, params) == pytest.approx(LOGNORMAL_CDF_AT_3, abs=1e-12)

    def test_monotone_and_bounded(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            params = LognormalParams(rng.uniform(-2, 3), rng.uniform(0.01, 2))
            ts = np.sort(rng.uniform(0.0, 50.0, 40))
            values = [lognormal_cdf(t, params) for t in ts]
            assert all(0.0 <= v <= 1.0 for v in values)
            assert all(b >= a for a, b in zip(values, values[1:]))

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            LognormalParams(0.0, 0.0)
        with pytest.raises(ValueError):
            LognormalParams(0.0, -1.0)
        with pytest.raises(ValueError):
            LognormalParams(math.nan, 1.0)
        with pytest.raises(ValueError):
            LognormalParams(800.0, 1.0)  # mean overflows

    def test_cached_sigma_leaves_the_value_semantics_alone(self):
        params, twin = LognormalParams(0.7, 0.3), LognormalParams(0.7, 0.3)
        assert params.sigma == math.sqrt(0.3) and params.sigma is params.sigma
        # One side cached, the other not: still equal, same hash and repr.
        assert params == twin and hash(params) == hash(twin)
        assert repr(params) == repr(twin) == "LognormalParams(mu=0.7, sigma2=0.3)"
        assert params != LognormalParams(0.7, 0.31)
        for original in (params, twin, LognormalParams(-1.5, 2.0)):
            copy = pickle.loads(pickle.dumps(original))
            assert copy == original and hash(copy) == hash(original)
            assert copy.sigma == math.sqrt(original.sigma2)
        with pytest.raises(AttributeError):
            params.sigma2 = 1.0


class TestMomentMatching:
    def test_identical_inputs_double_the_mean(self):
        params = LognormalParams(0.7, 0.3)
        matched = moment_match_sum(params, params)
        assert matched.mean() == pytest.approx(2 * params.mean(), rel=1e-14)

    def test_worked_example_round_trip(self):
        surgery = LognormalParams(1.0, 0.25)
        recovery = LognormalParams(0.5, 0.25)
        target_mean = math.exp(1.125) + math.exp(0.625)
        target_var = ((math.exp(0.25) - 1) * math.exp(2.25)
                      + (math.exp(0.25) - 1) * math.exp(1.25))
        matched = moment_match_sum(surgery, recovery)
        assert matched.mean() == pytest.approx(target_mean, rel=1e-12)
        assert matched.variance() == pytest.approx(target_var, rel=1e-12)

    def test_round_trip_over_random_parameters(self):
        rng = np.random.default_rng(11)
        for _ in range(1000):
            surgery = LognormalParams(rng.uniform(-2, 3), rng.uniform(0.01, 2))
            recovery = LognormalParams(rng.uniform(-2, 3), rng.uniform(0.01, 2))
            m = surgery.mean() + recovery.mean()
            v = surgery.variance() + recovery.variance()
            matched = moment_match_sum(surgery, recovery)
            assert matched.mean() == pytest.approx(m, rel=1e-12)
            assert matched.variance() == pytest.approx(v, rel=1e-12)

    def test_monte_carlo_mean(self):
        surgery = LognormalParams(1.0, 0.25)
        recovery = LognormalParams(0.5, 0.25)
        rng = np.random.default_rng(3)
        n = 10 ** 6
        draws = (np.exp(surgery.mu + surgery.sigma * rng.standard_normal(n))
                 + np.exp(recovery.mu + recovery.sigma * rng.standard_normal(n)))
        se = draws.std(ddof=1) / math.sqrt(n)
        assert abs(draws.mean() - moment_match_sum(surgery, recovery).mean()) <= 4 * se

    def test_rejects_overflowing_parameters(self):
        with pytest.raises(ValueError):
            # Mean is representable but the variance moment overflows.
            moment_match_sum(LognormalParams(500.0, 1.0), LognormalParams(0.0, 0.1))

    @pytest.mark.parametrize("mu", [-380.0, -1000.0])
    def test_rejects_underflowing_parameters(self, mu):
        # Both means square to 0.0, below the least subnormal double.
        with pytest.raises(ValueError, match="moment matching underflowed"):
            moment_match_sum(LognormalParams(mu, 0.1), LognormalParams(mu, 0.1))


class TestPoissonBinomialCdf:
    def test_all_zero_probs(self):
        assert poisson_binomial_cdf([0.0, 0.0, 0.0], 0) == 1.0

    def test_single_bernoulli(self):
        assert poisson_binomial_cdf([0.5], 0) == pytest.approx(0.5, abs=1e-12)

    def test_three_trial_example(self):
        # Pr(0) = 0.08, Pr(1) = 0.42 by direct enumeration.
        assert enumerate_cdf([0.2, 0.5, 0.8], 1) == pytest.approx(0.50, abs=1e-12)
        assert poisson_binomial_cdf([0.2, 0.5, 0.8], 1) == pytest.approx(0.50, abs=1e-12)
        assert dft_cdf_oracle([0.2, 0.5, 0.8], 1) == pytest.approx(0.50, abs=1e-9)

    def test_recurrence_trivia(self):
        assert poisson_binomial_cdf([1.0, 1.0], 1) == pytest.approx(0.0, abs=1e-15)
        assert poisson_binomial_cdf([0.3] * 10, 10) == 1.0

    def test_out_of_range_k_conventions(self):
        probs = [0.4, 0.6]
        for fn in (poisson_binomial_cdf, dft_cdf_oracle):
            assert fn(probs, -1) == 0.0
            assert fn(probs, 2) == 1.0
            assert fn(probs, 99) == 1.0

    def test_agreement_with_enumeration(self):
        rng = np.random.default_rng(17)
        for _ in range(30):
            n = int(rng.integers(1, 13))
            probs = rng.random(n)
            for k in range(n):
                expected = enumerate_cdf(probs, k)
                assert poisson_binomial_cdf(probs, k) == pytest.approx(expected, abs=1e-9)
                assert dft_cdf_oracle(probs, k) == pytest.approx(expected, abs=1e-9)

    def test_dft_vs_dp_and_monotonicity(self):
        rng = np.random.default_rng(23)
        for _ in range(60):
            n = int(rng.integers(1, 101))
            probs = rng.random(n)
            previous = 0.0
            for k in range(n):
                value = poisson_binomial_cdf(probs, k)
                assert abs(value - dft_cdf_oracle(probs, k)) <= 1e-9
                assert value >= previous - 1e-12
                previous = value
            assert poisson_binomial_cdf(probs, n) == pytest.approx(1.0, abs=1e-12)

    def test_imaginary_residue_is_negligible(self):
        rng = np.random.default_rng(29)
        for _ in range(25):
            n = int(rng.integers(1, 101))
            probs = rng.random(n)
            k = int(rng.integers(0, n))
            assert abs(dft_terms(probs, k).imag) < 1e-9

    def test_dft_sum_itself_is_one_at_n(self):
        # At k = n every l >= 1 numerator vanishes, leaving exactly 1.
        rng = np.random.default_rng(37)
        for n in (1, 7, 40):
            probs = rng.random(n)
            assert abs(dft_terms(probs, n).real - 1.0) < 1e-12

    def test_pmf_matches_cdf_differences(self):
        rng = np.random.default_rng(31)
        probs = rng.random(20)
        pmf = pmf_oracle(probs)
        assert pmf.sum() == pytest.approx(1.0, abs=1e-12)
        cdf = np.cumsum(pmf)
        for k in range(20):
            assert poisson_binomial_cdf(probs, k) == pytest.approx(cdf[k], abs=1e-9)

    def test_exact_zeros_leave_result_bitwise_unchanged(self):
        rng = np.random.default_rng(41)
        for _ in range(20):
            n = int(rng.integers(1, 60))
            probs = rng.random(n)
            padded = np.insert(probs, rng.integers(0, n + 1, int(rng.integers(1, 20))), 0.0)
            for k in range(n):
                assert poisson_binomial_cdf(padded, k) == poisson_binomial_cdf(probs, k)

    def test_k_at_non_zero_count_is_exactly_one(self):
        rng = np.random.default_rng(43)
        probs = np.insert(rng.random(30), rng.integers(0, 31, 25), 0.0)
        nonzero = int((probs > 0.0).sum())
        for k in (nonzero, nonzero + 1, probs.size):
            assert poisson_binomial_cdf(probs, k) == 1.0
        assert poisson_binomial_cdf(probs, nonzero - 1) < 1.0

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(0.0, 1.0), max_size=60).flatmap(
        lambda probs: st.tuples(st.just(probs), st.permutations(probs))))
    def test_cdf_properties(self, vectors):
        probs, shuffled = vectors
        n = len(probs)
        values = [poisson_binomial_cdf(probs, k) for k in range(n)]
        assert all(0.0 <= v <= 1.0 for v in values)
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))
        assert poisson_binomial_cdf(probs, n) == 1.0
        assert poisson_binomial_cdf(probs, n + 3) == 1.0
        for k, v in enumerate(values):
            assert abs(poisson_binomial_cdf(shuffled, k) - v) <= 1e-12

    @pytest.mark.parametrize("kind", ["uniform", "near 0 and 1", "tiny"])
    @pytest.mark.parametrize("n", [0, 1, 15, 16, 17, 33, 639, 1000])
    def test_block_product_matches_the_per_trial_recurrence(self, n, kind):
        # Sizes around the block of 2^_PAIR_LEVELS = 16 trials leave partial
        # blocks padded with identity rows; 639 is the thousand-patient day's
        # count of non-zero probabilities at its peak.
        assert 1 << _PAIR_LEVELS == 16
        rng = np.random.default_rng(1000 * n + len(kind))
        if kind == "uniform":
            probs = rng.random(n)
        elif kind == "near 0 and 1":
            probs = np.abs(rng.integers(0, 2, n) - 1e-3 * rng.random(n))
        else:
            probs = 1e-3 * rng.uniform(0.5, 1.5, n)
        for k in sorted({0, 1, n // 2, n - 1}):
            expected = per_trial_cdf_oracle(probs, k)
            assert abs(poisson_binomial_cdf(probs, k) - expected) <= 1e-14, k

    def test_rejects_bad_probabilities(self):
        with pytest.raises(ValueError):
            poisson_binomial_cdf([0.5, 1.5], 1)
        with pytest.raises(ValueError):
            poisson_binomial_cdf([-0.1], 0)
        with pytest.raises(ValueError):
            poisson_binomial_cdf([[0.1, 0.2]], 0)

    @pytest.mark.parametrize("k", [2.5, 0.5, 1.0, -1.5, math.nan, True, False, "1", None])
    def test_rejects_a_count_that_is_not_an_integer(self, k):
        # 2.5 once gave 1.0 and 0.5 a bare TypeError; a bool was taken as 0 or 1.
        with pytest.raises(ValueError, match="k must be an integer"):
            poisson_binomial_cdf([0.5, 0.2], k)

    def test_accepts_numpy_integers(self):
        assert poisson_binomial_cdf([0.5, 0.2], np.int64(1)) == poisson_binomial_cdf([0.5, 0.2], 1)
