import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.optimize import brentq

from pacuplan import (
    GenSpec,
    LognormalParams,
    baseline_schedule,
    construct_schedule,
    exact_occupancy_cdf,
    generate_instance,
    occupancy_curve,
    poisson_binomial_cdf,
    time_grid,
)
from pacuplan import forecast, solver
from pacuplan.forecast import MeoKernel, RecoveryRows, recovery_prob_matrix

from conftest import (dft_cdf_oracle, in_recovery_oracle, late_shift_instance, make_patient,
                      pmf_oracle, support_upper_bound, two_call_recovery_prob_matrix)


def matrix_probs(patients, starts, times):
    """``recovery_prob_matrix`` over the recovery patients, one row each, one column per time."""
    rows = forecast.RecoveryRows(patients)
    return recovery_prob_matrix(rows, rows.starts(starts),
                                np.atleast_1d(np.asarray(times, dtype=float)))


def matrix_prob(patient, start, t):
    """One patient's in-recovery probability at time t, from ``recovery_prob_matrix``."""
    return float(matrix_probs([patient], [start], t)[0, 0])


def curve_at(patients, starts, t):
    """The occupancy curve on the grid (0, t), whose last point is exactly time t."""
    return occupancy_curve(patients, starts, grid_step=t, horizon=t)


class TestTimeGrid:
    def test_covers_horizon_inclusively(self):
        grid = time_grid(0.1, 24.0)
        assert grid.size == 241
        assert grid[0] == 0.0
        assert grid[-1] == pytest.approx(24.0, abs=1e-9)

    def test_degenerate_single_step(self):
        grid = time_grid(8.0, 8.0)
        assert grid.size == 2

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            time_grid(0.0, 1.0)
        with pytest.raises(ValueError):
            time_grid(0.1, -1.0)
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match="grid step must be positive and finite"):
                time_grid(bad, 24.0)
            with pytest.raises(ValueError, match="horizon must be positive and finite"):
                time_grid(0.1, bad)

    def test_rejects_an_integer_beyond_float_range_by_name(self):
        with pytest.raises(ValueError, match="horizon must be positive and finite"):
            time_grid(0.1, 10 ** 400)
        with pytest.raises(ValueError, match="grid step must be positive and finite"):
            time_grid(10 ** 400, 24.0)

    def test_rejects_a_grid_too_fine_to_allocate(self):
        assert time_grid(0.001, 24.0).size == 24001
        for step in (1e-9, 5e-324, 24.0 / forecast.MAX_GRID_POINTS):
            with pytest.raises(ValueError, match=f"grid step {step} is too fine"):
                time_grid(step, 24.0)
        # The largest grid allowed: MAX_GRID_POINTS - 1 steps.
        assert time_grid(1.0, forecast.MAX_GRID_POINTS - 1.0).size == forecast.MAX_GRID_POINTS


class TestSupportUpperBound:
    """The crossing-lag oracle that the zero-probability tests rest on."""

    def test_equal_sigmas_unbounded(self):
        surgery = LognormalParams(1.0, 0.25)
        combined = LognormalParams(2.0, 0.25)
        assert support_upper_bound(surgery, combined) == math.inf

    def test_worked_crossing_point(self):
        surgery = LognormalParams(1.0, 0.25)       # sigma = 0.5
        combined = LognormalParams(1.4, 0.36)      # sigma = 0.6
        bound = support_upper_bound(surgery, combined)
        assert bound == pytest.approx(math.exp(-1.0), rel=1e-12)
        # Independent check: the t > 0 where the standardised log arguments coincide.
        crossing = brentq(
            lambda t: (math.log(t) - 1.0) / 0.5 - (math.log(t) - 1.4) / 0.6, 1e-6, 1.0,
            xtol=1e-14)
        assert bound == pytest.approx(crossing, rel=1e-9)

    def test_nearly_equal_sigmas_cross_past_any_float(self):
        surgery = LognormalParams(1.0, 0.25)
        combined = LognormalParams(1.5, 0.25 - 1e-10)  # sigmas 1e-10 apart
        assert support_upper_bound(surgery, combined) == math.inf

    def test_start_translates_the_bound(self):
        surgery = LognormalParams(1.0, 0.25)
        combined = LognormalParams(1.4, 0.36)
        base = support_upper_bound(surgery, combined, start=0.0)
        assert support_upper_bound(surgery, combined, start=5.5) == pytest.approx(base + 5.5)


class TestRecoveryRows:
    def test_layout(self):
        patients = [make_patient(pid="a", surgery=(0.1, 0.2), recovery=(0.3, 0.4)),
                    make_patient(pid="b", needs_recovery=False),
                    make_patient(pid="c", surgery=(0.5, 0.6), recovery=(0.7, 0.8))]
        rows = forecast.RecoveryRows(patients)
        assert rows.index.tolist() == [0, 2]
        for r, p in enumerate((patients[0], patients[2])):
            params = (p.surgery, p.combined, p.recovery)
            assert rows.mu[:, r].tolist() == [q.mu for q in params]
            assert rows.sd[:, r].tolist() == [q.sigma for q in params]
        assert rows.starts([1.0, 2.0, 3.0]).tolist() == [1.0, 3.0]

    def test_no_recovery_patients(self):
        rows = forecast.RecoveryRows([make_patient(needs_recovery=False)])
        assert rows.index.size == 0 and rows.mu.shape == rows.sd.shape == (3, 0)
        assert rows.starts([1.0]).size == 0

    def test_of_builds_a_day_once(self):
        patients = [make_patient(pid=f"p{i}", surgery=(0.1 * i, 0.2)) for i in range(4)]
        rows = forecast.RecoveryRows.of(patients)
        assert forecast.RecoveryRows.of(list(patients)) is rows  # equal, not the same list
        assert forecast.RecoveryRows.of(tuple(patients)) is rows
        assert rows.index.tolist() == [0, 1, 2, 3]
        # The same day built again: equal patients, none of them the same object.
        again = [make_patient(pid=f"p{i}", surgery=(0.1 * i, 0.2)) for i in range(4)]
        assert again == patients and again[0] is not patients[0]
        assert forecast.RecoveryRows.of(again) is rows

    def test_of_sees_a_list_changed_after_a_call(self):
        patients = [make_patient(pid=f"p{i}", surgery=(0.1 * i, 0.2)) for i in range(3)]
        rows = forecast.RecoveryRows.of(patients)
        patients[1] = make_patient(pid="p1", needs_recovery=False)
        changed = forecast.RecoveryRows.of(patients)
        assert changed is not rows
        assert changed.index.tolist() == [0, 2] and rows.index.tolist() == [0, 1, 2]
        patients.append(make_patient(pid="p3"))
        assert forecast.RecoveryRows.of(patients).n_patients == 4

    def test_of_takes_a_generator(self):
        patients = [make_patient(pid=f"p{i}") for i in range(3)]
        rows = forecast.RecoveryRows.of(p for p in patients)
        assert rows.n_patients == 3 and rows.index.tolist() == [0, 1, 2]
        assert forecast.RecoveryRows.of(patients) is rows

    def test_arrays_are_read_only(self):
        rows = forecast.RecoveryRows.of([make_patient(), make_patient(pid="p2")])
        for array in (rows.index, rows.mu, rows.sd):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 1
        with pytest.raises(ValueError, match="read-only"):
            rows.mu[...] = 0.0

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_start_named_by_position(self, bad):
        # Also the start of a patient who needs no recovery bed.
        rows = forecast.RecoveryRows([make_patient(), make_patient(needs_recovery=False)])
        with pytest.raises(ValueError, match="start 1 is not finite"):
            rows.starts([0.0, bad])


class TestRecoveryProbMatrix:
    def test_zero_at_start_and_far_future(self):
        patient = make_patient()
        assert matrix_prob(patient, 3.0, 3.0) == 0.0
        assert matrix_prob(patient, 3.0, 1.0) == 0.0
        assert matrix_prob(patient, 0.0, 1e9) == pytest.approx(0.0, abs=1e-12)

    def test_bounded_probability(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            patient = make_patient(surgery=(rng.uniform(-1, 1.5), rng.uniform(0.02, 0.8)),
                                   recovery=(rng.uniform(-1.5, 1), rng.uniform(0.02, 0.8)))
            p = matrix_prob(patient, 0.0, rng.uniform(0.0, 30.0))
            assert 0.0 <= p <= 1.0

    def test_zero_beyond_support_bound_when_sigma_shrinks(self):
        # The crossing formula is the exact edge of positivity whenever the
        # combined log-sd is below the surgery log-sd.
        rng = np.random.default_rng(13)
        checked = 0
        while checked < 25:
            patient = make_patient(surgery=(rng.uniform(-1, 1), rng.uniform(0.3, 1.0)),
                                   recovery=(rng.uniform(-2, -0.5), rng.uniform(0.02, 0.1)))
            if patient.combined.sigma >= patient.surgery.sigma:
                continue
            checked += 1
            bound = support_upper_bound(patient.surgery, patient.combined)
            assert bound < math.inf
            for factor in (1.0001, 1.5, 4.0):
                assert matrix_prob(patient, 0.0, bound * factor) == 0.0
            assert matrix_prob(patient, 0.0, bound * 0.7) > 0.0

    def test_zero_from_the_widened_crossing_on(self):
        # Exactly 0.0 from a relative 1e-6 past the crossing on, including the
        # first lags past it, while the median lag before it is positive.
        rng = np.random.default_rng(8)
        spec = GenSpec()
        checked = 0
        while checked < 200:
            patient = make_patient(surgery=(rng.uniform(*spec.surgery_log_mean),
                                            rng.uniform(*spec.surgery_log_var)),
                                   recovery=(rng.uniform(*spec.recovery_log_mean),
                                             rng.uniform(*spec.recovery_log_var)))
            if patient.combined.sigma >= patient.surgery.sigma - 1e-12:
                continue
            limit = support_upper_bound(patient.surgery, patient.combined) * (1.0 + 1e-6)
            if limit > 1e6:
                continue
            checked += 1
            lags = np.concatenate([limit * (1.0 + np.arange(50) * 1e-15),
                                   np.linspace(limit, 4.0 * limit, 200)])
            probs = recovery_prob_matrix(forecast.RecoveryRows([patient]), np.zeros(1), lags)
            assert (probs == 0.0).all()
            median = math.exp(patient.surgery.mu)  # before the crossing, with a positive probability
            assert median < limit and in_recovery_oracle(patient, 0.0, median) > 0.0

    def test_time_translation_invariance(self):
        patient = make_patient(surgery=(0.3, 0.2), recovery=(0.1, 0.3))
        for t in (0.5, 1.7, 4.2, 9.0):
            base = matrix_prob(patient, 0.0, t)
            assert matrix_prob(patient, 6.25, t + 6.25) == pytest.approx(base, abs=1e-12)

    def test_matched_monte_carlo_oracle(self):
        # Fraction of days with surgery over but combined duration still
        # running, sampling the combined lognormal on the surgery draw's
        # percentile: 1e6 samples, agreement within 4 standard errors.
        patient = make_patient(surgery=(1.0, 0.25), recovery=(0.5, 0.25))
        rng = np.random.default_rng(21)
        n = 10 ** 6
        w = rng.standard_normal(n)
        surgery = np.exp(patient.surgery.mu + patient.surgery.sigma * w)
        combined = np.exp(patient.combined.mu + patient.combined.sigma * w)
        hits = (surgery <= 4.0) & (4.0 < combined)
        estimate = hits.mean()
        se = math.sqrt(estimate * (1 - estimate) / n)
        assert abs(matrix_prob(patient, 0.0, 4.0) - estimate) <= 4 * se


    @pytest.mark.parametrize("columns", [1, 8, 24, 241])
    def test_one_erf_call_gives_the_two_calls_floats(self, columns):
        # Stacking both erf arguments into one _erf call changes no float, on
        # either recovery model, from a lone column to a whole day's grid.
        rng = np.random.default_rng(columns)
        for seed in range(3):
            patients = generate_instance(GenSpec(seed=seed)).patients
            rows = forecast.RecoveryRows(patients)
            z = rng.uniform(-2.0, 12.0, rows.index.size)
            times = np.sort(rng.choice(time_grid(0.1, 24.0), columns, replace=False))
            ours = recovery_prob_matrix(rows, z, times)
            assert np.array_equal(ours, two_call_recovery_prob_matrix(rows, z, times))
            assert (ours > 0.0).any()
            cdf = forecast.convolved_sum_cdf(rows, z, 0.1, 241)[:, :columns]
            grid = time_grid(0.1, 24.0)[:columns]
            assert np.array_equal(recovery_prob_matrix(rows, z, grid, cdf),
                                  two_call_recovery_prob_matrix(rows, z, grid, cdf))
        empty = forecast.RecoveryRows([])
        assert recovery_prob_matrix(empty, np.empty(0), times).shape == (0, columns)


class TestAggregates:
    def test_empty_patient_set(self):
        assert curve_at([], [], 3.0).mean[-1] == 0.0
        assert curve_at([], [], 3.0).variance[-1] == 0.0

    def test_singleton_equals_individual(self):
        patient = make_patient()
        for t in (0.5, 1.0, 2.5):
            assert curve_at([patient], [0.0], t).mean[-1] == pytest.approx(
                in_recovery_oracle(patient, 0.0, t), abs=1e-12)

    def test_two_identical_patients_double(self):
        patient = make_patient()
        twin = make_patient(pid="p2")
        assert curve_at([patient, twin], [1.0, 1.0], 2.5).mean[-1] == pytest.approx(
            2 * in_recovery_oracle(patient, 1.0, 2.5), abs=1e-12)

    def test_bernoulli_variance(self):
        patient = make_patient(surgery=(0.0, 0.04), recovery=(1.5, 0.04))
        # Surgery median is 1 h; right at t just above it the in-recovery
        # probability crosses 1/2, where the Bernoulli variance peaks.
        t = brentq(lambda x: in_recovery_oracle(patient, 0.0, x) - 0.5, 0.5, 1.05)
        assert curve_at([patient], [0.0], t).variance[-1] == pytest.approx(0.25, abs=1e-9)

    def test_variance_matches_pmf_oracle(self):
        rng = np.random.default_rng(3)
        patients = [make_patient(pid=f"p{i}", surgery=(rng.uniform(-0.5, 1), rng.uniform(0.05, 0.5)),
                                 recovery=(rng.uniform(-1, 0.7), rng.uniform(0.05, 0.5)))
                    for i in range(12)]
        starts = rng.uniform(0, 6, 12)
        t = 5.0
        probs = matrix_probs(patients, starts, t)[:, 0]
        pmf = pmf_oracle(probs)
        counts = np.arange(pmf.size)
        mean = (counts * pmf).sum()
        var = (counts ** 2 * pmf).sum() - mean ** 2
        assert curve_at(patients, starts, t).mean[-1] == pytest.approx(mean, rel=1e-10)
        assert curve_at(patients, starts, t).variance[-1] == pytest.approx(var, rel=1e-9)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(9)
        patients = [make_patient(pid=f"p{i}", surgery=(rng.uniform(-0.5, 1), 0.2),
                                 recovery=(0.0, 0.2)) for i in range(8)]
        starts = list(rng.uniform(0, 5, 8))
        perm = rng.permutation(8)
        shuffled = [patients[i] for i in perm]
        shuffled_starts = [starts[i] for i in perm]
        for t in (2.0, 4.5, 7.0):
            assert curve_at(shuffled, shuffled_starts, t).mean[-1] == pytest.approx(
                curve_at(patients, starts, t).mean[-1], abs=1e-12)

    def test_non_recovery_patients_do_not_contribute(self):
        patients = [make_patient(pid="p1"), make_patient(pid="p2", needs_recovery=False)]
        lone = curve_at([patients[0]], [0.0], 2.0).mean[-1]
        assert curve_at(patients, [0.0, 0.0], 2.0).mean[-1] == pytest.approx(lone, abs=1e-15)


class TestOccupancyCurve:
    def test_empty_curve_is_zero(self):
        curve = occupancy_curve([], [], grid_step=0.5, horizon=24.0)
        assert curve.times.size == 49
        assert not curve.mean.any()
        assert not curve.variance.any()
        assert not curve.lower.any()
        assert not curve.upper.any()

    def test_degenerate_two_point_grid(self):
        curve = occupancy_curve([make_patient()], [0.0], grid_step=24.0, horizon=24.0)
        assert curve.times.size == 2

    def test_invariants(self):
        rng = np.random.default_rng(15)
        patients = [make_patient(pid=f"p{i}", surgery=(rng.uniform(-0.5, 1), rng.uniform(0.05, 0.5)),
                                 recovery=(rng.uniform(-1, 0.7), rng.uniform(0.05, 0.5)),
                                 needs_recovery=bool(rng.random() < 0.8))
                    for i in range(20)]
        starts = list(rng.uniform(0, 6, 20))
        curve = occupancy_curve(patients, starts, grid_step=0.1, horizon=24.0)
        n_recovery = sum(p.needs_recovery for p in patients)
        steps = np.diff(curve.times)
        assert np.allclose(steps, 0.1, atol=1e-12)
        assert (curve.mean >= 0).all() and (curve.mean <= n_recovery).all()
        assert (curve.variance <= curve.mean + 1e-12).all()
        assert np.allclose(curve.lower, curve.mean - 1.96 * np.sqrt(curve.variance))
        assert np.allclose(curve.upper, curve.mean + 1.96 * np.sqrt(curve.variance))

    def test_adding_non_recovery_patient_changes_nothing(self):
        patients = [make_patient(pid="p1"), make_patient(pid="p2", surgery=(0.5, 0.3))]
        starts = [0.0, 1.0]
        base = occupancy_curve(patients, starts)
        extended = occupancy_curve(patients + [make_patient(pid="p3", needs_recovery=False)],
                                   starts + [0.5])
        assert np.array_equal(base.mean, extended.mean)
        assert np.array_equal(base.variance, extended.variance)
        assert np.array_equal(base.lower, extended.lower)
        assert np.array_equal(base.upper, extended.upper)

    def test_mismatched_starts_rejected(self):
        with pytest.raises(ValueError):
            occupancy_curve([make_patient()], [0.0, 1.0])

    @pytest.mark.parametrize("model", forecast.RECOVERY_MODELS)
    def test_non_finite_start_rejected(self, model):
        patients = [make_patient(), make_patient(pid="p2")]
        with pytest.raises(ValueError, match="start 1 is not finite"):
            occupancy_curve(patients, [0.0, math.nan], recovery_model=model)


def _in_recovery_by_quadrature(patient, x):
    """F_S(x) - P(S + R <= x), the sum's CDF as the integral of f_S(s) F_R(x - s)."""
    s_mu, s_sd = patient.surgery.mu, patient.surgery.sigma
    r_mu, r_sd = patient.recovery.mu, patient.recovery.sigma

    def integrand(s):
        density = math.exp(-((math.log(s) - s_mu) / s_sd) ** 2 / 2) / (s * s_sd * math.sqrt(2 * math.pi))
        return density * (0.5 + 0.5 * math.erf((math.log(x - s) - r_mu) / (math.sqrt(2) * r_sd)))

    sum_cdf = quad(integrand, 0.0, x, epsabs=1e-12, epsrel=1e-12, limit=200)[0]
    return 0.5 + 0.5 * math.erf((math.log(x) - s_mu) / (math.sqrt(2) * s_sd)) - sum_cdf


class TestConvolvedRecoveryModel:
    @pytest.mark.parametrize("grid_step", [0.1, 0.037])
    def test_matches_quadrature_oracle(self, grid_step):
        """Exact in-recovery probability within 1e-5 of scipy quadrature.

        The bound holds for surgery and recovery lognormals whose log-means
        and log-variances lie in GenSpec's default ranges (surgery log-mean
        in [ln 0.5, ln 3], recovery log-mean in [ln 0.25, ln 2], both
        log-variances in [0.05, 0.5]).  The narrowest corner of those ranges
        has the steepest density and the largest error, so it is always
        included; the measured worst case there is below 2e-7.  A one-patient
        curve's mean is that patient's probability at every grid time.
        """
        spec = GenSpec()
        rng = np.random.default_rng(41)
        params = [(spec.surgery_log_mean[0], spec.surgery_log_var[0],
                   spec.recovery_log_mean[0], spec.recovery_log_var[0])]
        params += [(rng.uniform(*spec.surgery_log_mean), rng.uniform(*spec.surgery_log_var),
                    rng.uniform(*spec.recovery_log_mean), rng.uniform(*spec.recovery_log_var))
                   for _ in range(5)]
        worst = 0.0
        for s_mu, s_var, r_mu, r_var in params:
            patient = make_patient(surgery=(s_mu, s_var), recovery=(r_mu, r_var))
            start = float(rng.uniform(0.0, 8.0))
            curve = occupancy_curve([patient], [start], grid_step=grid_step, horizon=24.0,
                                    recovery_model="convolved")
            for t, p in zip(curve.times[::3], curve.mean[::3]):
                if t - start > 0.0:
                    worst = max(worst, abs(p - _in_recovery_by_quadrature(patient, t - start)))
                else:
                    assert p == 0.0
        assert worst <= 1e-5

    def test_invariants(self):
        rng = np.random.default_rng(16)
        patients = [make_patient(pid=f"p{i}", surgery=(rng.uniform(-0.5, 1), rng.uniform(0.05, 0.5)),
                                 recovery=(rng.uniform(-1, 0.7), rng.uniform(0.05, 0.5)))
                    for i in range(10)]
        starts = list(rng.uniform(-2, 20, 10))
        curve = occupancy_curve(patients, starts, recovery_model="convolved")
        assert (curve.mean >= 0).all() and (curve.mean <= len(patients)).all()
        assert (curve.variance <= curve.mean + 1e-12).all()
        assert np.allclose(curve.upper, curve.mean + 1.96 * np.sqrt(curve.variance))
        late = occupancy_curve(patients[:1], [30.0], recovery_model="convolved")
        assert not late.mean.any()

    def test_mean_is_sum_of_single_patient_curves(self):
        # 70 patients span two convolution blocks of rows.
        rng = np.random.default_rng(17)
        patients = [make_patient(pid=f"p{i}", surgery=(rng.uniform(-0.7, 1.1), rng.uniform(0.05, 0.5)),
                                 recovery=(rng.uniform(-1.4, 0.7), rng.uniform(0.05, 0.5)))
                    for i in range(70)]
        starts = list(rng.uniform(0, 8, 70))
        curve = occupancy_curve(patients, starts, recovery_model="convolved")
        singles = sum(occupancy_curve([p], [z], recovery_model="convolved").mean
                      for p, z in zip(patients, starts))
        assert np.allclose(curve.mean, singles, rtol=0.0, atol=1e-12)

    def test_unknown_model_rejected(self):
        with pytest.raises(ValueError, match="recovery model"):
            occupancy_curve([make_patient()], [0.0], recovery_model="bogus")


class TestMeoKernel:
    """The kernel's peak equals the full curve's peak, float for float."""

    @staticmethod
    def assert_same_peak(patients, starts, grid_step=0.1, horizon=24.0):
        peak = MeoKernel(RecoveryRows(patients), grid_step, horizon).peak(starts)
        assert peak == occupancy_curve(patients, starts, grid_step, horizon).peak()
        return peak

    @pytest.mark.parametrize("grid_step, horizon", [(0.1, 24.0), (0.037, 24.0), (0.25, 24.0),
                                                    (0.07, 10.05), (1.0 / 3.0, 10.05)],
                             ids=["0.1", "0.037", "0.25", "0.07-10.05", "1/3-10.05"])
    def test_random_schedules(self, grid_step, horizon):
        rng = np.random.default_rng(5)
        for seed in range(5):
            instance = generate_instance(GenSpec(seed=seed))
            kernel = MeoKernel(RecoveryRows(instance.patients), grid_step, horizon)
            for _ in range(40):
                starts = rng.uniform(-1.0, 12.0, len(instance.patients)).tolist()
                assert kernel.peak(starts) == occupancy_curve(
                    instance.patients, starts, grid_step, horizon).peak()
            # Starts on grid times and at exact step multiples before zero, so
            # that lags are 0 or whole steps.
            on_grid = np.concatenate([kernel.times, -np.arange(1, 40) * grid_step])
            for _ in range(10):
                starts = rng.choice(on_grid, len(instance.patients)).tolist()
                assert kernel.peak(starts) == occupancy_curve(
                    instance.patients, starts, grid_step, horizon).peak()

    def test_unbounded_band(self):
        wide = make_patient(pid="w", surgery=(0.0, 0.05), recovery=(0.3, 0.8))
        assert wide.combined.sigma >= wide.surgery.sigma
        narrow = make_patient(pid="n", surgeon="s2", surgery=(0.5, 0.5), recovery=(-1.0, 0.05))
        patients = [wide, narrow]
        assert narrow.combined.sigma < narrow.surgery.sigma
        assert support_upper_bound(narrow.surgery, narrow.combined) < 24.0
        for start in (0.0, 0.33, 7.9, 18.25):
            self.assert_same_peak(patients, [start, 0.5 * start])
            self.assert_same_peak(patients, [start, 0.5 * start], grid_step=0.037)

    def test_starts_at_or_past_the_horizon(self):
        instance = generate_instance(GenSpec(seed=2))
        n = len(instance.patients)
        assert self.assert_same_peak(instance.patients, [24.0] * n) == 0.0
        assert self.assert_same_peak(instance.patients, [30.0] * n) == 0.0
        mixed = [24.0 if i % 3 == 0 else (31.5 if i % 3 == 1 else 0.1 * i) for i in range(n)]
        assert self.assert_same_peak(instance.patients, mixed) > 0.0
        assert self.assert_same_peak(instance.patients, mixed, grid_step=0.037) > 0.0

    def test_no_recovery_patients(self):
        patients = [make_patient(needs_recovery=False),
                    make_patient(pid="p2", surgeon="s2", needs_recovery=False)]
        assert self.assert_same_peak(patients, [0.0, 1.0]) == 0.0
        assert self.assert_same_peak([], []) == 0.0

    @pytest.mark.parametrize("spec", [GenSpec(seed=0),
                                      GenSpec(seed=4, patient_count=200, surgeon_count=100,
                                              or_count=60)])
    def test_repeated_calls_give_fresh_results(self, spec):
        # One kernel alternates between packed constructed schedules and starts
        # spread over the day, so each call evaluates a different number of cells.
        instance = generate_instance(spec)
        ws = solver._Workspace.of(instance)
        rng = np.random.default_rng(31)
        kernel = MeoKernel(RecoveryRows(instance.patients), 0.1, instance.day_hours)
        seen = []
        for i in range(50):
            if i % 2:
                starts = rng.uniform(-2.0, 26.0, ws.n).tolist()
            else:
                starts, _ = solver._construct_starts(ws, rng.permutation(ws.n).tolist(), rng)
            peak = kernel.peak(starts)
            assert type(peak) is float
            fresh = MeoKernel(RecoveryRows(instance.patients), 0.1, instance.day_hours)
            assert peak == fresh.peak(starts)
            assert peak == occupancy_curve(instance.patients, starts, 0.1,
                                           instance.day_hours).peak()
            seen.append((starts, peak))
        assert len({peak for _, peak in seen}) > 40
        assert all(kernel.peak(starts) == peak for starts, peak in seen)

    def test_non_finite_start_rejected(self):
        kernel = MeoKernel(RecoveryRows([make_patient(), make_patient(pid="p2")]), 0.1, 24.0)
        with pytest.raises(ValueError, match="start 1 is not finite"):
            kernel.peak([0.0, math.nan])

    def test_repeated_calls_without_recovery_patients(self):
        patients = [make_patient(needs_recovery=False),
                    make_patient(pid="p2", surgeon="s2", needs_recovery=False)]
        kernel = MeoKernel(RecoveryRows(patients), 0.1, 24.0)
        assert [kernel.peak([z, 2.0 * z]) for z in (0.0, 3.5, 30.0)] == [0.0, 0.0, 0.0]

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_constructed_schedules_on_random_days(self, seed):
        rng = np.random.default_rng(seed)
        instance = late_shift_instance(rng)
        kernel = MeoKernel(RecoveryRows(instance.patients), 0.1, instance.day_hours)
        for _ in range(3):
            sequence = [instance.patient_ids[i] for i in rng.permutation(len(instance.patients))]
            schedule = construct_schedule(instance, sequence, rng)
            starts = [schedule.starts[p.id] for p in instance.patients]
            assert kernel.peak(starts) == occupancy_curve(
                instance.patients, starts, 0.1, instance.day_hours).peak()

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from([0.1, 0.25, 0.07, 1.0 / 3.0]),
           st.sampled_from([24.0, 10.05]))
    def test_random_starts_on_random_days(self, seed, grid_step, horizon):
        # Starts before zero, inside the day and past its end.
        rng = np.random.default_rng(seed)
        instance = late_shift_instance(rng)
        kernel = MeoKernel(RecoveryRows(instance.patients), grid_step, horizon)
        for _ in range(3):
            starts = rng.uniform(-8.0, horizon + 4.0, len(instance.patients)).tolist()
            assert kernel.peak(starts) == occupancy_curve(
                instance.patients, starts, grid_step, horizon).peak()

    def test_narrow_wide_and_unbounded_patients(self):
        patients = [make_patient(pid="a", surgery=(0.5, 1e-6), recovery=(-0.5, 0.1)),
                    make_patient(pid="b", surgeon="s2", surgery=(0.0, 0.2), recovery=(-1.0, 1e-6)),
                    make_patient(pid="c", surgeon="s3", surgery=(0.0, 0.05), recovery=(0.3, 0.8)),
                    make_patient(pid="d", surgeon="s4", surgery=(1.0, 0.3), recovery=(0.0, 0.3))]
        assert patients[2].combined.sigma >= patients[2].surgery.sigma  # never zero again
        rng = np.random.default_rng(21)
        for grid_step in (0.1, 0.07, 1.0 / 3.0):
            for _ in range(50):
                starts = rng.uniform(-2.0, 8.0, 4).tolist()
                self.assert_same_peak(patients, starts, grid_step)
            # All four on top of each other, and the narrow one alone at its mode.
            self.assert_same_peak(patients, [0.0] * 4, grid_step)
            self.assert_same_peak(patients, [0.0, 30.0, 30.0, 30.0], grid_step)

    def test_one_point_grid(self):
        patients = generate_instance(GenSpec(seed=1)).patients
        kernel = MeoKernel(RecoveryRows(patients), 0.5, 0.3)
        assert kernel.times.tolist() == [0.0] and kernel.bounds.shape[1:] == (2, 4, 2)
        rng = np.random.default_rng(2)
        for _ in range(20):
            starts = rng.uniform(-6.0, 1.0, len(patients)).tolist()
            assert self.assert_same_peak(patients, starts, 0.5, 0.3) >= 0.0
        assert self.assert_same_peak(patients, [-2.0] * len(patients), 0.5, 0.3) > 0.0

    @staticmethod
    def wide_patients(count):
        """Patients in recovery with probability 0.1-0.7 a few ulps of a day's time after their start.

        A log-sd of 5 and a median surgery of 2e-16 h put much of the surgery
        mass at those lags, while the combined duration is about an hour.
        """
        return [make_patient(pid=f"wide{i}", surgeon=f"s{i}", surgery=(-36.0, 25.0),
                             recovery=(0.0, 0.1), duration=1.0) for i in range(count)]

    @staticmethod
    def long_patients(count):
        """Patients still in recovery with probability above 1e-5 more than a day after their start."""
        return [make_patient(pid=f"long{i}", surgeon=f"t{i}", surgery=(0.0, 0.05),
                             recovery=(0.3 + 0.2 * i, 0.8)) for i in range(count)]

    @staticmethod
    def assert_cells_within_bounds(kernel, patients, z, columns=slice(None)):
        """Every cell in ``columns`` lies within the pair its row's window gives it.

        A row starting at z has shift k = floor(-z / h), kept within
        [-T - 1, T], and phase q = 1 when -z / h - k is at least 1/2; its
        cells are the T entries from entry T + 1 + k of its own phase.
        """
        n = kernel.times.size
        cells = kernel._cells(z)
        steps = z / -kernel.grid_step
        phase = (steps - np.floor(steps) >= 0.5).astype(int)
        first = n + 1 + np.clip(np.floor(steps), -n - 1, n).astype(int)
        rows = np.arange(z.size)[:, None]
        own = kernel.bounds[rows, phase[:, None], first[:, None] + np.arange(n)]
        assert (cells == own).all()
        lower, upper = np.moveaxis(cells[:, columns].astype(float) / forecast._UNITS, -1, 0)
        times = kernel.times[columns]
        probs = recovery_prob_matrix(forecast.RecoveryRows(patients), z, times)
        assert (probs <= upper + 4e-15).all()
        assert (probs >= lower - 4e-15).all()
        lag = times[None, :] - z[:, None]
        assert (probs[lag <= 0.0] == 0.0).all()
        return lag, probs

    def test_bounds_hold_for_every_cell(self):
        # Every cell, whatever its lag, lies between the bounds of the table
        # entry the kernel's own window gives it, up to the few ulps the module
        # docstring allows; lags <= 0 and lags of an ulp or two included.
        for grid_step in (0.1, 0.07, 1.0 / 3.0, 0.25, 0.001):
            self.assert_bounds_hold_on_grid(grid_step)

    def assert_bounds_hold_on_grid(self, grid_step):
        wide = self.wide_patients(64)
        kernel = MeoKernel(RecoveryRows(wide), grid_step, 24.0)
        n, units = kernel.times.size, forecast._UNITS
        lower, upper = np.moveaxis(kernel.bounds, -1, 0)
        assert kernel.bounds.dtype == np.uint16 and kernel.bounds.shape == (64, 2, 3 * n + 1, 2)
        assert ((lower <= upper) & (upper <= units)).all()
        assert (kernel.bounds[:, :, :n] == 0).all()  # m <= -2: padding
        assert (kernel.bounds[:, 0, n] == 0).all()  # m = -1, phase 0: lags below -1/2 step
        assert (lower[:, 1, n] == 0).all() and (upper[:, 1, n] > 0.5 * units).all()  # m = -1
        tail = kernel.bounds[:, :, 2 * n + 1:]  # m = n, then its T - 1 copies
        assert (tail[..., 0] == 0).all() and (tail == tail[:, :, :1]).all()
        # Starts on every grid time and half step, and one or two ulps either
        # side of them; on the finest grid, those of the last hour, where the
        # lags of the largest starts and times are small.
        on_grid = kernel.times if n < 1000 else kernel.times[-1000:]
        half_steps = (np.round(on_grid / grid_step) + 0.5) * grid_step
        starts = [on_grid, half_steps]
        for direction in (-np.inf, np.inf):
            for exact in (on_grid, half_steps):
                starts += [np.nextafter(exact, direction)]
                starts += [np.nextafter(starts[-1], direction)]
        starts = np.concatenate(starts)
        tiny_lags_in_recovery = 0
        for first in range(0, starts.size, 64):
            z = np.resize(starts[first:first + 64], 64)
            columns = slice(None)
            if n >= 1000:  # this block's columns, and lags of up to 60 steps
                low = int(z.min() / grid_step) - 60
                columns = slice(max(low, 0), int(z.max() / grid_step) + 61)
            lag, probs = self.assert_cells_within_bounds(kernel, wide, z, columns)
            tiny_lags_in_recovery += int((probs[(0.0 < lag) & (lag < 1e-12)] > 0.1).sum())
        assert tiny_lags_in_recovery >= 2 * (on_grid.size - 1)
        # A generated day with the same starts, two horizons away on either
        # side, anywhere around the day, and a day or so before it, in half
        # steps, so that rows read the copies of their last entry.
        patients = [*generate_instance(GenSpec(seed=int(grid_step * 1000) % 5)).patients,
                    *wide[:2], *self.long_patients(3)]
        kernel = MeoKernel(RecoveryRows(patients), grid_step, 24.0)
        rows = kernel.rows.index.size
        n = kernel.times.size
        before = -np.arange(2 * n - 16, 2 * n + 6) * (grid_step / 2)
        rng = np.random.default_rng(17)
        for z in (*(rng.choice(starts, rows) for _ in range(3)),
                  np.full(rows, -48.0), np.full(rows, 48.0),
                  *(rng.uniform(-30.0, 30.0, rows) for _ in range(3)),
                  *(np.roll(np.resize(before, rows), shift) for shift in range(3))):
            lag, probs = self.assert_cells_within_bounds(kernel, patients, z)
            assert (probs[lag > 0.0] > 0.0).any() or z[0] == 48.0
        long_rows = slice(rows - 3, rows)
        assert (probs[long_rows][lag[long_rows] > 24.0] > 1.0 / forecast._UNITS).any()

    @pytest.mark.parametrize("grid_step", [0.1, 1.0 / 3.0], ids=["0.1", "1/3"])
    def test_fixed_point_pairs_bracket_the_float64_bounds(self, grid_step):
        # The float64 bounds on each half-step entry e = 2m + q, m = -1 .. T,
        # from the same CDFs at the same widened lags; the uint16 pairs lie
        # outside them, by at most one unit, and zero stays zero.
        patients = [*generate_instance(GenSpec(seed=3)).patients, *self.wide_patients(2)]
        kernel = MeoKernel(RecoveryRows(patients), grid_step, 24.0)
        mu, sd = kernel.rows.mu, kernel.rows.sd
        n, units = kernel.times.size, forecast._UNITS
        nodes = np.arange(2 * n + 2)[None, :] * (grid_step / 2)
        offset = forecast._LAG_OFFSET * (n + 1) * grid_step
        lo = nodes * (1.0 - forecast._LAG_WIDENING) - offset
        hi = nodes * (1.0 + forecast._LAG_WIDENING) + offset
        surgery_lo = forecast._lognormal_cdf_matrix(mu[0], sd[0], lo)
        surgery_hi = forecast._lognormal_cdf_matrix(mu[0], sd[0], hi)
        combined_lo = forecast._lognormal_cdf_matrix(mu[1], sd[1], lo)
        combined_hi = forecast._lognormal_cdf_matrix(mu[1], sd[1], hi)
        zero = np.zeros((mu.shape[1], 1))
        lower = np.hstack([zero, zero, surgery_lo[:, :-2] - combined_hi[:, 1:-1], zero, zero])
        upper = np.hstack([zero, surgery_hi[:, :1], surgery_hi[:, 1:-1] - combined_lo[:, :-2],
                           1.0 - combined_lo[:, -2:]])
        lower, upper = np.clip(lower, 0.0, 1.0) * units, np.clip(upper, 0.0, 1.0) * units
        pairs = kernel.bounds[:, :, n:2 * n + 2].swapaxes(1, 2).reshape(-1, 2 * n + 4, 2)
        fixed_lower, fixed_upper = pairs[..., 0].astype(float), pairs[..., 1].astype(float)
        assert (fixed_lower <= lower).all() and (fixed_upper >= upper).all()
        assert (lower - fixed_lower).max() <= 1.0 + 1e-9
        assert (fixed_upper - upper).max() <= 1.0 + 1e-9
        assert (fixed_lower < lower).any() and (fixed_upper > upper).any()
        assert (fixed_lower[lower == 0.0] == 0.0).all() and (fixed_upper[upper == 0.0] == 0.0).all()
        assert (upper == 0.0).any()

    def test_columns_within_the_margin_are_evaluated(self, monkeypatch):
        # The bound sums are exact integers, so a column is pruned only when its
        # upper sum falls short of the largest lower sum by more than the
        # margin, ceil(_PRUNE_MARGIN (1 + rows) _UNITS) units: one here.
        kernel = MeoKernel(RecoveryRows([make_patient(), make_patient(pid="p2", surgeon="s2")]),
                           0.1, 2.0)
        cells = np.zeros((2, kernel.times.size, 2), dtype=np.uint16)
        cells[:, 5] = 1000  # lower and upper sums 2000
        cells[0, 9] = (0, 1999)
        cells[0, 12] = (0, 1998)
        monkeypatch.setattr(kernel, "_cells", lambda z: cells)
        evaluated = []

        def recording(rows, starts, times, *rest):
            evaluated.append(times)
            return recovery_prob_matrix(rows, starts, times, *rest)

        monkeypatch.setattr(forecast, "recovery_prob_matrix", recording)
        kernel.peak([0.0, 0.0])
        assert evaluated[0].tolist() == kernel.times[[5, 9]].tolist()

    def test_one_probability_call_on_fewer_cells(self, monkeypatch):
        # Pruning leaves most grid columns unevaluated on a constructed
        # schedule, and each peak still makes exactly one call for
        # probabilities, over every recovery row.
        instance = generate_instance(GenSpec(seed=0))
        ws = solver._Workspace.of(instance)
        rng = np.random.default_rng(4)
        kernel = MeoKernel(RecoveryRows(instance.patients), 0.1, instance.day_hours)
        evaluated = []

        def counting(*args, **kwargs):
            starts, times = args[1], args[2]
            evaluated.append((starts.size, times.size))
            return recovery_prob_matrix(*args, **kwargs)

        monkeypatch.setattr(forecast, "recovery_prob_matrix", counting)
        for calls in range(1, 21):
            starts, _ = solver._construct_starts(ws, rng.permutation(ws.n).tolist(), rng)
            kernel.peak(starts)
            assert len(evaluated) == calls
            rows, columns = evaluated[-1]
            assert rows == kernel.rows.index.size
            assert 0 < columns < 0.5 * kernel.times.size


class TestExactOccupancyCdf:
    def test_all_patients_bound(self):
        patients = [make_patient(pid=f"p{i}") for i in range(4)]
        starts = [0.0, 0.5, 1.0, 1.5]
        assert exact_occupancy_cdf(patients, starts, 2.0, 4) == 1.0

    def test_empty(self):
        assert exact_occupancy_cdf([], [], 1.0, 0) == 1.0

    def test_non_finite_start_rejected(self):
        patients = [make_patient(), make_patient(pid="p2")]
        with pytest.raises(ValueError, match="start 1 is not finite"):
            exact_occupancy_cdf(patients, [0.0, math.nan], 2.0, 1)

    @pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
    def test_non_finite_time_rejected(self, t):
        patients = [make_patient(), make_patient(pid="p2")]
        with pytest.raises(ValueError, match="t must be a finite number"):
            exact_occupancy_cdf(patients, [0.0, 1.0], t, 1)

    @pytest.mark.parametrize("k", [0.5, 1.0, 3.5, True, "1", None])
    def test_non_integer_count_rejected(self, k):
        patients = [make_patient(), make_patient(pid="p2")]
        with pytest.raises(ValueError, match="k must be an integer"):
            exact_occupancy_cdf(patients, [0.0, 1.0], 2.0, k)

    def test_constructed_three_patient_half(self):
        # Narrow lognormals (surgery ~1 h, recovery ~8 h) give a long flat
        # stretch where the in-recovery probability rises 0 -> 1 with the
        # surgery CDF; solve start offsets so the probabilities at t = 10
        # are exactly (0.2, 0.5, 0.8), a vector whose CDF at 1 is 0.50.
        t_eval = 10.0
        targets = (0.2, 0.5, 0.8)
        patients = []
        starts = []
        for i, target in enumerate(targets):
            patient = make_patient(pid=f"p{i}", surgery=(0.0, 0.01), recovery=(math.log(8.0), 0.01))
            offset = brentq(lambda x: in_recovery_oracle(patient, 0.0, x) - target,
                            0.5, 1.6, xtol=1e-13)
            patients.append(patient)
            starts.append(t_eval - offset)
        probs = matrix_probs(patients, starts, t_eval)[:, 0]
        assert probs == pytest.approx(targets, abs=1e-7)
        assert exact_occupancy_cdf(patients, starts, t_eval, 1) == pytest.approx(0.50, abs=1e-6)

    def test_tail_error_on_thousand_patient_day(self):
        # The benchmark's scaled day: 1000 patients, 574 surgeons, 344 ORs,
        # 738 needing recovery.  At the peak (t = 4.4 h) and past it (t = 8 h)
        # the production recurrence agrees with a 40-digit recurrence to
        # 1e-13 and with the DFT inversion to 1e-12.
        instance = generate_instance(GenSpec(patient_count=1000, surgeon_count=574, or_count=344))
        schedule = baseline_schedule(instance)
        starts = [schedule.starts[p.id] for p in instance.patients]
        times = [4.4, 8.0]
        probs = matrix_probs(instance.patients, starts, times)
        for column, t in enumerate(times):
            col = probs[:, column]
            k = math.ceil(col.sum())
            with mpmath.workdps(40):
                f = [mpmath.mpf(1)] + [mpmath.mpf(0)] * k
                for q in col[col > 0.0].tolist():
                    q = mpmath.mpf(q)
                    for j in range(k, 0, -1):
                        f[j] = f[j] * (1 - q) + f[j - 1] * q
                    f[0] *= 1 - q
                reference = float(mpmath.fsum(f))
            value = poisson_binomial_cdf(col, k)
            assert exact_occupancy_cdf(instance.patients, starts, t, k) == value
            assert 0.0 < value < 1.0
            assert abs(value - reference) <= 1e-13
            assert abs(value - dft_cdf_oracle(col, k)) <= 1e-12
