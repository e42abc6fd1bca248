import hashlib
import math

import numpy as np
import pytest

from pacuplan import (
    GenSpec,
    SAConfig,
    Schedule,
    baseline_schedule,
    coverage_stats,
    forecast,
    generate_instance,
    monte_carlo_curve,
    simulated_annealing,
)
from pacuplan.simulation import _CHUNK, _count_dtype, _grid_index

from conftest import broadcast_mc_oracle, draw_windows, make_instance, make_patient

MC_FIELDS = ("sample_mean", "sample_variance", "standard_error", "above", "below", "inside")


class TestGenSpec:
    def test_defaults_match_case_study_scale(self):
        spec = GenSpec()
        assert (spec.patient_count, spec.surgeon_count, spec.or_count) == (61, 35, 21)

    def test_rejects_zero_patients(self):
        with pytest.raises(ValueError):
            GenSpec(patient_count=0)

    def test_rejects_more_surgeons_than_patients(self):
        with pytest.raises(ValueError, match="surgeons"):
            GenSpec(surgeon_count=5, patient_count=3)

    def test_rejects_bad_fraction_and_ranges(self):
        with pytest.raises(ValueError):
            GenSpec(recovery_fraction=1.5)
        with pytest.raises(ValueError):
            GenSpec(surgery_log_var=(0.5, 0.1))
        with pytest.raises(ValueError):
            GenSpec(recovery_log_var=(0.0, 0.5))
        with pytest.raises(ValueError):
            GenSpec(setup_hours=(-0.1, 0.5))


class TestGenerateInstance:
    def test_default_shape(self, default_instance):
        assert len(default_instance.patients) == 61
        assert len(default_instance.surgeons) == 35
        assert default_instance.or_count == 21
        assert default_instance.recovery_count() == 45
        assert default_instance.or_open_hours == 8.0

    def test_deterministic(self):
        spec = GenSpec(seed=7)
        assert generate_instance(spec) == generate_instance(spec)
        assert generate_instance(spec) != generate_instance(GenSpec(seed=8))

    def test_surgeon_blocks_are_contiguous_single_or(self, default_instance):
        positions = {}
        for i, p in enumerate(default_instance.patients):
            positions.setdefault(p.surgeon_id, []).append(i)
        for surgeon_id, idx in positions.items():
            assert idx == list(range(idx[0], idx[-1] + 1)), surgeon_id
            or_ids = {default_instance.patients[i].or_id for i in idx}
            assert len(or_ids) == 1
        # input order runs OR block by OR block
        or_sequence = [p.or_id for p in default_instance.patients]
        assert or_sequence == sorted(or_sequence)

    def test_parameters_inside_spec_ranges(self, default_instance):
        spec = GenSpec()
        for p in default_instance.patients:
            assert spec.surgery_log_mean[0] <= p.surgery.mu <= spec.surgery_log_mean[1]
            assert spec.surgery_log_var[0] <= p.surgery.sigma2 <= spec.surgery_log_var[1]
            assert spec.recovery_log_mean[0] <= p.recovery.mu <= spec.recovery_log_mean[1]
            assert spec.recovery_log_var[0] <= p.recovery.sigma2 <= spec.recovery_log_var[1]
            assert spec.setup_hours[0] <= p.setup <= spec.setup_hours[1]
            assert spec.cleanup_hours[0] <= p.cleanup <= spec.cleanup_hours[1]


class TestDrawWindows:
    def test_no_recovery_patients(self):
        instance = make_instance([make_patient(needs_recovery=False)])
        curve = monte_carlo_curve(instance, Schedule({"p1": 1.0}), n_samples=10,
                                  rng=np.random.default_rng(0))
        assert not curve.sample_mean.any()

    def test_degenerate_concentration(self):
        patient = make_patient(surgery=(math.log(2.0), 1e-10), recovery=(math.log(0.5), 1e-10))
        rng = np.random.default_rng(1)
        for _ in range(50):
            (entry,), (exit_,) = draw_windows(patient, 3.0, rng, 1, "true")
            assert entry == pytest.approx(3.0 + 2.0, abs=1e-3)
            assert exit_ - entry == pytest.approx(0.5, abs=1e-3)

    @pytest.mark.parametrize("mode", ["true", "matched"])
    def test_entry_and_exit_shapes(self, mode):
        rng = np.random.default_rng(2)
        for start in (0.0, 2.0):
            entry, exit_ = draw_windows(make_patient(), start, rng, 5, mode)
            assert entry.shape == exit_.shape == (5,)
            assert (exit_ > entry).all() and (entry > start).all()

    def test_recovery_duration_mean(self):
        patient = make_patient(surgery=(1.0, 0.25), recovery=(0.5, 0.25))
        rng = np.random.default_rng(3)
        entry, exit_ = draw_windows(patient, 0.0, rng, 10 ** 6, "true")
        durations = exit_ - entry
        se = durations.std(ddof=1) / math.sqrt(durations.size)
        assert abs(durations.mean() - patient.recovery.mean()) <= 4 * se


class TestMonteCarloCurve:
    def test_unknown_mode_rejected(self):
        instance = make_instance([make_patient()])
        with pytest.raises(ValueError, match="mode"):
            monte_carlo_curve(instance, Schedule({"p1": 0.0}), 1, mode="bogus",
                              rng=np.random.default_rng(0))

    @pytest.mark.parametrize("starts, message", [
        ({"p1": 0.0, "p2": 1.0, "ghost": 2.0}, "not in the instance: ghost"),
        ({"p1": 0.0}, "missing start times for patients: p2"),
        ({"p1": 0.0, "p2": math.nan}, "non-finite start times for patients: p2"),
    ], ids=["unknown-id", "missing-id", "nan-start"])
    def test_rejects_a_schedule_that_does_not_fit_the_day(self, starts, message):
        instance = make_instance([make_patient(), make_patient(pid="p2")])
        with pytest.raises(ValueError, match=message):
            monte_carlo_curve(instance, Schedule(starts), 10, rng=np.random.default_rng(0))

    # SHA-256 of sample_mean, above and below (in that order, native bytes) on
    # the default day's baseline, 40 000 samples (two blocks), seed 7.
    GOLDEN_STREAM = {
        "true": "8376ea595b6c403077f46ad8421b12b920db02b4a8ece50e9c32fc16b66d5e85",
        "matched": "cd1c9ed1e5a230ec98120920e25e5dada92fcf3ad2c8484e0592c8c9165a2559",
    }

    @pytest.mark.parametrize("mode", ["true", "matched"])
    def test_sampled_stream_is_pinned(self, default_instance, mode):
        # The broadcast oracle shares the draws, so only a pinned digest
        # catches a change to the seeded stream itself.
        assert 40_000 > _CHUNK
        curve = monte_carlo_curve(default_instance, baseline_schedule(default_instance),
                                  40_000, mode=mode, rng=np.random.default_rng(7))
        digest = hashlib.sha256()
        for values in (curve.sample_mean, curve.above, curve.below):
            digest.update(np.ascontiguousarray(values).tobytes())
        assert digest.hexdigest() == self.GOLDEN_STREAM[mode]

    def test_single_sample_single_patient_is_binary(self):
        instance = make_instance([make_patient()])
        curve = monte_carlo_curve(instance, Schedule({"p1": 0.0}), n_samples=1,
                                  rng=np.random.default_rng(4))
        assert set(np.unique(curve.sample_mean)) <= {0.0, 1.0}
        assert not curve.sample_variance.any()
        assert not curve.standard_error.any()
        assert np.array_equal(curve.above + curve.below + curve.inside,
                              np.ones_like(curve.above))

    def test_rejects_zero_samples(self):
        instance = make_instance([make_patient()])
        with pytest.raises(ValueError):
            monte_carlo_curve(instance, Schedule({"p1": 0.0}), n_samples=0)

    def test_deterministic_under_seed(self, default_instance):
        schedule = baseline_schedule(default_instance)
        first = monte_carlo_curve(default_instance, schedule, 2000,
                                  rng=np.random.default_rng(5))
        second = monte_carlo_curve(default_instance, schedule, 2000,
                                   rng=np.random.default_rng(5))
        assert np.array_equal(first.sample_mean, second.sample_mean)
        assert np.array_equal(first.above, second.above)

    def test_counters_partition_samples(self, default_instance):
        schedule = baseline_schedule(default_instance)
        curve = monte_carlo_curve(default_instance, schedule, 500,
                                  rng=np.random.default_rng(6))
        total = curve.above + curve.below + curve.inside
        assert np.array_equal(total, np.full_like(total, 500))
        # occupancy is an integer count within [0, recovery patients]
        counts = curve.sample_mean * curve.n_samples
        assert np.allclose(counts, np.round(counts), atol=1e-6)
        assert (curve.sample_mean >= 0).all()
        assert (curve.sample_mean <= default_instance.recovery_count()).all()

    def test_matched_mode_reproduces_analytic_mean(self, default_instance):
        schedule = baseline_schedule(default_instance)
        curve = monte_carlo_curve(default_instance, schedule, 20_000, mode="matched",
                                  rng=np.random.default_rng(7))
        gap = np.abs(curve.sample_mean - curve.analytic.mean)
        assert (gap <= 4.0 * curve.standard_error + 2e-3).all()

    def test_counters_partition_samples_across_blocks(self, default_instance):
        # A sample count above the block size accumulates over two blocks.
        schedule = baseline_schedule(default_instance)
        curve = monte_carlo_curve(default_instance, schedule, 25_000, mode="matched",
                                  rng=np.random.default_rng(8))
        assert curve.n_samples == 25_000
        assert np.array_equal(curve.above + curve.below + curve.inside,
                              np.full(curve.times.size, 25_000))


@pytest.fixture(scope="module")
def default_schedules(default_instance):
    return {"baseline": baseline_schedule(default_instance),
            "annealed": simulated_annealing(default_instance, SAConfig(seed=1)).best_schedule}


def late_day():
    """Starts late in the day, so many entries and exits fall past the 24 h horizon."""
    patients = [make_patient("p1", surgery=(0.0, 0.5), recovery=(0.0, 0.5)),
                make_patient("p2", surgery=(0.5, 0.5), recovery=(0.5, 0.5)),
                make_patient("p3", needs_recovery=False)]
    return make_instance(patients), Schedule({"p1": 21.5, "p2": 22.0, "p3": 0.0})


# A long, spread-out surgery with a short, tight recovery: the combined
# lognormal's log-sd is smaller than the surgery's, so a high shared
# percentile gives a matched-mode exit before the entry.
CROSSING = dict(surgery=(0.0, 1.0), recovery=(-3.0, 0.01))


def crossing_day():
    patients = [make_patient("p1", **CROSSING), make_patient("p2")]
    return make_instance(patients), Schedule({"p1": 4.0, "p2": 3.0})


class TestBroadcastOracle:
    """The difference-array accumulation equals the broadcast one, bit for bit."""

    @staticmethod
    def assert_same(instance, schedule, n_samples, grid_step, mode, seed=11):
        curve = monte_carlo_curve(instance, schedule, n_samples, grid_step=grid_step, mode=mode,
                                  rng=np.random.default_rng(seed))
        oracle = broadcast_mc_oracle(instance, schedule, n_samples, grid_step=grid_step,
                                     mode=mode, rng=np.random.default_rng(seed))
        for name in MC_FIELDS:
            assert np.array_equal(getattr(curve, name), oracle[name]), name

    @pytest.mark.parametrize("mode", ["true", "matched"])
    @pytest.mark.parametrize("n_samples", [1, 7, 20_000, 25_000])
    @pytest.mark.parametrize("grid_step", [0.1, 0.037])
    @pytest.mark.parametrize("schedule", ["baseline", "annealed"])
    def test_default_day(self, default_instance, default_schedules, schedule, grid_step,
                         n_samples, mode):
        self.assert_same(default_instance, default_schedules[schedule], n_samples,
                         grid_step, mode)

    @pytest.mark.parametrize("mode", ["true", "matched"])
    @pytest.mark.parametrize("grid_step", [0.1, 0.037])
    def test_no_recovery_patient(self, grid_step, mode):
        instance = make_instance([make_patient(needs_recovery=False)])
        self.assert_same(instance, Schedule({"p1": 1.0}), 25_000, grid_step, mode)

    @pytest.mark.parametrize("mode", ["true", "matched"])
    @pytest.mark.parametrize("grid_step", [0.1, 0.037])
    def test_exits_past_the_horizon(self, grid_step, mode):
        instance, schedule = late_day()
        _, exit_ = draw_windows(instance.patients[0], schedule.starts["p1"],
                                np.random.default_rng(11), 1000, mode)
        assert (exit_ > instance.day_hours).mean() > 0.3
        self.assert_same(instance, schedule, 25_000, grid_step, mode)

    @pytest.mark.parametrize("grid_step", [0.1, 0.037])
    def test_matched_exit_before_entry(self, grid_step):
        instance, schedule = crossing_day()
        # p1 draws first in each block, so this replays its first block's draws.
        entry, exit_ = draw_windows(instance.patients[0], schedule.starts["p1"],
                                    np.random.default_rng(11), 20_000, "matched")
        assert ((exit_ < entry) & (exit_ < instance.day_hours)).sum() >= 10
        self.assert_same(instance, schedule, 25_000, grid_step, "matched")


class TestGridIndex:
    @pytest.mark.parametrize("grid_step", [0.1, 0.037, 0.25])
    def test_equals_searchsorted(self, grid_step):
        times = forecast.time_grid(grid_step, 24.0)
        rng = np.random.default_rng(12)
        with np.errstate(over="ignore"):
            overflow = np.exp(np.array([800.0]))
        x = np.concatenate([
            rng.uniform(-3.0, 30.0, 5000),
            times,
            np.nextafter(times, -np.inf),
            np.nextafter(times, np.inf),
            [-1e300, -5.0, -0.0, 0.0, 24.0, 24.0 + grid_step, 1e300, np.inf],
            overflow,
        ])
        assert np.isinf(overflow).all()
        assert np.array_equal(_grid_index(times, grid_step, x),
                              np.searchsorted(times, x, "left"))


def test_count_dtype_widens_past_int16():
    # Occupancy counts wrap silently if the dtype cannot hold every recovery patient.
    assert _count_dtype(0) is np.int16
    assert _count_dtype(32_767) is np.int16
    assert _count_dtype(32_768) is np.int32


class TestCoverageStats:
    def test_fractions_sum_to_one(self, default_instance):
        schedule = baseline_schedule(default_instance)
        curve = monte_carlo_curve(default_instance, schedule, 3000, mode="matched",
                                  rng=np.random.default_rng(9))
        stats = coverage_stats(curve)
        assert stats.fraction_above + stats.fraction_below + stats.fraction_inside == \
            pytest.approx(1.0, abs=1e-12)
        assert stats.n_samples == 3000
        assert stats.mean_abs_error >= 0.0

    def test_all_inside_for_quiet_day(self):
        # Recovery long over by t = 24 never happens; a patient whose whole
        # episode finishes within the band keeps every sample inside.
        instance = make_instance([make_patient(surgery=(0.0, 1e-6), recovery=(0.0, 1e-6))])
        curve = monte_carlo_curve(instance, Schedule({"p1": 1.0}), 50,
                                  rng=np.random.default_rng(10))
        stats = coverage_stats(curve)
        assert stats.fraction_inside == pytest.approx(1.0)