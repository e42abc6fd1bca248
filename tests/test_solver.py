import dataclasses
import hashlib
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pacuplan import (
    GenSpec,
    Instance,
    SAConfig,
    Schedule,
    Surgeon,
    baseline_schedule,
    check_feasibility,
    compute_overtime,
    construct_schedule,
    generate_instance,
    max_expected_occupancy,
    simulated_annealing,
)
from pacuplan import forecast
from pacuplan.model import FEASIBILITY_EPS
from pacuplan.solver import _construct_starts, _draw_swap, _Workspace

from conftest import late_shift_instance, make_instance, make_patient, random_genspec


def temperature_trace(report):
    """Each iteration's temperature, from the report's config by the annealer's own products."""
    config, temperatures = report.config, []
    temperature = config.initial_temperature
    for iteration in range(1, config.iterations + 1):
        temperatures.append(temperature)
        if iteration % config.cooling_period == 0:
            temperature *= config.cooling_factor
    return temperatures


def overtime_cap(instance, surgeon):
    """Constraint 4's cap on the surgeon's overtime, as ``check_feasibility`` computes it."""
    return (sum(p.expected_duration + p.setup + p.cleanup
                for p in instance.patients_by_surgeon[surgeon.id])
            - surgeon.shift_start + surgeon.shift_end)


def delta_trace(report):
    """Each candidate's MEO less the incumbent's it was compared with."""
    current, deltas = report.initial_meo, []
    for candidate, taken in zip(report.meo_trace, report.accepted_trace):
        deltas.append(candidate - current)
        if taken:
            current = candidate
    return deltas


class TestConstructSchedule:
    def test_single_patient_starts_at_shift(self):
        instance = make_instance([make_patient(duration=2.0)],
                                 surgeons=[Surgeon(id="s1", shift_start=1.5, shift_end=8.0)])
        schedule = construct_schedule(instance, ["p1"])
        assert schedule.starts["p1"] == 1.5

    def test_two_same_or_patients_chain(self):
        patients = [make_patient(pid="a", surgeon="s1", or_id=1, duration=2.0,
                                 setup=0.2, cleanup=0.3),
                    make_patient(pid="b", surgeon="s2", or_id=1, duration=1.5,
                                 setup=0.4, cleanup=0.1)]
        instance = make_instance(patients)
        schedule = construct_schedule(instance, ["a", "b"])
        assert schedule.starts["a"] == 0.0
        # b waits for a's duration + a's cleanup + b's setup
        assert schedule.starts["b"] == pytest.approx(2.0 + 0.3 + 0.4)
        assert check_feasibility(instance, schedule) == []

    def test_overloaded_day_yields_overtime_not_failure(self):
        patients = [make_patient(pid="a", surgeon="s1", or_id=1, duration=5.0, cleanup=0.5),
                    make_patient(pid="b", surgeon="s2", or_id=1, duration=5.0, setup=0.5)]
        instance = make_instance(patients)
        schedule = construct_schedule(instance, ["a", "b"])
        assert schedule.starts["b"] == pytest.approx(6.0)  # ends 11.0, 3 h past shift
        from pacuplan import compute_overtime
        assert compute_overtime(instance, schedule)["s2"] == pytest.approx(3.0)
        assert check_feasibility(instance, schedule) == []

    def test_random_placement_stays_inside_slack(self):
        patients = [make_patient(pid="a", surgeon="s1", or_id=1, duration=1.0),
                    make_patient(pid="b", surgeon="s2", or_id=1, duration=1.0)]
        instance = make_instance(patients)
        for seed in range(20):
            schedule = construct_schedule(instance, ["a", "b"], np.random.default_rng(seed))
            # a may roam in its window but must leave room for b inside 8 h.
            assert 0.0 <= schedule.starts["a"] < 8.0 - 1.0 - 1.0
            assert schedule.starts["b"] >= schedule.starts["a"] + 1.0
            assert check_feasibility(instance, schedule) == []

    def test_late_shift_start_after_chain_predecessor(self):
        # b's surgeon starts at 3 h; a's finish in the shared OR (1 h) must not pull b earlier.
        patients = [make_patient(pid="a", surgeon="s1", or_id=1, duration=1.0),
                    make_patient(pid="b", surgeon="s2", or_id=1, duration=1.0)]
        instance = make_instance(patients, surgeons=[Surgeon(id="s1", shift_start=0.0, shift_end=8.0),
                                                     Surgeon(id="s2", shift_start=3.0, shift_end=8.0)])
        schedule = construct_schedule(instance, ["a", "b"])
        assert schedule.starts == {"a": 0.0, "b": 3.0}
        assert check_feasibility(instance, schedule) == []

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    @example(266912452)
    @example(922580)
    @example(195156)
    def test_cap_excess_is_exactly_constraint_4(self, seed):
        # Packed and with random slack, every rule but the overtime cap holds
        # by construction.  The constructor's excess is the largest overtime
        # (compute_overtime's) less its surgeon's cap, 0.0 when none exceeds
        # it, and it is beyond tolerance exactly when check_feasibility
        # reports constraint 4.
        rng = np.random.default_rng(seed)
        instance = late_shift_instance(rng)
        ws = _Workspace.of(instance)
        order = rng.permutation(ws.n).tolist()
        for slack in (None, rng):
            starts, excess = _construct_starts(ws, order, slack)
            schedule = Schedule(starts=dict(zip(ws.ids, starts)))
            overtime = compute_overtime(instance, schedule)
            beyond = [overtime[s.id] - overtime_cap(instance, s)
                      for s in instance.surgeons if overtime[s.id] > 0.0]
            assert excess == max([0.0, *beyond])
            constraints = {v.constraint for v in check_feasibility(instance, schedule)}
            assert constraints <= {4}
            assert (4 in constraints) == (excess > FEASIBILITY_EPS)

    def test_input_order_packing_past_the_cap(self):
        # A late-shift surgeon's case waits behind other surgeons' cases in a
        # shared OR past the surgeon's cap; the excess is the violation's size.
        instance = late_shift_instance(np.random.default_rng(195156))
        ws = _Workspace.of(instance)
        starts, excess = _construct_starts(ws, list(range(ws.n)), None)
        violations = check_feasibility(instance, Schedule(starts=dict(zip(ws.ids, starts))))
        assert [v.constraint for v in violations] == [4] and violations[0].surgeon == "s4"
        assert excess == violations[0].magnitude > FEASIBILITY_EPS

    def test_sequence_must_be_permutation(self):
        instance = make_instance([make_patient(pid="a"), make_patient(pid="b", surgeon="s2")])
        with pytest.raises(ValueError):
            construct_schedule(instance, ["a"])
        with pytest.raises(ValueError):
            construct_schedule(instance, ["a", "a"])

    def test_feasible_over_random_triples(self):
        rng = np.random.default_rng(1234)
        for _ in range(120):
            instance = generate_instance(random_genspec(rng))
            sequence = [instance.patient_ids[i] for i in rng.permutation(len(instance.patients))]
            schedule = construct_schedule(instance, sequence,
                                          np.random.default_rng(int(rng.integers(2**32))))
            assert check_feasibility(instance, schedule) == []


def reference_starts(instance, sequence, rng):
    """The neighbour-list builder the chain builder replaced, kept as its oracle.

    Each pass takes the max (min) over every earlier (later) patient sharing
    an OR or surgeon, and draws one scalar uniform per patient.  No patient
    starts before its surgeon's shift.
    """
    patients = instance.patients
    n = len(patients)
    index = {p.id: i for i, p in enumerate(patients)}
    duration = np.array([p.expected_duration for p in patients])
    setup = np.array([p.setup for p in patients])
    cleanup = np.array([p.cleanup for p in patients])
    earliest = np.array([max(0.0, instance.surgeon_by_id[p.surgeon_id].shift_start)
                         for p in patients])
    neighbor_sets = [set() for _ in range(n)]
    for group in [*instance.patients_by_surgeon.values(), *instance.patients_by_or.values()]:
        idx = [index[p.id] for p in group]
        for a in idx:
            neighbor_sets[a].update(idx)
    neighbors = [sorted(s - {i}) for i, s in enumerate(neighbor_sets)]
    order = np.array([index[pid] for pid in sequence], dtype=np.int64)
    position = np.empty(n, dtype=np.int64)
    position[order] = np.arange(n)
    latest_completion = np.full(n, instance.or_open_hours)
    earliest_start = earliest.copy()
    for p in order[::-1]:
        caps = [latest_completion[s] - duration[s] - setup[s]
                for s in neighbors[p] if position[s] > position[p]]
        if caps:
            latest_completion[p] = min(caps) - cleanup[p]
    starts = np.empty(n)
    for p in order:
        floors = [earliest_start[q] + duration[q] + cleanup[q]
                  for q in neighbors[p] if position[q] < position[p]]
        if floors:
            earliest_start[p] = max(max(floors) + setup[p], earliest[p])
        u = rng.random() if rng is not None else 0.0
        slack = latest_completion[p] - earliest_start[p] - duration[p]
        starts[p] = earliest_start[p] + max(0.0, u * slack)
        earliest_start[p] = starts[p]
    return {patients[i].id: float(starts[i]) for i in range(n)}


class TestWorkspace:
    """A day's workspace is kept on its recovery rows, keyed on what it reads."""

    def test_key_covers_the_surgeons_shifts(self, monkeypatch):
        # Equal patients; on the second day surgeon s5's shift ends at 10 h,
        # not 8 h, which raises its overtime cap and makes every candidate
        # feasible.  The first day's workspace must not serve the second.
        first = late_shift_instance(np.random.default_rng(266912452))
        surgeons = [dataclasses.replace(s, shift_end=10.0) if s.id == "s5" else s
                    for s in first.surgeons]
        second = Instance(surgeons=surgeons, patients=first.patients, or_count=first.or_count,
                          or_open_hours=first.or_open_hours, day_hours=first.day_hours)
        config = SAConfig(iterations=200, seed=0)
        monkeypatch.setattr(forecast.RecoveryRows, "_memo", None)
        cold = simulated_annealing(second, config)
        monkeypatch.setattr(forecast.RecoveryRows, "_memo", None)
        caps = []
        for instance in (first, second):
            ws = _Workspace.of(instance)
            assert ws.surgeon_cap == [overtime_cap(instance, s) for s in instance.surgeons]
            caps.append(ws.surgeon_cap)
        assert caps[0] != caps[1]
        _Workspace.of(first)
        warm = simulated_annealing(second, config)
        assert (warm.best_meo, warm.meo_trace) == (cold.best_meo, cold.meo_trace)
        assert warm.infeasible == cold.infeasible == 0
        assert simulated_annealing(first, config).infeasible > 0

    def test_one_workspace_and_one_kernel_per_day(self, monkeypatch):
        # Three constructions, an annealing run and an MEO on the same day
        # build its workspace and its MEO kernel once each.
        instance = generate_instance(GenSpec(seed=0))
        built = []
        for cls in (_Workspace, forecast.MeoKernel):
            def counting(self, *args, original=cls.__init__, name=cls.__name__):
                built.append(name)
                original(self, *args)

            monkeypatch.setattr(cls, "__init__", counting)
        monkeypatch.setattr(forecast.RecoveryRows, "_memo", None)
        rng = np.random.default_rng(3)
        for _ in range(3):
            schedule = construct_schedule(instance, instance.patient_ids, rng)
        simulated_annealing(instance, SAConfig(iterations=20, seed=1))
        max_expected_occupancy(instance, schedule)
        assert sorted(built) == ["MeoKernel", "_Workspace"]


class TestChainBuilderMatchesNeighbourLists:
    @pytest.mark.parametrize("spec", [GenSpec(seed=s) for s in range(5)]
                             + [GenSpec(seed=7, patient_count=90, surgeon_count=25, or_count=6)])
    def test_bitwise_equal_starts_and_generator_state(self, spec):
        instance = generate_instance(spec)
        rng = np.random.default_rng(spec.seed)
        for k in range(100):
            sequence = [instance.patient_ids[i] for i in rng.permutation(len(instance.patients))]
            assert construct_schedule(instance, sequence).starts == \
                reference_starts(instance, sequence, None)
            ours, theirs = np.random.default_rng(k), np.random.default_rng(k)
            assert construct_schedule(instance, sequence, ours).starts == \
                reference_starts(instance, sequence, theirs)
            assert ours.bit_generator.state == theirs.bit_generator.state

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_bit_for_bit_on_late_shift_days(self, seed):
        # The same bits, signed zeros included, as the oracle's max and min
        # calls, packed and with random slack, on days whose surgeons may
        # start late.
        rng = np.random.default_rng(seed)
        instance = late_shift_instance(rng)
        sequence = [instance.patient_ids[i] for i in rng.permutation(len(instance.patients))]
        draw = int(rng.integers(2**32))
        ours, theirs = np.random.default_rng(draw), np.random.default_rng(draw)
        for mine, oracle in ((None, None), (ours, theirs)):
            starts = construct_schedule(instance, sequence, mine).starts
            expected = reference_starts(instance, sequence, oracle)
            assert {k: v.hex() for k, v in starts.items()} == \
                {k: v.hex() for k, v in expected.items()}
        assert ours.bit_generator.state == theirs.bit_generator.state

    def test_random_day_shapes(self):
        rng = np.random.default_rng(77)
        for _ in range(60):
            instance = generate_instance(random_genspec(rng))
            sequence = [instance.patient_ids[i] for i in rng.permutation(len(instance.patients))]
            seed = int(rng.integers(2**32))
            ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
            assert construct_schedule(instance, sequence, ours).starts == \
                reference_starts(instance, sequence, theirs)
            assert ours.bit_generator.state == theirs.bit_generator.state


class TestBaselineSchedule:
    def test_empty_instance(self, empty_instance):
        assert baseline_schedule(empty_instance).starts == {}

    def test_deterministic(self, default_instance):
        first = baseline_schedule(default_instance)
        second = baseline_schedule(default_instance)
        assert first.starts == second.starts


def swap_neighbor(sequence, rng):
    """The sequence with the two positions ``_draw_swap`` picks exchanged, as annealing does."""
    seq = list(sequence)
    if len(seq) >= 2:
        i, j = _draw_swap(len(seq), rng)
        seq[i], seq[j] = seq[j], seq[i]
    return seq


class TestDrawSwap:
    def test_two_element_swap(self):
        rng = np.random.default_rng(0)
        assert swap_neighbor(["a", "b"], rng) == ["b", "a"]

    def test_always_changes_longer_sequences(self):
        rng = np.random.default_rng(1)
        sequence = [f"p{i}" for i in range(10)]
        for _ in range(200):
            neighbor = swap_neighbor(sequence, rng)
            assert neighbor != sequence
            assert sorted(neighbor) == sorted(sequence)
            changed = [i for i, (a, b) in enumerate(zip(sequence, neighbor)) if a != b]
            assert len(changed) == 2

    def test_short_sequences_unchanged(self, empty_instance):
        # Annealing draws no swap below two patients.
        config = SAConfig(iterations=3, seed=2)
        assert simulated_annealing(make_instance([make_patient(pid="only")]),
                                   config).best_sequence == ["only"]
        assert simulated_annealing(empty_instance, config).best_sequence == []


class TestSAConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SAConfig(iterations=0)
        with pytest.raises(ValueError):
            SAConfig(cooling_factor=1.0)
        with pytest.raises(ValueError):
            SAConfig(cooling_period=0)
        with pytest.raises(ValueError):
            SAConfig(initial_temperature=0.0)
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match="initial temperature must be positive and finite"):
                SAConfig(initial_temperature=bad)
            with pytest.raises(ValueError, match="grid step must be positive and finite"):
                SAConfig(grid_step=bad)

    @pytest.mark.parametrize("field, setting", [("initial_temperature", "initial temperature"),
                                                ("grid_step", "grid step")])
    def test_an_integer_beyond_float_range_is_refused_by_name(self, field, setting):
        with pytest.raises(ValueError, match=f"{setting} must be positive and finite"):
            SAConfig(**{field: 10 ** 400})

    @pytest.mark.parametrize("field, value, message", [
        ("iterations", 2.5, "iterations must be an integer, got 2.5"),
        ("iterations", True, "iterations must be an integer, got True"),
        ("cooling_period", 50.0, "cooling_period must be an integer, got 50.0"),
        ("seed", 1.0, "seed must be an integer, got 1.0"),
        ("seed", -1, "seed must be non-negative, got -1"),
        ("initial_temperature", True, "initial_temperature must be a number, got True"),
        ("initial_temperature", None, "initial_temperature must be a number, got None"),
        ("cooling_factor", "0.9", "cooling_factor must be a number, got '0.9'"),
        ("grid_step", True, "grid_step must be a number, got True"),
    ])
    def test_refuses_a_wrong_type_or_a_negative_seed_naming_the_field(self, field, value,
                                                                      message):
        with pytest.raises(ValueError, match=message):
            SAConfig(**{field: value})


@pytest.fixture(scope="module")
def small_instance():
    from pacuplan import GenSpec
    return generate_instance(GenSpec(or_count=4, surgeon_count=6, patient_count=14,
                                     recovery_fraction=0.8, seed=99))


class TestSimulatedAnnealing:
    def test_best_not_worse_than_initial(self, small_instance):
        report = simulated_annealing(small_instance, SAConfig(iterations=1, seed=5))
        assert report.best_meo <= report.initial_meo

    def test_deterministic_given_seed(self, small_instance):
        config = SAConfig(iterations=120, seed=42)
        first = simulated_annealing(small_instance, config)
        second = simulated_annealing(small_instance, config)
        assert first.best_sequence == second.best_sequence
        assert first.meo_trace == second.meo_trace
        assert first.best_schedule.starts == second.best_schedule.starts
        assert first.best_meo == second.best_meo

    def test_reported_meo_matches_schedule(self, small_instance):
        config = SAConfig(iterations=150, seed=7)
        report = simulated_annealing(small_instance, config)
        assert report.best_meo == max_expected_occupancy(
            small_instance, report.best_schedule, grid_step=config.grid_step)

    def test_best_trace_monotone(self, small_instance):
        report = simulated_annealing(small_instance, SAConfig(iterations=200, seed=3))
        trace = report.best_trace
        assert all(b <= a for a, b in zip(trace, trace[1:]))
        assert trace[-1] == report.best_meo
        assert report.accepted + report.rejected == 200

    def test_geometric_cooling_schedule(self, small_instance):
        report = simulated_annealing(small_instance, SAConfig(iterations=450, seed=1))
        temps = temperature_trace(report)
        assert temps[0] == 1.0
        assert temps[199] == 1.0
        assert temps[200] == pytest.approx(0.95)
        assert temps[400] == pytest.approx(0.9025)  # after two cooling periods

    def test_metropolis_rule_on_trace(self, small_instance):
        report = simulated_annealing(small_instance, SAConfig(iterations=2000, seed=11))
        deltas = delta_trace(report)
        uphill = [(d, t, a) for d, t, a in zip(deltas, temperature_trace(report),
                                               report.accepted_trace) if d > 0]
        downhill_accepted = [a for d, a in zip(deltas, report.accepted_trace) if d <= 0]
        assert all(downhill_accepted)
        assert len(uphill) > 50
        expected = [math.exp(-d / t) for d, t, _ in uphill]
        observed = sum(a for _, _, a in uphill)
        mean = sum(expected)
        sd = math.sqrt(sum(p * (1 - p) for p in expected))
        # 99% binomial bound (plus one for continuity) on the acceptance count.
        assert abs(observed - mean) <= 2.576 * sd + 1.0

    def test_single_patient_instance(self):
        instance = make_instance([make_patient()])
        report = simulated_annealing(instance, SAConfig(iterations=5, seed=0))
        assert report.best_meo <= report.initial_meo

    def test_empty_instance(self, empty_instance):
        report = simulated_annealing(empty_instance, SAConfig(iterations=3, seed=0))
        assert report.best_meo == 0.0
        assert report.initial_meo == 0.0
        assert report.best_schedule.starts == {}
        assert report.best_iteration == 0
        assert report.acceptance_by_epoch == [1.0]

    @settings(max_examples=12, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    @example(266912452)
    @example(922580)
    @example(195156)
    def test_best_is_feasible_on_late_shift_days(self, seed):
        # Candidates past a surgeon's overtime cap are rejected before the
        # kernel, so the best is the best feasible schedule tried, and an
        # infeasible input-order packing gives way to the first feasible one.
        instance = late_shift_instance(np.random.default_rng(seed))
        report = simulated_annealing(instance, SAConfig(iterations=60, seed=seed % 5))
        assert report.infeasible == report.meo_trace.count(None)
        assert report.accepted + report.rejected + report.infeasible == 60
        feasible = [m for m in report.meo_trace if m is not None]
        if check_feasibility(instance, baseline_schedule(instance)) == []:
            feasible.append(report.initial_meo)
        if feasible:
            assert check_feasibility(instance, report.best_schedule) == []
            assert report.best_meo == min(feasible) == max_expected_occupancy(
                instance, report.best_schedule)
        else:
            assert report.best_meo == report.initial_meo

    def test_infeasible_packing_gives_way_to_the_first_feasible_candidate(self):
        instance = late_shift_instance(np.random.default_rng(195156))
        report = simulated_annealing(instance, SAConfig(iterations=60, seed=0))
        first = next(i for i, m in enumerate(report.meo_trace) if m is not None)
        assert report.accepted_trace[first] and not any(report.accepted_trace[:first])
        assert report.best_trace[:first] == [None] * first
        assert report.infeasible > 0
        assert check_feasibility(instance, report.best_schedule) == []

    def test_time_split(self, small_instance):
        report = simulated_annealing(small_instance, SAConfig(iterations=200, seed=3))
        assert 0.0 < report.construct_seconds and 0.0 < report.kernel_seconds
        assert report.construct_seconds + report.kernel_seconds < report.wall_clock_seconds
        assert 0.0 < report.best_found_seconds < report.wall_clock_seconds
        assert report.best_iteration > 0
        unimproved = simulated_annealing(make_instance([make_patient(needs_recovery=False)]),
                                         SAConfig(iterations=5, seed=0))
        assert unimproved.best_iteration == 0 and unimproved.best_found_seconds == 0.0


class TestGoldenOutcomes:
    """Annealing outcomes pinned from before the shift-indexed kernel; every change since keeps them."""

    @pytest.mark.parametrize("spec, iterations, seed, best_meo, accepted, sequence_sha256", [
        (GenSpec(), 2500, 0, 5.090852055577912, 1685,
         "f235155c1b42970e90d41b427c10f64996bf9325448c78ca575c9e33fd64f439"),
        (GenSpec(), 2500, 1, 4.963066440927679, 1703,
         "f68304aa070490971063f6a50b8205e6f0b9b2739cb7c66d88860b22ecb06f10"),
        (GenSpec(patient_count=1000, surgeon_count=574, or_count=344), 100, 1,
         91.68863755194519, 12,
         "8e27b2821bd82b980f1323ce23e34d6854fcec9f549460cd702f7e081f761b1e"),
    ], ids=["default-day-seed0", "default-day-seed1", "1000-patient-day-seed1"])
    def test_pinned(self, spec, iterations, seed, best_meo, accepted, sequence_sha256):
        report = simulated_annealing(generate_instance(spec),
                                     SAConfig(iterations=iterations, seed=seed))
        assert report.best_meo == best_meo
        assert report.accepted == accepted
        digest = hashlib.sha256(",".join(report.best_sequence).encode()).hexdigest()
        assert digest == sequence_sha256
