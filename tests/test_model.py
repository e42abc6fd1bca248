import math
import re

import numpy as np
import pytest

from pacuplan import (
    GenSpec,
    Instance,
    LognormalParams,
    Patient,
    Schedule,
    Surgeon,
    check_feasibility,
    compute_overtime,
    construct_schedule,
    generate_instance,
    max_expected_occupancy,
    moment_match_sum,
    occupancy_curve,
)

from conftest import make_instance, make_patient


class TestTypes:
    def test_patient_combined_is_rederivable(self):
        patient = make_patient(surgery=(1.0, 0.25), recovery=(0.5, 0.25))
        assert patient.combined == moment_match_sum(patient.surgery, patient.recovery)

    def test_patient_duration_defaults_to_surgery_mean(self):
        patient = make_patient(surgery=(1.0, 0.25))
        assert patient.expected_duration == pytest.approx(np.exp(1.125))
        explicit = make_patient(duration=2.5)
        assert explicit.expected_duration == 2.5

    def test_patient_rejects_bad_fields(self):
        with pytest.raises(ValueError):
            make_patient(duration=-1.0)
        with pytest.raises(ValueError):
            make_patient(setup=-0.1)

    def test_surgeon_shift_validation(self):
        with pytest.raises(ValueError):
            Surgeon(id="s1", shift_start=5.0, shift_end=5.0)
        with pytest.raises(ValueError):
            Surgeon(id="s1", shift_start=-1.0, shift_end=4.0)

    def test_instance_validation(self):
        patient = make_patient()
        with pytest.raises(ValueError):  # unknown surgeon
            Instance(surgeons=[], patients=[patient], or_count=1, or_open_hours=8.0, day_hours=24.0)
        with pytest.raises(ValueError):  # OR out of range
            make_instance([make_patient(or_id=3)], or_count=2)
        with pytest.raises(ValueError):  # duplicate patients
            make_instance([patient, patient])
        with pytest.raises(ValueError):  # OR hours beyond the day
            make_instance([patient], or_open_hours=25.0)
        with pytest.raises(ValueError):  # shift past the end of the day
            make_instance([patient], surgeons=[Surgeon(id="s1", shift_start=0.0, shift_end=25.0)])


# Each record names itself, the field and the kind it wants when a field is of
# the wrong kind; these are cases no CLI or io test reaches.
@pytest.mark.parametrize("build, message", [
    (lambda: make_patient(or_id=True), "patient p1: or_id must be an integer, got True"),
    (lambda: make_patient(surgeon=3), "patient p1: surgeon_id must be a string, got 3"),
    (lambda: make_patient(needs_recovery=1), "patient p1: needs_recovery must be true or false, got 1"),
    (lambda: make_patient(setup=math.nan), "patient p1: setup must be a finite number, got nan"),
    (lambda: make_instance([make_patient()], or_count=2.0),
     "instance: or_count must be an integer, got 2.0"),
    (lambda: make_instance([make_patient()], day_hours="24"),
     "instance: day_hours must be a finite number, got '24'"),
    (lambda: LognormalParams(0.0, True), "lognormal: sigma2 must be a finite number, got True"),
    (lambda: GenSpec(recovery_fraction=math.nan),
     "spec: recovery_fraction must be a finite number, got nan"),
    (lambda: Surgeon(id="s1", shift_start="0", shift_end=8.0),
     "surgeon s1: shift_start must be a finite number, got '0'"),
    (lambda: Surgeon(id=None, shift_start=0.0, shift_end=8.0),
     "surgeon None: id must be a string, got None"),
    (lambda: Patient(id="p1", surgeon_id="s1", or_id=1, needs_recovery=True, surgery=None,
                     recovery=LognormalParams(0.0, 0.1)),
     "patient p1: surgery must be a LognormalParams, got None"),
])
def test_record_refuses_a_wrong_kind_naming_itself_the_field_and_the_kind(build, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build()


@pytest.mark.parametrize("starts, message", [
    (None, "starts must map patient ids to numbers"),
    ([0.0, 1.0], "starts must map patient ids to numbers"),
    ({"p1": 0.0, "p2": True}, "starts must map patient ids to numbers; not a number for patients: p2"),
    ({"p1": "0.5", "p2": 1.0}, "starts must map patient ids to numbers; not a number for patients: p1"),
    ({"p1": math.nan, "p2": 1.0, "p3": -math.inf},
     "starts: non-finite start times for patients: p1, p3"),
    ({"p1": 10 ** 400}, "starts: non-finite start times for patients: p1"),
])
def test_schedule_refuses_a_start_that_is_not_a_finite_number(starts, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
        Schedule(starts)


class TestPairwiseChecks:
    """Overlap and "ends after start" between two cases, as ``check_feasibility`` sees them.

    Both patients share OR 1, so the overlap check (10) and the turnover
    check (13) compare them.
    """

    def setup_method(self):
        self.patients = [make_patient(pid="a", surgeon="s1", or_id=1, duration=2.0),
                         make_patient(pid="b", surgeon="s2", or_id=1, duration=2.0)]
        self.instance = make_instance(self.patients)

    @staticmethod
    def overlapping(violations):
        return [v.patients for v in violations if v.constraint == 10]

    def test_disjoint_intervals(self):
        violations = check_feasibility(self.instance, Schedule({"a": 0.0, "b": 3.0}))
        assert not self.overlapping(violations)

    def test_identical_intervals(self):
        violations = check_feasibility(self.instance, Schedule({"a": 1.0, "b": 1.0}))
        assert self.overlapping(violations) == [("a", "b")]

    def test_back_to_back_is_not_overlap(self):
        # With a's cleanup, a turnover check runs only for a pair whose
        # second case ends after the first starts: (a, b) but not (b, a).
        patients = [make_patient(pid="a", surgeon="s1", or_id=1, duration=2.0, cleanup=0.25),
                    self.patients[1]]
        violations = check_feasibility(make_instance(patients), Schedule({"a": 0.0, "b": 2.0}))
        assert not self.overlapping(violations)
        assert [(v.constraint, v.patients) for v in violations] == [(13, ("a", "b"))]

    def test_symmetry(self):
        rng = np.random.default_rng(2)
        patients = [make_patient(pid=f"p{i}", surgeon=f"s{i}", or_id=1,
                                 duration=float(rng.uniform(0.5, 3)))
                    for i in range(6)]
        schedule = Schedule({p.id: float(rng.uniform(0, 6)) for p in patients})
        forward = self.overlapping(check_feasibility(make_instance(patients), schedule))
        backward = self.overlapping(check_feasibility(make_instance(patients[::-1]), schedule))
        assert {frozenset(pair) for pair in forward} == {frozenset(pair) for pair in backward}
        assert all(len(set(pair)) == 2 for pair in forward)


class TestComputeOvertime:
    def test_no_overtime_inside_shift(self):
        instance = make_instance([make_patient(duration=3.0)])
        overtime = compute_overtime(instance, Schedule({"p1": 1.0}))
        assert overtime == {"s1": 0.0}
        assert not overtime["s1"] > 0.0

    def test_single_overrun(self):
        instance = make_instance([make_patient(duration=1.75)])
        overtime = compute_overtime(instance, Schedule({"p1": 7.0}))
        assert overtime["s1"] == pytest.approx(0.75)
        assert overtime["s1"] > 0.0

    def test_latest_patient_drives_overtime(self):
        patients = [make_patient(pid="a", duration=1.0),
                    make_patient(pid="b", duration=2.0),
                    make_patient(pid="c", duration=1.5)]
        instance = make_instance(patients)
        overtime = compute_overtime(instance, Schedule({"a": 0.0, "b": 7.5, "c": 3.0}))
        assert overtime["s1"] == pytest.approx(1.5)  # b ends at 9.5


class TestCheckFeasibility:
    def test_empty_instance(self, empty_instance):
        assert check_feasibility(empty_instance, Schedule({})) == []

    def test_single_patient_at_shift_start(self):
        instance = make_instance([make_patient(duration=3.0)])
        assert check_feasibility(instance, Schedule({"p1": 0.0})) == []

    def test_missing_start_is_structural(self):
        instance = make_instance([make_patient()])
        with pytest.raises(ValueError, match="p1"):
            check_feasibility(instance, Schedule({}))

    @pytest.mark.parametrize("check", [check_feasibility, max_expected_occupancy,
                                       compute_overtime])
    def test_unknown_patient_id_is_structural(self, check):
        instance = make_instance([make_patient()])
        with pytest.raises(ValueError, match="ghost"):
            check(instance, Schedule({"p1": 0.0, "ghost": 1.0}))

    @pytest.mark.parametrize("check", [check_feasibility, max_expected_occupancy,
                                       compute_overtime])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_start_is_structural(self, check, bad):
        instance = make_instance([make_patient(), make_patient(pid="p2", surgeon="s2")])
        with pytest.raises(ValueError, match="non-finite start times for patients: p2$"):
            check(instance, Schedule({"p1": 0.0, "p2": bad}))

    def test_start_before_shift(self):
        instance = make_instance([make_patient(duration=1.0)],
                                 surgeons=[Surgeon(id="s1", shift_start=2.0, shift_end=8.0)])
        violations = check_feasibility(instance, Schedule({"p1": 1.5}))
        assert [v.constraint for v in violations] == [2]
        assert violations[0].magnitude == pytest.approx(0.5)

    def test_same_or_turnover_shortfall(self):
        patients = [make_patient(pid="a", surgeon="s1", or_id=1, duration=2.0, cleanup=0.25),
                    make_patient(pid="b", surgeon="s2", or_id=1, duration=1.0, setup=0.25)]
        instance = make_instance(patients)
        violations = check_feasibility(instance, Schedule({"a": 0.0, "b": 2.0}))
        assert len(violations) == 1
        assert violations[0].constraint == 13
        assert violations[0].magnitude == pytest.approx(0.5)
        assert violations[0].patients == ("a", "b")
        # The exact required gap is feasible.
        assert check_feasibility(instance, Schedule({"a": 0.0, "b": 2.5})) == []

    def test_same_surgeon_gap_uses_constraint_12(self):
        patients = [make_patient(pid="a", surgeon="s1", or_id=1, duration=2.0, cleanup=0.25),
                    make_patient(pid="b", surgeon="s1", or_id=2, duration=1.0, setup=0.25)]
        instance = make_instance(patients)
        violations = check_feasibility(instance, Schedule({"a": 0.0, "b": 2.0}))
        assert [v.constraint for v in violations] == [12]

    def test_overlap_same_surgeon_and_same_or(self):
        same_surgeon = make_instance([
            make_patient(pid="a", surgeon="s1", or_id=1, duration=2.0),
            make_patient(pid="b", surgeon="s1", or_id=2, duration=2.0)])
        constraints = {v.constraint for v in
                       check_feasibility(same_surgeon, Schedule({"a": 0.0, "b": 1.0}))}
        assert 9 in constraints
        same_or = make_instance([
            make_patient(pid="a", surgeon="s1", or_id=1, duration=2.0),
            make_patient(pid="b", surgeon="s2", or_id=1, duration=2.0)])
        constraints = {v.constraint for v in
                       check_feasibility(same_or, Schedule({"a": 0.0, "b": 1.0}))}
        assert 10 in constraints

    def test_overtime_cap(self):
        # One short patient scheduled absurdly late: overtime exceeds the
        # workload-plus-shift cap.
        instance = make_instance([make_patient(duration=1.0, setup=0.1, cleanup=0.1)])
        violations = check_feasibility(instance, Schedule({"p1": 18.0}))
        cap = (1.0 + 0.1 + 0.1) + 8.0
        overtime = 18.0 + 1.0 - 8.0
        matching = [v for v in violations if v.constraint == 4]
        assert len(matching) == 1
        assert matching[0].magnitude == pytest.approx(overtime - cap)

    def test_relabeling_invariance(self):
        rng = np.random.default_rng(8)
        patients = [make_patient(pid=f"p{i}", surgeon=f"s{i % 3}", or_id=1 + i % 2,
                                 duration=float(rng.uniform(0.5, 3)),
                                 setup=0.2, cleanup=0.2) for i in range(8)]
        instance = make_instance(patients)
        schedule = Schedule({p.id: float(rng.uniform(0, 7)) for p in patients})
        baseline = check_feasibility(instance, schedule)

        renamed = [Patient(id=f"x{p.id}", surgeon_id=p.surgeon_id, or_id=p.or_id,
                           needs_recovery=p.needs_recovery, surgery=p.surgery,
                           recovery=p.recovery, expected_duration=p.expected_duration,
                           setup=p.setup, cleanup=p.cleanup) for p in patients]
        relabeled = make_instance(renamed)
        relabeled_schedule = Schedule({f"x{pid}": z for pid, z in schedule.starts.items()})
        relabeled_violations = check_feasibility(relabeled, relabeled_schedule)

        def signature(violations):
            return sorted((v.constraint, round(v.magnitude, 9)) for v in violations)

        assert signature(baseline) == signature(relabeled_violations)
        assert len(baseline) > 0  # the random schedule should actually clash


class TestMaxExpectedOccupancy:
    def test_grid_switch_gives_each_grids_peak(self):
        # A day keeps one kernel, the last grid's; switching grids rebuilds it,
        # and each call is the full curve's peak on its own grid.
        instance = generate_instance(GenSpec(seed=1))
        schedule = construct_schedule(instance, instance.patient_ids, np.random.default_rng(0))
        starts = [schedule.starts[p.id] for p in instance.patients]
        peaks = []
        for grid_step in (0.05, 0.1, 0.05):
            peaks.append(max_expected_occupancy(instance, schedule, grid_step))
            assert peaks[-1] == occupancy_curve(instance.patients, starts, grid_step,
                                                instance.day_hours).peak()
        assert peaks[0] == peaks[2] != peaks[1]

    def test_no_recovery_patients(self):
        instance = make_instance([make_patient(needs_recovery=False)])
        assert max_expected_occupancy(instance, Schedule({"p1": 0.0})) == 0.0

    def test_single_patient_bounded_by_one(self):
        instance = make_instance([make_patient()])
        meo = max_expected_occupancy(instance, Schedule({"p1": 0.0}))
        assert 0.0 < meo <= 1.0

    def test_bounded_by_recovery_count(self):
        rng = np.random.default_rng(4)
        patients = [make_patient(pid=f"p{i}", surgeon=f"s{i}", or_id=1)
                    for i in range(6)]
        instance = make_instance(patients)
        schedule = Schedule({p.id: float(rng.uniform(0, 4)) for p in patients})
        assert 0.0 <= max_expected_occupancy(instance, schedule) <= 6.0

    def test_storage_order_invariance(self):
        rng = np.random.default_rng(6)
        patients = [make_patient(pid=f"p{i}", surgeon=f"s{i}", or_id=1 + i % 3,
                                 surgery=(rng.uniform(-0.5, 1), 0.3))
                    for i in range(7)]
        schedule = Schedule({p.id: float(rng.uniform(0, 5)) for p in patients})
        forward = max_expected_occupancy(make_instance(patients), schedule)
        backward = max_expected_occupancy(make_instance(patients[::-1]), schedule)
        assert forward == pytest.approx(backward, abs=1e-12)

    def test_non_recovery_patients_leave_meo_unchanged(self):
        patients = [make_patient(pid="p1"), make_patient(pid="p2", surgeon="s2", or_id=2)]
        schedule = Schedule({"p1": 0.0, "p2": 1.5})
        base = max_expected_occupancy(make_instance(patients), schedule)
        extra = make_patient(pid="p3", surgeon="s3", or_id=3, needs_recovery=False)
        extended = max_expected_occupancy(
            make_instance(patients + [extra]),
            Schedule({**schedule.starts, "p3": 2.0}))
        assert extended == base

    def test_delay_with_extended_horizon_is_invariant(self):
        patients = [make_patient(pid=f"p{i}", surgeon=f"s{i}", or_id=1) for i in range(4)]
        starts = {f"p{i}": 0.7 * i for i in range(4)}
        base = max_expected_occupancy(make_instance(patients, day_hours=24.0),
                                      Schedule(starts))
        delayed = max_expected_occupancy(
            make_instance(patients, day_hours=25.0),
            Schedule({pid: z + 1.0 for pid, z in starts.items()}))
        assert delayed == pytest.approx(base, abs=1e-9)
