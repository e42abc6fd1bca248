"""Surgical-day data model, feasibility checking, and the occupancy objective.

An Instance fixes the day: surgeons with shifts, patients with duration
distributions, and their operating-room assignments.  A Schedule assigns a
start time to every patient; ends and overtime are derived, never stored.
Feasibility is checked against the day's sequencing rules; the objective is
the peak of the expected recovery occupancy over the day.

Instances, schedules and violations are treated as immutable once built.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from . import forecast
from .distributions import LognormalParams, _check_fields, _is_finite, _is_real, moment_match_sum

# Tolerance (hours) realising strict inequalities on floating-point schedules.
FEASIBILITY_EPS = 1e-9


@dataclass(frozen=True)
class Surgeon:
    """A surgeon's day: shift window plus the setup they need in a fresh OR.

    ``new_or_setup`` is carried for completeness; no sequencing rule
    currently consumes it.
    """

    id: str
    shift_start: float
    shift_end: float
    new_or_setup: float = 0.0

    def __post_init__(self) -> None:
        _check_fields(self, "surgeon {self.id}")
        if not 0.0 <= self.shift_start < self.shift_end:
            raise ValueError(f"surgeon {self.id}: shift [{self.shift_start}, {self.shift_end}] is invalid")
        if self.new_or_setup < 0.0:
            raise ValueError(f"surgeon {self.id}: negative new-OR setup")


@dataclass(frozen=True)
class Patient:
    """One elective case: who operates, where, and how long things take.

    ``combined`` (the moment-matched lognormal for surgery + recovery) is
    always derived from ``surgery`` and ``recovery``; ``expected_duration``
    defaults to the surgery distribution's mean.
    """

    id: str
    surgeon_id: str
    or_id: int
    needs_recovery: bool
    surgery: LognormalParams
    recovery: LognormalParams
    expected_duration: float | None = None
    setup: float = 0.0
    cleanup: float = 0.0
    combined: LognormalParams = field(init=False)

    def __post_init__(self) -> None:
        _check_fields(self, "patient {self.id}")
        try:
            object.__setattr__(self, "combined", moment_match_sum(self.surgery, self.recovery))
        except ValueError as exc:
            raise ValueError(f"patient {self.id}: {exc}") from None
        if self.expected_duration is None:
            object.__setattr__(self, "expected_duration", self.surgery.mean())
        if not self.expected_duration > 0.0:
            raise ValueError(f"patient {self.id}: expected duration must be positive")
        if self.setup < 0.0 or self.cleanup < 0.0:
            raise ValueError(f"patient {self.id}: setup and cleanup must be non-negative")


@dataclass
class Instance:
    """A day's problem: surgeons, patients, and the room/hour envelope.

    Patient list order is meaningful: it is the day's input order and seeds
    the optimiser's initial sequence.
    """

    surgeons: list[Surgeon]
    patients: list[Patient]
    or_count: int
    or_open_hours: float
    day_hours: float

    def __post_init__(self) -> None:
        _check_fields(self, "instance")
        if self.or_count < 0:
            raise ValueError("OR count must be non-negative")
        if not 0.0 < self.or_open_hours <= self.day_hours:
            raise ValueError(f"OR opening hours must lie in (0, {self.day_hours}]")
        self.surgeon_by_id = {s.id: s for s in self.surgeons}
        if len(self.surgeon_by_id) != len(self.surgeons):
            raise ValueError("duplicate surgeon ids")
        self.patient_by_id = {p.id: p for p in self.patients}
        if len(self.patient_by_id) != len(self.patients):
            raise ValueError("duplicate patient ids")
        self.patients_by_surgeon: dict[str, list[Patient]] = {s.id: [] for s in self.surgeons}
        self.patients_by_or: dict[int, list[Patient]] = {}
        for p in self.patients:
            if p.surgeon_id not in self.surgeon_by_id:
                raise ValueError(f"patient {p.id} references unknown surgeon {p.surgeon_id}")
            if not 1 <= p.or_id <= self.or_count:
                raise ValueError(f"patient {p.id} references OR {p.or_id} outside 1..{self.or_count}")
            self.patients_by_surgeon[p.surgeon_id].append(p)
            self.patients_by_or.setdefault(p.or_id, []).append(p)
        for s in self.surgeons:
            if s.shift_end > self.day_hours:
                raise ValueError(f"surgeon {s.id} shift ends after the {self.day_hours} h day")

    @property
    def patient_ids(self) -> list[str]:
        return [p.id for p in self.patients]

    def recovery_count(self) -> int:
        return sum(1 for p in self.patients if p.needs_recovery)


@dataclass(frozen=True)
class Schedule:
    """Start times per patient id, each a finite number; everything else about timing is derived."""

    starts: dict[str, float]

    def __post_init__(self) -> None:
        if not isinstance(self.starts, dict):
            raise ValueError(f"starts must map patient ids to numbers, got {type(self.starts).__name__}")
        bad = [pid for pid, z in self.starts.items() if not _is_finite(z)]
        if bad:
            names = ", ".join(map(str, bad))
            if all(_is_real(self.starts[pid]) for pid in bad):
                raise ValueError(f"starts: non-finite start times for patients: {names}")
            raise ValueError(f"starts must map patient ids to numbers; not a number for patients: {names}")

    def end_of(self, patient: Patient) -> float:
        return self.starts[patient.id] + patient.expected_duration


@dataclass(frozen=True)
class Violation:
    """One broken sequencing rule, identified by its constraint number."""

    constraint: int
    message: str
    patients: tuple[str, ...] = ()
    surgeon: str | None = None
    or_id: int | None = None
    magnitude: float = 0.0


def _require_complete(instance: Instance, schedule: Schedule) -> None:
    """Reject a schedule unless it times exactly the instance's patients."""
    missing = [p.id for p in instance.patients if p.id not in schedule.starts]
    if missing:
        raise ValueError(f"schedule is missing start times for patients: {', '.join(missing)}")
    unknown = [pid for pid in schedule.starts if pid not in instance.patient_by_id]
    if unknown:
        raise ValueError(f"schedule has start times for patients not in the instance: "
                         f"{', '.join(map(str, unknown))}")


def compute_overtime(instance: Instance, schedule: Schedule) -> dict[str, float]:
    """Minimal non-negative overtime per surgeon implied by the schedule."""
    _require_complete(instance, schedule)
    overtime = {}
    for surgeon in instance.surgeons:
        latest = max((schedule.end_of(p) - surgeon.shift_end
                      for p in instance.patients_by_surgeon[surgeon.id]), default=0.0)
        overtime[surgeon.id] = max(0.0, latest)
    return overtime


def _overtime_cap(instance: Instance, surgeon: Surgeon) -> float:
    """Constraint 4's cap on a surgeon's overtime; the schedule builder uses the same float."""
    return (sum(p.expected_duration + p.setup + p.cleanup
                for p in instance.patients_by_surgeon[surgeon.id])
            - surgeon.shift_start + surgeon.shift_end)


def check_feasibility(instance: Instance, schedule: Schedule) -> list[Violation]:
    """All sequencing-rule violations beyond tolerance; empty means feasible.

    Checks, by constraint number: shift starts (2), shift ends net of
    overtime (3), the overtime cap (4), no double-booked surgeon (9) or OR
    (10), setup/cleanup gaps between consecutive same-surgeon (12) and
    same-OR (13) cases.
    """
    violations: list[Violation] = []
    overtime = compute_overtime(instance, schedule)

    for surgeon in instance.surgeons:
        own = instance.patients_by_surgeon[surgeon.id]
        for p in own:
            z = schedule.starts[p.id]
            if z < surgeon.shift_start - FEASIBILITY_EPS:
                violations.append(Violation(
                    2, f"patient {p.id} starts {surgeon.shift_start - z:.4g} h before surgeon {surgeon.id}'s shift",
                    patients=(p.id,), surgeon=surgeon.id, magnitude=surgeon.shift_start - z))
            past_shift = schedule.end_of(p) - (surgeon.shift_end + overtime[surgeon.id])
            if past_shift > FEASIBILITY_EPS:
                violations.append(Violation(
                    3, f"patient {p.id} ends {past_shift:.4g} h past surgeon {surgeon.id}'s shift plus overtime",
                    patients=(p.id,), surgeon=surgeon.id, magnitude=past_shift))
        if overtime[surgeon.id] > 0.0:
            excess = overtime[surgeon.id] - _overtime_cap(instance, surgeon)
            if excess > FEASIBILITY_EPS:
                violations.append(Violation(
                    4, f"surgeon {surgeon.id} overtime exceeds its cap by {excess:.4g} h",
                    surgeon=surgeon.id, magnitude=excess))

    def ends_after_start(p: Patient, q: Patient) -> bool:
        """q's surgery ends strictly (beyond FEASIBILITY_EPS) after p's starts."""
        return schedule.end_of(q) > schedule.starts[p.id] + FEASIBILITY_EPS

    def check_group(group: Sequence[Patient], overlap_constraint: int, gap_constraint: int,
                    surgeon: str | None, or_id: int | None) -> None:
        for a in range(len(group)):
            for b in range(a + 1, len(group)):
                p, q = group[a], group[b]
                if ends_after_start(p, q) and ends_after_start(q, p):
                    violations.append(Violation(
                        overlap_constraint, f"patients {p.id} and {q.id} overlap",
                        patients=(p.id, q.id), surgeon=surgeon, or_id=or_id,
                        magnitude=_overlap_hours(instance, schedule, p, q)))
        for p in group:
            for q in group:
                if p.id == q.id or not ends_after_start(p, q):
                    continue
                required = schedule.end_of(p) + q.setup + p.cleanup
                gap_short = required - schedule.starts[q.id]
                if gap_short > FEASIBILITY_EPS:
                    violations.append(Violation(
                        gap_constraint,
                        f"patient {q.id} follows {p.id} with {gap_short:.4g} h too little turnover",
                        patients=(p.id, q.id), surgeon=surgeon, or_id=or_id, magnitude=gap_short))

    for surgeon in instance.surgeons:
        check_group(instance.patients_by_surgeon[surgeon.id], 9, 12, surgeon.id, None)
    for or_id, group in sorted(instance.patients_by_or.items()):
        check_group(group, 10, 13, None, or_id)

    return violations


def _overlap_hours(instance: Instance, schedule: Schedule, p: Patient, q: Patient) -> float:
    return (min(schedule.end_of(p), schedule.end_of(q))
            - max(schedule.starts[p.id], schedule.starts[q.id]))


def max_expected_occupancy(instance: Instance, schedule: Schedule,
                           grid_step: float = forecast.GRID_STEP) -> float:
    """Peak of the expected recovery occupancy over the day's time grid."""
    _require_complete(instance, schedule)
    kernel = forecast.RecoveryRows.of(instance.patients).kernel(grid_step, instance.day_hours)
    return kernel.peak([schedule.starts[p.id] for p in instance.patients])
