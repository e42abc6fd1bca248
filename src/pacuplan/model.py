"""Surgical-day data model, feasibility checking, and the occupancy objective.

An Instance fixes the day: surgeons with shifts, patients with duration
distributions, and their operating-room assignments.  A Schedule assigns a
start time to every patient; ends and overtime are derived, never stored.
Feasibility is checked against the day's sequencing rules; the objective is
the peak of the expected recovery occupancy over the day.

Instances, schedules and violations are treated as immutable once built.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Annotated, Sequence

from . import forecast
from .distributions import LognormalParams, _check_fields, _is_finite, _is_real, moment_match_sum

# Tolerance (hours) realising strict inequalities on floating-point schedules.
FEASIBILITY_EPS = 1e-9


@dataclass(frozen=True)
class Surgeon:
    """A surgeon's shift window: their cases start no earlier than its start; overtime runs past its end."""

    id: str
    shift_start: Annotated[float, "non-negative"]
    shift_end: float

    def __post_init__(self) -> None:
        _check_fields(self, "surgeon {self.id}")
        if not self.shift_start < self.shift_end:
            raise ValueError(f"surgeon {self.id}: shift [{self.shift_start}, {self.shift_end}] is invalid")


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
    setup: Annotated[float, "non-negative"] = 0.0
    cleanup: Annotated[float, "non-negative"] = 0.0
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
            raise ValueError(f"patient {self.id}: expected_duration must be positive, "
                             f"got {self.expected_duration}")


def _by_id(name: str, records: list) -> dict:
    """``records`` keyed by id; an instance refuses a list with a repeated id, naming the first."""
    by_id = {}
    for r in records:
        if r.id in by_id:
            raise ValueError(f"instance: {name} has duplicate id {r.id}")
        by_id[r.id] = r
    return by_id


@dataclass
class Instance:
    """A day's problem: surgeons, patients, and the room/hour envelope.

    Patient list order is meaningful: it is the day's input order and seeds
    the optimiser's initial sequence.  The day keeps its chain tables and
    its MEO kernel, each built on first use.
    """

    surgeons: list[Surgeon]
    patients: list[Patient]
    or_count: Annotated[int, "non-negative"]
    or_open_hours: Annotated[float, "positive"]
    day_hours: float

    def __post_init__(self) -> None:
        _check_fields(self, "instance")
        self._meo_kernel: forecast.MeoKernel | None = None
        if not self.or_open_hours <= self.day_hours:
            raise ValueError(f"instance: or_open_hours must be at most day_hours {self.day_hours}, "
                             f"got {self.or_open_hours}")
        self.surgeon_by_id = _by_id("surgeons", self.surgeons)
        self.patient_by_id = _by_id("patients", self.patients)
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

    def starts_of(self, schedule: Schedule) -> list[float]:
        """The schedule's starts in patient order; it must time exactly this day's patients."""
        starts = schedule.starts
        missing = [p.id for p in self.patients if p.id not in starts]
        if missing:
            raise ValueError(f"schedule is missing start times for patients: {', '.join(missing)}")
        unknown = [pid for pid in starts if pid not in self.patient_by_id]
        if unknown:
            raise ValueError(f"schedule has start times for patients not in the instance: "
                             f"{', '.join(unknown)}")
        return [starts[p.id] for p in self.patients]

    @functools.cached_property
    def _chains(self) -> _Chains:
        """The schedule builder's tables of the day, built on first use."""
        return _Chains(self)

    def _kernel(self, grid_step: float) -> forecast.MeoKernel:
        """The day's MEO kernel on this grid step, built on first use; the day keeps the last one."""
        if self._meo_kernel is None or self._meo_kernel.grid_step != grid_step:
            self._meo_kernel = forecast.MeoKernel(forecast.RecoveryRows(self.patients), grid_step,
                                                  self.day_hours)
        return self._meo_kernel


class _Chains:
    """A day's schedule-builder lists: per patient, then per surgeon chain.

    ``room[p]`` and ``surgeon[p]`` number the OR and surgeon chains patient
    p belongs to; sequence order alone then decides each chain's order.
    Surgeon chain k is ``instance.surgeons[k]``, and ``surgeon_cap[k]`` is
    constraint 4's cap on its overtime: its cases' summed expected
    durations, setups and cleanups, plus its shift's length.
    """

    def __init__(self, instance: Instance):
        patients = instance.patients
        self.n = len(patients)
        self.ids = [p.id for p in patients]
        self.index = {pid: i for i, pid in enumerate(self.ids)}
        self.duration = [float(p.expected_duration) for p in patients]
        self.setup = [float(p.setup) for p in patients]
        self.cleanup = [float(p.cleanup) for p in patients]
        self.shift_start = [float(instance.surgeon_by_id[p.surgeon_id].shift_start) for p in patients]
        self.or_close = float(instance.or_open_hours)
        rooms = {or_id: k for k, or_id in enumerate(instance.patients_by_or)}
        surgeons = {s.id: k for k, s in enumerate(instance.surgeons)}
        self.room = [rooms[p.or_id] for p in patients]
        self.surgeon = [surgeons[p.surgeon_id] for p in patients]
        self.room_count, self.surgeon_count = len(rooms), len(surgeons)
        self.surgeon_shift_end = [s.shift_end for s in instance.surgeons]
        self.surgeon_cap = [sum(p.expected_duration + p.setup + p.cleanup
                                for p in instance.patients_by_surgeon[s.id])
                            - s.shift_start + s.shift_end for s in instance.surgeons]


@dataclass(frozen=True)
class Schedule:
    """Start times by string patient id, each a finite number; everything else about timing is derived."""

    starts: dict[str, float]

    def __post_init__(self) -> None:
        if not isinstance(self.starts, dict):
            raise ValueError(f"starts must map patient ids to numbers, got {type(self.starts).__name__}")
        bad = [pid for pid, z in self.starts.items() if not (_is_finite(z) and isinstance(pid, str))]
        if bad:
            ids = [pid for pid in bad if not isinstance(pid, str)]
            if ids:
                raise ValueError(f"starts: patient ids must be strings, got {', '.join(map(repr, ids))}")
            names = ", ".join(bad)
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


def compute_overtime(instance: Instance, schedule: Schedule) -> dict[str, float]:
    """Minimal non-negative overtime per surgeon implied by the schedule."""
    instance.starts_of(schedule)  # the schedule must time exactly the day's patients
    overtime = {}
    for surgeon in instance.surgeons:
        latest = max((schedule.end_of(p) - surgeon.shift_end
                      for p in instance.patients_by_surgeon[surgeon.id]), default=0.0)
        overtime[surgeon.id] = max(0.0, latest)
    return overtime


def check_feasibility(instance: Instance, schedule: Schedule) -> list[Violation]:
    """All sequencing-rule violations beyond tolerance; empty means feasible.

    Checks, by constraint number: shift starts (2), the overtime cap (4),
    no double-booked surgeon (9) or OR (10), setup/cleanup gaps between
    consecutive same-surgeon (12) and same-OR (13) cases.  Shift ends net
    of overtime (3) hold by construction: ``compute_overtime`` makes a
    surgeon's overtime the largest end past the shift end among their
    cases, so no case ends later than the shift end plus that overtime.
    """
    violations: list[Violation] = []
    overtime = compute_overtime(instance, schedule)

    for surgeon, cap in zip(instance.surgeons, instance._chains.surgeon_cap):
        for p in instance.patients_by_surgeon[surgeon.id]:
            z = schedule.starts[p.id]
            if z < surgeon.shift_start - FEASIBILITY_EPS:
                violations.append(Violation(
                    2, f"patient {p.id} starts {surgeon.shift_start - z:.4g} h before surgeon {surgeon.id}'s shift",
                    patients=(p.id,), surgeon=surgeon.id, magnitude=surgeon.shift_start - z))
        excess = overtime[surgeon.id] - cap
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
    starts = instance.starts_of(schedule)
    return instance._kernel(grid_step).peak(starts)
