"""Sequence optimisation: constructive schedule builder plus Simulated Annealing.

The builder is a two-pass critical-path propagation over the patient
sequence: a reverse pass tightens each patient's latest completion from the
successors that share their OR or surgeon, a forward pass chains earliest
starts off realised predecessor starts and the surgeon's shift start, and
each start is then placed uniformly at random inside its slack window.
Annealing searches the sequence space with random pair swaps, minimising
the peak expected recovery occupancy.

Each pass walks the sequence once and consults only the immediate
neighbours on the patient's OR chain and surgeon chain (the patients
sharing that OR, or that surgeon, in sequence order).  That gives the same
floats as taking the max (min) over every earlier (later) patient sharing
an OR or surgeon.  Along a chain, a patient's realised start is its
earliest start plus a non-negative slack share, which is at least its
predecessor's start + duration + cleanup; adding the non-negative duration
and cleanup keeps the order.  Float rounding is monotone, so these
inequalities hold for the computed values too: start + duration + cleanup
never decreases along a chain, and the immediate predecessor's value is
the chain's largest, the very same float.  In the reverse pass, latest
completion - duration - setup never decreases along a chain for the same
reason, so the immediate successor's value is the chain's smallest.  The
slack fractions come from one ``rng.random(n)`` call, which yields the same
doubles as n scalar draws and leaves the generator in the same state.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import forecast
from .distributions import _check_fields, _is_finite
from .model import FEASIBILITY_EPS, Instance, Schedule, _overtime_cap


@dataclass(frozen=True)
class SAConfig:
    """Annealing knobs; defaults are the tuned values.

    Each field is also ``optimize``'s flag of the same name, with dashes.
    """

    iterations: int = 2500
    initial_temperature: float = 1.0
    cooling_factor: float = 0.95
    cooling_period: int = 200
    grid_step: float = forecast.GRID_STEP
    seed: int = 0

    def __post_init__(self) -> None:
        _check_fields(self, None, any_real=True)
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        if self.iterations < 1:
            raise ValueError("iterations must be at least 1")
        if not 0.0 < self.cooling_factor < 1.0:
            raise ValueError("cooling factor must lie in (0, 1)")
        if self.cooling_period < 1:
            raise ValueError("cooling period must be at least 1")
        if not (_is_finite(self.initial_temperature) and self.initial_temperature > 0.0):
            raise ValueError(f"initial temperature must be positive and finite, got {self.initial_temperature}")
        forecast._require_grid_step(self.grid_step)


@dataclass
class SolveReport:
    """Everything a run produced, including per-iteration traces.

    ``best_iteration`` is the first iteration whose candidate reached
    ``best_meo`` (0 when no candidate beat the initial schedule).
    ``initial_feasible`` is whether the initial schedule keeps every
    surgeon's overtime cap.  ``infeasible`` counts the candidates rejected
    unevaluated because a surgeon's overtime exceeded its cap; their
    ``meo_trace`` entries are None, and ``accepted + rejected + infeasible``
    is the iteration count.
    ``acceptance_by_epoch`` is the accepted share of the candidates tried in
    each ``cooling_period`` of iterations, the last one possibly partial.
    ``construct_seconds`` and ``kernel_seconds`` are the parts of
    ``wall_clock_seconds`` spent building schedules and in the MEO kernel
    (its tables included); ``best_found_seconds`` is when, into the run, the
    best candidate was evaluated (0 when none beat the initial schedule).
    """

    best_schedule: Schedule
    best_sequence: list[str]
    best_meo: float
    initial_meo: float
    initial_feasible: bool
    meo_trace: list[float | None] = field(repr=False)
    best_trace: list[float | None] = field(repr=False)
    accepted_trace: list[bool] = field(repr=False)
    accepted: int = 0
    rejected: int = 0
    infeasible: int = 0
    best_iteration: int = 0
    acceptance_by_epoch: list[float] = field(default_factory=list)
    wall_clock_seconds: float = 0.0
    construct_seconds: float = 0.0
    kernel_seconds: float = 0.0
    best_found_seconds: float = 0.0
    config: SAConfig | None = None


class _Workspace:
    """Per-instance lists for the schedule builder.

    ``room[p]`` and ``surgeon[p]`` number the OR and surgeon chains patient
    p belongs to; sequence order alone then decides each chain's order.
    ``surgeon_shift_end[s]`` and ``surgeon_cap[s]`` are surgeon chain s's
    shift end and overtime cap (constraint 4), as ``check_feasibility`` has
    them.  Take a day's workspace from ``of``.
    """

    def __init__(self, instance: Instance):
        patients = instance.patients
        self.n = len(patients)
        self.ids = [p.id for p in patients]
        self.index = {pid: i for i, pid in enumerate(self.ids)}
        self.duration = [float(p.expected_duration) for p in patients]
        self.setup = [float(p.setup) for p in patients]
        self.cleanup = [float(p.cleanup) for p in patients]
        self.shift_start = [float(max(0.0, instance.surgeon_by_id[p.surgeon_id].shift_start))
                         for p in patients]
        self.or_close = float(instance.or_open_hours)
        rooms = {or_id: k for k, or_id in enumerate(instance.patients_by_or)}
        surgeons = {sid: k for k, sid in enumerate(instance.patients_by_surgeon)}
        self.room = [rooms[p.or_id] for p in patients]
        self.surgeon = [surgeons[p.surgeon_id] for p in patients]
        self.room_count, self.surgeon_count = len(rooms), len(surgeons)
        shifts = [instance.surgeon_by_id[sid] for sid in surgeons]
        self.surgeon_shift_end = [s.shift_end for s in shifts]
        self.surgeon_cap = [_overtime_cap(instance, s) for s in shifts]

    @classmethod
    def of(cls, instance: Instance) -> "_Workspace":
        """The day's workspace, built once and kept on its recovery rows.

        The rows are keyed on the patients; the workspace also on the
        surgeons, which number the chains, and the OR hours.
        """
        rows = forecast.RecoveryRows.of(instance.patients)
        key = (tuple(instance.surgeons), instance.or_open_hours)
        if rows.workspace is None or rows.workspace[0] != key:
            rows.workspace = (key, cls(instance))
        return rows.workspace[1]


def _construct_starts(ws: _Workspace, order: Sequence[int],
                      rng: np.random.Generator | None) -> tuple[list[float], float]:
    """Two-pass chain propagation; one uniform draw per patient when rng is given.

    ``cap_*`` hold, per chain, the latest start (less setup) of the chain's
    next patient, ``floor_*`` the realised finish (plus cleanup) of its last.
    No patient starts before its surgeon's shift, whatever its predecessors.
    Also returns the largest excess of a surgeon's overtime over its cap, 0.0
    when none: a surgeon chain's last patient ends last (see the module
    docstring), so ``finish`` ends with the surgeon's latest end, the very
    float ``compute_overtime`` takes the max of.
    """
    duration, setup, cleanup, room, surgeon = ws.duration, ws.setup, ws.cleanup, ws.room, ws.surgeon
    shift_start, inf = ws.shift_start, math.inf
    # Comparisons of locals stand in for min and max, which cost a builtin
    # call each; like them, they keep the first argument on a tie.
    latest = [ws.or_close] * ws.n
    cap_room, cap_surgeon = [inf] * ws.room_count, [inf] * ws.surgeon_count
    for p in reversed(order):
        r, s = room[p], surgeon[p]
        cap, other = cap_room[r], cap_surgeon[s]
        if other < cap:
            cap = other
        if cap < inf:
            latest[p] = cap - cleanup[p]
        cap_room[r] = cap_surgeon[s] = latest[p] - duration[p] - setup[p]
    draws = rng.random(ws.n).tolist() if rng is not None else [0.0] * ws.n
    floor_room, floor_surgeon = [-inf] * ws.room_count, [-inf] * ws.surgeon_count
    finish = [-inf] * ws.surgeon_count
    starts = [0.0] * ws.n
    for p, u in zip(order, draws):
        r, s = room[p], surgeon[p]
        floor, other = floor_room[r], floor_surgeon[s]
        if other > floor:
            floor = other
        earliest = floor + setup[p]
        if shift_start[p] > earliest:
            earliest = shift_start[p]
        slack = u * (latest[p] - earliest - duration[p])
        # max(0.0, slack), which keeps 0.0 for a slack of -0.0
        start = earliest + (slack if slack > 0.0 else 0.0)
        starts[p] = start
        # later patients chain off the realised start
        finish[s] = end = start + duration[p]
        floor_room[r] = floor_surgeon[s] = end + cleanup[p]
    # An overtime of at most zero falls short of its cap, which is positive.
    excess = 0.0
    for last, shift_end, cap in zip(finish, ws.surgeon_shift_end, ws.surgeon_cap):
        if last - shift_end - cap > excess:
            excess = last - shift_end - cap
    return starts, excess


def construct_schedule(instance: Instance, sequence: Sequence[str],
                       rng: np.random.Generator | None = None) -> Schedule:
    """Build a schedule for the given patient sequence.

    With ``rng`` omitted every patient is packed at its earliest start.
    Every rule but the overtime cap holds by construction: insufficient
    slack turns into overtime, and a surgeon whose cases wait behind other
    surgeons' cases in a shared OR can exceed the cap (constraint 4).
    """
    ws = _Workspace.of(instance)
    if len(sequence) != ws.n or {*sequence} != {*ws.ids}:
        raise ValueError("sequence must be a permutation of the instance's patient ids")
    starts, _ = _construct_starts(ws, [ws.index[pid] for pid in sequence], rng)
    return Schedule(starts=dict(zip(ws.ids, starts)))


def baseline_schedule(instance: Instance) -> Schedule:
    """Deterministic earliest-start packing in input order; the comparison anchor."""
    return construct_schedule(instance, instance.patient_ids, rng=None)


def _draw_swap(n: int, rng: np.random.Generator) -> tuple[int, int]:
    i, j = rng.choice(n, size=2, replace=False)
    return int(i), int(j)


def simulated_annealing(instance: Instance, config: SAConfig | None = None) -> SolveReport:
    """Minimise peak expected recovery occupancy over patient sequences.

    The incumbent starts as the input-order earliest-start packing.  Each
    iteration swaps two random patients, rebuilds the schedule with random
    slack placement, and applies the Metropolis rule: accept improvements
    always, worsenings with probability exp(-delta / temperature).  A
    candidate that exceeds a surgeon's overtime cap is rejected before the
    MEO kernel and draws no acceptance number; while the incumbent is such a
    schedule (an infeasible input-order packing), the first feasible
    candidate is accepted.  The best is the best feasible candidate, or the
    input-order packing when no schedule tried was feasible.  Fully
    deterministic for a given seed: one generator drives swap choices,
    slack draws, and acceptance draws.
    """
    config = config or SAConfig()
    clock = time.perf_counter
    started = clock()
    ws = _Workspace.of(instance)
    rng = np.random.default_rng(config.seed)

    order = list(range(ws.n))
    tick = clock()
    current_starts, excess = _construct_starts(ws, order, None)
    built = clock()
    kernel = forecast.RecoveryRows.of(instance.patients).kernel(config.grid_step, instance.day_hours)
    initial = kernel.peak(current_starts)
    done = clock()
    construct_seconds, kernel_seconds, best_found = built - tick, done - built, 0.0
    # An infeasible incumbent counts as infinitely bad, so any feasible candidate replaces it.
    initial_feasible = excess <= FEASIBILITY_EPS
    current = initial if initial_feasible else math.inf
    best, best_starts, best_order, best_iteration = current, current_starts, order, 0

    meo_trace: list[float | None] = []
    best_trace: list[float | None] = []
    accepted_trace: list[bool] = []
    accepted = rejected = infeasible = 0
    temperature = config.initial_temperature

    for iteration in range(1, config.iterations + 1):
        candidate_order = order
        if ws.n >= 2:
            i, j = _draw_swap(ws.n, rng)
            candidate_order = order.copy()
            candidate_order[i], candidate_order[j] = candidate_order[j], candidate_order[i]
        tick = clock()
        candidate_starts, excess = _construct_starts(ws, candidate_order, rng)
        built = clock()
        construct_seconds += built - tick
        if excess > FEASIBILITY_EPS:
            candidate, take = None, False
            infeasible += 1
        else:
            candidate = kernel.peak(candidate_starts)
            done = clock()
            kernel_seconds += done - built
            delta = candidate - current
            take = delta <= 0.0 or rng.random() < math.exp(-delta / temperature)
            if take:
                order, current = candidate_order, candidate
                accepted += 1
            else:
                rejected += 1
            if candidate < best:
                best, best_starts, best_order = candidate, candidate_starts, candidate_order
                best_iteration, best_found = iteration, done - started
        meo_trace.append(candidate)
        best_trace.append(best if best < math.inf else None)
        accepted_trace.append(take)
        if iteration % config.cooling_period == 0:
            temperature *= config.cooling_factor

    if best == math.inf:
        best = initial
    schedule = Schedule(starts=dict(zip(ws.ids, best_starts)))
    period = config.cooling_period
    epochs = [accepted_trace[k:k + period] for k in range(0, len(accepted_trace), period)]
    return SolveReport(
        best_schedule=schedule,
        best_sequence=[ws.ids[i] for i in best_order],
        best_meo=best,
        initial_meo=initial,
        initial_feasible=initial_feasible,
        meo_trace=meo_trace,
        best_trace=best_trace,
        accepted_trace=accepted_trace,
        accepted=accepted,
        rejected=rejected,
        infeasible=infeasible,
        best_iteration=best_iteration,
        acceptance_by_epoch=[sum(epoch) / len(epoch) for epoch in epochs],
        wall_clock_seconds=clock() - started,
        construct_seconds=construct_seconds,
        kernel_seconds=kernel_seconds,
        best_found_seconds=best_found,
        config=config,
    )
