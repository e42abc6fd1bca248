"""The benchmark's workloads and the checks on every output they produce.

Each workload is a fixed day file, an optional set-up schedule, and a pass:
the CLI commands (and, on ``scaled-day``, one in-process risk sweep) that a
user would run on that day, in order.  The run seed only picks the seeds of
the annealing and sampling streams, so the program sees the same day on
every seed and the spread across seeds is that of the searches and samples.
"""
from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path

# The paper's day: GenSpec defaults (61 patients, 35 surgeons, 21 ORs, 45 in recovery).
PAPER_DAY = ("--seed", "0")
PAPER_SHAPE = (61, 35, 21, 45)
# The same ratios at 1000 patients (738 in recovery).
SCALED_DAY = ("--seed", "0", "--patients", "1000", "--surgeons", "574", "--ors", "344")
SCALED_SHAPE = (1000, 574, 344, 738)
# Annealing budget on the 1000-patient day, sized so a pass takes a few seconds.
SCALED_ITERATIONS = 100
VALIDATE_SAMPLES = 100_000
GRID_POINTS = 241  # the default 0.1 h grid over the 24 h day


@dataclass(frozen=True)
class Step:
    metric: str      # per-command metric this step's wall time is reported under
    argv: tuple      # CLI arguments; empty for the in-process risk sweep


@dataclass(frozen=True)
class Workload:
    name: str
    day: tuple
    shape: tuple
    setup_optimize: bool
    steps: tuple


def workloads(seed: int) -> dict[str, Workload]:
    s = str(seed)
    optimize = ("optimize", "day.json", "--seed", s, "--out", "schedule.json")
    forecast = ("forecast", "day.json", "schedule.json", "--out", "forecast.csv")
    validate = ("validate", "day.json", "schedule.json", "--seed", s,
                "--samples", str(VALIDATE_SAMPLES))
    return {w.name: w for w in (
        Workload("paper-day", PAPER_DAY, PAPER_SHAPE, False, (
            Step("generate_s", ("generate", *PAPER_DAY, "--out", "day.json")),
            Step("optimize_s", optimize),
            Step("forecast_s", forecast),
        )),
        Workload("scaled-day", SCALED_DAY, SCALED_SHAPE, False, (
            Step("optimize_s", (*optimize, "--iterations", str(SCALED_ITERATIONS))),
            Step("forecast_s", forecast),
            Step("tail_sweep_s", ()),
        )),
        Workload("validate", PAPER_DAY, PAPER_SHAPE, True, (
            Step("validate_true_s", (*validate, "--mode", "true", "--out", "true.json")),
            Step("validate_matched_s", (*validate, "--mode", "matched", "--out", "matched.json")),
        )),
    )}


class CheckFailed(Exception):
    """An output of the program is wrong."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _same(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-12)


def check_day(pacuplan, path: Path, shape: tuple):
    instance = pacuplan.io.read_instance(path)
    got = (len(instance.patients), len(instance.surgeons), instance.or_count,
           instance.recovery_count())
    _require(got == shape, f"{path.name}: day shape {got}, expected {shape}")
    return instance


def check_schedule(pacuplan, instance, work: Path) -> dict:
    """Feasible schedule whose reported best MEO recomputes exactly; returns the report."""
    schedule = pacuplan.io.read_schedule(work / "schedule.json")
    report = json.loads((work / "schedule.report.json").read_text())
    violations = pacuplan.model.check_feasibility(instance, schedule)
    _require(violations == [], f"schedule infeasible: {len(violations)} violation(s), "
                               f"first: {violations[:1]}")
    recomputed = pacuplan.model.max_expected_occupancy(instance, schedule)
    _require(_same(report["best_meo"], recomputed),
             f"report best_meo {report['best_meo']!r} != recomputed {recomputed!r}")
    base = report["baseline_meo"]
    _require(_same(report["reduction_vs_baseline_pct"], 100.0 * (base - recomputed) / base),
             "report reduction_vs_baseline_pct disagrees with its MEOs")
    _require(sorted(report["best_sequence"]) == sorted(instance.patient_ids),
             "report best_sequence is not a permutation of the day's patients")
    return report


def check_forecast(path: Path, best_meo: float) -> float:
    """Forecast CSV on the full grid, band around the mean, peak equal to best_meo."""
    with open(path, newline="") as fh:
        rows = [{k: float(v) for k, v in row.items()} for row in csv.DictReader(fh)]
    _require(len(rows) == GRID_POINTS, f"{path.name}: {len(rows)} rows, expected {GRID_POINTS}")
    _require(all(r["lower"] <= r["mean"] <= r["upper"] for r in rows),
             f"{path.name}: mean outside its band")
    peak = max(r["mean"] for r in rows)
    _require(_same(peak, best_meo), f"{path.name}: peak {peak!r} != best_meo {best_meo!r}")
    return peak


def check_validation(path: Path, mode: str) -> dict:
    result = json.loads(path.read_text())
    total = result["fraction_above"] + result["fraction_below"] + result["fraction_inside"]
    _require(abs(total - 1.0) <= 1e-9, f"{path.name}: fractions sum to {total!r}")
    _require(result["mode"] == mode and result["n_samples"] == VALIDATE_SAMPLES
             and result["n_points"] == GRID_POINTS, f"{path.name}: wrong mode or counts")
    _require(math.isfinite(result["mean_abs_error"]) and result["mean_abs_error"] >= 0.0,
             f"{path.name}: bad mean_abs_error")
    return result


def tail_inputs(pacuplan, instance, work: Path, peak: float):
    """Starts, grid times and k = ceil(forecast peak) for the risk sweep."""
    schedule = pacuplan.io.read_schedule(work / "schedule.json")
    starts = [schedule.starts[p.id] for p in instance.patients]
    return starts, pacuplan.forecast.time_grid(0.1, instance.day_hours), math.ceil(peak)


def tail_sweep(pacuplan, instance, starts, times, k: int) -> list[float]:
    """P(more than k patients in recovery) at every grid time, by the exact tail."""
    return [1.0 - pacuplan.forecast.exact_occupancy_cdf(instance.patients, starts, t, k)
            for t in times]


def _risk_by_dp(pacuplan, instance, starts, t: float, k: int) -> float:
    """P(more than k in recovery at t) by the O(n*k) recurrence, kept here as an independent oracle."""
    cdf = pacuplan.distributions.lognormal_cdf
    f = [1.0] + [0.0] * k
    for p, z in zip(instance.patients, starts):
        if not p.needs_recovery:
            continue
        q = min(1.0, max(0.0, cdf(t - z, p.surgery) - cdf(t - z, p.combined)))
        for j in range(k, 0, -1):
            f[j] = f[j] * (1.0 - q) + f[j - 1] * q
        f[0] *= 1.0 - q
    return 1.0 - min(1.0, sum(f))


def check_tail(pacuplan, instance, risks: list[float], starts, times, k: int) -> None:
    """Risks are probabilities; the highest and two other points match the DP oracle."""
    _require(len(risks) == len(times) and all(0.0 <= r <= 1.0 for r in risks),
             "tail sweep: a risk is outside [0, 1]")
    top = max(range(len(risks)), key=risks.__getitem__)
    for i in sorted({top, len(risks) // 3, 2 * len(risks) // 3}):
        oracle = _risk_by_dp(pacuplan, instance, starts, float(times[i]), k)
        _require(abs(oracle - risks[i]) <= 1e-9,
                 f"tail sweep at t={times[i]:.1f}: DFT {risks[i]!r} vs DP {oracle!r}")
