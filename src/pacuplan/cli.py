"""Command-line pipeline: generate | forecast | optimize | validate | sweep.

Exit codes: 0 on success, 2 for input validation problems and for paths
that cannot be read or written, 1 for anything unexpected.  Every command
is deterministic under a fixed --seed and writes a .manifest.json next to
its primary output recording the resolved configuration and timing.
"""
from __future__ import annotations

import argparse
import csv
import dataclasses
import itertools
import sys
import time
import traceback
from pathlib import Path

import numpy as np

from . import __version__, io
from .model import Instance, Schedule, _require_complete, check_feasibility
from .simulation import (BIAS_FLOOR, SAMPLING_MODES, GenSpec, coverage_stats,
                         generate_instance, monte_carlo_curve)
from .solver import SAConfig, simulated_annealing
from . import forecast


def _manifest(args: argparse.Namespace, config: dict, inputs: list[str],
              outputs: list[str], started: float, **measured) -> None:
    """Write the run's manifest; ``measured`` holds its timings and rates, such as ``timings_s``."""
    io.write_manifest(outputs[0], command=args.command, version=__version__,
                      seed=getattr(args, "seed", None), config=config, inputs=inputs,
                      outputs=outputs, wall_clock_seconds=time.perf_counter() - started,
                      **measured)


def _read_schedule_of(instance: Instance, path: str) -> Schedule:
    """Read a schedule file, rejecting it unless it times exactly the instance's patients."""
    schedule = io.read_schedule(path)
    try:
        _require_complete(instance, schedule)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    return schedule


def cmd_generate(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    # Each flag's dest is its GenSpec field; flags that were given win over the spec file.
    flags = {f.name: getattr(args, f.name) for f in dataclasses.fields(GenSpec)
             if getattr(args, f.name, None) is not None}
    spec = io.read_record(args.spec, GenSpec, **flags) if args.spec else GenSpec(**flags)
    args.seed = spec.seed  # the manifest records the resolved seed
    spec_done = time.perf_counter()
    instance = generate_instance(spec)
    generate_done = time.perf_counter()
    io.write_instance(instance, args.out)
    write_done = time.perf_counter()
    print(f"wrote {args.out}: {len(instance.patients)} patients, "
          f"{len(instance.surgeons)} surgeons, {instance.or_count} ORs, "
          f"{instance.recovery_count()} needing recovery, "
          f"ORs open {instance.or_open_hours} h of a {instance.day_hours} h day")
    _manifest(args, dataclasses.asdict(spec), [args.spec] if args.spec else [], [args.out],
              started,
              timings_s={"spec": spec_done - started, "generate": generate_done - spec_done,
                         "write": write_done - generate_done})
    return 0


def cmd_forecast(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    instance = io.read_instance(args.instance)
    schedule = _read_schedule_of(instance, args.schedule)
    starts = [schedule.starts[p.id] for p in instance.patients]
    read_done = time.perf_counter()
    curve = forecast.occupancy_curve(instance.patients, starts,
                                     grid_step=args.grid_step, horizon=instance.day_hours)
    forecast_done = time.perf_counter()
    io.write_occupancy_csv(curve, args.out)
    write_done = time.perf_counter()
    print(f"wrote {args.out}: {curve.times.size} grid points, "
          f"peak expected occupancy {curve.peak():.4f}")
    _manifest(args, {"grid_step": args.grid_step},
              [args.instance, args.schedule], [args.out], started,
              timings_s={"read": read_done - started, "forecast": forecast_done - read_done,
                         "write": write_done - forecast_done})
    return 0


def cmd_optimize(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    if args.replicas < 1:
        raise ValueError("need at least one replica")
    config = SAConfig(**{f.name: getattr(args, f.name) for f in dataclasses.fields(SAConfig)})
    instance = io.read_instance(args.instance)
    read_done = time.perf_counter()
    reports = [simulated_annealing(instance, dataclasses.replace(config, seed=config.seed + i))
               for i in range(args.replicas)]
    anneal_done = time.perf_counter()
    # Annealing splits into schedule construction, the MEO kernel and the rest
    # of the search (swaps, the Metropolis rule, traces), summed over replicas.
    anneal_s = anneal_done - read_done
    construct_s = sum(r.construct_seconds for r in reports)
    kernel_s = sum(r.kernel_seconds for r in reports)
    # Every replica starts from the baseline, the input-order earliest-start packing.
    base_meo, base_feasible = reports[0].initial_meo, reports[0].initial_feasible
    winner = min(range(len(reports)), key=lambda i: (reports[i].best_meo, i))
    best = reports[winner]
    violations = check_feasibility(instance, best.best_schedule)
    if violations:
        first = violations[0]
        raise ValueError(f"{args.instance}: the best schedule found is infeasible, "
                         f"{len(violations)} violation(s); constraint {first.constraint}: "
                         f"{first.message}")
    check_done = time.perf_counter()

    io.write_schedule(best.best_schedule, args.out)
    report_path = Path(args.out).with_name(Path(args.out).stem + ".report.json")
    # No reduction is measured against a packing that breaks an overtime cap.
    reduction = None if not base_feasible else (
        100.0 * (base_meo - best.best_meo) / base_meo if base_meo > 0 else 0.0)
    knobs = {k: v for k, v in dataclasses.asdict(config).items() if k != "seed"}
    io.write_json({
        "baseline_meo": base_meo,
        "baseline_feasible": base_feasible,
        "initial_meo": best.initial_meo,
        "best_meo": best.best_meo,
        "reduction_vs_baseline_pct": reduction,
        "best_sequence": best.best_sequence,
        "accepted": best.accepted,
        "rejected": best.rejected,
        "infeasible": best.infeasible,
        "best_iteration": best.best_iteration,
        "acceptance_by_epoch": best.acceptance_by_epoch,
        "seed": best.config.seed,
        "config": knobs,
        "replicas": [{"seed": r.config.seed, "best_meo": r.best_meo,
                      "initial_meo": r.initial_meo} for r in reports],
        "meo_trace": best.meo_trace,
        "best_trace": best.best_trace,
    }, report_path)
    write_done = time.perf_counter()
    print(f"wrote {args.out} and {report_path}")
    change = (f"{reduction:.1f}% reduction" if base_feasible
              else "no reduction: the baseline breaks an overtime cap")
    print(f"baseline MEO {base_meo:.4f} -> best {best.best_meo:.4f} "
          f"({change}, {args.replicas} replica(s), "
          f"{sum(r.wall_clock_seconds for r in reports):.2f} s annealing)")
    _manifest(args, {**knobs, "replicas": args.replicas},
              [args.instance], [args.out, str(report_path)], started,
              timings_s={"read": read_done - started, "construct": construct_s,
                         "kernel": kernel_s, "search": anneal_s - construct_s - kernel_s,
                         "check": check_done - anneal_done, "write": write_done - check_done},
              evaluations_per_s=config.iterations * args.replicas / anneal_s,
              best_found_s=best.best_found_seconds)
    return 0


def cmd_validate(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    if args.seed < 0:
        raise ValueError(f"seed must be non-negative, got {args.seed}")
    instance = io.read_instance(args.instance)
    schedule = _read_schedule_of(instance, args.schedule)
    if args.samples == 1:
        print("warning: a single sample gives degenerate statistics (zero variance)",
              file=sys.stderr)
    read_done = time.perf_counter()
    empirical = monte_carlo_curve(instance, schedule, args.samples,
                                  grid_step=args.grid_step, mode=args.mode,
                                  rng=np.random.default_rng(args.seed))
    sampling_done = time.perf_counter()
    stats = coverage_stats(empirical)
    io.write_json({"mode": args.mode, **dataclasses.asdict(stats)}, args.out)
    write_done = time.perf_counter()
    print(f"wrote {args.out}")
    print(f"mode={args.mode} samples={stats.n_samples}: "
          f"mean |error| vs analytic mean {stats.mean_abs_error:.4f}; "
          f"band coverage {stats.fraction_inside:.3%} inside "
          f"({stats.fraction_above:.3%} above, {stats.fraction_below:.3%} below)")
    print(f"max |bias| {stats.max_abs_bias:.4f} at t = {stats.max_bias_time:g} h; "
          f"{stats.fraction_within_3se:.1%} of grid points within 3 SE + {BIAS_FLOOR:g}")
    sampling_s = sampling_done - read_done
    _manifest(args, {"samples": args.samples, "mode": args.mode, "grid_step": args.grid_step},
              [args.instance, args.schedule], [args.out], started,
              timings_s={"read": read_done - started, "sampling": sampling_s,
                         "write": write_done - sampling_done},
              samples_per_s=args.samples / sampling_s)
    return 0


def _int_list(text: str) -> list[int]:
    return [int(x) for x in text.split(",") if x]


def _float_list(text: str) -> list[float]:
    return [float(x) for x in text.split(",") if x]


def cmd_sweep(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    if args.reps < 1:
        raise ValueError("need at least one repetition per cell")
    for flag, grid in (("--iteration-grid", args.iteration_grid),
                       ("--factor-grid", args.factor_grid), ("--period-grid", args.period_grid)):
        if not grid:
            raise ValueError(f"{flag} needs at least one value")
    instance_paths = sorted(p for p in Path(args.instances).glob("*.json")
                            if not p.name.endswith(".manifest.json"))
    if not instance_paths:
        raise ValueError(f"no instance files found in {args.instances}")
    instances = [io.read_instance(p) for p in instance_paths]
    read_done = time.perf_counter()

    cells = list(itertools.product(args.iteration_grid, args.factor_grid, args.period_grid))
    # Instances outermost, so that each one's MEO kernel is built once; every
    # (cell, rep) total still adds the instances' best MEOs in instance order.
    totals = [[0.0] * args.reps for _ in cells]
    for inst in instances:
        for (iterations, factor, period), cell_totals in zip(cells, totals):
            for rep in range(args.reps):
                config = SAConfig(iterations=iterations, cooling_factor=factor,
                                  cooling_period=period, grid_step=args.grid_step,
                                  seed=args.seed + rep)
                cell_totals[rep] += simulated_annealing(inst, config).best_meo
    results = [(*cell, float(np.mean(cell_totals))) for cell, cell_totals in zip(cells, totals)]
    anneal_done = time.perf_counter()

    best_row = min(range(len(results)), key=lambda i: (results[i][3], i))
    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["iterations", "cooling_factor", "cooling_period",
                         "mean_total_best_meo", "best"])
        for i, (iterations, factor, period, mean_total) in enumerate(results):
            writer.writerow([iterations, float(factor), int(period),
                             float(mean_total), int(i == best_row)])
    write_done = time.perf_counter()
    iterations, factor, period, mean_total = results[best_row]
    print(f"wrote {args.out}: {len(results)} cells x {args.reps} rep(s) "
          f"on {len(instances)} instance(s)")
    print(f"best cell: iterations={iterations} factor={factor} period={period} "
          f"(mean summed best MEO {mean_total:.4f})")
    _manifest(args, {"iteration_grid": args.iteration_grid, "factor_grid": args.factor_grid,
                     "period_grid": args.period_grid, "reps": args.reps,
                     "grid_step": args.grid_step},
              [str(p) for p in instance_paths], [args.out], started,
              timings_s={"read": read_done - started, "anneal": anneal_done - read_done,
                         "write": write_done - anneal_done})
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pacuplan",
        description="Forecast recovery-bed occupancy and optimise surgical case sequences.")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    grid = argparse.ArgumentParser(add_help=False)
    grid.add_argument("--grid-step", type=float, default=forecast.GRID_STEP)

    p = sub.add_parser("generate", help="write a synthetic instance file")
    p.add_argument("--spec", help="JSON file of generator fields (ranges etc.)")
    p.add_argument("--patients", dest="patient_count", type=int, default=None)
    p.add_argument("--surgeons", dest="surgeon_count", type=int, default=None)
    p.add_argument("--ors", dest="or_count", type=int, default=None)
    p.add_argument("--recovery-fraction", type=float, default=None)
    p.add_argument("--or-hours", dest="or_open_hours", type=float, default=None)
    p.add_argument("--day-hours", type=float, default=None)
    p.add_argument("--seed", type=int, default=None, help="default: the spec file's seed, else 0")
    p.add_argument("--out", default="instance.json")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("forecast", parents=[grid], help="occupancy curve CSV for a schedule")
    p.add_argument("instance")
    p.add_argument("schedule")
    p.add_argument("--out", default="occupancy.csv")
    p.set_defaults(func=cmd_forecast)

    defaults = SAConfig()
    p = sub.add_parser("optimize", help="anneal a schedule that levels recovery occupancy")
    p.add_argument("instance")
    for f in dataclasses.fields(SAConfig):
        default = getattr(defaults, f.name)
        p.add_argument("--" + f.name.replace("_", "-"), type=type(default), default=default)
    p.add_argument("--replicas", type=int, default=1,
                   help="independent runs with seeds seed, seed+1, ...; best kept")
    p.add_argument("--out", default="schedule.json")
    p.set_defaults(func=cmd_optimize)

    p = sub.add_parser("validate", parents=[grid],
                       help="Monte Carlo check of the analytic occupancy model")
    p.add_argument("instance")
    p.add_argument("schedule")
    p.add_argument("--samples", type=int, default=100_000)
    p.add_argument("--mode", choices=SAMPLING_MODES, default="true",
                   help="true: independent surgery and recovery draws, checked against the "
                        "exact convolved curve; matched: draws from the moment-matched "
                        "lognormal, checked against the paper's forecast")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="validation.json")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("sweep", parents=[grid],
                       help="grid-sweep annealing parameters over instances")
    p.add_argument("instances", help="directory of instance JSON files")
    p.add_argument("--iteration-grid", type=_int_list, default=[1000, 2000, 3000])
    p.add_argument("--factor-grid", type=_float_list, default=[0.85, 0.90, 0.95])
    p.add_argument("--period-grid", type=_int_list, default=[50, 100, 200])
    p.add_argument("--reps", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="sweep.csv")
    p.set_defaults(func=cmd_sweep)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception:  # pragma: no cover - defensive
        traceback.print_exc()
        return 1


if __name__ == "__main__":
    sys.exit(main())
