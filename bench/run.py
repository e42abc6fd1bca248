"""pacuplan benchmark: times the CLI end to end and, traced, layer by layer.

Usage, from the root of a checkout:

    python3 bench/run.py --workload paper-day --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1

Each run sets up its workload's day, then repeats the workload's pass (the
CLI commands a user runs on that day, each as a fresh process) in a closed
loop, one command at a time, until ``--seconds`` have passed; the last pass
started always completes.  Every output is checked.  ``--trace 0`` reports
the end-to-end metrics; ``--trace 1`` runs the pass in-process instead,
each step untraced and then traced, and reports per-layer metrics from the
spans.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""
from __future__ import annotations

import argparse
import contextlib
import io as _io
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
from scipy.special import erf

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path.insert(0, str(BENCH))

import pipeline  # noqa: E402
from pipeline import CheckFailed  # noqa: E402
from tracing import Tracer  # noqa: E402

HARD_LIMIT_S = 170.0   # every run ends well inside the 180 s allowed
SETUP_REPEATS = 3      # setup_s samples before the first pass; one more precedes each pass
IMPORT_REPEATS = 5     # fresh interpreters timed for cli.import_s
PROBE_REPEATS = 7

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}  # a --trace 0 run's metrics
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}    # a --trace 1 run's metrics
# Per-layer metrics measured outside the traced passes; the rest come from spans.
MEASURED_DIRECTLY = ("cli.import_s", "io.read_instance_ms", "solver.construct_us",
                     "machine.probe_us", "machine.probe_end_us", "trace.overhead_pct")
COUNTS = ("forecast.kernel_calls", "distributions.pb_calls", "solver.accept_ratio",
          "solver.best_iter")


def machine_probe_us() -> float:
    """Median time of a fixed numpy/scipy/bytecode loop that no pacuplan change can move."""
    x = np.linspace(-3.0, 3.0, 45 * 241).reshape(45, 241)
    samples = []
    for _ in range(PROBE_REPEATS):
        start = time.perf_counter()
        for _ in range(20):
            erf(x)
            np.log(x * x + 1.0).sum()
        total = 0
        for i in range(20_000):
            total += i * i
        samples.append((time.perf_counter() - start) * 1e6)
    return statistics.median(samples)


class Run:
    """One benchmark run: its work directory, deadline, operation tally and samples."""

    def __init__(self, workload: pipeline.Workload, seed: int, seconds: int):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.started = time.perf_counter()
        self.work = ROOT / ".bench_work" / f"{workload.name}-seed{seed}-{os.getpid()}"
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])]))
        self.attempted = 0
        self.failed = 0
        self.samples: dict[str, list[float]] = {}
        self.values: dict[str, float] = {}
        self.peak_rss_kib = 0
        self.report: dict | None = None
        self.instance = None
        self.day_bytes = b""

    def add(self, metric: str, value: float) -> None:
        self.samples.setdefault(metric, []).append(value)

    def python(self, args: list[str]) -> tuple[float, int, str]:
        """Run a fresh interpreter in the work directory; (wall s, max RSS KiB, stdout)."""
        timeout = max(1.0, HARD_LIMIT_S - (time.perf_counter() - self.started))
        log = self.work / "child.log"
        with open(log, "wb") as out:
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable, *args], cwd=self.work, env=self.env,
                                    stdout=out, stderr=subprocess.STDOUT)
            timer = threading.Timer(timeout, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            elapsed = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        text = log.read_text(errors="replace")
        if proc.returncode != 0:
            raise CheckFailed(f"`{' '.join(args)}` exited {proc.returncode}: {text[-400:]}")
        return elapsed, usage.ru_maxrss, text

    def cli(self, argv: tuple) -> float:
        elapsed, rss_kib, _ = self.python(["-m", "pacuplan.cli", *argv])
        self.peak_rss_kib = max(self.peak_rss_kib, rss_kib)
        return elapsed

    def operation(self, fn, *args):
        """Count one operation; a non-zero exit or a failed output check counts as failed."""
        self.attempted += 1
        try:
            return fn(*args)
        except Exception as exc:
            self.failed += 1
            if isinstance(exc, CheckFailed):
                raise
            raise CheckFailed(f"{type(exc).__name__}: {exc}") from exc


def load_program():
    """Import pacuplan from this checkout's src/, and from nowhere else."""
    if not (SRC / "pacuplan" / "cli.py").is_file():
        raise SystemExit(f"error: no program to benchmark: {SRC / 'pacuplan'} is missing")
    sys.path.insert(0, str(SRC))
    import pacuplan
    import pacuplan.cli  # noqa: F401  (loads every module the tracer wraps)
    if Path(pacuplan.__file__).resolve().parent != (SRC / "pacuplan").resolve():
        raise SystemExit(f"error: imported pacuplan from {pacuplan.__file__}, not {SRC}")
    return pacuplan


def set_up(run: Run, pacuplan) -> None:
    """Write the day (and, on validate, the schedule under test); untimed."""
    w = run.workload

    def generate():
        run.cli(("generate", *w.day, "--out", "day.json"))
        return pipeline.check_day(pacuplan, run.work / "day.json", w.shape)

    def optimize():
        run.cli(("optimize", "day.json", "--seed", str(run.seed), "--out", "schedule.json"))
        return pipeline.check_schedule(pacuplan, run.instance, run.work)

    run.instance = run.operation(generate)
    run.day_bytes = (run.work / "day.json").read_bytes()
    if w.setup_optimize:
        run.report = run.operation(optimize)


def one_pass(run: Run, pacuplan, execute, tracer=None, label: str = "") -> float:
    """Run the workload's steps once, checking each output; returns the pass wall time."""
    total = 0.0
    for step in run.workload.steps:
        elapsed = run.operation(run_step, run, pacuplan, execute, step, tracer, label)
        run.add(step.metric, elapsed)
        total += elapsed
    return total


def run_step(run: Run, pacuplan, execute, step: pipeline.Step, tracer, label: str) -> float:
    """Run one step and check its output; returns the step's wall time.

    With a tracer, only the timed call records spans, not the checks around it.
    """
    def record(on: bool) -> None:
        if tracer is not None:
            tracer.step = f"{label}/{step.metric}" if on else None

    if not step.argv:
        inputs = pipeline.tail_inputs(pacuplan, run.instance, run.work,
                                      run.values["forecast_peak"])
        record(True)
        start = time.perf_counter()
        risks = pipeline.tail_sweep(pacuplan, run.instance, *inputs)
        elapsed = time.perf_counter() - start
        record(False)
        pipeline.check_tail(pacuplan, run.instance, risks, *inputs)
        return elapsed
    record(True)
    elapsed = execute(step.argv)
    record(False)
    check_step(run, pacuplan, step)
    return elapsed


def check_step(run: Run, pacuplan, step: pipeline.Step) -> None:
    work = run.work
    if step.metric == "generate_s":
        pipeline.check_day(pacuplan, work / "day.json", run.workload.shape)
        if (work / "day.json").read_bytes() != run.day_bytes:
            raise CheckFailed("generate: same seed gave different bytes")
    elif step.metric == "optimize_s":
        report = pipeline.check_schedule(pacuplan, run.instance, work)
        if run.report is not None and report["best_meo"] != run.report["best_meo"]:
            raise CheckFailed("optimize: same seed gave a different best_meo")
        run.report = report
    elif step.metric == "forecast_s":
        run.values["forecast_peak"] = pipeline.check_forecast(work / "forecast.csv",
                                                              run.report["best_meo"])
    else:
        mode = "true" if step.metric == "validate_true_s" else "matched"
        result = pipeline.check_validation(work / f"{mode}.json", mode)
        run.values[f"forecast_mae_{mode}"] = result["mean_abs_error"]


# --- trace 0: end to end -------------------------------------------------------------------

SETUP_PROBE = ("-c", "import sys, pacuplan.cli; pacuplan.cli.io.read_instance(sys.argv[1])",
               "day.json")


def end_to_end(run: Run, pacuplan) -> dict[str, float]:
    def set_up_once() -> None:
        run.add("setup_s", run.operation(run.python, list(SETUP_PROBE))[0])

    # Set-up samples are spread over the whole run, one before each pass, because the
    # machine's speed drifts within seconds and back-to-back samples share one phase.
    for _ in range(SETUP_REPEATS):
        set_up_once()
    start = time.perf_counter()
    while "pass_s" not in run.samples or time.perf_counter() - start < run.seconds:
        set_up_once()
        run.add("pass_s", one_pass(run, pacuplan, run.cli))
    return {
        "setup_s": statistics.median(run.samples["setup_s"]),
        "pass_s": statistics.median(run.samples["pass_s"]),
        "peak_rss_mb": run.peak_rss_kib / 1024.0,
        "best_meo": run.report["best_meo"],
    }


# --- trace 1: layer by layer ---------------------------------------------------------------

IMPORT_PROBE = ("-c", "import time; t = time.perf_counter(); import pacuplan.cli; "
                      "print(time.perf_counter() - t)")


def in_process(pacuplan, work: Path, argv: tuple) -> float:
    """Run one CLI command through ``cli.main`` in this process, in the work directory."""
    sink = _io.StringIO()
    home = Path.cwd()
    os.chdir(work)
    try:
        start = time.perf_counter()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = pacuplan.cli.main(list(argv))
        elapsed = time.perf_counter() - start
    finally:
        os.chdir(home)
    if code != 0:
        raise CheckFailed(f"`pacuplan {' '.join(argv)}` returned {code}: {sink.getvalue()[-400:]}")
    return elapsed


def _call_s(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def pass_layers(tracer, label: str, report: dict | None, instance, pacuplan) -> dict[str, float]:
    """Per-layer values of one traced pass, from its spans and the optimiser's report."""
    spans = [(i, s) for i, s in enumerate(tracer.spans) if s.step.startswith(label + "/")]
    named = lambda name: [(i, s) for i, s in spans if s.name == name]  # noqa: E731
    out = dict.fromkeys((name for name in PER_LAYER if name not in MEASURED_DIRECTLY), 0.0)

    anneal = named("solver.simulated_annealing")
    if anneal:
        index, span = anneal[0]
        iterations = report["config"]["iterations"]
        kernel = [s for _, s in named("forecast.recovery_prob_matrix") if s.parent == index]
        kernel_s = sum(s.duration for s in kernel)
        times = pacuplan.forecast.time_grid(0.1, instance.day_hours)
        cells = instance.recovery_count() * times.size * len(kernel)
        best_iter = 0
        if report["best_meo"] < report["initial_meo"]:
            best_iter = report["best_trace"].index(report["best_meo"]) + 1
        out.update({
            "solver.anneal_s": span.duration,
            "solver.iter_us": span.duration / iterations * 1e6,
            "solver.self_us_per_iter": tracer.self_time(index) / iterations * 1e6,
            "solver.accept_ratio": report["accepted"] / iterations,
            "solver.best_iter": float(best_iter),
            "forecast.kernel_calls": float(len(kernel)),
            "forecast.kernel_us": kernel_s / len(kernel) * 1e6,
            "forecast.kernel_cells_per_s": cells / kernel_s,
        })
    mean_ms = lambda rows: 1e3 * statistics.fmean(s.duration for _, s in rows) if rows else 0.0  # noqa: E731
    out["model.meo_ms"] = mean_ms(named("model.max_expected_occupancy"))
    out["forecast.curve_ms"] = mean_ms(named("forecast.occupancy_curve"))
    out["forecast.tail_ms"] = mean_ms(named("forecast.exact_occupancy_cdf"))
    pb = named("distributions.poisson_binomial_cdf")
    out["distributions.pb_calls"] = float(len(pb))
    out["distributions.pb_cdf_us"] = mean_ms(pb) * 1e3
    out["simulation.generate_ms"] = mean_ms(named("simulation.generate_instance"))
    for index, span in named("simulation.monte_carlo_curve"):
        mode = "true" if span.step.endswith("validate_true_s") else "matched"
        out[f"simulation.samples_per_s_{mode}"] = (pipeline.VALIDATE_SAMPLES
                                                    / tracer.self_time(index))
    return out


def per_layer(run: Run, pacuplan) -> dict[str, float]:
    for _ in range(IMPORT_REPEATS):
        output = run.operation(run.python, list(IMPORT_PROBE))[2]
        run.add("cli.import_s", float(output.split()[-1]))
    big = run.workload.shape[0] > 100
    read = lambda: pacuplan.io.read_instance(run.work / "day.json")  # noqa: E731
    for _ in range(5 if big else 20):
        run.add("io.read_instance_ms", 1e3 * _call_s(read))
    if any(s.metric == "optimize_s" for s in run.workload.steps):
        rng = np.random.default_rng(run.seed)
        ids = run.instance.patient_ids
        construct = lambda: pacuplan.solver.construct_schedule(  # noqa: E731
            run.instance, list(rng.permutation(ids)), rng)
        for _ in range(20 if big else 200):
            run.add("solver.construct_us", 1e6 * _call_s(construct))

    # Each step runs untraced and then traced, back to back, so both see the same
    # machine phase and their ratio gives the tracing overhead.
    execute = lambda argv: in_process(pacuplan, run.work, argv)  # noqa: E731
    tracer = Tracer(pacuplan)
    overheads, layers = [], []
    start = time.perf_counter()
    while not layers or time.perf_counter() - start < run.seconds:
        label = f"pass{len(layers) + 1}"
        untraced = traced = 0.0
        for step in run.workload.steps:
            untraced += run.operation(run_step, run, pacuplan, execute, step, None, label)
            with tracer:
                traced += run.operation(run_step, run, pacuplan, execute, step, tracer, label)
        overheads.append(100.0 * (traced / untraced - 1.0))
        layers.append(pass_layers(tracer, label, run.report, run.instance, pacuplan))
    for name in COUNTS:
        if len({values[name] for values in layers}) != 1:
            run.attempted += 1
            run.failed += 1
            print(f"check failed: {name} differs between traced passes of one seed",
                  file=sys.stderr)
    for name in layers[0]:
        run.samples[name] = [values[name] for values in layers]
    run.samples["trace.overhead_pct"] = overheads
    tracer.write(ROOT / ".bench_work" / f"spans-{run.workload.name}-seed{run.seed}.json",
                 {s.step for s in tracer.spans if s.step.startswith("pass1/")})
    run.samples.setdefault("solver.construct_us", [0.0])  # a workload that never anneals
    return {name: statistics.median(run.samples[name]) for name in PER_LAYER
            if not name.startswith("machine.")}


# --- reporting -----------------------------------------------------------------------------

def print_table(run: Run, metrics: dict[str, float], units: dict[str, str]) -> None:
    """Every metric by name with unit, median, sample count and range."""
    rows = [(name, units[name], value, run.samples.get(name, [value]))
            for name, value in metrics.items()]
    if units is END_TO_END:
        # Metrics that exist on some workloads only: printed, not gated.
        rows += [(name, PER_LAYER.get(name, "s"), statistics.median(v), v)
                 for name, v in run.samples.items() if name not in metrics]
        if run.report is not None:
            value = run.report["reduction_vs_baseline_pct"]
            rows.append(("meo_reduction_pct", "%", value, [value]))
        for mode in ("true", "matched"):
            if f"forecast_mae_{mode}" in run.values:
                value = run.values[f"forecast_mae_{mode}"]
                rows.append((f"forecast_mae_{mode}", "beds", value, [value]))
        rows.append(("error_rate", "ratio", run.failed / run.attempted, [0.0]))
    print(f"# workload {run.workload.name}  seed {run.seed}  "
          f"{time.perf_counter() - run.started:.1f} s wall")
    print(f"{'metric':34s} {'unit':10s} {'median':>14s} {'n':>4s}  range")
    for name, unit, value, samples in rows:
        spread = f"{min(samples):.4g}..{max(samples):.4g}" if len(samples) > 1 else ""
        print(f"{name:34s} {unit:10s} {value:14.6g} {len(samples):4d}  {spread}")


def run_workload(name: str, seed: int, seconds: int, trace: bool, pacuplan) -> bool:
    workload = pipeline.workloads(seed)[name]
    run = Run(workload, seed, seconds)
    run.work.mkdir(parents=True, exist_ok=True)
    metrics: dict[str, float] = {}
    units = PER_LAYER if trace else END_TO_END
    try:
        run.add("machine.probe_us", machine_probe_us())
        set_up(run, pacuplan)
        body = per_layer if trace else end_to_end
        values = body(run, pacuplan)
        run.add("machine.probe_end_us", machine_probe_us())
        metrics = {**values, **{k: run.samples[k][0] for k in units if k.startswith("machine.")}}
    except CheckFailed as exc:
        print(f"check failed: {exc}", file=sys.stderr)
    finally:
        shutil.rmtree(run.work, ignore_errors=True)
    correct = run.failed == 0 and set(metrics) == set(units)
    if correct:
        print_table(run, metrics, units)
    print(json.dumps({
        "correct": correct, "attempted": run.attempted, "failed": run.failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units if k in metrics},
    }))
    return correct


def main() -> int:
    names = list(pipeline.workloads(0))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*names, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    pacuplan = load_program()
    chosen = names if args.workload == "all" else [args.workload]
    ok = [run_workload(n, args.seed, args.seconds, bool(args.trace), pacuplan) for n in chosen]
    return 0 if all(ok) else 1


if __name__ == "__main__":
    sys.exit(main())
