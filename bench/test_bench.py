"""Tests of the benchmark itself: run with ``python -m pytest bench`` from the repo root."""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

from run import COUNTS  # noqa: E402
from tracing import Tracer  # noqa: E402


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=180)


def result(proc: subprocess.CompletedProcess) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", ["paper-day", "scaled-day"])
def test_traced_counts_repeat_exactly_at_one_seed(workload):
    runs = [bench("--workload", workload, "--seed", "7", "--seconds", "1", "--trace", "1")
            for _ in range(2)]
    first, second = (result(p) for p in runs)
    assert all(p.returncode == 0 for p in runs) and first["correct"] and second["correct"]
    counts = [{k: r["metrics"][k]["value"] for k in COUNTS} for r in (first, second)]
    assert counts[0] == counts[1]
    assert counts[0]["forecast.kernel_calls"] > 0
    if workload == "scaled-day":
        assert counts[0]["distributions.pb_calls"] == 241


def test_without_the_program_it_fails_and_prints_no_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = bench("--workload", "paper-day", "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_spans_wrap_every_lookup_site_and_nest():
    import pacuplan
    import pacuplan.cli  # noqa: F401
    from pacuplan import forecast

    instance = pacuplan.generate_instance(pacuplan.GenSpec(seed=0))
    starts = list(pacuplan.baseline_schedule(instance).starts.values())
    original = forecast.poisson_binomial_cdf
    tracer = Tracer(pacuplan)
    with tracer:
        tracer.step = "one"
        forecast.exact_occupancy_cdf(instance.patients, starts, 5.0, 3)
    assert forecast.poisson_binomial_cdf is original
    names = [s.name for s in tracer.spans]
    assert names[0] == "forecast.exact_occupancy_cdf"
    assert "distributions.poisson_binomial_cdf" in names      # forecast's imported name
    assert "forecast.recovery_prob_matrix" in names          # module attribute look-up
    assert all(s.parent == 0 for s in tracer.spans[1:] if s.name == "forecast.recovery_probs_at")
    assert 0.0 <= tracer.self_time(0) <= tracer.spans[0].duration
