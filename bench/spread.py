"""Run the benchmark over several seeds and report each metric's median and spread.

Usage, from the root of a checkout:

    python3 bench/spread.py --workloads paper-day scaled-day validate --seeds 1-10
    python3 bench/spread.py --workloads validate --seeds 1-5 --trace 1 --out runs.json

The spread of a metric is the distance between the first and third
quartiles of its per-run values (``statistics.quantiles(values, n=4)``),
as a share of their median.  For each end-to-end metric it is compared with
a third of the bound that BENCHMARK.json gives it.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds(text: str) -> list[int]:
    low, _, high = text.partition("-")
    return list(range(int(low), int(high or low) + 1))


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--out", type=Path,
                        help="write every run's result line and each metric's summary here as JSON")
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    runs: dict[str, list[dict]] = {}
    summary: dict[str, dict] = {}
    steady = True
    for workload in args.workloads:
        for seed in args.seeds:
            proc = subprocess.run(
                [sys.executable, *spec["command"][1:], "--workload", workload, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=300)
            try:
                result = json.loads(proc.stdout.strip().splitlines()[-1])
            except (IndexError, json.JSONDecodeError):
                result = {"correct": False}
            runs.setdefault(workload, []).append({"seed": seed, "exit": proc.returncode, **result})
            print(f"{workload} seed {seed}: exit {proc.returncode} correct {result['correct']}",
                  file=sys.stderr, flush=True)
            if proc.returncode != 0 or not result["correct"]:
                steady = False
                print(proc.stderr[-2000:], file=sys.stderr)
        good = [r for r in runs[workload] if r.get("correct")]
        print(f"# {workload}: {len(good)} correct runs of {len(runs[workload])}")
        print(f"{'metric':34s} {'median':>14s} {'q1':>14s} {'q3':>14s} {'spread':>8s} {'bound/3':>8s}")
        for name in (good[0]["metrics"] if good else []):
            values = [r["metrics"][name]["value"] for r in good]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
            spread = (q3 - q1) / median if median else float("nan")
            limit = bounds.get(name)
            mark = ""
            if limit is not None and name != "setup_s":
                ok = spread < limit / 3
                steady &= ok
                mark = "" if ok else "  WIDE"
            summary.setdefault(workload, {})[name] = {
                "median": median, "q1": q1, "q3": q3, "spread": spread,
                "unit": good[0]["metrics"][name]["unit"], "n": len(values)}
            third = f"{limit / 3:8.3f}" if limit is not None else " " * 8
            print(f"{name:34s} {median:14.6g} {q1:14.6g} {q3:14.6g} {spread:8.3f} {third}{mark}")
    if args.out:
        args.out.write_text(json.dumps({
            "seconds": args.seconds, "trace": args.trace, "seeds": args.seeds,
            "summary": summary, "runs": runs}, indent=1) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
