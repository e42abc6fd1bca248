import argparse
import csv
import dataclasses
import hashlib
import inspect
import io as _io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import numpy as np

from pacuplan import (GenSpec, Instance, SAConfig, Schedule, baseline_schedule, check_feasibility,
                      generate_instance, max_expected_occupancy, monte_carlo_curve,
                      simulated_annealing)
from pacuplan import forecast, io
from pacuplan.cli import build_parser, main

from conftest import in_recovery_oracle, late_shift_instance


def run(*argv):
    return main([str(a) for a in argv])


# The measured rates a manifest may carry, each only for the commands that measure it.
RATES = {"samples_per_s", "evaluations_per_s", "best_found_s"}


def assert_stage_timings(output, stages, rates=()):
    """The manifest next to ``output`` times exactly ``stages``, within its wall clock.

    Of the measured rates it carries ``rates`` and no other.
    """
    manifest = json.loads(io.manifest_path(output).read_text())
    assert RATES & set(manifest) == set(rates)
    timings = manifest["timings_s"]
    assert sorted(timings) == sorted(stages)
    assert all(value >= 0.0 for value in timings.values())
    assert sum(timings.values()) <= manifest["wall_clock_seconds"]


@pytest.fixture
def small_instance_file(tmp_path):
    path = tmp_path / "instance.json"
    assert run("generate", "--patients", 12, "--surgeons", 6, "--ors", 4,
               "--seed", 3, "--out", path) == 0
    return path


@pytest.fixture
def small_schedule_file(tmp_path, small_instance_file):
    out = tmp_path / "schedule.json"
    assert run("optimize", small_instance_file, "--iterations", 40,
               "--seed", 1, "--out", out) == 0
    return out


class TestGenerate:
    def test_writes_instance_and_manifest(self, tmp_path, capsys):
        out = tmp_path / "day.json"
        assert run("generate", "--patients", 10, "--surgeons", 5, "--ors", 3,
                   "--seed", 5, "--out", out) == 0
        instance = io.read_instance(out)
        assert len(instance.patients) == 10
        assert_stage_timings(out, ["spec", "generate", "write"])
        assert "10 patients" in capsys.readouterr().out
        assert "timing" not in out.read_text()

    def test_same_seed_same_bytes(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run("generate", "--seed", 7, "--patients", 9, "--surgeons", 4, "--ors", 3, "--out", a)
        run("generate", "--seed", 7, "--patients", 9, "--surgeons", 4, "--ors", 3, "--out", b)
        assert a.read_bytes() == b.read_bytes()

    def test_zero_patients_is_validation_error(self, tmp_path, capsys):
        assert run("generate", "--patients", 0, "--out", tmp_path / "x.json") == 2
        assert "patient_count must be at least 1" in capsys.readouterr().err

    def test_spec_file_with_flag_overrides(self, tmp_path):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({
            "patient_count": 8, "surgeon_count": 4, "or_count": 2,
            "surgery_log_var": [0.1, 0.2], "seed": 1}))
        out = tmp_path / "from_spec.json"
        assert run("generate", "--spec", spec_path, "--patients", 6, "--out", out) == 0
        instance = io.read_instance(out)
        assert len(instance.patients) == 6  # flag wins over the spec file
        assert all(0.1 <= p.surgery.sigma2 <= 0.2 for p in instance.patients)

    def test_spec_of_every_field_writes_the_flag_run_bytes(self, tmp_path):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(dataclasses.asdict(GenSpec(seed=3))))
        from_spec, from_flags = tmp_path / "from_spec.json", tmp_path / "from_flags.json"
        assert run("generate", "--spec", spec_path, "--out", from_spec) == 0
        assert run("generate", "--seed", 3, "--out", from_flags) == 0
        assert from_spec.read_bytes() == from_flags.read_bytes()

    def test_flag_overrides_an_invalid_spec_value_before_validation(self, tmp_path):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({"patient_count": 0}))
        out = tmp_path / "day.json"
        assert run("generate", "--spec", spec_path, "--patients", 6, "--surgeons", 3, "--ors", 2,
                   "--out", out) == 0
        assert len(io.read_instance(out).patients) == 6

    def test_spec_value_error_names_the_file(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({"or_count": "21"}))
        assert run("generate", "--spec", spec_path, "--out", tmp_path / "x.json") == 2
        assert f"{spec_path}: spec: or_count must be an integer, got '21'" in capsys.readouterr().err

    def test_integer_hours_write_the_float_hours_bytes(self, tmp_path):
        outputs = []
        for hours in ((8, 24), (8.0, 24.0)):
            spec_path = tmp_path / f"spec-{hours[0]!r}.json"
            spec_path.write_text(json.dumps(dict(zip(("or_open_hours", "day_hours"), hours))))
            outputs.append(tmp_path / f"day-{hours[0]!r}.json")
            assert run("generate", "--spec", spec_path, "--patients", 8, "--surgeons", 4,
                       "--ors", 2, "--out", outputs[-1]) == 0
        assert '"day_hours": 24.0' in outputs[0].read_text()
        assert outputs[0].read_bytes() == outputs[1].read_bytes()

    @pytest.mark.parametrize("payload, field", [
        ({"surgery_log_mean": [0, float("inf")]}, "surgery_log_mean"),
        ({"or_count": "21"}, "or_count"),
        ({"surgery_log_mean": 3}, "surgery_log_mean"),
        ({"bogus": 1}, "bogus"),
        ([1], "JSON object"),
        ({"seed": 1.5}, "seed"),
        ({"seed": -1}, "seed"),
        ({"or_count": 0}, "or_count"),
    ])
    def test_malformed_spec_is_validation_error(self, tmp_path, capsys, payload, field):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(payload))
        out = tmp_path / "x.json"
        assert run("generate", "--spec", spec_path, "--out", out) == 2
        assert field in capsys.readouterr().err
        assert not out.exists()


class TestForecast:
    def test_row_count_and_mean_column(self, tmp_path, small_instance_file, small_schedule_file):
        out = tmp_path / "occ.csv"
        assert run("forecast", small_instance_file, small_schedule_file,
                   "--grid-step", 0.1, "--out", out) == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 241
        instance = io.read_instance(small_instance_file)
        schedule = io.read_schedule(small_schedule_file)
        for row in rows[::40]:
            expected = sum(in_recovery_oracle(p, schedule.starts[p.id], float(row["time"]))
                           for p in instance.patients if p.needs_recovery)
            assert float(row["mean"]) == pytest.approx(expected, abs=1e-12)

    def test_time_column_prints_at_most_one_decimal(self, tmp_path, small_instance_file,
                                                    small_schedule_file):
        # Grid times are the doubles nearest i / 10, so none prints like 0.30000000000000004.
        out = tmp_path / "occ.csv"
        assert run("forecast", small_instance_file, small_schedule_file,
                   "--grid-step", 0.1, "--out", out) == 0
        with open(out) as fh:
            times = [row["time"] for row in csv.DictReader(fh)]
        assert len(times) == 241
        assert all(len(t.partition(".")[2]) <= 1 for t in times)
        assert [float(t) for t in times] == [i / 10 for i in range(241)]

    def test_manifest_timings(self, tmp_path, small_instance_file, small_schedule_file):
        out = tmp_path / "occ.csv"
        assert run("forecast", small_instance_file, small_schedule_file, "--out", out) == 0
        assert_stage_timings(out, ["read", "forecast", "write"])
        with open(out) as fh:  # the data file stays free of timing
            assert next(csv.reader(fh)) == ["time", "mean", "variance", "lower", "upper"]

    def test_empty_instance_gives_zero_rows(self, tmp_path):
        instance_path = tmp_path / "empty.json"
        io.write_instance(Instance(surgeons=[], patients=[], or_count=0, or_open_hours=8.0,
                                   day_hours=24.0), instance_path)
        schedule_path = tmp_path / "empty_schedule.json"
        io.write_schedule(Schedule({}), schedule_path)
        out = tmp_path / "occ.csv"
        assert run("forecast", instance_path, schedule_path, "--out", out) == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 241
        assert all(float(r["mean"]) == 0.0 and float(r["upper"]) == 0.0 for r in rows)

    def test_missing_patient_names_it(self, tmp_path, small_instance_file, capsys):
        schedule_path = tmp_path / "partial.json"
        io.write_schedule(Schedule({"p01": 0.0}), schedule_path)
        assert run("forecast", small_instance_file, schedule_path,
                   "--out", tmp_path / "x.csv") == 2
        assert "p02" in capsys.readouterr().err

    def test_missing_file_is_validation_error(self, tmp_path):
        assert run("forecast", tmp_path / "nope.json", tmp_path / "nope2.json",
                   "--out", tmp_path / "x.csv") == 2


@pytest.mark.parametrize("command", ["forecast", "validate"])
class TestScheduleEntries:
    def run_with(self, command, tmp_path, instance_file, starts):
        schedule_path = tmp_path / "edited.json"  # raw JSON: a Schedule refuses a NaN start
        schedule_path.write_text(json.dumps({"format_version": io.FORMAT_VERSION, "starts": starts}))
        return run(command, instance_file, schedule_path, "--out", tmp_path / "x.out")

    def test_unknown_patient_id_exits_2(self, command, tmp_path, small_instance_file,
                                        small_schedule_file, capsys):
        starts = {**io.read_schedule(small_schedule_file).starts, "ghost": 1.0}
        assert self.run_with(command, tmp_path, small_instance_file, starts) == 2
        err = capsys.readouterr().err
        assert "not in the instance: ghost" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_start_exits_2(self, command, tmp_path, small_instance_file,
                                      small_schedule_file, capsys, bad):
        starts = {**io.read_schedule(small_schedule_file).starts, "p03": bad}
        assert self.run_with(command, tmp_path, small_instance_file, starts) == 2
        err = capsys.readouterr().err
        assert "non-finite start times for patients: p03" in err
        assert "Traceback" not in err
        assert not (tmp_path / "x.out").exists()


def _set(*path_and_value):
    """A payload edit that sets the field at ``path`` (keys and list indices) to ``value``."""
    *path, key, value = path_and_value

    def edit(payload):
        for step in path:
            payload = payload[step]
        payload[key] = value
    return edit


def _drop(*path):
    """A payload edit that deletes the field at ``path`` (keys and list indices)."""
    *path, key = path

    def edit(payload):
        for step in path:
            payload = payload[step]
        del payload[key]
    return edit


@pytest.mark.parametrize("edit, field", [
    (lambda payload: [payload], "JSON object"),
    (_set("patients", 0, "or_id", "1"), "or_id"),
    (_set("patients", 1, "surgery", "mu", "0.5"), "mu"),
    (_set("day_hours", float("inf")), "day_hours"),
    (_set("patients", 2, "setup", float("nan")), "setup"),
    (_set("patients", 2, "cleanup", float("nan")), "cleanup"),
    (_set("surgeons", 0, "new_or_setup", float("nan")), "new_or_setup"),
    (_set("patients", 3, "needs_recovery", "false"), "needs_recovery"),
    (_set("patients", 0, "expected_duration", float("inf")), "expected_duration"),
    (_set("patients", 0, "id", 5), "patient 5: id must be a string"),
    (_set("surgeons", 0, "id", 7), "surgeon 7: id must be a string"),
    (_set("surgeons", 0, "shift_ned", 8.0), "surgeons[0]: unknown field(s) shift_ned"),
    (_drop("surgeons", 0, "shift_start"), "surgeons[0]: missing required field 'shift_start'"),
    (_drop("surgeons", 0, "shift_end"), "surgeons[0]: missing required field 'shift_end'"),
    (_drop("patients", 3, "id"), "patients[3]: missing required field 'id'"),
    (_drop("patients", 3, "or_id"), "patients[3]: missing required field 'or_id'"),
    (_drop("day_hours"), "top level: missing required field 'day_hours'"),
    (_drop("patients", 3, "surgery", "mu"), "patients[3] surgery: missing required field 'mu'"),
    (_set("patients", 3, "recovery", "bogus", 1.0), "patients[3] recovery: unknown field(s) bogus"),
    (_set("surgeons", None), "top level: surgeons must be a list, got None"),
    (_set("patients", None), "top level: patients must be a list, got None"),
])
def test_malformed_instance_exits_2_naming_the_field(tmp_path, small_instance_file, capsys,
                                                     edit, field):
    payload = json.loads(small_instance_file.read_text())
    payload = edit(payload) or payload
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(payload))
    capsys.readouterr()
    assert run("optimize", bad, "--iterations", 5, "--out", tmp_path / "x.json") == 2
    err = capsys.readouterr().err
    assert field in err and str(bad) in err
    assert "Traceback" not in err


def test_underflowing_durations_exit_2_naming_the_patient(tmp_path, small_instance_file, capsys):
    payload = json.loads(small_instance_file.read_text())
    payload["patients"][0]["surgery"] = payload["patients"][0]["recovery"] = {"mu": -1000, "sigma2": 0.1}
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(payload))
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"surgery_log_mean": [-1000, -1000], "recovery_log_mean": [-1000, -1000]}))
    for argv, patient in ([("optimize", bad, "--iterations", 5), "patients[0]"],
                          [("generate", "--spec", spec), "patient p01"]):
        capsys.readouterr()
        assert run(*argv, "--out", tmp_path / "x.json") == 2
        err = capsys.readouterr().err
        assert patient in err and "moment matching underflowed" in err
        assert "Traceback" not in err


@pytest.mark.parametrize("bad", ["nan", "inf"])
@pytest.mark.parametrize("command, flag, setting", [
    ("forecast", "--grid-step", "grid step"),
    ("validate", "--grid-step", "grid step"),
    ("optimize", "--grid-step", "grid step"),
    ("optimize", "--initial-temperature", "initial temperature"),
])
def test_non_finite_setting_exits_2_naming_it(tmp_path, small_instance_file, small_schedule_file,
                                               capsys, bad, command, flag, setting):
    inputs = [small_instance_file] + ([] if command == "optimize" else [small_schedule_file])
    capsys.readouterr()
    assert run(command, *inputs, flag, bad, "--out", tmp_path / "x.out") == 2
    err = capsys.readouterr().err
    assert f"{setting} must be positive and finite" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["optimize", "validate", "sweep"])
def test_negative_seed_exits_2_naming_it(tmp_path, small_instance_file, small_schedule_file,
                                         capsys, command):
    sweep_dir = tmp_path / "instances"
    sweep_dir.mkdir()
    (sweep_dir / "one.json").write_bytes(small_instance_file.read_bytes())
    inputs = {"optimize": [small_instance_file], "sweep": [sweep_dir],
              "validate": [small_instance_file, small_schedule_file]}[command]
    out = tmp_path / "x.out"
    capsys.readouterr()
    assert run(command, *inputs, "--seed", -1, "--out", out) == 2
    err = capsys.readouterr().err
    assert "seed must be non-negative, got -1" in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["forecast", "validate", "optimize"])
def test_grid_too_fine_to_allocate_exits_2_naming_it(tmp_path, small_instance_file,
                                                     small_schedule_file, capsys, command):
    inputs = [small_instance_file] + ([] if command == "optimize" else [small_schedule_file])
    out = tmp_path / "x.out"
    capsys.readouterr()
    assert run(command, *inputs, "--grid-step", "1e-9", "--out", out) == 2
    err = capsys.readouterr().err
    assert "grid step 1e-09 is too fine" in err
    assert "Traceback" not in err
    assert not out.exists()


def test_cli_defaults_are_the_library_defaults():
    parser = build_parser()
    args = parser.parse_args(["optimize", "day.json"])
    parsed = {f.name: getattr(args, f.name) for f in dataclasses.fields(SAConfig)}
    assert parsed == dataclasses.asdict(SAConfig())
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    grid_steps = {name: p.get_default("grid_step") for name, p in commands.choices.items()}
    assert grid_steps == {"generate": None, "forecast": forecast.GRID_STEP,
                          "optimize": forecast.GRID_STEP, "validate": forecast.GRID_STEP,
                          "sweep": forecast.GRID_STEP}
    for fn in (forecast.occupancy_curve, max_expected_occupancy, monte_carlo_curve):
        assert inspect.signature(fn).parameters["grid_step"].default == forecast.GRID_STEP
    assert SAConfig().grid_step == forecast.GRID_STEP


@pytest.mark.parametrize("argv", [
    ("optimize", "{day}", "--iterations", 5, "--out", "{dir}"),
    ("forecast", "{dir}", "{best}"),
    ("forecast", "{day}", "{dir}"),
    ("generate", "--patients", 4, "--surgeons", 2, "--ors", 2, "--out", "{dir}"),
    ("validate", "{day}", "{best}", "--samples", 10, "--out", "{dir}"),
], ids=["optimize-out", "forecast-instance", "forecast-schedule", "generate-out", "validate-out"])
def test_directory_in_place_of_a_file_exits_2_naming_it(tmp_path, small_instance_file,
                                                        small_schedule_file, capsys, argv):
    directory = tmp_path / "a-directory"
    directory.mkdir()
    paths = {"day": small_instance_file, "best": small_schedule_file, "dir": directory}
    capsys.readouterr()
    assert run(*(str(a).format(**paths) for a in argv)) == 2
    err = capsys.readouterr().err
    assert str(directory) in err
    assert "Traceback" not in err


def test_readme_command_lines_parse():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```bash\n", 1)[1].split("```", 1)[0]
    command_lines = [line.split("#", 1)[0].split()[1:] for line in block.splitlines()
                     if line.startswith("pacuplan ")]
    assert len(command_lines) == 5
    parser = build_parser()
    for argv in command_lines:
        parser.parse_args(argv)


@pytest.mark.parametrize("flag", ["--iteration-grid", "--factor-grid", "--period-grid"])
def test_empty_sweep_grid_exits_2_naming_it(tmp_path, small_instance_file, capsys, flag):
    sweep_dir = tmp_path / "instances"
    sweep_dir.mkdir()
    (sweep_dir / "one.json").write_bytes(small_instance_file.read_bytes())
    capsys.readouterr()
    assert run("sweep", sweep_dir, flag, ",", "--reps", 1, "--out", tmp_path / "s.csv") == 2
    err = capsys.readouterr().err
    assert f"{flag} needs at least one value" in err
    assert "Traceback" not in err


class TestOptimize:
    def test_outputs_and_self_consistency(self, tmp_path, small_instance_file, capsys):
        out = tmp_path / "best.json"
        assert run("optimize", small_instance_file, "--iterations", 60, "--seed", 2,
                   "--out", out) == 0
        report = json.loads((tmp_path / "best.report.json").read_text())
        assert report["best_meo"] <= report["initial_meo"]
        assert len(report["meo_trace"]) == 60
        assert report["infeasible"] == 0 and report["accepted"] + report["rejected"] == 60
        base = report["baseline_meo"]
        assert report["baseline_feasible"] is True
        assert report["reduction_vs_baseline_pct"] == 100.0 * (base - report["best_meo"]) / base

        occ = tmp_path / "check.csv"
        run("forecast", small_instance_file, out, "--out", occ)
        with open(occ) as fh:
            peak = max(float(r["mean"]) for r in csv.DictReader(fh))
        assert peak == pytest.approx(report["best_meo"], abs=1e-12)

    def test_search_diagnostics(self, tmp_path, small_instance_file):
        out = tmp_path / "best.json"
        assert run("optimize", small_instance_file, "--iterations", 60, "--seed", 2,
                   "--cooling-period", 25, "--out", out) == 0
        report = json.loads((tmp_path / "best.report.json").read_text())
        epochs = report["acceptance_by_epoch"]
        assert len(epochs) == 3  # 25 + 25 + 10 iterations
        assert all(0.0 <= ratio <= 1.0 for ratio in epochs)
        assert round(25 * epochs[0] + 25 * epochs[1] + 10 * epochs[2]) == report["accepted"]
        best_iteration = report["best_iteration"]
        trace = report["best_trace"]
        if report["best_meo"] < report["initial_meo"]:
            assert trace[best_iteration - 1] == report["best_meo"]
            assert best_iteration == 1 or trace[best_iteration - 2] > report["best_meo"]
            assert report["meo_trace"][best_iteration - 1] == report["best_meo"]
        else:
            assert best_iteration == 0

    def test_manifest_timings(self, tmp_path, small_instance_file):
        out = tmp_path / "best.json"
        assert run("optimize", small_instance_file, "--iterations", 20, "--out", out) == 0
        # Annealing splits into construction, the MEO kernel and the rest of the search.
        stages = ["read", "construct", "kernel", "search", "check", "write"]
        rates = ["evaluations_per_s", "best_found_s"]
        assert_stage_timings(out, stages, rates)
        manifest = json.loads(io.manifest_path(out).read_text())
        timings = manifest["timings_s"]
        anneal = timings["construct"] + timings["kernel"] + timings["search"]
        assert timings["construct"] > 0.0 and timings["kernel"] > 0.0
        assert manifest["evaluations_per_s"] == pytest.approx(20 / anneal)
        assert 0.0 <= manifest["best_found_s"] <= anneal
        replicas = tmp_path / "replicas.json"
        assert run("optimize", small_instance_file, "--iterations", 20, "--replicas", 3,
                   "--out", replicas) == 0
        assert_stage_timings(replicas, stages, rates)
        manifest = json.loads(io.manifest_path(replicas).read_text())
        timings = manifest["timings_s"]
        anneal = timings["construct"] + timings["kernel"] + timings["search"]
        assert manifest["evaluations_per_s"] == pytest.approx(60 / anneal)
        assert 0.0 <= manifest["best_found_s"] <= anneal
        report = json.loads((tmp_path / "best.report.json").read_text())
        assert not any("timing" in key or "second" in key for key in report)
        assert sorted(json.loads(out.read_text())) == ["format_version", "starts"]

    def test_no_improvement_reports_iteration_zero(self, tmp_path):
        instance_path = tmp_path / "no_recovery.json"
        assert run("generate", "--patients", 4, "--surgeons", 2, "--ors", 2,
                   "--recovery-fraction", 0.0, "--seed", 0, "--out", instance_path) == 0
        out = tmp_path / "flat.json"
        assert run("optimize", instance_path, "--iterations", 5, "--cooling-period", 2,
                   "--out", out) == 0
        report = json.loads((tmp_path / "flat.report.json").read_text())
        assert report["best_meo"] == report["initial_meo"] == 0.0  # nobody needs recovery
        assert report["best_iteration"] == 0
        assert report["acceptance_by_epoch"] == [1.0, 1.0, 1.0]  # every delta is zero

    def test_replicas_keep_best_seed(self, tmp_path, small_instance_file):
        multi = tmp_path / "multi.json"
        assert run("optimize", small_instance_file, "--iterations", 40, "--seed", 9,
                   "--replicas", 3, "--out", multi) == 0
        report = json.loads((tmp_path / "multi.report.json").read_text())
        assert [r["seed"] for r in report["replicas"]] == [9, 10, 11]
        best = min(report["replicas"], key=lambda r: r["best_meo"])
        assert report["best_meo"] == best["best_meo"]

        single = tmp_path / "single.json"
        assert run("optimize", small_instance_file, "--iterations", 40,
                   "--seed", best["seed"], "--out", single) == 0
        assert single.read_bytes() == multi.read_bytes()

    def test_deterministic_bytes(self, tmp_path, small_instance_file):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for out in (a, b):
            assert run("optimize", small_instance_file, "--iterations", 30, "--seed", 4,
                       "--out", out) == 0
        assert a.read_bytes() == b.read_bytes()
        assert (tmp_path / "a.report.json").read_bytes() == (tmp_path / "b.report.json").read_bytes()

    def test_bad_replicas(self, tmp_path, small_instance_file):
        assert run("optimize", small_instance_file, "--replicas", 0,
                   "--out", tmp_path / "x.json") == 2

    def test_infeasible_best_exits_2_and_writes_nothing(self, tmp_path, capsys):
        # On this late-shift day the input-order packing keeps surgeon s4's
        # case waiting behind other surgeons' cases in a shared OR past s4's
        # overtime cap (constraint 4).  The one candidate breaks a cap too,
        # so no schedule tried is feasible and the packing stays the best.
        day = tmp_path / "late.json"
        io.write_instance(late_shift_instance(np.random.default_rng(195156)), day)
        out = tmp_path / "out" / "best.json"
        out.parent.mkdir()
        assert run("optimize", day, "--iterations", 1, "--seed", 0, "--out", out) == 2
        err = capsys.readouterr().err
        assert "infeasible" in err and "constraint 4" in err and "surgeon s4" in err
        assert "Traceback" not in err
        assert list(out.parent.iterdir()) == []

    def test_infeasible_baseline_reports_no_reduction(self, tmp_path, capsys):
        # This late-shift day's input-order packing breaks constraint 4, so no
        # reduction is measured against it (a 48% one would be reported).
        instance = late_shift_instance(np.random.default_rng(266912452))
        packing = baseline_schedule(instance)
        assert [v.constraint for v in check_feasibility(instance, packing)] == [4]
        day, out = tmp_path / "late.json", tmp_path / "best.json"
        io.write_instance(instance, day)
        assert run("optimize", day, "--iterations", 1000, "--seed", 0, "--out", out) == 0
        report = json.loads((tmp_path / "best.report.json").read_text())
        assert report["baseline_feasible"] is False
        assert report["reduction_vs_baseline_pct"] is None
        assert report["baseline_meo"] == max_expected_occupancy(instance, packing)
        assert report["best_meo"] < report["baseline_meo"]
        assert check_feasibility(instance, io.read_schedule(out)) == []
        assert "no reduction: the baseline breaks an overtime cap" in capsys.readouterr().out


class TestValidate:
    def test_report_fields_and_determinism(self, tmp_path, small_instance_file,
                                           small_schedule_file):
        out_a, out_b = tmp_path / "va.json", tmp_path / "vb.json"
        for out in (out_a, out_b):
            assert run("validate", small_instance_file, small_schedule_file,
                       "--samples", 2000, "--mode", "matched", "--seed", 12,
                       "--out", out) == 0
        assert out_a.read_bytes() == out_b.read_bytes()
        report = json.loads(out_a.read_text())
        assert report["n_samples"] == 2000
        assert report["fraction_above"] + report["fraction_below"] + \
            report["fraction_inside"] == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("mode", ["true", "matched"])
    def test_bias_fields_and_manifest_timings(self, tmp_path, small_instance_file,
                                              small_schedule_file, mode):
        out = tmp_path / "v.json"
        assert run("validate", small_instance_file, small_schedule_file, "--samples", 3000,
                   "--mode", mode, "--seed", 13, "--out", out) == 0
        report = json.loads(out.read_text())
        curve = monte_carlo_curve(io.read_instance(small_instance_file),
                                  io.read_schedule(small_schedule_file), 3000, mode=mode,
                                  rng=np.random.default_rng(13))
        gap = np.abs(curve.sample_mean - curve.analytic.mean)
        assert report["max_abs_bias"] == float(gap.max()) > 0.0
        assert report["max_bias_time"] == float(curve.times[np.argmax(gap)])
        within = gap <= 3.0 * curve.standard_error + 1e-4
        assert report["fraction_within_3se"] == float(within.mean())
        assert 0.0 < report["fraction_within_3se"] <= 1.0
        assert not any("time" in key and key != "max_bias_time" for key in report)

        assert_stage_timings(out, ["read", "sampling", "write"], ["samples_per_s"])
        manifest = json.loads(io.manifest_path(out).read_text())
        timings = manifest["timings_s"]
        assert manifest["samples_per_s"] == pytest.approx(3000 / timings["sampling"])

    def test_zero_samples_rejected(self, tmp_path, small_instance_file, small_schedule_file,
                                   capsys):
        out = tmp_path / "v.json"
        for samples in (0, -3):
            capsys.readouterr()
            assert run("validate", small_instance_file, small_schedule_file,
                       "--samples", samples, "--out", out) == 2
            err = capsys.readouterr().err
            assert "need at least one sample" in err and "Traceback" not in err
            assert not out.exists()

    def test_single_sample_warns(self, tmp_path, small_instance_file, small_schedule_file,
                                 capsys):
        assert run("validate", small_instance_file, small_schedule_file,
                   "--samples", 1, "--out", tmp_path / "v.json") == 0
        assert "degenerate" in capsys.readouterr().err


class TestSweep:
    def test_single_cell_matches_optimize(self, tmp_path, small_instance_file):
        sweep_dir = tmp_path / "instances"
        sweep_dir.mkdir()
        (sweep_dir / "one.json").write_bytes(small_instance_file.read_bytes())
        out = tmp_path / "sweep.csv"
        assert run("sweep", sweep_dir, "--iteration-grid", "50", "--factor-grid", "0.9",
                   "--period-grid", "10", "--reps", 1, "--seed", 6, "--out", out) == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 1
        opt = tmp_path / "opt.json"
        assert run("optimize", small_instance_file, "--iterations", 50,
                   "--cooling-factor", 0.9, "--cooling-period", 10, "--seed", 6,
                   "--out", opt) == 0
        report = json.loads((tmp_path / "opt.report.json").read_text())
        assert float(rows[0]["mean_total_best_meo"]) == pytest.approx(
            report["best_meo"], abs=1e-12)

    def test_cell_count_and_argmin_mark(self, tmp_path, small_instance_file):
        sweep_dir = tmp_path / "instances"
        sweep_dir.mkdir()
        (sweep_dir / "one.json").write_bytes(small_instance_file.read_bytes())
        out = tmp_path / "sweep.csv"
        assert run("sweep", sweep_dir, "--iteration-grid", "10,20", "--factor-grid",
                   "0.85,0.95", "--period-grid", "5", "--reps", 1, "--seed", 0,
                   "--out", out) == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 4
        marks = [int(r["best"]) for r in rows]
        assert sum(marks) == 1
        best_value = min(float(r["mean_total_best_meo"]) for r in rows)
        assert float(rows[marks.index(1)]["mean_total_best_meo"]) == best_value

    def test_manifest_timings(self, tmp_path, small_instance_file):
        sweep_dir = tmp_path / "instances"
        sweep_dir.mkdir()
        (sweep_dir / "one.json").write_bytes(small_instance_file.read_bytes())
        out = tmp_path / "sweep.csv"
        assert run("sweep", sweep_dir, "--iteration-grid", "10", "--factor-grid", "0.9",
                   "--period-grid", "5", "--reps", 2, "--out", out) == 0
        assert_stage_timings(out, ["read", "anneal", "write"])
        assert out.read_text().splitlines()[0] == (
            "iterations,cooling_factor,cooling_period,mean_total_best_meo,best")

    def test_one_kernel_per_instance_and_the_same_totals(self, tmp_path, monkeypatch):
        # Two instances x two cells x two reps build one MEO kernel per
        # instance, and the CSV holds the totals a loop over cells, then reps,
        # then instances adds up, to the byte.
        sweep_dir = tmp_path / "instances"
        sweep_dir.mkdir()
        for seed in (3, 4):
            day = generate_instance(GenSpec(seed=seed, patient_count=12, surgeon_count=6,
                                            or_count=4))
            io.write_instance(day, sweep_dir / f"day{seed}.json")
        built = []
        original = forecast.MeoKernel.__init__

        def counting(self, *args, **kwargs):
            built.append(args[0])
            original(self, *args, **kwargs)

        monkeypatch.setattr(forecast.MeoKernel, "__init__", counting)
        monkeypatch.setattr(forecast.RecoveryRows, "_memo", None)
        out = tmp_path / "sweep.csv"
        assert run("sweep", sweep_dir, "--iteration-grid", "15", "--factor-grid", "0.85,0.95",
                   "--period-grid", "5", "--reps", 2, "--seed", 3, "--out", out) == 0
        assert len(built) == 2

        days = [io.read_instance(p) for p in sorted(sweep_dir.glob("*.json"))]
        means = []
        for factor in (0.85, 0.95):
            totals = []
            for rep in range(2):
                total = 0.0
                for day in days:
                    config = SAConfig(iterations=15, cooling_factor=factor, cooling_period=5,
                                      seed=3 + rep)
                    total += simulated_annealing(day, config).best_meo
                totals.append(total)
            means.append(float(np.mean(totals)))
        expected = _io.StringIO()
        writer = csv.writer(expected)
        writer.writerow(["iterations", "cooling_factor", "cooling_period",
                         "mean_total_best_meo", "best"])
        for i, (factor, mean) in enumerate(zip((0.85, 0.95), means)):
            writer.writerow([15, factor, 5, mean, int(i == means.index(min(means)))])
        assert out.read_bytes() == expected.getvalue().encode()

    def test_empty_directory_rejected(self, tmp_path):
        empty = tmp_path / "none"
        empty.mkdir()
        assert run("sweep", empty, "--out", tmp_path / "s.csv") == 2


class TestVersionFlag:
    def test_version_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run("--version")
        assert exc.value.code == 0
        assert "pacuplan" in capsys.readouterr().out


def test_fresh_import_loads_no_scipy():
    # scipy is a test-only oracle; the runtime needs numpy alone.
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src), *filter(None, [os.environ.get("PYTHONPATH")])]))
    code = ("import sys, pacuplan.cli; print(pacuplan.cli.__file__); "
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60, check=True)
    module_file, loaded = proc.stdout.splitlines()
    assert Path(module_file).resolve().parent == src / "pacuplan"
    assert loaded == "[]"


class TestGoldenDataFiles:
    """The SHA-256 of every data file the commands write, pinned on this platform.

    Manifests hold timings and are never pinned.  A change that alters a
    data file on purpose updates its digest and says why.
    """

    DIGESTS = {
        "day.json": "8cafda1e28a31402524a499623d206adc0387a40085969ea2708dfb1eefeb5f3",
        "big.json": "9d33a9783a3e86b4d0a4d25909688a9513a14794ddd056990a7a57b29282f404",
        "day-best.json": "f60b4b1a70382f9fdd0829d2e94fda1a63cf8f5e0850098d50544a9fa8bcf24d",
        "day-best.report.json": "3fa467c9cb2dc5e478963c01ceb7cf2068ba3218da43ecbc1a0c9472f16ca709",
        "big-best.json": "100d937ba59769fd838b59ce136d79c4048f6cdb45b94ca88ccdd02c4369bfc8",
        "big-best.report.json": "cf9f22e231cb5f80f7759d852551a2b77ba0d0319211d22ad2bceca8c0fd5e7d",
        "day.csv": "eb9f0a27c37c4a5548d55c6b1c5657b21112ab6fd4a3dc07b496176bca3781b1",
        "big.csv": "7a613799cbb2480e3dea563798ed89f42800e1651cccce11ce37c1d67a2f3b65",
        "check-true.json": "d1f271534fedc202c2ce3516b7af1678aaccc0dc0952f6d69aed0cf95dc47693",
        "check-matched.json": "ed6dce4bbcc4128dab253750332898737ca069f32daf891b38a1044d366f2835",
        "sweep/day2.json": "27bdb463575eddf222807ce2a5c1f8fa9c77b591412a0395869c83af855723c1",
        "sweep/day3.json": "96440c576aee62e2d6d75c3b30413906ec889fd08523571b9ba1b00affce8539",
        "sweep.csv": "71cd6311c227dc98ea86bd4861bea86a410816351ed7a1221b37928e6221d39a",
    }

    @pytest.fixture(scope="class")
    def outputs(self, tmp_path_factory):
        d = tmp_path_factory.mktemp("golden")
        (d / "sweep").mkdir()
        commands = [
            ("generate", "--seed", 0, "--out", d / "day.json"),
            ("generate", "--patients", 1000, "--surgeons", 574, "--ors", 344,
             "--out", d / "big.json"),
            ("optimize", d / "day.json", "--seed", 1, "--out", d / "day-best.json"),
            ("optimize", d / "big.json", "--seed", 1, "--iterations", 100,
             "--out", d / "big-best.json"),
            ("forecast", d / "day.json", d / "day-best.json", "--out", d / "day.csv"),
            ("forecast", d / "big.json", d / "big-best.json", "--out", d / "big.csv"),
            *(("validate", d / "day.json", d / "day-best.json", "--mode", mode,
               "--samples", 20_000, "--out", d / f"check-{mode}.json")
              for mode in ("true", "matched")),
            *(("generate", "--patients", 12, "--surgeons", 6, "--ors", 4, "--seed", seed,
               "--out", d / "sweep" / f"day{seed}.json") for seed in (2, 3)),
            ("sweep", d / "sweep", "--iteration-grid", "30,60", "--factor-grid", "0.9",
             "--period-grid", "10", "--reps", 2, "--out", d / "sweep.csv"),
        ]
        for argv in commands:
            assert run(*argv) == 0
        return d

    @pytest.mark.parametrize("name", sorted(DIGESTS))
    def test_bytes(self, outputs, name):
        assert hashlib.sha256((outputs / name).read_bytes()).hexdigest() == self.DIGESTS[name]
