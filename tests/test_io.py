import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pacuplan import (GenSpec, Instance, LognormalParams, Patient, Schedule, Surgeon,
                      generate_instance, occupancy_curve)
from pacuplan import io

from conftest import make_instance, make_patient


class TestInstanceRoundTrip:
    def test_generated_instance_survives(self, tmp_path, default_instance):
        path = tmp_path / "instance.json"
        io.write_instance(default_instance, path)
        assert io.read_instance(path) == default_instance

    def test_empty_instance_survives(self, tmp_path, empty_instance):
        path = tmp_path / "empty.json"
        io.write_instance(empty_instance, path)
        assert io.read_instance(path) == empty_instance

    def test_rejects_wrong_version(self, tmp_path):
        path = tmp_path / "bad.json"
        payload = io.instance_to_dict(generate_instance(GenSpec(
            or_count=2, surgeon_count=2, patient_count=3)))
        payload["format_version"] = 99
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="format version"):
            io.read_instance(path)

    def test_rejects_missing_field(self, tmp_path):
        path = tmp_path / "broken.json"
        payload = io.instance_to_dict(generate_instance(GenSpec(
            or_count=2, surgeon_count=2, patient_count=3)))
        del payload["patients"][0]["surgery"]
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="surgery"):
            io.read_instance(path)

    @pytest.mark.parametrize("record, field", [
        ((), "or_hours"),
        (("surgeons", 0), "shift_ned"),
        (("patients", 1), "setpu"),
        (("patients", 1), "combined"),
    ])
    def test_rejects_unknown_field_naming_the_record(self, tmp_path, record, field):
        path = tmp_path / "typo.json"
        payload = io.instance_to_dict(generate_instance(GenSpec(
            or_count=2, surgeon_count=2, patient_count=3)))
        target = payload
        for step in record:
            target = target[step]
        target[field] = 1.0
        path.write_text(json.dumps(payload))
        where = "top level" if not record else f"{record[0]}[{record[1]}]"
        with pytest.raises(ValueError, match=rf"typo.json: {re.escape(where)}: "
                                             rf"unknown field\(s\) {field}$"):
            io.read_instance(path)

    @pytest.mark.parametrize("edit, message", [
        (lambda d: d["patients"][2]["surgery"].update(sigma2=math.nan),
         "patients[2] surgery: lognormal: sigma2 must be a finite number, got nan"),
        (lambda d: d["patients"][2]["recovery"].pop("mu"),
         "patients[2] recovery: missing required field 'mu'"),
        (lambda d: d["surgeons"][1].update(shift_start=9.0),
         "surgeons[1]: surgeon s2: shift [9.0, 8.0] is invalid"),
        (lambda d: d.update(or_count=1), "top level: patient p2 references OR 2 outside 1..1"),
    ])
    def test_an_error_names_only_the_innermost_entry(self, tmp_path, edit, message):
        payload = io.instance_to_dict(generate_instance(GenSpec(
            or_count=2, surgeon_count=2, patient_count=4)))
        edit(payload)
        path = tmp_path / "day.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match=f"^{re.escape(f'{path}: {message}')}$"):
            io.read_instance(path)

    def test_omitted_optional_fields_take_their_defaults(self, tmp_path):
        day = make_instance([make_patient(setup=0.2, cleanup=0.3, duration=2.5)],
                            surgeons=[Surgeon(id="s1", shift_start=1.0, shift_end=7.0, new_or_setup=0.4)])
        payload = io.instance_to_dict(day)
        del payload["surgeons"][0]["new_or_setup"]
        for name in ("expected_duration", "setup", "cleanup"):
            del payload["patients"][0][name]
        path = tmp_path / "sparse.json"
        path.write_text(json.dumps(payload))
        read = io.read_instance(path)
        assert read.surgeons == [Surgeon(id="s1", shift_start=1.0, shift_end=7.0, new_or_setup=0.0)]
        patient = read.patients[0]
        assert (patient.expected_duration, patient.setup, patient.cleanup) == (
            patient.surgery.mean(), 0.0, 0.0)
        io.write_instance(read, path)
        assert io.read_instance(path) == read

    @pytest.mark.parametrize("real", [np.float32, np.float64])
    def test_numpy_scalars_write_as_the_python_numbers_they_hold(self, tmp_path, real):
        def day(integer, number):
            surgeon = Surgeon(id="s1", shift_start=number(0.5), shift_end=number(7.25),
                              new_or_setup=number(0.1))
            patient = Patient(id="p1", surgeon_id="s1", or_id=integer(2), needs_recovery=True,
                              surgery=LognormalParams(number(0.3), number(0.2)),
                              recovery=LognormalParams(number(-0.1), number(0.4)),
                              expected_duration=number(1.7), setup=number(0.2), cleanup=number(0.3))
            return Instance(surgeons=[surgeon], patients=[patient], or_count=2,
                            or_open_hours=number(8.0), day_hours=number(24.0))

        with_numpy, with_python = tmp_path / "numpy.json", tmp_path / "python.json"
        io.write_instance(day(np.int64, real), with_numpy)
        io.write_instance(day(int, lambda x: float(real(x))), with_python)
        assert with_numpy.read_bytes() == with_python.read_bytes()
        assert io.read_instance(with_numpy) == day(int, lambda x: float(real(x)))

    def test_rejects_garbage(self, tmp_path):
        path = tmp_path / "garbage.json"
        path.write_text("{not json")
        with pytest.raises(ValueError, match="JSON"):
            io.read_instance(path)


class TestScheduleRoundTrip:
    def test_exact_floats_survive(self, tmp_path):
        schedule = Schedule({"p1": 0.1 + 0.2, "p2": 7.123456789012345})
        path = tmp_path / "schedule.json"
        io.write_schedule(schedule, path)
        assert io.read_schedule(path) == schedule

    def test_rejects_missing_starts(self, tmp_path):
        path = tmp_path / "schedule.json"
        path.write_text(json.dumps({"format_version": 1}))
        with pytest.raises(ValueError, match="starts"):
            io.read_schedule(path)

    def test_rejects_unknown_field(self, tmp_path):
        path = tmp_path / "schedule.json"
        path.write_text(json.dumps({"format_version": 1, "starts": {"p1": 0.0}, "start": {}}))
        with pytest.raises(ValueError, match=r"schedule.json: unknown field\(s\) start$"):
            io.read_schedule(path)


def _finite(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


_IDS = st.text(min_size=1, max_size=6)
_LOGNORMALS = st.builds(LognormalParams, _finite(-4.0, 4.0), _finite(1e-3, 3.0))


@st.composite
def instances(draw):
    """Valid days of up to 4 ORs, 4 surgeons and 8 patients, over arbitrary finite floats."""
    day_hours = draw(_finite(1.0, 48.0))
    or_count = draw(st.integers(1, 4))
    surgeons = []
    for sid in draw(st.lists(_IDS, min_size=1, max_size=4, unique=True)):
        shift_start = draw(_finite(0.0, day_hours / 2))
        surgeons.append(Surgeon(id=sid, shift_start=shift_start,
                                shift_end=draw(_finite(shift_start, day_hours).filter(
                                    lambda end: end > shift_start)),
                                new_or_setup=draw(_finite(0.0, 2.0))))
    patients = [Patient(id=pid, surgeon_id=draw(st.sampled_from(surgeons)).id,
                        or_id=draw(st.integers(1, or_count)),
                        needs_recovery=draw(st.booleans()),
                        surgery=draw(_LOGNORMALS), recovery=draw(_LOGNORMALS),
                        expected_duration=draw(st.none() | _finite(1e-6, 20.0)),
                        setup=draw(_finite(0.0, 1.0)), cleanup=draw(_finite(0.0, 1.0)))
                for pid in draw(st.lists(_IDS, max_size=8, unique=True))]
    return Instance(surgeons=surgeons, patients=patients, or_count=or_count,
                    or_open_hours=draw(_finite(0.0, day_hours).filter(lambda h: h > 0.0)),
                    day_hours=day_hours)


class TestRoundTripProperties:
    @settings(max_examples=60, deadline=None)
    @given(instances())
    def test_instances_come_back_equal(self, tmp_path_factory, instance):
        path = tmp_path_factory.mktemp("day") / "instance.json"
        io.write_instance(instance, path)
        assert io.read_instance(path) == instance

    @settings(max_examples=60, deadline=None)
    @given(st.dictionaries(_IDS, _finite(-1e300, 1e300), max_size=10))
    def test_schedules_come_back_equal(self, tmp_path_factory, starts):
        path = tmp_path_factory.mktemp("schedule") / "schedule.json"
        io.write_schedule(Schedule(starts), path)
        assert io.read_schedule(path) == Schedule(starts)


# Every numeric field of an instance file, as the path of keys and list indices to it.
NUMERIC_FIELDS = [
    ("or_count",), ("or_open_hours",), ("day_hours",),
    ("surgeons", 1, "shift_start"), ("surgeons", 1, "shift_end"), ("surgeons", 1, "new_or_setup"),
    ("patients", 2, "or_id"), ("patients", 2, "expected_duration"), ("patients", 2, "setup"),
    ("patients", 2, "cleanup"), ("patients", 2, "surgery", "mu"), ("patients", 2, "surgery", "sigma2"),
    ("patients", 2, "recovery", "mu"), ("patients", 2, "recovery", "sigma2"),
]


class TestNonFiniteNumbers:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", NUMERIC_FIELDS, ids=lambda f: "/".join(map(str, f)))
    def test_instance_field_rejected_by_name(self, tmp_path, field, bad):
        payload = io.instance_to_dict(generate_instance(GenSpec(
            or_count=2, surgeon_count=2, patient_count=4)))
        *parents, key = field
        target = payload
        for step in parents:
            target = target[step]
        target[key] = bad
        path = tmp_path / "day.json"
        path.write_text(json.dumps(payload))  # NaN, Infinity, -Infinity
        with pytest.raises(ValueError) as raised:
            io.read_instance(path)
        message = str(raised.value)
        assert key in message
        if parents:  # the entry, and the lognormal within it: "patients[2] surgery"
            assert " ".join([f"{parents[0]}[{parents[1]}]", *parents[2:]]) in message

    def test_integer_beyond_float_range_rejected_by_name(self, tmp_path):
        payload = io.instance_to_dict(generate_instance(GenSpec(
            or_count=2, surgeon_count=2, patient_count=4)))
        payload["surgeons"][1]["shift_end"] = 10 ** 400
        path = tmp_path / "day.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match=r"surgeons\[1\]: .*shift_end must be a finite number"):
            io.read_instance(path)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 10 ** 400])
    def test_schedule_start_rejected_naming_the_patient(self, tmp_path, bad):
        path = tmp_path / "schedule.json"
        path.write_text(json.dumps({"format_version": 1, "starts": {"p1": 0.5, "p2": bad}}))
        with pytest.raises(ValueError, match="starts: non-finite start times for patients: p2$"):
            io.read_schedule(path)


class TestOccupancyCsv:
    def test_header_and_rows(self, tmp_path):
        curve = occupancy_curve([make_patient()], [0.0], grid_step=1.0, horizon=4.0)
        path = tmp_path / "curve.csv"
        io.write_occupancy_csv(curve, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "time,mean,variance,lower,upper"
        assert len(lines) == 1 + 5
        first = lines[1].split(",")
        assert float(first[0]) == 0.0
        assert float(first[1]) == 0.0


class TestManifest:
    def test_path_derivation(self):
        assert io.manifest_path("out/schedule.json").name == "schedule.manifest.json"
        assert io.manifest_path("occupancy.csv").name == "occupancy.manifest.json"

    def test_write_and_content(self, tmp_path):
        out = tmp_path / "thing.json"
        target = io.write_manifest(out, command="generate", version="0.1.0", seed=3,
                                   config={"patients": 5}, inputs=[], outputs=[str(out)],
                                   wall_clock_seconds=0.25)
        payload = json.loads(target.read_text())
        assert payload["command"] == "generate"
        assert payload["seed"] == 3
        assert payload["config"] == {"patients": 5}
        assert payload["created"]
        assert set(payload) == {"command", "version", "seed", "config", "inputs", "outputs",
                                "wall_clock_seconds", "created"}
