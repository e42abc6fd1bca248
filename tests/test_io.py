import json

import pytest

from pacuplan import GenSpec, Instance, Schedule, generate_instance, occupancy_curve
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
