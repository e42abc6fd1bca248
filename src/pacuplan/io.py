"""File formats: instance and schedule JSON, occupancy CSV, run manifests.

All writers are deterministic: keys are sorted, floats use their shortest
round-tripping representation, and no timestamps enter the data files.  The
run manifest is the one place wall-clock time and timestamps live.
"""
from __future__ import annotations

import csv
import datetime
import json
from pathlib import Path

from .distributions import LognormalParams, _field_table, _is_finite
from .forecast import OccupancyCurve
from .model import Instance, Patient, Schedule, Surgeon

FORMAT_VERSION = 1


def _check_version(payload: dict, path: Path) -> None:
    if not isinstance(payload, dict):
        raise ValueError(f"{path}: expected a JSON object at the top level, got {type(payload).__name__}")
    version = payload.get("format_version")
    if version != FORMAT_VERSION:
        raise ValueError(f"{path}: unsupported format version {version!r} (expected {FORMAT_VERSION})")


def require_known_fields(record, cls: type, *extra: str) -> None:
    """Reject a record that is not a JSON object, or that lacks or adds to the fields ``cls`` takes.

    The fields allowed are ``cls``'s constructor fields plus ``extra``; those
    without a default are required.
    """
    if not isinstance(record, dict):
        raise ValueError(f"expected a JSON object, got {type(record).__name__}")
    names, required, _ = _field_table(cls)
    allowed = names.union(extra) if extra else names
    if not record.keys() <= allowed:
        raise ValueError(f"unknown field(s) {', '.join(sorted(record.keys() - allowed))}")
    if not record.keys() >= required:
        raise ValueError(f"missing required field {min(required - record.keys())!r}")


def _plain(value):
    """A record as a dict of its constructor fields, converting what they hold alike; else ``value``.

    Lists and dicts are copied, so the result shares no container with the record.
    """
    if hasattr(value, "__dataclass_fields__"):
        return {name: _plain(getattr(value, name)) for name in _field_table(type(value))[0]}
    if isinstance(value, list):
        return [_plain(v) for v in value]
    if isinstance(value, dict):
        return {key: _plain(v) for key, v in value.items()}
    return value


def _numpy_scalar(value):
    """``json``'s hook for a value it cannot write: a numpy scalar, as the Python number it holds."""
    return value.item()


def write_json(payload: dict, path: str | Path) -> None:
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True, default=_numpy_scalar) + "\n")


def read_json(path: str | Path) -> dict:
    p = Path(path)
    try:
        return json.loads(p.read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(f"{p}: not valid JSON ({exc})") from exc


def instance_to_dict(instance: Instance) -> dict:
    return {"format_version": FORMAT_VERSION, **_plain(instance)}


def _record(cls: type, fields):
    """``cls`` built from a JSON object of exactly its constructor fields."""
    require_known_fields(fields, cls)
    return cls(**fields)


def instance_from_dict(payload: dict, source: Path = Path("<memory>")) -> Instance:
    where = "top level"  # the entry being read, for error messages
    try:
        require_known_fields(payload, Instance, "format_version")
        for key in ("surgeons", "patients"):
            if not isinstance(payload[key], list):
                raise ValueError(f"{key} must be a list, got {payload[key]!r}")
        surgeons = []
        for i, s in enumerate(payload["surgeons"]):
            where = f"surgeons[{i}]"
            surgeons.append(_record(Surgeon, s))
        patients = []
        for i, p in enumerate(payload["patients"]):
            where = f"patients[{i}]"
            require_known_fields(p, Patient)
            where = f"patients[{i}] surgery"
            surgery = _record(LognormalParams, p["surgery"])
            where = f"patients[{i}] recovery"
            recovery = _record(LognormalParams, p["recovery"])
            where = f"patients[{i}]"
            patients.append(Patient(**{**p, "surgery": surgery, "recovery": recovery}))
        where = "top level"
        return Instance(surgeons=surgeons, patients=patients, or_count=payload["or_count"],
                        or_open_hours=payload["or_open_hours"], day_hours=payload["day_hours"])
    except KeyError as exc:
        raise ValueError(f"{source}: {where}: missing required field {exc}") from exc
    except (TypeError, AttributeError, ValueError) as exc:
        raise ValueError(f"{source}: {where}: {exc}") from None


def write_instance(instance: Instance, path: str | Path) -> None:
    write_json(instance_to_dict(instance), path)


def read_instance(path: str | Path) -> Instance:
    p = Path(path)
    payload = read_json(p)
    _check_version(payload, p)
    return instance_from_dict(payload, source=p)


def schedule_to_dict(schedule: Schedule) -> dict:
    return {"format_version": FORMAT_VERSION, **_plain(schedule)}


def write_schedule(schedule: Schedule, path: str | Path) -> None:
    write_json(schedule_to_dict(schedule), path)


def read_schedule(path: str | Path) -> Schedule:
    p = Path(path)
    payload = read_json(p)
    _check_version(payload, p)
    try:
        require_known_fields(payload, Schedule, "format_version")
    except ValueError as exc:
        raise ValueError(f"{p}: {exc}") from None
    starts = payload["starts"]
    if not isinstance(starts, dict) or not all(
            isinstance(z, (int, float)) and not isinstance(z, bool) for z in starts.values()):
        raise ValueError(f"{p}: starts must map patient ids to numbers")
    non_finite = [pid for pid, z in starts.items() if not _is_finite(z)]
    if non_finite:
        raise ValueError(f"{p}: starts: non-finite start times for patients: {', '.join(non_finite)}")
    return Schedule(starts={pid: float(z) for pid, z in starts.items()})


def write_occupancy_csv(curve: OccupancyCurve, path: str | Path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["time", "mean", "variance", "lower", "upper"])
        writer.writerows(zip(*(column.tolist() for column in (
            curve.times, curve.mean, curve.variance, curve.lower, curve.upper))))


def manifest_path(out_path: str | Path) -> Path:
    p = Path(out_path)
    return p.with_name(p.stem + ".manifest.json")


def write_manifest(out_path: str | Path, **fields) -> Path:
    """Write ``fields`` and the time of writing, ``created``, as ``out_path``'s run manifest."""
    target = manifest_path(out_path)
    created = datetime.datetime.now(datetime.timezone.utc).isoformat()
    write_json({**fields, "created": created}, target)
    return target
