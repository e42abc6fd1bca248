"""File formats: instance, schedule and spec JSON, occupancy CSV, run manifests.

All writers are deterministic: keys are sorted, floats use their shortest
round-tripping representation, and no timestamps enter the data files.  The
run manifest is the one place wall-clock time and timestamps live.
"""
from __future__ import annotations

import csv
import datetime
import json
from pathlib import Path
from typing import TYPE_CHECKING

from .distributions import _field_table
from .model import Instance, Schedule

if TYPE_CHECKING:  # pragma: no cover
    from .forecast import OccupancyCurve

FORMAT_VERSION = 1
# The records whose files carry ``format_version``.
_VERSIONED = (Instance, Schedule)


def _named(where: str | None, problem) -> ValueError:
    """The error ``<where>: <problem>``, or ``problem`` alone when ``where`` is None."""
    return ValueError(f"{where}: {problem}" if where else str(problem))


def record(cls: type, fields, where: str | None = None):
    """``cls`` built from the JSON object ``fields``.

    The object must hold every constructor field of ``cls`` without a
    default, and no other.  A field annotated as a record, or as a list of
    records, is read by recursion, a list entry named ``<field>[<i>]`` and a
    record ``<where> <field>``; a list for a ``tuple`` field becomes a tuple.
    An error reads ``<where>: <problem>``, naming the innermost entry.
    """
    names, required, _, built = _field_table(cls)
    if not isinstance(fields, dict):
        raise _named(where, f"expected a JSON object, got {type(fields).__name__}")
    if not fields.keys() <= names:
        raise _named(where, f"unknown field(s) {', '.join(sorted(fields.keys() - names))}")
    if not fields.keys() >= required:
        raise _named(where, f"missing required field {min(required - fields.keys())!r}")
    if built:
        fields = dict(fields)  # a copy, so the caller's object stays as it was
    for name, container, inner in built:
        if name not in fields:
            continue
        value = fields[name]
        if container is None:
            fields[name] = record(inner, value, f"{where} {name}" if where else name)
        elif container is list:
            if not isinstance(value, list):
                raise _named(where, f"{name} must be a list, got {value!r}")
            fields[name] = [record(inner, v, f"{name}[{i}]") for i, v in enumerate(value)]
        elif isinstance(value, list):
            fields[name] = tuple(value)
    try:
        return cls(**fields)
    except ValueError as exc:
        raise _named(where, exc) from None


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


def write_record(record, path: str | Path) -> None:
    """Write ``record``'s constructor fields as JSON, the file ``read_record`` reads back.

    An instance or schedule file also holds ``format_version``.
    """
    fields = _plain(record)
    if type(record) in _VERSIONED:
        fields["format_version"] = FORMAT_VERSION
    write_json(fields, path)


def read_record(path: str | Path, cls: type, where: str | None = None, /, **given):
    """``cls`` read by ``record`` from the JSON file at ``path``, ``given`` fields over the file's.

    Errors name the file.  An instance or schedule file also holds
    ``format_version``, which must be ``FORMAT_VERSION``.
    """
    p = Path(path)
    fields = read_json(p)
    try:
        if isinstance(fields, dict):
            if cls in _VERSIONED:
                version = fields.pop("format_version", None)
                if version != FORMAT_VERSION:
                    raise ValueError(f"unsupported format version {version!r} (expected {FORMAT_VERSION})")
            fields.update(given)
        return record(cls, fields, where)
    except ValueError as exc:
        raise ValueError(f"{p}: {exc}") from None


def read_instance(path: str | Path) -> Instance:
    return read_record(path, Instance, "top level")


def read_schedule(path: str | Path) -> Schedule:
    return read_record(path, Schedule)


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
