"""In-memory span tracer for pacuplan's public functions.

A span records one call into a public function of a pacuplan module: its
name, the benchmark step that caused it, start and end times, and the index
of the enclosing span.  Each function is wrapped at every place a caller
looks it up: the module that defines it and every pacuplan module that
imported it by name (for example ``forecast.poisson_binomial_cdf``), so the
solver's ``forecast.recovery_prob_matrix`` calls and forecast's own calls
are both seen.  One wrapper serves all of a function's look-up sites.
"""
from __future__ import annotations

import functools
import inspect
import json
import time
from dataclasses import dataclass
from pathlib import Path
from types import ModuleType

MODULES = ("cli", "io", "model", "forecast", "distributions", "solver", "simulation")


@dataclass
class Span:
    step: str
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root span

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Wraps pacuplan's public functions while installed; spans stay in memory."""

    def __init__(self, package: ModuleType):
        self.modules = {name: getattr(package, name) for name in MODULES}
        self.spans: list[Span] = []
        self.step: str | None = None  # spans are recorded only while a step is set
        self._stack: list[int] = []
        self._saved: list[tuple[ModuleType, str, object]] = []

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.step is None:
                return fn(*args, **kwargs)
            index = len(self.spans)
            span = Span(self.step, name, 0.0, 0.0, self._stack[-1] if self._stack else -1)
            self.spans.append(span)
            self._stack.append(index)
            span.start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
        return traced

    def __enter__(self) -> "Tracer":
        owners = {module.__name__: short for short, module in self.modules.items()}
        wrappers: dict[object, object] = {}
        for module in self.modules.values():
            for attr, value in list(vars(module).items()):
                if (attr.startswith("_") or not inspect.isfunction(value)
                        or value.__module__ not in owners):
                    continue
                if value not in wrappers:
                    wrappers[value] = self._wrap(f"{owners[value.__module__]}.{value.__name__}", value)
                self._saved.append((module, attr, value))
                setattr(module, attr, wrappers[value])
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, value in reversed(self._saved):
            setattr(module, attr, value)
        self._saved.clear()

    def self_time(self, index: int) -> float:
        """The span's duration minus the time its direct child spans cover."""
        children = sum(s.duration for s in self.spans if s.parent == index)
        return self.spans[index].duration - children

    def write(self, path: Path, steps: set[str]) -> None:
        """Write the spans of the given steps as JSON, one object per span."""
        rows = [{"index": i, "step": s.step, "name": s.name, "start": s.start,
                 "end": s.end, "parent": s.parent}
                for i, s in enumerate(self.spans) if s.step in steps]
        path.write_text(json.dumps(rows) + "\n")
