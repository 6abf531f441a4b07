"""In-memory spans recorded around fedproj functions, rebound at their call sites.

The benchmark never edits the package. It replaces a module attribute such as
``fedproj.projection.basis_tile`` with a wrapper that records a span and then
calls the original, so every caller that looks the name up in that module
(here ``project`` and ``reconstruct``) is traced. ``Tracer.restore`` puts the
originals back.

A span holds its name, start and end, the index of its parent span, the trace
id of the operation it belongs to (one round, or one ``run_check`` call) and
optional exact work counts, such as basis entries or frame bytes.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable

# (args, kwargs, result) -> {counter name: amount}
Measure = Callable[[tuple, dict, object], dict]


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int
    trace_id: int
    counts: dict = field(default_factory=dict)
    error: bool = False

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans in memory; owns the call-site rebindings it installs."""

    def __init__(self):
        self.spans: list[Span] = []
        self.trace_id = 0
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def new_trace(self) -> int:
        """Start a new operation; later spans carry its id."""
        self.trace_id += 1
        return self.trace_id

    def wrap(self, name: str, fn: Callable, measure: Measure | None = None) -> Callable:
        """Return fn wrapped so that each call records one span."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            span = Span(name, 0.0, 0.0, parent, self.trace_id)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.error = True
                raise
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if measure is not None:
                span.counts = measure(args, kwargs, result)
            return result

        return traced

    def rebind(self, module, attr: str, replacement: Callable) -> None:
        """Replace module.attr, remembering the original for restore()."""
        self._saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, replacement)

    def install(self, module, attr: str, name: str,
                measure: Measure | None = None) -> None:
        """Trace every call that reaches module.attr through the module."""
        self.rebind(module, attr, self.wrap(name, getattr(module, attr), measure))

    def restore(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent >= 0:
            children[span.parent].append((span.start, span.end))
    out = []
    for i, span in enumerate(spans):
        covered, reach = 0.0, span.start
        for start, end in sorted(children.get(i, ())):
            start, end = max(start, reach), min(end, span.end)
            if end > start:
                covered += end - start
                reach = end
        out.append(span.duration - covered)
    return out


@dataclass
class SpanStats:
    """Totals over every span of one name."""

    calls: int = 0
    errors: int = 0
    busy_s: float = 0.0
    self_s: float = 0.0
    counts: dict = field(default_factory=lambda: defaultdict(int))


def summarize(spans: list[Span]) -> dict[str, SpanStats]:
    """Per-name calls, errors, busy and self time, and summed work counts."""
    stats: dict[str, SpanStats] = defaultdict(SpanStats)
    for span, own in zip(spans, self_times(spans)):
        s = stats[span.name]
        s.calls += 1
        s.errors += span.error
        s.busy_s += span.duration
        s.self_s += own
        for key, amount in span.counts.items():
            s.counts[key] += amount
    return dict(stats)


def counts_by_trace(spans: list[Span]) -> dict[int, dict[str, int]]:
    """Exact per-operation counters: '<name>.calls' and '<name>.<count>'."""
    out: dict[int, dict[str, int]] = defaultdict(lambda: defaultdict(int))
    for span in spans:
        row = out[span.trace_id]
        row[f"{span.name}.calls"] += 1
        for key, amount in span.counts.items():
            row[f"{span.name}.{key}"] += amount
    return out


def write_spans(spans: list[Span], path) -> None:
    """One JSON object per line, times relative to the first span."""
    t0 = spans[0].start if spans else 0.0
    with open(path, "w", encoding="utf-8") as fh:
        for i, s in enumerate(spans):
            fh.write(json.dumps({
                "id": i, "name": s.name, "trace": s.trace_id,
                "parent": s.parent, "start_s": s.start - t0,
                "end_s": s.end - t0, "error": s.error, **s.counts,
            }) + "\n")
