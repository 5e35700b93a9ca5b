"""Nested profiling spans with a flame-style text report.

A :class:`SpanRecorder` tracks a stack of named spans -- experiment ->
sweep-cell -> integration is the canonical nesting -- and records wall
time (``perf_counter``), CPU time (``process_time``) and, when
``tracemalloc`` is already tracing, the net allocation delta of each
span.  The module-level :func:`span` context manager publishes into
the *active recorder* exactly like metrics publish into the active
registry: with no recorder installed it degenerates to a no-op whose
only cost is one None check, preserving the hot-path guarantees.

Spans serialize to plain dicts (the run-log ``span`` event) carrying a
slash-joined ``path``; :func:`format_span_tree` aggregates any list of
such dicts -- live records or ones re-read from a run log -- into the
indented tree report ``python -m repro report`` prints.
"""

from __future__ import annotations

import time
import tracemalloc
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional


class SpanRecord:
    """One finished span (also the shape of a run-log span event)."""

    __slots__ = ("name", "path", "depth", "start_offset", "wall_s",
                 "cpu_s", "alloc_bytes")

    def __init__(self, name: str, path: str, depth: int,
                 start_offset: float, wall_s: float, cpu_s: float,
                 alloc_bytes: Optional[int] = None):
        self.name = name
        self.path = path
        self.depth = depth
        self.start_offset = start_offset
        self.wall_s = wall_s
        self.cpu_s = cpu_s
        self.alloc_bytes = alloc_bytes

    def as_dict(self) -> dict:
        return {"name": self.name, "path": self.path,
                "depth": self.depth,
                "start_offset": self.start_offset,
                "wall_s": self.wall_s, "cpu_s": self.cpu_s,
                "alloc_bytes": self.alloc_bytes}


class SpanRecorder:
    """Collects finished spans; completed children precede parents."""

    def __init__(self):
        self.records: List[SpanRecord] = []
        self._stack: List[str] = []
        self._origin = time.perf_counter()

    @property
    def depth(self) -> int:
        return len(self._stack)

    @contextmanager
    def span(self, name: str) -> Iterator[SpanRecord]:
        """Time a block; the record is finalized when the block exits."""
        self._stack.append(name)
        path = "/".join(self._stack)
        depth = len(self._stack) - 1
        record = SpanRecord(name=name, path=path, depth=depth,
                            start_offset=time.perf_counter()
                            - self._origin,
                            wall_s=0.0, cpu_s=0.0)
        tracing = tracemalloc.is_tracing()
        alloc_start = tracemalloc.get_traced_memory()[0] if tracing \
            else None
        wall_start = time.perf_counter()
        cpu_start = time.process_time()
        try:
            yield record
        finally:
            record.wall_s = time.perf_counter() - wall_start
            record.cpu_s = time.process_time() - cpu_start
            if tracing and tracemalloc.is_tracing():
                record.alloc_bytes = \
                    tracemalloc.get_traced_memory()[0] - alloc_start
            self._stack.pop()
            self.records.append(record)


_active: Optional[SpanRecorder] = None


def get_recorder() -> Optional[SpanRecorder]:
    """The installed recorder, or None when span profiling is off."""
    return _active


def set_recorder(recorder: Optional[SpanRecorder]
                 ) -> Optional[SpanRecorder]:
    """Install ``recorder`` (None disables); returns the previous one."""
    global _active
    previous = _active
    _active = recorder
    return previous


@contextmanager
def span(name: str) -> Iterator[Optional[SpanRecord]]:
    """Record a span on the active recorder; no-op when none is set."""
    recorder = _active
    if recorder is None:
        yield None
        return
    with recorder.span(name) as record:
        yield record


def _format_bytes(n: Optional[float]) -> str:
    if n is None:
        return "-"
    for unit, scale in (("GB", 1e9), ("MB", 1e6), ("KB", 1e3)):
        if abs(n) >= scale:
            return f"{n / scale:+.1f}{unit}"
    return f"{n:+.0f}B"


def format_span_tree(records: "List[dict]") -> str:
    """Aggregate span dicts by path into an indented tree report.

    Repeated spans (the same path executed many times -- every cell of
    a sweep, every integration of a grid) collapse into one line with
    a count, like a flame graph's merged frames.  Accepts live
    :class:`SpanRecord` objects or dicts read back from a run log.
    """
    rows: Dict[str, dict] = {}
    order: List[str] = []
    for record in records:
        data = record.as_dict() if isinstance(record, SpanRecord) \
            else record
        path = data["path"]
        row = rows.get(path)
        if row is None:
            row = {"path": path, "depth": data["depth"],
                   "name": data["name"], "count": 0, "wall_s": 0.0,
                   "cpu_s": 0.0, "alloc_bytes": None,
                   "first_start": data.get("start_offset", 0.0)}
            rows[path] = row
            order.append(path)
        row["count"] += 1
        row["wall_s"] += data["wall_s"]
        row["cpu_s"] += data["cpu_s"]
        alloc = data.get("alloc_bytes")
        if alloc is not None:
            row["alloc_bytes"] = (row["alloc_bytes"] or 0) + alloc
    if not rows:
        return "(no spans recorded)"

    # Depth-first tree order: children sort under their parent by
    # first start time, which completion-ordered records do not give.
    order.sort(key=lambda p: tuple(
        rows["/".join(p.split("/")[:i + 1])]["first_start"]
        for i in range(p.count("/") + 1)))
    root_wall = sum(row["wall_s"] for row in rows.values()
                    if row["depth"] == 0) or float("nan")

    lines = [f"{'span':<44} {'calls':>6} {'wall':>9} {'cpu':>9} "
             f"{'alloc':>9} {'%':>6}"]
    lines.append("-" * len(lines[0]))
    for path in order:
        row = rows[path]
        label = "  " * row["depth"] + row["name"]
        share = 100.0 * row["wall_s"] / root_wall
        lines.append(
            f"{label:<44} {row['count']:>6} "
            f"{row['wall_s']:>8.3f}s {row['cpu_s']:>8.3f}s "
            f"{_format_bytes(row['alloc_bytes']):>9} {share:>5.1f}%")
    return "\n".join(lines)
