"""Metric primitives and the hierarchical registry.

Three instrument types cover everything the simulator, fluid models
and perf layer need to report:

* :class:`Counter` -- a monotonically increasing total
  (``sim.engine.events_total``).
* :class:`Gauge` -- a last-write-wins level
  (``perf.sweep.worker_utilization``).
* :class:`Histogram` -- a streaming distribution with P-squared
  quantile estimators (Jain & Chlamtac 1985): constant memory per
  tracked quantile, no sample storage, so a million-observation
  distribution costs the same as a ten-observation one.

Names are hierarchical dotted paths (``sim.port.sw_recv.bytes_total``)
built from ``[A-Za-z0-9_.]``; :func:`sanitize` maps free-form labels
(port names like ``"sw->recv"``) onto that alphabet.

The *active registry* pattern keeps instrumentation zero-cost when
telemetry is off: module-level :func:`get_registry` returns the
installed :class:`MetricsRegistry` or, by default, the shared
:data:`NULL_REGISTRY` whose instruments are inert singletons.
Instrumented code publishes unconditionally; whether anything is
recorded is decided by whoever (the :class:`~repro.obs.telemetry
.Telemetry` context) installed a real registry.  Hot loops follow one
rule, enforced by a spy-registry test in the suite: **publish at
aggregation points (end of run, end of attempt), never per event**.
"""

from __future__ import annotations

import math
import re
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

#: Characters legal in a metric name.
_NAME_RE = re.compile(r"^[A-Za-z0-9_.]+$")

#: Replacement pattern for free-form name parts.
_SANITIZE_RE = re.compile(r"[^A-Za-z0-9_]+")

#: Default quantiles tracked by new histograms.
DEFAULT_QUANTILES = (0.5, 0.9, 0.99)


def sanitize(part: str) -> str:
    """Map a free-form label onto the metric-name alphabet.

    ``"sw->recv"`` becomes ``"sw_recv"``; runs of illegal characters
    collapse to one underscore so distinct labels stay distinct in
    the common cases.
    """
    cleaned = _SANITIZE_RE.sub("_", str(part)).strip("_")
    return cleaned or "unnamed"


class P2Quantile:
    """Streaming quantile estimator (the P-squared algorithm).

    Tracks one quantile ``p`` with five markers -- O(1) memory and
    O(1) per observation -- trading exactness for the ability to run
    inside million-sample sweeps.  Below five observations the exact
    sorted-sample quantile is returned.
    """

    __slots__ = ("p", "_initial", "_q", "_n", "_np", "_dn")

    def __init__(self, p: float):
        if not 0.0 < p < 1.0:
            raise ValueError(f"p must be in (0, 1), got {p}")
        self.p = p
        self._initial: List[float] = []
        self._q: Optional[List[float]] = None
        self._n: List[int] = []
        self._np: List[float] = []
        self._dn: List[float] = []

    def observe(self, x: float) -> None:
        if self._q is None:
            self._initial.append(x)
            if len(self._initial) == 5:
                self._initial.sort()
                p = self.p
                self._q = list(self._initial)
                self._n = [0, 1, 2, 3, 4]
                self._np = [0.0, 2 * p, 4 * p, 2 + 2 * p, 4.0]
                self._dn = [0.0, p / 2, p, (1 + p) / 2, 1.0]
            return
        q, n = self._q, self._n
        if x < q[0]:
            q[0] = x
            k = 0
        elif x < q[1]:
            k = 0
        elif x < q[2]:
            k = 1
        elif x < q[3]:
            k = 2
        elif x <= q[4]:
            k = 3
        else:
            q[4] = x
            k = 3
        for i in range(k + 1, 5):
            n[i] += 1
        for i in range(5):
            self._np[i] += self._dn[i]
        for i in (1, 2, 3):
            d = self._np[i] - n[i]
            if (d >= 1 and n[i + 1] - n[i] > 1) or \
                    (d <= -1 and n[i - 1] - n[i] < -1):
                step = 1 if d > 0 else -1
                candidate = self._parabolic(i, step)
                if not q[i - 1] < candidate < q[i + 1]:
                    candidate = self._linear(i, step)
                q[i] = candidate
                n[i] += step

    def _parabolic(self, i: int, d: int) -> float:
        q, n = self._q, self._n
        return q[i] + d / (n[i + 1] - n[i - 1]) * (
            (n[i] - n[i - 1] + d) * (q[i + 1] - q[i])
            / (n[i + 1] - n[i])
            + (n[i + 1] - n[i] - d) * (q[i] - q[i - 1])
            / (n[i] - n[i - 1]))

    def _linear(self, i: int, d: int) -> float:
        q, n = self._q, self._n
        return q[i] + d * (q[i + d] - q[i]) / (n[i + d] - n[i])

    def value(self) -> float:
        """Current estimate (NaN before the first observation)."""
        if self._q is not None:
            return self._q[2]
        if not self._initial:
            return float("nan")
        ordered = sorted(self._initial)
        position = self.p * (len(ordered) - 1)
        low = int(math.floor(position))
        high = min(low + 1, len(ordered) - 1)
        fraction = position - low
        return ordered[low] * (1 - fraction) + ordered[high] * fraction


class Counter:
    """Monotonically increasing total."""

    __slots__ = ("name", "value")
    kind = "counter"

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(
                f"counters only go up; inc({amount}) on {self.name}")
        self.value += amount

    def snapshot(self) -> dict:
        return {"type": self.kind, "value": self.value}


class Gauge:
    """Last-write-wins level."""

    __slots__ = ("name", "value")
    kind = "gauge"

    def __init__(self, name: str):
        self.name = name
        self.value = float("nan")

    def set(self, value: float) -> None:
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        if self.value != self.value:  # NaN: first touch
            self.value = 0.0
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.inc(-amount)

    def snapshot(self) -> dict:
        return {"type": self.kind, "value": self.value}


class Histogram:
    """Streaming distribution: count/sum/min/max plus P2 quantiles."""

    __slots__ = ("name", "count", "total", "min", "max", "_quantiles")
    kind = "histogram"

    def __init__(self, name: str,
                 quantiles: Sequence[float] = DEFAULT_QUANTILES):
        self.name = name
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = float("-inf")
        self._quantiles: Dict[float, P2Quantile] = {
            float(q): P2Quantile(float(q)) for q in quantiles}

    def observe(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        for estimator in self._quantiles.values():
            estimator.observe(value)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else float("nan")

    def quantile(self, q: float) -> float:
        """Current estimate for a tracked quantile ``q``."""
        return self._quantiles[float(q)].value()

    def quantiles(self) -> "Dict[float, float]":
        return {q: est.value()
                for q, est in sorted(self._quantiles.items())}

    def snapshot(self) -> dict:
        empty = self.count == 0
        return {"type": self.kind,
                "count": self.count,
                "sum": self.total,
                "min": None if empty else self.min,
                "max": None if empty else self.max,
                "mean": None if empty else self.mean,
                "quantiles": {f"{q:g}": (None if empty else value)
                              for q, value in
                              self.quantiles().items()}}


class MetricsRegistry:
    """Name -> instrument map with get-or-create accessors.

    Re-requesting a name returns the existing instrument; requesting
    it as a different type raises, because a silent type change would
    corrupt whatever the first publisher recorded.
    """

    def __init__(self):
        self._metrics: Dict[str, object] = {}

    def _get_or_create(self, name: str, factory, kind: str):
        metric = self._metrics.get(name)
        if metric is None:
            if not _NAME_RE.match(name):
                raise ValueError(
                    f"invalid metric name {name!r}; use "
                    "[A-Za-z0-9_.] (sanitize() free-form parts)")
            metric = factory()
            self._metrics[name] = metric
        elif metric.kind != kind:
            raise TypeError(
                f"metric {name!r} already registered as "
                f"{metric.kind}, requested as {kind}")
        return metric

    def counter(self, name: str) -> Counter:
        return self._get_or_create(name, lambda: Counter(name),
                                   "counter")

    def gauge(self, name: str) -> Gauge:
        return self._get_or_create(name, lambda: Gauge(name), "gauge")

    def histogram(self, name: str,
                  quantiles: Sequence[float] = DEFAULT_QUANTILES
                  ) -> Histogram:
        return self._get_or_create(
            name, lambda: Histogram(name, quantiles), "histogram")

    def get(self, name: str) -> Optional[object]:
        """The instrument registered under ``name``, or None."""
        return self._metrics.get(name)

    def names(self) -> List[str]:
        return sorted(self._metrics)

    def __len__(self) -> int:
        return len(self._metrics)

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def snapshot(self) -> "Dict[str, dict]":
        """All instruments as JSON-ready dicts, sorted by name."""
        return {name: self._metrics[name].snapshot()
                for name in self.names()}


class _NullInstrument:
    """Inert counter/gauge/histogram standing in when telemetry is off.

    One shared instance answers every request: the methods are empty,
    so the only cost an instrumented call site pays is the call
    itself -- and call sites follow the aggregation-point rule, so
    even that never lands in a per-event loop.
    """

    __slots__ = ()
    kind = "null"
    name = "null"
    value = 0.0
    count = 0
    total = 0.0
    min = float("nan")
    max = float("nan")
    mean = float("nan")

    def inc(self, amount: float = 1.0) -> None:
        pass

    def dec(self, amount: float = 1.0) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass

    def quantile(self, q: float) -> float:
        return float("nan")

    def quantiles(self) -> dict:
        return {}

    def snapshot(self) -> dict:
        return {"type": "null"}


_NULL_INSTRUMENT = _NullInstrument()


class NullRegistry:
    """No-op registry: every accessor returns the inert instrument."""

    def counter(self, name: str) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def gauge(self, name: str) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def histogram(self, name: str,
                  quantiles: Sequence[float] = DEFAULT_QUANTILES
                  ) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def get(self, name: str) -> None:
        return None

    def names(self) -> List[str]:
        return []

    def __len__(self) -> int:
        return 0

    def __contains__(self, name: str) -> bool:
        return False

    def snapshot(self) -> "Dict[str, dict]":
        return {}


#: The process-wide default: telemetry off.
NULL_REGISTRY = NullRegistry()

_active = NULL_REGISTRY


def get_registry():
    """The currently installed registry (the null one by default)."""
    return _active


def set_registry(registry) -> object:
    """Install ``registry`` (None restores the null); returns the old."""
    global _active
    previous = _active
    _active = registry if registry is not None else NULL_REGISTRY
    return previous


@contextmanager
def use_registry(registry) -> Iterator[object]:
    """Scoped :func:`set_registry`; always restores the previous one."""
    previous = set_registry(registry)
    try:
        yield registry
    finally:
        set_registry(previous)


def top_metrics(snapshot: "Dict[str, dict]", limit: int = 20
                ) -> "List[Tuple[str, dict]]":
    """Counters/gauges from a snapshot, largest magnitude first."""
    scalars = [(name, data) for name, data in snapshot.items()
               if data.get("type") in ("counter", "gauge")
               and data.get("value") == data.get("value")]
    scalars.sort(key=lambda item: -abs(item[1]["value"]))
    return scalars[:limit]
