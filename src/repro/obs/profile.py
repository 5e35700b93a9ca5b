"""Low-overhead sampling profiler for the packet-engine hot loops.

A background thread wakes every ``interval`` seconds, grabs the
profiled thread's current stack via :func:`sys._current_frames` (one
dict lookup -- no tracing hooks, no per-event cost in the profiled
thread), and attributes the sample to the innermost frame that
matches a known engine category:

``port``
    Link/port transmit machinery (:mod:`repro.sim.link`).
``protocol``
    Protocol handlers (:mod:`repro.sim.protocols`): DCQCN/TIMELY
    rate updates, CNP generation, ack clocking.
``scheduler``
    :meth:`~repro.sim.engine.Simulator.schedule`, ``schedule_at`` and
    ``cancel``: building a heap entry and pushing it.
``engine``
    The :class:`~repro.sim.engine.Simulator` run loop itself, the heap
    pops included (``heapq`` runs inline in it).
``fluid``
    The ODE/DDE models (:mod:`repro.core.fluid`).
``other``
    Anything else (numpy internals, experiment glue).

The profiled thread pays **nothing** per event -- the sampler only
reads its stack from the outside and installs no trace or profile
hook (``tests/test_profile.py`` checks both) -- so the cost scales
with the *sampling* rate, not the event rate.

Samples aggregate into per-category shares published at stop time
(the aggregation-point rule) as ``obs.profile.*`` gauges, plus the
engine throughput gauges ``sim.engine.events_per_sec`` /
``sim.engine.pkts_per_sec`` when the caller hands the profiler a
finished :class:`~repro.sim.engine.Simulator`.
"""

from __future__ import annotations

import sys
import threading
import time
from typing import Dict, Iterator, Optional

from contextlib import contextmanager

from repro.obs import metrics as _metrics

#: Default sampling period, seconds (200 Hz).  Coarse enough that a
#: sample costs the profiled thread nothing measurable, fine enough
#: to resolve a 20 ms experiment into hundreds of samples.
DEFAULT_INTERVAL = 0.005

#: Innermost-match attribution table: (path fragment, category).
#: Order matters -- the first fragment found walking outward from the
#: innermost frame wins, so more specific modules come first.
CATEGORIES = (
    ("repro/sim/link", "port"),
    ("repro\\sim\\link", "port"),
    ("repro/sim/protocols", "protocol"),
    ("repro\\sim\\protocols", "protocol"),
    ("repro/core/fluid", "fluid"),
    ("repro\\core\\fluid", "fluid"),
    ("repro/sim/engine", "engine"),
    ("repro\\sim\\engine", "engine"),
)


def _scheduler_codes() -> tuple:
    """Code objects of the engine's scheduling entry points.

    Looked up in ``sys.modules`` rather than imported: no frame can
    sit in the engine before something else has imported it.
    """
    engine = sys.modules.get("repro.sim.engine")
    if engine is None:
        return ()
    simulator = engine.Simulator
    return (simulator.schedule.__code__, simulator.schedule_at.__code__,
            simulator.cancel.__code__)


def classify_frame(frame) -> str:
    """Category of the innermost matching frame of a sampled stack."""
    scheduler = _scheduler_codes()
    while frame is not None:
        if frame.f_code in scheduler:
            return "scheduler"
        filename = frame.f_code.co_filename
        for fragment, category in CATEGORIES:
            if fragment in filename:
                return category
        frame = frame.f_back
    return "other"


class SamplingProfiler:
    """Samples one thread's stack from a sidecar thread.

    Profiles the thread that calls :meth:`start` (normally the main
    thread driving the simulator).  Usable as a context manager::

        with SamplingProfiler(interval=0.005) as prof:
            net.sim.run(until=0.5)
        print(prof.format_report())
    """

    def __init__(self, interval: float = DEFAULT_INTERVAL):
        if interval <= 0:
            raise ValueError(f"interval must be positive, "
                             f"got {interval}")
        self.interval = float(interval)
        self.samples: Dict[str, int] = {}
        self.total_samples = 0
        self.wall_s = 0.0
        self._target_ident: Optional[int] = None
        self._thread: Optional[threading.Thread] = None
        self._stop = threading.Event()
        self._started_at = 0.0

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> "SamplingProfiler":
        if self._thread is not None:
            raise RuntimeError("profiler already running")
        self._target_ident = threading.get_ident()
        self._stop.clear()
        self._started_at = time.perf_counter()
        self._thread = threading.Thread(
            target=self._sample_loop, name="repro-profiler",
            daemon=True)
        self._thread.start()
        return self

    def stop(self) -> "SamplingProfiler":
        if self._thread is None:
            return self
        self._stop.set()
        self._thread.join(timeout=5.0)
        self._thread = None
        self.wall_s += time.perf_counter() - self._started_at
        return self

    def __enter__(self) -> "SamplingProfiler":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()

    def _sample_loop(self) -> None:
        ident = self._target_ident
        while not self._stop.wait(self.interval):
            frame = sys._current_frames().get(ident)
            if frame is None:
                continue  # target thread exited
            category = classify_frame(frame)
            self.samples[category] = \
                self.samples.get(category, 0) + 1
            self.total_samples += 1

    # -- reporting ---------------------------------------------------------

    def shares(self) -> Dict[str, float]:
        """Per-category share of samples (empty when none landed)."""
        if not self.total_samples:
            return {}
        return {category: count / self.total_samples
                for category, count in sorted(self.samples.items())}

    def report(self) -> dict:
        """JSON-ready summary (also the run-log ``profile`` event)."""
        return {"samples": self.total_samples,
                "interval_s": self.interval,
                "wall_s": self.wall_s,
                "shares": self.shares()}

    def format_report(self) -> str:
        if not self.total_samples:
            return ("(no profiler samples -- run shorter than the "
                    "sampling interval)")
        lines = [f"{'category':<12} {'samples':>8} {'share':>7}"]
        lines.append("-" * len(lines[0]))
        for category, count in sorted(self.samples.items(),
                                      key=lambda kv: -kv[1]):
            share = 100.0 * count / self.total_samples
            lines.append(f"{category:<12} {count:>8} "
                         f"{share:>6.1f}%")
        lines.append(f"{'total':<12} {self.total_samples:>8} "
                     f"{100.0:>6.1f}%  "
                     f"({self.wall_s:.3f}s wall, "
                     f"{self.interval * 1e3:g}ms interval)")
        return "\n".join(lines)

    def publish(self, registry=None) -> None:
        """Publish shares as gauges (one call at stop time)."""
        registry = registry if registry is not None \
            else _metrics.get_registry()
        registry.counter("obs.profile.samples_total").inc(
            self.total_samples)
        for category, share in self.shares().items():
            registry.gauge(
                f"obs.profile.{category}_share").set(share)


def publish_engine_rates(sim, wall_s: float,
                         registry=None) -> Dict[str, float]:
    """Publish ``sim.engine.events_per_sec`` (and ``pkts_per_sec``
    when the simulator carries a packet counter) for a finished run
    that took ``wall_s`` wall-clock seconds."""
    registry = registry if registry is not None \
        else _metrics.get_registry()
    rates: Dict[str, float] = {}
    if wall_s > 0:
        events = getattr(sim, "events_processed", 0)
        rates["events_per_sec"] = events / wall_s
        registry.gauge("sim.engine.events_per_sec").set(
            rates["events_per_sec"])
        packets = getattr(sim, "packets_processed", None)
        if packets:
            rates["pkts_per_sec"] = packets / wall_s
            registry.gauge("sim.engine.pkts_per_sec").set(
                rates["pkts_per_sec"])
    return rates


@contextmanager
def profiled(interval: float = DEFAULT_INTERVAL,
             publish: bool = True
             ) -> Iterator[SamplingProfiler]:
    """Profile a block; publishes shares to the active registry."""
    profiler = SamplingProfiler(interval=interval)
    profiler.start()
    try:
        yield profiler
    finally:
        profiler.stop()
        if publish:
            profiler.publish()
