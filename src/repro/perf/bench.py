"""Throughput benchmarks for the performance layer.

``python -m repro bench`` runs these and writes a JSON report (the
checked-in ``BENCH_PR7.json``; format documented in
``docs/PERFORMANCE.md``; diff two reports with ``python -m repro
compare``).  Four microbenchmarks cover the hot loops
the perf work targets -- the event heap, port serialization, DDE
stepping, and one stability-map row -- and a sweep section times the
``ext_stability_map`` grid (plus, with ``full=True``, the Section 5.1
FCT study) serially, with workers, and against a warm result cache.
A resilience section measures what the journal + retry machinery
costs an all-success sweep (it should be nearly free) and proves a
journaled resume is bit-identical to the plain run.

Unlike ``benchmarks/test_performance.py`` (pytest-benchmark, relative
regression tracking) this module produces absolute numbers meant to be
committed alongside the code they measure.
"""

from __future__ import annotations

import json
import platform
import sys
import time
from typing import Callable, Optional

from repro.perf.cache import ResultCache

#: Report format version; bump when fields change meaning.
#: 3 added the health-sampling telemetry measurement (PR 4).
#: 4 added the resilience (journal overhead + resume) section (PR 5).
#: 5 added the backend comparison (inprocess/pool/queue) section and
#:   the effective (affinity-aware) CPU count (PR 6).
#: 6 added the engines section: heap/calendar event-loop rates,
#:   batched (struct-of-arrays window) port throughput, the fig05
#:   calendar-vs-heap bit-identity check and the hybrid fluid/packet
#:   statistical-compatibility gate (PR 7).
#: 7 added the profiler section: event-loop throughput with the
#:   sampling profiler attached, the on/off ratio CI gates at
#:   >= 0.95, and the sampled category shares (PR 8).
#: 8 added the forensics section: port throughput with the flow
#:   ledger detached vs attached; the off/on ratio CI gates at
#:   >= 0.95 (the forensics-off hot path must keep short-circuiting
#:   on the ``ledger is None`` guards) (PR 9).
#: 9 removed the engines section along with the calendar scheduler,
#:   the batched port path and the hybrid mode it measured.
#: 10 removed the backends section along with the distributed queue
#:   it measured.
REPORT_VERSION = 10

#: Default output file, repo-root relative.
DEFAULT_REPORT = "BENCH_PR7.json"


def _best_of(fn: Callable[[], object], repeats: int = 3) -> float:
    """Minimum wall time of ``repeats`` calls, seconds."""
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - started)
    return best


def bench_event_loop(n_events: int = 200_000,
                     attach_health: bool = False) -> float:
    """Self-rescheduling no-op events per second through the queue.

    ``attach_health=True`` additionally installs a
    periodic sampler (every 20 sim-microseconds, i.e. one sample per
    20 events) feeding a live
    :class:`~repro.obs.health.QueueOscillationDetector`
    -- the worst realistic health-sampling duty cycle, used by the
    telemetry overhead guard.
    """
    from repro.sim.engine import Simulator

    def run() -> None:
        sim = Simulator()
        count = [0]

        def tick() -> None:
            count[0] += 1
            if count[0] < n_events:
                sim.schedule(1e-6, tick)

        if attach_health:
            from repro.obs.health import (HealthMonitor,
                                          QueueOscillationDetector)
            monitor = HealthMonitor(
                [QueueOscillationDetector(window=1e-3,
                                          check_interval=1e-3)],
                session=None)
            # stop= bounds the sampler: without it the sampler keeps
            # the heap populated forever once the tick chain ends and
            # an until-less run() never returns.
            sim.sample_every(2e-5, lambda now:
                             monitor.sample(now, queue=count[0]),
                             stop=n_events * 1e-6)
        sim.schedule(0.0, tick)
        sim.run()

    return n_events / _best_of(run)


def bench_port(n_packets: int = 50_000) -> float:
    """Packets serialized through one port + link per second."""
    from repro.sim.engine import Simulator
    from repro.sim.link import Link, Port
    from repro.sim.packet import Packet

    class Sink:
        name = "sink"

        def receive(self, packet, ingress=None):
            pass

    def run() -> None:
        sim = Simulator()
        port = Port(sim, 1.25e9, Link(sim, 1e-6, Sink()))
        for seq in range(n_packets):
            port.send(Packet(0, 1024, "s", "sink", kind="data",
                             seq=seq))
        sim.run()

    return n_packets / _best_of(run)


def bench_dde(t_end: float = 0.01) -> float:
    """Heun steps per second on the 10-flow DCQCN fluid model."""
    from repro.core.fluid import dde
    from repro.core.fluid.dcqcn import DCQCNFluidModel
    from repro.core.params import DCQCNParams

    params = DCQCNParams.paper_default(num_flows=10)
    model = DCQCNFluidModel(params)
    steps = int(round(t_end / 1e-6))

    def run() -> None:
        dde.integrate(model, t_end=t_end, dt=1e-6)

    return steps / _best_of(run)


def bench_stability_row() -> float:
    """Wall seconds for one default ext_stability_map row (N=10)."""
    from repro.experiments.ext_stability_map import (DEFAULT_DELAYS_US,
                                                     compute_row)

    return _best_of(lambda: compute_row(10, DEFAULT_DELAYS_US, 40.0))


def bench_telemetry_overhead(n_events: int = 100_000) -> dict:
    """Event-loop throughput with telemetry off vs on.

    The zero-overhead guard for :mod:`repro.obs`: instrumentation is
    compiled in unconditionally, so the telemetry-off path must cost
    nothing beyond the inert null-registry attribute lookups at run
    boundaries.  ``overhead_off`` is the ratio of the default (null
    registry) throughput to a pre-instrumentation-equivalent baseline
    -- but with no such baseline available at runtime, we instead
    compare telemetry *on* (live registry + span recorder) against
    *off* and report both rates; CI asserts the off/on ratio stays
    near 1.0 because publishing happens only at aggregation points.
    """
    import tempfile

    from repro.obs import Telemetry

    off_rate = bench_event_loop(n_events)
    with tempfile.TemporaryDirectory() as tmp:
        telemetry = Telemetry(tmp, experiment="bench")
        with telemetry.activate():
            on_rate = bench_event_loop(n_events)
        health_telemetry = Telemetry(tmp, experiment="bench-health")
        with health_telemetry.activate():
            health_rate = bench_event_loop(n_events,
                                           attach_health=True)
    return {
        "events_per_sec_off": off_rate,
        "events_per_sec_on": on_rate,
        "events_per_sec_on_health": health_rate,
        "off_over_on_ratio": off_rate / on_rate if on_rate else
        float("inf"),
        "off_over_health_ratio": off_rate / health_rate
        if health_rate else float("inf"),
    }


def bench_profiler_overhead(n_events: int = 200_000) -> dict:
    """Event-loop throughput with the sampling profiler off vs on.

    The profiler's contract is that the profiled thread pays nothing
    per event (a sidecar thread reads its stack from outside), so the
    on/off throughput ratio must stay near 1.0; CI gates it at
    >= 0.95 (the ISSUE's <= 5% overhead bound).  The sampled category
    shares ride along so the report shows where a pure event-loop
    spin actually lands (engine frames).
    """
    from repro.obs.profile import SamplingProfiler

    off_rate = bench_event_loop(n_events)
    profiler = SamplingProfiler()
    profiler.start()
    try:
        on_rate = bench_event_loop(n_events)
    finally:
        profiler.stop()
    return {
        "events_per_sec_off": off_rate,
        "events_per_sec_on": on_rate,
        "on_over_off_ratio": on_rate / off_rate if off_rate
        else float("inf"),
        "samples": profiler.total_samples,
        "shares": profiler.shares(),
    }


def bench_forensics_overhead(n_packets: int = 50_000) -> dict:
    """Port throughput with the flow-forensics ledger off vs on.

    The forensics hooks live inside :class:`~repro.sim.link.Port`'s
    hot paths behind ``if self.ledger is not None`` guards, so the
    default (ledger-off) path must cost nothing beyond that attribute
    test -- CI gates ``off_over_on_ratio >= 0.95``, which only fails
    if the off path stops short-circuiting and starts paying the
    bookkeeping itself.  ``on_cost_fraction`` records what a
    ``--forensics`` run pays in the worst case: a pure port loop with
    no protocol or marker work to dilute the per-packet ledger
    update (real experiments pay far less).  Cross-version off-path
    regressions are caught separately by ``repro compare`` on
    ``micro.port_packets_per_sec`` (the identical code path).
    """
    from repro.obs.forensics import FlowLedger
    from repro.sim.engine import Simulator
    from repro.sim.link import Link, Port
    from repro.sim.packet import Packet

    class Sink:
        name = "sink"

        def receive(self, packet, ingress=None):
            pass

    def run(ledger) -> None:
        sim = Simulator()
        port = Port(sim, 1.25e9, Link(sim, 1e-6, Sink()))
        port.ledger = ledger
        for seq in range(n_packets):
            port.send(Packet(0, 1024, "s", "sink", kind="data",
                             seq=seq))
        sim.run()

    off_rate = n_packets / _best_of(lambda: run(None))
    on_rate = n_packets / _best_of(lambda: run(FlowLedger()))
    return {
        "port_packets_per_sec_off": off_rate,
        "port_packets_per_sec_on": on_rate,
        "off_over_on_ratio": off_rate / on_rate if on_rate
        else float("inf"),
        "on_cost_fraction": 1.0 - (on_rate / off_rate if off_rate
                                   else 0.0),
    }


def _timed(fn: Callable[[], object]) -> "tuple[float, object]":
    started = time.perf_counter()
    result = fn()
    return time.perf_counter() - started, result


def bench_sweeps(workers: int = 4, full: bool = False,
                 cache_dir: Optional[str] = None) -> dict:
    """Grid experiments serial vs parallel vs warm-cached.

    Each variant's results are compared against the serial run, so the
    report doubles as a determinism check: ``identical`` must be true.
    """
    import tempfile

    from repro.experiments import ext_stability_map

    report: dict = {"workers": workers}

    serial_s, serial_rows = _timed(lambda: ext_stability_map.run())
    parallel_s, parallel_rows = _timed(
        lambda: ext_stability_map.run(workers=workers))
    with tempfile.TemporaryDirectory(dir=cache_dir) as tmp:
        cache = ResultCache(root=tmp)
        cold_s, _ = _timed(lambda: ext_stability_map.run(cache=cache))
        warm_s, warm_rows = _timed(
            lambda: ext_stability_map.run(cache=cache))
    report["ext_stability_map"] = {
        "serial_s": serial_s,
        "parallel_s": parallel_s,
        "cache_cold_s": cold_s,
        "cache_warm_s": warm_s,
        "parallel_speedup": serial_s / parallel_s,
        "cache_warm_speedup": serial_s / warm_s,
        "identical": serial_rows == parallel_rows == warm_rows,
    }

    if full:
        from repro.experiments import fct_study

        def runs_equal(a, b):
            from dataclasses import asdict
            import numpy as np
            for protocol in a:
                for left, right in zip(a[protocol], b[protocol]):
                    for key, value in asdict(left).items():
                        other = asdict(right)[key]
                        if isinstance(value, np.ndarray):
                            if not np.array_equal(value, other):
                                return False
                        elif value != other:
                            return False
            return True

        serial_s, serial_res = _timed(lambda: fct_study.run_load_sweep())
        parallel_s, parallel_res = _timed(
            lambda: fct_study.run_load_sweep(workers=workers))
        with tempfile.TemporaryDirectory(dir=cache_dir) as tmp:
            cache = ResultCache(root=tmp)
            cold_s, _ = _timed(
                lambda: fct_study.run_load_sweep(cache=cache))
            warm_s, warm_res = _timed(
                lambda: fct_study.run_load_sweep(cache=cache))
        report["fct_study"] = {
            "serial_s": serial_s,
            "parallel_s": parallel_s,
            "cache_cold_s": cold_s,
            "cache_warm_s": warm_s,
            "parallel_speedup": serial_s / parallel_s,
            "cache_warm_speedup": serial_s / warm_s,
            "identical": runs_equal(serial_res, parallel_res)
            and runs_equal(serial_res, warm_res),
        }
    return report


def bench_resilience(workers: int = 4) -> dict:
    """Cost of the resilience machinery on an all-success sweep.

    Runs ``ext_stability_map`` plain, then with a full
    :class:`~repro.perf.resilience.ResiliencePolicy` (journal +
    timeout + retry budget), then resumes from the written journal.
    ``journal_overhead`` is the with/without time ratio (near 1.0:
    journaling is one fsynced JSONL line per cell); ``identical``
    asserts the journaled and resumed grids match the plain run
    bit-for-bit.
    """
    import tempfile
    from pathlib import Path

    from repro.experiments import ext_stability_map
    from repro.perf.resilience import ResiliencePolicy

    plain_s, plain_rows = _timed(
        lambda: ext_stability_map.run(workers=workers))
    with tempfile.TemporaryDirectory() as tmp:
        policy = ResiliencePolicy(cell_timeout=600.0, max_retries=1,
                                  journal_dir=Path(tmp) / "journals",
                                  capsule_dir=Path(tmp) / "capsules")
        journaled_s, journaled_rows = _timed(
            lambda: ext_stability_map.run(workers=workers,
                                          resilience=policy))
        resumed_s, resumed_rows = _timed(
            lambda: ext_stability_map.run(workers=workers,
                                          resilience=policy))
    return {
        "workers": workers,
        "plain_s": plain_s,
        "journaled_s": journaled_s,
        "resumed_s": resumed_s,
        "journal_overhead": journaled_s / plain_s if plain_s
        else float("inf"),
        "resume_speedup": plain_s / resumed_s if resumed_s
        else float("inf"),
        "identical": plain_rows == journaled_rows == resumed_rows,
    }


def run_benchmarks(workers: int = 4, full: bool = False,
                   baseline: Optional[dict] = None) -> dict:
    """Run everything and return the report dictionary."""
    import os

    from repro.perf.sweep import effective_cpu_count, resolve_workers

    report = {
        "version": REPORT_VERSION,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "effective_cpu_count": effective_cpu_count(),
        "workers_requested": workers,
        "workers_effective": resolve_workers(workers),
        "micro": {
            "event_loop_events_per_sec": bench_event_loop(),
            "port_packets_per_sec": bench_port(),
            "dde_steps_per_sec": bench_dde(),
            "stability_map_row_s": bench_stability_row(),
        },
        "telemetry": bench_telemetry_overhead(),
        "profiler": bench_profiler_overhead(),
        "forensics": bench_forensics_overhead(),
        "sweeps": bench_sweeps(workers=workers, full=full),
        "resilience": bench_resilience(workers=workers),
    }
    if baseline:
        report["pre_pr_baseline"] = baseline
    return report


def write_report(report: dict, path: str = DEFAULT_REPORT) -> str:
    with open(path, "w") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def main(path: str = DEFAULT_REPORT, workers: int = 4,
         full: bool = False) -> int:
    report = run_benchmarks(workers=workers, full=full)
    target = write_report(report, path)
    json.dump(report, sys.stdout, indent=2, sort_keys=True)
    print(f"\n[report written to {target}]")
    return 0
