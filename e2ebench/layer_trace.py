"""Per-layer tracing of one benchmark run, entirely from outside.

Nothing in ``src/`` changes.  :meth:`LayerTracer.install` wraps public
functions and methods at each layer boundary, timing every call and
keeping the *self* time (the call's duration minus the wrapped calls
nested inside it), so one process's ``busy_s`` values never overlap.
Counts come from what the layers already expose:
``Simulator.events_processed``, the bottleneck ``Port``'s
``packets_transmitted``, ``ResultCache.stats``, the existing
``obs.metrics`` counters, the telemetry run log and forensics ledger.
:class:`~repro.obs.profile.SamplingProfiler` splits the main thread's
time by engine category.

Sweep pool workers are forked from the traced process, so they inherit
the wrappers; each one writes its own tallies to ``child_dir`` when it
exits, and :meth:`LayerTracer.metrics` merges them in.
"""

from __future__ import annotations

import functools
import json
import multiprocessing.util
import os
import sys
import time
from pathlib import Path
from typing import Any, Callable, Dict, List

from repro.obs import metrics as _metrics

#: Span names, one per layer boundary the tracer wraps.
SPANS = ("sim.run", "sim.build", "sim.install_flow", "fluid.integrate",
         "analytic.margin", "analytic.fixedpoint", "workloads.generate",
         "analysis", "perf.sweep", "obs.flush", "obs.forensics.finalize",
         "obs.health", "experiments.report")

#: Existing ``obs.metrics`` counters the tracer reads.
COUNTERS = {"fluid.steps": "fluid.dde.steps_total",
            "fluid.retries": "fluid.dde.step_retries",
            "perf.sweep.retries": "perf.sweep.retries_total"}

#: Engine categories of the sampling profiler reported as shares.
SHARES = ("scheduler", "port", "protocol", "engine")


def _rebind(original: Any, replacement: Any) -> None:
    """Point every ``repro`` module name bound to ``original`` at
    ``replacement`` (``from x import f`` copies the binding)."""
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro"
                                  or name.startswith("repro.")):
            continue
        for attribute, value in list(vars(module).items()):
            if value is original:
                setattr(module, attribute, replacement)


class _TimedExit:
    """Context manager proxy that times the wrapped one's ``__exit__``."""

    def __init__(self, manager: Any, exit_: Callable[..., Any]):
        self._manager = manager
        self._exit = exit_

    def __enter__(self) -> Any:
        return self._manager.__enter__()

    def __exit__(self, *exc_info: Any) -> Any:
        return self._exit(*exc_info)


class LayerTracer:
    """Wraps each layer's public calls and tallies time and counts."""

    def __init__(self, child_dir: Path):
        self.child_dir = Path(child_dir)
        self.registry = _metrics.MetricsRegistry()
        self._reset()

    def _reset(self) -> None:
        # name -> [calls, total seconds, self seconds]
        self.spans: Dict[str, List[float]] = {
            name: [0, 0.0, 0.0] for name in SPANS}
        self.counts: Dict[str, float] = {"sim.events": 0,
                                         "perf.sweep.cells": 0}
        self._stack: List[float] = []
        self._nets: List[Any] = []
        self._workloads: List[Any] = []
        self._counter_base = self._counters()

    # -- wrapping -----------------------------------------------------------

    def timed(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """``fn`` wrapped to add its calls and time to span ``name``."""
        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            stack = self._stack
            stack.append(0.0)
            started = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - started
                nested = stack.pop()
                span = self.spans[name]
                span[0] += 1
                span[1] += elapsed
                span[2] += elapsed - nested
                if stack:
                    stack[-1] += elapsed
        return wrapper

    def install(self) -> None:
        """Wrap every layer boundary and install a live registry."""
        from repro.analysis import fct
        from repro.core.fixedpoint import dcqcn as dcqcn_fixedpoint
        from repro.core.fixedpoint import timely as timely_fixedpoint
        from repro.core.fluid import dde
        from repro.core.stability import bode
        from repro.experiments.registry import EXPERIMENTS
        from repro.obs.forensics import FlowLedger
        from repro.obs.health import HealthMonitor
        from repro.obs.telemetry import Telemetry
        from repro.perf.sweep import SweepRunner
        from repro.sim import topology
        from repro.sim.engine import Simulator
        from repro.workloads.generator import DynamicWorkload

        tracer = self
        run = Simulator.run

        def sim_run(sim: Any, *args: Any, **kwargs: Any) -> Any:
            before = sim.events_processed
            try:
                return run(sim, *args, **kwargs)
            finally:
                tracer.counts["sim.events"] += \
                    sim.events_processed - before
        Simulator.run = self.timed("sim.run", functools.wraps(run)(sim_run))

        for builder in (topology.single_switch, topology.dumbbell):
            _rebind(builder, self.timed("sim.build", self._keeping(
                builder, self._nets)))
        _rebind(topology.install_flow,
                self.timed("sim.install_flow", topology.install_flow))
        _rebind(dde.integrate, self.timed("fluid.integrate", dde.integrate))
        _rebind(bode.phase_margin,
                self.timed("analytic.margin", bode.phase_margin))
        for solver in (dcqcn_fixedpoint.solve_fixed_point,
                       timely_fixedpoint.patched_fixed_point):
            _rebind(solver, self.timed("analytic.fixedpoint", solver))

        init = DynamicWorkload.__init__

        def workload_init(workload: Any, *args: Any, **kwargs: Any) -> None:
            init(workload, *args, **kwargs)
            tracer._workloads.append(workload)
        DynamicWorkload.__init__ = self.timed(
            "workloads.generate", functools.wraps(init)(workload_init))

        _rebind(fct.completed_fcts,
                self.timed("analysis", fct.completed_fcts))
        fct.FCTSummary.from_fcts = classmethod(self.timed(
            "analysis", fct.FCTSummary.from_fcts.__func__))

        sweep_map = SweepRunner.map

        def runner_map(runner: Any, fn: Any, cells: Any) -> Any:
            cells = list(cells)
            tracer.counts["perf.sweep.cells"] += len(cells)
            return sweep_map(runner, fn, cells)
        SweepRunner.map = self.timed(
            "perf.sweep", functools.wraps(sweep_map)(runner_map))

        activate = Telemetry.activate

        @functools.wraps(activate)
        def timed_activate(bundle: Any, *args: Any, **kwargs: Any) -> Any:
            manager = activate(bundle, *args, **kwargs)
            return _TimedExit(manager,
                              tracer.timed("obs.flush", manager.__exit__))
        Telemetry.activate = timed_activate
        FlowLedger.finalize = self.timed("obs.forensics.finalize",
                                         FlowLedger.finalize)
        HealthMonitor.sample = self.timed("obs.health",
                                          HealthMonitor.sample)

        for experiment in EXPERIMENTS.values():
            object.__setattr__(experiment, "report", self.timed(
                "experiments.report", experiment.report))

        _metrics.set_registry(self.registry)
        self._counter_base = self._counters()
        multiprocessing.util.register_after_fork(
            self, LayerTracer._after_fork)

    @staticmethod
    def _keeping(fn: Callable[..., Any],
                 into: List[Any]) -> Callable[..., Any]:
        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            value = fn(*args, **kwargs)
            into.append(value)
            return value
        return wrapper

    # -- pool workers -------------------------------------------------------

    def _after_fork(self) -> None:
        # A forked sweep worker starts its own tallies and writes them
        # out when it exits (multiprocessing runs finalizers at exit).
        self._reset()
        multiprocessing.util.Finalize(self, self._write_child,
                                      exitpriority=10)

    def _write_child(self) -> None:
        path = self.child_dir / f"worker-{os.getpid()}.json"
        path.write_text(json.dumps(self._local()))

    # -- collection ---------------------------------------------------------

    def _counters(self) -> Dict[str, float]:
        registry = _metrics.get_registry()
        values = {}
        for name, counter in COUNTERS.items():
            instrument = registry.get(counter)
            values[name] = instrument.value if instrument is not None \
                else 0.0
        return values

    def _local(self) -> Dict[str, Any]:
        """This process's tallies as JSON-ready data."""
        counts = dict(self.counts)
        counts["sim.bottleneck_pkts"] = sum(
            net.bottleneck_port.packets_transmitted for net in self._nets)
        counts["workloads.flows"] = sum(
            len(workload.flows) for workload in self._workloads)
        now = self._counters()
        for name, value in now.items():
            counts[name] = value - self._counter_base[name]
        return {"pid": os.getpid(), "spans": self.spans,
                "counts": counts}

    def metrics(self, wall_s: float, outcome: Any, profiler: Any
                ) -> "tuple[Dict[str, float], List[str]]":
        """Per-layer metrics of the finished run, and failed sanity
        checks (empty when the trace is consistent)."""
        processes = [self._local()]
        for path in sorted(self.child_dir.glob("worker-*.json")):
            processes.append(json.loads(path.read_text()))
        if outcome.telemetry is not None:
            # The bundle's registry was the active one during the run.
            bundle = outcome.telemetry.registry
            for name, counter in COUNTERS.items():
                instrument = bundle.get(counter)
                if instrument is not None:
                    processes[0]["counts"][name] += instrument.value

        failures = []
        spans = {name: [0, 0.0, 0.0] for name in SPANS}
        counts: Dict[str, float] = {}
        for process in processes:
            busy = sum(span[2] for span in process["spans"].values())
            if busy > wall_s:
                failures.append(
                    f"trace: process {process['pid']} layer busy_s sum "
                    f"{busy:.3f}s exceeds the traced wall {wall_s:.3f}s")
            for name, (calls, total, own) in process["spans"].items():
                spans[name][0] += calls
                spans[name][1] += total
                spans[name][2] += own
            for name, value in process["counts"].items():
                counts[name] = counts.get(name, 0) + value

        def busy(name: str) -> float:
            return spans[name][2]

        def rate(count: float, name: str) -> float:
            return count / spans[name][1] if spans[name][1] > 0 else 0.0

        out: Dict[str, float] = {
            "sim.run.busy_s": busy("sim.run"),
            "sim.events": counts["sim.events"],
            "sim.events_per_s": rate(counts["sim.events"], "sim.run"),
            "sim.bottleneck_pkts": counts["sim.bottleneck_pkts"],
            "sim.build.busy_s": busy("sim.build"),
            "sim.install_flow.calls": spans["sim.install_flow"][0],
            "sim.install_flow.busy_s": busy("sim.install_flow"),
            "fluid.integrate.calls": spans["fluid.integrate"][0],
            "fluid.integrate.busy_s": busy("fluid.integrate"),
            "fluid.steps": counts["fluid.steps"],
            "fluid.steps_per_s": rate(counts["fluid.steps"],
                                      "fluid.integrate"),
            "fluid.retries": counts["fluid.retries"],
            "analytic.margin.calls": spans["analytic.margin"][0],
            "analytic.margin.busy_s": busy("analytic.margin"),
            "analytic.fixedpoint.busy_s": busy("analytic.fixedpoint"),
            "workloads.generate.busy_s": busy("workloads.generate"),
            "workloads.flows": counts["workloads.flows"],
            "analysis.busy_s": busy("analysis"),
            "perf.sweep.calls": spans["perf.sweep"][0],
            "perf.sweep.cells": counts["perf.sweep.cells"],
            "perf.sweep.busy_s": busy("perf.sweep"),
            "perf.sweep.retries": counts["perf.sweep.retries"],
            "obs.flush.busy_s": busy("obs.flush"),
            "obs.forensics.finalize.busy_s": busy("obs.forensics.finalize"),
            "obs.health.samples": spans["obs.health"][0],
            "obs.health.busy_s": busy("obs.health"),
            "experiments.report.busy_s": busy("experiments.report"),
        }

        stats = outcome.cache.stats if outcome.cache is not None else None
        out["perf.cache.hits"] = stats.hits if stats else 0
        out["perf.cache.misses"] = stats.misses if stats else 0
        out["perf.cache.hit_ratio"] = stats.hit_rate if stats else 0.0

        telemetry = outcome.telemetry
        out["obs.runlog.events"] = 0
        out["obs.runlog.bytes"] = 0
        out["obs.flows_attributed"] = 0
        if telemetry is not None:
            log = telemetry.runlog_path.read_bytes()
            out["obs.runlog.events"] = log.count(b"\n")
            out["obs.runlog.bytes"] = len(log)
            if telemetry.forensics is not None:
                out["obs.flows_attributed"] = len(
                    telemetry.forensics.records())

        shares = profiler.shares()
        for category in SHARES:
            out[f"sim.share.{category}"] = shares.get(category, 0.0)
        if shares and abs(sum(shares.values()) - 1.0) > 1e-9:
            failures.append(f"trace: profiler shares sum to "
                            f"{sum(shares.values())!r}, not 1")
        return out, failures
