"""Shared machinery for the Section 5.1 FCT study (Figures 13-16).

One :func:`run_protocol` call simulates the Fig. 13 dumbbell under the
dynamic web-search workload for one protocol and load, returning FCT
statistics, the FCT sample set, and the bottleneck queue time series.
Figures 14 (FCT vs load), 15 (FCT CDF at load 0.8) and 16 (queue time
series at load 0.8) are all views over these results.

Protocol configurations follow the paper's defaults: DCQCN per [31]
with RED marking at the bottleneck egress; TIMELY per [21] with its
implementation's 64 KB per-burst pacing; patched TIMELY per Section
4.3 (``beta_band = 0.008``, 16 KB segments).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.analysis.fct import (FCTSummary, SMALL_FLOW_BYTES,
                                completed_fcts)
from repro.analysis.reporting import format_table
from repro.core.params import (DCQCNParams, DCTCPParams,
                               PatchedTimelyParams, TimelyParams)
from repro.perf import ResiliencePolicy, ResultCache, SweepRunner
from repro.sim.monitors import QueueMonitor
from repro.sim.red import REDMarker
from repro.sim.topology import dumbbell
from repro.workloads.generator import DynamicWorkload, WorkloadConfig

#: Protocols compared in Section 5.1.
STUDY_PROTOCOLS = ("dcqcn", "timely", "patched_timely")


@dataclass
class ProtocolRun:
    """Everything measured in one (protocol, load) simulation."""

    protocol: str
    load: float
    summary: FCTSummary
    small_fcts: List[float]
    queue_times: np.ndarray = field(repr=False)
    queue_bytes: np.ndarray = field(repr=False)
    completed: int = 0
    installed: int = 0
    utilization: float = 0.0

    @property
    def completion_fraction(self) -> float:
        if self.installed == 0:
            return 0.0
        return self.completed / self.installed


def protocol_setup(protocol: str, capacity_gbps: float):
    """Default (params, marker, sender_kwargs) for each protocol."""
    if protocol == "dcqcn":
        params = DCQCNParams.paper_default(capacity_gbps=capacity_gbps,
                                           num_flows=10)
        marker = REDMarker(params.red, params.mtu_bytes, seed=11)
        return params, marker, {}
    if protocol == "timely":
        params = TimelyParams.paper_default(capacity_gbps=capacity_gbps,
                                            segment_kb=64.0)
        return params, None, {"pacing": "burst"}
    if protocol == "patched_timely":
        params = PatchedTimelyParams.paper_default(
            capacity_gbps=capacity_gbps)
        return params, None, {"pacing": "burst"}
    if protocol == "dctcp":
        # The window-based baseline, with its native step marking.
        params = DCTCPParams()
        marker = REDMarker(params.step_red(), params.mtu_bytes,
                           seed=11)
        return params, marker, {}
    raise ValueError(f"unknown protocol {protocol!r}")


def run_protocol(protocol: str, load: float,
                 duration: float = 0.25,
                 drain: float = 0.15,
                 capacity_gbps: float = 10.0,
                 n_pairs: int = 10,
                 seed: int = 42,
                 warmup: float = 0.02) -> ProtocolRun:
    """Simulate one protocol at one load on the dumbbell."""
    params, marker, sender_kwargs = protocol_setup(protocol,
                                                   capacity_gbps)
    net = dumbbell(n_pairs, link_gbps=capacity_gbps, marker=marker)
    config = WorkloadConfig(protocol=protocol, load=load,
                            duration=duration, seed=seed)
    workload = DynamicWorkload(net, config, params, **sender_kwargs)
    monitor = QueueMonitor(net.sim, net.bottleneck_port,
                           interval=100e-6)
    workload.run(drain_time=drain)

    small = completed_fcts(workload.completed_flows,
                           max_bytes=SMALL_FLOW_BYTES,
                           skip_before=warmup)
    times, occupancy = monitor.as_arrays()
    return ProtocolRun(
        protocol=protocol,
        load=load,
        summary=FCTSummary.from_fcts(small),
        small_fcts=small,
        queue_times=times,
        queue_bytes=occupancy,
        completed=len(workload.completed_flows),
        installed=len(workload.flows),
        utilization=net.bottleneck_port.bytes_transmitted
        / (net.link_rate_bytes * duration))


def run_load_sweep(loads: Sequence[float] = (0.2, 0.4, 0.6, 0.8),
                   protocols: Sequence[str] = STUDY_PROTOCOLS,
                   workers: Optional[int] = None,
                   cache: Optional[ResultCache] = None,
                   resilience: Optional[ResiliencePolicy] = None,
                   **kwargs) -> Dict[str, List[ProtocolRun]]:
    """Figure 14's grid: every protocol at every load.

    The (protocol, load) cells are independent simulations, each
    deterministically seeded, so they fan out over ``workers``
    processes (and memoize through ``cache``) with results identical
    to the serial nested loop.  ``resilience`` adds per-cell
    timeouts and quarantine.  This is the longest sweep in the
    reproduction: ``cache`` stores each (protocol, load) cell as it
    finishes, so an interrupted run resumed with the same cache
    recomputes only the unfinished cells.
    """
    runner = SweepRunner(workers=workers, cache=cache,
                         experiment_id="fct_study",
                         resilience=resilience)
    cells = [{"protocol": protocol, "load": load, **kwargs}
             for protocol in protocols for load in loads]
    results = runner.map(run_protocol, cells)
    grouped: Dict[str, List[ProtocolRun]] = {}
    for cell, result in zip(cells, results):
        grouped.setdefault(cell["protocol"], []).append(result)
    return grouped


def report_fct_vs_load(results: Dict[str, List[ProtocolRun]]) -> str:
    """Fig. 14 rows: median and 90th-percentile small-flow FCT."""
    rows: List[List[object]] = []
    for protocol, runs in results.items():
        for run in runs:
            rows.append([protocol, run.load,
                         run.summary.median_s * 1e3,
                         run.summary.p90_s * 1e3,
                         run.summary.p99_s * 1e3,
                         run.summary.count,
                         run.completion_fraction])
    return format_table(
        ["protocol", "load", "median FCT (ms)", "p90 FCT (ms)",
         "p99 FCT (ms)", "small flows", "done frac"],
        rows,
        title="Fig. 14 -- small-flow FCT vs load (dumbbell, "
              "web-search sizes)")


def report_queue_stats(runs: Sequence[ProtocolRun]) -> str:
    """Fig. 16 rows: bottleneck-queue distribution at one load."""
    rows = []
    for run in runs:
        occupancy_kb = run.queue_bytes / 1024.0
        rows.append([run.protocol, run.load,
                     float(np.percentile(occupancy_kb, 50)),
                     float(np.percentile(occupancy_kb, 90)),
                     float(np.percentile(occupancy_kb, 99)),
                     float(occupancy_kb.max()),
                     float(occupancy_kb.std())])
    return format_table(
        ["protocol", "load", "q p50 (KB)", "q p90 (KB)", "q p99 (KB)",
         "q max (KB)", "q std (KB)"],
        rows,
        title="Fig. 16 -- bottleneck queue at the studied load")
