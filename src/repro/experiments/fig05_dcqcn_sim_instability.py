"""Figure 5: packet-level confirmation of the DCQCN instability.

Ten DCQCN flows on the validation topology with an extra 85 us of
feedback delay on the reverse path: the queue and rates oscillate
persistently, confirming the fluid model's negative phase margin.  The
companion low-delay run settles, isolating the delay as the cause.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from repro import units
from repro.analysis.reporting import format_table
from repro.core.fixedpoint.dcqcn import solve_fixed_point
from repro.core.params import DCQCNParams
from repro.obs import health as _health
from repro.obs.forensics import attach_flow_forensics
from repro.obs.scrape import scrape_network
from repro.sim.monitors import QueueMonitor
from repro.sim.red import REDMarker
from repro.sim.topology import install_flow, single_switch


@dataclass(frozen=True)
class SimStabilityRow:
    """Tail queue statistics of one packet-level run."""

    extra_delay_us: float
    num_flows: int
    queue_mean_kb: float
    queue_std_kb: float
    queue_peak_kb: float

    @property
    def coefficient_of_variation(self) -> float:
        if self.queue_mean_kb == 0:
            return float("inf")
        return self.queue_std_kb / self.queue_mean_kb


def run(extra_delays_us: Sequence[float] = (0.0, 85.0),
        num_flows: int = 10,
        capacity_gbps: float = 40.0,
        duration: float = 0.04,
        seed: int = 3) -> List[SimStabilityRow]:
    """Packet-level runs with and without the extra feedback delay."""
    rows = []
    window = duration / 2.0
    # The oscillation detector refuses to judge until its trailing
    # window clears the start-up transient (2x its own width), so it
    # gets a quarter of the run; the row statistics keep the half.
    health_window = duration / 4.0
    for extra_us in extra_delays_us:
        params = DCQCNParams.paper_default(capacity_gbps=capacity_gbps,
                                           num_flows=num_flows)
        marker = REDMarker(params.red, params.mtu_bytes, seed=seed)
        net = single_switch(num_flows, link_gbps=capacity_gbps,
                            marker=marker,
                            feedback_extra_delay=units.us(extra_us))
        # Per-flow forensics (no-op unless --forensics); before
        # install_flow so flows land in this delay point's context.
        attach_flow_forensics(
            net, context=f"extra_delay={extra_us}us,N={num_flows}")
        for i in range(num_flows):
            install_flow(net, "dcqcn", f"s{i}", "recv", None, 0.0, params)
        monitor = QueueMonitor(net.sim, net.bottleneck_port,
                               interval=20e-6)
        # Health sampling rides the same 20 us cadence; q* is the
        # Thm. 1 queue converted to bytes.  No-op while telemetry is
        # off (attach returns None without installing a sampler).
        health = _health.attach_packet_health(
            net,
            [_health.QueueOscillationDetector(
                window=health_window,
                q_star=solve_fixed_point(params).queue
                * params.mtu_bytes,
                # Packet-level RED keeps a coarse sawtooth even when
                # stable (tail CoV ~0.2 vs ~1.5 unstable), so the
                # packet run judges with a wider band than the fluid
                # default.
                cov_threshold=0.5,
                check_interval=health_window / 2.0)],
            interval=20e-6,
            context=f"extra_delay={extra_us}us,N={num_flows}")
        net.sim.run(until=duration)
        scrape_network(network=net)
        if health is not None:
            health.finalize()
        _, occupancy = monitor.as_arrays()
        rows.append(SimStabilityRow(
            extra_delay_us=extra_us,
            num_flows=num_flows,
            queue_mean_kb=monitor.tail_mean_bytes(window) / 1024,
            queue_std_kb=monitor.tail_std_bytes(window) / 1024,
            queue_peak_kb=float(occupancy.max()) / 1024))
    return rows


def report(rows: List[SimStabilityRow]) -> str:
    """Render the packet-level stability comparison."""
    return format_table(
        ["extra delay (us)", "N", "queue mean (KB)", "queue std (KB)",
         "peak (KB)", "CoV"],
        [[r.extra_delay_us, r.num_flows, r.queue_mean_kb,
          r.queue_std_kb, r.queue_peak_kb,
          r.coefficient_of_variation] for r in rows],
        title="Fig. 5 -- DCQCN packet-level (in)stability vs feedback "
              "delay")
