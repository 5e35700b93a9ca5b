"""Figure 8: TIMELY fluid model vs packet-level simulation.

N senders through one switch at 10 Gbps with the footnote-4 parameter
values, flows starting at ``C/N`` with per-packet pacing (the paper's
choice for this comparison).  Reports steady-window agreement between
the fluid integrator and the packet simulator.  TIMELY limit-cycles,
so the comparison is on tail *means* and oscillation amplitudes rather
than a settled value.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from repro import units
from repro.analysis.reporting import format_table
from repro.core.fluid import dde
from repro.core.fluid.timely import TimelyFluidModel
from repro.core.params import TimelyParams
from repro.obs.scrape import scrape_network
from repro.sim.monitors import QueueMonitor, RateMonitor
from repro.sim.topology import install_flow, single_switch


@dataclass(frozen=True)
class TimelyValidationRow:
    """Fluid-vs-simulation tail statistics for one flow count."""

    num_flows: int
    fluid_rate_gbps: float
    sim_rate_gbps: float
    fluid_queue_kb: float
    sim_queue_kb: float
    fluid_queue_std_kb: float
    sim_queue_std_kb: float

    @property
    def rate_error(self) -> float:
        return abs(self.sim_rate_gbps - self.fluid_rate_gbps) \
            / self.fluid_rate_gbps


def run(flow_counts=(2, 10), capacity_gbps: float = 10.0,
        duration: float = 0.06,
        dt: float = 1e-6) -> List[TimelyValidationRow]:
    """Run the fluid/simulation pair for each flow count."""
    rows = []
    window = duration / 3.0
    for n in flow_counts:
        params = TimelyParams.paper_default(capacity_gbps=capacity_gbps,
                                            num_flows=n)
        fair = params.capacity / n

        fluid = dde.integrate(
            TimelyFluidModel(params, initial_rates=[fair] * n),
            duration, dt=dt, record_stride=10)
        fluid_rate = np.mean([fluid.tail_mean(f"r[{i}]", window)
                              for i in range(n)])
        fluid_queue = fluid.tail_mean("q", window)
        fluid_queue_std = fluid.tail_std("q", window)

        net = single_switch(n, link_gbps=capacity_gbps)
        for i in range(n):
            install_flow(net, "timely", f"s{i}", "recv", None, 0.0,
                         params, pacing="packet",
                         initial_rate=net.link_rate_bytes / n)
        queue_mon = QueueMonitor(net.sim, net.bottleneck_port,
                                 interval=50e-6)
        rate_mon = RateMonitor(
            net.sim, {f"s{i}": net.senders[i] for i in range(n)},
            interval=100e-6)
        net.sim.run(until=duration)
        scrape_network(network=net)

        tail_rates = []
        for i in range(n):
            times, series = rate_mon.series(f"s{i}")
            mask = times >= times[-1] - window
            tail_rates.append(float(np.mean(series[mask])))

        rows.append(TimelyValidationRow(
            num_flows=n,
            fluid_rate_gbps=units.pps_to_gbps(fluid_rate,
                                              params.mtu_bytes),
            sim_rate_gbps=float(np.mean(tail_rates)) * 8 / 1e9,
            fluid_queue_kb=units.packets_to_kb(fluid_queue,
                                               params.mtu_bytes),
            sim_queue_kb=queue_mon.tail_mean_bytes(window) / 1024,
            fluid_queue_std_kb=units.packets_to_kb(fluid_queue_std,
                                                   params.mtu_bytes),
            sim_queue_std_kb=queue_mon.tail_std_bytes(window) / 1024))
    return rows


def report(rows: List[TimelyValidationRow]) -> str:
    """Render the Fig. 8 agreement table."""
    return format_table(
        ["N", "fluid rate (Gbps)", "sim rate (Gbps)", "fluid q (KB)",
         "sim q (KB)", "fluid q std", "sim q std", "rate err"],
        [[r.num_flows, r.fluid_rate_gbps, r.sim_rate_gbps,
          r.fluid_queue_kb, r.sim_queue_kb, r.fluid_queue_std_kb,
          r.sim_queue_std_kb, r.rate_error] for r in rows],
        title="Fig. 8 -- TIMELY fluid model vs packet simulation")
