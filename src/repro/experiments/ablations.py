"""Ablations over the design choices DESIGN.md calls out.

Each function isolates one knob and quantifies its effect with the
analytic toolkit or short simulations:

* :func:`cnp_timer` -- DCQCN's CNP generation timer ``tau`` sets the
  multiplicative-decrease cadence; faster CNPs mark more windows and
  shift the Eq. 11 fixed point and the phase margin.
* :func:`ewma_gain` -- DCQCN's ``g`` trades how fast ``alpha`` tracks
  congestion against the depth of each cut (Theorem 2's contraction
  is ``1 - alpha/2``).
* :func:`weight_halfwidth` -- the Eq. 30 ramp width: the paper's 1/4
  versus a sharper/softer transition, measured as patched TIMELY's
  convergence behaviour (the original protocol is the hard-switch
  limit ``halfwidth -> 0``).
* :func:`gradient_clamp` -- the simulator's TIMELY gradient clamp:
  with it, burst noise costs bounded rate cuts; without it, a single
  polluted sample can floor a flow.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from repro import units
from repro.analysis.reporting import format_table
from repro.core.fixedpoint.dcqcn import solve_fixed_point
from repro.core.fluid import dde
from repro.core.fluid.timely import TimelyFluidModel
from repro.core.params import (DCQCNParams, PatchedTimelyParams,
                               TimelyParams)
from repro.core.stability.dcqcn_margin import dcqcn_phase_margin
from repro.core.convergence.discrete import (DiscreteDCQCN,
                                             contraction_rate)
from repro.obs.scrape import scrape_network
from repro.sim.monitors import QueueMonitor, RateMonitor
from repro.sim.topology import install_flow, single_switch
import dataclasses


@dataclass(frozen=True)
class AblationRow:
    """A generic (setting, metrics...) ablation record."""

    setting: str
    metrics: "tuple"


def cnp_timer(taus_us: Sequence[float] = (25.0, 50.0, 100.0),
              num_flows: int = 10,
              tau_star_us: float = 55.0) -> List[AblationRow]:
    """Sweep the CNP timer: fixed point and stability margin."""
    rows = []
    for tau_us in taus_us:
        params = DCQCNParams.paper_default(
            num_flows=num_flows, tau_star_us=tau_star_us).replace(
                tau=units.us(tau_us),
                tau_prime=units.us(max(tau_us + 5.0, 55.0)))
        fp = solve_fixed_point(params, extend_red=True)
        margin = dcqcn_phase_margin(params).margin_deg
        rows.append(AblationRow(
            setting=f"tau={tau_us:g}us",
            metrics=(fp.p, units.packets_to_kb(fp.queue), fp.alpha,
                     margin)))
    return rows


def report_cnp_timer(rows: List[AblationRow]) -> str:
    return format_table(
        ["CNP timer", "p*", "q* (KB)", "alpha*", "margin (deg)"],
        [[r.setting, *r.metrics] for r in rows],
        title="Ablation -- DCQCN CNP timer tau")


def ewma_gain(gains: Sequence[float] = (1 / 64, 1 / 256, 1 / 1024),
              num_flows: int = 2) -> List[AblationRow]:
    """Sweep DCQCN's g: contraction speed vs steady oscillation."""
    rows = []
    for g in gains:
        params = DCQCNParams.paper_default(num_flows=num_flows).replace(
            g=g)
        mtu = params.mtu_bytes
        model = DiscreteDCQCN(
            params,
            initial_rates=[units.gbps_to_pps(30, mtu),
                           units.gbps_to_pps(10, mtu)])
        cycles = model.run_cycles(40)
        spreads = [c.rate_spread for c in cycles]
        alphas = [float(np.mean(c.alphas)) for c in cycles]
        margin = dcqcn_phase_margin(params).margin_deg
        rows.append(AblationRow(
            setting=f"g=1/{round(1 / g)}",
            metrics=(contraction_rate(spreads), alphas[-1], margin)))
    return rows


def report_ewma_gain(rows: List[AblationRow]) -> str:
    return format_table(
        ["g", "contraction/cycle", "alpha tail", "margin (deg)"],
        [[r.setting, *r.metrics] for r in rows],
        title="Ablation -- DCQCN EWMA gain g (Theorem 2 speed vs "
              "cut depth)")


def weight_halfwidth(halfwidths: Sequence[float] = (0.05, 0.25, 1.0),
                     duration: float = 0.08) -> List[AblationRow]:
    """Sweep the Eq. 30 ramp width on the 7/3 Gbps fluid scenario."""
    rows = []
    for halfwidth in halfwidths:
        patched = dataclasses.replace(
            PatchedTimelyParams.paper_default(num_flows=2),
            weight_slope_halfwidth=halfwidth)
        mtu = patched.base.mtu_bytes
        model = TimelyFluidModel(
            patched,
            initial_rates=[units.gbps_to_pps(7, mtu),
                           units.gbps_to_pps(3, mtu)])
        trace = dde.integrate(model, duration, dt=1e-6,
                              record_stride=20)
        window = duration / 4.0
        gap = abs(trace.tail_mean("r[0]", window)
                  - trace.tail_mean("r[1]", window))
        rows.append(AblationRow(
            setting=f"halfwidth={halfwidth:g}",
            metrics=(units.pps_to_gbps(gap, mtu),
                     units.packets_to_kb(trace.tail_std("q", window),
                                         mtu))))
    return rows


def report_weight_halfwidth(rows: List[AblationRow]) -> str:
    return format_table(
        ["w(g) halfwidth", "final rate gap (Gbps)", "queue std (KB)"],
        [[r.setting, *r.metrics] for r in rows],
        title="Ablation -- Eq. 30 weight ramp width (0 is original "
              "TIMELY's hard switch)")


def gradient_clamp(clamps: Sequence[object] = (None, 0.25),
                   duration: float = 0.1,
                   segment_kb: float = 64.0) -> List[AblationRow]:
    """Clamped vs unclamped gradients under bursty self-noise."""
    rows = []
    for clamp in clamps:
        params = TimelyParams.paper_default(capacity_gbps=10,
                                            num_flows=2,
                                            segment_kb=segment_kb)
        net = single_switch(2, link_gbps=10)
        for i in range(2):
            install_flow(net, "timely", f"s{i}", "recv", None, 0.0,
                         params, pacing="burst",
                         initial_rate=net.link_rate_bytes / 2,
                         gradient_clamp=clamp)
        monitor = QueueMonitor(net.sim, net.bottleneck_port,
                               interval=100e-6)
        rate_mon = RateMonitor(
            net.sim, {f"s{i}": net.senders[i] for i in range(2)},
            interval=500e-6)
        net.sim.run(until=duration)
        scrape_network(network=net)
        total = sum(rate_mon.final_rates().values()) * 8 / 1e9
        rows.append(AblationRow(
            setting="unclamped" if clamp is None else f"clamp={clamp}",
            metrics=(net.utilization(duration), total,
                     max(monitor.occupancy_bytes) / 1024)))
    return rows


def report_gradient_clamp(rows: List[AblationRow]) -> str:
    return format_table(
        ["gradient", "utilization", "final total rate (Gbps)",
         "queue peak (KB)"],
        [[r.setting, *r.metrics] for r in rows],
        title="Ablation -- TIMELY gradient clamp under 64KB burst "
              "noise")
