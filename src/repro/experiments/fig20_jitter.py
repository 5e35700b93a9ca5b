"""Figure 20: resilience to random feedback-delay jitter.

Uniform random jitter up to 100 us is injected into the feedback delay
of both fluid models -- ``tau*`` for DCQCN, ``tau'`` for (patched)
TIMELY.  For ECN the jitter merely postpones a still-correct mark; for
a delay-based protocol the jitter lands *inside* the measured signal.
The patched-TIMELY system that was rock stable in Fig. 12(a) starts
oscillating; DCQCN's tail statistics barely move.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro import units
from repro.analysis.reporting import format_table
from repro.core.fluid import dde
from repro.core.fluid.dcqcn import DCQCNFluidModel
from repro.core.fluid.jitter import JitterProcess, no_jitter
from repro.core.fluid.timely import TimelyFluidModel
from repro.core.params import DCQCNParams, PatchedTimelyParams


@dataclass(frozen=True)
class JitterRow:
    """Tail queue variability with and without jitter."""

    protocol: str
    jitter_us: float
    queue_mean_kb: float
    queue_std_kb: float

    @property
    def coefficient_of_variation(self) -> float:
        if self.queue_mean_kb == 0:
            return float("inf")
        return self.queue_std_kb / self.queue_mean_kb


def run(jitter_us: float = 100.0,
        capacity_gbps_dcqcn: float = 40.0,
        capacity_gbps_timely: float = 10.0,
        num_flows: int = 2,
        duration: float = 0.08,
        dt: float = 1e-6,
        seed: int = 0) -> List[JitterRow]:
    """Four runs: {DCQCN, patched TIMELY} x {no jitter, jitter}."""
    rows = []
    window = duration / 4.0
    for amplitude_us in (0.0, jitter_us):
        if amplitude_us > 0:
            dcqcn_jitter = JitterProcess(units.us(amplitude_us),
                                         seed=seed)
            timely_jitter = JitterProcess(units.us(amplitude_us),
                                          seed=seed + 1)
        else:
            dcqcn_jitter = no_jitter
            timely_jitter = no_jitter

        dcqcn_params = DCQCNParams.paper_default(
            capacity_gbps=capacity_gbps_dcqcn, num_flows=num_flows,
            tau_star_us=4.0)
        dcqcn = dde.integrate(
            DCQCNFluidModel(dcqcn_params, feedback_jitter=dcqcn_jitter),
            duration, dt=dt, record_stride=10)
        rows.append(JitterRow(
            protocol="dcqcn",
            jitter_us=amplitude_us,
            queue_mean_kb=units.packets_to_kb(
                dcqcn.tail_mean("q", window), dcqcn_params.mtu_bytes),
            queue_std_kb=units.packets_to_kb(
                dcqcn.tail_std("q", window), dcqcn_params.mtu_bytes)))

        patched = PatchedTimelyParams.paper_default(
            capacity_gbps=capacity_gbps_timely, num_flows=num_flows)
        timely = dde.integrate(
            TimelyFluidModel(patched, feedback_jitter=timely_jitter),
            duration, dt=dt, record_stride=10)
        mtu = patched.base.mtu_bytes
        rows.append(JitterRow(
            protocol="patched_timely",
            jitter_us=amplitude_us,
            queue_mean_kb=units.packets_to_kb(
                timely.tail_mean("q", window), mtu),
            queue_std_kb=units.packets_to_kb(
                timely.tail_std("q", window), mtu)))
    return rows


def report(rows: List[JitterRow]) -> str:
    """Render the jitter-resilience comparison."""
    return format_table(
        ["protocol", "jitter (us)", "queue mean (KB)", "queue std (KB)",
         "CoV"],
        [[r.protocol, r.jitter_us, r.queue_mean_kb, r.queue_std_kb,
          r.coefficient_of_variation] for r in rows],
        title="Fig. 20 -- feedback jitter: DCQCN shrugs, delay-based "
              "control destabilizes")
