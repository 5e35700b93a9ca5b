"""Figure 19: patched TIMELY with host-side PI controllers.

Each host integrates its own delay error into an internal variable
``p_i`` that replaces the queue-excess feedback of Eq. 29.  The queue
is controlled to the reference (300 KB in the paper), but the rate
split is whatever the per-host integrators happened to accumulate --
bounded delay *without* fairness, the delay-based half of Theorem 6.
The asymmetry is seeded as in Fig. 9(b): the second flow starts late.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro import units
from repro.analysis.reporting import format_table
from repro.core.convergence.metrics import jain_fairness, max_min_ratio
from repro.core.fluid import dde
from repro.core.fluid.timely import TimelyFluidModel
from repro.core.params import PatchedTimelyParams, PIParams


@dataclass(frozen=True)
class TimelyPIResult:
    """Tail state of the two-flow PI experiment."""

    queue_mean_kb: float
    queue_ref_kb: float
    queue_std_kb: float
    rates_gbps: "list[float]"
    p_values: "list[float]"

    @property
    def queue_pinned(self) -> bool:
        """Queue within 15% of the reference (it oscillates mildly)."""
        return abs(self.queue_mean_kb - self.queue_ref_kb) \
            <= 0.15 * self.queue_ref_kb

    @property
    def jain_index(self) -> float:
        return jain_fairness(self.rates_gbps)

    @property
    def max_min(self) -> float:
        return max_min_ratio(self.rates_gbps)


def run(q_ref_kb: float = 300.0,
        capacity_gbps: float = 10.0,
        late_start: float = 0.05,
        duration: float = 0.7,
        dt: float = 1e-6) -> TimelyPIResult:
    """Two flows, the second starting ``late_start`` seconds in."""
    patched = PatchedTimelyParams.paper_default(
        capacity_gbps=capacity_gbps, num_flows=2)
    mtu = patched.base.mtu_bytes
    pi = PIParams.for_timely(q_ref_kb)
    fair = patched.base.fair_share
    model = TimelyFluidModel(
        patched, pi=pi, initial_rates=[fair, fair],
        start_times=[0.0, late_start])
    trace = dde.integrate(model, duration, dt=dt, record_stride=50)
    window = duration / 5.0
    rates = [units.pps_to_gbps(trace.tail_mean(f"r[{i}]", window), mtu)
             for i in range(2)]
    return TimelyPIResult(
        queue_mean_kb=units.packets_to_kb(trace.tail_mean("q", window),
                                          mtu),
        queue_ref_kb=q_ref_kb,
        queue_std_kb=units.packets_to_kb(trace.tail_std("q", window),
                                         mtu),
        rates_gbps=rates,
        p_values=[trace.tail_mean(f"p[{i}]", window) for i in range(2)])


def report(result: TimelyPIResult) -> str:
    """Render the delay-without-fairness outcome."""
    return format_table(
        ["queue (KB)", "ref (KB)", "queue std", "rates (Gbps)",
         "p values", "Jain", "max/min", "pinned"],
        [[result.queue_mean_kb, result.queue_ref_kb,
          result.queue_std_kb,
          "/".join(f"{g:.2f}" for g in result.rates_gbps),
          "/".join(f"{p:.3f}" for p in result.p_values),
          result.jain_index, result.max_min, result.queue_pinned]],
        title="Fig. 19 -- patched TIMELY + host PI: delay bounded, "
              "fairness lost")
