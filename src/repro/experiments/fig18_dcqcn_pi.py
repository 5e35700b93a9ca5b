"""Figure 18: DCQCN with a PI marking controller at the switch.

The PI marker (Eq. 32) replaces RED: integral action pins the queue to
the configured reference *regardless of the number of flows* (RED's
operating queue grows with N, Eq. 14/9), while the marking probability
converges to each N's Eq. 11 value and the flows stay fair -- ECN
achieves fairness and bounded delay simultaneously (Theorem 6's
positive side).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from repro import units
from repro.analysis.reporting import format_table
from repro.core.convergence.metrics import jain_fairness
from repro.core.fixedpoint.dcqcn import solve_fixed_point
from repro.core.fluid import dde
from repro.core.fluid.dcqcn import DCQCNFluidModel
from repro.core.params import DCQCNParams, PIParams


@dataclass(frozen=True)
class DCQCNPIRow:
    """Outcome for one flow count."""

    num_flows: int
    queue_mean_kb: float
    queue_ref_kb: float
    queue_std_kb: float
    jain_index: float
    p_mark: float
    p_star_red: float   #: the Eq. 11 fixed point the controller found

    @property
    def pinned(self) -> bool:
        """Queue within 5% of the reference."""
        return abs(self.queue_mean_kb - self.queue_ref_kb) \
            <= 0.05 * self.queue_ref_kb


def run(flow_counts: Sequence[int] = (2, 10, 64),
        q_ref_kb: float = 100.0,
        capacity_gbps: float = 40.0,
        tau_star_us: float = 50.0,
        duration: float = 0.5,
        dt: float = 2e-6) -> List[DCQCNPIRow]:
    """Integrate DCQCN+PI for each flow count."""
    rows = []
    window = duration / 5.0
    pi = PIParams.for_dcqcn(q_ref_kb)
    for n in flow_counts:
        params = DCQCNParams.paper_default(capacity_gbps=capacity_gbps,
                                           num_flows=n,
                                           tau_star_us=tau_star_us)
        model = DCQCNFluidModel(params, pi=pi)
        trace = dde.integrate(model, duration, dt=dt, record_stride=50)
        finals = [trace.tail_mean(f"rc[{i}]", window) for i in range(n)]
        fixed = solve_fixed_point(params, extend_red=True)
        rows.append(DCQCNPIRow(
            num_flows=n,
            queue_mean_kb=units.packets_to_kb(
                trace.tail_mean("q", window), params.mtu_bytes),
            queue_ref_kb=q_ref_kb,
            queue_std_kb=units.packets_to_kb(
                trace.tail_std("q", window), params.mtu_bytes),
            jain_index=jain_fairness(finals),
            p_mark=trace.tail_mean("p_mark", window),
            p_star_red=fixed.p))
    return rows


def report(rows: List[DCQCNPIRow]) -> str:
    """Render the queue-pinning/fairness table."""
    return format_table(
        ["N", "queue (KB)", "ref (KB)", "queue std", "Jain", "p (PI)",
         "p* (Eq.11)", "pinned"],
        [[r.num_flows, r.queue_mean_kb, r.queue_ref_kb, r.queue_std_kb,
          r.jain_index, r.p_mark, r.p_star_red, r.pinned]
         for r in rows],
        title="Fig. 18 -- DCQCN + PI: queue pinned to the reference "
              "for any N, rates fair")
