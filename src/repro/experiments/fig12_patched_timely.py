"""Figure 12: patched TIMELY convergence and stability.

(a) two flows with asymmetric initial rates (7 vs 3 Gbps) converge to
    the fair share with the queue settling at Eq. 31's value -- the
    direct contrast to Fig. 9(c);
(b) moderate flow counts remain stable;
(c) large flow counts oscillate, matching the Fig. 11 margin curve.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from repro import units
from repro.analysis.reporting import format_table
from repro.core.convergence.metrics import jain_fairness
from repro.core.fluid import dde
from repro.core.fluid.timely import TimelyFluidModel
from repro.core.params import PatchedTimelyParams
from repro.obs import health as _health


def _unfairness_watch(label: str, n: int, window: float):
    """(observer, monitor) streaming rates into the drift detector.

    The patched model shares TIMELY's ``[q, g[i], r[i]]`` state
    layout.  Fig. 12 is the *negative control*: the patch pins the
    unique fixed point at the fair share, so the detector must stay
    clean here while firing on Fig. 9 -- even in panel (c), where
    large N oscillates the queue but the rates stay symmetric.
    Returns ``(None, None)`` while telemetry is off.
    """
    if _health.current_session() is None:
        return None, None
    monitor = _health.HealthMonitor(
        [_health.UnfairnessDriftDetector(window=window)],
        context=label)
    return monitor.observe_state(
        rate_slice=slice(1 + n, 1 + 2 * n)), monitor


@dataclass(frozen=True)
class PatchedRunRow:
    """Tail statistics of one patched-TIMELY fluid run."""

    label: str
    num_flows: int
    jain_index: float
    queue_mean_kb: float
    queue_pred_kb: float
    queue_std_kb: float

    @property
    def queue_error(self) -> float:
        """Relative deviation from the Eq. 31 prediction."""
        return abs(self.queue_mean_kb - self.queue_pred_kb) \
            / self.queue_pred_kb

    @property
    def oscillating(self) -> bool:
        return self.queue_std_kb > 0.1 * self.queue_pred_kb


def run_asymmetric(capacity_gbps: float = 10.0,
                   duration: float = 0.08,
                   dt: float = 1e-6) -> PatchedRunRow:
    """Panel (a): 7 vs 3 Gbps starting rates."""
    patched = PatchedTimelyParams.paper_default(
        capacity_gbps=capacity_gbps, num_flows=2)
    mtu = patched.base.mtu_bytes
    model = TimelyFluidModel(
        patched,
        initial_rates=[units.gbps_to_pps(7.0, mtu),
                       units.gbps_to_pps(3.0, mtu)])
    window = duration / 4.0
    observer, monitor = _unfairness_watch("(a) 7Gbps vs 3Gbps start",
                                          2, window)
    trace = dde.integrate(model, duration, dt=dt, record_stride=10,
                          observer=observer)
    if monitor is not None:
        monitor.finalize()
    finals = [trace.tail_mean(f"r[{i}]", window) for i in range(2)]
    return PatchedRunRow(
        label="(a) 7Gbps vs 3Gbps start",
        num_flows=2,
        jain_index=jain_fairness(finals),
        queue_mean_kb=units.packets_to_kb(trace.tail_mean("q", window),
                                          mtu),
        queue_pred_kb=units.packets_to_kb(patched.fixed_point_queue, mtu),
        queue_std_kb=units.packets_to_kb(trace.tail_std("q", window),
                                         mtu))


def run_flow_sweep(flow_counts: Sequence[int] = (10, 40, 64),
                   capacity_gbps: float = 10.0,
                   duration: float = 0.2,
                   dt: float = 1e-6) -> List[PatchedRunRow]:
    """Panels (b)/(c): stability across flow counts."""
    rows = []
    window = duration / 4.0
    for n in flow_counts:
        patched = PatchedTimelyParams.paper_default(
            capacity_gbps=capacity_gbps, num_flows=n)
        mtu = patched.base.mtu_bytes
        model = TimelyFluidModel(patched)
        observer, monitor = _unfairness_watch(f"N={n}", n, window)
        trace = dde.integrate(model, duration, dt=dt,
                              record_stride=20, observer=observer)
        if monitor is not None:
            monitor.finalize()
        finals = [trace.tail_mean(f"r[{i}]", window) for i in range(n)]
        rows.append(PatchedRunRow(
            label=f"N={n}",
            num_flows=n,
            jain_index=jain_fairness(finals),
            queue_mean_kb=units.packets_to_kb(
                trace.tail_mean("q", window), mtu),
            queue_pred_kb=units.packets_to_kb(patched.fixed_point_queue,
                                              mtu),
            queue_std_kb=units.packets_to_kb(
                trace.tail_std("q", window), mtu)))
    return rows


def report(rows: List[PatchedRunRow]) -> str:
    """Render the patched-TIMELY behaviour table."""
    return format_table(
        ["scenario", "N", "Jain", "queue (KB)", "Eq.31 (KB)",
         "queue std (KB)", "oscillating"],
        [[r.label, r.num_flows, r.jain_index, r.queue_mean_kb,
          r.queue_pred_kb, r.queue_std_kb, r.oscillating]
         for r in rows],
        title="Fig. 12 -- patched TIMELY: convergence and stability")
