"""Extension: how fast does each protocol re-converge after churn?

Theorem 2 (DCQCN) and Theorem 5 (patched TIMELY) both promise
*exponential* convergence; this experiment puts a clock on it.  A
late flow joins an established flow at the bottleneck, and we measure
how long the pair takes to settle within a tolerance band of the new
fair share -- fluid models, so the answer is noise-free.

DCQCN's newcomer arrives at line rate (the protocol's design) and the
incumbent is beaten down within a handful of AIMD cycles; patched
TIMELY's newcomer climbs from its starting rate under the
``(1-w) delta`` additive term, so its convergence time is dominated
by delta and is typically an order of magnitude slower at these
parameters -- the flip side of the gentleness that keeps its queue
smooth.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.analysis.reporting import format_table
from repro.core.convergence.metrics import convergence_time
from repro.core.fluid import dde
from repro.core.fluid.dcqcn import DCQCNFluidModel
from repro.core.fluid.timely import TimelyFluidModel
from repro.core.params import DCQCNParams, PatchedTimelyParams


@dataclass(frozen=True)
class ConvergenceRow:
    """Settling times after a flow joins at ``join_time``."""

    protocol: str
    join_time_ms: float
    newcomer_settle_ms: Optional[float]   #: None = never settled
    incumbent_settle_ms: Optional[float]


def _settle(times: np.ndarray, series: np.ndarray, join: float,
            target: float, tolerance: float) -> Optional[float]:
    """Post-join settling time (ms), None if never settled."""
    mask = times >= join
    settled = convergence_time(times[mask], series[mask], target,
                               tolerance)
    if settled is None:
        return None
    return (settled - join) * 1e3


def run(join_time: float = 0.02,
        duration: float = 0.25,
        tolerance_fraction: float = 0.1,
        capacity_gbps: float = 10.0,
        dt: float = 1e-6) -> List[ConvergenceRow]:
    """One incumbent, one joiner, for DCQCN and patched TIMELY."""
    rows = []

    # DCQCN: both flows modelled, second activates at join_time at
    # line rate (DCQCN's arrival behaviour).
    params = DCQCNParams.paper_default(capacity_gbps=capacity_gbps,
                                       num_flows=2, tau_star_us=4.0)
    fair = params.fair_share
    model = DCQCNFluidModel(params, start_times=[0.0, join_time])
    trace = dde.integrate(model, duration, dt=dt, record_stride=20)
    tolerance = tolerance_fraction * fair
    rows.append(ConvergenceRow(
        protocol="dcqcn",
        join_time_ms=join_time * 1e3,
        newcomer_settle_ms=_settle(trace.times, trace.column("rc[1]"),
                                   join_time, fair, tolerance),
        incumbent_settle_ms=_settle(trace.times, trace.column("rc[0]"),
                                    join_time, fair, tolerance)))

    # Patched TIMELY, twice: the newcomer entering at TIMELY's
    # C/(N+1) rule, and entering timidly at C/20 (as if the host
    # believed many flows were active) -- the climb is additive-only,
    # so the timid start exposes the delta-limited ramp.
    patched = PatchedTimelyParams.paper_default(
        capacity_gbps=capacity_gbps, num_flows=2)
    base = patched.base
    fair_t = base.fair_share
    tolerance_t = tolerance_fraction * fair_t
    for label, newcomer_rate in (
            ("patched_timely (C/2 start)", base.capacity / 2.0),
            ("patched_timely (C/20 start)", base.capacity / 20.0)):
        model_t = TimelyFluidModel(
            patched,
            initial_rates=[base.capacity, newcomer_rate],
            start_times=[0.0, join_time])
        trace_t = dde.integrate(model_t, duration, dt=dt,
                                record_stride=20)
        rows.append(ConvergenceRow(
            protocol=label,
            join_time_ms=join_time * 1e3,
            newcomer_settle_ms=_settle(trace_t.times,
                                       trace_t.column("r[1]"),
                                       join_time, fair_t, tolerance_t),
            incumbent_settle_ms=_settle(trace_t.times,
                                        trace_t.column("r[0]"),
                                        join_time, fair_t,
                                        tolerance_t)))
    return rows


def report(rows: List[ConvergenceRow]) -> str:
    """Render the settling-time comparison."""
    def fmt(value: Optional[float]) -> object:
        return "never" if value is None else value

    return format_table(
        ["protocol", "join at (ms)", "newcomer settles (ms)",
         "incumbent settles (ms)"],
        [[r.protocol, r.join_time_ms, fmt(r.newcomer_settle_ms),
          fmt(r.incumbent_settle_ms)] for r in rows],
        title="Extension -- re-convergence time after a flow joins "
              "(10% band around fair share)")
