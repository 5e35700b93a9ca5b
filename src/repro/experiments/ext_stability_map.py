"""Extension: the full DCQCN stability boundary over (N, delay).

Fig. 3 shows phase-margin *curves*; this experiment computes the whole
two-dimensional map -- margin for every (flow count, feedback delay)
cell, using the closed-form Appendix-A linearization for speed -- and
extracts the stability boundary: for each flow count, the largest
delay the loop tolerates.  The boundary makes the paper's
non-monotonicity vivid: the tolerable delay *dips* around N~10 and
then grows again, so a network that survives 10 incasting senders at
some RTT can be destabilized by removing flows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.analysis.reporting import format_table
from repro.core.params import DCQCNParams
from repro.core.stability.bode import phase_margin
from repro.core.stability.dcqcn_margin import DCQCNLoopGain
from repro.perf import ResiliencePolicy, ResultCache, SweepRunner

#: Default grid (log-ish in both axes).
DEFAULT_FLOWS = (1, 2, 4, 6, 8, 10, 14, 20, 30, 50, 80)
DEFAULT_DELAYS_US = (4, 10, 25, 40, 55, 70, 85, 100, 130, 170)


@dataclass(frozen=True)
class StabilityMapRow:
    """One flow count's margins across the delay axis."""

    num_flows: int
    delays_us: Sequence[float]
    margins_deg: List[float]

    @property
    def max_stable_delay_us(self) -> Optional[float]:
        """Largest swept delay with a positive margin (None if none)."""
        stable = [d for d, m in zip(self.delays_us, self.margins_deg)
                  if m > 0]
        return max(stable) if stable else None


def compute_row(num_flows: int, delays_us: Sequence[float],
                capacity_gbps: float) -> StabilityMapRow:
    """One flow count's margins across the delay axis.

    Module-level (picklable) so :class:`~repro.perf.SweepRunner` can
    fan rows out to worker processes; each cell is self-contained.
    """
    margins = []
    for delay in delays_us:
        params = DCQCNParams.paper_default(
            capacity_gbps=capacity_gbps, num_flows=int(num_flows),
            tau_star_us=float(delay))
        loop = DCQCNLoopGain(params, jacobian_mode="analytic")
        margins.append(phase_margin(loop).margin_deg)
    return StabilityMapRow(num_flows=int(num_flows),
                           delays_us=tuple(delays_us),
                           margins_deg=margins)


def run(flow_counts: Sequence[int] = DEFAULT_FLOWS,
        delays_us: Sequence[float] = DEFAULT_DELAYS_US,
        capacity_gbps: float = 40.0,
        workers: Optional[int] = None,
        cache: Optional[ResultCache] = None,
        resilience: Optional[ResiliencePolicy] = None
        ) -> List[StabilityMapRow]:
    """Compute the margin grid with the analytic linearization.

    ``workers`` fans the per-flow-count rows over processes;
    ``cache`` memoizes each row on disk; ``resilience`` adds
    timeouts, retries, quarantine and crash-surviving resume (see
    :mod:`repro.perf`).  Results are identical to the serial,
    uncached, uninterrupted computation.
    """
    runner = SweepRunner(workers=workers, cache=cache,
                         experiment_id="ext_stability_map",
                         resilience=resilience)
    cells = [{"num_flows": int(n), "delays_us": tuple(delays_us),
              "capacity_gbps": capacity_gbps} for n in flow_counts]
    return runner.map(compute_row, cells)


def boundary(rows: List[StabilityMapRow]
             ) -> "List[tuple[int, Optional[float]]]":
    """(flow count, max stable delay) pairs -- the stability frontier."""
    return [(row.num_flows, row.max_stable_delay_us) for row in rows]


def report(rows: List[StabilityMapRow]) -> str:
    """Render the margin grid plus the extracted frontier."""
    if not rows:
        raise ValueError("no rows to report")
    delays = rows[0].delays_us
    headers = ["N \\ delay(us)"] + [f"{d:g}" for d in delays] \
        + ["max stable"]
    table_rows: List[List[object]] = []
    for row in rows:
        frontier = row.max_stable_delay_us
        table_rows.append(
            [row.num_flows]
            + [round(m, 1) for m in row.margins_deg]
            + ["none" if frontier is None else f"{frontier:g}us"])
    return format_table(
        headers, table_rows,
        title="Extension -- DCQCN phase-margin map over (N, feedback "
              "delay); positive = stable")
