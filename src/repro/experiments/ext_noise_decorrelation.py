"""Extension: testing the burst-noise de-correlation conjecture.

Sweeps the measurement-noise amplitude on the Fig. 9(c) scenario (7 vs
3 Gbps starts).  Plain TIMELY freezes the asymmetry (Theorem 4); with
burst-scale noise the flows drift toward the fair share -- the fluid
counterpart of the paper's Fig. 10(a) observation and its unproven
conjecture.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from repro import units
from repro.analysis.reporting import format_table
from repro.core.convergence.metrics import jain_fairness, max_min_ratio
from repro.core.fluid import dde
from repro.core.fluid.timely import TimelyFluidModel
from repro.core.params import TimelyParams


@dataclass(frozen=True)
class NoiseRow:
    """Tail operating point for one noise amplitude."""

    noise_packets: float
    rates_gbps: "list[float]"
    jain_index: float
    max_min: float


def run(noise_amplitudes: Sequence[float] = (0.0, 4.0, 16.0, 64.0),
        capacity_gbps: float = 10.0,
        duration: float = 0.15,
        seed: int = 8) -> List[NoiseRow]:
    """Integrate the 7/3 scenario per noise amplitude."""
    rows = []
    params = TimelyParams.paper_default(capacity_gbps=capacity_gbps,
                                        num_flows=2)
    mtu = params.mtu_bytes
    initial = [units.gbps_to_pps(7.0, mtu),
               units.gbps_to_pps(3.0, mtu)]
    window = duration / 5.0
    for amplitude in noise_amplitudes:
        model = TimelyFluidModel(params, initial_rates=initial,
                                 noise_amplitude=amplitude, noise_seed=seed)
        trace = dde.integrate(model, duration, dt=1e-6,
                              record_stride=50)
        finals = [trace.tail_mean(f"r[{i}]", window) for i in range(2)]
        rows.append(NoiseRow(
            noise_packets=amplitude,
            rates_gbps=[units.pps_to_gbps(r, mtu) for r in finals],
            jain_index=jain_fairness(finals),
            max_min=max_min_ratio(finals)))
    return rows


def report(rows: List[NoiseRow]) -> str:
    """Render the noise sweep."""
    return format_table(
        ["noise (pkts)", "final rates (Gbps)", "Jain", "max/min"],
        [[r.noise_packets,
          "/".join(f"{g:.2f}" for g in r.rates_gbps),
          r.jain_index, r.max_min] for r in rows],
        title="Extension -- measurement noise de-correlates TIMELY "
              "(the Fig. 10a conjecture, fluid form)")
