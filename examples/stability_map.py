#!/usr/bin/env python3
"""Stability maps: where each protocol's control loop breaks.

Prints the Bode phase-margin sweeps behind Fig. 3 (DCQCN) and Fig. 11
(patched TIMELY), then spot-checks two predictions in the time domain
with the fluid models:

* DCQCN, 85 us delay: unstable at 10 flows, stable at 2 and 64 --
  the non-monotonic signature;
* patched TIMELY: stable at 10 flows, oscillating at 64 -- the queue
  (Eq. 31) lengthening its own feedback loop (Eq. 24).

Run:  python examples/stability_map.py
"""

from repro import units
from repro.core.fluid import dde
from repro.core.fluid.dcqcn import DCQCNFluidModel
from repro.core.fluid.timely import TimelyFluidModel
from repro.core.params import DCQCNParams, PatchedTimelyParams
from repro.experiments import fig03_dcqcn_phase_margin as fig03
from repro.experiments import fig11_patched_phase_margin as fig11


def margin_tables():
    print("== DCQCN phase margins (Fig. 3a) ==")
    sweeps = fig03.panel_a(delays_us=(4, 55, 85, 100),
                           flow_counts=(1, 2, 6, 10, 20, 50, 100))
    print(fig03.report(sweeps, "phase margin (deg) vs N per delay"))
    print()
    print("== Patched TIMELY phase margins (Fig. 11) ==")
    rows = fig11.run()
    print(fig11.report(rows))
    crossover = fig11.crossover_flows(rows)
    print(f"instability onset: ~{crossover} flows\n")


def spot_check_dcqcn():
    print("== Time-domain spot check: DCQCN @ 85us ==")
    for n in (2, 10, 64):
        params = DCQCNParams.paper_default(num_flows=n,
                                           tau_star_us=85.0)
        trace = dde.integrate(
            DCQCNFluidModel(params, extend_red=True), 0.08, dt=2e-6,
            record_stride=50)
        mean = trace.tail_mean("q", 0.02)
        std = trace.tail_std("q", 0.02)
        verdict = "OSCILLATING" if std > 0.1 * max(mean, 1) else \
            "stable"
        print(f"  N={n:3d}: queue "
              f"{units.packets_to_kb(mean):8.1f} KB "
              f"+/- {units.packets_to_kb(std):6.1f} KB -> {verdict}")
    print()


def spot_check_patched():
    print("== Time-domain spot check: patched TIMELY ==")
    for n in (10, 64):
        patched = PatchedTimelyParams.paper_default(num_flows=n)
        trace = dde.integrate(TimelyFluidModel(patched), 0.15,
                              dt=1e-6, record_stride=50)
        mean = trace.tail_mean("q", 0.03)
        std = trace.tail_std("q", 0.03)
        verdict = "OSCILLATING" if std > 0.05 * mean else "stable"
        print(f"  N={n:3d}: queue "
              f"{units.packets_to_kb(mean):8.1f} KB "
              f"+/- {units.packets_to_kb(std):6.1f} KB -> {verdict}")


def main():
    margin_tables()
    spot_check_dcqcn()
    spot_check_patched()


if __name__ == "__main__":
    main()
