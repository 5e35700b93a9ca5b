#!/usr/bin/env python3
"""TIMELY's infinite fixed points, and the patch that removes them.

Reproduces the Section 4 story end to end:

* run the Fig. 9 scenarios -- identical TIMELY flows started
  differently end at wildly different rates (Theorem 4's family);
* enumerate members of that family analytically;
* run patched TIMELY (Algorithm 2) from the worst starting condition
  and watch it converge to the unique Eq. 31 fixed point (Theorem 5).

Run:  python examples/timely_unfairness.py
"""

from repro import (PatchedTimelyParams, TimelyFluidModel, TimelyParams,
                   dde, jain_fairness, units)
from repro.analysis.reporting import format_table
from repro.core.fixedpoint.timely import (patched_fixed_point,
                                          sample_fixed_points)
from repro.experiments import fig09_timely_unfairness as fig09


def show_fig09():
    print("== TIMELY under three starting conditions (Fig. 9) ==")
    rows = fig09.run(duration=0.06)
    print(fig09.report(rows))
    print()


def show_family():
    print("== A random walk through Theorem 4's fixed-point family ==")
    params = TimelyParams.paper_default(num_flows=4)
    rows = []
    for i, point in enumerate(sample_fixed_points(params, 5, seed=11)):
        rates = "/".join(f"{units.pps_to_gbps(r):.2f}"
                         for r in point.rates)
        rows.append([i, rates, units.packets_to_kb(point.queue),
                     point.fairness_ratio])
    print(format_table(
        ["sample", "rates (Gbps)", "queue (KB)", "max/min"], rows))
    print("every one of these satisfies the Eq. 28 system exactly.\n")


def show_patch():
    print("== Patched TIMELY from the 7/3 Gbps start (Fig. 12a) ==")
    patched = PatchedTimelyParams.paper_default(num_flows=2)
    mtu = patched.base.mtu_bytes
    model = TimelyFluidModel(
        patched,
        initial_rates=[units.gbps_to_pps(7, mtu),
                       units.gbps_to_pps(3, mtu)])
    trace = dde.integrate(model, 0.08, dt=1e-6, record_stride=50)
    finals = [trace.tail_mean(f"r[{i}]", 0.01) for i in range(2)]
    predicted = patched_fixed_point(patched)
    print(f"final rates: "
          + " / ".join(f"{units.pps_to_gbps(r):.2f} Gbps"
                       for r in finals))
    print(f"Jain index: {jain_fairness(finals):.4f}")
    print(f"queue: {units.packets_to_kb(trace.tail_mean('q', 0.01)):.1f}"
          f" KB (Eq. 31 predicts "
          f"{units.packets_to_kb(predicted.queue):.1f} KB)")


def main():
    show_fig09()
    show_family()
    show_patch()


if __name__ == "__main__":
    main()
