"""Reproduction of *ECN or Delay: Lessons Learnt from Analysis of
DCQCN and TIMELY* (Zhu, Ghobadi, Misra, Padhye -- CoNEXT 2016).

The package is organized as the paper is:

* :mod:`repro.core` -- the analytic toolkit: delay-ODE fluid models of
  DCQCN (Fig. 1), TIMELY (Fig. 7), patched TIMELY (Eq. 29) and their
  PI-controlled variants; fixed-point solvers (Theorems 1, 3-5);
  Bode phase-margin stability analysis (Fig. 3, Fig. 11, App. A);
  and the discrete AIMD convergence model (Theorem 2, App. B).
* :mod:`repro.sim` -- a packet-level discrete-event simulator standing
  in for the authors' NS3 setup: switches with egress/ingress RED or
  PI marking, PFC, and full DCQCN / TIMELY / patched-TIMELY endpoint
  state machines.
* :mod:`repro.workloads` -- the Section 5.1 traffic model (DCTCP
  web-search sizes, Poisson arrivals).
* :mod:`repro.analysis` -- FCT statistics, fairness, reporting.
* :mod:`repro.experiments` -- one driver per paper figure.

Quickstart::

    from repro import DCQCNParams, solve_fixed_point
    params = DCQCNParams.paper_default(num_flows=10)
    print(solve_fixed_point(params))
"""

from repro.core.convergence.discrete import DiscreteDCQCN
from repro.core.convergence.metrics import jain_fairness
from repro.core.fixedpoint.dcqcn import (approximate_p_star,
                                         solve_fixed_point)
from repro.core.fixedpoint.timely import patched_fixed_point
from repro.core.fluid import dde
from repro.core.fluid.dcqcn import DCQCNFluidModel
from repro.core.fluid.dctcp import DCTCPFluidModel
from repro.core.fluid.timely import TimelyFluidModel
from repro.core.params import (DCQCNParams, DCTCPParams, PIParams,
                               PatchedTimelyParams, REDParams,
                               TimelyParams)
from repro.core.stability.dcqcn_margin import dcqcn_phase_margin
from repro.core.stability.timely_margin import patched_timely_phase_margin

__version__ = "1.0.0"

__all__ = [
    "DCQCNFluidModel",
    "DCQCNParams",
    "DCTCPFluidModel",
    "DCTCPParams",
    "DiscreteDCQCN",
    "PIParams",
    "PatchedTimelyParams",
    "REDParams",
    "TimelyFluidModel",
    "TimelyParams",
    "approximate_p_star",
    "dcqcn_phase_margin",
    "dde",
    "jain_fairness",
    "patched_fixed_point",
    "patched_timely_phase_margin",
    "solve_fixed_point",
]
