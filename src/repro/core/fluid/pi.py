"""PI-controller fluid models -- Section 5.2, Eq. 32, Figures 18-19.

Two systems demonstrate the paper's fairness/delay-tradeoff argument
(Theorem 6):

* :class:`DCQCNPIFluidModel` -- the switch marks with a PI controller
  instead of RED.  The marking probability is a *shared* integrator
  state ``dp/dt = K1 de/dt + K2 e`` with ``e = q - q_ref``; integral
  action pins the queue to ``q_ref`` regardless of the number of flows,
  while the shared ``p`` still forces all flows to the same rate
  (Fig. 18): fairness *and* bounded delay.

* :class:`~repro.core.fluid.timely.TimelyFluidModel` with ``pi=`` --
  each *host* runs its own PI controller on its measured delay, and the
  resulting per-flow internal variable ``p_i`` replaces the
  ``(q - q')/q'`` term of Eq. 29.  The queue is again pinned to the
  reference, but the per-host integrators retain whatever asymmetry
  their histories accumulated: the rate split is an accident of initial
  conditions (Fig. 19): bounded delay *without* fairness.  This is
  exactly the underdetermined system in Theorem 6's proof (``N+1``
  equations, ``2N`` unknowns).
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence

import numpy as np

from repro.core.fluid.dcqcn import DCQCNFluidModel
from repro.core.fluid.history import UniformHistory
from repro.core.fluid.jitter import no_jitter
from repro.core.params import DCQCNParams, PIParams


class DCQCNPIFluidModel(DCQCNFluidModel):
    """DCQCN whose congestion point marks via Eq. 32 instead of RED.

    The marking variable joins the state vector (label ``p_mark``);
    senders observe it delayed by ``tau*`` exactly as they observe RED
    marks in the base model.
    """

    def __init__(self, params: DCQCNParams, pi: PIParams,
                 initial_rates: Optional[Sequence[float]] = None,
                 initial_queue: float = 0.0,
                 line_rate: Optional[float] = None,
                 feedback_jitter: Callable[[float], float] = no_jitter):
        super().__init__(params, initial_rates=initial_rates,
                         initial_queue=initial_queue, line_rate=line_rate,
                         feedback_jitter=feedback_jitter)
        self.pi = pi
        self._lower = np.append(self._lower, pi.p_min)
        self._upper = np.append(self._upper, pi.p_max)

    @property
    def p_mark_index(self) -> int:
        """Column index of the PI marking variable."""
        return 1 + 3 * self.n

    def initial_state(self) -> np.ndarray:
        base = super().initial_state()
        return np.append(base, 0.0)

    def state_labels(self) -> List[str]:
        return super().state_labels() + ["p_mark"]

    def marking_probability(self, t: float,
                            history: UniformHistory) -> float:
        lag = self.params.tau_star + self.feedback_jitter(t)
        delayed_p = history.component(t - lag, self.p_mark_index)
        return min(max(delayed_p, self.pi.p_min), self.pi.p_max)

    def derivatives(self, t: float, state: np.ndarray,
                    history: UniformHistory) -> np.ndarray:
        base = super().derivatives(t, state[:self.p_mark_index], history)
        queue = state[self.queue_index]
        dq = base[self.queue_index]
        # Error and its slope are normalized by q_ref so PI gains carry
        # the same meaning (fraction of p per second) across models.
        error = (queue - self.pi.q_ref) / self.pi.q_ref
        dp = self.pi.k1 * dq / self.pi.q_ref + self.pi.k2 * error
        # Anti-windup: freeze the integrator when pushing past a clamp.
        p_mark = state[self.p_mark_index]
        if (p_mark <= self.pi.p_min and dp < 0) or \
                (p_mark >= self.pi.p_max and dp > 0):
            dp = 0.0
        return np.append(base, dp)
