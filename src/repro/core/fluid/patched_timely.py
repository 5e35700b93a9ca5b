"""Patched TIMELY fluid model -- Algorithm 2 / Equations 29-30.

Section 4.3's two-line fix to TIMELY:

1. In the gradient band the rate decrease is driven by the *absolute*
   queue excess over a reference ``q' = C * T_low`` instead of by the
   RTT gradient, giving every flow shared knowledge of the bottleneck
   queue -- this collapses the infinite fixed-point family of Theorem 4
   into the unique point of Theorem 5 (Eq. 31).
2. The hard ``g <= 0 / g > 0`` switch becomes a continuous weight
   ``w(g)`` (Eq. 30), removing the on-off chatter.

Everything else (thresholds, gradient EWMA, update intervals, the
state-dependent feedback delay) is inherited from
:class:`~repro.core.fluid.timely.TimelyFluidModel`.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

import numpy as np

from repro.core.fluid.jitter import no_jitter
from repro.core.fluid.timely import TimelyFluidModel
from repro.core.params import PatchedTimelyParams


class PatchedTimelyFluidModel(TimelyFluidModel):
    """Eq. 29 dynamics with the Eq. 30 weight function.

    Parameters mirror :class:`TimelyFluidModel`, but take a
    :class:`~repro.core.params.PatchedTimelyParams` whose embedded base
    carries the Section 4.3 overrides (``beta = 0.008``,
    ``Seg = 16KB``).
    """

    def __init__(self, patched: PatchedTimelyParams,
                 initial_rates: Optional[Sequence[float]] = None,
                 initial_queue: float = 0.0,
                 line_rate: Optional[float] = None,
                 feedback_jitter: Callable[[float], float] = no_jitter,
                 mtu_packets: float = 1.0,
                 start_times: Optional[Sequence[float]] = None):
        super().__init__(patched.base,
                         initial_rates=initial_rates,
                         initial_queue=initial_queue,
                         line_rate=line_rate,
                         feedback_jitter=feedback_jitter,
                         mtu_packets=mtu_packets,
                         start_times=start_times)
        self.patched = patched

    def weights(self, gradients: np.ndarray) -> np.ndarray:
        """Vectorized Eq. 30: linear ramp from 0 to 1 over g in [-1/4, 1/4]."""
        half = self.patched.weight_slope_halfwidth
        w = gradients / (2.0 * half)
        w += 0.5
        np.maximum(0.0, w, out=w)
        np.minimum(1.0, w, out=w)
        return w

    def rate_derivative(self, delayed_queue: float, gradients: np.ndarray,
                        rates: np.ndarray,
                        tau_star: np.ndarray) -> np.ndarray:
        p = self.params
        if delayed_queue < p.q_low:
            return p.delta / tau_star
        if delayed_queue > p.q_high:
            scale = 1.0 - p.q_high / delayed_queue
            return -(p.beta / tau_star) * scale * rates
        w = self.weights(gradients)
        q_ref = self.patched.q_ref
        error = (delayed_queue - q_ref) / q_ref
        beta = self.patched.beta_band
        return ((1.0 - w) * p.delta - w * beta * rates * error) / tau_star
