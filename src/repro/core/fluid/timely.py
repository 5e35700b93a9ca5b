"""TIMELY fluid model -- Figure 7 / Equations 20-24 of the paper.

State layout for ``N`` flows: ``[q, g_1..g_N, r_1..r_N]`` where ``g`` is
the (normalized, EWMA-filtered) RTT gradient and ``r`` the sending
rate.

The distinguishing features, faithfully reproduced:

* The feedback delay ``tau' = q/C + MTU/C + D_prop`` (Eq. 24) is
  *state dependent*: queue buildup lengthens the control loop, the very
  coupling Section 5.2 identifies as delay-based control's handicap.
* The per-flow update interval ``tau*_i = max(Seg/R_i, D_minRTT)``
  (Eq. 23): one RTT sample per transmitted segment, with the update
  frequency capped by ``D_minRTT``.
* The gradient ODE (Eq. 22) differences two delayed queue observations,
  ``q(t - tau')`` and ``q(t - tau' - tau*_i)``.
* The rate law (Eq. 21) follows Algorithm 1's branch order: the
  ``T_low`` additive-increase and ``T_high`` multiplicative-decrease
  guards are checked on the *delayed* queue, and only between them does
  the gradient decide.

``gradient_zero_increases`` selects between the paper's two variants:
``True`` is Algorithm 1 / Eq. 21 (``g <= 0`` increases -- Theorem 3: no
fixed point at all); ``False`` is the Eq. 28 modification (``g >= 0``
decreases -- Theorem 4: infinitely many fixed points).  The fluid
trajectories of the two are indistinguishable in practice (an exactly
zero gradient has measure zero); both are provided because the paper's
fixed-point taxonomy hinges on the distinction.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence

import numpy as np

from repro.core.fluid.base import FluidModel
from repro.core.fluid.history import UniformHistory
from repro.core.fluid.jitter import no_jitter
from repro.core.params import TimelyParams

#: Floor on flow rates (packets/s); keeps ``Seg / R`` finite.
MIN_RATE = 1.0

#: ``np.sum`` without its Python wrapper; the same pairwise summation.
_add_reduce = np.add.reduce


class TimelyFluidModel(FluidModel):
    """The Fig. 7 delay-ODE system for ``N`` individually-tracked flows.

    Parameters
    ----------
    params:
        TIMELY configuration.
    initial_rates:
        Per-flow starting rates, packets/s.  Defaults to ``C/N`` each
        (TIMELY starts a new flow at ``C/(N+1)`` of the NIC rate with
        ``N`` already active; the paper's validation uses ``1/N`` of
        link bandwidth).
    initial_queue:
        Starting queue depth, packets.
    line_rate:
        Cap on per-flow rate, packets/s (defaults to capacity).
    feedback_jitter:
        Callable ``t -> extra delay (s)`` added to the feedback delay
        ``tau'`` -- the Fig. 20 experiment.  Because TIMELY's signal *is*
        the delay, jitter shifts the observation time of the queue it
        reacts to, corrupting the gradient.
    mtu_packets:
        The MTU term of Eq. 24 in packets (1.0 by construction).
    start_times:
        Per-flow activation times, seconds.  Before its start time a
        flow contributes nothing to the queue and its state is frozen;
        at activation it enters at its configured initial rate.  Used
        by the Fig. 9(b) "one flow starts 10 ms late" experiment.
    """

    def __init__(self, params: TimelyParams,
                 initial_rates: Optional[Sequence[float]] = None,
                 initial_queue: float = 0.0,
                 line_rate: Optional[float] = None,
                 feedback_jitter: Callable[[float], float] = no_jitter,
                 mtu_packets: float = 1.0,
                 start_times: Optional[Sequence[float]] = None):
        self.params = params
        self.n = params.num_flows
        self.line_rate = params.capacity if line_rate is None else line_rate
        if initial_rates is None:
            self._initial_rates = np.full(self.n, params.fair_share)
        else:
            rates = np.asarray(initial_rates, dtype=float)
            if rates.shape != (self.n,):
                raise ValueError(
                    f"initial_rates must have shape ({self.n},), "
                    f"got {rates.shape}")
            if np.any(rates <= 0):
                raise ValueError("initial rates must be positive")
            self._initial_rates = rates
        if initial_queue < 0:
            raise ValueError(
                f"initial_queue must be >= 0, got {initial_queue}")
        self._initial_queue = float(initial_queue)
        self.feedback_jitter = feedback_jitter
        self.mtu_packets = float(mtu_packets)
        if start_times is None:
            self.start_times = np.zeros(self.n)
        else:
            starts = np.asarray(start_times, dtype=float)
            if starts.shape != (self.n,):
                raise ValueError(
                    f"start_times must have shape ({self.n},), "
                    f"got {starts.shape}")
            if np.any(starts < 0):
                raise ValueError("start times must be >= 0")
            self.start_times = starts
        # Built once: consulted on every derivative evaluation.
        self._gradient_sl = slice(1, 1 + self.n)
        self._rate_sl = slice(1 + self.n, 1 + 2 * self.n)
        self._always_active = not np.any(self.start_times > 0.0)
        # Per-column bounds for clamp(): [q, g, R] -> [0, inf),
        # unbounded, [MIN_RATE, line rate].
        n = self.n
        self._lower = np.concatenate(
            [[0.0], np.full(n, -np.inf), np.full(n, MIN_RATE)])
        self._upper = np.concatenate(
            [[np.inf], np.full(n, np.inf),
             np.full(n, float(self.line_rate))])

    # -- state vector layout -------------------------------------------------

    @property
    def queue_index(self) -> int:
        """Column index of the queue in the state vector."""
        return 0

    def gradient_slice(self) -> slice:
        """Columns holding the per-flow RTT gradients ``g_i``."""
        return self._gradient_sl

    def rate_slice(self) -> slice:
        """Columns holding the per-flow rates ``R_i``."""
        return self._rate_sl

    def initial_state(self) -> np.ndarray:
        state = np.empty(1 + 2 * self.n)
        state[self.queue_index] = self._initial_queue
        state[self.gradient_slice()] = 0.0
        state[self.rate_slice()] = self._initial_rates
        return state

    def state_labels(self) -> List[str]:
        labels = ["q"]
        labels += [f"g[{i}]" for i in range(self.n)]
        labels += [f"r[{i}]" for i in range(self.n)]
        return labels

    # -- dynamics ------------------------------------------------------------

    def update_intervals(self, rates: np.ndarray) -> np.ndarray:
        """Eq. 23: ``tau*_i = max(Seg / R_i, D_minRTT)`` per flow."""
        tau_star = np.maximum(rates, MIN_RATE)
        np.divide(self.params.segment, tau_star, out=tau_star)
        np.maximum(tau_star, self.params.min_rtt, out=tau_star)
        return tau_star

    def feedback_delay(self, queue: float, t: float) -> float:
        """Eq. 24: ``tau' = q/C + MTU/C + D_prop`` plus any jitter."""
        p = self.params
        base = queue / p.capacity + self.mtu_packets / p.capacity \
            + p.prop_delay
        return base + self.feedback_jitter(t)

    def rate_derivative(self, delayed_queue: float, gradients: np.ndarray,
                        rates: np.ndarray,
                        tau_star: np.ndarray) -> np.ndarray:
        """Eq. 21 following Algorithm 1's branch precedence."""
        p = self.params
        if delayed_queue < p.q_low:
            return self.params.delta / tau_star
        if delayed_queue > p.q_high:
            scale = 1.0 - p.q_high / delayed_queue
            return -(p.beta / tau_star) * scale * rates
        increase = self.params.delta / tau_star
        decrease = -(gradients * p.beta / tau_star) * rates
        if self.gradient_zero_increases:
            decreasing = gradients > 0.0
        else:
            decreasing = gradients >= 0.0
        return np.where(decreasing, decrease, increase)

    #: Algorithm 1 semantics (``g <= 0`` -> additive increase).  Set to
    #: False for the Eq. 28 variant (``g >= 0`` -> decrease).
    gradient_zero_increases: bool = True

    def active_flows(self, t: float) -> np.ndarray:
        """Boolean mask of flows whose start time has passed."""
        return t >= self.start_times

    def derivatives(self, t: float, state: np.ndarray,
                    history: UniformHistory) -> np.ndarray:
        # As in DCQCNFluidModel.derivatives: terms are built in place
        # with each element's operation order kept (bit-identical to
        # the direct transcription of Eqs. 20-24).
        p = self.params
        queue = state.item(self.queue_index)
        gradients = state[self._gradient_sl]
        rates = state[self._rate_sl]

        tau_star = self.update_intervals(rates)
        tau_fb = self.feedback_delay(queue, t)
        component = history.component
        delayed_queue = component(t - tau_fb, 0)

        # Eq. 20: queue integrates the rate excess of the *active*
        # flows, and cannot go negative.
        if self._always_active:
            active = None
            dq = float(_add_reduce(rates)) - p.capacity
        else:
            active = self.active_flows(t)
            dq = float(_add_reduce(rates[active])) - p.capacity
        if queue <= 0.0 and dq < 0.0:
            dq = 0.0
        out = np.empty_like(state)
        out[self.queue_index] = dq

        # Eq. 22: EWMA'd normalized difference of two successive
        # (delayed) queue observations, one update interval apart.
        base = t - tau_fb
        older = np.array([component(base - interval, 0)
                          for interval in tau_star.tolist()])
        dg = out[self._gradient_sl]
        np.subtract(delayed_queue, older, out=dg)
        dg /= p.capacity * p.min_rtt
        dg -= gradients
        dg *= p.ewma_alpha / tau_star

        out[self._rate_sl] = self.rate_derivative(
            delayed_queue, gradients, rates, tau_star)
        if active is not None:
            # Flows that have not started yet keep their state frozen.
            out[1:1 + 2 * self.n].reshape(2, self.n)[:, ~active] = 0.0
        return out

    def clamp(self, state: np.ndarray) -> np.ndarray:
        # Bound first, as in DCQCNFluidModel.clamp.
        np.maximum(self._lower, state, out=state)
        np.minimum(self._upper, state, out=state)
        return state


class ModifiedTimelyFluidModel(TimelyFluidModel):
    """The Eq. 28 variant: ``g >= 0`` decreases (Theorem 4's system).

    Identical trajectories in practice; exists so the fixed-point
    analysis (none vs. infinitely many) can target the exact system the
    corresponding theorem describes.
    """

    gradient_zero_increases = False
