"""TIMELY fluid models -- Figure 7 / Equations 20-24, 28-30 and 32.

State layout for ``N`` flows: ``[q, g_1..g_N, r_1..r_N]`` where ``g`` is
the (normalized, EWMA-filtered) RTT gradient and ``r`` the sending
rate; the host-side PI variant appends ``[p_1..p_N]``.

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

The paper's five TIMELY systems share all of the above and differ only
in the in-band rate law and its feedback term.  Here they are data of
one :class:`TimelyFluidModel`, fixed at construction:

* ``TimelyParams``: Algorithm 1 / Eq. 21 (``g <= 0`` increases --
  Theorem 3: no fixed point at all), or with
  ``gradient_zero_increases=False`` the Eq. 28 modification (``g >= 0``
  decreases -- Theorem 4: infinitely many fixed points).  The fluid
  trajectories of the two are indistinguishable in practice (an
  exactly zero gradient has measure zero); both are provided because
  the paper's fixed-point taxonomy hinges on the distinction.
* ``PatchedTimelyParams``: Section 4.3's Algorithm 2 / Eqs. 29-30.  In
  the gradient band the decrease is driven by the *absolute* queue
  excess ``e = (q - q')/q'`` over ``q' = C * T_low`` instead of by the
  gradient, giving every flow shared knowledge of the bottleneck queue
  -- this collapses Theorem 4's infinite fixed-point family into
  Theorem 5's unique point (Eq. 31) -- and the hard ``g`` switch
  becomes the continuous weight ``w(g)`` (Eq. 30).
* ``PatchedTimelyParams`` with ``pi=PIParams``: Section 5.2 / Fig. 19.
  Each *host* integrates its own delay error (Eq. 32) into an internal
  variable ``p_i`` that replaces ``e``.  The queue is pinned to the
  reference, but the per-host integrators retain whatever asymmetry
  their histories accumulated: bounded delay *without* fairness, the
  underdetermined system of Theorem 6's proof (``N+1`` equations,
  ``2N`` unknowns).
* ``TimelyParams`` with ``noise_amplitude > 0``: Section 4.2's
  burst-pacing conjecture -- per-burst pacing "introduces enough
  'noise' to de-correlate the flows", which the paper could not prove.
  Independent zero-mean per-flow noise enters each flow's RTT
  *measurement*, exactly what colliding bursts do to real RTT samples,
  and so the sampled queue difference of Eq. 22.  ``ext_noise`` shows
  the 7/3 Gbps asymmetry that persists without noise random-walking
  toward the fair share with it: evidence for, not a proof of, the
  conjecture.
"""

from __future__ import annotations

import copy
from typing import Callable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.fluid.base import (FluidModel, flow_sum, per_flow,
                                   require_at_least)
from repro.core.fluid.history import UniformHistory
from repro.core.fluid.jitter import JitterProcess, no_jitter
from repro.core.params import PatchedTimelyParams, PIParams, TimelyParams

#: Floor on flow rates (packets/s); keeps ``Seg / R`` finite.
MIN_RATE = 1.0

#: ``np.sum`` without its Python wrapper; the same pairwise summation.
_add_reduce = np.add.reduce


class TimelyFluidModel(FluidModel):
    """The Fig. 7 delay-ODE system for ``N`` individually-tracked flows.

    Parameters
    ----------
    params:
        TIMELY configuration.  A :class:`TimelyParams` selects Eq. 21
        (or Eq. 28); a :class:`PatchedTimelyParams`, whose embedded
        base carries the Section 4.3 overrides (``beta = 0.008``,
        ``Seg = 16KB``), selects Eqs. 29-30.
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
    gradient_zero_increases:
        Algorithm 1 semantics (``g <= 0`` -> additive increase).  False
        selects the Eq. 28 variant (``g >= 0`` -> decrease).
        ``TimelyParams`` only.
    pi:
        Host-side PI gains (Eq. 32) whose per-flow state ``p_i``
        (labels ``p[i]``) replaces the queue error of Eq. 29.
        ``PatchedTimelyParams`` only.
    initial_p:
        Per-flow starting ``p_i`` (default 0); needs ``pi``.
    noise_amplitude:
        Half-width of the zero-mean uniform RTT measurement noise, in
        packets of apparent queue (a colliding Seg-sized burst perturbs
        the sampled RTT by up to ~Seg packets of queueing).  0 means
        no noise.  ``TimelyParams`` only.
    noise_interval:
        How often each flow's noise re-draws, seconds -- roughly one
        RTT sample period.
    noise_seed:
        Base seed; flow ``i`` draws from its own stream ``seed + i``.
    """

    def __init__(self, params: Union[TimelyParams, PatchedTimelyParams],
                 initial_rates: Optional[Sequence[float]] = None,
                 initial_queue: float = 0.0,
                 line_rate: Optional[float] = None,
                 feedback_jitter: Callable[[float], float] = no_jitter,
                 mtu_packets: float = 1.0,
                 start_times: Optional[Sequence[float]] = None,
                 gradient_zero_increases: bool = True,
                 pi: Optional[PIParams] = None,
                 initial_p: Optional[Sequence[float]] = None,
                 noise_amplitude: float = 0.0,
                 noise_interval: float = 30e-6,
                 noise_seed: int = 0):
        require_at_least("noise_amplitude", noise_amplitude, 0.0)
        require_at_least("noise_interval", noise_interval, 0.0, strict=True)
        # Exactly the paper's five systems are reachable.
        if isinstance(params, PatchedTimelyParams):
            if not gradient_zero_increases or noise_amplitude > 0:
                raise ValueError(
                    "gradient_zero_increases=False and noise_amplitude "
                    "need TimelyParams, not PatchedTimelyParams")
            self.patched = params
            params = params.base
        else:
            if pi is not None:
                raise ValueError("pi needs PatchedTimelyParams")
            self.patched = None
        if initial_p is not None and pi is None:
            raise ValueError("initial_p needs pi")
        self.params = params
        self.n = params.num_flows
        self.gradient_zero_increases = bool(gradient_zero_increases)
        self.pi = pi
        self.line_rate = params.capacity if line_rate is None else line_rate
        require_at_least("line_rate", self.line_rate, MIN_RATE)
        require_at_least("mtu_packets", mtu_packets, 0.0, strict=True)
        if initial_rates is None:
            self._initial_rates = np.full(self.n, params.fair_share)
        else:
            rates = per_flow("initial_rates", initial_rates, self.n)
            if np.any(rates <= 0):
                raise ValueError("initial rates must be positive")
            self._initial_rates = rates
        require_at_least("initial_queue", initial_queue, 0.0)
        self._initial_queue = float(initial_queue)
        self.feedback_jitter = feedback_jitter
        self.mtu_packets = float(mtu_packets)
        if start_times is None:
            self.start_times = np.zeros(self.n)
        else:
            starts = per_flow("start_times", start_times, self.n)
            if np.any(starts < 0):
                raise ValueError("start times must be >= 0")
            self.start_times = starts
        self._initial_p = np.zeros(self.n) if initial_p is None \
            else per_flow("initial_p", initial_p, self.n)
        # The T_high brake: base beta, but the gentle band gain under
        # PI -- an 0.8-strength cut fighting the integral controller
        # produces a crash/ramp limit cycle that buries the fairness
        # question Fig. 19 isolates.
        self._brake_beta = params.beta if pi is None \
            else self.patched.beta_band
        self.noise_amplitude = float(noise_amplitude)
        # Uniform[0, 2A] shifted to zero-mean Uniform[-A, A].
        self._noise = None if noise_amplitude == 0 else [
            JitterProcess(2.0 * self.noise_amplitude,
                          resample_interval=noise_interval,
                          seed=noise_seed + i)
            for i in range(self.n)]
        # The start-time mask matters only before the last start; never
        # when every flow starts at 0.
        self._last_start = float(np.max(self.start_times)) \
            if np.any(self.start_times > 0.0) else -np.inf
        # N copies of the one rate, in the exchangeable core only.
        self._copies = None

    # -- state vector layout -------------------------------------------------

    @property
    def queue_index(self) -> int:
        """Column index of the queue in the state vector."""
        return 0

    def gradient_slice(self) -> slice:
        """Columns holding the per-flow RTT gradients ``g_i``."""
        return slice(1, 1 + self.n)

    def rate_slice(self) -> slice:
        """Columns holding the per-flow rates ``R_i``."""
        return slice(1 + self.n, 1 + 2 * self.n)

    def p_slice(self) -> slice:
        """Columns holding the per-host PI variables ``p_i`` (with ``pi``)."""
        return slice(1 + 2 * self.n, 1 + 3 * self.n)

    def initial_state(self) -> np.ndarray:
        state = np.empty(len(self.state_labels()))
        state[self.queue_index] = self._initial_queue
        state[self.gradient_slice()] = 0.0
        state[self.rate_slice()] = self._initial_rates
        if self.pi is not None:
            state[self.p_slice()] = self._initial_p
        return state

    def state_labels(self) -> List[str]:
        blocks = "gr" if self.pi is None else "grp"
        return ["q"] + [f"{b}[{i}]" for b in blocks for i in range(self.n)]

    def bounds(self) -> Tuple[List[float], List[float]]:
        # [q, g, R] -> [0, inf), unbounded, [MIN_RATE, line rate].  The
        # p_i are internal variables, free to go negative: unbounded.
        n, inf = self.n, np.inf
        lower = [0.0] + [-inf] * n + [MIN_RATE] * n
        upper = [inf] + [inf] * n + [float(self.line_rate)] * n
        if self.pi is not None:
            lower += [-inf] * n
            upper += [inf] * n
        return lower, upper

    # -- dynamics ------------------------------------------------------------

    def feedback_delay(self, queue: float, t: float) -> float:
        """Eq. 24: ``tau' = q/C + MTU/C + D_prop`` plus any jitter."""
        p = self.params
        base = queue / p.capacity + self.mtu_packets / p.capacity \
            + p.prop_delay
        return base + self.feedback_jitter(t)

    def active_flows(self, t: float) -> np.ndarray:
        """Boolean mask of flows whose start time has passed."""
        return t >= self.start_times

    def measurement_noise(self, t: float) -> List[float]:
        """Zero-mean apparent-queue error per flow, packets."""
        return [process(t) - self.noise_amplitude for process in self._noise]

    def derivatives(self, t: float, state: List[float],
                    history: UniformHistory) -> List[float]:
        # One pass over the flows on Python floats: at these sizes
        # numpy's per-call cost, not the arithmetic, would dominate.
        # Each element keeps the operation order of the direct
        # transcription of Eqs. 20-24, 29-30 and 32, so the results
        # equal it bit for bit (docs/PERFORMANCE.md, "Fluid layer").
        p, n, pi, patched = self.params, self.n, self.pi, self.patched
        queue = state[0]
        base = t - self.feedback_delay(queue, t)
        component = history.component
        delayed_queue = component(base, 0)

        # Eq. 20: queue integrates the rate excess of the *active*
        # flows, and cannot go negative.  The exchangeable core sums
        # N copies of its one rate.
        copies = self._copies
        active = None
        if copies is not None:
            copies.fill(state[2])
            dq = float(_add_reduce(copies)) - p.capacity
        else:
            rates = state[1 + n:1 + 2 * n]
            if t < self._last_start:
                active = self.active_flows(t).tolist()
                rates = [rate for rate, on in zip(rates, active) if on]
            dq = flow_sum(rates) - p.capacity
        if queue <= 0.0 and dq < 0.0:
            dq = 0.0

        # What every flow shares: Algorithm 1's guards on the delayed
        # queue, and the feedback terms of Eqs. 29 and 32.
        segment, min_rtt, alpha, delta = (p.segment, p.min_rtt,
                                          p.ewma_alpha, p.delta)
        c_min_rtt = p.capacity * p.min_rtt
        below, above = delayed_queue < p.q_low, delayed_queue > p.q_high
        if above:
            scale = 1.0 - p.q_high / delayed_queue
        if patched is not None:
            two_half = 2.0 * patched.weight_slope_halfwidth
            error = (delayed_queue - patched.q_ref) / patched.q_ref
        if pi is not None:
            k2_error = pi.k2 * ((delayed_queue - pi.q_ref) / pi.q_ref)
        noise = None if self._noise is None else self.measurement_noise(t)

        dg, dr, dp = [], [], []
        for i in range(n):
            g, rate = state[1 + i], state[1 + n + i]
            # Eq. 23: tau*_i = max(Seg / R_i, D_minRTT).
            tau = segment / (MIN_RATE if rate < MIN_RATE else rate)
            if tau < min_rtt:
                tau = min_rtt
            # Eq. 22: EWMA'd normalized difference of two successive
            # (delayed) queue observations, one update interval apart;
            # the noise perturbs the sampled difference.
            diff = delayed_queue - component(base - tau, 0)
            grad = (diff / c_min_rtt - g) * (alpha / tau)
            if noise is not None:
                grad += alpha / tau * noise[i] / c_min_rtt
            dg.append(grad)
            if pi is not None:
                # Eq. 32 at the host: dp_i/dt = K1 de/dt + K2 e on the
                # delay error seen through the feedback path (Eq. 24),
                # both normalized by the reference.  No anti-windup
                # clamp, so nothing forgets inter-host asymmetry.
                dp.append(pi.k1 * (diff / tau / pi.q_ref) + k2_error)
            # Eq. 21, 28 or 29 in Algorithm 1's branch order.
            if below:
                dr.append(delta / tau)
            elif above:
                dr.append(-(self._brake_beta / tau) * scale * rate)
            elif patched is None:
                if g > 0.0 or (g == 0.0 and not self.gradient_zero_increases):
                    dr.append(-(g * p.beta / tau) * rate)
                else:
                    dr.append(delta / tau)
            else:
                # Eq. 30's ramp from 0 to 1 over g in [-1/4, 1/4]; the
                # PI variables p_i replace Eq. 29's queue error.
                w = g / two_half + 0.5
                w = 0.0 if w < 0.0 else 1.0 if w > 1.0 else w
                e = error if pi is None else state[1 + 2 * n + i]
                dr.append(((1.0 - w) * delta
                           - w * patched.beta_band * rate * e) / tau)
        if active is not None:
            # Flows that have not started yet keep their state frozen.
            for i, on in enumerate(active):
                if not on:
                    dg[i] = dr[i] = 0.0
                    if pi is not None:
                        dp[i] = 0.0
        return [dq, *dg, *dr, *dp]

    def reduced(self, initial: np.ndarray
                ) -> "Optional[Tuple[FluidModel, np.ndarray, np.ndarray]]":
        """One representative flow when all ``N`` flows are exchangeable.

        Flows that start together from bitwise-equal ``g`` and ``R``,
        with no per-host PI state or per-flow noise, see the same
        delayed queue and apply the same per-element operations, so
        they stay bitwise equal for the whole run.  The 3-state core
        ``[q, g, R]`` is this model's own right-hand side and bounds at
        one flow; only Eq. 20's sum needs all ``N`` copies.  Bit
        patterns are compared, so ``-0.0`` and ``0.0`` are told apart.
        """
        if (self._copies is not None or self.pi is not None
                or self._noise is not None
                or np.any(self.start_times > 0.0)):
            return None
        n = self.n
        blocks = initial[1:].view(np.uint64).reshape(2, n)
        if not np.all(blocks == blocks[:, :1]):
            return None
        core = copy.copy(self)
        core.n = 1
        core._copies = np.empty(n)
        keep = [0, 1, 1 + n]
        columns = np.repeat(np.arange(3), [1, n, n])
        return core, initial[keep], columns
