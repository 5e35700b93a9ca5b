"""DCQCN fluid model -- Figure 1 / Equations 3-7 of the paper.

The model tracks, for each of ``N`` flows, the DCTCP-style reduction
factor ``alpha``, the target rate ``R_T`` and the current rate ``R_C``,
plus the shared bottleneck queue ``q``.  All rate-update terms are
driven by state delayed by the control-loop latency ``tau*``: the
marking probability ``p(t - tau*)`` (computed from the delayed queue via
the RED profile, Eq. 3) and the delayed rate ``R_C(t - tau*)``.

The QCN-style event-rate algebra (the paper's ``a, b, c, d, e`` factors
from Eq. 12) is implemented in :func:`qcn_event_rates` with numerically
safe limits:

* byte-counter events fire at rate ``R*b -> R/B`` as ``p -> 0``;
* timer events fire at rate ``R*d -> 1/T`` as ``p -> 0``;
* events past the ``F`` fast-recovery stages carry the extra
  ``(1-p)^{F B}`` / ``(1-p)^{F T R}`` survival factors (``c``, ``e``).

Every rate-increase event performs the QCN averaging step
``R_C <- (R_C + R_T)/2`` (hence the ``(R_T - R_C)/2`` terms in Eq. 7),
and only post-fast-recovery events add ``R_AI`` to the target rate
(Eq. 6).

With ``pi=PIParams`` the switch marks with the Eq. 32 PI controller
instead of RED (Section 5.2, Fig. 18); the marking probability joins
the state.  Its host-side counterpart, where each TIMELY sender runs
its own PI controller, is ``TimelyFluidModel(..., pi=...)``
(:mod:`repro.core.fluid.timely`).
"""

from __future__ import annotations

import copy
import math
from typing import Callable, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.core.fluid.base import (FluidModel, flow_sum, per_flow,
                                   require_at_least)
from repro.core.fluid.history import UniformHistory
from repro.core.fluid.jitter import no_jitter
from repro.core.params import DCQCNParams, PIParams

#: Floor on flow rates (packets/s) to keep the event-rate algebra finite.
MIN_RATE = 1.0

#: Marking probabilities are clamped below 1 so ``log1p(-p)`` stays finite.
_P_CEIL = 1.0 - 1e-12

#: ``np.sum`` without its Python wrapper; the same pairwise summation.
_add_reduce = np.add.reduce

#: numpy's scalar kernels: Python's ``math`` differs in the last ulp.
_np_expm1, _np_log1p, _np_exp = np.expm1, np.log1p, np.exp


class QCNEventRates(NamedTuple):
    """Per-flow event rates derived from the paper's a-e factors.

    Attributes
    ----------
    mark_fraction:
        ``a = 1 - (1-p)^{tau R}``: probability that at least one packet
        is marked in a CNP window, i.e. the fraction of windows that
        deliver a CNP.
    byte_rate:
        Rate of byte-counter expirations, ``R * b`` (events/s).
    byte_ai_rate:
        Byte-counter expirations past fast recovery, ``R * c``.
    timer_rate:
        Rate of timer expirations, ``R * d`` (events/s).
    timer_ai_rate:
        Timer expirations past fast recovery, ``R * e``.
    """

    mark_fraction: np.ndarray
    byte_rate: np.ndarray
    byte_ai_rate: np.ndarray
    timer_rate: np.ndarray
    timer_ai_rate: np.ndarray


def qcn_event_rates(p: float, delayed_rate: np.ndarray,
                    params: DCQCNParams) -> QCNEventRates:
    """Evaluate the Eq. 12 factors as event rates for each flow.

    A byte-counter or timer event fires after an unmarked window of
    ``W`` packets (``B``, resp. ``T*R``), at rate
    ``R p / ((1-p)^{-W} - 1)``; its ``p -> 0`` limit is ``R/W``.  The
    limit is used wherever the exponent ``-W log1p(-p)`` is below
    1e-12, where ``expm1`` of it would lose the ratio.

    Parameters
    ----------
    p:
        Marking probability observed ``tau*`` ago (scalar, shared).
    delayed_rate:
        Per-flow ``R_C(t - tau*)`` in packets/s.
    params:
        DCQCN parameter set supplying ``B``, ``T``, ``F``, ``tau``.
    """
    rate = np.maximum(delayed_rate, MIN_RATE)
    if p <= 0.0:
        # No marks: no window delivers a CNP, and both counters fire
        # at their p -> 0 limits with every event past fast recovery.
        byte_rate = rate / params.byte_counter
        timer_rate = np.full_like(rate, 1.0 / params.timer)
        return QCNEventRates(np.zeros_like(rate), byte_rate,
                             byte_rate.copy(), timer_rate,
                             timer_rate.copy())
    p = min(p, _P_CEIL)
    log_keep = np.log1p(-p)  # log of one packet's no-mark probability

    mark_fraction = params.tau * rate
    mark_fraction *= log_keep
    np.expm1(mark_fraction, out=mark_fraction)
    np.negative(mark_fraction, out=mark_fraction)

    p_rate = p * rate
    # The byte-counter window B is the same for every flow, so its
    # exponent is one scalar; the timer window T*R is per flow.
    byte_exponent = -params.byte_counter * log_keep
    timer_exponent = params.timer * rate
    timer_exponent *= -log_keep
    # Rates are floored at MIN_RATE and rounding is monotone, so no
    # flow's timer exponent is below the MIN_RATE flow's: the per-flow
    # p -> 0 test is needed only when that bound is tiny.
    some_timer_tiny = params.timer * MIN_RATE * -log_keep < 1e-12
    with np.errstate(over="ignore"):
        # Overflow to +inf is the intended limit: a huge inter-event
        # exponent means the event (an unmarked window of that many
        # packets) essentially never happens, so the rate is ~0.
        if byte_exponent < 1e-12:
            byte_rate = rate / params.byte_counter
        else:
            byte_rate = p_rate / np.expm1(byte_exponent)
        if some_timer_tiny:
            tiny = timer_exponent < 1e-12
            kept = ~tiny
            timer_rate = np.full_like(rate, 1.0 / params.timer)
            timer_rate[kept] = p_rate[kept] / np.expm1(
                timer_exponent[kept])
        else:
            timer_rate = p_rate / np.expm1(timer_exponent)
    # Survival past fast recovery, (1-p)^{F B} and (1-p)^{F T R}, in
    # exp/log form (the counts are huge), sharing the one log1p(-p).
    f_steps = float(params.fast_recovery_steps)
    byte_ai_rate = byte_rate * np.exp(
        f_steps * params.byte_counter * log_keep)
    timer_ai_rate = timer_rate * np.exp(
        f_steps * params.timer * rate * log_keep)

    return QCNEventRates(mark_fraction, byte_rate, byte_ai_rate,
                         timer_rate, timer_ai_rate)


def _expm1(exponent: float) -> float:
    """numpy's ``expm1`` of a positive event-window exponent.

    Above 709 it may overflow to +inf, the intended limit (an unmarked
    window of that many packets essentially never happens, so the event
    rate is ~0); only there is the overflow warning silenced.  Above
    710, where ``e^x`` exceeds the largest float by more than a fifth,
    every implementation returns +inf, so the call is skipped.
    """
    if exponent > 709.0:
        if exponent > 710.0:
            return math.inf
        with np.errstate(over="ignore"):
            return float(_np_expm1(exponent))
    return float(_np_expm1(exponent))


def flow_event_rates(p: float, rates: Sequence[float], params: DCQCNParams
                     ) -> List[Tuple[float, float, float, float, float,
                                     float]]:
    """:func:`qcn_event_rates` on Python floats, one tuple per flow.

    Each tuple is ``(mark_fraction, byte_rate, byte_ai_rate,
    timer_rate, timer_ai_rate, alpha_target)``.  The first five equal
    the matching elements of :func:`qcn_event_rates` bit for bit: the
    same per-element operations in the same order, with numpy's scalar
    ``log1p``, ``expm1`` and ``exp``.  ``alpha_target`` is Eq. 5's
    marked fraction of a ``tau'``-long CNP window,
    ``1 - (1-p)^{tau' R}``, sharing the one ``log1p(-p)``.  The
    byte-counter factors are the same for every flow, so they are
    computed once.
    """
    out = []
    inv_timer = 1.0 / params.timer
    if p <= 0.0:
        # No marks: the p -> 0 limits, every event past fast recovery.
        for rate in rates:
            if rate < MIN_RATE:
                rate = MIN_RATE
            byte_rate = rate / params.byte_counter
            out.append((0.0, byte_rate, byte_rate, inv_timer, inv_timer,
                        0.0))
        return out
    ceiled = min(p, _P_CEIL)
    log_keep = float(_np_log1p(-ceiled))
    tau, tau_prime = params.tau, params.tau_prime
    window, timer = params.byte_counter, params.timer
    f_steps = float(params.fast_recovery_steps)
    byte_exponent = -window * log_keep
    byte_tiny = byte_exponent < 1e-12
    if not byte_tiny:
        byte_expm1 = _expm1(byte_exponent)
    byte_survival = float(_np_exp(f_steps * window * log_keep))
    timer_steps = f_steps * timer
    for rate in rates:
        if rate < MIN_RATE:
            rate = MIN_RATE
        p_rate = ceiled * rate
        if byte_tiny:
            byte_rate = rate / window
        else:
            byte_rate = p_rate / byte_expm1
        timer_exponent = timer * rate * -log_keep
        if timer_exponent < 1e-12:
            timer_rate = inv_timer
        else:
            timer_rate = p_rate / _expm1(timer_exponent)
        out.append((
            -float(_np_expm1(tau * rate * log_keep)),
            byte_rate, byte_rate * byte_survival,
            timer_rate,
            timer_rate * float(_np_exp(timer_steps * rate * log_keep)),
            -float(_np_expm1(tau_prime * rate * log_keep))))
    return out


class DCQCNFluidModel(FluidModel):
    """The Fig. 1 delay-ODE system for ``N`` individually-tracked flows.

    State layout: ``[q, alpha_1..alpha_N, rt_1..rt_N, rc_1..rc_N]``,
    plus ``p_mark`` with ``pi``.

    Parameters
    ----------
    params:
        DCQCN configuration (capacity, RED profile, timers...).
    initial_rates:
        Optional per-flow starting rates, packets/s.  Defaults to line
        rate for every flow -- "DCQCN flows always start at line rate"
        (Section 3.1).
    initial_queue:
        Starting queue depth, packets (default empty).
    line_rate:
        Sender NIC speed, packets/s; rates are bounded by it.  Defaults
        to the bottleneck capacity, matching the paper's single-switch
        validation topology.
    marking_delay:
        Extra delay (seconds) between the queue and the marking
        decision.  Zero reproduces egress marking, where the mark
        reflects the queue at packet departure; setting it to a mean
        queuing delay emulates ingress marking (Fig. 17).  RED only.
    feedback_jitter:
        Callable ``t -> extra delay (s)`` added to the control-loop
        delay ``tau*`` -- the Fig. 20 experiment.  For ECN the jitter
        only makes the (still correct) mark arrive later.
    extend_red:
        Use the smooth-RED idealization: the marking ramp continues
        past ``pmax`` (clipped at 1) instead of jumping to 1 at
        ``kmax``.  Configurations whose Eq. 11 fixed point has
        ``p* > pmax`` (large N) sit exactly on the physical profile's
        cliff and chatter against it regardless of delay; the paper's
        fluid stability results (Fig. 4) presume the smooth profile
        the linearized analysis uses.  RED only.
    start_times:
        Per-flow activation times, seconds.  Before its start a flow
        contributes nothing to the queue and its state is frozen; at
        activation it enters at its configured initial rate (line
        rate by default -- how DCQCN flows arrive).
    pi:
        Mark with the Eq. 32 PI controller instead of RED (Section
        5.2, Fig. 18).  The marking probability becomes a *shared*
        integrator state ``dp/dt = K1 de/dt + K2 e`` with
        ``e = (q - q_ref)/q_ref`` (label ``p_mark``, starting at 0,
        bounded to ``[p_min, p_max]`` with anti-windup); senders
        observe it delayed by ``tau*`` exactly as they observe RED
        marks.  Integral action pins the queue to ``q_ref`` for any N,
        while the shared ``p`` still forces all flows to the same
        rate: fairness *and* bounded delay (Theorem 6's positive side).
    """

    def __init__(self, params: DCQCNParams,
                 initial_rates: Optional[Sequence[float]] = None,
                 initial_queue: float = 0.0,
                 line_rate: Optional[float] = None,
                 marking_delay: float = 0.0,
                 feedback_jitter: Callable[[float], float] = no_jitter,
                 extend_red: bool = False,
                 start_times: Optional[Sequence[float]] = None,
                 pi: Optional[PIParams] = None):
        self.params = params
        self.n = params.num_flows
        self.line_rate = params.capacity if line_rate is None else line_rate
        require_at_least("line_rate", self.line_rate, MIN_RATE)
        if initial_rates is None:
            self._initial_rates = np.full(self.n, self.line_rate)
        else:
            rates = per_flow("initial_rates", initial_rates, self.n)
            if np.any(rates <= 0):
                raise ValueError("initial rates must be positive")
            self._initial_rates = rates
        require_at_least("initial_queue", initial_queue, 0.0)
        self._initial_queue = float(initial_queue)
        require_at_least("marking_delay", marking_delay, 0.0)
        if pi is not None and (marking_delay > 0.0 or extend_red):
            raise ValueError(
                "marking_delay and extend_red shape RED marking; "
                "pi replaces it")
        self.marking_delay = float(marking_delay)
        self.feedback_jitter = feedback_jitter
        self.extend_red = extend_red
        self.pi = pi
        if start_times is None:
            self.start_times = np.zeros(self.n)
        else:
            starts = per_flow("start_times", start_times, self.n)
            if np.any(starts < 0):
                raise ValueError("start times must be >= 0")
            self.start_times = starts
        # The start-time mask matters only before the last start; never
        # when every flow starts at 0.
        self._last_start = float(np.max(self.start_times)) \
            if np.any(self.start_times > 0.0) else -np.inf
        # N copies of the one R_C, in the exchangeable core only.
        self._copies = None
        # Per-call constants, each computed as the equations group it.
        self._marking_lag = params.tau_star + self.marking_delay
        self._red_slope = params.red.slope
        self._g_rate = params.g / params.tau_prime
        self._two_tau = 2.0 * params.tau

    # -- state vector layout -------------------------------------------------

    @property
    def queue_index(self) -> int:
        """Column index of the queue in the state vector."""
        return 0

    def alpha_slice(self) -> slice:
        """Columns holding the per-flow ``alpha`` values."""
        return slice(1, 1 + self.n)

    def rt_slice(self) -> slice:
        """Columns holding the per-flow target rates ``R_T``."""
        return slice(1 + self.n, 1 + 2 * self.n)

    def rc_slice(self) -> slice:
        """Columns holding the per-flow current rates ``R_C``."""
        return slice(1 + 2 * self.n, 1 + 3 * self.n)

    @property
    def p_mark_index(self) -> int:
        """Column index of the PI marking variable (with ``pi``)."""
        return 1 + 3 * self.n

    def initial_state(self) -> np.ndarray:
        state = np.empty(len(self.state_labels()))
        state[self.queue_index] = self._initial_queue
        state[self.alpha_slice()] = 1.0  # DCQCN initializes alpha to 1
        state[self.rt_slice()] = self._initial_rates
        state[self.rc_slice()] = self._initial_rates
        if self.pi is not None:
            state[self.p_mark_index] = 0.0
        return state

    def state_labels(self) -> List[str]:
        labels = ["q"]
        labels += [f"alpha[{i}]" for i in range(self.n)]
        labels += [f"rt[{i}]" for i in range(self.n)]
        labels += [f"rc[{i}]" for i in range(self.n)]
        if self.pi is not None:
            labels.append("p_mark")
        return labels

    def bounds(self) -> Tuple[List[float], List[float]]:
        # [q, alpha, R_T, R_C, p_mark] -> [0, inf), [0, 1],
        # [MIN_RATE, line rate] twice, [p_min, p_max].
        n, line_rate = self.n, float(self.line_rate)
        lower = [0.0] + [0.0] * n + [MIN_RATE] * (2 * n)
        upper = [np.inf] + [1.0] * n + [line_rate] * (2 * n)
        if self.pi is not None:
            lower.append(self.pi.p_min)
            upper.append(self.pi.p_max)
        return lower, upper

    # -- dynamics ------------------------------------------------------------

    def marking_probability(self, t: float,
                            history: UniformHistory) -> float:
        """``p`` as seen by senders at time ``t``.

        Under RED, the marking profile of the delayed queue: with
        egress marking the mark reflects the queue ``tau*`` ago
        (propagation only); ingress-style marking adds
        ``marking_delay`` of queue staleness on top (Section 5.2).
        Under ``pi``, the PI state ``tau*`` ago, within its bounds.
        """
        # (tau* + marking_delay) + jitter; marking_delay is 0 under pi.
        lag = self._marking_lag + self.feedback_jitter(t)
        pi = self.pi
        if pi is not None:
            delayed_p = history.component(t - lag, self.p_mark_index)
            return min(max(delayed_p, pi.p_min), pi.p_max)
        delayed_queue = history.component(t - lag, self.queue_index)
        red = self.params.red
        if self.extend_red:
            return min(max((delayed_queue - red.kmin) * self._red_slope,
                           0.0), 1.0)
        return red.marking_probability(delayed_queue)

    def derivatives(self, t: float, state: List[float],
                    history: UniformHistory) -> List[float]:
        # One pass over the flows on Python floats: at these sizes
        # numpy's per-call cost, not the arithmetic, would dominate.
        # Each element keeps the operation order of the direct
        # transcription of Eqs. 4-7, 12 and 32, so the results equal it
        # bit for bit (docs/PERFORMANCE.md, "Fluid layer").
        p, n = self.params, self.n
        rc0 = 1 + 2 * n
        mark_p = self.marking_probability(t, history)
        # The delayed rate shares the (possibly jittered) feedback path:
        # the CNP describes packets sent one control-loop delay ago.
        base = t - p.tau_star - self.feedback_jitter(t)
        component = history.component
        events = flow_event_rates(
            mark_p, [component(base, rc0 + i) for i in range(n)], p)

        # Eq. 4: queue integrates the active flows' excess arrival
        # rate; it cannot drain below empty.  The exchangeable core
        # sums N copies of its one rate.
        copies = self._copies
        active = None
        if copies is not None:
            copies.fill(state[rc0])
            dq = float(_add_reduce(copies)) - p.capacity
        else:
            rates = state[rc0:rc0 + n]
            if t < self._last_start:
                active = [t >= start for start in self.start_times.tolist()]
                rates = [rate for rate, on in zip(rates, active) if on]
            dq = flow_sum(rates) - p.capacity
        queue = state[0]
        if queue <= 0.0 and dq < 0.0:
            dq = 0.0

        tau, rate_ai = p.tau, p.rate_ai
        g_rate, two_tau = self._g_rate, self._two_tau
        dalpha, drt, drc = [], [], []
        for i, (mark_fraction, byte_rate, byte_ai_rate, timer_rate,
                timer_ai_rate, alpha_target) in enumerate(events):
            if active is not None and not active[i]:
                # Flows that have not started yet keep their state
                # frozen.
                dalpha.append(0.0)
                drt.append(0.0)
                drc.append(0.0)
                continue
            alpha, rt, rc = state[1 + i], state[1 + n + i], state[rc0 + i]
            # Eq. 5: alpha chases the delayed marked-window fraction for
            # the tau'-long CNP observation window.
            dalpha.append((alpha_target - alpha) * g_rate)
            # Eq. 6: target rate forgets toward R_C on CNPs, gains R_AI
            # on post-fast-recovery byte/timer events.
            gap = rt - rc
            drt.append(-gap / tau * mark_fraction
                       + (byte_ai_rate + timer_ai_rate) * rate_ai)
            # Eq. 7: multiplicative decrease on CNPs plus the QCN
            # averaging (R_C + R_T)/2 on every byte/timer event.
            drc.append(-(rc * alpha) / two_tau * mark_fraction
                       + (byte_rate + timer_rate) * (gap / 2.0))
        out = [dq, *dalpha, *drt, *drc]

        pi = self.pi
        if pi is not None:
            # Eq. 32 at the switch.  Error and its slope are normalized
            # by q_ref so PI gains carry the same meaning (fraction of p
            # per second) across models.
            error = (queue - pi.q_ref) / pi.q_ref
            dp = pi.k1 * dq / pi.q_ref + pi.k2 * error
            # Anti-windup: freeze the integrator when pushing past a
            # bound.
            p_mark = state[rc0 + n]
            if (p_mark <= pi.p_min and dp < 0) or \
                    (p_mark >= pi.p_max and dp > 0):
                dp = 0.0
            out.append(dp)
        return out

    def reduced(self, initial: np.ndarray
                ) -> "Optional[Tuple[FluidModel, np.ndarray, np.ndarray]]":
        """One representative flow when all ``N`` flows are exchangeable.

        Flows that start together from bitwise-equal ``alpha``, ``R_T``
        and ``R_C`` see the same shared ``p(t - tau*)`` (RED or PI) and
        apply the same per-element operations, so they stay bitwise
        equal for the whole run (Thm. 1's setting).  The core
        ``[q, alpha, R_T, R_C]`` (plus ``p_mark`` under ``pi``) is this
        model's own right-hand side and bounds at one flow; only Eq. 4's
        sum needs all ``N`` copies.  Bit patterns are compared, not
        values, so ``-0.0`` and ``0.0`` are told apart.
        """
        if self._copies is not None or self._last_start > -np.inf:
            return None
        n = self.n
        blocks = initial[1:1 + 3 * n].view(np.uint64).reshape(3, n)
        if not np.all(blocks == blocks[:, :1]):
            return None
        core = copy.copy(self)
        core.n = 1
        core._copies = np.empty(n)
        keep = [0, 1, 1 + n, 1 + 2 * n]
        counts = [1, n, n, n]
        if self.pi is not None:
            keep.append(1 + 3 * n)
            counts.append(1)
        columns = np.repeat(np.arange(len(keep)), counts)
        return core, initial[keep], columns
