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
"""

from __future__ import annotations

from typing import Callable, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.core.fluid.base import (FluidModel, require_at_least,
                                   require_finite)
from repro.core.fluid.history import UniformHistory
from repro.core.fluid.jitter import no_jitter
from repro.core.params import DCQCNParams

#: Floor on flow rates (packets/s) to keep the event-rate algebra finite.
MIN_RATE = 1.0

#: Marking probabilities are clamped below 1 so ``log1p(-p)`` stays finite.
_P_CEIL = 1.0 - 1e-12

#: ``np.sum`` without its Python wrapper; the same pairwise summation.
_add_reduce = np.add.reduce


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


def survival_exponent(p: float, count: "np.ndarray | float") -> np.ndarray:
    """``(1-p)^count`` computed stably for large counts.

    ``count`` is a number of packets (possibly huge, e.g. ``F*B`` with a
    10 MB byte counter); the direct power underflows gracefully via the
    exp/log form.
    """
    if p <= 0.0:
        return np.ones_like(np.asarray(count, dtype=float))
    p = min(p, _P_CEIL)
    return np.exp(np.asarray(count, dtype=float) * np.log1p(-p))


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
    # Survival past fast recovery, (1-p)^{F B} and (1-p)^{F T R}: the
    # exp/log form of survival_exponent, sharing its log1p(-p).
    f_steps = float(params.fast_recovery_steps)
    byte_ai_rate = byte_rate * np.exp(
        f_steps * params.byte_counter * log_keep)
    timer_ai_rate = timer_rate * np.exp(
        f_steps * params.timer * rate * log_keep)

    return QCNEventRates(mark_fraction, byte_rate, byte_ai_rate,
                         timer_rate, timer_ai_rate)


class DCQCNFluidModel(FluidModel):
    """The Fig. 1 delay-ODE system for ``N`` individually-tracked flows.

    State layout: ``[q, alpha_1..alpha_N, rt_1..rt_N, rc_1..rc_N]``.

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
        Sender NIC speed, packets/s; rates are clamped to it.  Defaults
        to the bottleneck capacity, matching the paper's single-switch
        validation topology.
    marking_delay:
        Extra delay (seconds) between the queue and the marking
        decision.  Zero reproduces egress marking, where the mark
        reflects the queue at packet departure; setting it to a mean
        queuing delay emulates ingress marking (Fig. 17).
    feedback_jitter:
        Callable ``t -> extra delay (s)`` added to the control-loop
        delay ``tau*`` -- the Fig. 20 experiment.  For ECN the jitter
        only makes the (still correct) mark arrive later.
    start_times:
        Per-flow activation times, seconds.  Before its start a flow
        contributes nothing to the queue and its state is frozen; at
        activation it enters at its configured initial rate (line
        rate by default -- how DCQCN flows arrive).
    extend_red:
        Use the smooth-RED idealization: the marking ramp continues
        past ``pmax`` (clipped at 1) instead of jumping to 1 at
        ``kmax``.  Configurations whose Eq. 11 fixed point has
        ``p* > pmax`` (large N) sit exactly on the physical profile's
        cliff and chatter against it regardless of delay; the paper's
        fluid stability results (Fig. 4) presume the smooth profile
        the linearized analysis uses.
    """

    def __init__(self, params: DCQCNParams,
                 initial_rates: Optional[Sequence[float]] = None,
                 initial_queue: float = 0.0,
                 line_rate: Optional[float] = None,
                 marking_delay: float = 0.0,
                 feedback_jitter: Callable[[float], float] = no_jitter,
                 extend_red: bool = False,
                 start_times: Optional[Sequence[float]] = None):
        self.params = params
        self.n = params.num_flows
        self.line_rate = params.capacity if line_rate is None else line_rate
        require_at_least("line_rate", self.line_rate, MIN_RATE)
        if initial_rates is None:
            self._initial_rates = np.full(self.n, self.line_rate)
        else:
            rates = np.asarray(initial_rates, dtype=float)
            if rates.shape != (self.n,):
                raise ValueError(
                    f"initial_rates must have shape ({self.n},), "
                    f"got {rates.shape}")
            require_finite("initial_rates", rates)
            if np.any(rates <= 0):
                raise ValueError("initial rates must be positive")
            self._initial_rates = rates
        require_at_least("initial_queue", initial_queue, 0.0)
        self._initial_queue = float(initial_queue)
        require_at_least("marking_delay", marking_delay, 0.0)
        self.marking_delay = float(marking_delay)
        self.feedback_jitter = feedback_jitter
        self.extend_red = extend_red
        if start_times is None:
            self.start_times = np.zeros(self.n)
        else:
            starts = np.asarray(start_times, dtype=float)
            if starts.shape != (self.n,):
                raise ValueError(
                    f"start_times must have shape ({self.n},), "
                    f"got {starts.shape}")
            require_finite("start_times", starts)
            if np.any(starts < 0):
                raise ValueError("start times must be >= 0")
            self.start_times = starts
        # The slices and the all-flows-active flag are consulted on
        # every derivative evaluation (four per RK4 step); build them
        # once here instead of re-deriving them per call.
        self._alpha_sl = slice(1, 1 + self.n)
        self._rt_sl = slice(1 + self.n, 1 + 2 * self.n)
        self._rc_sl = slice(1 + 2 * self.n, 1 + 3 * self.n)
        self._always_active = not np.any(self.start_times > 0.0)
        # Per-column bounds for clamp(): [q, alpha, R_T, R_C] ->
        # [0, inf), [0, 1], [MIN_RATE, line rate], [MIN_RATE, line rate].
        n = self.n
        self._lower = np.concatenate(
            [[0.0], np.zeros(n), np.full(2 * n, MIN_RATE)])
        self._upper = np.concatenate(
            [[np.inf], np.ones(n), np.full(2 * n, float(self.line_rate))])

    # -- state vector layout -------------------------------------------------

    @property
    def queue_index(self) -> int:
        """Column index of the queue in the state vector."""
        return 0

    def alpha_slice(self) -> slice:
        """Columns holding the per-flow ``alpha`` values."""
        return self._alpha_sl

    def rt_slice(self) -> slice:
        """Columns holding the per-flow target rates ``R_T``."""
        return self._rt_sl

    def rc_slice(self) -> slice:
        """Columns holding the per-flow current rates ``R_C``."""
        return self._rc_sl

    def initial_state(self) -> np.ndarray:
        state = np.empty(1 + 3 * self.n)
        state[self.queue_index] = self._initial_queue
        state[self.alpha_slice()] = 1.0  # DCQCN initializes alpha to 1
        state[self.rt_slice()] = self._initial_rates
        state[self.rc_slice()] = self._initial_rates
        return state

    def state_labels(self) -> List[str]:
        labels = ["q"]
        labels += [f"alpha[{i}]" for i in range(self.n)]
        labels += [f"rt[{i}]" for i in range(self.n)]
        labels += [f"rc[{i}]" for i in range(self.n)]
        return labels

    # -- dynamics ------------------------------------------------------------

    def marking_probability(self, t: float,
                            history: UniformHistory) -> float:
        """``p`` as seen by senders at time ``t``: RED of the delayed queue.

        With egress marking the mark reflects the queue ``tau*`` ago
        (propagation only); ingress-style marking adds
        ``marking_delay`` of queue staleness on top (Section 5.2).
        """
        lag = (self.params.tau_star + self.marking_delay
               + self.feedback_jitter(t))
        delayed_queue = history.component(t - lag, self.queue_index)
        red = self.params.red
        if self.extend_red:
            return min(max((delayed_queue - red.kmin) * red.slope, 0.0),
                       1.0)
        return red.marking_probability(delayed_queue)

    def derivatives(self, t: float, state: np.ndarray,
                    history: UniformHistory) -> np.ndarray:
        # Per-flow arrays are short (N is 2-64 in the paper's runs), so
        # numpy's per-call cost, not arithmetic, dominates: each term
        # is built in place, in the output where it can be, with every
        # element's operation order kept (so results are bit-identical
        # to the direct transcription of Eqs. 4-7).
        p = self.params
        alpha = state[self._alpha_sl]
        rt = state[self._rt_sl]
        rc = state[self._rc_sl]

        mark_p = self.marking_probability(t, history)
        # The delayed rate shares the (possibly jittered) feedback path:
        # the CNP describes packets sent one control-loop delay ago.
        # Only the R_C block of the delayed state is needed, so the
        # interpolation is restricted to those columns.
        delayed_rc = np.maximum(history.interpolate(
            t - p.tau_star - self.feedback_jitter(t), self._rc_sl),
            MIN_RATE)

        events = qcn_event_rates(mark_p, delayed_rc, p)

        # Eq. 4: queue integrates the active flows' excess arrival
        # rate; it cannot drain below empty.
        if self._always_active:
            active = None
            dq = float(_add_reduce(rc)) - p.capacity
        else:
            active = t >= self.start_times
            dq = float(_add_reduce(rc[active])) - p.capacity
        if state[self.queue_index] <= 0.0 and dq < 0.0:
            dq = 0.0
        out = np.empty_like(state)
        out[self.queue_index] = dq

        # Eq. 5: alpha chases the delayed marked-window fraction for the
        # tau'-long CNP observation window.
        dalpha = out[self._alpha_sl]
        if mark_p > 0.0:
            np.multiply(p.tau_prime, delayed_rc, out=dalpha)
            dalpha *= np.log1p(-min(mark_p, _P_CEIL))
            np.expm1(dalpha, out=dalpha)
            np.negative(dalpha, out=dalpha)
            dalpha -= alpha
        else:
            np.subtract(0.0, alpha, out=dalpha)
        dalpha *= p.g / p.tau_prime

        # Eq. 6: target rate forgets toward R_C on CNPs, gains R_AI on
        # post-fast-recovery byte/timer events.
        gap = rt - rc
        drt = out[self._rt_sl]
        np.negative(gap, out=drt)
        drt /= p.tau
        drt *= events.mark_fraction
        ai_events = events.byte_ai_rate + events.timer_ai_rate
        ai_events *= p.rate_ai
        drt += ai_events

        # Eq. 7: multiplicative decrease on CNPs plus the QCN averaging
        # (R_C + R_T)/2 on every byte/timer event.
        drc = out[self._rc_sl]
        np.multiply(rc, alpha, out=drc)
        np.negative(drc, out=drc)
        drc /= 2.0 * p.tau
        drc *= events.mark_fraction
        averaging = events.byte_rate + events.timer_rate
        gap /= 2.0
        averaging *= gap
        drc += averaging

        if active is not None:
            # Flows that have not started yet keep their state frozen.
            out[1:1 + 3 * self.n].reshape(3, self.n)[:, ~active] = 0.0
        return out

    def clamp(self, state: np.ndarray) -> np.ndarray:
        # Bound first: the operand order whose result matches the
        # np.clip this replaces, down to the sign of a zero.
        np.maximum(self._lower, state, out=state)
        np.minimum(self._upper, state, out=state)
        return state

    def reduced(self, initial: np.ndarray
                ) -> "Optional[Tuple[FluidModel, np.ndarray, np.ndarray]]":
        """One representative flow when all ``N`` flows are exchangeable.

        Flows that start together from bitwise-equal ``alpha``, ``R_T``
        and ``R_C`` see the same shared ``p(t - tau*)`` and apply the
        same per-element operations, so they stay bitwise equal for the
        whole run (Thm. 1's setting).  The 4-state core integrates one
        of them; only Eq. 4's sum needs all ``N`` copies.  Bit patterns
        are compared, not values, so ``-0.0`` and ``0.0`` are told
        apart.  Subclasses that change the right-hand side, the
        marking or the clamp keep the N-flow path.
        """
        cls = type(self)
        if (cls.derivatives is not DCQCNFluidModel.derivatives
                or cls.marking_probability
                is not DCQCNFluidModel.marking_probability
                or cls.clamp is not DCQCNFluidModel.clamp
                or not self._always_active):
            return None
        n = self.n
        blocks = initial[1:].view(np.uint64).reshape(3, n)
        if not np.all(blocks == blocks[:, :1]):
            return None
        core_initial = initial[[0, 1, 1 + n, 1 + 2 * n]]
        columns = np.repeat(np.arange(4), [1, n, n, n])
        return _ExchangeableCore(self), core_initial, columns


class _ExchangeableCore(FluidModel):
    """``[q, alpha, R_T, R_C]`` of a :class:`DCQCNFluidModel` whose
    flows are exchangeable (see :meth:`DCQCNFluidModel.reduced`).

    The right-hand side is Eqs. 4-7 and 12 on Python floats, in the
    full model's per-element operation order, so every column equals
    the matching column of the N-flow integration bit for bit.  That
    takes numpy's ``log1p``, ``expm1`` and ``exp`` on scalars (Python's
    ``math`` differs in the last ulp) and the pairwise ``np.add.reduce``
    over ``N`` copies for Eq. 4 (docs/PERFORMANCE.md, "Fluid layer").
    """

    def __init__(self, model: DCQCNFluidModel):
        p = model.params
        self.model = model
        self._copies = np.empty(model.n)
        line_rate = float(model.line_rate)
        self._lower = np.array([0.0, 0.0, MIN_RATE, MIN_RATE])
        self._upper = np.array([np.inf, 1.0, line_rate, line_rate])
        f_steps = float(p.fast_recovery_steps)
        self._fb_steps = f_steps * p.byte_counter
        self._ft_steps = f_steps * p.timer
        self._inv_timer = 1.0 / p.timer
        self._g_rate = p.g / p.tau_prime
        self._two_tau = 2.0 * p.tau

    def state_labels(self) -> List[str]:
        return ["q", "alpha", "rt", "rc"]

    def derivatives(self, t: float, state: np.ndarray,
                    history: UniformHistory) -> np.ndarray:
        model = self.model
        p = model.params
        queue, alpha, rt, rc = state.tolist()

        # The same two feedback_jitter(t) calls as the N-flow model.
        mark_p = model.marking_probability(t, history)
        rate = history.component(
            t - p.tau_star - model.feedback_jitter(t), 3)
        if rate < MIN_RATE:
            rate = MIN_RATE

        # qcn_event_rates for one flow; its log1p(-p) is shared with
        # the alpha target below, as the N-flow model shares it.
        if mark_p <= 0.0:
            mark_fraction = 0.0
            byte_rate = byte_ai_rate = rate / p.byte_counter
            timer_rate = timer_ai_rate = self._inv_timer
            dalpha = (0.0 - alpha) * self._g_rate
        else:
            ceiled = min(mark_p, _P_CEIL)
            log_keep = float(np.log1p(-ceiled))
            mark_fraction = -float(np.expm1(p.tau * rate * log_keep))
            p_rate = ceiled * rate
            byte_exponent = -p.byte_counter * log_keep
            timer_exponent = p.timer * rate * -log_keep
            with np.errstate(over="ignore"):
                if byte_exponent < 1e-12:
                    byte_rate = rate / p.byte_counter
                else:
                    byte_rate = p_rate / float(np.expm1(byte_exponent))
                if timer_exponent < 1e-12:
                    timer_rate = self._inv_timer
                else:
                    timer_rate = p_rate / float(np.expm1(timer_exponent))
            byte_ai_rate = byte_rate * float(np.exp(
                self._fb_steps * log_keep))
            timer_ai_rate = timer_rate * float(np.exp(
                self._ft_steps * rate * log_keep))
            dalpha = ((-float(np.expm1(p.tau_prime * rate * log_keep))
                       - alpha) * self._g_rate)

        # Eq. 4 sums N equal rates in numpy's pairwise order.
        copies = self._copies
        copies.fill(rc)
        dq = float(_add_reduce(copies)) - p.capacity
        if queue <= 0.0 and dq < 0.0:
            dq = 0.0
        gap = rt - rc
        drt = -gap / p.tau * mark_fraction + (
            (byte_ai_rate + timer_ai_rate) * p.rate_ai)
        drc = -(rc * alpha) / self._two_tau * mark_fraction + (
            (byte_rate + timer_rate) * (gap / 2.0))
        return np.array([dq, dalpha, drt, drc])

    # The N-flow clamp, against this core's 4-column bound vectors.
    clamp = DCQCNFluidModel.clamp
