"""DCQCN endpoint protocol -- Section 3 of the paper, full RP/NP logic.

The congestion point (CP) lives in the switch (RED marking at egress,
:mod:`repro.sim.red`); this module implements:

* **NP (receiver)**: on an ECN-marked packet, send a CNP unless one was
  already sent for this flow within the CNP timer ``tau`` (50 us).
* **RP (sender)**: rate state machine per [31]:

  - on CNP: ``R_T <- R_C``, ``R_C <- R_C (1 - alpha/2)``,
    ``alpha <- (1-g) alpha + g``; byte counter, rate timer and both
    stage counters reset.
  - every ``tau'`` without a CNP: ``alpha <- (1-g) alpha``.
  - rate increase on byte-counter (every ``B`` bytes) and timer
    (every ``T``) events, QCN-style: the first ``F = 5`` stages of
    either counter are *fast recovery* (``R_C <- (R_C + R_T)/2``,
    target unchanged); past ``F`` on one counter is *additive
    increase* (``R_T += R_AI``); past ``F`` on both is *hyper
    increase* (``R_T += R_HAI``).
  - flows start at line rate (no slow start).
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.core.params import DCQCNParams
from repro.sim.engine import Simulator
from repro.sim.flows import Flow
from repro.sim.node import Host
from repro.sim.packet import Packet
from repro.sim.protocols.base import BaseReceiver, RateBasedSender


class DCQCNSender(RateBasedSender):
    """The reaction point (RP)."""

    def __init__(self, sim: Simulator, host: Host, flow: Flow,
                 params: DCQCNParams,
                 line_rate: Optional[float] = None,
                 initial_rate: Optional[float] = None,
                 cnp_timeout: Optional[float] = None):
        if cnp_timeout is not None and cnp_timeout <= 0:
            raise ValueError(
                f"cnp_timeout must be positive or None, got {cnp_timeout}")
        self.params = params
        mtu = params.mtu_bytes
        line = line_rate if line_rate is not None \
            else params.capacity * mtu
        # DCQCN flows always start at line rate (Section 3).
        initial = initial_rate if initial_rate is not None else line
        super().__init__(sim, host, flow, mtu, initial, line)
        self.alpha = 1.0
        self.target_rate = self._rate
        self._byte_counter_bytes = params.byte_counter * mtu
        self._bytes_since_event = 0.0
        self._byte_stage = 0
        self._time_stage = 0
        self._alpha_timer = None
        self._rate_timer = None
        self.cnps_received = 0
        #: Sum/max of CNP transit latencies (NP emission -> RP arrival),
        #: for the feedback-prioritization experiment.
        self.cnp_delay_sum = 0.0
        self.cnp_delay_max = 0.0
        #: Graceful degradation under lossy feedback: hardware DCQCN
        #: implementations release a flow's rate limiter outright after
        #: a long CNP-free interval ([31]'s rate-limiter timeout).
        #: When the fault injector eats the CNP stream, this prevents a
        #: flow from idling forever at a stale throttled rate.  None
        #: (the default) disables the timeout -- fault-free behaviour
        #: is untouched.
        self.cnp_timeout = cnp_timeout
        self._cnp_timeout_timer = None
        self.rate_limiter_timeouts = 0

    def start(self) -> None:
        super().start()
        self._arm_alpha_timer()
        self._arm_rate_timer()
        self._arm_cnp_timeout()

    def stop(self) -> None:
        super().stop()
        if self._alpha_timer is not None:
            self.sim.cancel(self._alpha_timer)
        if self._rate_timer is not None:
            self.sim.cancel(self._rate_timer)
        if self._cnp_timeout_timer is not None:
            self.sim.cancel(self._cnp_timeout_timer)

    # -- timers ---------------------------------------------------------------

    def _arm_alpha_timer(self) -> None:
        if self._alpha_timer is not None:
            self.sim.cancel(self._alpha_timer)
        self._alpha_timer = self.sim.schedule(self.params.tau_prime,
                                              self._alpha_decay)

    def _alpha_decay(self) -> None:
        """Eq. 2: no CNP for tau' -> alpha decays toward zero."""
        self.alpha *= (1.0 - self.params.g)
        self._arm_alpha_timer()

    def _arm_rate_timer(self) -> None:
        if self._rate_timer is not None:
            self.sim.cancel(self._rate_timer)
        self._rate_timer = self.sim.schedule(self.params.timer,
                                             self._timer_event)

    def _timer_event(self) -> None:
        self._time_stage += 1
        self._rate_increase_event()
        self._arm_rate_timer()

    def _arm_cnp_timeout(self) -> None:
        if self.cnp_timeout is None:
            return
        if self._cnp_timeout_timer is not None:
            self.sim.cancel(self._cnp_timeout_timer)
        self._cnp_timeout_timer = self.sim.schedule(
            self.cnp_timeout, self._cnp_timeout_fired)

    def _cnp_timeout_fired(self) -> None:
        """No CNP for the whole timeout: release the rate limiter.

        The flow returns to its unthrottled initial state (line rate,
        fresh alpha, counters reset); the timer re-arms only when
        feedback reappears.
        """
        self.rate_limiter_timeouts += 1
        self._cnp_timeout_timer = None
        self.alpha = 1.0
        self.target_rate = self.line_rate
        self.rate = self.line_rate
        self._bytes_since_event = 0.0
        self._byte_stage = 0
        self._time_stage = 0

    # -- RP reactions ---------------------------------------------------------

    def on_cnp(self, packet: Packet) -> None:
        """Eq. 1: multiplicative decrease plus full increase-state reset."""
        self.cnps_received += 1
        if self.ledger is not None:
            self.ledger.on_control(self.flow.flow_id, "cnp", 1,
                                   self.sim.now)
        if packet.sent_time is not None:
            delay = self.sim.now - packet.sent_time
            self.cnp_delay_sum += delay
            self.cnp_delay_max = max(self.cnp_delay_max, delay)
        self.target_rate = self._rate
        self.rate = self._rate * (1.0 - self.alpha / 2.0)
        self.alpha = (1.0 - self.params.g) * self.alpha + self.params.g
        self._bytes_since_event = 0.0
        self._byte_stage = 0
        self._time_stage = 0
        self._arm_alpha_timer()
        self._arm_rate_timer()
        self._arm_cnp_timeout()

    def on_packet_sent(self, packet: Packet) -> None:
        self._bytes_since_event += packet.size_bytes
        while self._bytes_since_event >= self._byte_counter_bytes:
            self._bytes_since_event -= self._byte_counter_bytes
            self._byte_stage += 1
            self._rate_increase_event()

    def _rate_increase_event(self) -> None:
        """QCN-style increase: fast recovery, additive, or hyper."""
        p = self.params
        f = p.fast_recovery_steps
        if self._byte_stage >= f and self._time_stage >= f:
            self.target_rate += p.rate_hai * p.mtu_bytes
        elif self._byte_stage >= f or self._time_stage >= f:
            self.target_rate += p.rate_ai * p.mtu_bytes
        # First F stages of both counters: fast recovery leaves the
        # target untouched and halves the gap.
        self.target_rate = min(self.target_rate, self.line_rate)
        self.rate = 0.5 * (self._rate + self.target_rate)


class DCQCNReceiver(BaseReceiver):
    """The notification point (NP): CNP generation, rate-limited."""

    def __init__(self, sim: Simulator, host: Host, flow: Flow,
                 params: DCQCNParams,
                 on_complete: Optional[Callable[[Flow], None]] = None):
        super().__init__(sim, host, flow, on_complete=on_complete)
        self.params = params
        self._last_cnp_time: Optional[float] = None
        self.cnps_sent = 0

    def handle_data(self, packet: Packet) -> None:
        if not packet.ecn_marked:
            return
        now = self.sim.now
        if self._last_cnp_time is not None and \
                now - self._last_cnp_time < self.params.tau:
            return
        self._last_cnp_time = now
        self.cnps_sent += 1
        self.send_control("cnp")
