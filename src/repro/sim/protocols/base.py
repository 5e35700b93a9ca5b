"""Shared machinery for rate-based sender/receiver protocol agents.

Both DCQCN and TIMELY are *rate-based*: a hardware rate limiter (or
burst scheduler) paces transmission, and control packets (CNPs, ACKs)
adjust the rate.  :class:`RateBasedSender` owns the pacing loop;
subclasses react to control packets by changing :attr:`rate`.
:class:`BaseReceiver` owns delivery accounting and flow completion.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.sim.engine import Simulator
from repro.sim.flows import Flow
from repro.sim.node import Host
from repro.sim.packet import CONTROL_PACKET_BYTES, PACKET_POOL, Packet

#: Rates below this (bytes/s) are clamped up; a zero rate would stall
#: the pacing loop forever.
MIN_RATE_BYTES_PER_S = 1e4


class RateBasedSender:
    """Paced sender: emits MTU packets with gaps set by ``rate``.

    Parameters
    ----------
    sim, host, flow:
        Infrastructure and the flow being sent.
    mtu_bytes:
        Data packet size.
    initial_rate:
        Starting rate, bytes/s.
    line_rate:
        NIC speed cap, bytes/s.

    The pacing loop recomputes the inter-packet gap from the *current*
    rate before each emission, so rate changes take effect on the next
    packet -- matching hardware rate limiters.
    """

    def __init__(self, sim: Simulator, host: Host, flow: Flow,
                 mtu_bytes: int, initial_rate: float, line_rate: float,
                 min_rate: float = MIN_RATE_BYTES_PER_S):
        if mtu_bytes <= 0:
            raise ValueError(f"mtu_bytes must be positive, got {mtu_bytes}")
        if line_rate <= 0:
            raise ValueError(f"line_rate must be positive, got {line_rate}")
        if not 0 < min_rate <= line_rate:
            raise ValueError(
                f"min_rate must be in (0, line_rate], got {min_rate}")
        self.sim = sim
        self.host = host
        self.flow = flow
        self.mtu_bytes = mtu_bytes
        self.line_rate = line_rate
        self.min_rate = min_rate
        self._rate = min(max(initial_rate, min_rate), line_rate)
        self._next_emission = None
        self._started = False
        self._finished_sending = False
        self._sequence = 0
        #: Flow-forensics ledger; installed by
        #: :func:`repro.sim.topology.install_flow` when forensics is
        #: on, None otherwise.
        self.ledger = None

    @property
    def rate(self) -> float:
        """Current sending rate, bytes/s."""
        return self._rate

    @rate.setter
    def rate(self, value: float) -> None:
        old = self._rate
        self._rate = min(max(value, self.min_rate), self.line_rate)
        # All rate transitions -- DCQCN CNP cuts and FR/AI/HAI raises,
        # TIMELY gradient updates -- funnel through this setter, so
        # one hook point covers every protocol's rate state machine.
        if self.ledger is not None and self._rate != old:
            self.ledger.on_rate_change(self.flow.flow_id, old,
                                       self._rate, self.sim.now)
        self._reschedule_emission(old)

    def _reschedule_emission(self, old_rate: float) -> None:
        """Token-bucket semantics: a rate change rescales the pending gap.

        Without this, a flow that collapsed its rate (e.g. TIMELY after
        an incast RTT spike) would keep a far-future emission scheduled
        even after later ACKs raised the rate again.
        """
        if self._rate == old_rate or self._finished_sending:
            return
        event = self._next_emission
        if event is None or event[2] is None:
            return
        remaining = event[0] - self.sim.now
        if remaining <= 0.0:
            return
        self.sim.cancel(event)
        self._next_emission = self.sim.schedule(
            remaining * old_rate / self._rate, self._pace)

    def start(self) -> None:
        """Register with the host and begin pacing at the flow start."""
        if self._started:
            raise RuntimeError(f"sender for flow {self.flow.flow_id} "
                               "already started")
        self._started = True
        self.host.register_sender(self.flow.flow_id, self)
        delay = max(self.flow.start_time - self.sim.now, 0.0)
        self._next_emission = self.sim.schedule(delay, self._pace)

    def _pace(self) -> None:
        """Emit one packet and schedule the next emission."""
        if self._finished_sending:
            return
        self._emit_packet()
        if self.flow.all_bytes_sent():
            self._finished_sending = True
            self.on_all_sent()
            return
        gap = self.mtu_bytes / self._rate
        self._next_emission = self.sim.schedule(gap, self._pace)

    def _emit_packet(self) -> None:
        remaining = None if self.flow.size_bytes is None else \
            self.flow.size_bytes - self.flow.bytes_sent
        size = self.mtu_bytes if remaining is None else \
            min(self.mtu_bytes, remaining)
        packet = PACKET_POOL.acquire(self.flow.flow_id, size,
                                     self.host.name, self.flow.dst,
                                     kind="data", seq=self._sequence)
        self._sequence += 1
        packet.sent_time = self.sim.now
        self.flow.bytes_sent += size
        self.host.send(packet)
        self.on_packet_sent(packet)

    # -- protocol hooks -------------------------------------------------------

    def on_packet_sent(self, packet: Packet) -> None:
        """Called after each data packet emission (byte counters...)."""

    def on_all_sent(self) -> None:
        """Called once the finite flow size has been fully emitted."""

    def on_ack(self, packet: Packet) -> None:
        """Called for each arriving ACK (TIMELY family)."""

    def on_cnp(self, packet: Packet) -> None:
        """Called for each arriving CNP (DCQCN)."""

    def stop(self) -> None:
        """Cancel pacing and detach from the host."""
        self._finished_sending = True
        if self._next_emission is not None:
            self.sim.cancel(self._next_emission)
        self.host.unregister_sender(self.flow.flow_id)


class BaseReceiver:
    """Delivery accounting plus flow-completion detection."""

    def __init__(self, sim: Simulator, host: Host, flow: Flow,
                 on_complete: Optional[Callable[[Flow], None]] = None):
        self.sim = sim
        self.host = host
        self.flow = flow
        self.on_complete = on_complete
        host.register_receiver(flow.flow_id, self)

    def on_data(self, packet: Packet) -> None:
        """Account a delivered data packet; fire completion once done."""
        self.flow.bytes_delivered += packet.size_bytes
        self.handle_data(packet)
        if self.flow.size_bytes is not None and not self.flow.completed \
                and self.flow.bytes_delivered >= self.flow.size_bytes:
            self.flow.completion_time = self.sim.now
            self.handle_completion(packet)
            self.host.unregister_receiver(self.flow.flow_id)
            if self.on_complete is not None:
                self.on_complete(self.flow)

    def handle_data(self, packet: Packet) -> None:
        """Protocol-specific reaction to a data packet (marks, ACKs)."""

    def handle_completion(self, last_packet: Packet) -> None:
        """Protocol-specific final action (e.g. flush a last ACK)."""

    def send_control(self, kind: str, echo_time: Optional[float] = None,
                     acked_bytes: int = 0) -> None:
        """Emit a control packet back to the flow's source."""
        packet = PACKET_POOL.acquire(self.flow.flow_id,
                                     CONTROL_PACKET_BYTES,
                                     self.host.name, self.flow.src,
                                     kind=kind)
        packet.sent_time = self.sim.now  # for feedback-latency stats
        packet.echo_time = echo_time
        packet.acked_bytes = acked_bytes
        self.host.send(packet)
