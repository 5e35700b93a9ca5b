"""DCTCP baseline -- the window-based ancestor of DCQCN.

DCQCN borrows its ``alpha`` estimator from DCTCP [2], whose analysis
[3] the paper leans on throughout.  Implementing DCTCP in the same
simulator gives a window-based, ACK-clocked baseline against the
paper's two rate-based protocols, using the identical ECN substrate:

* the receiver ACKs every data packet, echoing the CE mark (the
  simplified ECE semantics DCTCP requires);
* the sender keeps a congestion window ``cwnd`` (bytes), transmits
  while ``inflight < cwnd``, and once per window (one RTT's worth of
  data) updates::

      F     <- marked_bytes / acked_bytes          (this window)
      alpha <- (1 - g) alpha + g F
      cwnd  <- cwnd * (1 - alpha / 2)   if F > 0   (DCTCP cut)
      cwnd  <- cwnd + MSS               otherwise  (additive growth)

* slow start doubles ``cwnd`` per window until the first mark, as in
  standard TCP; the fabric is lossless (PFC), so there is no loss
  handling -- matching the RoCE setting the paper studies.

DCTCP is self-clocked: it needs no rate limiter, at the price of
per-packet ACK traffic (which DCQCN's NP explicitly avoids; see the
paper's "Practical concerns").
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.sim.engine import Simulator
from repro.sim.flows import Flow
from repro.sim.node import Host
from repro.sim.packet import CONTROL_PACKET_BYTES, PACKET_POOL, Packet
from repro.sim.protocols.base import BaseReceiver


class DCTCPSender:
    """Window-based DCTCP reaction point.

    Parameters
    ----------
    g:
        EWMA gain for the marked-fraction estimator (DCTCP's 1/16).
    initial_window_packets:
        Initial window, in MSS units (TCP's IW; default 10).
    """

    def __init__(self, sim: Simulator, host: Host, flow: Flow,
                 mtu_bytes: int = 1024,
                 g: float = 1.0 / 16.0,
                 initial_window_packets: int = 10):
        if not 0.0 < g <= 1.0:
            raise ValueError(f"g must be in (0, 1], got {g}")
        if initial_window_packets < 1:
            raise ValueError(
                f"initial window must be >= 1 packet, got "
                f"{initial_window_packets}")
        self.sim = sim
        self.host = host
        self.flow = flow
        self.mtu_bytes = mtu_bytes
        self.g = g
        self.cwnd = float(initial_window_packets * mtu_bytes)
        self.alpha = 0.0
        self.in_slow_start = True
        self._inflight = 0
        self._sequence = 0
        self._started = False
        self._stopped = False
        # Per-window accounting: the window "ends" when the byte that
        # was snd_nxt at its start is cumulatively acknowledged.
        self._window_end_bytes = 0
        self._window_acked = 0
        self._window_marked = 0
        self._last_cumulative_ack = 0
        self.windows_completed = 0
        self.marked_windows = 0
        #: Flow-forensics ledger (window-based analogue of
        #: :class:`~repro.sim.protocols.base.RateBasedSender.ledger`).
        self.ledger = None

    # -- lifecycle ------------------------------------------------------------

    def start(self) -> None:
        """Register with the host and open the first window."""
        if self._started:
            raise RuntimeError(
                f"DCTCP sender for flow {self.flow.flow_id} already "
                "started")
        self._started = True
        self.host.register_sender(self.flow.flow_id, self)
        delay = max(self.flow.start_time - self.sim.now, 0.0)
        self.sim.schedule(delay, self._fill_window)

    def stop(self) -> None:
        """Detach from the host."""
        self._stopped = True
        self.host.unregister_sender(self.flow.flow_id)

    # -- transmission ---------------------------------------------------------

    def _fill_window(self) -> None:
        """Emit packets while the window allows and data remains."""
        while not self._stopped and self._inflight + self.mtu_bytes \
                <= self.cwnd and not self.flow.all_bytes_sent():
            self._emit_packet()

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
        self._inflight += size
        if self._window_end_bytes == 0:
            # First window: close it after one IW's worth of data.
            self._window_end_bytes = int(self.cwnd)
        self.host.send(packet)

    # -- ACK processing -------------------------------------------------------

    def on_ack(self, packet: Packet) -> None:
        """Per-packet ACK: credit the window, run DCTCP at its edges."""
        acked = packet.acked_bytes - self._last_cumulative_ack
        if acked <= 0:
            return  # reordered/duplicate cumulative ACK
        self._last_cumulative_ack = packet.acked_bytes
        self._inflight = max(self._inflight - acked, 0)
        self._window_acked += acked
        if packet.ecn_marked:
            self._window_marked += acked
        if packet.acked_bytes >= self._window_end_bytes:
            self._finish_window(packet.acked_bytes)
        self._fill_window()

    def _finish_window(self, acked_total: int) -> None:
        """One RTT of data fully acknowledged: apply DCTCP's update."""
        self.windows_completed += 1
        fraction = self._window_marked / max(self._window_acked, 1)
        self.alpha = (1.0 - self.g) * self.alpha + self.g * fraction
        if fraction > 0.0:
            self.marked_windows += 1
            self.in_slow_start = False
            old_cwnd = self.cwnd
            self.cwnd = max(self.cwnd * (1.0 - self.alpha / 2.0),
                            float(self.mtu_bytes))
            if self.ledger is not None:
                # cwnd transitions are DCTCP's rate state machine;
                # the ledger classifies the cut just like a rate cut.
                self.ledger.on_rate_change(self.flow.flow_id,
                                           old_cwnd, self.cwnd,
                                           self.sim.now)
                self.ledger.on_control(self.flow.flow_id,
                                       "marked_window", 1,
                                       self.sim.now)
        elif self.in_slow_start:
            self.cwnd *= 2.0
        else:
            self.cwnd += self.mtu_bytes
        self._window_acked = 0
        self._window_marked = 0
        self._window_end_bytes = acked_total + int(self.cwnd)

    def on_cnp(self, packet: Packet) -> None:
        raise ValueError("DCTCP does not use CNPs")


class DCTCPReceiver(BaseReceiver):
    """Per-packet ACKs echoing the CE mark (simplified ECE)."""

    def __init__(self, sim: Simulator, host: Host, flow: Flow,
                 on_complete: Optional[Callable[[Flow], None]] = None):
        super().__init__(sim, host, flow, on_complete=on_complete)
        self.acks_sent = 0

    def handle_data(self, packet: Packet) -> None:
        ack = PACKET_POOL.acquire(self.flow.flow_id,
                                  CONTROL_PACKET_BYTES,
                                  self.host.name, self.flow.src,
                                  kind="ack")
        ack.echo_time = packet.sent_time
        ack.acked_bytes = self.flow.bytes_delivered
        ack.ecn_marked = packet.ecn_marked
        self.acks_sent += 1
        self.host.send(ack)
