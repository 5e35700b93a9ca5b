"""Packet representations: per-object and pooled.

* :class:`Packet` -- one Python object per packet, ``__slots__`` kept
  minimal.  Every experiment semantics is defined in terms of it.
* :class:`PacketPool` -- a freelist recycling :class:`Packet` objects.
  Protocol agents acquire from the pool and the terminal
  :meth:`~repro.sim.node.Host.receive` releases back into it, so
  steady-state traffic allocates no new objects (allocation and GC
  pressure show up clearly in event-loop profiles).  Packets a
  component wants to keep past the handler return must be copied --
  field reads inside the handler are always safe.
"""

from __future__ import annotations

from collections import deque
from contextlib import contextmanager
from typing import Iterator, Optional

#: Size of control packets (ACKs, CNPs, PFC frames), bytes.
CONTROL_PACKET_BYTES = 64

#: Poison ``kind`` stamped on released packets while the pool runs in
#: debug mode.  Any component that dispatches a quarantined packet
#: afterwards hits the terminal host's unknown-kind branch, turning a
#: silent use-after-release into a loud error.
RELEASED_KIND = "__released__"


class Packet:
    """A data or control packet.

    Attributes
    ----------
    flow_id:
        Owning flow; control packets carry the flow they refer to.
    size_bytes:
        Wire size used for serialization timing.
    src, dst:
        Endpoint node names, used by switch forwarding.
    kind:
        ``"data"``, ``"ack"``, ``"cnp"``, ``"pause"`` or ``"resume"``.
        Every kind but ``"data"`` is control: it skips ECN marking and
        flow accounting.
    sent_time:
        Stamped by the sender NIC at first transmission; echoed into
        ACKs so TIMELY can measure RTT.
    ecn_marked:
        Set by a congested switch queue (CE codepoint).
    echo_time:
        For ACKs: the ``sent_time`` of the data packet (or last packet
        of the chunk) being acknowledged.
    acked_bytes:
        For ACKs: cumulative bytes the receiver has seen for the flow.
    pooled:
        True while the packet is on loan from a :class:`PacketPool`;
        the delivering host recycles it after dispatch.
    """

    __slots__ = ("flow_id", "size_bytes", "src", "dst",
                 "kind", "sent_time", "ecn_marked", "echo_time",
                 "acked_bytes", "seq", "pfc_ingress", "corrupted",
                 "pooled", "enqueue_time")

    def __init__(self, flow_id: int, size_bytes: int, src: str, dst: str,
                 kind: str = "data", seq: int = 0):
        self.flow_id = flow_id
        self.size_bytes = size_bytes
        self.src = src
        self.dst = dst
        self.kind = kind
        self.seq = seq
        self.sent_time: Optional[float] = None
        self.ecn_marked = False
        self.echo_time: Optional[float] = None
        self.acked_bytes = 0
        #: Upstream label at the switch currently buffering the packet
        #: (PFC accounting; rewritten at each hop).
        self.pfc_ingress: Optional[str] = None
        #: Set by the fault injector: the packet still occupies wire
        #: and buffer resources but fails its CRC at the destination
        #: host, which discards it (RoCE has no payload recovery).
        self.corrupted = False
        self.pooled = False
        #: Stamped by the flow-forensics ledger when the packet enters
        #: an egress FIFO; None whenever forensics is off.
        self.enqueue_time: Optional[float] = None

    def __repr__(self) -> str:
        flags = " ECN" if self.ecn_marked else ""
        return (f"<Packet {self.kind} flow={self.flow_id} seq={self.seq} "
                f"{self.src}->{self.dst} {self.size_bytes}B{flags}>")


class PacketPool:
    """Freelist of recyclable :class:`Packet` objects.

    ``acquire`` re-initializes a recycled instance (or allocates when
    the freelist is dry) and flags it ``pooled``;
    :meth:`~repro.sim.node.Host.receive` hands pooled packets back via
    ``release`` once dispatch returns.  The contract is single-owner:
    a released packet's fields may be overwritten at the very next
    ``acquire``, so handlers copy anything they keep.  Components that
    legitimately park packets mid-flight (the fault injector's
    feedback-delay hold queue) are unaffected -- release happens only
    at final delivery, which their re-injection still flows through.

    ``max_free`` bounds freelist growth so a transient burst does not
    pin its high-water packet count forever.

    Debug mode (:meth:`debug_session`) adds a misuse guard: every loan
    is tracked by object identity, releases of non-loaned packets are
    counted in :attr:`double_releases`, and released packets are
    *quarantined* with a poisoned ``kind`` instead of recycled, so any
    later dispatch of a stale reference raises through the terminal
    host's unknown-kind check.  After a quiescent run,
    :attr:`outstanding` must equal the packets that never reached a
    host (drop-tail losses, fault drops, queued backlog); the pool
    property tests in ``tests/test_sim_properties.py`` check exactly
    that.
    """

    __slots__ = ("_free", "max_free", "allocated", "reused", "debug",
                 "_loans", "_quarantine", "double_releases")

    def __init__(self, max_free: int = 8192):
        self._free: list = []
        self.max_free = max_free
        self.allocated = 0
        self.reused = 0
        #: True while a :meth:`debug_session` is active.
        self.debug = False
        #: Live loans by ``id(packet)`` (strong refs, so ids are
        #: never aliased by the garbage collector).
        self._loans: dict = {}
        #: Released-but-not-recycled packets (debug mode only).
        self._quarantine: deque = deque(maxlen=4 * max_free)
        self.double_releases = 0

    def acquire(self, flow_id: int, size_bytes: int, src: str, dst: str,
                kind: str = "data", seq: int = 0) -> Packet:
        """A fresh-looking packet, recycled when possible."""
        free = self._free
        if free:
            self.reused += 1
            packet = free.pop()
            packet.flow_id = flow_id
            packet.size_bytes = size_bytes
            packet.src = src
            packet.dst = dst
            packet.kind = kind
            packet.seq = seq
            packet.sent_time = None
            packet.ecn_marked = False
            packet.echo_time = None
            packet.acked_bytes = 0
            packet.pfc_ingress = None
            packet.corrupted = False
            packet.enqueue_time = None
        else:
            self.allocated += 1
            packet = Packet(flow_id, size_bytes, src, dst, kind=kind,
                            seq=seq)
        packet.pooled = True
        if self.debug:
            self._loans[id(packet)] = packet
        return packet

    def release(self, packet: Packet) -> None:
        """Return a pooled packet to the freelist (idempotent)."""
        if not packet.pooled:
            if self.debug:
                self.double_releases += 1
            return
        packet.pooled = False
        if self.debug:
            self._loans.pop(id(packet), None)
            packet.kind = RELEASED_KIND
            self._quarantine.append(packet)
            return
        if len(self._free) < self.max_free:
            self._free.append(packet)

    # -- debug / misuse guard -------------------------------------------------

    @property
    def outstanding(self) -> int:
        """Packets currently on loan (0 unless debug mode tracked them)."""
        return len(self._loans)

    def outstanding_packets(self, limit: int = 8) -> list:
        """Reprs of up to ``limit`` live loans, for leak diagnostics."""
        out = []
        for packet in self._loans.values():
            out.append(repr(packet))
            if len(out) >= limit:
                break
        return out

    @contextmanager
    def debug_session(self) -> Iterator["PacketPool"]:
        """Run a block with loan tracking and the misuse guard on.

        Counters (:attr:`outstanding`, :attr:`double_releases`) are
        reset on entry and *kept* on exit so callers can assert on
        them after the block; the quarantine is cleared on exit to
        drop its held references (the loan table survives until the
        next session so leak reports stay readable).  Sessions do not
        nest (the inner session would steal the outer's loans).
        """
        if self.debug:
            raise RuntimeError("pool debug sessions do not nest")
        self._loans.clear()
        self._quarantine.clear()
        self.double_releases = 0
        self.debug = True
        try:
            yield self
        finally:
            self.debug = False
            self._quarantine.clear()

    def publish_metrics(self, registry, prefix: str = "sim.packet") -> None:
        """Scrape the pool's allocation and freelist counters."""
        registry.gauge(f"{prefix}.pool_allocated").set(self.allocated)
        registry.gauge(f"{prefix}.pool_reused").set(self.reused)
        registry.gauge(f"{prefix}.pool_free").set(len(self._free))

    def __len__(self) -> int:
        return len(self._free)


#: Process-wide default pool.  Single-threaded simulators in the same
#: process share it harmlessly (packets are inert data between events);
#: worker processes each get their own copy at fork/spawn.
PACKET_POOL = PacketPool()
