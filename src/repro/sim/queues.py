"""FIFO byte queues used by switch and NIC egress ports."""

from __future__ import annotations

from collections import deque
from typing import Optional

from repro.sim.packet import Packet


class ByteFIFO:
    """Drop-free FIFO tracking byte occupancy.

    RoCEv2 networks are lossless (PFC prevents overflow), so the
    default capacity is unlimited; a finite ``capacity_bytes`` turns it
    into a drop-tail queue for non-PFC scenarios, with a drop counter
    for observability.
    """

    __slots__ = ("capacity_bytes", "_packets", "_bytes",
                 "dropped_packets", "dropped_bytes", "enqueued_bytes",
                 "dequeued_bytes", "max_bytes")

    def __init__(self, capacity_bytes: Optional[int] = None):
        if capacity_bytes is not None and capacity_bytes <= 0:
            raise ValueError(
                f"capacity must be positive or None, got {capacity_bytes}")
        self.capacity_bytes = capacity_bytes
        self._packets: deque = deque()
        self._bytes = 0
        self.dropped_packets = 0
        self.dropped_bytes = 0
        #: Lifetime byte totals, for conservation audits
        #: (:mod:`repro.sim.invariants`): every byte that entered must
        #: either still be queued or have been dequeued.
        self.enqueued_bytes = 0
        self.dequeued_bytes = 0
        #: High-water mark, bytes -- handy for buffer sizing reports.
        self.max_bytes = 0

    def __len__(self) -> int:
        return len(self._packets)

    @property
    def size_bytes(self) -> int:
        """Current occupancy in bytes."""
        return self._bytes

    @property
    def is_empty(self) -> bool:
        return not self._packets

    def enqueue(self, packet: Packet) -> bool:
        """Append ``packet``; returns False (and counts a drop) if full."""
        if self.capacity_bytes is not None and \
                self._bytes + packet.size_bytes > self.capacity_bytes:
            self.dropped_packets += 1
            self.dropped_bytes += packet.size_bytes
            return False
        self._packets.append(packet)
        self._bytes += packet.size_bytes
        self.enqueued_bytes += packet.size_bytes
        if self._bytes > self.max_bytes:
            self.max_bytes = self._bytes
        return True

    def dequeue(self) -> Packet:
        """Remove and return the head packet."""
        if not self._packets:
            raise IndexError("dequeue from empty ByteFIFO")
        packet = self._packets.popleft()
        self._bytes -= packet.size_bytes
        self.dequeued_bytes += packet.size_bytes
        return packet

    def audit(self) -> Optional[str]:
        """Check internal conservation; None if clean, else a message.

        Two invariants must hold at any instant: the byte counter
        matches the queued packets, and lifetime enqueued bytes equal
        lifetime dequeued bytes plus the current occupancy.
        """
        actual = sum(p.size_bytes for p in self._packets)
        if actual != self._bytes:
            return (f"byte counter {self._bytes} != queued packet "
                    f"bytes {actual}")
        if self.enqueued_bytes != self.dequeued_bytes + self._bytes:
            return (f"conservation: enqueued {self.enqueued_bytes} != "
                    f"dequeued {self.dequeued_bytes} + occupancy "
                    f"{self._bytes}")
        if self._bytes < 0:
            return f"negative occupancy {self._bytes}"
        return None

    def publish_metrics(self, registry, prefix: str) -> None:
        """Scrape the queue's lifetime counters under ``prefix``.

        An aggregation-point publish (see :mod:`repro.obs.scrape`):
        the enqueue/dequeue hot path keeps plain attribute counters
        and this translates them into registry metrics on demand.
        """
        registry.counter(f"{prefix}.enqueued_bytes_total").inc(
            self.enqueued_bytes)
        registry.counter(f"{prefix}.dequeued_bytes_total").inc(
            self.dequeued_bytes)
        registry.counter(f"{prefix}.dropped_packets_total").inc(
            self.dropped_packets)
        registry.counter(f"{prefix}.dropped_bytes_total").inc(
            self.dropped_bytes)
        registry.gauge(f"{prefix}.depth_bytes").set(self._bytes)
        registry.gauge(f"{prefix}.high_water_bytes").set(
            self.max_bytes)

    def peek(self) -> Packet:
        """Return the head packet without removing it."""
        if not self._packets:
            raise IndexError("peek at empty ByteFIFO")
        return self._packets[0]
