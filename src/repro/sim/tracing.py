"""Packet tracing -- the simulator's debugging eyes.

ns-3 ships pcap/ascii traces; this is the equivalent for this
simulator: a :class:`PacketTracer` hooks one or more ports'
``on_transmit`` and records ``(time, port, packet)`` events, with
optional kind/flow filters so a DCQCN debugging session can watch,
say, only the CNPs crossing the bottleneck.  Tail drops are recorded too, via
``on_drop``, flagged inline so a trace shows losses and not just
departures.

The tracer chains politely: if a port already has a hook installed
(PFC accounting at switches), the tracer calls it first, so tracing
never changes behaviour.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence

from repro.sim.engine import Simulator
from repro.sim.link import Port
from repro.sim.packet import Packet


class TraceEvent:
    """One packet leaving one port.

    A ``__slots__`` record rather than a dataclass: traces on a busy
    port allocate one of these per departing packet, and the slotted
    layout keeps a 100k-event trace tens of megabytes smaller.
    """

    __slots__ = ("time", "port_name", "kind", "flow_id", "seq",
                 "size_bytes", "ecn_marked", "sent_time", "dropped")

    def __init__(self, time: float, port_name: str, kind: str,
                 flow_id: int, seq: int, size_bytes: int,
                 ecn_marked: bool, sent_time: Optional[float] = None,
                 dropped: bool = False):
        self.time = time
        self.port_name = port_name
        self.kind = kind
        self.flow_id = flow_id
        self.seq = seq
        self.size_bytes = size_bytes
        self.ecn_marked = ecn_marked
        #: Emission timestamp the sender stamped, if any -- makes
        #: ``time - sent_time`` the sender-to-this-port latency.
        self.sent_time = sent_time
        #: True when this event is a tail drop at the port's FIFO
        #: (the packet never departed; ``time`` is the drop instant).
        self.dropped = dropped

    @property
    def latency(self) -> Optional[float]:
        """Sender-to-this-port latency, seconds (None if unstamped)."""
        if self.sent_time is None:
            return None
        return self.time - self.sent_time

    def __str__(self) -> str:
        mark = " CE" if self.ecn_marked else ""
        drop = " DROP" if self.dropped else ""
        return (f"{self.time * 1e6:10.2f}us {self.port_name:<18} "
                f"{self.kind:<5} flow={self.flow_id} seq={self.seq} "
                f"{self.size_bytes}B{mark}{drop}")


class PacketTracer:
    """Records departures from the attached ports.

    Parameters
    ----------
    sim:
        The simulation clock (timestamps come from it).
    kinds:
        Packet kinds to record (None = all).
    flow_ids:
        Flow ids to record (None = all).
    max_events:
        Hard cap; recording silently stops past it so a forgotten
        tracer cannot eat the machine on a long run.
    """

    def __init__(self, sim: Simulator,
                 kinds: Optional[Sequence[str]] = None,
                 flow_ids: Optional[Iterable[int]] = None,
                 max_events: int = 100_000):
        if max_events < 1:
            raise ValueError(
                f"max_events must be >= 1, got {max_events}")
        self.sim = sim
        self.kinds = set(kinds) if kinds is not None else None
        self.flow_ids = set(flow_ids) if flow_ids is not None else None
        self.max_events = max_events
        self.events: List[TraceEvent] = []
        #: Events past the ``max_events`` cap -- data lost.
        self.dropped_events = 0
        #: Events the kind/flow filters rejected -- deliberately
        #: excluded, not lost.  Counted separately from
        #: :attr:`dropped_events` so "the trace is truncated" and
        #: "the filters are working" are distinguishable.
        self.filtered_events = 0

    def attach(self, port: Port) -> None:
        """Hook a port, chaining any existing hooks.

        Both departure surfaces are chained: ``on_transmit`` and
        ``on_drop`` (tail losses, recorded with ``dropped=True``).
        """
        previous = port.on_transmit

        def hook(packet: Packet, _prev=previous, _port=port) -> None:
            if _prev is not None:
                _prev(packet)
            self._record(_port, packet, self.sim.now)

        port.on_transmit = hook

        previous_drop = port.on_drop

        def drop_hook(packet: Packet, _prev=previous_drop,
                      _port=port) -> None:
            if _prev is not None:
                _prev(packet)
            self._record(_port, packet, self.sim.now, dropped=True)

        port.on_drop = drop_hook

    def _record(self, port: Port, packet: Packet, time: float,
                dropped: bool = False) -> None:
        if self.kinds is not None and packet.kind not in self.kinds:
            self.filtered_events += 1
            return
        if self.flow_ids is not None and \
                packet.flow_id not in self.flow_ids:
            self.filtered_events += 1
            return
        if len(self.events) >= self.max_events:
            self.dropped_events += 1
            return
        self.events.append(TraceEvent(
            time=time,
            port_name=port.name,
            kind=packet.kind,
            flow_id=packet.flow_id,
            seq=packet.seq,
            size_bytes=packet.size_bytes,
            ecn_marked=packet.ecn_marked,
            sent_time=packet.sent_time,
            dropped=dropped))

    def marked_fraction(self) -> float:
        """Fraction of recorded data packets carrying a CE mark.

        Returns ``float("nan")`` when no data packets were recorded:
        "no data" is an expected state (a filter excluded ``data``,
        or the run produced none), and NaN propagates harmlessly
        through downstream statistics, whereas raising forced every
        caller computing mark rates over a sweep to wrap this in
        try/except.  Check with ``math.isnan`` when the distinction
        matters.
        """
        data = [e for e in self.events
                if e.kind == "data" and not e.dropped]
        if not data:
            return float("nan")
        return sum(e.ecn_marked for e in data) / len(data)

    def interarrival_times(self) -> "list[float]":
        """Gaps between consecutive recorded events, seconds."""
        return [b.time - a.time
                for a, b in zip(self.events, self.events[1:])]

    def latencies(self, since: float = 0.0) -> "list[float]":
        """Sender-to-port latencies of stamped events, seconds."""
        return [event.latency for event in self.events
                if event.latency is not None and event.time >= since]

    def dump(self, limit: Optional[int] = None) -> str:
        """Human-readable trace listing (first ``limit`` events)."""
        selected = self.events if limit is None else \
            self.events[:limit]
        lines = [str(event) for event in selected]
        if self.dropped_events:
            lines.append(f"... ({self.dropped_events} events beyond "
                         f"the {self.max_events}-event cap)")
        return "\n".join(lines)
