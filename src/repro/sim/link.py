"""Links and egress ports (serializer + queue + propagation).

A :class:`Port` is the transmitting half of an attachment: it owns the
egress FIFO, serializes packets at the line rate, optionally consults
an AQM marker, and hands finished packets to its :class:`Link`, which
applies propagation delay and delivers to the downstream device's
``receive(packet, ingress=...)``.

ECN marking points (Section 5.2 of the paper):

* ``"egress"`` (default, how Broadcom-style shared-buffer silicon
  works): the marking decision is made when the packet *departs*,
  against the queue occupancy at that instant -- so the mark is fresh
  regardless of how long the packet queued.
* ``"ingress"``: the decision is made at *enqueue* time against the
  arrival occupancy; by the time the packet leaves (and the mark
  travels on), the information is one queuing delay stale.  This
  reproduces the Fig. 17 instability.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.sim.engine import Simulator
from repro.sim.packet import Packet
from repro.sim.queues import ByteFIFO

#: Valid marking points for ports with an AQM marker attached.
MARKING_POINTS = ("egress", "ingress")


class Link:
    """Unidirectional propagation-delay pipe to a downstream device."""

    __slots__ = ("sim", "delay", "dst", "ingress_label")

    def __init__(self, sim: Simulator, delay: float,
                 dst: "object", ingress_label: Optional[str] = None):
        if delay < 0:
            raise ValueError(f"delay must be >= 0, got {delay}")
        self.sim = sim
        self.delay = delay
        self.dst = dst
        #: Label passed to the receiver, identifying the upstream
        #: device (used by PFC accounting at switches).
        self.ingress_label = ingress_label

    def deliver(self, packet: Packet) -> None:
        """Deliver ``packet`` after the propagation delay.

        The receive callback is scheduled with positional args rather
        than a per-packet closure; this path runs once per packet per
        hop.
        """
        self.sim.schedule(self.delay, self.dst.receive, packet,
                          self.ingress_label)


class Port:
    """Egress port: FIFO + line-rate serializer + optional AQM marker."""

    __slots__ = ("sim", "rate", "link", "marker", "marking_point",
                 "queue", "priority_control", "control_queue", "name",
                 "busy", "paused", "bytes_transmitted",
                 "packets_transmitted", "ecn_marks", "on_transmit",
                 "on_drop", "ledger")

    def __init__(self, sim: Simulator, rate_bytes_per_s: float,
                 link: Link, marker: Optional[object] = None,
                 marking_point: str = "egress",
                 capacity_bytes: Optional[int] = None,
                 name: str = "port",
                 priority_control: bool = False):
        if rate_bytes_per_s <= 0:
            raise ValueError(
                f"rate must be positive, got {rate_bytes_per_s}")
        if marking_point not in MARKING_POINTS:
            raise ValueError(
                f"marking_point must be one of {MARKING_POINTS}, "
                f"got {marking_point!r}")
        self.sim = sim
        self.rate = rate_bytes_per_s
        self.link = link
        self.marker = marker
        self.marking_point = marking_point
        self.queue = ByteFIFO(capacity_bytes)
        #: Strict-priority class for control packets (ACKs/CNPs),
        #: Section 5.2's "prioritizing feedback packets".  When
        #: enabled, control packets never wait behind data.
        self.priority_control = priority_control
        self.control_queue = ByteFIFO() if priority_control else None
        self.name = name
        self.busy = False
        self.paused = False
        self.bytes_transmitted = 0
        self.packets_transmitted = 0
        #: Packets this port stamped CE (either marking point).
        self.ecn_marks = 0
        #: Hook called when a packet finishes serialization (monitors,
        #: PFC accounting).  Signature: ``fn(packet)``.
        self.on_transmit: Optional[Callable[[Packet], None]] = None
        #: Hook called when the (finite) queue drops a packet, so
        #: switch-level accounting can release the buffered bytes.
        self.on_drop: Optional[Callable[[Packet], None]] = None
        #: Flow-forensics ledger (:mod:`repro.obs.forensics`); None
        #: whenever forensics is off, and every call site guards on
        #: that so the off path costs one attribute load per event.
        self.ledger = None
        if marker is not None and marker.update_interval is not None:
            self._schedule_marker_update(marker.update_interval)

    def _schedule_marker_update(self, interval: float) -> None:
        def tick() -> None:
            self.marker.update(self.queue.size_bytes, self.sim.now)
            self.sim.schedule(interval, tick)
        self.sim.schedule(interval, tick)

    @property
    def occupancy_bytes(self) -> int:
        """Egress backlog, bytes (excluding the packet on the wire)."""
        total = self.queue.size_bytes
        if self.control_queue is not None:
            total += self.control_queue.size_bytes
        return total

    def send(self, packet: Packet) -> None:
        """Enqueue for transmission, applying ingress-point marking.

        When the port is already draining (``busy``), enqueueing is all
        that happens: the in-flight ``_finish`` event is the wakeup,
        and scheduling another would double-serve the serializer.  Only
        an idle port starts a transmission here, and then exactly one.
        """
        if self.marker is not None and self.marking_point == "ingress" \
                and packet.kind == "data":
            occupancy = self.queue.size_bytes + packet.size_bytes
            if self.marker.should_mark(occupancy):
                packet.ecn_marked = True
                self.ecn_marks += 1
        target = self.control_queue if (self.control_queue is not None
                                        and packet.kind != "data") \
            else self.queue
        if not target.enqueue(packet):
            if self.on_drop is not None:
                self.on_drop(packet)
            if self.ledger is not None:
                self.ledger.on_drop(self, packet)
            return
        if self.ledger is not None:
            self.ledger.on_enqueue(self, packet)
        if not self.busy:
            self._transmit_next()

    def pause(self) -> None:
        """PFC PAUSE: stop serving the *data* class.

        With ``priority_control`` enabled, control packets keep
        flowing: in real 802.1Qbb deployments PFC pauses per priority,
        and feedback (CNPs/ACKs) rides an unpaused class -- otherwise
        a PAUSE storm would also strangle the very signals that drain
        the congestion.
        """
        self.paused = True
        if self.ledger is not None:
            self.ledger.on_pause(self)

    def resume(self) -> None:
        """PFC RESUME: restart transmissions if backlog exists."""
        if not self.paused:
            return
        self.paused = False
        if self.ledger is not None:
            self.ledger.on_resume(self)
        if not self.busy:
            self._transmit_next()

    def _transmit_next(self) -> None:
        """Put the next serviceable packet on the wire, if any.

        The control class goes first; the data queue is served unless
        PFC paused it.  One call per wakeup selects, dequeues, marks
        and schedules the finish.
        """
        source = self.control_queue
        if source is None or source.is_empty:
            if self.paused or self.queue.is_empty:
                return
            source = self.queue
        packet = source.dequeue()
        if self.marker is not None and self.marking_point == "egress" \
                and packet.kind == "data":
            # Departure-time decision against the instantaneous queue
            # (the departing packet counts as part of the backlog).
            occupancy = self.queue.size_bytes + packet.size_bytes
            if self.marker.should_mark(occupancy):
                packet.ecn_marked = True
                self.ecn_marks += 1
        self.busy = True
        duration = packet.size_bytes / self.rate
        self.sim.schedule(duration, self._finish, packet)

    def publish_metrics(self, registry) -> None:
        """Scrape this port's lifetime counters into a registry.

        Called at aggregation points (after a run, via
        :func:`repro.obs.scrape.scrape_network`), never per packet,
        under ``sim.port.<name>.*`` with the port name sanitized to
        the metric alphabet.  AQM marker trial counts are included
        when a marker is attached.
        """
        from repro.obs.metrics import sanitize
        prefix = f"sim.port.{sanitize(self.name)}"
        registry.counter(f"{prefix}.bytes_total").inc(
            self.bytes_transmitted)
        registry.counter(f"{prefix}.packets_total").inc(
            self.packets_transmitted)
        registry.counter(f"{prefix}.ecn_marked_total").inc(
            self.ecn_marks)
        registry.gauge(f"{prefix}.paused").set(float(self.paused))
        self.queue.publish_metrics(registry, f"{prefix}.queue")
        if self.control_queue is not None:
            self.control_queue.publish_metrics(
                registry, f"{prefix}.control_queue")
        marker = self.marker
        if marker is not None and hasattr(marker, "mark_trials"):
            registry.counter(f"{prefix}.aqm_trials_total").inc(
                marker.mark_trials)
            registry.counter(f"{prefix}.aqm_marks_total").inc(
                marker.marks)

    def _finish(self, packet: Packet) -> None:
        self.busy = False
        self.bytes_transmitted += packet.size_bytes
        self.packets_transmitted += 1
        if self.on_transmit is not None:
            self.on_transmit(packet)
        if self.ledger is not None:
            self.ledger.on_departure(self, packet)
        self.link.deliver(packet)
        self._transmit_next()
