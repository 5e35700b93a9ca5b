"""Per-flow forensics: causal FCT attribution and the explain layer.

Aggregate metrics and health verdicts answer "is this run healthy?".
This module answers the micro question those layers cannot: for one
individual flow, *why* was its completion time what it was?

A :class:`FlowLedger` subscribes to cheap hooks in the simulation
layer -- port enqueue/departure, PFC
pause/resume per port, drops, and protocol rate-state transitions --
and folds them into one record per flow.  On finalization each
completed flow's FCT is decomposed into named components::

    FCT = serialization + queueing + paused + rate_limited
        + propagation + residual

The decomposition follows the flow's *critical path*: the interval
from flow start to the emission of its last packet is split between
line-rate serialization and pacing stalls (``rate_limited`` -- time
the congestion-control algorithm held the sender below line rate),
and the last packet's journey through the network is split per hop
into queue wait (minus pause overlap), PFC pause overlap, wire
serialization and link propagation.  Because those intervals tile
``[start, completion]`` exactly, the residual is float noise.

Causal annotations ride along: which port marked the flow's packets
CE (and how many), which PFC pause storms sat on its path (and for
how long), and how often congestion control cut its rate (with the
rate floor and the time window of the cuts).

Zero cost when off, following the PR 3 active/null pattern: every
hook site in the simulator guards on ``ledger is None``, the ambient
ledger is installed only by ``Telemetry`` when forensics is
requested (``repro run --forensics``), and a run without it is
bit-identical to one built before this module existed.

Surfaces:

* ``repro run --forensics`` attaches a ledger; per-flow ``flow``
  events land in the run log (RUNLOG_VERSION 6+).
* ``repro explain LOG --flow N | --worst K`` renders attribution
  tables and causal chains from those events.
* :meth:`FlowLedger.publish` feeds component-share histograms into
  the metrics registry so ``repro report`` and ``repro compare``
  consume the breakdown without new plumbing.
* A pathological pause-storm health verdict names the worst-hit
  flows (see :class:`repro.obs.health.HealthSession`).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional, Tuple

#: Component keys of the FCT decomposition, in presentation order.
COMPONENTS = ("serialization_s", "queueing_s", "paused_s",
              "rate_limited_s", "propagation_s", "residual_s")


class _PauseLog:
    """Closed (and one optionally open) pause intervals of one port."""

    __slots__ = ("starts", "ends", "open_start", "pauses")

    def __init__(self):
        self.starts: List[float] = []
        self.ends: List[float] = []
        self.open_start: Optional[float] = None
        self.pauses = 0

    def on_pause(self, now: float) -> None:
        if self.open_start is None:
            self.open_start = now
            self.pauses += 1

    def on_resume(self, now: float) -> None:
        if self.open_start is not None:
            self.starts.append(self.open_start)
            self.ends.append(now)
            self.open_start = None

    def overlap(self, a: float, b: float) -> float:
        """Seconds of ``[a, b]`` spent inside pause intervals."""
        if b <= a:
            return 0.0
        total = 0.0
        # Intervals are appended in time order, so binary search finds
        # the window of candidates.
        lo = bisect_right(self.ends, a)
        hi = bisect_left(self.starts, b)
        for i in range(lo, hi):
            total += min(b, self.ends[i]) - max(a, self.starts[i])
        if self.open_start is not None and self.open_start < b:
            total += b - max(a, self.open_start)
        return total

    def count_overlapping(self, a: float, b: float) -> int:
        """Pause intervals intersecting ``[a, b]``."""
        count = sum(1 for i in range(len(self.starts))
                    if self.starts[i] < b and self.ends[i] > a)
        if self.open_start is not None and self.open_start < b:
            count += 1
        return count


class HopRecord:
    """One flow's footprint on one egress port."""

    __slots__ = ("port", "rate", "delay", "packets", "bytes", "marks",
                 "drops", "last_enqueue", "last_wait_enqueue",
                 "last_start", "last_finish", "last_serialization")

    def __init__(self, port: str, rate: float, delay: float):
        self.port = port
        self.rate = rate
        self.delay = delay
        self.packets = 0
        self.bytes = 0
        #: Departures seen carrying a CE mark at this port.
        self.marks = 0
        self.drops = 0
        #: Most recent data-packet residence timestamps; at flow
        #: completion these belong to the completing packet (FIFO
        #: order per hop), which is what the attribution needs.
        self.last_enqueue: Optional[float] = None
        self.last_wait_enqueue: Optional[float] = None
        self.last_start: Optional[float] = None
        self.last_finish: Optional[float] = None
        self.last_serialization = 0.0


class FlowRecord:
    """Everything the ledger knows about one flow."""

    __slots__ = ("context", "flow_id", "src", "dst", "protocol",
                 "flow", "sender", "hops", "emitted", "first_emit",
                 "last_emit", "prev_size", "pacing_serialization_s",
                 "rate_limited_s", "cnps", "acks", "marked_windows",
                 "rate_cuts", "rate_raises", "min_rate",
                 "first_cut", "last_cut", "drops",
                 "components", "fct_s", "completed", "causes")

    def __init__(self, context: Optional[str], flow_id: int,
                 src: Optional[str] = None, dst: Optional[str] = None):
        self.context = context
        self.flow_id = flow_id
        self.src = src
        self.dst = dst
        self.protocol: Optional[str] = None
        self.flow = None
        self.sender = None
        self.hops: "Dict[str, HopRecord]" = {}
        self.emitted = 0
        self.first_emit: Optional[float] = None
        self.last_emit: Optional[float] = None
        self.prev_size = 0
        #: Sender-side pacing split: line-rate share vs pacing stall.
        self.pacing_serialization_s = 0.0
        self.rate_limited_s = 0.0
        self.cnps = 0
        self.acks = 0
        self.marked_windows = 0
        self.rate_cuts = 0
        self.rate_raises = 0
        self.min_rate: Optional[float] = None
        self.first_cut: Optional[float] = None
        self.last_cut: Optional[float] = None
        self.drops = 0
        # Filled by FlowLedger.finalize():
        self.components: Optional[Dict[str, float]] = None
        self.fct_s: Optional[float] = None
        self.completed = False
        self.causes: List[dict] = []


class FlowLedger:
    """Folds simulator hooks into per-flow attribution records.

    One ledger spans one telemetry run; experiments that execute
    several configurations attach per configuration with a distinct
    ``context`` label, which namespaces flow ids and port names.
    """

    def __init__(self):
        self._context: Optional[str] = None
        self._flows: "Dict[Tuple[Optional[str], int], FlowRecord]" = {}
        #: The current context's slice of ``_flows``, keyed by flow id
        #: alone, so per-packet hooks build no ``(context, id)`` key.
        self._context_flows: "Dict[int, FlowRecord]" = {}
        self._pauses: "Dict[Tuple[Optional[str], str], _PauseLog]" = {}
        #: Host NIC egress port -> its host's name.
        self._nic_host: "Dict[Any, str]" = {}
        self._finalized = False

    # -- wiring ---------------------------------------------------------------

    def attach(self, net, context: Optional[str] = None) -> None:
        """Hook every port of ``net``; later flows inherit ``context``.

        Call before :func:`repro.sim.topology.install_flow` so flow
        registrations land in the right context.
        """
        self._context = context
        self._context_flows = {flow_id: record for (ctx, flow_id), record
                               in self._flows.items() if ctx == context}
        for host in net.hosts.values():
            port = getattr(host, "port", None)
            if port is not None:
                port.ledger = self
                self._nic_host[port] = host.name
        for switch in net.switches.values():
            for port in switch.ports.values():
                port.ledger = self

    def register_flow(self, flow, protocol: Optional[str] = None,
                      sender=None) -> None:
        """Associate a :class:`~repro.sim.flows.Flow` (and its agents)."""
        record = self._flow(flow.flow_id, flow.src, flow.dst)
        record.flow = flow
        record.protocol = protocol
        record.sender = sender

    def _flow(self, flow_id: int, src: Optional[str] = None,
              dst: Optional[str] = None) -> FlowRecord:
        record = self._context_flows.get(flow_id)
        if record is None:
            record = FlowRecord(self._context, flow_id, src, dst)
            self._flows[(self._context, flow_id)] = record
            self._context_flows[flow_id] = record
        elif record.src is None and src is not None:
            record.src = src
            record.dst = dst
        return record

    # -- simulator hooks (active only while a run is forensic) ----------------

    def on_enqueue(self, port, packet) -> None:
        """A data packet entered ``port``'s FIFO."""
        if packet.kind != "data":
            return
        now = port.sim.now
        packet.enqueue_time = now
        record = self._context_flows.get(packet.flow_id)
        if record is None or record.src is None:
            record = self._flow(packet.flow_id, packet.src, packet.dst)
        if self._nic_host.get(port) == packet.src:
            self._account_emission(record, now, port.rate,
                                   packet.size_bytes)
        hop = record.hops.get(port.name)
        if hop is None:
            hop = HopRecord(port.name, port.rate, port.link.delay)
            record.hops[port.name] = hop
        hop.packets += 1
        hop.bytes += packet.size_bytes
        hop.last_enqueue = now

    def _account_emission(self, record: FlowRecord, now: float,
                          line_rate: float, size: int) -> None:
        """Split the inter-emission gap at the sender NIC.

        The gap since the previous emission covers (at most) the
        previous packet's line-rate serialization; any excess is time
        the pacer deliberately idled -- the ``rate_limited``
        component.
        """
        previous = record.last_emit
        if previous is None:
            record.first_emit = now
        else:
            gap = now - previous
            ideal = record.prev_size / line_rate
            if gap <= ideal:
                record.pacing_serialization_s += gap
            else:
                record.pacing_serialization_s += ideal
                record.rate_limited_s += gap - ideal
        record.last_emit = now
        record.prev_size = size
        record.emitted += 1

    def on_departure(self, port, packet) -> None:
        """A data packet finished serialization at ``port``."""
        if packet.kind != "data":
            return
        record = self._context_flows.get(packet.flow_id)
        if record is None:
            return
        hop = record.hops.get(port.name)
        if hop is None:
            return
        now = port.sim.now
        hop.last_finish = now
        hop.last_serialization = packet.size_bytes / port.rate
        hop.last_start = now - hop.last_serialization
        hop.last_wait_enqueue = packet.enqueue_time
        if packet.ecn_marked:
            hop.marks += 1

    def on_drop(self, port, packet) -> None:
        """A data packet was tail-dropped at ``port``'s FIFO."""
        if packet.kind != "data":
            return
        record = self._flow(packet.flow_id, packet.src, packet.dst)
        record.drops += 1
        hop = record.hops.get(port.name)
        if hop is None:
            hop = HopRecord(port.name, port.rate, port.link.delay)
            record.hops[port.name] = hop
        hop.drops += 1

    def on_pause(self, port) -> None:
        self._pause_log(port.name).on_pause(port.sim.now)

    def on_resume(self, port) -> None:
        self._pause_log(port.name).on_resume(port.sim.now)

    def _pause_log(self, port_name: str) -> _PauseLog:
        key = (self._context, port_name)
        log = self._pauses.get(key)
        if log is None:
            log = _PauseLog()
            self._pauses[key] = log
        return log

    # -- protocol hooks -------------------------------------------------------

    def on_rate_change(self, flow_id: int, old: float, new: float,
                       now: float) -> None:
        """A sender's rate (or window) moved; classify cut vs raise."""
        record = self._flow(flow_id)
        if new < old:
            record.rate_cuts += 1
            if record.first_cut is None:
                record.first_cut = now
            record.last_cut = now
            if record.min_rate is None or new < record.min_rate:
                record.min_rate = new
        elif new > old:
            record.rate_raises += 1

    def on_control(self, flow_id: int, kind: str, count: int,
                   now: float) -> None:
        """A control-plane signal arrived at the sender (CNP/ACK)."""
        record = self._flow(flow_id)
        if kind == "cnp":
            record.cnps += count
        elif kind == "ack":
            record.acks += count
        elif kind == "marked_window":
            record.marked_windows += count

    # -- attribution ----------------------------------------------------------

    def finalize(self) -> None:
        """Close open pauses and compute every flow's decomposition."""
        for record in self._flows.values():
            self._attribute(record)
        self._finalized = True

    def _attribute(self, record: FlowRecord) -> None:
        flow = record.flow
        completed = flow is not None and flow.completed
        serialization = record.pacing_serialization_s
        queueing = 0.0
        paused = 0.0
        propagation = 0.0
        path = self._path(record)
        for hop in path:
            if hop.last_finish is None:
                continue
            serialization += hop.last_serialization
            propagation += hop.delay
            if hop.last_wait_enqueue is not None and \
                    hop.last_start is not None:
                wait = max(hop.last_start - hop.last_wait_enqueue, 0.0)
                log = self._pauses.get((record.context, hop.port))
                overlap = 0.0 if log is None else min(
                    log.overlap(hop.last_wait_enqueue, hop.last_start),
                    wait)
                queueing += wait - overlap
                paused += overlap
        components = {
            "serialization_s": serialization,
            "queueing_s": queueing,
            "paused_s": paused,
            "rate_limited_s": record.rate_limited_s,
            "propagation_s": propagation,
            "residual_s": 0.0,
        }
        record.completed = completed
        if completed:
            fct = flow.completion_time - flow.start_time
            record.fct_s = fct
            components["residual_s"] = fct - sum(
                components[k] for k in COMPONENTS
                if k != "residual_s")
        record.components = components
        record.causes = self._causes(record, path)

    def _path(self, record: FlowRecord) -> "List[HopRecord]":
        """Hops in traversal order (dict insertion = first-enqueue)."""
        return list(record.hops.values())

    def _causes(self, record: FlowRecord,
                path: "List[HopRecord]") -> List[dict]:
        causes: List[dict] = []
        for hop in path:
            if hop.marks > 0:
                causes.append({"kind": "ecn", "port": hop.port,
                               "marks": hop.marks})
                break  # marks persist downstream; first hop is origin
        for hop in path:
            if hop.last_wait_enqueue is None or hop.last_start is None:
                continue
            log = self._pauses.get((record.context, hop.port))
            if log is None:
                continue
            a = record.flow.start_time if record.flow is not None \
                else hop.last_wait_enqueue
            b = record.flow.completion_time if record.completed \
                else hop.last_finish
            if b is None:
                continue
            paused_s = log.overlap(a, b)
            if paused_s > 0.0:
                causes.append({
                    "kind": "pfc", "port": hop.port,
                    "paused_s": paused_s,
                    "pauses": log.count_overlapping(a, b)})
        if record.rate_cuts > 0:
            cause = {"kind": "rate", "cuts": record.rate_cuts,
                     "cnps": record.cnps,
                     "min_rate_bytes_per_s": record.min_rate,
                     "first_cut_s": record.first_cut,
                     "last_cut_s": record.last_cut}
            if record.marked_windows:
                cause["marked_windows"] = record.marked_windows
            causes.append(cause)
        if record.drops > 0:
            causes.append({"kind": "drops", "count": record.drops})
        return causes

    # -- output ---------------------------------------------------------------

    def records(self) -> List[FlowRecord]:
        """All flow records (finalize first for attributions)."""
        return list(self._flows.values())

    def flow_events(self) -> List[dict]:
        """One run-log ``flow`` event payload per flow."""
        if not self._finalized:
            self.finalize()
        events = []
        for record in self._flows.values():
            flow = record.flow
            event: Dict[str, Any] = {
                "flow_id": record.flow_id,
                "completed": record.completed,
                "components": dict(record.components or {}),
                "src": record.src,
                "dst": record.dst,
                "protocol": record.protocol,
                "packets": record.emitted,
                "drops": record.drops,
                "cnps": record.cnps,
                "rate_cuts": record.rate_cuts,
                "path": [hop.port for hop in record.hops.values()],
                "causes": record.causes,
            }
            if record.context is not None:
                event["context"] = record.context
            if flow is not None:
                event["size_bytes"] = flow.size_bytes
                event["start_s"] = flow.start_time
            if record.fct_s is not None:
                event["fct_s"] = record.fct_s
                residual = record.components["residual_s"]
                event["attributed_share"] = 1.0 - (
                    abs(residual) / record.fct_s) if record.fct_s > 0 \
                    else 1.0
            events.append(event)
        events.sort(key=lambda e: (e.get("context") or "",
                                   e["flow_id"]))
        return events

    def publish(self, registry) -> None:
        """Aggregate the breakdown into the metrics registry.

        Called once at finalization (never per packet): component
        *shares* of completed flows land in histograms under
        ``obs.forensics.*`` so report quantile tables and
        ``repro compare`` pick the breakdown up without new plumbing.
        """
        if not self._finalized:
            self.finalize()
        completed = [r for r in self._flows.values() if r.completed]
        registry.counter("obs.forensics.flows_total").inc(
            len(self._flows))
        registry.counter("obs.forensics.flows_completed_total").inc(
            len(completed))
        registry.counter("obs.forensics.drops_total").inc(
            sum(r.drops for r in self._flows.values()))
        for record in completed:
            registry.histogram("obs.forensics.fct_s").observe(
                record.fct_s)
            fct = record.fct_s
            if fct <= 0:
                continue
            for key in COMPONENTS:
                share = record.components[key] / fct
                if key == "residual_s":
                    share = abs(share)
                registry.histogram(
                    f"obs.forensics.{key[:-2]}_share").observe(share)

    def worst(self, k: int) -> List[FlowRecord]:
        """Completed flows with the largest FCTs, worst first."""
        if not self._finalized:
            self.finalize()
        done = [r for r in self._flows.values() if r.completed]
        done.sort(key=lambda r: r.fct_s, reverse=True)
        return done[:k]

    def worst_paused(self, k: int) -> List[dict]:
        """Flows most throttled by PFC pause, for verdict cross-links."""
        if not self._finalized:
            self.finalize()
        hit = [r for r in self._flows.values()
               if r.components is not None
               and r.components["paused_s"] > 0.0]
        hit.sort(key=lambda r: r.components["paused_s"], reverse=True)
        out = []
        for record in hit[:k]:
            entry = {"flow_id": record.flow_id,
                     "paused_s": record.components["paused_s"]}
            if record.context is not None:
                entry["context"] = record.context
            if record.fct_s is not None:
                entry["fct_s"] = record.fct_s
            ports = [c["port"] for c in record.causes
                     if c.get("kind") == "pfc"]
            if ports:
                entry["ports"] = ports
            out.append(entry)
        return out


# -- ambient ledger (the PR 3 active/null pattern) ----------------------------

_ledger: Optional[FlowLedger] = None
_requested = False


def active_ledger() -> Optional[FlowLedger]:
    """The installed ledger, or None when forensics is off."""
    return _ledger


def set_ledger(ledger: Optional[FlowLedger]
               ) -> Optional[FlowLedger]:
    """Install ``ledger`` (None disables); returns the previous one."""
    global _ledger
    previous = _ledger
    _ledger = ledger
    return previous


@contextmanager
def use_ledger(ledger: Optional[FlowLedger]
               ) -> Iterator[Optional[FlowLedger]]:
    """Scoped :func:`set_ledger`; always restores the previous one."""
    previous = set_ledger(ledger)
    try:
        yield ledger
    finally:
        set_ledger(previous)


def set_requested(flag: bool) -> None:
    """CLI switch: make ``Telemetry`` bundles create a ledger."""
    global _requested
    _requested = bool(flag)


def requested() -> bool:
    return _requested


def attach_flow_forensics(net, context: Optional[str] = None
                          ) -> Optional[FlowLedger]:
    """Wire the ambient ledger onto ``net`` (no-op when off).

    The experiment-side integration point, mirroring
    :func:`repro.obs.health.attach_packet_health`: experiments call it
    unconditionally after building a network (and before installing
    flows), and it costs nothing unless ``repro run --forensics``
    installed a ledger.
    """
    ledger = active_ledger()
    if ledger is None:
        return None
    ledger.attach(net, context=context)
    return ledger


# -- rendering (the `repro explain` layer) ------------------------------------

def _fmt_time(seconds: Optional[float]) -> str:
    if seconds is None:
        return "-"
    if abs(seconds) >= 1.0:
        return f"{seconds:.3f}s"
    if abs(seconds) >= 1e-3:
        return f"{seconds * 1e3:.3f}ms"
    return f"{seconds * 1e6:.2f}us"


def _fmt_rate(rate: Optional[float]) -> str:
    if rate is None:
        return "-"
    return f"{rate * 8 / 1e9:.3g}Gb/s"


def _describe_cause(cause: dict) -> str:
    kind = cause.get("kind")
    if kind == "ecn":
        return (f"{cause['port']} marked {cause['marks']} of this "
                f"flow's packets CE")
    if kind == "pfc":
        return (f"PFC paused {cause['port']} for "
                f"{_fmt_time(cause['paused_s'])} across "
                f"{cause['pauses']} pause interval(s) during the flow")
    if kind == "rate":
        window = ""
        if cause.get("first_cut_s") is not None:
            window = (f" between {_fmt_time(cause['first_cut_s'])} and "
                      f"{_fmt_time(cause['last_cut_s'])}")
        feedback = ""
        if cause.get("cnps"):
            feedback = f", {cause['cnps']} CNP(s)"
        elif cause.get("marked_windows"):
            feedback = f", {cause['marked_windows']} marked window(s)"
        return (f"congestion control cut the rate {cause['cuts']} "
                f"time(s){window} (floor "
                f"{_fmt_rate(cause.get('min_rate_bytes_per_s'))}"
                f"{feedback})")
    if kind == "drops":
        return f"{cause['count']} packet(s) tail-dropped"
    return str(cause)


def render_flow(event: dict) -> str:
    """Attribution table + causal chain for one ``flow`` event."""
    lines = []
    context = f" [{event['context']}]" if event.get("context") else ""
    route = ""
    if event.get("src"):
        route = f"  {event['src']} -> {event['dst']}"
    size = ""
    if event.get("size_bytes") is not None:
        size = f"  {event['size_bytes']}B"
    status = "completed" if event["completed"] else "INCOMPLETE"
    fct = event.get("fct_s")
    fct_text = f"  FCT {_fmt_time(fct)}" if fct is not None else ""
    lines.append(f"flow {event['flow_id']}{context}{route}{size}"
                 f"{fct_text}  ({status})")
    components = event.get("components") or {}
    if components:
        lines.append(f"  {'component':<16} {'time':>12} {'share':>8}")
        for key in COMPONENTS:
            if key not in components:
                continue
            value = components[key]
            share = f"{value / fct * 100:6.1f}%" if fct else "     -"
            lines.append(f"  {key[:-2]:<16} "
                         f"{_fmt_time(value):>12} {share:>8}")
    if event.get("attributed_share") is not None:
        lines.append(f"  attributed: "
                     f"{event['attributed_share'] * 100:.2f}% of FCT")
    causes = event.get("causes") or []
    if causes:
        lines.append("  causal chain:")
        for cause in causes:
            lines.append(f"    - {_describe_cause(cause)}")
    path = event.get("path") or []
    if path:
        lines.append(f"  path: {' -> '.join(path)}")
    return "\n".join(lines)


def render_explain(events: List[dict], flow_id: Optional[int] = None,
                   worst: int = 5,
                   context: Optional[str] = None) -> str:
    """The ``repro explain`` output over a run's ``flow`` events."""
    flows = [e for e in events if e.get("type") == "flow"
             or "components" in e]
    if context is not None:
        flows = [e for e in flows if e.get("context") == context]
    if not flows:
        return ("no flow events found -- was the run made with "
                "`repro run --forensics`?")
    if flow_id is not None:
        selected = [e for e in flows if e["flow_id"] == flow_id]
        if not selected:
            known = sorted({e["flow_id"] for e in flows})
            return (f"flow {flow_id} not in this log; known flow ids: "
                    f"{known}")
        return "\n\n".join(render_flow(e) for e in selected)
    done = [e for e in flows if e.get("fct_s") is not None]
    done.sort(key=lambda e: e["fct_s"], reverse=True)
    chosen = done[:worst]
    header = (f"{len(flows)} flow(s), {len(done)} completed; "
              f"showing the {len(chosen)} worst by FCT")
    body = "\n\n".join(render_flow(e) for e in chosen)
    incomplete = len(flows) - len(done)
    tail = f"\n\n({incomplete} flow(s) did not complete)" \
        if incomplete else ""
    return f"{header}\n\n{body}{tail}"
