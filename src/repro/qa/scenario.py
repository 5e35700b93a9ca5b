"""Scenario specs and the scenario executor.

A :class:`ScenarioSpec` is a *declarative, JSON-serializable* recipe
for one randomized conformance scenario: topology shape, traffic,
protocol parameter overrides, AQM profile and an optional fault plan.
Everything the run needs is derived deterministically from the spec
(markers and fault injectors are seeded from ``spec.seed``), so the
same spec replayed under the same variant produces the same
trace bit-for-bit -- which is exactly what lets
:mod:`repro.qa.differential` compare variants and
:mod:`repro.qa.shrink` binary-search a failure down to a minimal
reproducer that a :class:`~repro.perf.resilience.CrashCapsule` can
carry.

Validity envelopes
------------------
The fuzzer (and :meth:`ScenarioSpec.validate`) keep scenarios inside
the ranges the simulator's components are specified for:

* topology: ``single_switch`` (1-16 senders), ``dumbbell`` (1-8
  pairs), ``parking_lot`` (1-4 segments), ``leaf_spine`` (2-4 leaves,
  1-2 spines, 1-4 hosts/leaf);
* links: 1-100 Gbps, 1-20 us delay;
* traffic: 1-16 finite flows of 4 KB - 1 MB with start jitter inside
  ``[0, duration/4)``, or long-lived DCQCN flows on the RED-marked
  star;
* AQM: RED with ``0 < kmin < kmax`` and ``0 < pmax <= 1``, or PI with
  a positive reference queue, both expressed in KB of queue;
* parameter overrides: any values the frozen dataclasses in
  :mod:`repro.core.params` accept (their ``__post_init__`` validation
  is the envelope);
* faults: loss/corruption rates in (0, 1], feedback delays up to
  100 us, flaps (drop mode) confined to the first half of the run so
  every transient settles before the end-of-run oracles fire.

The executor (:func:`run_scenario`) runs one spec under one
:class:`Variant` (forensics off or on) and returns a structured
:class:`ScenarioOutcome`; :func:`outcome_digest` reduces the
behaviour-defining parts (trace stream, flow completions, port
counters) to a hash that bit-identical variants must agree on.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro import units
from repro.core.params import (
    DCQCNParams,
    DCTCPParams,
    PatchedTimelyParams,
    PIParams,
    REDParams,
    TimelyParams,
)
from repro.obs.forensics import FlowLedger, attach_flow_forensics, use_ledger
from repro.sim.engine import SimulationAborted, Simulator
from repro.sim.faults import (
    FaultPlan,
    FeedbackDelay,
    LinkFlap,
    PacketLoss,
    collect_ports,
    install,
)
from repro.sim.flows import FlowRegistry
from repro.sim.invariants import InvariantMonitor
from repro.sim.leaf_spine import leaf_spine
from repro.sim.node import Host
from repro.sim.packet import PACKET_POOL
from repro.sim.parking_lot import parking_lot
from repro.sim.pfc import PFCController
from repro.sim.piaqm import PIMarker
from repro.sim.red import REDMarker
from repro.sim.switch import Switch, connect
from repro.sim.topology import Network, dumbbell, install_flow, single_switch
from repro.sim.tracing import PacketTracer

#: Topologies the harness can build.
TOPOLOGIES = ("single_switch", "dumbbell", "parking_lot", "leaf_spine")

#: AQM profiles (``"none"`` leaves every queue unmarked).
AQMS = ("none", "red", "pi")

#: Protocols a flow may use.
FLOW_PROTOCOLS = ("dcqcn", "timely", "patched_timely", "dctcp")

#: Fault kinds a :class:`FaultSpec` may carry.
FAULT_KINDS = ("loss", "corrupt", "delay", "flap")

#: Hard event budget per scenario run -- a watchdog, not a tuning
#: knob; a healthy fuzz scenario is orders of magnitude below it.
MAX_EVENTS = 3_000_000

#: Wall-clock watchdog per scenario run, seconds.
MAX_WALL_SECONDS = 120.0

@dataclass(frozen=True)
class FlowSpec:
    """One flow of a scenario (src/dst are topology host names)."""

    protocol: str
    src: str
    dst: str
    size_bytes: Optional[int]     #: None = long-lived
    start_time: float = 0.0

    def to_dict(self) -> dict:
        return {"protocol": self.protocol, "src": self.src,
                "dst": self.dst, "size_bytes": self.size_bytes,
                "start_time": self.start_time}

    @classmethod
    def from_dict(cls, data: dict) -> "FlowSpec":
        return cls(protocol=data["protocol"], src=data["src"],
                   dst=data["dst"], size_bytes=data["size_bytes"],
                   start_time=float(data["start_time"]))


@dataclass(frozen=True)
class FaultSpec:
    """One fault of a scenario, mapped onto :mod:`repro.sim.faults`.

    ``kind``: ``"loss"`` (black-hole Bernoulli loss), ``"corrupt"``
    (delivered-but-CRC-failed), ``"delay"`` (extra feedback latency)
    or ``"flap"`` (drop-mode link down).  Hold-mode flaps are
    deliberately excluded: the leak oracle accounts packets by their
    terminal sink, and held packets are neither delivered nor dropped
    until the flap ends.
    """

    kind: str
    port: str
    rate: float = 0.0           #: loss/corrupt probability
    extra: float = 0.0          #: delay: deterministic extra seconds
    jitter: float = 0.0         #: delay: uniform extra in [0, jitter)
    start: float = 0.0
    stop: Optional[float] = None
    duration: float = 0.0       #: flap: down time, seconds

    def to_dict(self) -> dict:
        return {"kind": self.kind, "port": self.port, "rate": self.rate,
                "extra": self.extra, "jitter": self.jitter,
                "start": self.start, "stop": self.stop,
                "duration": self.duration}

    @classmethod
    def from_dict(cls, data: dict) -> "FaultSpec":
        return cls(kind=data["kind"], port=data["port"],
                   rate=float(data.get("rate", 0.0)),
                   extra=float(data.get("extra", 0.0)),
                   jitter=float(data.get("jitter", 0.0)),
                   start=float(data.get("start", 0.0)),
                   stop=data.get("stop"),
                   duration=float(data.get("duration", 0.0)))

    def to_fault(self) -> object:
        """Materialize the :mod:`repro.sim.faults` object."""
        if self.kind == "loss":
            return PacketLoss(port=self.port, rate=self.rate,
                              start=self.start, stop=self.stop)
        if self.kind == "corrupt":
            return PacketLoss(port=self.port, rate=self.rate,
                              start=self.start, stop=self.stop,
                              corrupt=True)
        if self.kind == "delay":
            return FeedbackDelay(port=self.port, extra=self.extra,
                                 jitter=self.jitter, start=self.start,
                                 stop=self.stop)
        if self.kind == "flap":
            return LinkFlap(port=self.port, start=self.start,
                            duration=self.duration, mode="drop")
        raise ValueError(f"unknown fault kind {self.kind!r}")


@dataclass(frozen=True)
class Variant:
    """One point of the differential matrix a scenario runs under."""

    name: str = "baseline"
    forensics: bool = False         #: attach a FlowLedger

    def label(self) -> str:
        return "forensics" if self.forensics else "baseline"


@dataclass(frozen=True)
class ScenarioSpec:
    """Declarative description of one conformance scenario."""

    topology: str
    topology_args: Dict[str, int] = field(default_factory=dict)
    link_gbps: float = 10.0
    link_delay_us: float = 2.0
    aqm: str = "none"
    aqm_args: Dict[str, float] = field(default_factory=dict)
    flows: Tuple[FlowSpec, ...] = ()
    param_overrides: Dict[str, Dict[str, float]] = \
        field(default_factory=dict)
    faults: Tuple[FaultSpec, ...] = ()
    duration: float = 0.01
    seed: int = 0
    buffer_kb: Optional[float] = None   #: finite bottleneck buffer
    pfc: bool = False                   #: single_switch star only

    # -- serialization ---------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "topology": self.topology,
            "topology_args": dict(self.topology_args),
            "link_gbps": self.link_gbps,
            "link_delay_us": self.link_delay_us,
            "aqm": self.aqm,
            "aqm_args": dict(self.aqm_args),
            "flows": [f.to_dict() for f in self.flows],
            "param_overrides": {proto: dict(vals) for proto, vals
                                in self.param_overrides.items()},
            "faults": [f.to_dict() for f in self.faults],
            "duration": self.duration,
            "seed": self.seed,
            "buffer_kb": self.buffer_kb,
            "pfc": self.pfc,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ScenarioSpec":
        return cls(
            topology=data["topology"],
            topology_args={k: int(v) for k, v
                           in data.get("topology_args", {}).items()},
            link_gbps=float(data.get("link_gbps", 10.0)),
            link_delay_us=float(data.get("link_delay_us", 2.0)),
            aqm=data.get("aqm", "none"),
            aqm_args={k: float(v) for k, v
                      in data.get("aqm_args", {}).items()},
            flows=tuple(FlowSpec.from_dict(f)
                        for f in data.get("flows", [])),
            param_overrides={proto: dict(vals) for proto, vals
                             in data.get("param_overrides",
                                         {}).items()},
            faults=tuple(FaultSpec.from_dict(f)
                         for f in data.get("faults", [])),
            duration=float(data.get("duration", 0.01)),
            seed=int(data.get("seed", 0)),
            buffer_kb=data.get("buffer_kb"),
            pfc=bool(data.get("pfc", False)),
        )

    def replace(self, **changes) -> "ScenarioSpec":
        import dataclasses
        return dataclasses.replace(self, **changes)

    def key(self) -> str:
        """Short content hash identifying this scenario."""
        canon = json.dumps(self.to_dict(), sort_keys=True)
        return hashlib.sha256(canon.encode()).hexdigest()[:12]

    # -- semantics -------------------------------------------------------

    @property
    def long_lived(self) -> bool:
        """True when any flow has no size (runs for the whole span)."""
        return any(f.size_bytes is None for f in self.flows)

    def validate(self) -> None:
        """Raise ``ValueError`` when outside the documented envelope."""
        if self.topology not in TOPOLOGIES:
            raise ValueError(f"unknown topology {self.topology!r}")
        if self.aqm not in AQMS:
            raise ValueError(f"unknown aqm {self.aqm!r}")
        if not 0.5 <= self.link_gbps <= 100.0:
            raise ValueError(f"link_gbps {self.link_gbps} outside "
                             "[0.5, 100]")
        if not 0.5 <= self.link_delay_us <= 20.0:
            raise ValueError(f"link_delay_us {self.link_delay_us} "
                             "outside [0.5, 20]")
        if self.duration <= 0:
            raise ValueError("duration must be positive")
        if not self.flows:
            raise ValueError("a scenario needs at least one flow")
        hosts = set(host_names(self))
        for flow in self.flows:
            if flow.protocol not in FLOW_PROTOCOLS:
                raise ValueError(
                    f"unknown protocol {flow.protocol!r}")
            if flow.src not in hosts or flow.dst not in hosts:
                raise ValueError(
                    f"flow {flow.src}->{flow.dst} references hosts "
                    f"outside the {self.topology} topology")
            if flow.size_bytes is not None and flow.size_bytes < 1024:
                raise ValueError("finite flows must carry >= 1 KB")
            if not 0.0 <= flow.start_time < self.duration:
                raise ValueError("flow start must fall in the run")
        ports = set(port_names(self))
        for fault in self.faults:
            if fault.kind not in FAULT_KINDS:
                raise ValueError(f"unknown fault kind {fault.kind!r}")
            if fault.port not in ports:
                raise ValueError(
                    f"fault references unknown port {fault.port!r}")
        if self.pfc and self.topology != "single_switch":
            raise ValueError("pfc is only modelled on single_switch")
        if self.buffer_kb is not None \
                and self.topology != "single_switch":
            raise ValueError(
                "finite buffers are only modelled on single_switch")
        # Materializing the derived objects runs the dataclasses' own
        # __post_init__ validation -- the authoritative envelope.
        for proto in {f.protocol for f in self.flows}:
            resolve_params(self, proto)
        _make_marker(self, 0)
        for fault in self.faults:
            fault.to_fault()


# -- topology knowledge --------------------------------------------------


def host_names(spec: ScenarioSpec) -> List[str]:
    """Host names the spec's topology will create (deterministic)."""
    args = spec.topology_args
    if spec.topology == "single_switch":
        n = args.get("n_senders", 2)
        return [f"s{i}" for i in range(n)] + ["recv"]
    if spec.topology == "dumbbell":
        n = args.get("n_pairs", 2)
        return [f"s{i}" for i in range(n)] + \
               [f"r{i}" for i in range(n)]
    if spec.topology == "parking_lot":
        n = args.get("n_segments", 2)
        names = ["sx", "rx"]
        for i in range(n):
            names += [f"s{i}", f"r{i}"]
        return names
    if spec.topology == "leaf_spine":
        leaves = args.get("n_leaves", 2)
        per = args.get("hosts_per_leaf", 2)
        return [f"h{leaf}_{i}" for leaf in range(leaves)
                for i in range(per)]
    raise ValueError(f"unknown topology {spec.topology!r}")


def port_names(spec: ScenarioSpec) -> List[str]:
    """Port names the spec's topology will create.

    Mirrors the builders' ``connect`` calls (ports are named
    ``"<src>-><dst>"``); property-tested against
    :func:`repro.sim.faults.collect_ports` on the built network.
    """
    args = spec.topology_args
    names: List[str] = []
    if spec.topology == "single_switch":
        n = args.get("n_senders", 2)
        names.append("sw->recv")
        for i in range(n):
            names += [f"s{i}->sw", f"sw->s{i}"]
        names.append("recv->sw")
    elif spec.topology == "dumbbell":
        n = args.get("n_pairs", 2)
        names += ["sw1->sw2", "sw2->sw1"]
        for i in range(n):
            names += [f"s{i}->sw1", f"sw1->s{i}",
                      f"r{i}->sw2", f"sw2->r{i}"]
    elif spec.topology == "parking_lot":
        n = args.get("n_segments", 2)
        for i in range(n):
            names += [f"sw{i}->sw{i + 1}", f"sw{i + 1}->sw{i}"]
        names += ["sx->sw0", "sw0->sx", f"rx->sw{n}", f"sw{n}->rx"]
        for i in range(n):
            names += [f"s{i}->sw{i}", f"sw{i}->s{i}",
                      f"r{i}->sw{i + 1}", f"sw{i + 1}->r{i}"]
    elif spec.topology == "leaf_spine":
        leaves = args.get("n_leaves", 2)
        spines = args.get("n_spines", 1)
        per = args.get("hosts_per_leaf", 2)
        for leaf in range(leaves):
            for spine in range(spines):
                names += [f"leaf{leaf}->spine{spine}",
                          f"spine{spine}->leaf{leaf}"]
        for leaf in range(leaves):
            for i in range(per):
                host = f"h{leaf}_{i}"
                names += [f"{host}->leaf{leaf}",
                          f"leaf{leaf}->{host}"]
    else:
        raise ValueError(f"unknown topology {spec.topology!r}")
    return names


# -- derived objects -----------------------------------------------------


def resolve_params(spec: ScenarioSpec, protocol: str) -> object:
    """The parameter object a protocol's flows run with.

    Paper defaults for the spec's link speed and per-protocol flow
    count, with the spec's ``param_overrides`` applied on top via the
    frozen dataclasses' ``replace`` (so every override re-runs the
    dataclass validation -- the envelope).
    """
    n = max(1, sum(1 for f in spec.flows if f.protocol == protocol))
    overrides = dict(spec.param_overrides.get(protocol, {}))
    if protocol == "dcqcn":
        params: Any = DCQCNParams.paper_default(
            capacity_gbps=spec.link_gbps, num_flows=n)
        return params.replace(**overrides) if overrides else params
    if protocol == "timely":
        params = TimelyParams.paper_default(
            capacity_gbps=spec.link_gbps, num_flows=n,
            prop_delay_us=spec.link_delay_us)
        return params.replace(**overrides) if overrides else params
    if protocol == "patched_timely":
        params = PatchedTimelyParams.paper_default(
            capacity_gbps=spec.link_gbps, num_flows=n,
            prop_delay_us=spec.link_delay_us)
        return params.replace_base(**overrides) if overrides \
            else params
    if protocol == "dctcp":
        base = DCTCPParams()
        if overrides:
            import dataclasses
            return dataclasses.replace(base, **overrides)
        return base
    raise ValueError(f"unknown protocol {protocol!r}")


def _make_marker(spec: ScenarioSpec, index: int) -> Optional[object]:
    """A fresh AQM marker for bottleneck ``index`` (seeded)."""
    mtu = units.DEFAULT_MTU_BYTES
    seed = spec.seed * 1009 + index
    if spec.aqm == "none":
        return None
    if spec.aqm == "red":
        red = REDParams(
            kmin=units.kb_to_packets(
                spec.aqm_args.get("kmin_kb", 5.0), mtu),
            kmax=units.kb_to_packets(
                spec.aqm_args.get("kmax_kb", 200.0), mtu),
            pmax=spec.aqm_args.get("pmax", 0.01))
        return REDMarker(red, mtu, seed=seed)
    if spec.aqm == "pi":
        pi = PIParams.for_dcqcn(
            q_ref_kb=spec.aqm_args.get("q_ref_kb", 50.0))
        return PIMarker(pi, mtu, seed=seed)
    raise ValueError(f"unknown aqm {spec.aqm!r}")


def _build_star_pfc(spec: ScenarioSpec) -> Network:
    """single_switch star with a finite buffer and/or PFC.

    The stock builder models infinite buffers; finite-buffer and PFC
    scenarios get the incast-experiment star (one switch, finite
    bottleneck egress, PAUSE callbacks onto the sender NICs) so the
    PFC-pairing oracle has something to bite on.
    """
    sim = Simulator()
    rate = spec.link_gbps * 1e9 / units.BITS_PER_BYTE
    delay = units.us(spec.link_delay_us)
    n = spec.topology_args.get("n_senders", 2)
    pfc = None
    if spec.pfc:
        pause_kb = spec.aqm_args.get("pause_kb", 20.0)
        pfc = PFCController(
            sim,
            pause_threshold_bytes=int(pause_kb * 1024),
            resume_threshold_bytes=int(pause_kb * 512))
    switch = Switch(sim, "sw", pfc=pfc)
    receiver = Host(sim, "recv")
    hosts = {"recv": receiver}
    capacity = None if spec.buffer_kb is None \
        else int(spec.buffer_kb * 1024)
    bottleneck = connect(sim, switch, receiver, rate, delay,
                         marker=_make_marker(spec, 0),
                         capacity_bytes=capacity)
    switch.add_route("recv", "recv")
    connect(sim, receiver, switch, rate, delay)
    for i in range(n):
        sender = Host(sim, f"s{i}")
        hosts[sender.name] = sender
        nic = connect(sim, sender, switch, rate, delay)
        connect(sim, switch, sender, rate, delay)
        switch.add_route(sender.name, sender.name)
        if pfc is not None:
            pfc.register_upstream(
                sender.name,
                lambda pause, port=nic: port.pause() if pause
                else port.resume(),
                reverse_delay=delay)
    return Network(sim=sim, hosts=hosts, switches={"sw": switch},
                   registry=FlowRegistry(), bottleneck_port=bottleneck,
                   mtu_bytes=units.DEFAULT_MTU_BYTES,
                   link_rate_bytes=rate)


def build_network(spec: ScenarioSpec) -> Network:
    """Build the spec's topology."""
    delay = units.us(spec.link_delay_us)
    args = spec.topology_args
    if spec.topology == "single_switch":
        if spec.pfc or spec.buffer_kb is not None:
            return _build_star_pfc(spec)
        return single_switch(args.get("n_senders", 2),
                             link_gbps=spec.link_gbps,
                             link_delay=delay,
                             marker=_make_marker(spec, 0))
    if spec.topology == "dumbbell":
        return dumbbell(args.get("n_pairs", 2),
                        link_gbps=spec.link_gbps,
                        link_delay=delay,
                        marker=_make_marker(spec, 0))
    if spec.topology == "parking_lot":
        return parking_lot(args.get("n_segments", 2),
                           link_gbps=spec.link_gbps,
                           link_delay=delay,
                           marker_factory=lambda i:
                               _make_marker(spec, i))
    if spec.topology == "leaf_spine":
        counter = iter(range(1, 1_000_000))
        return leaf_spine(n_leaves=args.get("n_leaves", 2),
                          n_spines=args.get("n_spines", 1),
                          hosts_per_leaf=args.get("hosts_per_leaf", 2),
                          host_gbps=spec.link_gbps,
                          spine_gbps=spec.link_gbps,
                          link_delay=delay,
                          marker_factory=(
                              (lambda: _make_marker(spec,
                                                    next(counter)))
                              if spec.aqm != "none" else None))
    raise ValueError(f"unknown topology {spec.topology!r}")


# -- execution -----------------------------------------------------------


@dataclass
class ScenarioOutcome:
    """Everything the oracles and the differential compare look at."""

    spec_key: str
    variant: Variant
    flows: List[dict]
    trace: List[tuple]
    ports: Dict[str, dict]
    invariant_violations: List[str]
    pool: dict
    fault_stats: dict
    queue_samples: List[Tuple[float, int]]
    events_processed: int
    sim_time: float
    aborted: Optional[str] = None
    forensics: Optional[List[dict]] = None
    trace_truncated: bool = False


def run_scenario(spec: ScenarioSpec,
                 variant: Variant = Variant()) -> ScenarioOutcome:
    """Execute one spec under one variant."""
    ledger = FlowLedger() if variant.forensics else None
    with use_ledger(ledger):
        return _run_scenario_inner(spec, variant, ledger)


def _run_scenario_inner(spec: ScenarioSpec, variant: Variant,
                        ledger: Optional[FlowLedger]
                        ) -> ScenarioOutcome:
    net = build_network(spec)
    attach_flow_forensics(net, context=f"qa-{spec.key()}")
    ports = collect_ports(net)

    tracer = PacketTracer(net.sim, max_events=400_000)
    for name in sorted(ports):
        tracer.attach(ports[name])

    injector = None
    if spec.faults:
        plan = FaultPlan([f.to_fault() for f in spec.faults])
        injector = install(net, plan, seed=spec.seed)

    aborted = None
    with PACKET_POOL.debug_session() as pool:
        for fs in spec.flows:
            install_flow(net, fs.protocol, fs.src, fs.dst,
                         fs.size_bytes, fs.start_time,
                         resolve_params(spec, fs.protocol))

        samples: List[Tuple[float, int]] = []
        bottleneck = net.bottleneck_port
        net.sim.sample_every(
            max(spec.duration / 256.0, 1e-6),
            lambda now: samples.append(
                (now, bottleneck.queue.size_bytes)))
        # After install: the monitor snapshots net.senders.
        monitor = InvariantMonitor.for_network(
            net, interval=max(spec.duration / 64.0, 1e-6))
        try:
            net.sim.run(until=spec.duration,
                        max_events=MAX_EVENTS,
                        max_wall_seconds=MAX_WALL_SECONDS)
        except SimulationAborted as abort:
            aborted = abort.reason
        outstanding = pool.outstanding
        double_releases = pool.double_releases
        leaked = pool.outstanding_packets()

    flows = _collect_flows(net)

    port_stats = {}
    for name, port in sorted(ports.items()):
        port_stats[name] = {
            "bytes_transmitted": port.bytes_transmitted,
            "packets_transmitted": port.packets_transmitted,
            "ecn_marks": port.ecn_marks,
            "queue_dropped_packets": port.queue.dropped_packets,
            "queue_dropped_bytes": port.queue.dropped_bytes,
            "control_dropped_packets": (
                port.control_queue.dropped_packets
                if port.control_queue is not None else 0),
            "queued_at_end": len(port.queue) + (
                len(port.control_queue)
                if port.control_queue is not None else 0),
        }

    fault_stats = {}
    if injector is not None:
        stats = injector.stats
        fault_stats = {
            "lost_packets": stats.lost_packets,
            "corrupted_packets": stats.corrupted_packets,
            "delayed_packets": stats.delayed_packets,
            "flap_drops": stats.flap_drops,
            "held_packets": stats.held_packets,
        }

    forensic_events = None
    if ledger is not None:
        ledger.finalize()
        forensic_events = ledger.flow_events()

    trace = [(e.time, e.port_name, e.kind, e.flow_id, e.seq,
              e.size_bytes, e.ecn_marked, e.dropped)
             for e in tracer.events]

    return ScenarioOutcome(
        spec_key=spec.key(),
        variant=variant,
        flows=flows,
        trace=trace,
        ports=port_stats,
        invariant_violations=[str(v) for v in monitor.violations],
        pool={"outstanding": outstanding,
              "double_releases": double_releases,
              "leaked_examples": leaked},
        fault_stats=fault_stats,
        queue_samples=samples,
        events_processed=net.sim.events_processed,
        sim_time=net.sim.now,
        aborted=aborted,
        forensics=forensic_events,
        trace_truncated=tracer.dropped_events > 0,
    )


def _collect_flows(net: Network) -> List[dict]:
    """Per-flow accounting rows from the registry."""
    rows = []
    for flow in net.registry.flows.values():
        rows.append({
            "flow_id": flow.flow_id,
            "src": flow.src,
            "dst": flow.dst,
            "size_bytes": flow.size_bytes,
            "start_time": flow.start_time,
            "bytes_sent": flow.bytes_sent,
            "bytes_delivered": flow.bytes_delivered,
            "completed": flow.completed,
            "fct": flow.fct if flow.completed else None,
        })
    return rows


def outcome_digest(outcome: ScenarioOutcome) -> str:
    """Hash of the behaviour-defining parts of an outcome.

    Forensics off and on must agree on this digest: the full
    per-packet trace stream (exact float stamps), every flow's byte
    totals and completion time, and the per-port counters.  Pool and
    forensic bookkeeping are deliberately excluded -- they vary with
    the observation machinery, not with simulated behaviour.
    """
    hasher = hashlib.sha256()
    for event in outcome.trace:
        hasher.update(repr(event).encode())
    for flow in outcome.flows:
        hasher.update(repr((flow["flow_id"], flow["bytes_sent"],
                            flow["bytes_delivered"], flow["completed"],
                            flow["fct"])).encode())
    for name, stats in sorted(outcome.ports.items()):
        hasher.update(repr((name, sorted(stats.items()))).encode())
    return hasher.hexdigest()
