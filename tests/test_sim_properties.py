"""Property-based simulator invariants (hypothesis).

Randomized flow sets and scenarios must never violate the physical
invariants of a lossless network: byte conservation, per-flow FIFO
delivery, non-negative queues, and deterministic replay.

:class:`TestScenarioOracles` draws whole scenarios -- any of the four
topology builders, the four protocols, an optional RED marker and an
optional seeded packet-loss fault -- and checks each run against
scenario-independent oracles: forensics off and on are bit-identical,
the packet pool neither leaks nor double-releases, lossless flows
complete, no watchdog fires, completed flows are causally attributed,
and the invariant monitor, byte conservation and per-port time order
hold.  :class:`TestSeededMutations` proves the oracles can fail.
"""

import hashlib
import itertools
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import units
from repro.core.params import (
    DCQCNParams,
    DCTCPParams,
    PatchedTimelyParams,
    REDParams,
    TimelyParams,
)
from repro.obs.forensics import FlowLedger, attach_flow_forensics, use_ledger
from repro.sim.engine import SimulationAborted, Simulator
from repro.sim.faults import FaultPlan, PacketLoss, collect_ports, install
from repro.sim.invariants import InvariantMonitor
from repro.sim.leaf_spine import cross_rack_pairs, leaf_spine
from repro.sim.link import Link, Port
from repro.sim.node import Host
from repro.sim.packet import PACKET_POOL, Packet
from repro.sim.parking_lot import parking_lot
from repro.sim.red import REDMarker
from repro.sim.topology import dumbbell, install_flow, single_switch
from repro.sim.tracing import PacketTracer

#: Keep the randomized packet-level runs short: each example is a full
#: discrete-event simulation.
FAST = settings(max_examples=12, deadline=None)


class RecordingReceiver:
    """Captures delivery order for FIFO checks."""

    name = "recv"

    def __init__(self):
        self.sequence_by_flow = {}

    def receive(self, packet, ingress=None):
        self.sequence_by_flow.setdefault(packet.flow_id,
                                         []).append(packet.seq)


class TestFIFODelivery:
    @given(st.lists(st.tuples(st.integers(min_value=0, max_value=3),
                              st.integers(min_value=64,
                                          max_value=1500)),
                    min_size=1, max_size=60))
    @FAST
    def test_per_flow_order_preserved(self, sends):
        """Packets of each flow arrive in emission order through a
        port, whatever the interleaving and sizes."""
        sim = Simulator()
        receiver = RecordingReceiver()
        port = Port(sim, 1e8, Link(sim, 1e-6, receiver))
        counters = {}
        for flow_id, size in sends:
            seq = counters.get(flow_id, 0)
            counters[flow_id] = seq + 1
            port.send(Packet(flow_id, size, "s", "recv", kind="data",
                             seq=seq))
        sim.run()
        for flow_id, seqs in receiver.sequence_by_flow.items():
            assert seqs == sorted(seqs)
        delivered = sum(len(v) for v in
                        receiver.sequence_by_flow.values())
        assert delivered == len(sends)


class TestConservation:
    @given(st.integers(min_value=1, max_value=4),
           st.integers(min_value=8, max_value=64),
           st.integers(min_value=0, max_value=2 ** 16))
    @FAST
    def test_dcqcn_delivers_exactly_what_flows_send(self, n_flows,
                                                    size_kb, seed):
        params = DCQCNParams.paper_default(capacity_gbps=10,
                                           num_flows=n_flows)
        marker = REDMarker(params.red, params.mtu_bytes, seed=seed)
        net = single_switch(n_flows, link_gbps=10, marker=marker)
        done = []
        for i in range(n_flows):
            install_flow(net, "dcqcn", f"s{i}", "recv",
                         size_kb * 1024, 0.0, params,
                         on_complete=done.append)
        net.sim.run(until=0.05)
        assert len(done) == n_flows
        for flow in done:
            assert flow.bytes_delivered == flow.size_bytes
            assert flow.bytes_sent == flow.size_bytes
            assert flow.fct > 0

    @given(st.sampled_from(["dcqcn", "timely", "dctcp"]),
           st.integers(min_value=4, max_value=128))
    @FAST
    def test_any_protocol_conserves_bytes(self, protocol, size_kb):
        if protocol == "dcqcn":
            params = DCQCNParams.paper_default(capacity_gbps=10,
                                               num_flows=1)
        elif protocol == "timely":
            params = TimelyParams.paper_default(capacity_gbps=10)
        else:
            params = DCTCPParams()
        net = single_switch(1, link_gbps=10)
        done = []
        install_flow(net, protocol, "s0", "recv", size_kb * 1024,
                     0.0, params, on_complete=done.append)
        net.sim.run(until=0.08)
        assert len(done) == 1
        flow = done[0]
        assert flow.bytes_delivered == size_kb * 1024
        # A sender never emits beyond the flow size.
        assert flow.bytes_sent == flow.size_bytes


class TestDeterminism:
    @given(st.integers(min_value=0, max_value=2 ** 16))
    @FAST
    def test_identical_seeds_replay_identically(self, seed):
        def run_once():
            params = DCQCNParams.paper_default(capacity_gbps=10,
                                               num_flows=2)
            marker = REDMarker(params.red, params.mtu_bytes,
                               seed=seed)
            net = single_switch(2, link_gbps=10, marker=marker)
            for i in range(2):
                install_flow(net, "dcqcn", f"s{i}", "recv", None,
                             0.0, params)
            net.sim.run(until=0.005)
            return (net.sim.events_processed,
                    net.bottleneck_port.bytes_transmitted,
                    tuple(net.senders[i].rate for i in range(2)))

        assert run_once() == run_once()


class TestQueueBounds:
    @given(st.integers(min_value=1, max_value=8))
    @FAST
    def test_occupancy_never_negative_and_bounded_by_arrivals(self,
                                                              n_flows):
        params = DCQCNParams.paper_default(capacity_gbps=10,
                                           num_flows=n_flows)
        net = single_switch(n_flows, link_gbps=10)
        for i in range(n_flows):
            install_flow(net, "dcqcn", f"s{i}", "recv", 32 * 1024,
                         0.0, params)
        from repro.sim.monitors import QueueMonitor
        monitor = QueueMonitor(net.sim, net.bottleneck_port,
                               interval=20e-6)
        net.sim.run(until=0.01)
        _, occupancy = monitor.as_arrays()
        assert np.all(occupancy >= 0)
        # The queue can never exceed what every flow injected.
        assert occupancy.max() <= n_flows * 32 * 1024


# -- scenario oracles ---------------------------------------------------------
#
# Randomized scenarios over the four topology builders, the four
# protocols, an optional RED marker and an optional seeded PacketLoss
# fault.  Every run is checked against scenario-independent oracles;
# hypothesis generates, shrinks and replays the failing examples.

#: Event-storm watchdog per run; a healthy scenario is far below it.
MAX_EVENTS = 2_000_000

ORACLES = settings(max_examples=25, deadline=None)

PROTOCOLS = ("dcqcn", "timely", "patched_timely", "dctcp")


def _endpoints(topology, shape):
    """Sender/receiver pairs native to each builder's host names."""
    if topology == "single_switch":
        return [(f"s{i}", "recv") for i in range(shape[0])]
    if topology == "dumbbell":
        return [(f"s{i}", f"r{i}") for i in range(shape[0])]
    if topology == "parking_lot":
        return [("sx", "rx")] + [(f"s{i}", f"r{i}")
                                 for i in range(shape[0])]
    return cross_rack_pairs(shape[0], shape[2])


@st.composite
def scenarios(draw, lossy=True):
    """One scenario as plain keyword values for :func:`_run`."""
    topology = draw(st.sampled_from(
        ["single_switch", "dumbbell", "parking_lot", "leaf_spine"]))
    if topology == "leaf_spine":
        shape = (draw(st.integers(2, 3)), draw(st.integers(1, 2)),
                 draw(st.integers(1, 2)))
    else:
        shape = (draw(st.integers(1, 4)),)
    link_gbps = draw(st.sampled_from([10.0, 25.0, 40.0]))
    endpoints = _endpoints(topology, shape)
    chosen = draw(st.lists(st.sampled_from(endpoints), min_size=1,
                           max_size=min(4, len(endpoints)), unique=True))
    flows = tuple(
        (draw(st.sampled_from(PROTOCOLS)), src, dst,
         draw(st.integers(4, 256)) * 1024,
         draw(st.integers(0, 2000)) * 1e-6)
        for src, dst in chosen)
    loss = None
    if lossy and draw(st.booleans()):
        loss = (draw(st.integers(0, 63)),
                draw(st.floats(0.005, 0.08)), draw(st.booleans()))
    # Horizon: the latest start plus 8x the serial transfer time plus a
    # settle margin, so a lossless run goes quiescent before the cutoff.
    serial = sum(f[3] for f in flows) / (link_gbps * 1e9 / 8.0)
    duration = max(f[4] for f in flows) + 8.0 * serial + 0.004
    return dict(topology=topology, shape=shape, link_gbps=link_gbps,
                link_delay_us=draw(st.integers(1, 8)),
                red=draw(st.booleans()),
                seed=draw(st.integers(0, 2 ** 16)),
                flows=flows, loss=loss, duration=duration)


def _build(topology, shape, link_gbps, link_delay_us, red, seed):
    mtu = units.DEFAULT_MTU_BYTES
    seeds = itertools.count(seed * 1009)

    def marker(*_):
        if not red:
            return None
        return REDMarker(REDParams.paper_default(mtu), mtu,
                         seed=next(seeds))

    delay = units.us(link_delay_us)
    if topology == "single_switch":
        return single_switch(shape[0], link_gbps=link_gbps,
                             link_delay=delay, marker=marker())
    if topology == "dumbbell":
        return dumbbell(shape[0], link_gbps=link_gbps, link_delay=delay,
                        marker=marker())
    if topology == "parking_lot":
        return parking_lot(shape[0], link_gbps=link_gbps,
                           link_delay=delay, marker_factory=marker)
    return leaf_spine(n_leaves=shape[0], n_spines=shape[1],
                      hosts_per_leaf=shape[2], host_gbps=link_gbps,
                      spine_gbps=link_gbps, link_delay=delay,
                      marker_factory=marker if red else None)


def _params(protocol, link_gbps, delay_us, n):
    if protocol == "dcqcn":
        return DCQCNParams.paper_default(capacity_gbps=link_gbps,
                                         num_flows=n)
    if protocol == "timely":
        return TimelyParams.paper_default(capacity_gbps=link_gbps,
                                          num_flows=n,
                                          prop_delay_us=delay_us)
    if protocol == "patched_timely":
        return PatchedTimelyParams.paper_default(
            capacity_gbps=link_gbps, num_flows=n, prop_delay_us=delay_us)
    return DCTCPParams()


def _run(scenario, forensics=False):
    """Run one scenario; return everything the oracles look at.

    The run holds ``PACKET_POOL.debug_session()`` so the pool's loan
    table and double-release counter cover exactly this run.
    """
    ledger = FlowLedger() if forensics else None
    with use_ledger(ledger):
        net = _build(scenario["topology"], scenario["shape"],
                     scenario["link_gbps"], scenario["link_delay_us"],
                     scenario["red"], scenario["seed"])
        attach_flow_forensics(net, context="properties")
        ports = collect_ports(net)
        tracer = PacketTracer(net.sim, max_events=400_000)
        for name in sorted(ports):
            tracer.attach(ports[name])
        injector = None
        if scenario["loss"] is not None:
            index, rate, corrupt = scenario["loss"]
            port = sorted(ports)[index % len(ports)]
            injector = install(net, FaultPlan([PacketLoss(
                port=port, rate=rate, stop=scenario["duration"] / 2,
                corrupt=corrupt)]), seed=scenario["seed"])
        aborted = None
        with PACKET_POOL.debug_session() as pool:
            flows = scenario["flows"]
            for protocol, src, dst, size, start in flows:
                n = sum(1 for f in flows if f[0] == protocol)
                install_flow(net, protocol, src, dst, size, start,
                             _params(protocol, scenario["link_gbps"],
                                     scenario["link_delay_us"], n))
            # After install: the monitor snapshots net.senders.
            monitor = InvariantMonitor.for_network(
                net, interval=scenario["duration"] / 64)
            try:
                net.sim.run(until=scenario["duration"],
                            max_events=MAX_EVENTS)
            except SimulationAborted as abort:
                aborted = abort.reason
            outstanding = pool.outstanding
            double_releases = pool.double_releases
            on_loan = pool.outstanding_packets()
    if ledger is not None:
        ledger.finalize()
    assert tracer.dropped_events == 0, "trace too long to compare"
    # Packets legitimately off-loan at the cutoff: tail drops (data and
    # control), fault black-holes and queued backlogs.
    unreturned = injector.stats.lost_packets if injector is not None else 0
    counters = {}
    for name, port in sorted(ports.items()):
        queues = [q for q in (port.queue, port.control_queue)
                  if q is not None]
        drops = sum(q.dropped_packets for q in queues)
        backlog = sum(len(q) for q in queues)
        counters[name] = (port.bytes_transmitted, port.packets_transmitted,
                          port.ecn_marks, port.queue.dropped_bytes, drops,
                          backlog)
        unreturned += drops + backlog
    return SimpleNamespace(
        trace=[(e.time, e.port_name, e.kind, e.flow_id, e.seq,
                e.size_bytes, e.ecn_marked, e.dropped)
               for e in tracer.events],
        flows=[(f.flow_id, f.size_bytes, f.bytes_sent, f.bytes_delivered,
                f.completed, f.fct if f.completed else None)
               for f in net.registry.flows.values()],
        counters=counters,
        unreturned=unreturned,
        outstanding=outstanding,
        on_loan=on_loan,
        double_releases=double_releases,
        violations=[str(v) for v in monitor.violations],
        aborted=aborted,
        forensics=ledger.flow_events() if ledger is not None else None)


def _digest(run):
    """sha256 over the trace stream, the flow rows and port counters."""
    hasher = hashlib.sha256()
    for row in run.trace + run.flows + sorted(run.counters.items()):
        hasher.update(repr(row).encode())
    return hasher.hexdigest()


def _check_pool(run):
    assert run.double_releases == 0, \
        f"{run.double_releases} double release(s)"
    assert run.outstanding == run.unreturned, \
        (f"pool leak: {run.outstanding} packets on loan, drops and "
         f"backlogs account for {run.unreturned}: {run.on_loan}")


def _check_invariants(run):
    assert not run.violations, f"invariant violations: {run.violations}"
    for flow_id, size, sent, delivered, completed, fct in run.flows:
        assert delivered <= sent <= size, \
            (f"conservation: flow {flow_id} delivered {delivered} of "
             f"{sent} sent, size {size}")
        if completed:
            assert delivered == size and fct > 0, \
                (f"conservation: flow {flow_id} completed with "
                 f"{delivered} of {size} bytes")
    last = {}
    for event in run.trace:
        assert event[0] >= last.get(event[1], 0.0), \
            f"monotone time: {event} after t={last[event[1]]}"
        last[event[1]] = event[0]


class TestScenarioOracles:
    @given(scenarios())
    @ORACLES
    def test_forensics_off_and_on_are_bit_identical(self, scenario):
        assert _digest(_run(scenario)) == \
            _digest(_run(scenario, forensics=True))

    @given(scenarios())
    @ORACLES
    def test_pool_loans_balance_drops_and_backlog(self, scenario):
        _check_pool(_run(scenario))

    @given(scenarios(lossy=False))
    @ORACLES
    def test_lossless_finite_flows_complete(self, scenario):
        run = _run(scenario)
        assert run.aborted is None
        stranded = [row for row in run.flows if not row[4]]
        assert not stranded, stranded

    @given(scenarios())
    @ORACLES
    def test_no_watchdog_abort(self, scenario):
        assert _run(scenario).aborted is None

    @given(scenarios())
    @ORACLES
    def test_completed_flows_are_attributed(self, scenario):
        for event in _run(scenario, forensics=True).forensics:
            share = event.get("attributed_share")
            assert share is None or share >= 0.95, event

    @given(scenarios())
    @ORACLES
    def test_invariants_conservation_and_monotone_time(self, scenario):
        _check_invariants(_run(scenario))


# -- seeded mutations ---------------------------------------------------------

#: Four 32 KB DCQCN flows into a RED-marked star.
MUTATION_SCENARIO = dict(
    topology="single_switch", shape=(4,), link_gbps=10.0,
    link_delay_us=2, red=True, seed=11,
    flows=tuple(("dcqcn", f"s{i}", "recv", 32 * 1024, 0.0)
                for i in range(4)),
    loss=None, duration=0.006)

_REAL_ON_ENQUEUE = FlowLedger.on_enqueue
_REAL_REGISTER_FLOW = FlowLedger.register_flow
_REAL_RECEIVE = Host.receive


def _marking_on_enqueue(self, port, packet):
    """Injected bug: every 7th enqueued data packet turns CE.

    Only ledger-attached runs execute the hook, so the forensics run
    receives spurious marks and its receivers send CNPs the baseline
    never sends.
    """
    _REAL_ON_ENQUEUE(self, port, packet)
    if packet.kind != "data":
        return
    count = getattr(self, "_mutation_enqueues", 0) + 1
    self._mutation_enqueues = count
    if count % 7 == 3:
        packet.ecn_marked = True


def _nudging_register_flow(self, flow, protocol=None, sender=None):
    """Injected bug: the ledger writes protocol state, shifting each
    sender's pacing clock by one part in a million."""
    _REAL_REGISTER_FLOW(self, flow, protocol=protocol, sender=sender)
    sender.rate = sender.rate * (1.0 - 1e-6)


def _clean_run(**changes):
    """A hand-written run of one completed 16 KB flow that passes
    :func:`_check_invariants`; ``changes`` seed a fault into it."""
    fields = dict(
        violations=[],
        flows=[(0, 16384, 16384, 16384, True, 1e-4)],
        trace=[(1e-3, "sw->recv", "tx", 0, 0, 1024, False, False),
               (2e-3, "sw->recv", "tx", 0, 1, 1024, False, False)])
    fields.update(changes)
    return SimpleNamespace(**fields)


class TestSeededMutations:
    def test_clean_engine_passes(self):
        clean = _run(MUTATION_SCENARIO)
        assert _digest(clean) == \
            _digest(_run(MUTATION_SCENARIO, forensics=True))
        _check_pool(clean)
        _check_invariants(clean)
        _check_invariants(_clean_run())

    def test_invariant_violation_is_reported(self):
        with pytest.raises(AssertionError, match="queue went negative"):
            _check_invariants(_clean_run(
                violations=["queue went negative"]))

    def test_over_delivery_breaks_conservation(self):
        with pytest.raises(AssertionError, match="conservation"):
            _check_invariants(_clean_run(
                flows=[(0, 16384, 16384, 999999, True, 1e-4)]))

    def test_short_completion_breaks_conservation(self):
        with pytest.raises(AssertionError, match="conservation"):
            _check_invariants(_clean_run(
                flows=[(0, 16384, 16384, 8192, True, 1e-4)]))

    def test_backwards_trace_breaks_monotone_time(self):
        trace = _clean_run().trace
        with pytest.raises(AssertionError, match="monotone time"):
            _check_invariants(_clean_run(trace=trace[::-1]))

    @pytest.mark.parametrize("name, mutation", [
        ("on_enqueue", _marking_on_enqueue),
        ("register_flow", _nudging_register_flow)],
        ids=["on_enqueue", "register_flow"])
    def test_forensics_mutation_breaks_bit_identity(self, monkeypatch,
                                                    name, mutation):
        monkeypatch.setattr(FlowLedger, name, mutation)
        assert _digest(_run(MUTATION_SCENARIO)) != \
            _digest(_run(MUTATION_SCENARIO, forensics=True))

    def test_skipped_release_is_a_pool_leak(self, monkeypatch):
        skipped = []

        def leaky_receive(self, packet, ingress=None):
            if packet.pooled and not skipped:
                skipped.append(packet)
                packet.pooled = False   # the real receive skips release
            _REAL_RECEIVE(self, packet, ingress)

        monkeypatch.setattr(Host, "receive", leaky_receive)
        with pytest.raises(AssertionError, match="pool leak: 1 packets"):
            _check_pool(_run(MUTATION_SCENARIO))

    def test_second_release_is_counted(self, monkeypatch):
        repeated = []

        def double_releasing_receive(self, packet, ingress=None):
            pooled = packet.pooled
            _REAL_RECEIVE(self, packet, ingress)
            if pooled and not repeated:
                repeated.append(packet)
                PACKET_POOL.release(packet)

        monkeypatch.setattr(Host, "receive", double_releasing_receive)
        with pytest.raises(AssertionError, match="1 double release"):
            _check_pool(_run(MUTATION_SCENARIO))


class TestRegressions:
    def test_single_small_dcqcn_flow_forensics_identical(self):
        """One 8 KB DCQCN flow on a one-sender star: the minimal
        reproducer of the CE-marking ``on_enqueue`` mutation."""
        scenario = dict(
            topology="single_switch", shape=(1,), link_gbps=10.0,
            link_delay_us=2, red=False, seed=11,
            flows=(("dcqcn", "s0", "recv", 8 * 1024, 0.0),),
            loss=None, duration=0.0015)
        assert _digest(_run(scenario)) == \
            _digest(_run(scenario, forensics=True))
