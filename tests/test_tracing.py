"""Packet tracer: filtering, chaining, and non-intrusiveness."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.params import DCQCNParams
from repro.sim.red import REDMarker
from repro.sim.engine import Simulator
from repro.sim.link import Link, Port
from repro.sim.packet import Packet
from repro.sim.topology import install_flow, single_switch
from repro.sim.tracing import PacketTracer


class Sink:
    name = "sink"

    def receive(self, packet, ingress=None):
        pass


def build_port(sim):
    return Port(sim, 1e9, Link(sim, 0.0, Sink()), name="p0")


class TestRecording:
    def test_records_departures_in_order(self):
        sim = Simulator()
        port = build_port(sim)
        tracer = PacketTracer(sim)
        tracer.attach(port)
        for seq in range(3):
            port.send(Packet(0, 1024, "s", "sink", kind="data",
                             seq=seq))
        sim.run()
        assert [e.seq for e in tracer.events] == [0, 1, 2]
        times = [e.time for e in tracer.events]
        assert times == sorted(times)

    def test_kind_filter(self):
        sim = Simulator()
        port = build_port(sim)
        tracer = PacketTracer(sim, kinds=["cnp"])
        tracer.attach(port)
        port.send(Packet(0, 1024, "s", "sink", kind="data"))
        port.send(Packet(0, 64, "s", "sink", kind="cnp"))
        sim.run()
        assert [e.kind for e in tracer.events] == ["cnp"]

    def test_flow_filter(self):
        sim = Simulator()
        port = build_port(sim)
        tracer = PacketTracer(sim, flow_ids=[7])
        tracer.attach(port)
        port.send(Packet(7, 1024, "s", "sink", kind="data"))
        port.send(Packet(8, 1024, "s", "sink", kind="data"))
        sim.run()
        assert [e.flow_id for e in tracer.events] == [7]

    def test_event_cap(self):
        sim = Simulator()
        port = build_port(sim)
        tracer = PacketTracer(sim, max_events=2)
        tracer.attach(port)
        for seq in range(5):
            port.send(Packet(0, 1024, "s", "sink", kind="data",
                             seq=seq))
        sim.run()
        assert len(tracer.events) == 2
        assert tracer.dropped_events == 3
        assert "beyond" in tracer.dump()

    def test_chains_existing_hook(self):
        sim = Simulator()
        port = build_port(sim)
        seen = []
        port.on_transmit = seen.append
        tracer = PacketTracer(sim)
        tracer.attach(port)
        port.send(Packet(0, 1024, "s", "sink", kind="data"))
        sim.run()
        assert len(seen) == 1           # original hook still fires
        assert len(tracer.events) == 1  # and the tracer records

    def test_validation(self):
        with pytest.raises(ValueError):
            PacketTracer(Simulator(), max_events=0)

    def test_marked_fraction_nan_when_no_data(self):
        # "No data packets" is an expected state, not an error: the
        # fraction is NaN so sweep statistics degrade gracefully.
        tracer = PacketTracer(Simulator())
        assert math.isnan(tracer.marked_fraction())

    def test_marked_fraction_nan_when_filters_exclude_data(self):
        sim = Simulator()
        port = build_port(sim)
        tracer = PacketTracer(sim, kinds=["cnp"])
        tracer.attach(port)
        port.send(Packet(0, 1024, "s", "sink", kind="data"))
        sim.run()
        assert math.isnan(tracer.marked_fraction())

    def test_filtered_counted_separately_from_dropped(self):
        sim = Simulator()
        port = build_port(sim)
        tracer = PacketTracer(sim, kinds=["data"], flow_ids=[0],
                              max_events=2)
        tracer.attach(port)
        # 2 recorded, then 2 beyond the cap; 1 wrong kind, 1 wrong
        # flow -- filters and the cap must not share a counter.
        for seq in range(4):
            port.send(Packet(0, 1024, "s", "sink", kind="data",
                             seq=seq))
        port.send(Packet(0, 64, "s", "sink", kind="cnp"))
        port.send(Packet(9, 1024, "s", "sink", kind="data"))
        sim.run()
        assert len(tracer.events) == 2
        assert tracer.dropped_events == 2
        assert tracer.filtered_events == 2

    def test_chains_preexisting_on_transmit_before_recording(self):
        # The pre-existing hook (e.g. PFC accounting) must run first
        # and still fire for packets the tracer then filters out.
        sim = Simulator()
        port = build_port(sim)
        order = []
        port.on_transmit = lambda packet: order.append("pfc")
        tracer = PacketTracer(sim, kinds=["cnp"])
        tracer.attach(port)
        port.send(Packet(0, 1024, "s", "sink", kind="data"))
        sim.run()
        assert order == ["pfc"]
        assert tracer.events == []
        assert tracer.filtered_events == 1


class TestDropVisibility:
    def _drop_three(self, tracer_factory):
        # capacity 2048 B: the first packet goes straight to the
        # wire, two fill the FIFO, the fourth tail-drops.
        sim = Simulator()
        port = Port(sim, 1e9, Link(sim, 0.0, Sink()), name="p0",
                    capacity_bytes=2048)
        tracer = tracer_factory(sim, port)
        for seq in range(4):
            port.send(Packet(0, 1024, "s", "sink", kind="data",
                             seq=seq))
        sim.run()
        return tracer

    def test_drops_recorded_with_flag(self):
        def factory(sim, port):
            tracer = PacketTracer(sim)
            tracer.attach(port)
            return tracer
        tracer = self._drop_three(factory)
        # The drop lands first: it happens at enqueue time (t=0),
        # before any of the accepted packets finish serializing.
        assert [e.dropped for e in tracer.events] == \
            [True, False, False, False]
        (drop,) = [e for e in tracer.events if e.dropped]
        # The drop is stamped at the rejection instant (t=0, while
        # the port was still serializing packet 0) with the dropped
        # packet's identity.
        assert drop.seq == 3
        assert drop.time == 0.0
        assert "DROP" in tracer.dump()

    def test_chains_preexisting_on_drop(self):
        seen = []

        def factory(sim, port):
            port.on_drop = seen.append
            tracer = PacketTracer(sim)
            tracer.attach(port)
            return tracer
        tracer = self._drop_three(factory)
        assert [p.seq for p in seen] == [3]
        assert sum(e.dropped for e in tracer.events) == 1

    def test_drops_excluded_from_marked_fraction(self):
        sim = Simulator()
        port = Port(sim, 1e9, Link(sim, 0.0, Sink()), name="p0",
                    capacity_bytes=1024)
        tracer = PacketTracer(sim)
        tracer.attach(port)
        marked = Packet(0, 1024, "s", "sink", kind="data", seq=0)
        marked.ecn_marked = True
        port.send(marked)                     # departs, CE-marked
        port.send(Packet(0, 1024, "s", "sink", kind="data", seq=1))
        port.send(Packet(0, 1024, "s", "sink", kind="data", seq=2))
        sim.run()
        # One drop among three events; the mark rate is over the two
        # *departed* packets only.
        assert sum(e.dropped for e in tracer.events) == 1
        assert tracer.marked_fraction() == pytest.approx(0.5)


def _trace_stream(ops):
    """Drive one port with ``ops`` and return its event stream."""
    sim = Simulator()
    port = Port(sim, 1e9, Link(sim, 0.0, Sink()), name="p0")
    tracer = PacketTracer(sim)
    tracer.attach(port)
    seq = 0
    for when, count, size in ops:
        for i in range(count):
            sim.schedule_at(when, port.send,
                            Packet(0, size, "s", "sink",
                                   kind="data", seq=seq + i))
        seq += count
    sim.run()
    return [(e.time, e.port_name, e.kind, e.flow_id, e.seq,
             e.size_bytes, e.ecn_marked, e.dropped)
            for e in tracer.events]


@st.composite
def _op_schedules(draw):
    """Injection schedules of packet bursts."""
    n = draw(st.integers(min_value=1, max_value=4))
    times = draw(st.lists(st.integers(min_value=0, max_value=40),
                          min_size=n, max_size=n, unique=True))
    return [(t * 1e-6,
             draw(st.integers(min_value=1, max_value=6)),
             draw(st.sampled_from((512, 1024, 1500))))
            for t in sorted(times)]


class TestStreamProperties:
    """Every packet is recorded once, in serve order, and a rerun of
    the same injection schedule reproduces the stream exactly."""

    @settings(max_examples=40, deadline=None)
    @given(ops=_op_schedules())
    def test_identical_streams(self, ops):
        reference = _trace_stream(ops)
        assert len(reference) == sum(op[1] for op in ops)
        assert [e[4] for e in reference] == list(range(len(reference)))
        times = [e[0] for e in reference]
        assert times == sorted(times)
        assert _trace_stream(ops) == reference


class TestOnRealScenario:
    def test_marked_fraction_tracks_red(self):
        params = DCQCNParams.paper_default(capacity_gbps=10,
                                           num_flows=2)
        marker = REDMarker(params.red, params.mtu_bytes, seed=3)
        net = single_switch(2, link_gbps=10, marker=marker)
        tracer = PacketTracer(net.sim, kinds=["data"])
        tracer.attach(net.bottleneck_port)
        for i in range(2):
            install_flow(net, "dcqcn", f"s{i}", "recv", None, 0.0,
                         params)
        net.sim.run(until=0.01)
        fraction = tracer.marked_fraction()
        # Congested DCQCN marks a small but nonzero fraction.
        assert 0.0 < fraction < 0.2
        # Departures are serialization-limited: gaps >= packet time.
        gaps = tracer.interarrival_times()
        packet_time = 1024 / net.link_rate_bytes
        assert min(gaps) >= packet_time * 0.99

    def test_dump_format(self):
        sim = Simulator()
        port = build_port(sim)
        tracer = PacketTracer(sim)
        tracer.attach(port)
        packet = Packet(3, 1024, "s", "sink", kind="data", seq=9)
        packet.ecn_marked = True
        port.send(packet)
        sim.run()
        text = tracer.dump()
        assert "flow=3" in text
        assert "seq=9" in text
        assert "CE" in text
