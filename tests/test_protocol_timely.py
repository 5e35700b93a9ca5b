"""TIMELY / patched TIMELY endpoint protocol logic."""

import pytest

from repro import units
from repro.core.params import PatchedTimelyParams, TimelyParams
from repro.sim.engine import Simulator
from repro.sim.flows import Flow
from repro.sim.link import Link, Port
from repro.sim.node import Host
from repro.sim.packet import Packet
from repro.sim.protocols.patched_timely import PatchedTimelySender
from repro.sim.protocols.timely import TimelyReceiver, TimelySender
from repro.sim.topology import install_flow, single_switch


def make_sender(params=None, initial_gbps=5.0, **kw):
    params = params or TimelyParams.paper_default()
    sim = Simulator()
    host = Host(sim, "s0")
    flow = Flow(0, "s0", "recv", None, 0.0)
    sender = TimelySender(sim, host, flow, params,
                          initial_rate=initial_gbps * 1e9 / 8, **kw)
    return sim, sender, params


def apply_rtt(sender, rtt):
    """Drive Algorithm 1 directly with one RTT sample."""
    sender.update_rate(rtt)


class TestAlgorithm1Branches:
    def test_low_rtt_additive_increase(self):
        _, sender, params = make_sender()
        before = sender.rate
        apply_rtt(sender, params.t_low / 2)
        assert sender.rate == pytest.approx(
            before + params.delta * params.mtu_bytes)

    def test_high_rtt_multiplicative_decrease(self):
        _, sender, params = make_sender()
        before = sender.rate
        rtt = params.t_high * 2
        apply_rtt(sender, rtt)
        expected = before * (1 - params.beta * (1 - params.t_high / rtt))
        assert sender.rate == pytest.approx(expected)

    def test_gradient_decrease_in_band(self):
        _, sender, params = make_sender()
        mid = (params.t_low + params.t_high) / 2
        apply_rtt(sender, mid)          # primes prev_rtt
        before = sender.rate
        bump = params.min_rtt / 10      # small positive gradient
        apply_rtt(sender, mid + bump)
        assert sender.rate < before

    def test_gradient_increase_in_band(self):
        _, sender, params = make_sender()
        mid = (params.t_low + params.t_high) / 2
        apply_rtt(sender, mid)
        before = sender.rate
        apply_rtt(sender, mid - params.min_rtt / 10)
        assert sender.rate > before

    def test_first_sample_has_zero_gradient(self):
        _, sender, params = make_sender()
        before = sender.rate
        mid = (params.t_low + params.t_high) / 2
        apply_rtt(sender, mid)
        # gradient = 0 -> additive increase branch.
        assert sender.rate == pytest.approx(
            before + params.delta * params.mtu_bytes)

    def test_ewma_filtering(self):
        _, sender, params = make_sender()
        mid = (params.t_low + params.t_high) / 2
        apply_rtt(sender, mid)
        apply_rtt(sender, mid + 10e-6)
        expected = params.ewma_alpha * 10e-6
        assert sender.rtt_diff == pytest.approx(expected)

    def test_gradient_clamp_bounds_single_cut(self):
        _, sender, params = make_sender()
        apply_rtt(sender, 80e-6)
        before = sender.rate
        # A +300us jump (still below t_high) is gradient ~13 unclamped.
        apply_rtt(sender, 380e-6)
        floor = before * (1 - params.beta * sender.gradient_clamp)
        assert sender.rate == pytest.approx(floor, rel=1e-6)

    def test_unclamped_gradient_floors_at_one_minus_beta(self):
        _, sender, params = make_sender(gradient_clamp=None)
        apply_rtt(sender, 80e-6)
        before = sender.rate
        apply_rtt(sender, 380e-6)
        assert sender.rate == pytest.approx(before * (1 - params.beta))

    def test_min_rate_is_delta(self):
        _, sender, params = make_sender()
        for _ in range(200):
            apply_rtt(sender, params.t_high * 10)
        assert sender.rate >= params.delta * params.mtu_bytes


class TestHAI:
    def test_hai_after_five_negative_gradients(self):
        _, sender, params = make_sender()
        mid = (params.t_low + params.t_high) / 2
        delta_bytes = params.delta * params.mtu_bytes
        rtt = mid
        apply_rtt(sender, rtt)
        # Falling RTT samples in the gradient band.
        gains = []
        for _ in range(8):
            before = sender.rate
            rtt -= 1e-6
            apply_rtt(sender, rtt)
            gains.append(sender.rate - before)
        assert gains[0] == pytest.approx(delta_bytes)
        assert gains[-1] == pytest.approx(
            sender.hai_threshold * delta_bytes)

    def test_hai_reset_on_decrease(self):
        _, sender, params = make_sender()
        mid = (params.t_low + params.t_high) / 2
        rtt = mid
        apply_rtt(sender, rtt)
        for _ in range(6):
            rtt -= 1e-6
            apply_rtt(sender, rtt)
        assert sender._negative_gradient_streak >= sender.hai_threshold
        apply_rtt(sender, rtt + 50e-6)  # positive gradient -> decrease
        assert sender._negative_gradient_streak == 0

    def test_no_hai_below_t_low(self):
        """Footnote 5: HAI never applies on the RTT < T_low branch."""
        _, sender, params = make_sender()
        delta_bytes = params.delta * params.mtu_bytes
        gains = []
        for _ in range(8):
            before = sender.rate
            apply_rtt(sender, params.t_low / 2)
            gains.append(sender.rate - before)
        assert all(g == pytest.approx(delta_bytes) for g in gains)


class TestAckHandling:
    def test_rtt_measured_from_echo(self):
        sim, sender, params = make_sender()
        ack = Packet(0, 64, "recv", "s0", kind="ack")
        ack.echo_time = -30e-6  # sim.now is 0 -> RTT 30us < t_low
        before = sender.rate
        sender.on_ack(ack)
        assert sender.rate == pytest.approx(
            before + params.delta * params.mtu_bytes)

    def test_ack_without_echo_rejected(self):
        _, sender, _ = make_sender()
        ack = Packet(0, 64, "recv", "s0", kind="ack")
        with pytest.raises(ValueError):
            sender.on_ack(ack)

    def test_updates_gated_by_min_rtt(self):
        sim, sender, params = make_sender()
        ack = Packet(0, 64, "recv", "s0", kind="ack")
        ack.echo_time = 0.0
        before = sender.rate
        sender.on_ack(ack)  # accepted
        after_first = sender.rate
        sender.on_ack(ack)  # same instant: gated
        assert sender.rate == after_first != before
        assert sender.rtt_samples == 2


class TestPacing:
    def test_burst_mode_emits_full_segment(self):
        params = TimelyParams.paper_default(segment_kb=16)
        sim = Simulator()
        host = Host(sim, "s0")

        class Sink:
            name = "sw"

            def __init__(self):
                self.packets = []

            def receive(self, packet, ingress=None):
                self.packets.append((packet, sim.now))

        sink = Sink()
        host.port = Port(sim, 1e9, Link(sim, 0.0, sink))
        flow = Flow(0, "s0", "recv", None, 0.0)
        sender = TimelySender(sim, host, flow, params,
                              initial_rate=1e8, pacing="burst")
        sender.start()
        # One burst is 16 packets; run long enough for exactly one
        # burst plus its serialization.
        sim.run(until=20e-6)
        assert len(sink.packets) == 16
        sender.stop()

    def test_invalid_pacing_rejected(self):
        with pytest.raises(ValueError):
            make_sender(pacing="chunky")

    def test_rate_change_reschedules_pending_emission(self):
        sim, sender, params = make_sender(initial_gbps=0.001)
        # Pretend pacing scheduled far out, then raise the rate 100x:
        # the pending emission must move proportionally closer.
        sender.flow.start_time = 0.0
        sender._next_emission = sim.schedule(1.0, sender._pace)
        sender.rate = sender.rate * 100
        assert sender._next_emission[0] == pytest.approx(0.01)

    def test_start_rate_c_over_n_plus_one(self):
        params = TimelyParams.paper_default()
        sim = Simulator()
        host = Host(sim, "s0")
        host.register_sender(999, object())  # one active flow
        flow = Flow(0, "s0", "recv", None, 0.0)
        sender = TimelySender(sim, host, flow, params)
        line = params.capacity * params.mtu_bytes
        assert sender.rate == pytest.approx(line / 2)


class TestReceiver:
    def build(self, params=None, size=None):
        params = params or TimelyParams.paper_default(segment_kb=16)
        sim = Simulator()
        host = Host(sim, "recv")

        class Sink:
            name = "sw"

            def __init__(self):
                self.packets = []

            def receive(self, packet, ingress=None):
                self.packets.append(packet)

        sink = Sink()
        host.port = Port(sim, 1e9, Link(sim, 0.0, sink))
        flow = Flow(0, "s0", "recv", size, 0.0)
        receiver = TimelyReceiver(sim, host, flow, params)
        return sim, receiver, sink, params

    def data(self, size=1024, sent_time=0.0):
        packet = Packet(0, size, "s0", "recv", kind="data")
        packet.sent_time = sent_time
        return packet

    def test_ack_once_per_segment(self):
        sim, receiver, sink, params = self.build()
        per_segment = int(params.segment)
        for _ in range(per_segment - 1):
            receiver.on_data(self.data())
        sim.run()
        assert receiver.acks_sent == 0
        receiver.on_data(self.data())
        sim.run()
        assert receiver.acks_sent == 1
        assert sink.packets[0].kind == "ack"

    def test_ack_echoes_triggering_timestamp(self):
        sim, receiver, sink, params = self.build()
        per_segment = int(params.segment)
        for i in range(per_segment):
            receiver.on_data(self.data(sent_time=float(i)))
        sim.run()
        assert sink.packets[0].echo_time == pytest.approx(
            float(per_segment - 1))

    def test_final_ack_for_short_flow(self):
        sim, receiver, sink, params = self.build(size=2048)
        receiver.on_data(self.data())
        receiver.on_data(self.data())
        sim.run()
        # Flow completed below one segment: completion flushes an ACK.
        assert receiver.acks_sent == 1
        assert receiver.flow.completed


class TestPatchedSender:
    def make(self, **kw):
        patched = PatchedTimelyParams.paper_default()
        sim = Simulator()
        host = Host(sim, "s0")
        flow = Flow(0, "s0", "recv", None, 0.0)
        sender = PatchedTimelySender(sim, host, flow, patched,
                                     initial_rate=5e9 / 8, **kw)
        return sender, patched

    def test_band_uses_weighted_absolute_error(self):
        sender, patched = self.make()
        params = patched.base
        rtt_ref = sender.rtt_ref
        apply_rtt(sender, rtt_ref)
        before = sender.rate
        # Zero gradient at the reference RTT: w=1/2, error=0 ->
        # rate <- delta/2 + rate.
        apply_rtt(sender, rtt_ref)
        expected = 0.5 * params.delta * params.mtu_bytes + before
        assert sender.rate == pytest.approx(expected)

    def test_decrease_above_reference_rtt(self):
        sender, patched = self.make()
        rtt_ref = sender.rtt_ref
        high = rtt_ref * 3  # still below t_high
        assert high < patched.base.t_high
        apply_rtt(sender, high)
        before = sender.rate
        # Steady high RTT: gradient ~ 0, error > 0 -> net decrease once
        # the error term beats delta/2.
        for _ in range(50):
            apply_rtt(sender, high)
        assert sender.rate < before

    def test_base_rtt_shifts_reference(self):
        sender_zero, patched = self.make()
        sender_shifted, _ = self.make(base_rtt=20e-6)
        assert sender_shifted.rtt_ref == pytest.approx(
            sender_zero.rtt_ref + 20e-6)

    def test_negative_base_rtt_rejected(self):
        with pytest.raises(ValueError):
            self.make(base_rtt=-1e-6)


class TestEndToEnd:
    def test_patched_two_flows_converge_to_eq31(self):
        patched = PatchedTimelyParams.paper_default(capacity_gbps=10,
                                                    num_flows=2)
        net = single_switch(2, link_gbps=10)
        for i, gbps in enumerate((7.0, 3.0)):
            install_flow(net, "patched_timely", f"s{i}", "recv", None,
                         0.0, patched, pacing="packet",
                         initial_rate=gbps * 1e9 / 8,
                         base_rtt=units.us(4))
        from repro.sim.monitors import QueueMonitor
        monitor = QueueMonitor(net.sim, net.bottleneck_port,
                               interval=100e-6)
        net.sim.run(until=0.08)
        rates = [net.senders[i].rate for i in range(2)]
        assert rates[0] == pytest.approx(rates[1], rel=0.15)
        predicted = units.packets_to_kb(patched.fixed_point_queue)
        assert monitor.tail_mean_bytes(0.02) / 1024 == pytest.approx(
            predicted, rel=0.15)

    def test_timely_finite_flow_completes(self):
        params = TimelyParams.paper_default(capacity_gbps=10)
        net = single_switch(1, link_gbps=10)
        done = []
        install_flow(net, "timely", "s0", "recv", 64 * 1024, 0.0,
                     params, on_complete=done.append)
        net.sim.run(until=0.01)
        assert len(done) == 1
