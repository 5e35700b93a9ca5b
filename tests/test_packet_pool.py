"""Packet pool: recycling, and the debug-session misuse guard."""

import pytest

from repro.sim.engine import Simulator
from repro.sim.flows import Flow
from repro.sim.node import Host
from repro.sim.packet import PACKET_POOL, Packet, PacketPool
from repro.sim.protocols.dctcp import DCTCPReceiver, DCTCPSender
from repro.sim.switch import Switch, connect


def _run_dctcp():
    """One 2 MB DCTCP transfer across a single switch."""
    sim = Simulator()
    switch = Switch(sim, "sw")
    h1, h2 = Host(sim, "h1"), Host(sim, "h2")
    for a, b in ((h1, switch), (switch, h2), (h2, switch),
                 (switch, h1)):
        connect(sim, a, b, 1.25e9, 2e-6)
    switch.add_route("h2", "h2")
    switch.add_route("h1", "h1")
    flow = Flow(1, "h1", "h2", 2_000_000, 0.0)
    done = []
    sender = DCTCPSender(sim, h1, flow)
    DCTCPReceiver(sim, h2, flow, on_complete=done.append)
    sender.start()
    sim.run(until=1.0)
    assert done


class TestPacketPool:
    def test_acquire_release_cycle(self):
        pool = PacketPool(max_free=4)
        p = pool.acquire(1, 1024, "a", "b")
        assert p.pooled
        p.ecn_marked = True
        p.echo_time = 3.0
        pool.release(p)
        assert not p.pooled
        pool.release(p)  # idempotent
        q = pool.acquire(2, 64, "c", "d", kind="ack", seq=7)
        assert q is p  # recycled
        assert not q.ecn_marked and q.echo_time is None
        assert (q.flow_id, q.seq, q.kind) == (2, 7, "ack")
        assert pool.reused == 1

    def test_unpooled_packets_ignored(self):
        pool = PacketPool()
        p = Packet(1, 1024, "a", "b")
        pool.release(p)
        assert len(pool) == 0

    def test_pool_recycles_on_live_traffic(self):
        # Warm the pool with one full run; a repeat must then serve
        # entirely from the freelist, allocating nothing new.
        _run_dctcp()
        allocated = PACKET_POOL.allocated
        reused_before = PACKET_POOL.reused
        _run_dctcp()
        assert PACKET_POOL.reused > reused_before
        assert PACKET_POOL.allocated == allocated


class TestPoolMisuseGuard:
    """The debug-session loan tracker behind the fuzz pool oracles."""

    def test_loans_tracked_and_settled(self):
        pool = PacketPool()
        with pool.debug_session() as session:
            p = pool.acquire(1, 1024, "a", "b")
            assert session.outstanding == 1
            assert session.outstanding_packets() == [repr(p)]
            pool.release(p)
            assert session.outstanding == 0
        assert not pool.debug

    def test_double_release_counted_not_raised(self):
        pool = PacketPool()
        with pool.debug_session() as session:
            p = pool.acquire(1, 1024, "a", "b")
            pool.release(p)
            pool.release(p)
            assert session.double_releases == 1
        # Counters survive the block for post-run assertions.
        assert pool.double_releases == 1

    def test_strict_mode_raises(self):
        from repro.sim.packet import PoolMisuseError
        pool = PacketPool()
        with pool.debug_session(strict=True):
            p = pool.acquire(1, 1024, "a", "b")
            pool.release(p)
            with pytest.raises(PoolMisuseError):
                pool.release(p)

    def test_released_packets_poisoned_and_quarantined(self):
        from repro.sim.packet import RELEASED_KIND
        pool = PacketPool()
        with pool.debug_session():
            p = pool.acquire(1, 1024, "a", "b", kind="data")
            pool.release(p)
            # Use-after-release is visible: the kind is poisoned, so
            # no dispatch path recognizes the packet...
            assert p.kind == RELEASED_KIND
            # ...and it is quarantined, never recycled mid-session.
            q = pool.acquire(2, 1024, "c", "d")
            assert q is not p

    def test_sessions_do_not_nest(self):
        pool = PacketPool()
        with pool.debug_session():
            with pytest.raises(RuntimeError, match="nest"):
                with pool.debug_session():
                    pass

    def test_publish_metrics_exposes_leak_gauges(self):
        from repro.obs.metrics import MetricsRegistry
        pool = PacketPool()
        registry = MetricsRegistry()
        with pool.debug_session():
            p = pool.acquire(1, 1024, "a", "b")
            pool.publish_metrics(registry)
            assert registry.gauge(
                "sim.packet.pool_leaked_total").value == 1
            pool.release(p)
            pool.release(p)
            pool.publish_metrics(registry)
            assert registry.gauge(
                "sim.packet.pool_leaked_total").value == 0
            assert registry.gauge(
                "sim.packet.pool_double_releases_total").value == 1
