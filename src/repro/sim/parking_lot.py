"""Parking-lot (multi-bottleneck) topology -- the paper's future work.

Section 7 lists "multiple bottleneck scenario" as the analysis the
paper did not reach.  This builder provides the canonical multi-
bottleneck fabric: a chain of switches where one *cross* flow
traverses every inter-switch link while each link also carries a
*local* flow.

::

    sx --- sw0 ====== sw1 ====== sw2 --- rx
            |          |  \\       |
            s0         r0  s1     r1

Cross flow: ``sx -> rx`` (crosses every ``====`` link).
Local flow i: ``s<i> -> r<i>`` (crosses only link i).

With N_segments congested links, per-link fair sharing would give the
cross flow 1/2 of each link; in practice end-to-end protocols beat
down a multi-hop flow below that, because it accumulates congestion
signal from *every* hop (ECN marks add up; RTT sums all queues).  The
``ext_parking_lot`` experiment measures exactly that.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro import units
from repro.sim.engine import Simulator
from repro.sim.flows import FlowRegistry
from repro.sim.node import Host
from repro.sim.switch import Switch, connect
from repro.sim.topology import Network


def parking_lot(n_segments: int = 2,
                link_gbps: float = 10.0,
                link_delay: float = units.us(1),
                mtu_bytes: int = units.DEFAULT_MTU_BYTES,
                marker_factory: Optional[Callable[[int], object]] = None,
                marking_point: str = "egress") -> Network:
    """Build a chain of ``n_segments`` congestible inter-switch links.

    Parameters
    ----------
    n_segments:
        Number of inter-switch (bottleneck) links; the chain has
        ``n_segments + 1`` switches.
    marker_factory:
        ``factory(segment_index) -> marker`` producing an independent
        AQM marker per inter-switch egress (each bottleneck must have
        its own RED/PI state).  None disables marking.

    Returns a :class:`~repro.sim.topology.Network` whose
    ``bottleneck_port`` is the *first* inter-switch link.  Hosts:
    ``sx``/``rx`` are the cross pair; ``s<i>``/``r<i>`` the local pair
    of segment ``i`` (sender at switch i, receiver at switch i+1).
    """
    if n_segments < 1:
        raise ValueError(
            f"need at least one segment, got {n_segments}")
    sim = Simulator()
    rate = link_gbps * 1e9 / units.BITS_PER_BYTE
    switches = {f"sw{i}": Switch(sim, f"sw{i}")
                for i in range(n_segments + 1)}
    chain = [switches[f"sw{i}"] for i in range(n_segments + 1)]
    hosts = {}

    # Inter-switch links, both directions (reverse carries control).
    first_bottleneck = None
    for i in range(n_segments):
        marker = marker_factory(i) if marker_factory else None
        forward = connect(sim, chain[i], chain[i + 1], rate,
                          link_delay, marker=marker,
                          marking_point=marking_point)
        connect(sim, chain[i + 1], chain[i], rate, link_delay)
        if first_bottleneck is None:
            first_bottleneck = forward

    def attach(host_name: str, switch: Switch) -> Host:
        host = Host(sim, host_name)
        hosts[host_name] = host
        connect(sim, host, switch, rate, link_delay)
        connect(sim, switch, host, rate, link_delay)
        return host

    # Cross pair at the ends, local pairs per segment.
    attach("sx", chain[0])
    attach("rx", chain[-1])
    locations = {"sx": 0, "rx": n_segments}
    for i in range(n_segments):
        attach(f"s{i}", chain[i])
        attach(f"r{i}", chain[i + 1])
        locations[f"s{i}"] = i
        locations[f"r{i}"] = i + 1

    # Chain routing: every switch knows, for every host, whether the
    # host hangs off it or lies up/down the chain.
    for idx, switch in enumerate(chain):
        for host_name, loc in locations.items():
            if loc == idx:
                switch.add_route(host_name, host_name)
            elif loc > idx:
                switch.add_route(host_name, f"sw{idx + 1}")
            else:
                switch.add_route(host_name, f"sw{idx - 1}")

    return Network(sim=sim, hosts=hosts, switches=switches,
                   registry=FlowRegistry(),
                   bottleneck_port=first_bottleneck,
                   mtu_bytes=mtu_bytes, link_rate_bytes=rate)
