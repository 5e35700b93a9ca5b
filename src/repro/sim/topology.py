"""Topology builders: the paper's two evaluation fabrics.

* :func:`single_switch` -- N senders and one receiver on one switch
  (the Fig. 2 / Fig. 8 validation topology).
* :func:`dumbbell` -- 10+10 hosts across two switches (Fig. 13), all
  traffic crossing the SW1->SW2 bottleneck.

Both return a :class:`Network` handle; :func:`install_flow` wires a
sender/receiver pair of any supported protocol onto it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Tuple

from repro import units
from repro.core.params import (DCQCNParams, DCTCPParams,
                               PatchedTimelyParams, TimelyParams)
from repro.sim.engine import Simulator
from repro.sim.flows import Flow, FlowRegistry
from repro.sim.link import Port
from repro.sim.node import Host
from repro.sim.protocols.dcqcn import DCQCNReceiver, DCQCNSender
from repro.sim.protocols.dctcp import DCTCPReceiver, DCTCPSender
from repro.sim.protocols.patched_timely import (PatchedTimelyReceiver,
                                                PatchedTimelySender)
from repro.sim.protocols.timely import TimelyReceiver, TimelySender
from repro.sim.switch import Switch, connect

#: Protocol names accepted by :func:`install_flow`.
PROTOCOLS = ("dcqcn", "timely", "patched_timely", "dctcp")


@dataclass
class Network:
    """A built topology plus its bookkeeping."""

    sim: Simulator
    hosts: Dict[str, Host]
    switches: Dict[str, Switch]
    registry: FlowRegistry
    bottleneck_port: Port
    mtu_bytes: int
    link_rate_bytes: float
    senders: Dict[int, object] = field(default_factory=dict)
    receivers: Dict[int, object] = field(default_factory=dict)

    def utilization(self, duration: float) -> float:
        """Bottleneck utilization over ``duration`` seconds of run."""
        if duration <= 0:
            raise ValueError(f"duration must be positive, got {duration}")
        return self.bottleneck_port.bytes_transmitted / (
            self.link_rate_bytes * duration)


def _gbps_to_bytes(gbps: float) -> float:
    return gbps * 1e9 / units.BITS_PER_BYTE


def single_switch(n_senders: int,
                  link_gbps: float = 40.0,
                  link_delay: float = units.us(1),
                  mtu_bytes: int = units.DEFAULT_MTU_BYTES,
                  marker: Optional[object] = None,
                  marking_point: str = "egress",
                  feedback_extra_delay: float = 0.0,
                  priority_control: bool = False) -> Network:
    """N senders -> one switch -> one receiver (validation topology).

    ``feedback_extra_delay`` is added to the reverse-path (switch ->
    sender) links, lengthening the control loop without touching the
    data path -- how the Fig. 5 / Fig. 17 "85 us feedback delay"
    scenarios are realized.  ``priority_control`` enables a strict
    high-priority class for control packets on every port (Section
    5.2's feedback prioritization).
    """
    if n_senders < 1:
        raise ValueError(f"need at least one sender, got {n_senders}")
    sim = Simulator()
    rate = _gbps_to_bytes(link_gbps)
    switch = Switch(sim, "sw")
    receiver = Host(sim, "recv")
    hosts = {"recv": receiver}

    # Bottleneck egress: switch -> receiver, carrying the AQM marker.
    bottleneck = connect(sim, switch, receiver, rate, link_delay,
                         marker=marker, marking_point=marking_point,
                         priority_control=priority_control)
    switch.add_route("recv", "recv")

    for i in range(n_senders):
        sender = Host(sim, f"s{i}")
        hosts[sender.name] = sender
        connect(sim, sender, switch, rate, link_delay,
                priority_control=priority_control)
        connect(sim, switch, sender, rate,
                link_delay + feedback_extra_delay,
                priority_control=priority_control)
        switch.add_route(sender.name, sender.name)

    # The receiver's reverse-path NIC (ACKs / CNPs).
    connect(sim, receiver, switch, rate, link_delay,
            priority_control=priority_control)

    return Network(sim=sim, hosts=hosts, switches={"sw": switch},
                   registry=FlowRegistry(), bottleneck_port=bottleneck,
                   mtu_bytes=mtu_bytes, link_rate_bytes=rate)


def dumbbell(n_pairs: int = 10,
             link_gbps: float = 10.0,
             link_delay: float = units.us(1),
             mtu_bytes: int = units.DEFAULT_MTU_BYTES,
             marker: Optional[object] = None,
             marking_point: str = "egress") -> Network:
    """The Fig. 13 dumbbell: senders -> SW1 -> SW2 -> receivers.

    All links run at ``link_gbps`` with ``link_delay`` latency; the
    SW1->SW2 egress is the bottleneck and carries the marker.
    """
    if n_pairs < 1:
        raise ValueError(f"need at least one host pair, got {n_pairs}")
    sim = Simulator()
    rate = _gbps_to_bytes(link_gbps)
    sw1 = Switch(sim, "sw1")
    sw2 = Switch(sim, "sw2")
    hosts: Dict[str, Host] = {}

    bottleneck = connect(sim, sw1, sw2, rate, link_delay,
                         marker=marker, marking_point=marking_point)
    connect(sim, sw2, sw1, rate, link_delay)  # reverse (control) path

    for i in range(n_pairs):
        sender = Host(sim, f"s{i}")
        receiver = Host(sim, f"r{i}")
        hosts[sender.name] = sender
        hosts[receiver.name] = receiver
        connect(sim, sender, sw1, rate, link_delay)
        connect(sim, sw1, sender, rate, link_delay)
        connect(sim, receiver, sw2, rate, link_delay)
        connect(sim, sw2, receiver, rate, link_delay)
        sw1.add_route(sender.name, sender.name)
        sw2.add_route(receiver.name, receiver.name)
        sw1.add_route(receiver.name, "sw2")
        sw2.add_route(sender.name, "sw1")

    return Network(sim=sim, hosts=hosts,
                   switches={"sw1": sw1, "sw2": sw2},
                   registry=FlowRegistry(), bottleneck_port=bottleneck,
                   mtu_bytes=mtu_bytes, link_rate_bytes=rate)


def install_flow(net: Network, protocol: str, src: str, dst: str,
                 size_bytes: Optional[int], start_time: float,
                 params: object,
                 on_complete: Optional[Callable[[Flow], None]] = None,
                 **sender_kwargs) -> Tuple[object, object]:
    """Create a flow and its sender/receiver agents on ``net``.

    ``params`` must match the protocol:
    :class:`~repro.core.params.DCQCNParams` for ``"dcqcn"``,
    :class:`~repro.core.params.TimelyParams` for ``"timely"``,
    :class:`~repro.core.params.PatchedTimelyParams` for
    ``"patched_timely"``, and :class:`~repro.core.params.DCTCPParams`
    for the window-based ``"dctcp"`` baseline.  Extra keyword
    arguments reach the sender constructor (``pacing=...``,
    ``initial_rate=...``).

    The sender is started immediately (its first emission is scheduled
    at ``start_time``).  Returns ``(sender, receiver)``.
    """
    if protocol not in PROTOCOLS:
        raise ValueError(
            f"unknown protocol {protocol!r}; choose from {PROTOCOLS}")
    src_host = net.hosts[src]
    dst_host = net.hosts[dst]
    flow = net.registry.create(src, dst, size_bytes, start_time)
    line_rate = net.link_rate_bytes

    if protocol == "dcqcn":
        if not isinstance(params, DCQCNParams):
            raise TypeError(f"dcqcn needs DCQCNParams, got {type(params)}")
        sender = DCQCNSender(net.sim, src_host, flow, params,
                             line_rate=line_rate, **sender_kwargs)
        receiver = DCQCNReceiver(net.sim, dst_host, flow, params,
                                 on_complete=on_complete)
    elif protocol == "timely":
        if not isinstance(params, TimelyParams):
            raise TypeError(f"timely needs TimelyParams, got {type(params)}")
        sender = TimelySender(net.sim, src_host, flow, params,
                              line_rate=line_rate, **sender_kwargs)
        receiver = TimelyReceiver(net.sim, dst_host, flow, params,
                                  on_complete=on_complete)
    elif protocol == "dctcp":
        if not isinstance(params, DCTCPParams):
            raise TypeError(f"dctcp needs DCTCPParams, got {type(params)}")
        sender = DCTCPSender(net.sim, src_host, flow,
                             mtu_bytes=params.mtu_bytes, g=params.g,
                             initial_window_packets=(
                                 params.initial_window_packets),
                             **sender_kwargs)
        receiver = DCTCPReceiver(net.sim, dst_host, flow,
                                 on_complete=on_complete)
    else:
        if not isinstance(params, PatchedTimelyParams):
            raise TypeError(
                f"patched_timely needs PatchedTimelyParams, got "
                f"{type(params)}")
        sender = PatchedTimelySender(net.sim, src_host, flow, params,
                                     line_rate=line_rate, **sender_kwargs)
        receiver = PatchedTimelyReceiver(net.sim, dst_host, flow, params,
                                         on_complete=on_complete)

    from repro.obs.forensics import active_ledger
    ledger = active_ledger()
    if ledger is not None:
        # Registered before start() so even the first emission is
        # attributed; attach_flow_forensics must already have wired
        # the net (it sets the ledger's current context).
        ledger.register_flow(flow, protocol=protocol, sender=sender)
        sender.ledger = ledger

    sender.start()
    net.senders[flow.flow_id] = sender
    net.receivers[flow.flow_id] = receiver
    return sender, receiver
