"""Output-queued switch with per-port AQM and optional PFC.

Forwarding is static: a FIB maps destination host names to egress
ports (experiments build small fixed topologies, Fig. 13's dumbbell
being the largest).  Each egress port owns its FIFO and marker (see
:mod:`repro.sim.link`); marking therefore reflects that port's queue,
exactly the per-egress-queue marking of Eq. 3.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.sim.engine import Simulator
from repro.sim.link import Link, Port
from repro.sim.packet import Packet
from repro.sim.pfc import PFCController


class Switch:
    """A named switch: ports toward neighbours plus a destination FIB."""

    def __init__(self, sim: Simulator, name: str,
                 pfc: Optional[PFCController] = None):
        self.sim = sim
        self.name = name
        self.pfc = pfc
        #: Egress ports keyed by neighbour (next-hop device) name.
        self.ports: Dict[str, Port] = {}
        #: Destination host name -> next-hop neighbour name.
        self.fib: Dict[str, str] = {}
        self.packets_forwarded = 0

    def attach_port(self, neighbour: str, port: Port) -> None:
        """Register the egress port toward ``neighbour``."""
        if neighbour in self.ports:
            raise ValueError(
                f"{self.name} already has a port toward {neighbour}")
        self.ports[neighbour] = port
        if self.pfc is not None:
            hook = self._make_egress_hook()
            port.on_transmit = hook
            # A dropped packet also leaves the buffer; without this the
            # PFC byte accounting would leak on every overflow.
            port.on_drop = hook

    def _make_egress_hook(self):
        def hook(packet: Packet) -> None:
            if packet.pfc_ingress is not None:
                self.pfc.on_egress(packet.pfc_ingress, packet.size_bytes)
        return hook

    def add_route(self, dst_host: str, neighbour: str) -> None:
        """Route packets destined to ``dst_host`` via ``neighbour``."""
        if neighbour not in self.ports:
            raise ValueError(
                f"{self.name} has no port toward {neighbour}; attach it "
                "before adding routes")
        self.fib[dst_host] = neighbour

    def port_for(self, dst_host: str) -> Port:
        """The egress port a packet to ``dst_host`` will take."""
        try:
            neighbour = self.fib[dst_host]
        except KeyError:
            raise KeyError(
                f"{self.name} has no route to {dst_host!r}; known: "
                f"{sorted(self.fib)}")
        return self.ports[neighbour]

    def receive(self, packet: Packet, ingress: Optional[str] = None) -> None:
        """Forward an arriving packet toward its destination."""
        if self.pfc is not None and ingress is not None:
            packet.pfc_ingress = ingress
            self.pfc.on_ingress(ingress, packet.size_bytes)
        else:
            packet.pfc_ingress = None
        self.packets_forwarded += 1
        try:
            port = self.ports[self.fib[packet.dst]]
        except KeyError:
            port = self.port_for(packet.dst)  # raises the routing error
        port.send(packet)


def connect(sim: Simulator, src_device, dst_device,
            rate_bytes_per_s: float, delay: float,
            marker: Optional[object] = None,
            marking_point: str = "egress",
            capacity_bytes: Optional[int] = None,
            priority_control: bool = False) -> Port:
    """Wire ``src_device -> dst_device`` and register the port.

    Works for host->switch, switch->switch and switch->host edges;
    ``src_device`` must expose either ``attach_port`` (switch) or an
    assignable ``port`` attribute (host).  Returns the created port.
    """
    link = Link(sim, delay, dst_device,
                ingress_label=getattr(src_device, "name", None))
    port = Port(sim, rate_bytes_per_s, link, marker=marker,
                marking_point=marking_point, capacity_bytes=capacity_bytes,
                name=f"{getattr(src_device, 'name', 'dev')}->"
                     f"{getattr(dst_device, 'name', 'dev')}",
                priority_control=priority_control)
    if hasattr(src_device, "attach_port"):
        src_device.attach_port(getattr(dst_device, "name"), port)
    else:
        src_device.port = port
    return port
