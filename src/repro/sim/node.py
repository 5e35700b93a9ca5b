"""End hosts: NIC port plus per-flow sender/receiver protocol agents."""

from __future__ import annotations

from typing import Dict, Optional

from repro.sim.engine import Simulator
from repro.sim.link import Port
from repro.sim.packet import PACKET_POOL, Packet


class Host:
    """A server with one NIC attachment toward its top-of-rack switch.

    The host dispatches arriving packets to per-flow agents:
    data packets to the flow's receiver (NP side), ACK/CNP control
    packets to the flow's sender (RP side).  Outbound packets funnel
    through :attr:`port`, the NIC serializer, so concurrent flows on
    one host naturally share (and contend for) the NIC line rate.
    """

    def __init__(self, sim: Simulator, name: str):
        self.sim = sim
        self.name = name
        #: NIC egress port; wired up by :func:`repro.sim.switch.connect`.
        self.port: Optional[Port] = None
        self._senders: Dict[int, object] = {}
        self._receivers: Dict[int, object] = {}
        #: Packets discarded on arrival because the fault injector
        #: corrupted them in flight (CRC failure at the NIC).
        self.corrupted_discarded = 0

    # -- agent registration ---------------------------------------------------

    def register_sender(self, flow_id: int, sender: object) -> None:
        """Attach the RP-side agent for a flow originating here."""
        if flow_id in self._senders:
            raise ValueError(
                f"{self.name} already has a sender for flow {flow_id}")
        self._senders[flow_id] = sender

    def register_receiver(self, flow_id: int, receiver: object) -> None:
        """Attach the NP-side agent for a flow terminating here."""
        if flow_id in self._receivers:
            raise ValueError(
                f"{self.name} already has a receiver for flow {flow_id}")
        self._receivers[flow_id] = receiver

    def unregister_sender(self, flow_id: int) -> None:
        """Detach a finished sender (keeps the dispatch table small)."""
        self._senders.pop(flow_id, None)

    def unregister_receiver(self, flow_id: int) -> None:
        """Detach a finished receiver."""
        self._receivers.pop(flow_id, None)

    @property
    def active_senders(self) -> int:
        """Number of flows currently sending from this host.

        TIMELY starts a new flow at ``C / (N + 1)`` where ``N`` is this
        count (Section 4 of the paper).
        """
        return len(self._senders)

    # -- data path ------------------------------------------------------------

    def send(self, packet: Packet) -> None:
        """Hand a packet to the NIC for (serialized) transmission."""
        if self.port is None:
            raise RuntimeError(f"{self.name} has no NIC attachment")
        self.port.send(packet)

    def receive(self, packet: Packet, ingress: Optional[str] = None) -> None:
        """Dispatch an arriving packet to the matching flow agent.

        Packets for unknown flows are dropped silently: they are
        in-flight stragglers of flows whose agents already finished
        and deregistered.  Corrupted packets (fault injection) fail
        the NIC CRC check and are discarded before dispatch.

        The host is a packet's terminal hop, so pool-loaned packets
        are recycled here once the handler returns; handlers copy any
        field they keep (see :class:`repro.sim.packet.PacketPool`).
        """
        if packet.corrupted:
            self.corrupted_discarded += 1
            if packet.pooled:
                PACKET_POOL.release(packet)
            return
        if packet.kind == "data":
            receiver = self._receivers.get(packet.flow_id)
            if receiver is not None:
                receiver.on_data(packet)
        elif packet.kind == "ack":
            sender = self._senders.get(packet.flow_id)
            if sender is not None:
                sender.on_ack(packet)
        elif packet.kind == "cnp":
            sender = self._senders.get(packet.flow_id)
            if sender is not None:
                sender.on_cnp(packet)
        else:
            raise ValueError(
                f"{self.name} cannot handle packet kind {packet.kind!r}")
        if packet.pooled:
            PACKET_POOL.release(packet)
