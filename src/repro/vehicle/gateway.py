"""Gateway-segmented vehicle architecture (Fig. 1 of the paper).

Modern vehicles do not hang every ECU off the OBD connector: the ECUs live
on internal buses behind a *gateway* that forwards diagnostic conversations
and isolates everything else.  Two consequences matter for DP-Reverser:

* the OBD-port sniffer sees exactly the diagnostic request/response frames
  (internal broadcast chatter never crosses the gateway), and
* every forwarded frame picks up a small store-and-forward latency.

:class:`GatewayVehicle` builds this topology on top of the ordinary
:class:`~repro.vehicle.vehicle.Vehicle` wiring: testers attach to the OBD
bus, ECUs to the internal bus, and a :class:`Gateway` bridges the
diagnostic id ranges in both directions.
"""

from __future__ import annotations

from typing import Iterable, Optional, Set

from ..can import BusNode, CanFrame, SimulatedCanBus
from ..simtime import SimClock
from .vehicle import EcuBinding, TransportKind, Vehicle


class Gateway:
    """Bridges diagnostic traffic between the OBD bus and an internal bus."""

    def __init__(
        self,
        obd_bus: SimulatedCanBus,
        internal_bus: SimulatedCanBus,
        to_internal_ids: Iterable[int],
        to_obd_ids: Iterable[int],
        latency_s: float = 0.0005,
    ) -> None:
        self.obd_bus = obd_bus
        self.internal_bus = internal_bus
        self.to_internal_ids: Set[int] = set(to_internal_ids)
        self.to_obd_ids: Set[int] = set(to_obd_ids)
        self.latency_s = latency_s
        self.forwarded = 0
        self.dropped = 0
        self._obd_node = BusNode("gateway-obd", handler=self._from_obd)
        self._internal_node = BusNode("gateway-int", handler=self._from_internal)
        obd_bus.attach(self._obd_node)
        internal_bus.attach(self._internal_node)

    def allow(self, request_id: int, response_id: int) -> None:
        """Open a diagnostic conversation through the gateway."""
        self.to_internal_ids.add(request_id)
        self.to_obd_ids.add(response_id)

    def _from_obd(self, frame: CanFrame) -> None:
        if frame.can_id not in self.to_internal_ids:
            self.dropped += 1
            return
        self.forwarded += 1
        self.obd_bus.clock.advance(self.latency_s)
        self._internal_node.send(CanFrame(frame.can_id, frame.data))

    def _from_internal(self, frame: CanFrame) -> None:
        if frame.can_id not in self.to_obd_ids:
            self.dropped += 1
            return
        self.forwarded += 1
        self.internal_bus.clock.advance(self.latency_s)
        self._obd_node.send(CanFrame(frame.can_id, frame.data))


class GatewayVehicle(Vehicle):
    """A vehicle whose ECUs sit on an internal bus behind a gateway.

    The public interface matches :class:`Vehicle`: ``attach_sniffer`` taps
    the **OBD** bus (the paper's observation point) and ``tester_endpoint``
    attaches testers there; ``add_ecu`` places ECUs on the internal bus and
    opens their id pair through the gateway.
    """

    def __init__(self, model: str, clock: Optional[SimClock] = None) -> None:
        super().__init__(model, transport=TransportKind.ISOTP, clock=clock)
        # ``self.bus`` (from Vehicle) is the OBD-port bus.
        self.internal_bus = SimulatedCanBus(self.clock, name=f"{model}-internal")
        self.gateway = Gateway(self.bus, self.internal_bus, (), ())

    def add_ecu(self, ecu, ecu_tx_id: int, ecu_rx_id: int, ecu_address: int = 0):
        if ecu.name in self.bindings:
            raise ValueError(f"duplicate ECU name {ecu.name!r} in {self.model}")
        from ..transport import IsoTpEndpoint

        binding = EcuBinding(ecu, TransportKind.ISOTP, ecu_tx_id, ecu_rx_id, ecu_address)

        def respond(payload: bytes, _binding=binding) -> None:
            response = ecu.handle_request(payload)
            if response is not None:
                _binding.endpoint.send(response)

        binding.endpoint = IsoTpEndpoint(
            self.internal_bus,
            f"{self.model}/{ecu.name}",
            tx_id=ecu_tx_id,
            rx_id=ecu_rx_id,
            on_message=respond,
        )
        self.bindings[ecu.name] = binding
        self.gateway.allow(request_id=ecu_rx_id, response_id=ecu_tx_id)
        return binding

    def broadcast_internal(self, frame: CanFrame) -> CanFrame:
        """Inject internal-only chatter (never crosses to the OBD port)."""
        return self.internal_bus.transmit("internal-chatter", frame)
