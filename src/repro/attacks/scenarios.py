"""Tab. 13 attack scenarios.

The paper replays reverse-engineered messages against four running
vehicles — BMW i3 (Car G), Lexus NX300 (Car D), Toyota Corolla (Car L) and
Kia (Car N) — covering reads, component control, routine control and ECU
resets.  :func:`run_table13` reproduces the experiment per car; the
``from_report`` variant replays exactly what a DP-Reverser run recovered.
"""

from __future__ import annotations

from typing import List, Optional

from ..core.reverser import ReverseReport
from ..vehicle import Vehicle
from ..vehicle.ecu import SimulatedEcu
from .replay import AttackReplayer, AttackResult


def _first_read_targets(vehicle: Vehicle, count: int = 2):
    """Pick readable DIDs (as an attacker who ran DP-Reverser would know)."""
    targets = []
    for ecu in vehicle.ecus:
        for point in ecu.uds_data_points.values():
            if not point.is_enum:
                targets.append((ecu.name, point))
    return targets[:count]


def _actuator_targets(vehicle: Vehicle, count: int = 3):
    targets = []
    for ecu in vehicle.ecus:
        for actuator in ecu.actuators.values():
            targets.append((ecu, actuator))
    return targets[:count]


def run_table13(vehicle: Vehicle) -> List[AttackResult]:
    """Run the Tab. 13 attack set against one (running) vehicle.

    Message content mirrors what DP-Reverser recovers: read requests for
    known DIDs, the three-message IO-control procedure for actuators,
    routine starts for BMW-style ECUs, and ECU resets.
    """
    replayer = AttackReplayer(vehicle)
    results: List[AttackResult] = []

    for ecu_name, point in _first_read_targets(vehicle):
        payload = bytes([0x22]) + point.did.to_bytes(2, "big")
        results.append(
            replayer.read_data(ecu_name, payload, f"Read {point.name} ({ecu_name})")
        )

    for ecu, actuator in _actuator_targets(vehicle):
        mask = ecu.security.mask if ecu.security.required else None
        results.append(
            replayer.control_component(
                ecu.name,
                actuator.identifier,
                bytes([0x05, 0x01, 0x00, 0x00]),
                f"Control {actuator.name} ({ecu.name})",
                service=ecu.ecr_service,
                unlock_mask=mask,
            )
        )

    for ecu in vehicle.ecus:
        for routine_id, routine in ecu.routines.items():
            results.append(
                replayer.run_routine(ecu.name, routine_id, f"Start {routine.name}")
            )

    results.append(replayer.reset_ecu(vehicle.ecus[-1].name, "Reset combination instrument"))
    return results


def replay_from_report(vehicle: Vehicle, report: ReverseReport) -> List[AttackResult]:
    """Replay what a DP-Reverser run actually recovered.

    This is the end-to-end attack story: the ECR procedures in ``report``
    (identifier, service, control state) are injected verbatim into a
    fresh session with the vehicle.
    """
    replayer = AttackReplayer(vehicle)
    results: List[AttackResult] = []
    for procedure in report.ecrs:
        if not procedure.complete:
            continue
        ecu = _ecu_with_actuator(vehicle, procedure.identifier)
        if ecu is None:
            continue
        mask = ecu.security.mask if ecu.security.required else None
        results.append(
            replayer.control_component(
                ecu.name,
                procedure.identifier,
                procedure.control_state,
                f"Replay {procedure.label or hex(procedure.identifier)}",
                service=procedure.service,
                unlock_mask=mask,
            )
        )
    return results


def _ecu_with_actuator(vehicle: Vehicle, identifier: int) -> Optional[SimulatedEcu]:
    for ecu in vehicle.ecus:
        if identifier in ecu.actuators:
            return ecu
    return None
