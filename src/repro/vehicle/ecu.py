"""Simulated ECUs.

An ECU owns a set of *data points* (sensor values readable over UDS or
KWP 2000), a set of *actuators* (components controllable via IO-control
services), and a request handler implementing the diagnostic services of
§2.3.  The manufacturer-proprietary parts — which DID/local id maps to which
quantity, and which formula converts raw bytes to physical values — live in
the data-point definitions and are *not* exposed over the wire; only the
diagnostic-tool simulator is given the same tables, mirroring reality.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, List, Optional, Tuple

from ..diagnostics import kwp2000, uds
from ..diagnostics.messages import Nrc, negative_response
from ..formulas import EnumFormula, Formula
from .signals import SignalSource


@dataclass
class UdsDataPoint:
    """One readable quantity behind a UDS DID.

    ``signals`` holds one generator per raw variable.  Single-variable
    points may span ``bytes_per_var`` bytes (a 16-bit X); two-variable
    points encode one byte per variable (the paper's Car R engine speed,
    ``Y = 64.1*X0 + 0.241*X1``).
    """

    did: int
    name: str
    signals: List[SignalSource]
    formula: Formula
    bytes_per_var: int = 1
    unit: str = ""
    on_dashboard: bool = False

    def __post_init__(self) -> None:
        if self.formula.arity != len(self.signals):
            raise ValueError(
                f"{self.name}: formula arity {self.formula.arity} != "
                f"{len(self.signals)} signals"
            )
        if len(self.signals) > 1 and self.bytes_per_var != 1:
            raise ValueError("multi-variable points must use one byte per variable")

    @property
    def is_enum(self) -> bool:
        return isinstance(self.formula, EnumFormula)

    def raw(self, t: float) -> Tuple[int, ...]:
        return tuple(signal.sample(t) for signal in self.signals)

    def encode(self, t: float) -> bytes:
        out = bytearray()
        for value in self.raw(t):
            out += int(value).to_bytes(self.bytes_per_var, "big")
        return bytes(out)

    def physical(self, t: float) -> float:
        """Ground-truth displayed value at time ``t`` (simulation only)."""
        return self.formula(self.raw(t))


@dataclass
class KwpMeasurement:
    """One slot of a KWP 2000 measuring block (3-byte ESV record)."""

    name: str
    formula_type: int
    x0: SignalSource
    x1: SignalSource
    unit: str = ""
    on_dashboard: bool = False

    @property
    def formula(self) -> Formula:
        return kwp2000.formula_for_type(self.formula_type)

    @property
    def is_enum(self) -> bool:
        return self.formula_type in kwp2000.ENUM_FORMULA_TYPES

    def raw(self, t: float) -> Tuple[int, int]:
        return (self.x0.sample(t), self.x1.sample(t))

    def physical(self, t: float) -> float:
        return self.formula(self.raw(t))


@dataclass
class KwpDataGroup:
    """A KWP 2000 measuring block: a local identifier and its slots."""

    local_id: int
    name: str
    measurements: List[KwpMeasurement] = field(default_factory=list)


class ActuatorState(Enum):
    """IO-control state machine (ISO 14229 Annex E semantics)."""

    IDLE = "idle"
    FROZEN = "frozen"
    ADJUSTING = "adjusting"


@dataclass
class ActuatorAction:
    """One observed actuation, for attack-replay verification (Tab. 13)."""

    timestamp: float
    action: str
    control_state: bytes


class Actuator:
    """A controllable component with the freeze/adjust/return FSM.

    The paper's §4.5 finding: controlling a component takes exactly three
    requests — freeze current state (0x02), short-term adjustment (0x03,
    with control-state bytes), return control to ECU (0x00).  Sending an
    adjustment without first freezing is rejected with
    ``conditionsNotCorrect``, which is what forces the tool (and any
    attacker replaying messages) to follow the full procedure.
    """

    def __init__(self, identifier: int, name: str, state_length: int = 4) -> None:
        self.identifier = identifier
        self.name = name
        self.state_length = state_length
        self.state = ActuatorState.IDLE
        self.actions: List[ActuatorAction] = []

    def handle(self, io_parameter: int, control_state: bytes, t: float) -> Optional[Nrc]:
        """Apply one IO-control request; return an NRC on failure."""
        param = io_parameter
        if param == uds.IoControlParameter.FREEZE_CURRENT_STATE:
            self.state = ActuatorState.FROZEN
            self.actions.append(ActuatorAction(t, "freeze", bytes(control_state)))
            return None
        if param == uds.IoControlParameter.SHORT_TERM_ADJUSTMENT:
            if self.state == ActuatorState.IDLE:
                return Nrc.CONDITIONS_NOT_CORRECT
            self.state = ActuatorState.ADJUSTING
            self.actions.append(ActuatorAction(t, "adjust", bytes(control_state)))
            return None
        if param == uds.IoControlParameter.RETURN_CONTROL_TO_ECU:
            self.state = ActuatorState.IDLE
            self.actions.append(ActuatorAction(t, "return", bytes(control_state)))
            return None
        if param == uds.IoControlParameter.RESET_TO_DEFAULT:
            self.state = ActuatorState.IDLE
            self.actions.append(ActuatorAction(t, "reset", bytes(control_state)))
            return None
        return Nrc.REQUEST_OUT_OF_RANGE

    def adjustments(self) -> List[ActuatorAction]:
        return [a for a in self.actions if a.action == "adjust"]


@dataclass
class Routine:
    """A routine controllable via UDS RoutineControl (0x31).

    BMW-style actuation in Tab. 13 uses routine control rather than IO
    control (e.g. ``31 01 03`` = start routine 0x03xx).  Starting a routine
    records an action just like an actuator adjustment.
    """

    routine_id: int
    name: str
    runs: List[ActuatorAction] = field(default_factory=list)


ROUTINE_CONTROL_SID = 0x31
ROUTINE_START = 0x01
ROUTINE_STOP = 0x02
ROUTINE_RESULTS = 0x03

KWP_READ_ECU_IDENTIFICATION = 0x1A
#: Standard UDS identification DIDs answered from ``identification``.
UDS_IDENT_DIDS = (0xF190, 0xF189)

UDS_WRITE_DATA_BY_IDENTIFIER = 0x2E
#: The coding word DID (VAG-style "long coding" lives at a fixed DID).
CODING_DID = 0x0600


class SecurityAccessPolicy:
    """Seed/key security access with a simple XOR-mask key function."""

    def __init__(self, mask: int = 0x5A5A, required: bool = False) -> None:
        self.mask = mask
        self.required = required
        self.unlocked = not required
        self._last_seed: Optional[int] = None

    def request_seed(self, rng_value: int) -> int:
        self._last_seed = rng_value & 0xFFFF
        return self._last_seed

    def expected_key(self, seed: int) -> int:
        return (seed ^ self.mask) & 0xFFFF

    def try_unlock(self, key: int) -> bool:
        if self._last_seed is None:
            return False
        if key == self.expected_key(self._last_seed):
            self.unlocked = True
        return self.unlocked


class SimulatedEcu:
    """A diagnostic-capable ECU.

    Parameters:
        name: ECU name as shown in diagnostic-tool menus (e.g. "Engine").
        clock: shared :class:`~repro.simtime.SimClock`.
        ecr_service: which IO-control service this ECU implements —
            ``0x2F`` (UDS, 2-byte DID) or ``0x30`` (KWP-style, 1-byte
            local id); Tab. 11 shows both occur on UDS vehicles.
        security: optional seed/key gate protecting IO control.
    """

    def __init__(
        self,
        name: str,
        clock,
        ecr_service: int = uds.UdsService.IO_CONTROL_BY_IDENTIFIER,
        security: Optional[SecurityAccessPolicy] = None,
        slow_services: Optional[set] = None,
    ) -> None:
        self.name = name
        self.clock = clock
        self.ecr_service = ecr_service
        #: services that first answer NRC 0x78 (responsePending) and only
        #: then the real response — common on slow routines/IO control.
        self.slow_services = slow_services or set()
        self.pending_responses_sent = 0
        self.security = security or SecurityAccessPolicy(required=False)
        self.uds_data_points: Dict[int, UdsDataPoint] = {}
        self.kwp_groups: Dict[int, KwpDataGroup] = {}
        self.actuators: Dict[int, Actuator] = {}
        self.routines: Dict[int, Routine] = {}
        self.dtcs: List = []  # stored trouble codes (diagnostics.dtc.Dtc)
        self.dtc_clear_count = 0
        self.coding = bytes([0x00, 0x11, 0x77, 0x01])  # adaptive config word
        # Legislated OBD-II support (SAE J1979 mode 01): pid -> signal list.
        # Real engines answer these beside the proprietary services; the
        # paper's §9.4 alignment anchors on them.
        self.obd_pids: Dict[int, List[SignalSource]] = {}
        self.session = uds.SessionType.DEFAULT
        self.reset_count = 0
        self._seed_counter = 0x1234
        # Identification data returned by readEcuIdentification (KWP 0x1A)
        # and the standard UDS identification DIDs; real tools read these on
        # connect, producing the long multi-frame transfers Tab. 9 counts.
        self.identification = (
            f"{name.upper().replace(' ', '-')}-8E0907115H HW 04 SW 0040 "
            f"Coding 0011771 WSC 06325"
        )

    # -------------------------------------------------------------- configure

    def add_data_point(self, point: UdsDataPoint) -> None:
        if point.did in self.uds_data_points:
            raise ValueError(f"duplicate DID {point.did:#06x} on {self.name}")
        self.uds_data_points[point.did] = point

    def add_kwp_group(self, group: KwpDataGroup) -> None:
        if group.local_id in self.kwp_groups:
            raise ValueError(f"duplicate local id {group.local_id:#04x} on {self.name}")
        self.kwp_groups[group.local_id] = group

    def add_routine(self, routine: Routine) -> None:
        if routine.routine_id in self.routines:
            raise ValueError(
                f"duplicate routine id {routine.routine_id:#x} on {self.name}"
            )
        self.routines[routine.routine_id] = routine

    def add_actuator(self, actuator: Actuator) -> None:
        if actuator.identifier in self.actuators:
            raise ValueError(
                f"duplicate actuator id {actuator.identifier:#x} on {self.name}"
            )
        self.actuators[actuator.identifier] = actuator

    # ---------------------------------------------------------------- dispatch

    def handle_request(self, payload: bytes) -> Optional[bytes]:
        """Process one assembled request payload; return the response payload.

        Returns ``None`` only for suppressed-response TesterPresent.
        """
        if not payload:
            return negative_response(0x00, Nrc.GENERAL_REJECT)
        sid = payload[0]
        t = self.clock.now()
        if sid == uds.UdsService.DIAGNOSTIC_SESSION_CONTROL:
            return self._handle_session_control(payload)
        if sid == uds.UdsService.TESTER_PRESENT:
            if len(payload) >= 2 and payload[1] & 0x80:
                return None
            return bytes([sid + 0x40, 0x00])
        if sid == uds.UdsService.ECU_RESET:
            self.reset_count += 1
            self.session = uds.SessionType.DEFAULT
            return bytes([sid + 0x40, payload[1] if len(payload) > 1 else 0x01])
        if sid == uds.UdsService.SECURITY_ACCESS:
            return self._handle_security_access(payload)
        if sid == uds.UdsService.READ_DATA_BY_IDENTIFIER:
            return self._handle_read_dids(payload, t)
        if sid == KWP_READ_ECU_IDENTIFICATION:
            option = payload[1] if len(payload) > 1 else 0x9B
            return bytes([sid + 0x40, option]) + self.identification.encode("ascii")
        if sid == kwp2000.KwpService.READ_DATA_BY_LOCAL_IDENTIFIER:
            return self._handle_read_local(payload, t)
        if sid in (
            uds.UdsService.IO_CONTROL_BY_IDENTIFIER,
            kwp2000.KwpService.IO_CONTROL_BY_LOCAL_IDENTIFIER,
        ):
            return self._handle_io_control(payload, t)
        if sid == ROUTINE_CONTROL_SID:
            return self._handle_routine_control(payload, t)
        if sid in (0x19, 0x18, 0x14):
            return self._handle_dtc_service(payload)
        if sid == 0x01 and len(payload) == 2 and self.obd_pids:
            return self._handle_obd_mode01(payload[1], t)
        if sid == UDS_WRITE_DATA_BY_IDENTIFIER:
            return self._handle_write_did(payload)
        return negative_response(sid, Nrc.SERVICE_NOT_SUPPORTED)

    def _handle_write_did(self, payload: bytes) -> bytes:
        """WriteDataByIdentifier — ECU (re)coding (§9.1's "ECU coding")."""
        if len(payload) < 4:
            return negative_response(payload[0], Nrc.INCORRECT_MESSAGE_LENGTH)
        did = int.from_bytes(payload[1:3], "big")
        if did != CODING_DID:
            return negative_response(payload[0], Nrc.REQUEST_OUT_OF_RANGE)
        if self.session != uds.SessionType.EXTENDED:
            return negative_response(payload[0], Nrc.CONDITIONS_NOT_CORRECT)
        if not self.security.unlocked:
            return negative_response(payload[0], Nrc.SECURITY_ACCESS_DENIED)
        self.coding = bytes(payload[3:])
        return bytes([payload[0] + 0x40]) + did.to_bytes(2, "big")

    def _handle_obd_mode01(self, pid: int, t: float) -> Optional[bytes]:
        """SAE J1979 mode 01 — legislated current-data reads."""
        from ..diagnostics import obd2

        if pid in (0x00, 0x20, 0x40, 0x60):
            bitmap = obd2.encode_supported_pids(sorted(self.obd_pids), pid)
            return obd2.encode_response(pid, bitmap)
        signals = self.obd_pids.get(pid)
        if signals is None:
            return None  # unsupported PIDs go unanswered in OBD-II
        data = bytes(signal.sample(t) & 0xFF for signal in signals)
        return obd2.encode_response(pid, data)

    def _handle_dtc_service(self, payload: bytes) -> bytes:
        from ..diagnostics import dtc as dtc_codec

        sid = payload[0]
        if sid == dtc_codec.UDS_READ_DTC_INFORMATION:
            if len(payload) < 2 or payload[1] != dtc_codec.REPORT_DTC_BY_STATUS_MASK:
                return negative_response(sid, Nrc.SUBFUNCTION_NOT_SUPPORTED)
            mask = payload[2] if len(payload) > 2 else 0xFF
            matching = [d for d in self.dtcs if d.status & mask]
            return dtc_codec.encode_uds_dtc_response(matching)
        if sid == dtc_codec.KWP_READ_DTCS_BY_STATUS:
            return dtc_codec.encode_kwp_dtc_response(self.dtcs)
        # 0x14 clears in both UDS (3-byte group) and KWP (2-byte group).
        self.dtcs = []
        self.dtc_clear_count += 1
        return bytes([sid + 0x40])

    def _handle_routine_control(self, payload: bytes, t: float) -> bytes:
        if len(payload) < 3:
            return negative_response(payload[0], Nrc.INCORRECT_MESSAGE_LENGTH)
        sub = payload[1]
        # BMW-style short form uses a 1-byte routine id (Tab. 13, "31 01 03");
        # standard UDS uses 2 bytes.  Accept both.
        if len(payload) >= 4:
            routine_id = int.from_bytes(payload[2:4], "big")
            echo = payload[1:4]
        else:
            routine_id = payload[2]
            echo = payload[1:3]
        routine = self.routines.get(routine_id)
        if routine is None:
            return negative_response(payload[0], Nrc.REQUEST_OUT_OF_RANGE)
        if sub == ROUTINE_START:
            routine.runs.append(ActuatorAction(t, "start", bytes(payload[4:])))
        elif sub == ROUTINE_STOP:
            routine.runs.append(ActuatorAction(t, "stop", b""))
        elif sub != ROUTINE_RESULTS:
            return negative_response(payload[0], Nrc.SUBFUNCTION_NOT_SUPPORTED)
        return bytes([payload[0] + 0x40]) + bytes(echo)

    # ---------------------------------------------------------------- services

    def _handle_session_control(self, payload: bytes) -> bytes:
        if len(payload) < 2:
            return negative_response(payload[0], Nrc.INCORRECT_MESSAGE_LENGTH)
        try:
            self.session = uds.SessionType(payload[1] & 0x7F)
        except ValueError:
            return negative_response(payload[0], Nrc.SUBFUNCTION_NOT_SUPPORTED)
        # P2/P2* timing parameters follow in a real response.
        return bytes([payload[0] + 0x40, payload[1], 0x00, 0x32, 0x01, 0xF4])

    def _handle_security_access(self, payload: bytes) -> bytes:
        if len(payload) < 2:
            return negative_response(payload[0], Nrc.INCORRECT_MESSAGE_LENGTH)
        level = payload[1]
        if level % 2:  # odd sub-function: request seed
            if self.security.unlocked:
                return bytes([payload[0] + 0x40, level, 0x00, 0x00])
            self._seed_counter = (self._seed_counter * 0x9E37 + 0x79B9) & 0xFFFF
            seed = self.security.request_seed(self._seed_counter)
            return bytes([payload[0] + 0x40, level]) + seed.to_bytes(2, "big")
        if len(payload) < 4:
            return negative_response(payload[0], Nrc.INCORRECT_MESSAGE_LENGTH)
        key = int.from_bytes(payload[2:4], "big")
        if self.security.try_unlock(key):
            return bytes([payload[0] + 0x40, level])
        return negative_response(payload[0], Nrc.INVALID_KEY)

    def _handle_read_dids(self, payload: bytes, t: float) -> bytes:
        try:
            request = uds.decode_request_dids(payload)
        except Exception:
            return negative_response(payload[0], Nrc.INCORRECT_MESSAGE_LENGTH)
        specials = set(UDS_IDENT_DIDS) | {CODING_DID}
        unknown = [
            d
            for d in request.dids
            if d not in self.uds_data_points and d not in specials
        ]
        if unknown:
            return negative_response(payload[0], Nrc.REQUEST_OUT_OF_RANGE)
        out = bytearray([payload[0] + 0x40])
        for did in request.dids:
            out += did.to_bytes(2, "big")
            if did in UDS_IDENT_DIDS:
                out += self.identification.encode("ascii")
            elif did == CODING_DID:
                out += self.coding
            else:
                out += self.uds_data_points[did].encode(t)
        return bytes(out)

    def _handle_read_local(self, payload: bytes, t: float) -> bytes:
        try:
            local_id = kwp2000.decode_read_request(payload)
        except Exception:
            return negative_response(payload[0], Nrc.INCORRECT_MESSAGE_LENGTH)
        group = self.kwp_groups.get(local_id)
        if group is None:
            return negative_response(payload[0], Nrc.REQUEST_OUT_OF_RANGE)
        records = [
            (m.formula_type, m.raw(t)[0], m.raw(t)[1]) for m in group.measurements
        ]
        return kwp2000.encode_read_response(local_id, records)

    def _handle_io_control(self, payload: bytes, t: float) -> bytes:
        sid = payload[0]
        if sid != self.ecr_service:
            return negative_response(sid, Nrc.SERVICE_NOT_SUPPORTED)
        if not self.security.unlocked:
            return negative_response(sid, Nrc.SECURITY_ACCESS_DENIED)
        try:
            if sid == uds.UdsService.IO_CONTROL_BY_IDENTIFIER:
                request = uds.decode_io_control_request(payload)
                identifier, io_param, state = (
                    request.did,
                    request.io_parameter,
                    request.control_state,
                )
            else:
                identifier, ecr = kwp2000.decode_io_control_request(payload)
                if not ecr:
                    return negative_response(sid, Nrc.INCORRECT_MESSAGE_LENGTH)
                io_param, state = ecr[0], ecr[1:]
        except Exception:
            return negative_response(sid, Nrc.INCORRECT_MESSAGE_LENGTH)
        actuator = self.actuators.get(identifier)
        if actuator is None:
            return negative_response(sid, Nrc.REQUEST_OUT_OF_RANGE)
        nrc = actuator.handle(io_param, state, t)
        if nrc is not None:
            return negative_response(sid, nrc)
        if sid == uds.UdsService.IO_CONTROL_BY_IDENTIFIER:
            return (
                bytes([sid + 0x40])
                + identifier.to_bytes(2, "big")
                + bytes([io_param])
                + bytes(state)
            )
        return bytes([sid + 0x40, identifier, io_param]) + bytes(state[:1])

    # ----------------------------------------------------------------- queries

    def dashboard_values(self, t: float) -> Dict[str, float]:
        """Physical values of data points shown on the instrument cluster."""
        values: Dict[str, float] = {}
        for point in self.uds_data_points.values():
            if point.on_dashboard:
                values[point.name] = point.physical(t)
        for group in self.kwp_groups.values():
            for measurement in group.measurements:
                if measurement.on_dashboard:
                    values[measurement.name] = measurement.physical(t)
        return values
