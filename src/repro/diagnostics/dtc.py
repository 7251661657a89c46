"""Diagnostic trouble codes (DTCs).

Every diagnostic tool's first screen action is reading trouble codes; the
paper's telematics-app analysis finds that most apps *only* do DTC work
("they only use them to read/clear DTC", §4.6).  This module implements the
三 standard encodings:

* **OBD-II mode 03/04** (SAE J2012 2-byte codes, e.g. ``P0301``),
* **UDS 0x19/0x14** (ReadDTCInformation / ClearDiagnosticInformation,
  3-byte codes + status byte),
* **KWP 2000 0x18/0x14** (readDiagnosticTroubleCodesByStatus).

The letter prefix comes from the top two bits of the first byte:
``00=P(owertrain) 01=C(hassis) 10=B(ody) 11=U(network)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from .messages import DiagnosticError

_SYSTEM_LETTERS = "PCBU"


@dataclass(frozen=True)
class Dtc:
    """One trouble code with its UDS status byte."""

    code: str  # e.g. "P0301"
    status: int = 0x09  # testFailed | confirmedDTC
    description: str = ""

    def __post_init__(self) -> None:
        if (
            len(self.code) != 5
            or self.code[0] not in _SYSTEM_LETTERS
            or not all(c in "0123456789ABCDEF" for c in self.code[1:])
        ):
            raise DiagnosticError(f"malformed DTC code {self.code!r}")

    # ---------------------------------------------------------------- encode

    def to_two_bytes(self) -> bytes:
        """SAE J2012 2-byte form (OBD-II mode 03)."""
        system = _SYSTEM_LETTERS.index(self.code[0])
        first_digit = int(self.code[1], 16) & 0x3
        high = (system << 6) | (first_digit << 4) | int(self.code[2], 16)
        low = (int(self.code[3], 16) << 4) | int(self.code[4], 16)
        return bytes([high, low])

    def to_three_bytes(self) -> bytes:
        """UDS 3-byte form: the 2-byte code plus a failure-type byte."""
        return self.to_two_bytes() + b"\x00"

    # ---------------------------------------------------------------- decode

    @classmethod
    def from_two_bytes(cls, data: bytes, status: int = 0x09) -> "Dtc":
        if len(data) < 2:
            raise DiagnosticError(f"DTC needs 2 bytes, got {len(data)}")
        system = _SYSTEM_LETTERS[data[0] >> 6]
        code = (
            f"{system}{(data[0] >> 4) & 0x3:X}{data[0] & 0x0F:X}"
            f"{data[1] >> 4:X}{data[1] & 0x0F:X}"
        )
        return cls(code, status)


# --------------------------------------------------------------------- OBD-II

MODE_READ_DTCS = 0x03
MODE_CLEAR_DTCS = 0x04


def encode_obd_dtc_response(dtcs: Sequence[Dtc]) -> bytes:
    out = bytearray([MODE_READ_DTCS + 0x40, len(dtcs)])
    for dtc in dtcs:
        out += dtc.to_two_bytes()
    return bytes(out)


def decode_obd_dtc_response(payload: bytes) -> List[Dtc]:
    if len(payload) < 2 or payload[0] != MODE_READ_DTCS + 0x40:
        raise DiagnosticError(f"not a mode-03 response: {payload.hex()}")
    count = payload[1]
    body = payload[2:]
    if len(body) < 2 * count:
        raise DiagnosticError("truncated DTC list")
    return [Dtc.from_two_bytes(body[i * 2 : i * 2 + 2]) for i in range(count)]


# ------------------------------------------------------------------------ UDS

UDS_READ_DTC_INFORMATION = 0x19
UDS_CLEAR_DIAGNOSTIC_INFORMATION = 0x14
REPORT_DTC_BY_STATUS_MASK = 0x02


def encode_uds_read_dtcs(status_mask: int = 0xFF) -> bytes:
    return bytes([UDS_READ_DTC_INFORMATION, REPORT_DTC_BY_STATUS_MASK, status_mask])


def encode_uds_dtc_response(dtcs: Sequence[Dtc], availability_mask: int = 0xFF) -> bytes:
    out = bytearray(
        [UDS_READ_DTC_INFORMATION + 0x40, REPORT_DTC_BY_STATUS_MASK, availability_mask]
    )
    for dtc in dtcs:
        out += dtc.to_three_bytes() + bytes([dtc.status])
    return bytes(out)


def decode_uds_dtc_response(payload: bytes) -> List[Dtc]:
    if len(payload) < 3 or payload[0] != UDS_READ_DTC_INFORMATION + 0x40:
        raise DiagnosticError(f"not a ReadDTCInformation response: {payload.hex()}")
    body = payload[3:]
    if len(body) % 4:
        raise DiagnosticError("UDS DTC records are 4 bytes each")
    return [
        Dtc.from_two_bytes(body[i : i + 2], status=body[i + 3])
        for i in range(0, len(body), 4)
    ]


def encode_uds_clear(group: int = 0xFFFFFF) -> bytes:
    return bytes([UDS_CLEAR_DIAGNOSTIC_INFORMATION]) + group.to_bytes(3, "big")


# ------------------------------------------------------------------- KWP 2000

KWP_READ_DTCS_BY_STATUS = 0x18
KWP_CLEAR_DIAGNOSTIC_INFORMATION = 0x14


def encode_kwp_read_dtcs() -> bytes:
    return bytes([KWP_READ_DTCS_BY_STATUS, 0x00, 0xFF, 0x00])


def encode_kwp_dtc_response(dtcs: Sequence[Dtc]) -> bytes:
    out = bytearray([KWP_READ_DTCS_BY_STATUS + 0x40, len(dtcs)])
    for dtc in dtcs:
        out += dtc.to_two_bytes() + bytes([dtc.status])
    return bytes(out)


def decode_kwp_dtc_response(payload: bytes) -> List[Dtc]:
    if len(payload) < 2 or payload[0] != KWP_READ_DTCS_BY_STATUS + 0x40:
        raise DiagnosticError(f"not a KWP 0x18 response: {payload.hex()}")
    count = payload[1]
    body = payload[2:]
    if len(body) < 3 * count:
        raise DiagnosticError("truncated KWP DTC list")
    return [
        Dtc.from_two_bytes(body[i * 3 : i * 3 + 2], status=body[i * 3 + 2])
        for i in range(count)
    ]


#: Description table for the common codes the fleet seeds.
KNOWN_DTCS = {
    "P0301": "Cylinder 1 misfire detected",
    "P0171": "System too lean (bank 1)",
    "P0420": "Catalyst efficiency below threshold",
    "C0035": "Left front wheel speed sensor",
    "B1342": "ECU internal failure",
    "U0100": "Lost communication with ECM",
    "P0500": "Vehicle speed sensor malfunction",
    "B2960": "Key code incorrect",
}
