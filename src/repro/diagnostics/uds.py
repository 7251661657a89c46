"""UDS (ISO 14229) application-layer codec.

Implements the services DP-Reverser targets plus the session-management
services every real diagnostic session uses:

====  ==============================  =====================================
 SID  Service                         Role in the reproduction
====  ==============================  =====================================
0x10  DiagnosticSessionControl        enter default/extended session
0x11  ECUReset                        Tab. 13 attack replay
0x22  ReadDataByIdentifier            read ESVs (possibly several DIDs)
0x27  SecurityAccess                  seed/key gate for IO control
0x2F  InputOutputControlByIdentifier  actuate components (ECR analysis)
0x3E  TesterPresent                   keep-alive
====  ==============================  =====================================

Only encoding/decoding lives here; ECU behaviour is in
:mod:`repro.vehicle.ecu` and tool behaviour in :mod:`repro.tools`.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
from typing import List, Sequence, Tuple

from .messages import (
    DiagnosticError,
    POSITIVE_RESPONSE_OFFSET,
    is_negative_response,
)


class UdsService(IntEnum):
    """Service identifiers used by the reproduction."""

    DIAGNOSTIC_SESSION_CONTROL = 0x10
    ECU_RESET = 0x11
    READ_DATA_BY_IDENTIFIER = 0x22
    SECURITY_ACCESS = 0x27
    IO_CONTROL_BY_IDENTIFIER = 0x2F
    TESTER_PRESENT = 0x3E


class IoControlParameter(IntEnum):
    """First byte of an ECU control record (ISO 14229-1 Annex E)."""

    RETURN_CONTROL_TO_ECU = 0x00
    RESET_TO_DEFAULT = 0x01
    FREEZE_CURRENT_STATE = 0x02
    SHORT_TERM_ADJUSTMENT = 0x03


class SessionType(IntEnum):
    DEFAULT = 0x01
    PROGRAMMING = 0x02
    EXTENDED = 0x03


# --------------------------------------------------------------------- encode


def encode_session_control(session: SessionType = SessionType.EXTENDED) -> bytes:
    return bytes([UdsService.DIAGNOSTIC_SESSION_CONTROL, session])


def encode_tester_present(suppress_response: bool = False) -> bytes:
    return bytes([UdsService.TESTER_PRESENT, 0x80 if suppress_response else 0x00])


def encode_read_data_by_identifier(dids: Sequence[int]) -> bytes:
    """Build a ReadDataByIdentifier request for one or more 2-byte DIDs."""
    if not dids:
        raise DiagnosticError("ReadDataByIdentifier needs at least one DID")
    out = bytearray([UdsService.READ_DATA_BY_IDENTIFIER])
    for did in dids:
        if not 0 <= did <= 0xFFFF:
            raise DiagnosticError(f"DID {did:#x} does not fit two bytes")
        out += did.to_bytes(2, "big")
    return bytes(out)


def encode_io_control(
    did: int,
    io_parameter: IoControlParameter,
    control_state: bytes = b"",
    enable_mask: bytes = b"",
) -> bytes:
    """Build an InputOutputControlByIdentifier request.

    Layout (Fig. 4): ``2F <DID:2> <ioParam> <controlState...> [<mask...>]``.
    """
    if not 0 <= did <= 0xFFFF:
        raise DiagnosticError(f"DID {did:#x} does not fit two bytes")
    return (
        bytes([UdsService.IO_CONTROL_BY_IDENTIFIER])
        + did.to_bytes(2, "big")
        + bytes([io_parameter])
        + bytes(control_state)
        + bytes(enable_mask)
    )


def encode_security_access_request_seed(level: int = 0x01) -> bytes:
    return bytes([UdsService.SECURITY_ACCESS, level])


def encode_security_access_send_key(level: int, key: bytes) -> bytes:
    return bytes([UdsService.SECURITY_ACCESS, level + 1]) + bytes(key)


# --------------------------------------------------------------------- decode


@dataclass(frozen=True)
class ReadDataRequest:
    dids: Tuple[int, ...]


@dataclass(frozen=True)
class IoControlRequest:
    did: int
    io_parameter: int
    control_state: bytes


def decode_request_dids(payload: bytes) -> ReadDataRequest:
    """Parse the DID list of a ReadDataByIdentifier request."""
    if not payload or payload[0] != UdsService.READ_DATA_BY_IDENTIFIER:
        raise DiagnosticError(f"not a ReadDataByIdentifier request: {payload.hex()}")
    body = payload[1:]
    if not body or len(body) % 2:
        raise DiagnosticError(f"malformed DID list in {payload.hex()}")
    dids = tuple(
        int.from_bytes(body[i : i + 2], "big") for i in range(0, len(body), 2)
    )
    return ReadDataRequest(dids)


def decode_io_control_request(payload: bytes) -> IoControlRequest:
    """Parse an InputOutputControlByIdentifier request."""
    if (
        len(payload) < 4
        or payload[0] != UdsService.IO_CONTROL_BY_IDENTIFIER
    ):
        raise DiagnosticError(f"not an IO-control request: {payload.hex()}")
    did = int.from_bytes(payload[1:3], "big")
    return IoControlRequest(did, payload[3], bytes(payload[4:]))


def decode_read_response(
    request_dids: Sequence[int], payload: bytes
) -> List[Tuple[int, bytes]]:
    """Split a ReadDataByIdentifier positive response into (DID, ESV) pairs.

    The response repeats the requested DIDs in order, each followed by its
    value whose length is *not* encoded — so, as the paper observes (§3.2,
    Step 3), the request's DID list is required to delimit the values: each
    value ends where the next expected DID begins.
    """
    if is_negative_response(payload):
        raise DiagnosticError(f"negative response: {payload.hex()}")
    expected = UdsService.READ_DATA_BY_IDENTIFIER + POSITIVE_RESPONSE_OFFSET
    if not payload or payload[0] != expected:
        raise DiagnosticError(f"not a ReadDataByIdentifier response: {payload.hex()}")
    body = payload[1:]
    results: List[Tuple[int, bytes]] = []
    cursor = 0
    for index, did in enumerate(request_dids):
        marker = did.to_bytes(2, "big")
        if body[cursor : cursor + 2] != marker:
            raise DiagnosticError(
                f"DID {did:#06x} not found at offset {cursor} of {body.hex()}"
            )
        cursor += 2
        if index + 1 < len(request_dids):
            next_marker = request_dids[index + 1].to_bytes(2, "big")
            end = body.find(next_marker, cursor)
            if end == -1:
                raise DiagnosticError(
                    f"next DID {request_dids[index + 1]:#06x} missing in response"
                )
        else:
            end = len(body)
        results.append((did, bytes(body[cursor:end])))
        cursor = end
    return results


def decode_io_control_response(payload: bytes) -> Tuple[int, int, bytes]:
    """Parse a positive IO-control response into (DID, ioParam, state)."""
    expected = UdsService.IO_CONTROL_BY_IDENTIFIER + POSITIVE_RESPONSE_OFFSET
    if len(payload) < 4 or payload[0] != expected:
        raise DiagnosticError(f"not an IO-control response: {payload.hex()}")
    did = int.from_bytes(payload[1:3], "big")
    return did, payload[3], bytes(payload[4:])
