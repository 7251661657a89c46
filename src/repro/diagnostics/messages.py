"""Shared diagnostic-message vocabulary.

Constants and small helpers used by the UDS, KWP 2000 and OBD-II
codecs as well as by the reverse-engineering pipeline.
"""

from __future__ import annotations

from enum import IntEnum


class DiagnosticError(Exception):
    """Raised on malformed diagnostic payloads."""


class Protocol(IntEnum):
    """Diagnostic protocol families handled by the reproduction."""

    OBD2 = 1
    KWP2000 = 2
    UDS = 3


POSITIVE_RESPONSE_OFFSET = 0x40  # positive response SID = request SID + 0x40
NEGATIVE_RESPONSE_SID = 0x7F


class Nrc(IntEnum):
    """Negative response codes (ISO 14229-1 subset)."""

    GENERAL_REJECT = 0x10
    SERVICE_NOT_SUPPORTED = 0x11
    SUBFUNCTION_NOT_SUPPORTED = 0x12
    INCORRECT_MESSAGE_LENGTH = 0x13
    CONDITIONS_NOT_CORRECT = 0x22
    REQUEST_OUT_OF_RANGE = 0x31
    SECURITY_ACCESS_DENIED = 0x33
    INVALID_KEY = 0x35
    RESPONSE_PENDING = 0x78


def is_negative_response(payload: bytes) -> bool:
    """True when ``payload`` is a UDS/KWP negative response."""
    return len(payload) >= 3 and payload[0] == NEGATIVE_RESPONSE_SID


def negative_response(service_id: int, nrc: Nrc) -> bytes:
    """Build the 3-byte negative response ``7F <sid> <nrc>``."""
    return bytes([NEGATIVE_RESPONSE_SID, service_id, nrc])
