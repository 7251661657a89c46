"""Diagnostic application-layer protocols: UDS, KWP 2000 and OBD-II."""

from .messages import (
    DiagnosticError,
    NEGATIVE_RESPONSE_SID,
    Nrc,
    POSITIVE_RESPONSE_OFFSET,
    Protocol,
    is_negative_response,
    negative_response,
)
from . import dtc, kwp2000, obd2, uds
from .uds import IoControlParameter, SessionType, UdsService
from .kwp2000 import KWP_FORMULA_TABLE, KwpEsv, KwpService
from .obd2 import STANDARD_PIDS, TABLE5_PIDS, PidDefinition

__all__ = [
    "DiagnosticError",
    "NEGATIVE_RESPONSE_SID",
    "Nrc",
    "POSITIVE_RESPONSE_OFFSET",
    "Protocol",
    "is_negative_response",
    "negative_response",
    "dtc",
    "kwp2000",
    "obd2",
    "uds",
    "IoControlParameter",
    "SessionType",
    "UdsService",
    "KWP_FORMULA_TABLE",
    "KwpEsv",
    "KwpService",
    "STANDARD_PIDS",
    "TABLE5_PIDS",
    "PidDefinition",
]
