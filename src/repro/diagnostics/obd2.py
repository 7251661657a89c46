"""OBD-II (SAE J1979 / ISO 15031) mode-01 codec and standard PID table.

OBD-II is the one diagnostic protocol whose formulas *are* public, which is
why the paper uses it as ground truth (§4.2, Tab. 5) and as the anchor for
message/screenshot time alignment (§9.4).  This module provides:

* the mode-01 PID table with the standard conversion formulas (both the
  metric and, where SAE defines one, the imperial variant);
* request/response encoding (``01 <pid>`` → ``41 <pid> <data…>``);
* supported-PID bitmap handling (PIDs 0x00/0x20/0x40…).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..formulas import (
    AffineFormula,
    Formula,
    TwoVarAffineFormula,
)
from .messages import DiagnosticError

MODE_CURRENT_DATA = 0x01
POSITIVE_MODE_OFFSET = 0x40


@dataclass(frozen=True)
class PidDefinition:
    """One SAE J1979 parameter id."""

    pid: int
    name: str
    num_bytes: int
    formula: Formula  # primary (metric) formula
    alt_formula: Optional[Formula] = None  # imperial variant if SAE defines one
    min_value: float = 0.0
    max_value: float = 0.0


def _pct(unit: str = "%") -> Formula:
    return AffineFormula(100.0 / 255.0, 0.0, unit=unit)


#: SAE J1979 mode-01 PID table (the subset relevant to the paper plus the
#: other commonly implemented scalar PIDs).  The seven PIDs of Tab. 5 are
#: 0x11, 0x04, 0x2F, 0x0C, 0x0D, 0x05 and 0x0B.
STANDARD_PIDS: Dict[int, PidDefinition] = {
    definition.pid: definition
    for definition in [
        PidDefinition(0x04, "Calculated Engine Load", 1, _pct(), None, 0, 100),
        PidDefinition(
            0x05,
            "Engine Coolant Temperature",
            1,
            AffineFormula(1.0, -40.0, unit="degC"),
            AffineFormula(1.8, -40.0, unit="degF"),
            -40,
            215,
        ),
        PidDefinition(
            0x06, "Short Term Fuel Trim B1", 1, AffineFormula(100.0 / 128.0, -100.0, unit="%"),
            None, -100, 99.2,
        ),
        PidDefinition(
            0x07, "Long Term Fuel Trim B1", 1, AffineFormula(100.0 / 128.0, -100.0, unit="%"),
            None, -100, 99.2,
        ),
        PidDefinition(0x0A, "Fuel Pressure", 1, AffineFormula(3.0, 0.0, unit="kPa"), None, 0, 765),
        PidDefinition(
            0x0B,
            "Intake Manifold Absolute Pressure",
            1,
            AffineFormula(1.0, 0.0, unit="kPa"),
            AffineFormula(1.0 / 3.39, 0.0, unit="inHg"),
            0,
            255,
        ),
        PidDefinition(
            0x0C,
            "Engine Speed",
            2,
            TwoVarAffineFormula(64.0, 0.25, 0.0, unit="rpm"),  # (256*A+B)/4
            None,
            0,
            16383.75,
        ),
        PidDefinition(
            0x0D,
            "Vehicle Speed",
            1,
            AffineFormula(1.0, 0.0, unit="km/h"),
            AffineFormula(0.621371, 0.0, unit="mph"),
            0,
            255,
        ),
        PidDefinition(
            0x0E, "Timing Advance", 1, AffineFormula(0.5, -64.0, unit="deg"), None, -64, 63.5
        ),
        PidDefinition(
            0x0F, "Intake Air Temperature", 1, AffineFormula(1.0, -40.0, unit="degC"),
            None, -40, 215,
        ),
        PidDefinition(
            0x10,
            "MAF Air Flow Rate",
            2,
            TwoVarAffineFormula(2.56, 0.01, 0.0, unit="g/s"),  # (256*A+B)/100
            None,
            0,
            655.35,
        ),
        PidDefinition(0x11, "Absolute Throttle Position", 1, _pct(), None, 0, 100),
        PidDefinition(
            0x1F, "Run Time Since Engine Start", 2,
            TwoVarAffineFormula(256.0, 1.0, 0.0, unit="s"), None, 0, 65535,
        ),
        PidDefinition(
            0x21, "Distance Traveled With MIL On", 2,
            TwoVarAffineFormula(256.0, 1.0, 0.0, unit="km"), None, 0, 65535,
        ),
        PidDefinition(0x2F, "Fuel Tank Level Input", 1, _pct(), None, 0, 100),
        PidDefinition(
            0x33, "Absolute Barometric Pressure", 1, AffineFormula(1.0, 0.0, unit="kPa"),
            None, 0, 255,
        ),
        PidDefinition(
            0x42, "Control Module Voltage", 2,
            TwoVarAffineFormula(0.256, 0.001, 0.0, unit="V"), None, 0, 65.535,
        ),
        PidDefinition(
            0x46, "Ambient Air Temperature", 1, AffineFormula(1.0, -40.0, unit="degC"),
            None, -40, 215,
        ),
        PidDefinition(
            0x5C, "Engine Oil Temperature", 1, AffineFormula(1.0, -40.0, unit="degC"),
            None, -40, 210,
        ),
        PidDefinition(
            0x5E, "Engine Fuel Rate", 2,
            TwoVarAffineFormula(256.0 * 0.05, 0.05, 0.0, unit="L/h"), None, 0, 3276.75,
        ),
    ]
}

#: The seven ESV types of the paper's Tab. 5, in table order.
TABLE5_PIDS: Tuple[int, ...] = (0x11, 0x04, 0x2F, 0x0C, 0x0D, 0x05, 0x0B)


def pid_definition(pid: int) -> PidDefinition:
    try:
        return STANDARD_PIDS[pid]
    except KeyError as exc:
        raise DiagnosticError(f"unknown OBD-II PID {pid:#04x}") from exc


# --------------------------------------------------------------------- encode


def encode_request(pid: int, mode: int = MODE_CURRENT_DATA) -> bytes:
    """Build a mode-01 style request ``<mode> <pid>``."""
    return bytes([mode, pid])


def encode_response(pid: int, data: bytes, mode: int = MODE_CURRENT_DATA) -> bytes:
    """Build the positive response ``<mode+0x40> <pid> <data…>``."""
    return bytes([mode + POSITIVE_MODE_OFFSET, pid]) + bytes(data)


def encode_supported_pids(supported: Sequence[int], window_start: int) -> bytes:
    """Encode the 4-byte supported-PID bitmap for PIDs
    ``window_start+1 .. window_start+32``."""
    bits = 0
    for pid in supported:
        if window_start < pid <= window_start + 32:
            bits |= 1 << (32 - (pid - window_start))
    return bits.to_bytes(4, "big")


def decode_supported_pids(window_start: int, bitmap: bytes) -> List[int]:
    """Decode a supported-PID bitmap back into a PID list."""
    if len(bitmap) != 4:
        raise DiagnosticError(f"PID bitmap must be 4 bytes, got {len(bitmap)}")
    bits = int.from_bytes(bitmap, "big")
    return [
        window_start + offset
        for offset in range(1, 33)
        if bits & (1 << (32 - offset))
    ]


# --------------------------------------------------------------------- decode


def decode_request(payload: bytes) -> Tuple[int, int]:
    """Parse ``<mode> <pid>`` into (mode, pid)."""
    if len(payload) != 2:
        raise DiagnosticError(f"OBD-II request must be 2 bytes: {payload.hex()}")
    return payload[0], payload[1]


def decode_response(payload: bytes) -> Tuple[int, int, bytes]:
    """Parse a positive response into (mode, pid, data bytes)."""
    if len(payload) < 2 or payload[0] < POSITIVE_MODE_OFFSET:
        raise DiagnosticError(f"not a positive OBD-II response: {payload.hex()}")
    return payload[0] - POSITIVE_MODE_OFFSET, payload[1], bytes(payload[2:])


def physical_value(pid: int, data: bytes, imperial: bool = False) -> float:
    """Convert response data bytes into the physical value per SAE J1979."""
    definition = pid_definition(pid)
    if len(data) < definition.num_bytes:
        raise DiagnosticError(
            f"PID {pid:#04x} needs {definition.num_bytes} bytes, got {len(data)}"
        )
    xs = tuple(float(b) for b in data[: definition.num_bytes])
    formula = definition.formula
    if imperial and definition.alt_formula is not None:
        formula = definition.alt_formula
    return formula(xs)
