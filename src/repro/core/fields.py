"""Step 3 of diagnostic-frames analysis: field extraction (§3.2).

From the assembled payloads this stage extracts the manufacturer-defined
fields DP-Reverser reverse engineers:

* **DIDs / local identifiers** from read requests,
* **ESVs** from read responses — for UDS the DID list of the *preceding
  request* delimits the values (the lengths are not encoded), for KWP 2000
  responses split into 3-byte ``(formula_type, X0, X1)`` records,
* **ECRs** (IO-control parameter + control state) from IO-control requests,
* OBD-II mode-01 PIDs and data bytes (used as alignment/ground-truth
  anchors).

Pairing is by bus order, not by conversation: a UDS read response is
split against the most recent decodable UDS read request anywhere on the
bus, whichever CAN ids or ECU address carried the two, and an IO-control
response closes the most recent pending request of its service.  Two
ECUs polled in an interleaved way can therefore split one ECU's response
against the other's DID list (DESIGN "Known limitations").

Values come out as per-identifier columns (:class:`EsvColumns`) in
message order.  Each distinct request payload is decoded once, and the
UDS read responses of one *layout* — one DID list and one response
length — are split as one byte matrix at the marker positions of the
layout's first row that :func:`~repro.diagnostics.uds.decode_read_response`
accepts.  A row keeps that split when every DID marker sits at its
position and no value span holds an earlier occurrence of the next DID's
marker (the decoder's ``find`` rule); those are exactly the rows the
decoder would split the same way, and only the other rows go through it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..diagnostics import kwp2000, uds
from ..diagnostics.messages import (
    NEGATIVE_RESPONSE_SID,
    POSITIVE_RESPONSE_OFFSET,
    DiagnosticError,
)
from .assembly import AssembledMessage

ESV_RECORD_SIZE = 3

# Service ids as plain ints: the message loop compares every payload's
# first byte against them.
_UDS_READ = int(uds.UdsService.READ_DATA_BY_IDENTIFIER)
_KWP_READ = int(kwp2000.KwpService.READ_DATA_BY_LOCAL_IDENTIFIER)
_IO_CONTROL = (
    int(uds.UdsService.IO_CONTROL_BY_IDENTIFIER),
    int(kwp2000.KwpService.IO_CONTROL_BY_LOCAL_IDENTIFIER),
)

#: Values up to this many bytes become float integers through int64 math
#: exactly (below 2**53); wider ones go through Python integers.
_EXACT_INT_WIDTH = 6

RawValues = Union[np.ndarray, List[bytes]]


@dataclass(eq=False)
class EsvColumns:
    """One identifier's values in message order.

    ``raw`` is an ``(n, width)`` uint8 matrix when every value has the same
    width, else a list of ``bytes``; ``formula_types`` holds each value's
    KWP formula-type byte (0 for other protocols).  A value's variables
    are its bytes, so a KWP value's are its X0 and X1.
    """

    protocol: str  # "uds" | "kwp" | "obd2"
    times: np.ndarray  # float64: t_last of each value's response
    raw: RawValues
    formula_types: np.ndarray  # uint8

    def __len__(self) -> int:
        return len(self.times)

    @property
    def ragged(self) -> bool:
        """True when the values' widths differ (``raw`` is a list)."""
        return not isinstance(self.raw, np.ndarray)

    def width(self, row: int = 0) -> int:
        """Byte count of one value."""
        return len(self.raw[row]) if self.ragged else self.raw.shape[1]

    def raw_bytes(self) -> List[bytes]:
        """Each value's bytes."""
        return list(self.raw) if self.ragged else _row_bytes(self.raw)

    def variables(self) -> List[Tuple[int, ...]]:
        """Each value's raw integer variables, one per byte."""
        if self.ragged:
            return [tuple(value) for value in self.raw]
        return list(map(tuple, self.raw.tolist()))

    def as_ints(self) -> List[int]:
        """Each value as one big-endian integer."""
        return [int.from_bytes(value, "big") for value in self.raw_bytes()]

    def int_features(self) -> np.ndarray:
        """Each value as one big-endian integer, as a float — the same
        float ``float(int.from_bytes(value, "big"))`` gives."""
        if not self.ragged and self.raw.shape[1] <= _EXACT_INT_WIDTH:
            weights = 256 ** np.arange(self.raw.shape[1] - 1, -1, -1, dtype=np.int64)
            return (self.raw.astype(np.int64) @ weights).astype(float)
        return np.array([float(value) for value in self.as_ints()], dtype=float)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, EsvColumns):
            return NotImplemented
        if self.ragged:
            same_raw = other.ragged and list(self.raw) == list(other.raw)
        else:
            same_raw = not other.ragged and np.array_equal(self.raw, other.raw)
        return (
            self.protocol == other.protocol
            and same_raw
            and np.array_equal(self.times, other.times)
            and np.array_equal(self.formula_types, other.formula_types)
        )


def _row_bytes(matrix: np.ndarray) -> List[bytes]:
    width = matrix.shape[1]
    if not width:
        return [b""] * len(matrix)
    blob = matrix.tobytes()
    return [blob[i : i + width] for i in range(0, len(blob), width)]


@dataclass
class ObservationTable:
    """Every ESV value field extraction found, per identifier."""

    columns: Dict[str, EsvColumns] = field(default_factory=dict)

    def __len__(self) -> int:
        """The number of values (not of identifiers)."""
        return sum(len(column) for column in self.columns.values())


@dataclass(frozen=True)
class IoControlEvent:
    """One IO-control request (plus whether it was answered positively)."""

    service: int  # 0x2F or 0x30
    identifier: int  # DID or local id
    io_parameter: int
    control_state: bytes
    timestamp: float
    positive: bool


@dataclass
class ExtractedFields:
    """Everything field extraction produced from one capture."""

    observations: ObservationTable = field(default_factory=ObservationTable)
    io_events: List[IoControlEvent] = field(default_factory=list)

    def by_identifier(self) -> Dict[str, EsvColumns]:
        return self.observations.columns


def _request_dids(payload: bytes) -> Optional[Tuple[int, ...]]:
    try:
        return uds.decode_request_dids(payload).dids
    except DiagnosticError:
        return None


def extract_fields(messages: Sequence[AssembledMessage]) -> ExtractedFields:
    """Run field extraction over time-ordered assembled messages."""
    out = ExtractedFields()
    request_dids: Dict[bytes, Optional[Tuple[int, ...]]] = {}
    dids: Optional[Tuple[int, ...]] = None  # of the last decodable UDS read
    # Response message indices by UDS layout (DIDs, response length), and
    # by response length for KWP and OBD-II.
    uds_layouts: Dict[Tuple[Tuple[int, ...], int], List[int]] = {}
    kwp_lengths: Dict[int, List[int]] = {}
    obd_lengths: Dict[int, List[int]] = {}
    pending_io: Dict[Tuple[int, int], IoControlEvent] = {}

    for index, message in enumerate(messages):
        payload = message.payload
        if not payload:
            continue
        sid = payload[0]

        if sid < 0x40 and sid != NEGATIVE_RESPONSE_SID:  # a request
            if sid == _UDS_READ:
                try:
                    request = request_dids[payload]
                except KeyError:
                    request = request_dids[payload] = _request_dids(payload)
                if request is not None:
                    dids = request
            elif sid in _IO_CONTROL:
                event = _decode_io_request(sid, payload, message.t_last)
                if event is not None:
                    pending_io[(event.service, event.identifier)] = event
            continue

        # ---- responses -------------------------------------------------
        if sid == NEGATIVE_RESPONSE_SID:
            if len(payload) >= 3 and payload[2] == 0x78:
                continue  # responsePending: the real answer follows
            if len(payload) >= 2:
                key = _match_pending_io(pending_io, payload[1])
                if key is not None:
                    event = pending_io.pop(key)
                    out.io_events.append(
                        IoControlEvent(
                            event.service, event.identifier, event.io_parameter,
                            event.control_state, event.timestamp, positive=False,
                        )
                    )
            continue
        if sid == _UDS_READ + POSITIVE_RESPONSE_OFFSET and dids is not None:
            uds_layouts.setdefault((dids, len(payload)), []).append(index)
        elif sid == _KWP_READ + POSITIVE_RESPONSE_OFFSET:
            kwp_lengths.setdefault(len(payload), []).append(index)
        elif sid == 0x41 and len(payload) >= 3:  # OBD-II mode 01 response
            obd_lengths.setdefault(len(payload), []).append(index)
        elif sid - POSITIVE_RESPONSE_OFFSET in _IO_CONTROL:
            key = _match_pending_io(pending_io, sid - POSITIVE_RESPONSE_OFFSET)
            if key is not None:
                event = pending_io.pop(key)
                out.io_events.append(
                    IoControlEvent(
                        event.service, event.identifier, event.io_parameter,
                        event.control_state, event.timestamp, positive=True,
                    )
                )

    columns = _ColumnBuilder()
    for (layout_dids, length), rows in uds_layouts.items():
        _split_uds(columns, layout_dids, _Rows(messages, rows, length))
    for length, rows in kwp_lengths.items():
        if (length - 2) % ESV_RECORD_SIZE == 0:  # else decode_read_response raises
            _split_kwp(columns, _Rows(messages, rows, length))
    for length, rows in obd_lengths.items():
        _split_obd(columns, _Rows(messages, rows, length))
    out.observations = ObservationTable(columns.build())
    return out


class _Rows:
    """Response messages of one payload length, as columns."""

    def __init__(self, messages: Sequence[AssembledMessage], rows: List[int], length: int):
        picked = [messages[i] for i in rows]
        self.index = np.array(rows, dtype=np.int64)
        self.times = np.array([m.t_last for m in picked], dtype=float)
        self.payloads = [m.payload for m in picked]
        self.matrix = np.frombuffer(b"".join(self.payloads), dtype=np.uint8).reshape(
            len(rows), length
        )


class _ColumnBuilder:
    """Pieces of each identifier's column, merged into message order."""

    def __init__(self) -> None:
        #: identifier -> (protocol, [(message index, position in message,
        #: times, raw values, formula types)])
        self._pieces: Dict[str, Tuple[str, list]] = {}

    def add(
        self,
        identifier: str,
        protocol: str,
        index: np.ndarray,
        position: int,
        times: np.ndarray,
        raw: RawValues,
        formula_types: Optional[np.ndarray] = None,
    ) -> None:
        if not len(index):
            return
        if formula_types is None:
            formula_types = np.zeros(len(index), dtype=np.uint8)
        positions = np.full(len(index), position, dtype=np.int64)
        piece = (index, positions, times, raw, formula_types)
        self._pieces.setdefault(identifier, (protocol, []))[1].append(piece)

    def build(self) -> Dict[str, EsvColumns]:
        built = {}
        firsts = {}
        for identifier, (protocol, pieces) in self._pieces.items():
            built[identifier] = _merge(protocol, pieces)
            firsts[identifier] = min((p[0][0], p[1][0]) for p in pieces)
        # Identifiers in order of first appearance, as the messages have them.
        return {key: built[key] for key in sorted(built, key=firsts.__getitem__)}


def _merge(protocol: str, pieces: list) -> EsvColumns:
    """One identifier's pieces as one column set, in message order."""
    if len(pieces) == 1:
        __, __, times, raw, formula_types = pieces[0]
        return EsvColumns(protocol, times, raw, formula_types)
    index, positions, times, raws, formula_types = zip(*pieces)
    order = np.lexsort((np.concatenate(positions), np.concatenate(index)))
    widths = set()
    for raw in raws:
        widths.update(map(len, raw) if isinstance(raw, list) else (raw.shape[1],))
    if len(widths) == 1:
        width = widths.pop()
        matrices = [
            np.frombuffer(b"".join(raw), dtype=np.uint8).reshape(len(raw), width)
            if isinstance(raw, list)
            else raw
            for raw in raws
        ]
        merged: RawValues = np.concatenate(matrices)[order]
    else:
        values: List[bytes] = []
        for raw in raws:
            values.extend(raw if isinstance(raw, list) else _row_bytes(raw))
        merged = [values[i] for i in order.tolist()]
    return EsvColumns(
        protocol,
        np.concatenate(times)[order],
        merged,
        np.concatenate(formula_types)[order],
    )


def _split_uds(columns: _ColumnBuilder, dids: Tuple[int, ...], rows: _Rows) -> None:
    """Split the read responses of one layout (DIDs, response length)."""
    accepted = None
    for first, payload in enumerate(rows.payloads):
        try:
            accepted = uds.decode_read_response(dids, payload)
        except DiagnosticError:
            continue
        break
    if accepted is None:
        return
    body = rows.matrix[:, 1:]
    # Marker positions of the accepted split, then the rows that share it.
    starts = [0]
    for __, value in accepted[:-1]:
        starts.append(starts[-1] + 2 + len(value))
    fits = np.zeros(len(body), dtype=bool)
    fits[first:] = True
    for position, (did, start) in enumerate(zip(dids, starts)):
        fits &= (body[:, start] == did >> 8) & (body[:, start + 1] == did & 0xFF)
        if position + 1 < len(dids):
            following = dids[position + 1]
            stop = starts[position + 1]  # the value span is [start + 2, stop)
            early = (body[:, start + 2 : stop] == following >> 8) & (
                body[:, start + 3 : stop + 1] == following & 0xFF
            )
            fits &= ~early.any(axis=1)
    kept = np.flatnonzero(fits)
    index, times = rows.index[kept], rows.times[kept]
    ends = starts[1:] + [body.shape[1]]
    for position, (did, start, stop) in enumerate(zip(dids, starts, ends)):
        columns.add(
            f"uds:{did:04X}", "uds", index, position, times, body[kept, start + 2 : stop]
        )
    # Rows before the first accepted one failed the decoder; the rest that
    # do not fit the layout's split go through it one by one.
    for row in np.flatnonzero(~fits[first:]).tolist():
        row += first
        try:
            pairs = uds.decode_read_response(dids, rows.payloads[row])
        except DiagnosticError:
            continue
        for position, (did, value) in enumerate(pairs):
            columns.add(
                f"uds:{did:04X}",
                "uds",
                rows.index[row : row + 1],
                position,
                rows.times[row : row + 1],
                [value],
            )


def _split_kwp(columns: _ColumnBuilder, rows: _Rows) -> None:
    """Split KWP read responses of one length into 3-byte records."""
    local_ids = rows.matrix[:, 1]
    records = rows.matrix[:, 2:].reshape(len(local_ids), -1, ESV_RECORD_SIZE)
    for local_id in np.unique(local_ids).tolist():
        mine = np.flatnonzero(local_ids == local_id)
        for position in range(records.shape[1]):
            record = records[mine, position]
            columns.add(
                f"kwp:{local_id:02X}/{position}",
                "kwp",
                rows.index[mine],
                0,
                rows.times[mine],
                record[:, 1:],
                record[:, 0],
            )


def _split_obd(columns: _ColumnBuilder, rows: _Rows) -> None:
    """OBD-II mode 01 responses of one length: the data bytes per PID."""
    pids = rows.matrix[:, 1]
    for pid in np.unique(pids).tolist():
        mine = np.flatnonzero(pids == pid)
        columns.add(
            f"obd2:{pid:02X}", "obd2", rows.index[mine], 0, rows.times[mine], rows.matrix[mine, 2:]
        )


def _decode_io_request(sid: int, payload: bytes, t: float) -> Optional[IoControlEvent]:
    try:
        if sid == uds.UdsService.IO_CONTROL_BY_IDENTIFIER:
            request = uds.decode_io_control_request(payload)
            return IoControlEvent(
                sid, request.did, request.io_parameter, request.control_state, t, False
            )
        identifier, ecr = kwp2000.decode_io_control_request(payload)
        if not ecr:
            return None
        return IoControlEvent(sid, identifier, ecr[0], bytes(ecr[1:]), t, False)
    except Exception:
        return None


def _match_pending_io(
    pending: Dict[Tuple[int, int], IoControlEvent], request_sid: int
) -> Optional[Tuple[int, int]]:
    """Most recent pending IO request with the given service id."""
    candidates = [key for key in pending if key[0] == request_sid]
    if not candidates:
        return None
    return max(candidates, key=lambda key: pending[key].timestamp)
