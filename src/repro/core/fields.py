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

The input is a :class:`~repro.core.assembly.MessageTable` and is read as
columns: service ids come from the payload buffer, each distinct read
request payload is decoded once, and each UDS read response is paired
with the last decodable read request before it by a running maximum over
row numbers.  Values come out as per-identifier columns
(:class:`EsvColumns`) in message order.  The UDS read responses of one
*layout* — one DID list and one response length — are gathered from the
buffer as one byte matrix and split at the marker positions of the
layout's first row that :func:`~repro.diagnostics.uds.decode_read_response`
accepts.  A row keeps that split when every DID marker sits at its
position and no value span holds an earlier occurrence of the next DID's
marker (the decoder's ``find`` rule); those are exactly the rows the
decoder would split the same way, and only the other rows go through it.
KWP and OBD-II responses are split per length the same way.  Only
IO-control requests and responses, and negative responses to them, are
walked row by row, because a pending request closes on its answer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from ..diagnostics import kwp2000, uds
from ..diagnostics.messages import (
    NEGATIVE_RESPONSE_SID,
    POSITIVE_RESPONSE_OFFSET,
    DiagnosticError,
)
from .assembly import MessageTable

ESV_RECORD_SIZE = 3

# Service ids as plain ints, compared against the service-id column.
_UDS_READ = int(uds.UdsService.READ_DATA_BY_IDENTIFIER)
_KWP_READ = int(kwp2000.KwpService.READ_DATA_BY_LOCAL_IDENTIFIER)
_IO_CONTROL = (
    int(uds.UdsService.IO_CONTROL_BY_IDENTIFIER),
    int(kwp2000.KwpService.IO_CONTROL_BY_LOCAL_IDENTIFIER),
)
_IO_RESPONSES = tuple(sid + POSITIVE_RESPONSE_OFFSET for sid in _IO_CONTROL)
_RESPONSE_PENDING = 0x78

#: Values up to this many bytes become float integers through int64 math
#: exactly (below 2**53); wider ones go through Python integers.
_EXACT_INT_WIDTH = 6

#: Read requests up to this many bytes are told apart as int64 keys; longer
#: ones as raw byte strings.
_INT_KEY_WIDTH = 7

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


def extract_fields(messages: MessageTable) -> ExtractedFields:
    """Run field extraction over a time-ordered message table."""
    out = ExtractedFields()
    lengths = messages.stops - messages.starts
    data = np.frombuffer(messages.buffer, dtype=np.uint8)
    sids = np.full(len(messages), -1, dtype=np.int64)
    nonempty = np.flatnonzero(lengths > 0)
    sids[nonempty] = data[messages.starts[nonempty]]

    # Responses by layout: for UDS the DID list of the paired request and
    # the response length, for KWP and OBD-II the response length.
    columns = _ColumnBuilder()
    did_lists, uds_rows, lists_of = _paired_uds_responses(messages, sids, lengths)
    layouts = lists_of * (int(lengths.max(initial=0)) + 1) + lengths[uds_rows]
    for group in _groups(layouts):
        _split_uds(columns, did_lists[lists_of[group[0]]], _Rows(messages, uds_rows[group]))
    kwp = np.flatnonzero(  # whole 3-byte records; else decode_read_response raises
        (sids == _KWP_READ + POSITIVE_RESPONSE_OFFSET) & (lengths % ESV_RECORD_SIZE == 2)
    )
    for group in _groups(lengths[kwp]):
        _split_kwp(columns, _Rows(messages, kwp[group]))
    obd = np.flatnonzero((sids == 0x41) & (lengths >= 3))  # OBD-II mode 01 responses
    for group in _groups(lengths[obd]):
        _split_obd(columns, _Rows(messages, obd[group]))
    out.observations = ObservationTable(columns.build())

    # IO control: requests, their positive responses, and negative
    # responses naming an IO-control service, walked in message order.
    walk = np.zeros(len(messages), dtype=bool)
    for sid in _IO_CONTROL + _IO_RESPONSES:
        walk |= sids == sid
    negative = np.flatnonzero((sids == NEGATIVE_RESPONSE_SID) & (lengths > 1))
    named = data[messages.starts[negative] + 1]
    walk[negative[(named == _IO_CONTROL[0]) | (named == _IO_CONTROL[1])]] = True
    _walk_io_control(out, messages, np.flatnonzero(walk))
    return out


def _paired_uds_responses(
    messages: MessageTable, sids: np.ndarray, lengths: np.ndarray
) -> Tuple[List[Tuple[int, ...]], np.ndarray, np.ndarray]:
    """UDS read responses, each paired with the last decodable read
    request before it.

    Returns the distinct DID lists, the rows of the paired responses and
    the index of each one's DID list.
    """
    requests = np.flatnonzero(sids == _UDS_READ)
    did_lists, request_lists = _decode_requests(messages, requests, lengths)
    decoded = requests[request_lists >= 0]
    latest = np.full(len(sids), -1, dtype=np.int64)
    latest[decoded] = decoded
    latest = np.maximum.accumulate(latest)
    list_of = np.full(len(sids), -1, dtype=np.int64)
    list_of[requests] = request_lists
    responses = np.flatnonzero(sids == _UDS_READ + POSITIVE_RESPONSE_OFFSET)
    paired = latest[responses]
    return did_lists, responses[paired >= 0], list_of[paired[paired >= 0]]


def _decode_requests(
    messages: MessageTable, rows: np.ndarray, lengths: np.ndarray
) -> Tuple[List[Tuple[int, ...]], np.ndarray]:
    """Decode each distinct read request payload among ``rows`` once.

    Returns the distinct DID lists and, per row, the index of its list, or
    -1 where the request does not decode.
    """
    did_lists: Dict[Tuple[int, ...], int] = {}
    layouts = np.full(len(rows), -1, dtype=np.int64)
    row_lengths = lengths[rows]
    for length in np.unique(row_lengths).tolist():
        mine = np.flatnonzero(row_lengths == length)
        matrix = messages.byte_matrix(rows[mine], length)
        if length <= _INT_KEY_WIDTH:  # the payload as one big-endian integer
            keys = matrix.astype(np.int64) @ (256 ** np.arange(length - 1, -1, -1, dtype=np.int64))
        else:
            keys = matrix.view(np.dtype((np.void, length))).ravel()
        __, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
        decoded = []
        for row in first.tolist():
            dids = _request_dids(matrix[row].tobytes())
            decoded.append(-1 if dids is None else did_lists.setdefault(dids, len(did_lists)))
        layouts[mine] = np.array(decoded, dtype=np.int64)[inverse.ravel()]
    return list(did_lists), layouts


def _groups(keys: np.ndarray) -> List[np.ndarray]:
    """Positions of each distinct key in ``keys``, ascending, one array per
    key, the keys in order of first appearance."""
    if not len(keys):
        return []
    order = np.argsort(keys, kind="stable")
    ordered = keys[order]
    starts = np.flatnonzero(np.concatenate(([True], ordered[1:] != ordered[:-1])))
    groups = np.split(order, starts[1:])
    # A stable sort puts each key's first appearance at its group's start.
    return [groups[key] for key in np.argsort(order[starts]).tolist()]


def _walk_io_control(out: ExtractedFields, messages: MessageTable, rows: np.ndarray) -> None:
    """IO-control requests in order; each answer closes the most recent
    pending request of its service."""
    pending_io: Dict[Tuple[int, int], IoControlEvent] = {}
    buffer = messages.buffer
    for start, stop, t_last in zip(
        messages.starts[rows].tolist(),
        messages.stops[rows].tolist(),
        messages.t_last[rows].tolist(),
    ):
        payload = buffer[start:stop]
        sid = payload[0]
        if sid in _IO_CONTROL:
            event = _decode_io_request(sid, payload, t_last)
            if event is not None:
                pending_io[(event.service, event.identifier)] = event
            continue
        if sid == NEGATIVE_RESPONSE_SID:
            if len(payload) >= 3 and payload[2] == _RESPONSE_PENDING:
                continue  # the real answer follows
            service, positive = payload[1], False
        else:
            service, positive = sid - POSITIVE_RESPONSE_OFFSET, True
        key = _match_pending_io(pending_io, service)
        if key is not None:
            event = pending_io.pop(key)
            out.io_events.append(
                IoControlEvent(
                    event.service, event.identifier, event.io_parameter,
                    event.control_state, event.timestamp, positive=positive,
                )
            )


class _Rows:
    """Response messages of one payload length, as columns."""

    def __init__(self, messages: MessageTable, rows: np.ndarray):
        self.index = rows
        self.times = messages.t_last[rows]
        length = int(messages.stops[rows[0]] - messages.starts[rows[0]])
        self.matrix = messages.byte_matrix(rows, length)

    def __len__(self) -> int:
        return len(self.index)

    def payload(self, row: int) -> bytes:
        return self.matrix[row].tobytes()


class _ColumnBuilder:
    """Pieces of each identifier's column, merged into message order."""

    def __init__(self) -> None:
        #: identifier -> (protocol, [(message index, position in message,
        #: times, raw values, formula types or None)])
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
        piece = (index, position, times, raw, formula_types)
        self._pieces.setdefault(identifier, (protocol, []))[1].append(piece)

    def build(self) -> Dict[str, EsvColumns]:
        built = {}
        firsts = {}
        for identifier, (protocol, pieces) in self._pieces.items():
            built[identifier] = _merge(protocol, pieces)
            firsts[identifier] = min((p[0][0], p[1]) for p in pieces)
        # Identifiers in order of first appearance, as the messages have them.
        return {key: built[key] for key in sorted(built, key=firsts.__getitem__)}


def _merge(protocol: str, pieces: list) -> EsvColumns:
    """One identifier's pieces as one column set, in message order."""
    formula_types = [
        np.zeros(len(piece[0]), dtype=np.uint8) if piece[4] is None else piece[4]
        for piece in pieces
    ]
    if len(pieces) == 1:
        __, __, times, raw, __ = pieces[0]
        return EsvColumns(protocol, times, raw, formula_types[0])
    index, positions, times, raws, __ = zip(*pieces)
    positions = [np.full(len(rows), position) for rows, position in zip(index, positions)]
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
    for first in range(len(rows)):
        try:
            accepted = uds.decode_read_response(dids, rows.payload(first))
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
            pairs = uds.decode_read_response(dids, rows.payload(row))
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
