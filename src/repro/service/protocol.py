"""Wire protocol of the streaming diagnostic service.

One connection carries one vehicle session.  Every message — both
directions — travels in the same *length-prefixed envelope*: a 4-byte
big-endian unsigned length followed by that many body bytes.  Two body
formats share the envelope:

* **JSON** (the default) — the body is one compact UTF-8 JSON object.
  JSON keeps the protocol debuggable from a shell (``xxd`` + eyeballs)
  and trivially implementable on an ELM327-adapter bridge; the length
  prefix keeps framing independent of JSON whitespace and lets the
  reader enforce a hard per-message size bound *before* parsing (a
  malicious length field fails fast instead of buffering unboundedly).
* **binary** — the body starts with a NUL byte (no JSON body can: JSON
  must open with ``{``), then a 2-byte big-endian header length, a
  compact JSON header, and a packed payload.  The only binary message is
  ``frame-batch``: N CAN frames at a fixed :data:`FRAME_RECORD` stride
  (little-endian ``f64`` timestamp, ``u32`` CAN id, ``u8`` flags, ``u8``
  DLC, 8 zero-padded payload bytes — 22 bytes per frame), which the
  codecs encode and decode in one :mod:`struct` pass instead of one JSON
  dict round-trip per frame.

Message vocabulary (``type`` field):

========== =============== =================================================
direction  type            payload
========== =============== =================================================
client →   ``hello``       ``version``, ``tenant``, ``transport``
                           (``auto``/``isotp``/``vwtp``/``bmw``/``kline``)
                           and the capture ``meta`` (model, tool name, OCR
                           error rate, camera offset)
client →   ``frame``       one CAN frame: ``t``, ``id``, ``data`` (hex),
                           optional ``ext``/``ch``
client →   ``frame-batch`` N CAN frames in one binary envelope: JSON
                           header ``n`` (+ ``channels`` table for
                           non-``can0`` buses) followed by the packed
                           fixed-stride records
client →   ``kbyte``       one K-Line wire byte: ``t``, ``b``
client →   ``video``       one captured UI frame (same region schema as
                           ``video.jsonl`` in :mod:`repro.persistence`)
client →   ``click``       one robotic-clicker record
client →   ``segment``     one per-action activity window
client →   ``finish``      end of stream; ask for the final report
server →   ``welcome``     accepted: ``session`` id, protocol ``version``
                           (+ ``shard`` when the server is sharded)
server →   ``status``      incremental diagnosis snapshot (sent every
                           ``status_interval`` assembled messages)
server →   ``report``      the final report: ``report`` (dict form),
                           ``report_json`` (exact ``ReverseReport.to_json()``
                           bytes) and its sha-256 ``digest``
server →   ``error``       terminal failure; the server closes after sending
========== =============== =================================================

The per-frame JSON ``frame`` message remains fully supported — a v1
client that has never heard of batches interoperates unchanged; batching
is a purely additive fast path.
"""

from __future__ import annotations

import asyncio
import json
import math
import struct
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..can import (
    MAX_DATA_LENGTH,
    MAX_EXTENDED_ID,
    MAX_STANDARD_ID,
    CanFrame,
    InvalidFrameError,
)
from ..cps.arm import ClickRecord
from ..cps.camera import CapturedFrame, TextRegion
from ..cps.collector import Capture, Segment
from ..transport.arrays import FrameArrays
from ..transport.kline import KLineByte

PROTOCOL_VERSION = 1

#: Hard bound on one wire message.  A video frame of a busy screen is a few
#: tens of kilobytes; anything near a megabyte is a corrupt length field.
MAX_MESSAGE_BYTES = 1 << 20

_LENGTH = struct.Struct(">I")

#: Transports a ``hello`` may declare (``auto`` = sniff from the stream).
HELLO_TRANSPORTS = ("auto", "isotp", "vwtp", "bmw", "kline")

# ------------------------------------------------------- binary frame batch

FRAME_BATCH = "frame-batch"

#: One packed CAN frame: timestamp f64, can_id u32, flags u8, dlc u8,
#: 8 payload bytes (zero-padded past the DLC).  Little-endian, unaligned.
FRAME_RECORD = struct.Struct("<dIBB8s")

#: ``flags`` bit 0: 29-bit extended identifier.
FLAG_EXTENDED = 0x01
#: ``flags`` bits 1-7: index into the header's channel table (0 = can0).
_CHANNEL_SHIFT = 1
_MAX_CHANNELS = 0x7F

_BINARY_MAGIC = b"\x00"
_HEADER_LENGTH = struct.Struct(">H")

#: Frames one batch may carry: the packed records plus a worst-case JSON
#: header (magic + length + ``n`` + a full channel table) must fit the
#: per-message envelope bound.
_HEADER_SLACK = 4096
MAX_BATCH_FRAMES = (MAX_MESSAGE_BYTES - _HEADER_SLACK) // FRAME_RECORD.size


class ProtocolError(Exception):
    """Malformed framing or message content; the connection is unusable."""


def encode_message(message: dict) -> bytes:
    """One message as its on-wire bytes (length prefix + body).

    ``frame-batch`` messages (as produced by :func:`frame_batch_to_wire`)
    take the binary envelope; everything else is compact JSON.
    """
    if message.get("type") == FRAME_BATCH:
        return _encode_binary_message(message)
    body = json.dumps(message, separators=(",", ":"), sort_keys=True).encode()
    if len(body) > MAX_MESSAGE_BYTES:
        raise ProtocolError(
            f"message of {len(body)} bytes exceeds the {MAX_MESSAGE_BYTES} bound"
        )
    return _LENGTH.pack(len(body)) + body


def _encode_binary_message(message: dict) -> bytes:
    packed = message.get("_packed")
    if not isinstance(packed, (bytes, bytearray, memoryview)):
        raise ProtocolError("frame-batch message carries no packed records")
    header = {key: value for key, value in message.items() if key != "_packed"}
    header_bytes = json.dumps(header, separators=(",", ":"), sort_keys=True).encode()
    if len(header_bytes) > 0xFFFF:
        raise ProtocolError(f"binary header of {len(header_bytes)} bytes too large")
    body_length = (
        len(_BINARY_MAGIC) + _HEADER_LENGTH.size + len(header_bytes) + len(packed)
    )
    if body_length > MAX_MESSAGE_BYTES:
        raise ProtocolError(
            f"frame batch of {body_length} bytes exceeds the "
            f"{MAX_MESSAGE_BYTES} bound"
        )
    return b"".join(
        (
            _LENGTH.pack(body_length),
            _BINARY_MAGIC,
            _HEADER_LENGTH.pack(len(header_bytes)),
            header_bytes,
            bytes(packed),
        )
    )


class MessageDecoder:
    """Incremental wire-to-message decoding with a bounded buffer.

    Feed arbitrary byte chunks (TCP segmentation is not message
    segmentation); complete messages come back in order.  The declared
    length is validated *before* the body is buffered, so a corrupt or
    hostile length field raises :class:`ProtocolError` instead of growing
    the buffer without bound.

    Parsing walks a :class:`memoryview` over the buffer and compacts the
    consumed prefix once per :meth:`feed` call — a TCP chunk carrying many
    small messages costs O(bytes), not the O(bytes²) a per-message
    ``del buffer[:length]`` shift would.
    """

    def __init__(self, max_message_bytes: int = MAX_MESSAGE_BYTES) -> None:
        self.max_message_bytes = max_message_bytes
        self._buffer = bytearray()

    def feed(self, data: bytes) -> List[dict]:
        self._buffer.extend(data)
        messages: List[dict] = []
        consumed = 0
        total = len(self._buffer)
        view = memoryview(self._buffer)
        try:
            while total - consumed >= _LENGTH.size:
                (length,) = _LENGTH.unpack_from(view, consumed)
                if length > self.max_message_bytes:
                    raise ProtocolError(
                        f"declared message length {length} exceeds the "
                        f"{self.max_message_bytes} bound"
                    )
                if total - consumed - _LENGTH.size < length:
                    break
                start = consumed + _LENGTH.size
                body = bytes(view[start : start + length])
                consumed = start + length
                messages.append(_parse_body(body))
        finally:
            # Release before compacting: a bytearray with an exported
            # memoryview refuses to resize.
            view.release()
            if consumed:
                del self._buffer[:consumed]
        return messages


#: What ``json.loads`` raises on hostile bytes: ``ValueError`` covers bad
#: syntax, bad UTF-8 and integers past the interpreter's digit limit;
#: ``RecursionError`` comes from deeply nested arrays and objects.
_JSON_ERRORS = (ValueError, RecursionError)


def _parse_body(body: bytes) -> dict:
    if body[:1] == _BINARY_MAGIC:
        return _parse_binary_body(body)
    try:
        message = json.loads(body.decode("utf-8"))
    except _JSON_ERRORS as error:
        raise ProtocolError(f"message body is not JSON: {error}") from None
    if not isinstance(message, dict) or "type" not in message:
        raise ProtocolError("message must be an object with a 'type' field")
    return message


def _parse_binary_body(body: bytes) -> dict:
    if len(body) < len(_BINARY_MAGIC) + _HEADER_LENGTH.size:
        raise ProtocolError("truncated binary envelope")
    (header_length,) = _HEADER_LENGTH.unpack_from(body, len(_BINARY_MAGIC))
    start = len(_BINARY_MAGIC) + _HEADER_LENGTH.size
    if start + header_length > len(body):
        raise ProtocolError("binary header overruns the message body")
    try:
        header = json.loads(body[start : start + header_length].decode("utf-8"))
    except _JSON_ERRORS as error:
        raise ProtocolError(f"binary header is not JSON: {error}") from None
    if not isinstance(header, dict) or header.get("type") != FRAME_BATCH:
        raise ProtocolError("binary envelope must carry a frame-batch header")
    packed = body[start + header_length :]
    count = header.get("n")
    if type(count) is not int or count < 0:  # JSON true is no count
        raise ProtocolError("frame-batch header needs a non-negative 'n'")
    if count * FRAME_RECORD.size != len(packed):
        raise ProtocolError(
            f"frame-batch declares {count} frames but carries "
            f"{len(packed)} payload bytes"
        )
    header["_packed"] = packed
    return header


# ------------------------------------------------------------ async framing


async def read_message(reader: asyncio.StreamReader) -> Optional[dict]:
    """Read one message from a stream; ``None`` on clean EOF."""
    try:
        prefix = await reader.readexactly(_LENGTH.size)
    except asyncio.IncompleteReadError as error:
        if not error.partial:
            return None
        raise ProtocolError("connection closed mid-prefix") from None
    (length,) = _LENGTH.unpack(prefix)
    if length > MAX_MESSAGE_BYTES:
        raise ProtocolError(
            f"declared message length {length} exceeds the {MAX_MESSAGE_BYTES} bound"
        )
    try:
        body = await reader.readexactly(length)
    except asyncio.IncompleteReadError:
        raise ProtocolError("connection closed mid-message") from None
    return _parse_body(body)


def write_message(writer: asyncio.StreamWriter, message: dict) -> None:
    """Queue one message on a stream writer (caller decides when to drain)."""
    writer.write(encode_message(message))


# ----------------------------------------------------- capture <-> messages


#: What converting a hostile JSON field raises: a missing key, a value of
#: the wrong type or form, a number out of range (``float(10**400)``,
#: ``int(inf)``) or a CAN frame out of its bounds.
_BAD_FIELD = (KeyError, ValueError, TypeError, OverflowError, InvalidFrameError)


def _timestamp(value) -> float:
    """A wire timestamp as a finite float.

    ``float()`` takes JSON ``NaN``/``Infinity`` and strings such as
    ``"1e999"``; a non-finite time would poison every later difference of
    sample times, so it is refused like any other bad field.
    """
    timestamp = float(value)
    if not math.isfinite(timestamp):
        raise ValueError(f"timestamp {value!r} is not finite")
    return timestamp


def frame_to_wire(frame: CanFrame) -> dict:
    message = {"type": "frame", "t": frame.timestamp, "id": frame.can_id, "data": frame.data.hex()}
    if frame.extended:
        message["ext"] = True
    if frame.channel != "can0":
        message["ch"] = frame.channel
    return message


def frame_from_wire(message: dict) -> CanFrame:
    try:
        return CanFrame(
            can_id=int(message["id"]),
            data=bytes.fromhex(message.get("data", "")),
            timestamp=_timestamp(message["t"]),
            extended=bool(message.get("ext", False)),
            channel=str(message.get("ch", "can0")),
        )
    except _BAD_FIELD as error:
        raise ProtocolError(f"bad frame message: {error}") from None


def frame_batch_to_wire(frames: Sequence[CanFrame]) -> dict:
    """N CAN frames as one binary ``frame-batch`` message.

    The returned dict is the parsed form (header fields + ``_packed``
    record bytes), exactly what :class:`MessageDecoder` hands back for a
    batch, so a round-trip through :func:`encode_message` is lossless.
    """
    if len(frames) > MAX_BATCH_FRAMES:
        raise ProtocolError(
            f"batch of {len(frames)} frames exceeds the {MAX_BATCH_FRAMES} bound"
        )
    channels: List[str] = []
    channel_index: Dict[str, int] = {"can0": 0}
    packed = bytearray(len(frames) * FRAME_RECORD.size)
    for position, frame in enumerate(frames):
        index = channel_index.get(frame.channel)
        if index is None:
            channels.append(frame.channel)
            index = len(channels)
            if index > _MAX_CHANNELS:
                raise ProtocolError(
                    f"batch spans more than {_MAX_CHANNELS} distinct channels"
                )
            channel_index[frame.channel] = index
        flags = index << _CHANNEL_SHIFT
        if frame.extended:
            flags |= FLAG_EXTENDED
        FRAME_RECORD.pack_into(
            packed,
            position * FRAME_RECORD.size,
            frame.timestamp,
            frame.can_id,
            flags,
            len(frame.data),
            frame.data,
        )
    message: Dict = {"type": FRAME_BATCH, "n": len(frames), "_packed": bytes(packed)}
    if channels:
        message["channels"] = channels
    return message


class _LazyBatchFrames:
    """The :class:`CanFrame` list of a batch, built on first touch.

    The columnar ingest path never needs frame *objects* — only the
    fallback event decoders and the final ``Capture`` rebuild do.  This
    sequence defers the per-frame object construction until one of those
    actually indexes or iterates it, and then builds the frames from the
    columns :func:`arrays_from_batch` already decoded and validated.
    """

    __slots__ = ("_columns", "_frames")

    def __init__(self, can_ids, timestamps, dlcs, payloads, flags, channels) -> None:
        self._columns = (can_ids, timestamps, dlcs, payloads, flags, channels)
        self._frames: Optional[List[CanFrame]] = None

    def _force(self) -> List[CanFrame]:
        if self._frames is None:
            can_ids, timestamps, dlcs, payloads, flags, channels = self._columns
            table = ("can0", *channels)
            data = payloads.tobytes()
            self._frames = [
                CanFrame(
                    can_id,
                    data[row * MAX_DATA_LENGTH : row * MAX_DATA_LENGTH + dlc],
                    timestamp,
                    bool(flag & FLAG_EXTENDED),
                    table[flag >> _CHANNEL_SHIFT],
                )
                for row, (can_id, timestamp, dlc, flag) in enumerate(
                    zip(can_ids.tolist(), timestamps.tolist(), dlcs.tolist(), flags.tolist())
                )
            ]
        return self._frames

    def __len__(self) -> int:
        return len(self._columns[0])

    def __getitem__(self, index):
        return self._force()[index]

    def __iter__(self) -> Iterator[CanFrame]:
        return iter(self._force())


#: The packed record as a numpy structured dtype — field-for-field the
#: layout of :data:`FRAME_RECORD`, so a batch body *is* a record array.
_RECORD_DTYPE = np.dtype(
    [
        ("t", "<f8"),
        ("id", "<u4"),
        ("flags", "u1"),
        ("dlc", "u1"),
        ("data", "u1", (MAX_DATA_LENGTH,)),
    ]
)
assert _RECORD_DTYPE.itemsize == FRAME_RECORD.size


def arrays_from_batch(message: dict):
    """Decode one ``frame-batch`` straight into a columnar view.

    The only batch decoder.  It validates what a :class:`CanFrame` built
    from each record would (record stride, DLC bound, channel-table
    bounds, identifier range, finite timestamps), but reinterprets the
    packed body as a numpy record array instead of looping — no
    per-frame Python object is built.  The returned :class:`FrameArrays`
    carries a lazy ``frames`` sequence that builds :class:`CanFrame`
    objects from these columns only if a fallback path (noisy stream,
    capture rebuild) asks for them.
    """
    packed = message.get("_packed")
    if not isinstance(packed, (bytes, bytearray, memoryview)):
        raise ProtocolError("frame-batch message carries no packed records")
    channels = message.get("channels", [])
    if not isinstance(channels, list) or not all(
        isinstance(name, str) for name in channels
    ):
        raise ProtocolError("frame-batch channel table must be a list of names")
    try:
        records = np.frombuffer(packed, dtype=_RECORD_DTYPE)
    except ValueError as error:
        raise ProtocolError(f"bad frame-batch records: {error}") from None
    dlcs = records["dlc"].astype(np.int16)
    if records.size:
        if int(dlcs.max()) > MAX_DATA_LENGTH:
            raise ProtocolError(f"frame record declares DLC {int(dlcs.max())}")
        if int(records["flags"].max()) >> _CHANNEL_SHIFT > len(channels):
            raise ProtocolError("frame record names a channel outside the table")
        limits = np.where(records["flags"] & FLAG_EXTENDED, MAX_EXTENDED_ID, MAX_STANDARD_ID)
        if (records["id"] > limits).any():
            raise ProtocolError("frame record carries an out-of-range CAN id")
        if not np.isfinite(records["t"]).all():
            raise ProtocolError("frame record carries a non-finite timestamp")
    payloads = records["data"].copy()
    columns = np.arange(MAX_DATA_LENGTH, dtype=np.int16)
    payloads[columns[None, :] >= dlcs[:, None]] = 0  # pad bytes are not data
    can_ids = np.ascontiguousarray(records["id"])
    timestamps = np.ascontiguousarray(records["t"])
    return FrameArrays(
        can_ids=can_ids,
        timestamps=timestamps,
        dlcs=dlcs,
        payloads=payloads,
        frames=_LazyBatchFrames(can_ids, timestamps, dlcs, payloads, records["flags"], channels),
    )


def kline_byte_to_wire(byte: KLineByte) -> dict:
    return {"type": "kbyte", "t": byte.timestamp, "b": byte.value}


def kline_byte_from_wire(message: dict) -> KLineByte:
    try:
        value = int(message["b"])
        if not 0 <= value <= 0xFF:
            raise ValueError(f"byte value {value} out of range")
        return KLineByte(timestamp=_timestamp(message["t"]), value=value)
    except _BAD_FIELD as error:
        raise ProtocolError(f"bad kbyte message: {error}") from None


def video_to_wire(frame: CapturedFrame) -> dict:
    return {
        "type": "video",
        "t": frame.timestamp,
        "screen": frame.screen_name,
        "regions": [
            {
                "text": r.text,
                "x": r.x,
                "y": r.y,
                "width": r.width,
                "height": r.height,
                "kind": r.kind,
                "icon": r.icon,
            }
            for r in frame.regions
        ],
    }


#: JSON types a wire video region's fields must have.  Screenshot analysis
#: compares and slices them without conversion, so a region with ``"x":
#: "a"`` or ``"text": 7`` would otherwise fail only at finalize.
_REGION_TYPES = {
    "text": str,
    "kind": str,
    "icon": str,
    "x": int,
    "y": int,
    "width": int,
    "height": int,
}


def _region_from_wire(region: object) -> TextRegion:
    if not isinstance(region, dict):
        raise TypeError("a video region must be an object")
    for name, value in region.items():
        expected = _REGION_TYPES.get(name)
        # ``type() is`` and not ``isinstance``: JSON true is no coordinate.
        if expected is not None and type(value) is not expected:
            raise TypeError(f"region field {name!r} must be {expected.__name__}")
    return TextRegion(**region)


def video_from_wire(message: dict) -> CapturedFrame:
    try:
        return CapturedFrame(
            timestamp=_timestamp(message["t"]),
            screen_name=str(message["screen"]),
            regions=[_region_from_wire(region) for region in message.get("regions", [])],
        )
    except _BAD_FIELD as error:
        raise ProtocolError(f"bad video message: {error}") from None


def click_to_wire(click: ClickRecord) -> dict:
    return {
        "type": "click",
        "t": click.timestamp,
        "x": click.x,
        "y": click.y,
        "label": click.label,
        "hit": click.hit,
    }


def click_from_wire(message: dict) -> ClickRecord:
    try:
        return ClickRecord(
            timestamp=_timestamp(message["t"]),
            x=message["x"],
            y=message["y"],
            label=str(message.get("label", "")),
            hit=bool(message.get("hit", True)),
        )
    except _BAD_FIELD as error:
        raise ProtocolError(f"bad click message: {error}") from None


def segment_to_wire(segment: Segment) -> dict:
    return {
        "type": "segment",
        "kind": segment.kind,
        "ecu": segment.ecu,
        "label": segment.label,
        "t_start": segment.t_start,
        "t_end": segment.t_end,
    }


def segment_from_wire(message: dict) -> Segment:
    try:
        return Segment(
            kind=str(message["kind"]),
            ecu=str(message["ecu"]),
            label=str(message["label"]),
            t_start=_timestamp(message["t_start"]),
            t_end=_timestamp(message["t_end"]),
        )
    except _BAD_FIELD as error:
        raise ProtocolError(f"bad segment message: {error}") from None


def hello_message(
    capture: Capture, tenant: str = "anonymous", transport: str = "auto"
) -> dict:
    if transport not in HELLO_TRANSPORTS:
        raise ProtocolError(
            f"unknown transport {transport!r}; expected one of {HELLO_TRANSPORTS}"
        )
    return {
        "type": "hello",
        "version": PROTOCOL_VERSION,
        "tenant": tenant,
        "transport": transport,
        "meta": {
            "model": capture.model,
            "tool_name": capture.tool_name,
            "tool_error_rate": capture.tool_error_rate,
            "camera_offset_s": capture.camera_offset_s,
        },
    }


def capture_to_wire(
    capture: Capture,
    tenant: str = "anonymous",
    transport: str = "auto",
    kline_bytes: Optional[Iterable[KLineByte]] = None,
    batch_size: int = 0,
) -> Iterator[dict]:
    """The full message sequence that streams one recorded capture.

    Yields ``hello``, then every capture record *in timestamp order across
    record kinds* (the interleaving a live adapter would produce), then
    ``finish``.  For a K-Line capture pass the sniffed ``kline_bytes``;
    CAN frames and K-Line bytes may not be mixed in one session.

    With ``batch_size > 0`` the CAN frames coalesce into binary
    ``frame-batch`` messages of ``batch_size`` frames.  Video and click
    messages go out as they come while the frame run stays open, so only
    the last batch before the segments may be short.  Frames keep their
    order among themselves, and so do the other records; a session keeps
    frames, video and clicks in separate lists, so the report is the same
    either way.  ``batch_size=0`` keeps the v1 per-frame JSON wire format.
    """
    yield hello_message(capture, tenant=tenant, transport=transport)
    records: List[Tuple[Dict, Optional[CanFrame]]] = []
    for frame in capture.can_log:
        records.append((frame_to_wire(frame), frame))
    for byte in kline_bytes or ():
        records.append((kline_byte_to_wire(byte), None))
    for video in capture.video:
        records.append((video_to_wire(video), None))
    for click in capture.clicks:
        records.append((click_to_wire(click), None))
    records.sort(key=lambda r: r[0]["t"])
    run: List[CanFrame] = []
    for message, frame in records:
        if frame is None or batch_size <= 0:
            yield message
            continue
        run.append(frame)
        if len(run) == batch_size:
            yield frame_batch_to_wire(run)
            run = []
    if run:
        yield frame_batch_to_wire(run)
    for segment in capture.segments:
        yield segment_to_wire(segment)
    yield {"type": "finish"}
