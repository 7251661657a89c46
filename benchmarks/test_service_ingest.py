"""Clean-stream ingest: batched binary wire vs. per-frame JSON wire.

The tentpole number of the service fast path.  One synthetic, perfectly
clean all-single-frame ISO-TP capture is pushed through the two wire
shapes the protocol supports:

* **per-frame (v1)** — every frame is its own JSON message; the session
  takes the event-by-event :meth:`~repro.service.session.VehicleSession
  .ingest_frame` path;
* **batched (v2)** — frames travel 256 to a binary ``frame-batch``
  record; the session takes :meth:`~repro.service.session.VehicleSession
  .ingest_frames`, which rides the vectorised
  :meth:`~repro.core.assembly.StreamAssembler.feed_chunk` fast path when
  the stream is clean.

Both paths consume identical wire chunks (socket-sized, 32 KiB) through a
real :class:`~repro.service.protocol.MessageDecoder`, so the measured
time covers the full ingest stack: framing, codec, assembly.  The bench
asserts the two sessions end in identical state (same assembled
messages, same diagnostics) before reporting any timing — a fast path
that diverges is a bug, not a win.

Metrics (``BENCH_service_ingest.json``):

* identity — ``frames``, ``messages``, ``wire_bytes_per_frame``,
  ``wire_bytes_batched`` (the wire sizes are deterministic functions of
  the synthetic capture, so they gate exactly);
* timing (warn-only, except the CI floor) — ``frames_per_s_v1``,
  ``frames_per_s_batched``, ``ingest_speedup``.  CI pins
  ``--floor ingest_speedup=3.0``; the bench-host target is >= 5x.

The synthetic capture carries no multi-frame transfer, so a second case
decodes real clean 30 s fleet captures of the ISO-TP and BMW cars (VW TP
2.0 always decodes per frame) straight through the assembler: every frame
through :meth:`~repro.core.assembly.StreamAssembler.feed`, against
256-frame :meth:`~repro.core.assembly.StreamAssembler.feed_chunk` calls.
Messages, diagnostics and decoder state must be identical before
``fleet_decode_speedup`` is reported; CI pins ``--floor
fleet_decode_speedup=1.5``, which a return to per-frame multi-frame
decode fails.

A third case runs the service chain in process, the way ``repro serve``
sees a whole capture, video included: client encode, a
:class:`~repro.service.protocol.MessageDecoder` fed 64 KiB reads,
:meth:`~repro.service.session.VehicleSession.ingest_message` per record,
and ``finalize`` with the linear solver.  Each capture goes through the
client's default wire (:data:`~repro.service.client.BATCH_SIZE`-frame
batches) and through the per-frame JSON wire; both reports must equal
``reverse_engineer``'s before any timing.  It reports
``serve_chain_batches`` (the deterministic count of ``frame-batch``
messages) and ``serve_chain_speedup``, the median over alternating rounds
of the per-frame chain's time over the default chain's; CI pins
``--floor serve_chain_speedup=1.2``.

``SERVICE_SMOKE=1`` shrinks the synthetic capture and the fleet and
serve-chain cases' car lists to CI size.
"""

from __future__ import annotations

import gc
import os
import statistics
import time

from repro.can import CanFrame
from repro.core import DPReverser, ReverserConfig
from repro.core.assembly import StreamAssembler
from repro.cps import DataCollector
from repro.service import MessageDecoder, capture_to_wire, encode_message
from repro.service.client import BATCH_SIZE as BATCH_SIZE_DEFAULT
from repro.service.protocol import (
    FRAME_BATCH,
    arrays_from_batch,
    frame_batch_to_wire,
    frame_from_wire,
    frame_to_wire,
)
from repro.service.session import VehicleSession
from repro.tools import make_tool_for_car
from repro.vehicle import CAR_SPECS, build_car

SMOKE = bool(os.environ.get("SERVICE_SMOKE"))
MODE = "quick" if SMOKE else "full"
#: results/service_ingest.txt holds the smoke-mode (CI) table.
TABLE_MODE = "quick"
FRAMES = 6_000 if SMOKE else 24_000
REPEATS = 3 if SMOKE else 5
BATCH_SIZE = 256
CHUNK_BYTES = 32 * 1024  # one socket read's worth of wire

#: The fleet-decode case's cars: every ISO-TP and BMW car, or two of each.
FLEET_CARS = (
    ("A", "E", "F", "I")
    if SMOKE
    else tuple(key for key, spec in sorted(CAR_SPECS.items()) if spec.transport.value != "vwtp")
)
FLEET_READ_S = 30.0

#: The serve-chain case's cars: one per CAN transport (VW TP 2.0, BMW,
#: ISO-TP), or all 18; and its alternating rounds, five in either mode:
#: smoke chains last a few tenths of a second, and the median of three
#: rounds moved between 1.44x and 2.22x across identical smoke runs.
CHAIN_CARS = ("C", "E", "I") if SMOKE else tuple(sorted(CAR_SPECS))
CHAIN_ROUNDS = 5
READ_BYTES = 64 * 1024  # what the server asks for per socket read
CHAIN_CONFIG = ReverserConfig(formula_backend="linear")

BENCH_CONFIG = {
    "smoke": SMOKE,
    "frames": FRAMES,
    "batch_size": BATCH_SIZE,
    "chunk_bytes": CHUNK_BYTES,
    "fleet_cars": "".join(FLEET_CARS),
    "fleet_read_s": FLEET_READ_S,
    "chain_cars": "".join(CHAIN_CARS),
    "chain_rounds": CHAIN_ROUNDS,
    "chain_read_bytes": READ_BYTES,
}


def synthetic_clean_capture(n_frames: int):
    """A clean all-SF ISO-TP dialogue: request/response over four ECUs.

    Every frame is a valid single-frame with a 1..7-byte payload, so the
    batched path stays on the vectorised clean-stream branch end to end —
    the scenario the wire format was built for (a live bridge replaying a
    healthy bus).
    """
    frames = []
    for i in range(n_frames):
        ecu = (i >> 1) & 0x3
        if i & 1:  # response: 62 <did> <value...>
            can_id = 0x7E8 + ecu
            payload = bytes([0x62, ecu, (i >> 3) & 0xFF, i & 0xFF, 0x10 + ecu])
        else:  # request: 22 <did>
            can_id = 0x7E0 + ecu
            payload = bytes([0x22, ecu, (i >> 3) & 0xFF])
        data = bytes([len(payload)]) + payload
        frames.append(
            CanFrame(can_id, data.ljust(8, b"\x00"), timestamp=i * 5e-4)
        )
    return frames


def wire_chunks(wire: bytes):
    for start in range(0, len(wire), CHUNK_BYTES):
        yield wire[start : start + CHUNK_BYTES]


def run_per_frame(wire: bytes) -> "tuple[VehicleSession, float]":
    decoder = MessageDecoder()
    session = VehicleSession(1, transport="isotp")
    start = time.perf_counter()
    for chunk in wire_chunks(wire):
        for message in decoder.feed(chunk):
            session.ingest_frame(frame_from_wire(message))
    return session, time.perf_counter() - start


def run_batched(wire: bytes) -> "tuple[VehicleSession, float]":
    decoder = MessageDecoder()
    session = VehicleSession(1, transport="isotp")
    start = time.perf_counter()
    for chunk in wire_chunks(wire):
        for message in decoder.feed(chunk):
            session.ingest_frames(arrays_from_batch(message))
    return session, time.perf_counter() - start


class TestIngestFastPath:
    def test_batched_binary_wire_vs_per_frame_json(
        self, bench_artifact, report_file
    ):
        frames = synthetic_clean_capture(FRAMES)
        wire_v1 = b"".join(encode_message(frame_to_wire(f)) for f in frames)
        wire_v2 = b"".join(
            encode_message(frame_batch_to_wire(frames[i : i + BATCH_SIZE]))
            for i in range(0, len(frames), BATCH_SIZE)
        )

        # Identity before timing: the fast path must be invisible in the
        # session's final state.
        slow, __ = run_per_frame(wire_v1)
        fast, __ = run_batched(wire_v2)
        assert fast._assembler.messages == slow._assembler.messages
        assert (
            fast._assembler.diagnostics.to_dict()
            == slow._assembler.diagnostics.to_dict()
        )
        assert fast.status() == slow.status()
        assert slow.messages_assembled == FRAMES  # every SF completes

        slow_s = min(run_per_frame(wire_v1)[1] for __ in range(REPEATS))
        fast_s = min(run_batched(wire_v2)[1] for __ in range(REPEATS))
        speedup = slow_s / fast_s

        bench_artifact(
            {
                "frames": FRAMES,
                "messages": slow.messages_assembled,
                "wire_bytes_per_frame": len(wire_v1),
                "wire_bytes_batched": len(wire_v2),
                "frames_per_s_v1": round(FRAMES / slow_s, 1),
                "frames_per_s_batched": round(FRAMES / fast_s, 1),
                "ingest_speedup": round(speedup, 2),
            },
            {
                "frames": "count",
                "messages": "count",
                "wire_bytes_per_frame": "count",
                "wire_bytes_batched": "count",
                "frames_per_s_v1": "1/s",
                "frames_per_s_batched": "1/s",
                "ingest_speedup": "x",
            },
            config=BENCH_CONFIG,
        )
        report_file(
            f"Clean-stream ingest ({FRAMES} frames"
            f"{', smoke mode' if SMOKE else ''}):"
        )
        report_file(
            f"  per-frame JSON wire: {FRAMES / slow_s:,.0f} frames/s "
            f"({len(wire_v1) / FRAMES:.1f} B/frame)"
        )
        report_file(
            f"  batched binary wire: {FRAMES / fast_s:,.0f} frames/s "
            f"({len(wire_v2) / FRAMES:.1f} B/frame), {speedup:.1f}x"
        )

    def test_noisy_stream_falls_back_without_divergence(self, report_file):
        """Corrupt every 97th frame: the batched path must degrade to the
        event path for the dirtied streams and still match per-frame."""
        frames = synthetic_clean_capture(2_000)
        for i in range(0, len(frames), 97):
            f = frames[i]
            frames[i] = CanFrame(
                f.can_id, b"\x21" + f.data[1:], timestamp=f.timestamp
            )  # orphan CF: forces the reassembler out of idle
        wire_v1 = b"".join(encode_message(frame_to_wire(f)) for f in frames)
        wire_v2 = b"".join(
            encode_message(frame_batch_to_wire(frames[i : i + BATCH_SIZE]))
            for i in range(0, len(frames), BATCH_SIZE)
        )
        slow, __ = run_per_frame(wire_v1)
        fast, __ = run_batched(wire_v2)
        slow_messages, slow_diag = slow._assembler.finish()
        fast_messages, fast_diag = fast._assembler.finish()
        assert fast_messages == slow_messages
        assert fast_diag.to_dict() == slow_diag.to_dict()
        assert slow_diag.stats.errors > 0  # the noise actually bit
        report_file(
            f"  noisy fallback: {slow_diag.stats.errors} decode errors, "
            "batched == per-frame state"
        )


def fleet_captures():
    """``(transport, frames)`` of each fleet car's clean capture."""
    captures = []
    for key in FLEET_CARS:
        car = build_car(key)
        capture = DataCollector(make_tool_for_car(key, car), read_duration_s=FLEET_READ_S).collect()
        captures.append((CAR_SPECS[key].transport.value, list(capture.can_log)))
    return captures


def decode_state(assembler):
    messages, diagnostics = assembler.finish()
    decoders = {
        can_id: (
            decoder.idle,
            getattr(decoder, "current_address", None),
            getattr(decoder, "last_address", None),
        )
        for can_id, decoder in assembler._streams.items()
    }
    return messages, diagnostics.to_dict(), decoders


def decode_per_frame(captures):
    states = []
    start = time.perf_counter()
    for transport, frames in captures:
        assembler = StreamAssembler(transport)
        for frame in frames:
            assembler.feed(frame)
        assembler.finish()
        states.append(assembler)
    return states, time.perf_counter() - start


def decode_chunked(captures):
    states = []
    start = time.perf_counter()
    for transport, frames in captures:
        assembler = StreamAssembler(transport)
        for offset in range(0, len(frames), BATCH_SIZE):
            assembler.feed_chunk(frames[offset : offset + BATCH_SIZE])
        assembler.finish()
        states.append(assembler)
    return states, time.perf_counter() - start


class TestFleetDecode:
    def test_chunked_vs_per_frame_fleet_decode(self, bench_artifact, report_file):
        captures = fleet_captures()
        frames = sum(len(frames) for __, frames in captures)
        slow, __ = decode_per_frame(captures)
        fast, __ = decode_chunked(captures)
        slow_states = [decode_state(assembler) for assembler in slow]
        assert [decode_state(assembler) for assembler in fast] == slow_states
        messages = sum(len(state[0]) for state in slow_states)

        slow_s = min(decode_per_frame(captures)[1] for __ in range(REPEATS))
        fast_s = min(decode_chunked(captures)[1] for __ in range(REPEATS))
        speedup = slow_s / fast_s
        bench_artifact(
            {
                "fleet_frames": frames,
                "fleet_messages": messages,
                "fleet_per_frame_s": round(slow_s, 4),
                "fleet_chunked_s": round(fast_s, 4),
                "fleet_decode_speedup": round(speedup, 2),
            },
            {
                "fleet_frames": "count",
                "fleet_messages": "count",
                "fleet_per_frame_s": "s",
                "fleet_chunked_s": "s",
                "fleet_decode_speedup": "x",
            },
            config=BENCH_CONFIG,
        )
        report_file(
            f"Fleet capture decode ({len(captures)} cars, {frames} frames"
            f"{', smoke mode' if SMOKE else ''}):"
        )
        report_file(
            f"  per-frame feed {slow_s:.3f} s, {BATCH_SIZE}-frame feed_chunk "
            f"{fast_s:.3f} s, {speedup:.2f}x"
        )


def chain_captures():
    captures = []
    for key in CHAIN_CARS:
        car = build_car(key)
        captures.append(
            DataCollector(make_tool_for_car(key, car), read_duration_s=FLEET_READ_S).collect()
        )
    return captures


def serve_chain(captures, batch_size):
    """Encode, decode in socket-sized reads, ingest and finalize every
    capture; returns the report JSONs, the CPU seconds and the batches
    sent.  CPU time, because one round takes a few tenths of a second,
    where a shared host's other load would decide a wall-clock ratio."""
    reports = []
    batches = 0
    start = time.process_time()
    for capture in captures:
        wire = b"".join(
            encode_message(m) for m in capture_to_wire(capture, batch_size=batch_size)
        )
        decoder = MessageDecoder()
        for offset in range(0, len(wire), READ_BYTES):
            for message in decoder.feed(wire[offset : offset + READ_BYTES]):
                kind = message["type"]
                if kind == "hello":
                    session = VehicleSession(
                        0, transport=message["transport"], meta=message["meta"]
                    )
                elif kind == "finish":
                    reports.append(session.finalize(DPReverser(CHAIN_CONFIG)).to_json())
                else:
                    batches += kind == FRAME_BATCH
                    session.ingest_message(message)
    return reports, time.process_time() - start, batches


class TestServeChain:
    def test_default_wire_vs_per_frame_json_chain(self, bench_artifact, report_file):
        captures = chain_captures()
        expected = [DPReverser(CHAIN_CONFIG).reverse_engineer(c).to_json() for c in captures]
        per_frame, __, __ = serve_chain(captures, 0)
        batched, __, batches = serve_chain(captures, BATCH_SIZE_DEFAULT)
        assert per_frame == expected
        assert batched == expected

        # The captures stay alive for every round; untracked, they do not
        # make a full collection inside a timed chain cost in proportion
        # to the bench's heap, and each chain starts on a collected heap.
        gc.collect()
        gc.freeze()
        ratios = []
        try:
            for index in range(CHAIN_ROUNDS):
                # Alternate which wire goes first, so a slow spell of the
                # host does not always land on the same side.
                order = (0, BATCH_SIZE_DEFAULT) if index % 2 == 0 else (BATCH_SIZE_DEFAULT, 0)
                seconds = {}
                for size in order:
                    gc.collect()
                    seconds[size] = serve_chain(captures, size)[1]
                ratios.append(seconds[0] / seconds[BATCH_SIZE_DEFAULT])
        finally:
            gc.unfreeze()
        speedup = statistics.median(ratios)
        frames = sum(len(capture.can_log) for capture in captures)
        bench_artifact(
            {
                "serve_chain_batches": batches,
                "serve_chain_speedup": round(speedup, 2),
            },
            {
                "serve_chain_batches": "count",
                "serve_chain_speedup": "x",
            },
            config=BENCH_CONFIG,
        )
        report_file(
            f"Serve chain ({len(captures)} cars, {frames} frames, "
            f"{CHAIN_ROUNDS} rounds{', smoke mode' if SMOKE else ''}):"
        )
        report_file(
            f"  default wire ({batches} batches of <= {BATCH_SIZE_DEFAULT} frames) vs "
            f"per-frame JSON: {speedup:.2f}x (median per-round ratio)"
        )
