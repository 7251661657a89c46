"""Attack/defense matrix: every TP-layer adversary vs the transport stack.

Each scenario runs one seeded attack from :mod:`repro.attacks` against the
victim traffic through the one set of bounded decoders and scores
*recovery*: the fraction of the victim's payloads that still come out
intact.  The matrix is the acceptance gate:

* the stack must recover >= 0.9 under **every** defended attack
  (``hardened_recovery``, the floor CI enforces via ``bench_compare``);
* the *open* rows are attacks the decoders cannot tell from sniffer
  loss on one stream; they are reported and pinned as identity metrics
  (``*_open``) but not floored, so a change either way fails the
  baseline diff until it is re-baselined;
* reassembly exhaustion must stay within the assembler's global byte
  budget;
* the flow-control flood must be classified as ``fc_violations``.

Everything is seeded and simulated-clocked, so recoveries are exact ratios
and safe to diff as identity metrics.  Set ``ATTACK_SMOKE=1`` (the CI smoke
mode) for a reduced victim count.
"""

import os

from repro.attacks import (
    FcInjection,
    FcSpoofAttacker,
    KLineSlowloris,
    ReassemblyExhaustion,
    SequencePoisoning,
    SessionStarvation,
    VwTpPoisoning,
)
from repro.can import CanFrame, SimulatedCanBus
from repro.core.assembly import StreamAssembler, assemble_with_diagnostics
from repro.simtime import SimClock
from repro.transport import (
    HardeningPolicy,
    IsoTpEndpoint,
    TransportError,
    segment,
    segment_vwtp,
)
from repro.transport.bmw import segment_bmw
from repro.transport.kline import KLineByte, KLineFrameParser, frame_message

QUICK = bool(os.environ.get("ATTACK_SMOKE"))

#: Victim transfers per offline scenario (payload diversity, not duration).
TRANSFERS = 5 if QUICK else 25
RECOVERY_FLOOR = 0.90

#: Deliberately small budgets so the exhaustion scenario's memory axis is
#: measurable with bench-sized captures; recovery scenarios use the default.
EXHAUSTION_POLICY = HardeningPolicy(per_stream_budget=256, global_budget=1024)

VICTIM_ID = 0x7E0

BENCH_CONFIG = {
    "quick": QUICK,
    "transfers": TRANSFERS,
    "recovery_floor": RECOVERY_FLOOR,
    "exhaustion_budget": EXHAUSTION_POLICY.global_budget,
}


#: Victims short enough (3 consecutive frames) that losing every one of
#: their consecutive frames is plausible sniffer loss.
SHORT_VICTIM = 20


def victim_payload(index, length=48):
    return bytes((index + j) % 256 for j in range(length))


def stamp(frames, start, step=0.001):
    return [
        CanFrame(f.can_id, f.data, timestamp=start + i * step)
        for i, f in enumerate(frames)
    ]


def victim_capture(segmenter):
    frames = []
    for i in range(TRANSFERS):
        frames.extend(stamp(segmenter(victim_payload(i)), start=float(i)))
    return frames


def recovery_of(messages, length=48):
    """Fraction of the victim's payloads recovered intact."""
    payloads = {m.payload if hasattr(m, "payload") else m for m in messages}
    hit = sum(1 for i in range(TRANSFERS) if victim_payload(i, length) in payloads)
    return hit / TRANSFERS


def decode_recovery(frames, transport, length=48):
    messages, __ = assemble_with_diagnostics(frames, transport)
    return recovery_of(messages, length)


# ------------------------------------------------------------ offline rows


def run_starvation_isotp(copy_length=0, length=48):
    capture = []
    for i in range(TRANSFERS):
        capture.extend(stamp(segment(victim_payload(i, length), VICTIM_ID), start=float(i)))
    attack = SessionStarvation(seed=1, copy_length=copy_length)
    return decode_recovery(attack.apply(capture), "isotp", length)


def run_starvation_bmw():
    capture = victim_capture(lambda p: segment_bmw(p, 0x612, 0xF1))
    return decode_recovery(SessionStarvation(seed=1, offset=1).apply(capture), "bmw")


def run_poisoning_isotp():
    capture = victim_capture(lambda p: segment(p, VICTIM_ID))
    return decode_recovery(SequencePoisoning(seed=2).apply(capture), "isotp")


def run_poisoning_vwtp(**attack):
    """Aliens 8 ahead of the stream position after the second data frame
    (``after=6``: right before the final one of the 7-frame victims)."""
    frames = []
    sequence = 0  # TP 2.0 numbering runs on across messages within a channel
    for i in range(TRANSFERS):
        segmented = segment_vwtp(victim_payload(i), 0x300, start_sequence=sequence)
        frames.extend(stamp(segmented, start=float(i)))
        sequence = (sequence + len(segmented)) % 16
    return decode_recovery(VwTpPoisoning(seed=2, **attack).apply(frames), "vwtp")


def run_exhaustion():
    """Recovery stays 1.0 (the victim's ids are untouched); the damage
    axis is buffered bytes, returned separately.  The capture is sized
    independently of ``TRANSFERS`` so the hostile streams accumulate
    enough bytes to trip the budget even in smoke mode."""
    transfers = max(TRANSFERS, 40)
    frames = []
    for i in range(transfers):
        frames.extend(stamp(segment(victim_payload(i), VICTIM_ID), start=float(i)))
    attacked = ReassemblyExhaustion(seed=3, spoofed_ids=64, interval=1).apply(frames)
    assembler = StreamAssembler("isotp", hardening=EXHAUSTION_POLICY)
    for frame in attacked:
        assembler.feed(frame)
    payloads = {m.payload for m in assembler.messages}
    recovery = sum(1 for i in range(transfers) if victim_payload(i) in payloads) / transfers
    buffered = sum(decoder.buffered_bytes for decoder in assembler._streams.values())
    return recovery, buffered


def run_fc_flood():
    """Detection: offline decode screens FC, so the victim survives; the
    FC aimed at its stream mid-reassembly is counted as violations."""
    capture = victim_capture(lambda p: segment(p, VICTIM_ID))
    messages, diagnostics = assemble_with_diagnostics(FcInjection(seed=4).apply(capture), "isotp")
    return recovery_of(messages), diagnostics.stats.fc_violations


def run_kline_slowloris():
    capture = []
    now = 0.0
    for i in range(TRANSFERS):
        for value in frame_message(victim_payload(i, length=12), target=0x33, source=0xF1):
            capture.append(KLineByte(now, value))
            now += 0.0005
        now += 2.0
    attacked = KLineSlowloris(seed=5, gap_s=0.5).apply(capture)
    parser = KLineFrameParser()
    recovered = []
    for byte in attacked:
        message = parser.feed(byte.timestamp, byte.value)
        if message is not None and message.checksum_ok:
            recovered.append(message.payload)
    hit = sum(1 for i in range(TRANSFERS) if victim_payload(i, length=12) in recovered)
    return hit / TRANSFERS


# --------------------------------------------------------------- live rows


def live_send(mode):
    """One multi-frame send per victim payload against an FC spoofer.

    Returns (recovery, elapsed simulated seconds).  ``mode=None`` runs the
    clean baseline used to normalise latency.
    """
    bus = SimulatedCanBus(SimClock())
    received = []
    IsoTpEndpoint(bus, "server", tx_id=0x7E8, rx_id=0x7E0, on_message=received.append)
    client = IsoTpEndpoint(bus, "client", tx_id=0x7E0, rx_id=0x7E8)
    if mode is not None:
        FcSpoofAttacker(bus, watch_id=0x7E0, fc_id=0x7E8, mode=mode)
    start = bus.clock.now()
    for i in range(TRANSFERS):
        try:
            client.send(victim_payload(i))
        except TransportError:
            pass
    return (
        sum(1 for i in range(TRANSFERS) if victim_payload(i) in received) / TRANSFERS,
        bus.clock.now() - start,
    )


def run_fc_spoof(mode):
    __, clean_elapsed = live_send(None)
    recovery, elapsed = live_send(mode)
    return recovery, elapsed / clean_elapsed


# ------------------------------------------------------------------- bench


def test_attack_defense_matrix(report_file, bench_artifact):
    rows = [
        ("starvation/isotp", run_starvation_isotp()),
        ("starvation_copylen/isotp", run_starvation_isotp(copy_length=1)),
        ("starvation/bmw", run_starvation_bmw()),
        ("poisoning/isotp", run_poisoning_isotp()),
        ("poisoning/vwtp", run_poisoning_vwtp()),
        ("poisoning_last/vwtp", run_poisoning_vwtp(last=1)),
        ("kline_slowloris", run_kline_slowloris()),
    ]
    # Open rows: a length-copying racer against victims of at most
    # PLAUSIBLE_DROP_FRAMES consecutive frames, and a last-packet alien
    # right before the victim's own last packet, are indistinguishable
    # from sniffer loss followed by the next message.
    open_rows = [
        (
            "starvation_copylen_short/isotp",
            run_starvation_isotp(copy_length=1, length=SHORT_VICTIM),
        ),
        ("poisoning_last_final/vwtp", run_poisoning_vwtp(last=1, after=6)),
    ]
    exhaustion_recovery, buffered = run_exhaustion()
    rows.append(("exhaustion/isotp", exhaustion_recovery))
    flood_recovery, fc_violations = run_fc_flood()
    rows.append(("fc_flood/isotp", flood_recovery))
    for mode in ("overflow", "strangle"):
        recovery, latency_x = run_fc_spoof(mode)
        rows.append((f"fc_spoof/{mode}", recovery))
        if mode == "strangle":
            strangle_latency_x = latency_x

    report_file(
        f"Attack/defense matrix ({TRANSFERS} victim transfers per scenario"
        f"{', smoke mode' if QUICK else ''}):"
    )
    report_file(f"  {'scenario':<30} {'recovery':>8}")
    metrics, units = {}, {}
    for name, recovery in rows:
        report_file(f"  {name:<30} {recovery:>8.2f}")
        tag = name.replace("/", "_")
        metrics[f"{tag}_hardened"] = round(recovery, 4)
        units[f"{tag}_hardened"] = "ratio"

    worst = min(recovery for __, recovery in rows)
    report_file(f"  worst recovery {worst:.2f} (floor {RECOVERY_FLOOR})")
    report_file("  open (reported, not floored):")
    for name, recovery in open_rows:
        report_file(f"  {name:<30} {recovery:>8.2f}")
        tag = name.replace("/", "_")
        metrics[f"{tag}_open"] = round(recovery, 4)
        units[f"{tag}_open"] = "ratio"
    report_file(
        f"  exhaustion buffered bytes: {buffered} "
        f"(budget {EXHAUSTION_POLICY.global_budget}); "
        f"fc_flood violations flagged: {fc_violations}; "
        f"strangle latency {strangle_latency_x:.2f}x clean"
    )
    metrics.update(
        {
            "hardened_recovery": round(worst, 4),
            "exhaustion_buffered_hardened": buffered,
            "fc_flood_violations": fc_violations,
            "strangle_latency": round(strangle_latency_x, 4),
        }
    )
    units.update(
        {
            "hardened_recovery": "ratio",
            "exhaustion_buffered_hardened": "count",
            "fc_flood_violations": "count",
            "strangle_latency": "x",
        }
    )
    bench_artifact(metrics, units, config=BENCH_CONFIG)

    # The acceptance gate, local edition (CI re-checks via bench_compare).
    assert worst >= RECOVERY_FLOOR
    assert buffered <= EXHAUSTION_POLICY.global_budget
    assert fc_violations >= 1
