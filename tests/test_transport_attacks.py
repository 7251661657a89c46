"""Tests for the TP-layer adversaries and the bounded decoders that beat them.

Each attack is checked against the one transport stack: the victim's
traffic is recovered (no lost payloads, bounded buffering, a live sender)
and the anomaly is counted.  The hypothesis properties at the bottom
assert that any single hostile stream interleaved with a clean
multi-frame transfer never corrupts the clean stream's reassembled
payload, on all four transports.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.attacks import (
    CAPTURE_ATTACKS,
    FcInjection,
    FcSpoofAttacker,
    KLineSlowloris,
    ReassemblyExhaustion,
    SequencePoisoning,
    SessionStarvation,
    VwTpPoisoning,
    parse_attack,
)
from repro.can import CanFrame, SimulatedCanBus
from repro.core.assembly import StreamAssembler, assemble_with_diagnostics
from repro.simtime import SimClock
from repro.transport import (
    EVENT_PAYLOAD,
    HardeningPolicy,
    IsoTpEndpoint,
    IsoTpReassembler,
    VwTpReassembler,
    segment,
    segment_vwtp,
)
from repro.transport.bmw import BmwReassembler, segment_bmw
from repro.transport.isotp import PLAUSIBLE_DROP_FRAMES
from repro.transport.kline import KLineByte, KLineFrameParser, frame_message

VICTIM_ID = 0x7E0
VICTIM_PAYLOAD = bytes(range(6 + 7 * 6))  # FF + 6 CFs


def stamp(frames, start=0.0, step=0.001):
    """Give a segmented capture monotonic timestamps."""
    return [
        CanFrame(f.can_id, f.data, timestamp=start + i * step)
        for i, f in enumerate(frames)
    ]


def payloads_of(reassembler, frames):
    out = []
    for frame in frames:
        for event in reassembler.feed(frame):
            if event.kind == EVENT_PAYLOAD:
                out.append(event.payload)
    return out


class TestSessionStarvation:
    def test_hardened_isotp_recovers_and_detects(self):
        attack = SessionStarvation(seed=1)
        frames = attack.apply(stamp(segment(VICTIM_PAYLOAD, VICTIM_ID)))
        decoder = IsoTpReassembler(strict=False)
        assert VICTIM_PAYLOAD in payloads_of(decoder, frames)
        assert decoder.stats.suspected_starvation >= 1
        assert attack.injected >= 1

    def test_hardened_bmw_recovers(self):
        frames = SessionStarvation(seed=1, offset=1).apply(
            stamp(segment_bmw(VICTIM_PAYLOAD, 0x612, 0xF1))
        )
        decoder = BmwReassembler(strict=False)
        assert VICTIM_PAYLOAD in payloads_of(decoder, frames)

    def test_hostile_transfer_mid_message_does_not_abandon_victim(self):
        # A hostile FF and CF1 while the victim waits for CF3: the hostile
        # CF passes the victim by, but the victim's own next CF proves it
        # is still being sent.
        frames = segment(VICTIM_PAYLOAD, VICTIM_ID)
        hostile = [
            CanFrame(VICTIM_ID, bytes([0x1F, 0xFF]) + b"\xbb" * 6),
            CanFrame(VICTIM_ID, bytes([0x21]) + b"\xbb" * 7),
        ]
        decoder = IsoTpReassembler(strict=False)
        assert payloads_of(decoder, stamp(frames[:3] + hostile + frames[3:])) == [VICTIM_PAYLOAD]


class TestSequencePoisoning:
    def test_hardened_isotp_drops_alien_frame(self):
        frames = SequencePoisoning(seed=2).apply(stamp(segment(VICTIM_PAYLOAD, VICTIM_ID)))
        decoder = IsoTpReassembler(strict=False)
        assert payloads_of(decoder, frames) == [VICTIM_PAYLOAD]
        assert decoder.stats.sequence_poisonings >= 1

    def test_vwtp_alien_frame(self):
        frames = stamp(segment_vwtp(VICTIM_PAYLOAD, 0x300))
        alien = CanFrame(0x300, bytes([0x20 | 0x09]) + b"\xcc" * 7, timestamp=0.0015)
        attacked = frames[:2] + [alien] + frames[2:]
        decoder = VwTpReassembler(strict=False)
        assert VICTIM_PAYLOAD in payloads_of(decoder, attacked)
        assert decoder.stats.sequence_poisonings >= 1

    def test_vwtp_last_packet_alien_resumes_victim(self):
        attack = VwTpPoisoning(seed=2, last=1)
        attacked = attack.apply(stamp(segment_vwtp(VICTIM_PAYLOAD, 0x300)))
        decoder = VwTpReassembler(strict=False)
        assert VICTIM_PAYLOAD in payloads_of(decoder, attacked)
        assert attack.injected == 1
        assert decoder.stats.sequence_poisonings == 1
        assert decoder.stats.messages_lost == 0


class TestReassemblyExhaustion:
    POLICY = HardeningPolicy(per_stream_budget=256, global_budget=1024)

    def attacked_capture(self):
        victim = []
        for i in range(40):  # a long capture: 40 victim transfers
            victim.extend(stamp(segment(VICTIM_PAYLOAD, VICTIM_ID), start=i, step=0.01))
        return ReassemblyExhaustion(seed=3, spoofed_ids=64, interval=1).apply(victim)

    def buffered_total(self, assembler):
        return sum(decoder.buffered_bytes for decoder in assembler._streams.values())

    def test_hardened_stays_within_budget_and_recovers(self):
        assembler = StreamAssembler("isotp", hardening=self.POLICY)
        for frame in self.attacked_capture():
            assembler.feed(frame)
            # The running total the global budget is enforced on never
            # drifts from what the decoders actually hold.
            assert assembler._buffered == self.buffered_total(assembler)
        assert self.buffered_total(assembler) <= self.POLICY.global_budget
        assert VICTIM_PAYLOAD in [m.payload for m in assembler.messages]
        assert assembler.anomaly_counts()["stale_stream_evictions"] >= 1


class TestFcInjection:
    def test_detection_only(self):
        attack = FcInjection(seed=4)
        frames = attack.apply(stamp(segment(VICTIM_PAYLOAD, VICTIM_ID)))
        assert attack.injected >= 1
        # Offline decode screens flow control, so the payload survives, and
        # the FC aimed at the stream mid-reassembly is classified.
        messages, diagnostics = assemble_with_diagnostics(frames, "isotp")
        assert [m.payload for m in messages] == [VICTIM_PAYLOAD]
        assert diagnostics.stats.fc_violations >= 1


def kline_capture(payloads, gap_s=2.0, byte_step=0.0005):
    capture = []
    now = 0.0
    for payload in payloads:
        for value in frame_message(payload, target=0x33, source=0xF1):
            capture.append(KLineByte(now, value))
            now += byte_step
        now += gap_s
    return capture


class TestKLineSlowloris:
    PAYLOADS = [b"\x81", b"\xc1\xea\x8f", b"\x3e"]

    def test_hardened_deadline_evicts_forged_header(self):
        attack = KLineSlowloris(seed=5, gap_s=0.5)
        capture = attack.apply(kline_capture(self.PAYLOADS))
        assert attack.injected >= 1
        parser = KLineFrameParser()
        recovered = []
        for byte in capture:
            message = parser.feed(byte.timestamp, byte.value)
            if message is not None and message.checksum_ok:
                recovered.append(message.payload)
        assert recovered == self.PAYLOADS
        assert parser.stats.stale_stream_evictions >= 1


def make_live_pair():
    bus = SimulatedCanBus(SimClock())
    received = []
    IsoTpEndpoint(bus, "server", tx_id=0x7E8, rx_id=0x7E0, on_message=received.append)
    client = IsoTpEndpoint(bus, "client", tx_id=0x7E0, rx_id=0x7E8)
    return bus, client, received


class TestFcSpoofLive:
    def test_overflow_hardened_keeps_genuine_grant(self):
        bus, client, received = make_live_pair()
        attacker = FcSpoofAttacker(bus, watch_id=0x7E0, fc_id=0x7E8, mode="overflow")
        client.send(VICTIM_PAYLOAD)
        assert attacker.spoofs_sent == 1
        assert received == [VICTIM_PAYLOAD]
        assert client.fc_rejected >= 1

    def test_strangle_hardened_completes_without_stall(self):
        bus, client, received = make_live_pair()
        FcSpoofAttacker(bus, watch_id=0x7E0, fc_id=0x7E8, mode="strangle")
        before = bus.clock.now()
        client.send(VICTIM_PAYLOAD)
        assert received == [VICTIM_PAYLOAD]
        # The spoofed 127 ms STmin must not survive the permissive merge.
        assert bus.clock.now() - before < 0.1

    def test_wait_mode_is_noise(self):
        bus, client, received = make_live_pair()
        attacker = FcSpoofAttacker(bus, watch_id=0x7E0, fc_id=0x7E8, mode="wait")
        client.send(VICTIM_PAYLOAD)
        assert received == [VICTIM_PAYLOAD]
        assert attacker.spoofs_sent == 1

    def test_unknown_mode_rejected(self):
        bus = SimulatedCanBus(SimClock())
        with pytest.raises(ValueError, match="unknown FC spoof mode"):
            FcSpoofAttacker(bus, watch_id=0x7E0, fc_id=0x7E8, mode="tarpit")


class TestParseAttack:
    def test_round_trip_with_params(self):
        attack = parse_attack("exhaustion:spoofed_ids=8,interval=3")
        assert isinstance(attack, ReassemblyExhaustion)
        assert attack.spoofed_ids == 8 and attack.interval == 3

    def test_unknown_name_lists_valid(self):
        with pytest.raises(ValueError, match="starvation"):
            parse_attack("teardrop")

    def test_unknown_parameter_lists_valid(self):
        with pytest.raises(ValueError, match="unknown attack parameter 'burst'"):
            parse_attack("starvation:burst=4")

    def test_malformed_item(self):
        with pytest.raises(ValueError, match="not key=value"):
            parse_attack("starvation:seed")


# --------------------------------------------------------------------------
# Property: a single hostile stream interleaved with a clean multi-frame
# transfer never corrupts the clean stream's reassembled payload — on all
# four transports.

attack_names = st.sampled_from(sorted(CAPTURE_ATTACKS))
victim_payloads = st.binary(min_size=8, max_size=120)


@settings(max_examples=60, deadline=None)
@given(payload=victim_payloads, seed=st.integers(0, 10_000), name=attack_names)
def test_property_hostile_stream_never_corrupts_isotp(payload, seed, name):
    frames = stamp(segment(payload, VICTIM_ID))
    attacked = CAPTURE_ATTACKS[name](seed=seed).apply(frames)
    messages, __ = assemble_with_diagnostics(attacked, "isotp")
    assert payload in [m.payload for m in messages]


@settings(max_examples=60, deadline=None)
@given(payload=victim_payloads, seed=st.integers(0, 10_000), name=attack_names)
def test_property_hostile_stream_never_corrupts_bmw(payload, seed, name):
    frames = stamp(segment_bmw(payload, 0x612, 0xF1))
    kwargs = {"seed": seed}
    if name in ("starvation", "poisoning", "fc_flood"):
        kwargs["offset"] = 1
    attacked = CAPTURE_ATTACKS[name](**kwargs).apply(frames)
    messages, __ = assemble_with_diagnostics(attacked, "bmw")
    assert payload in [m.payload for m in messages]


@settings(max_examples=60, deadline=None)
@given(
    payload=victim_payloads,
    alien_jump=st.integers(4, 12),
    position=st.integers(1, 1_000_000),
)
def test_property_hostile_stream_never_corrupts_vwtp(payload, alien_jump, position):
    frames = stamp(segment_vwtp(payload, 0x300))
    cut = 1 + position % len(frames)  # never before the first frame
    alien_seq = (cut + alien_jump) % 16
    alien = CanFrame(0x300, bytes([0x20 | alien_seq]) + b"\xcc" * 7)
    attacked = frames[:cut] + [alien] + frames[cut:]
    decoder = VwTpReassembler(strict=False)
    recovered = payloads_of(decoder, attacked)
    assert payload in recovered


@settings(max_examples=60, deadline=None)
@given(payload=victim_payloads, seed=st.integers(0, 10_000))
@example(payload=VICTIM_PAYLOAD, seed=1)
@example(payload=bytes(20), seed=1)
def test_property_length_copying_starvation_isotp(payload, seed):
    """A racer copying the victim's announced length ties with it.  A
    victim with more consecutive frames than the sniffer can plausibly
    lose is recovered; a shorter one is lost, but never silently."""
    frames = stamp(segment(payload, VICTIM_ID))
    attacked = SessionStarvation(seed=seed, copy_length=1).apply(frames)
    messages, diagnostics = assemble_with_diagnostics(attacked, "isotp")
    assert diagnostics.stats.suspected_starvation == 1
    if len(frames) - 1 > PLAUSIBLE_DROP_FRAMES:
        assert [m.payload for m in messages] == [payload]
    else:
        assert diagnostics.stats.messages_lost >= 1


@settings(max_examples=60, deadline=None)
@given(
    payload=victim_payloads,
    jump=st.integers(4, 12),
    after=st.integers(1, 20),
)
@example(payload=VICTIM_PAYLOAD, jump=8, after=6)  # right before the last packet
def test_property_vwtp_last_packet_alien(payload, jump, after):
    """A far-jumped alien with a last-packet opcode never costs the victim
    its message unless it sits right before the victim's own last packet,
    and even then the loss and the jump are counted."""
    frames = stamp(segment_vwtp(payload, 0x300))
    attacked = VwTpPoisoning(jump=jump, after=after, last=1).apply(frames)
    decoder = VwTpReassembler(strict=False)
    recovered = payloads_of(decoder, attacked)
    if after == len(frames) - 1:
        assert decoder.stats.messages_lost >= 1
        assert decoder.stats.sequence_poisonings >= 1
    else:
        assert payload in recovered


@settings(max_examples=30, deadline=None)
@given(
    payloads=st.lists(st.binary(min_size=1, max_size=40), min_size=2, max_size=5),
    seed=st.integers(0, 10_000),
)
def test_property_hostile_stream_never_corrupts_kline(payloads, seed):
    capture = KLineSlowloris(seed=seed, gap_s=0.5).apply(kline_capture(payloads))
    parser = KLineFrameParser()
    recovered = []
    for byte in capture:
        message = parser.feed(byte.timestamp, byte.value)
        if message is not None and message.checksum_ok:
            recovered.append(message.payload)
    assert recovered == list(payloads)
