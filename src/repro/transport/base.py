"""Common interface for transport/network-layer protocols.

A *transport endpoint* turns whole diagnostic messages (arbitrary-length byte
strings) into CAN frames and back.  Three concrete families are implemented,
matching §3.2 of the paper:

* :mod:`repro.transport.isotp` — ISO 15765-2 (DoCAN), used by UDS, CAN-based
  KWP 2000 and OBD-II;
* :mod:`repro.transport.vwtp` — VW TP 2.0, Volkswagen's channel-oriented
  protocol;
* :mod:`repro.transport.bmw` — BMW/Mini style extended addressing where the
  first byte of every frame carries the target ECU id.

Decoders are built for *sniffed* traffic, which is lossy and interleaved:
instead of returning one optional payload per frame (and raising on the
first malformed frame), :meth:`TransportDecoder.feed` returns a list of
:class:`DecodeEvent`\\ s.  A clean frame mid-message yields ``[]``; a frame
completing a message yields a ``payload`` event; malformed or
out-of-sequence input yields ``error`` / ``resync`` events while the
decoder keeps going.  Every decoder carries a :class:`DecoderStats` with
the running error accounting, which the payload-assembly stage aggregates
into capture-quality diagnostics.

:meth:`TransportDecoder.feed_payloads` is the thin compatibility wrapper
over the event stream: one optional payload per frame, raising
:class:`TransportError` in strict mode — the contract simulated endpoints
(which see a faithful bus, not a noisy tap) still want.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import List, Optional

from ..can import CanFrame

#: :attr:`DecodeEvent.kind` values.
EVENT_PAYLOAD = "payload"
EVENT_ERROR = "error"
EVENT_RESYNC = "resync"


class TransportError(Exception):
    """Raised on malformed or out-of-sequence transport frames.

    Only strict-mode paths (:meth:`TransportDecoder.feed_payloads` on a
    simulated endpoint) raise this; the event API reports the same
    conditions as ``error`` events without aborting the stream.
    """


@dataclass(frozen=True)
class DecodeEvent:
    """One decoder observation for a fed frame.

    ``kind`` is one of:

    ``payload``
        A diagnostic message completed; :attr:`payload` carries its bytes.
    ``error``
        The frame was malformed or impossible in the current state and was
        discarded; decoder state is unchanged.
    ``resync``
        The stream lost synchronisation (sequence gap, interrupted
        multi-frame message, buffer overflow); the in-progress message was
        abandoned and the decoder re-locked onto the stream.

    :attr:`detail` is a short human-readable diagnosis used in reports and
    error counters; it never affects control flow.  A ``payload`` event
    from a CAN decoder also carries the message's own timing:
    :attr:`t_first` is the timestamp of its first frame and
    :attr:`n_frames` the frames it was reassembled from.
    """

    kind: str
    payload: Optional[bytes] = None
    detail: str = ""
    t_first: Optional[float] = None
    n_frames: int = 0

    @classmethod
    def message(
        cls, payload: bytes, t_first: Optional[float] = None, n_frames: int = 0
    ) -> "DecodeEvent":
        return cls(EVENT_PAYLOAD, payload=payload, t_first=t_first, n_frames=n_frames)

    @classmethod
    def error(cls, detail: str) -> "DecodeEvent":
        return cls(EVENT_ERROR, detail=detail)

    @classmethod
    def resync(cls, detail: str) -> "DecodeEvent":
        return cls(EVENT_RESYNC, detail=detail)


#: :class:`DecoderStats` fields that classify *adversarial* stream shapes
#: rather than plain capture loss.  The observability export surfaces them
#: under the ``transport.anomaly.`` prefix so an attacked fleet lights up a
#: dedicated dashboard row instead of blending into noise accounting.
ANOMALY_FIELDS = (
    "fc_violations",
    "stale_stream_evictions",
    "sequence_poisonings",
    "suspected_starvation",
)


@dataclass
class DecoderStats:
    """Per-decoder error accounting (one instance per reassembly stream)."""

    frames: int = 0  # frames fed (control frames included)
    payloads: int = 0  # complete messages recovered
    errors: int = 0  # discarded frames / malformed input
    resyncs: int = 0  # lost-sync recoveries
    messages_lost: int = 0  # in-progress messages abandoned by a resync
    bytes_discarded: int = 0  # buffered bytes thrown away on resync
    overflows: int = 0  # bounded-buffer overflows (subset of resyncs)
    # Anomaly classification (see ANOMALY_FIELDS): pure detection counters
    # — they never change events or control flow on their own.
    fc_violations: int = 0  # flow control aimed at a busy/quiet stream
    stale_stream_evictions: int = 0  # partial messages shed by budget/deadline
    sequence_poisonings: int = 0  # implausible sequence jumps (not drops)
    suspected_starvation: int = 0  # FF landed on a stream mid-reassembly

    def merge(self, other: "DecoderStats") -> None:
        self.frames += other.frames
        self.payloads += other.payloads
        self.errors += other.errors
        self.resyncs += other.resyncs
        self.messages_lost += other.messages_lost
        self.bytes_discarded += other.bytes_discarded
        self.overflows += other.overflows
        self.fc_violations += other.fc_violations
        self.stale_stream_evictions += other.stale_stream_evictions
        self.sequence_poisonings += other.sequence_poisonings
        self.suspected_starvation += other.suspected_starvation

    def anomaly_counts(self) -> dict:
        """The adversarial-shape counters alone (``transport.anomaly.*``)."""
        return {name: getattr(self, name) for name in ANOMALY_FIELDS}

    def to_dict(self) -> dict:
        return {
            "frames": self.frames,
            "payloads": self.payloads,
            "errors": self.errors,
            "resyncs": self.resyncs,
            "messages_lost": self.messages_lost,
            "bytes_discarded": self.bytes_discarded,
            "overflows": self.overflows,
            "fc_violations": self.fc_violations,
            "stale_stream_evictions": self.stale_stream_evictions,
            "sequence_poisonings": self.sequence_poisonings,
            "suspected_starvation": self.suspected_starvation,
        }


@dataclass(frozen=True)
class HardeningPolicy:
    """The bounds an adversary has to beat, shared by every decoder.

    The transport decoders are built for hostile as well as lossy traffic
    (the TP-layer denial-of-service threat applies to every deployment),
    and this frozen object carries their limits.  Every decoder, the
    assembler and the live ISO-TP endpoint run under
    :data:`DEFAULT_HARDENING`; tests and the exhaustion scenario pass
    tighter budgets.

    * ISO-TP / BMW keep up to :attr:`max_contexts_per_stream` concurrent
      partial messages per stream, so a hostile first frame cannot abandon
      a victim's transfer (session starvation) and an alien consecutive
      frame is dropped instead of poisoning the buffer;
    * every stream's buffered bytes are capped by :attr:`per_stream_budget`
      and the whole assembler by :attr:`global_budget`, with
      least-recently-active partial messages evicted first (reassembly
      exhaustion);
    * the K-Line parser evicts buffered bytes older than
      :attr:`kline_deadline_s` (slowloris headers);
    * live ISO-TP senders ignore conflicting flow-control grants, keep the
      most permissive one, and clamp STmin to :attr:`max_st_min_ms`
      (FC spoofing).
    """

    #: Concurrent partial messages kept per stream (ISO-TP/BMW contexts,
    #: BMW peer addresses).  The least recently active is evicted beyond it.
    max_contexts_per_stream: int = 4
    #: Byte budget for one stream's buffered partial messages.
    per_stream_budget: int = 4096
    #: Byte budget across every stream of one assembler; least recently
    #: active non-idle stream is shed first.
    global_budget: int = 65536
    #: K-Line bytes buffered longer than this are evicted (a header whose
    #: announced length never arrives); real messages complete within
    #: milliseconds at 10.4 kbaud.
    kline_deadline_s: float = 1.0
    #: Ceiling on the minimum-separation time a flow-control frame can
    #: demand from a live ISO-TP sender (ISO 15765-2 caps STmin at 127 ms;
    #: an attacker advertising it strangles throughput 100x).
    max_st_min_ms: float = 20.0

    def to_dict(self) -> dict:
        return {
            "max_contexts_per_stream": self.max_contexts_per_stream,
            "per_stream_budget": self.per_stream_budget,
            "global_budget": self.global_budget,
            "kline_deadline_s": self.kline_deadline_s,
            "max_st_min_ms": self.max_st_min_ms,
        }


#: The bounds every decoder runs under unless handed a tighter policy.
DEFAULT_HARDENING = HardeningPolicy()


class TransportDecoder(abc.ABC):
    """Reassemble diagnostic payloads from a frame stream (receiver side).

    Subclasses set :attr:`strict` and :attr:`stats` (the base constructor
    does both) and implement :meth:`feed`.  ``strict`` only changes what
    :meth:`feed_payloads` does with error events; the event API itself
    never raises on stream content.

    :attr:`KIND` is the decoder's short protocol tag (``"isotp"``,
    ``"vwtp"``, ``"bmw"``) — the label trace spans and exported metrics
    use to attribute decode work to a transport family.
    """

    #: Protocol tag for observability labels; subclasses override.
    KIND: str = "transport"

    def __init__(self, strict: bool = True) -> None:
        self.strict = strict
        self.stats = DecoderStats()

    @abc.abstractmethod
    def feed(self, frame: CanFrame) -> List[DecodeEvent]:
        """Consume one frame; return the decode events it produced."""

    @property
    def idle(self) -> bool:
        """True when no partial message is buffered.

        Chunked fast paths (:meth:`StreamAssembler.feed_chunk`) may only
        bypass a decoder that is idle — mid-reassembly, even a well-formed
        single frame changes decoder state.  Decoders that buffer must
        override; the stateless default is idle.
        """
        return True

    @property
    def buffered_bytes(self) -> int:
        """Bytes held in partial-message buffers right now.

        The quantity the :class:`HardeningPolicy` byte budgets account
        against; decoders that buffer override, the stateless default
        holds nothing.
        """
        return 0

    def evict_partial(self) -> int:
        """Drop every partial message, charging the eviction counters.

        The assembler's global byte budget calls this on the least
        recently active stream; returns the bytes freed.  Decoders that
        buffer override; the stateless default frees nothing.
        """
        return 0

    def feed_payloads(self, frame: CanFrame) -> Optional[bytes]:
        """Compatibility wrapper: one optional payload per frame.

        In strict mode the first ``error`` or ``resync`` event raises
        :class:`TransportError` with the event's detail, restoring the
        historical fail-fast contract; lenient mode swallows them.
        """
        payload: Optional[bytes] = None
        for event in self.feed(frame):
            if event.kind == EVENT_PAYLOAD:
                payload = event.payload
            elif self.strict:
                raise TransportError(event.detail or event.kind)
        return payload
