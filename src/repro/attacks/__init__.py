"""Attack replay with reverse-engineered diagnostic messages (Tab. 13)
and seeded TP-layer adversaries against our own stack (:mod:`transport`)."""

from .replay import AttackReplayer, AttackResult
from .scenarios import replay_from_report, run_table13
from .transport import (
    CAPTURE_ATTACKS,
    CaptureAttack,
    FcInjection,
    FcSpoofAttacker,
    KLineSlowloris,
    ReassemblyExhaustion,
    SequencePoisoning,
    SessionStarvation,
    VwTpPoisoning,
    parse_attack,
)

__all__ = [
    "AttackReplayer",
    "AttackResult",
    "replay_from_report",
    "run_table13",
    "CAPTURE_ATTACKS",
    "CaptureAttack",
    "FcInjection",
    "FcSpoofAttacker",
    "KLineSlowloris",
    "ReassemblyExhaustion",
    "SequencePoisoning",
    "SessionStarvation",
    "VwTpPoisoning",
    "parse_attack",
]
