"""ECR (ECU-control-record) analysis (§4.5).

From the IO-control request stream this stage recovers the control
*procedure* the paper documents: every component actuation is a
three-message exchange —

1. ``freeze current state`` (IO parameter 0x02),
2. ``short term adjustment`` (0x03, carrying the control-state bytes),
3. ``return control to ECU`` (0x00),

each acknowledged by a positive response.  Procedures are grouped per
identifier (DID / local id) and, when the collection log is available,
labelled with the actuator name clicked on the tool's UI at that time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..diagnostics.uds import IoControlParameter
from .fields import IoControlEvent


@dataclass
class EcrProcedure:
    """One recovered freeze → adjust → return-control exchange."""

    service: int  # 0x2F or 0x30
    identifier: int  # DID or local identifier
    control_state: bytes  # state bytes of the short-term adjustment
    t_start: float
    t_end: float
    complete: bool  # all three steps present and positively acknowledged
    label: str = ""  # semantic name, once attached

    @property
    def request_pattern(self) -> str:
        """The generalized request format of §4.5."""
        if self.service == 0x2F:
            did = f"{self.identifier:04X}"
            return (
                f"2F {did[:2]} {did[2:]} 02 | "
                f"2F {did[:2]} {did[2:]} 03 {self.control_state.hex(' ').upper()} | "
                f"2F {did[:2]} {did[2:]} 00"
            )
        lid = f"{self.identifier:02X}"
        return (
            f"30 {lid} 02 | "
            f"30 {lid} 03 {self.control_state.hex(' ').upper()} | "
            f"30 {lid} 00"
        )


def extract_procedures(events: Sequence[IoControlEvent]) -> List[EcrProcedure]:
    """Scan IO-control events for the three-step control pattern.

    Events for the same (service, identifier) are processed in time order;
    a freeze opens a candidate procedure, an adjustment fills it, and a
    return-control closes it.  Incomplete or negatively-acknowledged
    exchanges are still reported (``complete=False``) so the bench can show
    the paper's "all positive responses" criterion.
    """
    by_target: Dict[Tuple[int, int], List[IoControlEvent]] = {}
    for event in sorted(events, key=lambda e: e.timestamp):
        by_target.setdefault((event.service, event.identifier), []).append(event)

    procedures: List[EcrProcedure] = []
    for (service, identifier), stream in by_target.items():
        current: Optional[dict] = None
        for event in stream:
            if event.io_parameter == IoControlParameter.FREEZE_CURRENT_STATE:
                if current is not None:
                    procedures.append(_close(service, identifier, current))
                current = {
                    "t_start": event.timestamp,
                    "freeze_ok": event.positive,
                    "adjust": None,
                    "adjust_ok": False,
                    "return_ok": False,
                    "t_end": event.timestamp,
                }
            elif event.io_parameter == IoControlParameter.SHORT_TERM_ADJUSTMENT:
                if current is None:
                    current = {
                        "t_start": event.timestamp,
                        "freeze_ok": False,
                        "adjust": None,
                        "adjust_ok": False,
                        "return_ok": False,
                        "t_end": event.timestamp,
                    }
                current["adjust"] = event.control_state
                current["adjust_ok"] = event.positive
                current["t_end"] = event.timestamp
            elif event.io_parameter == IoControlParameter.RETURN_CONTROL_TO_ECU:
                if current is None:
                    continue
                current["return_ok"] = event.positive
                current["t_end"] = event.timestamp
                procedures.append(_close(service, identifier, current))
                current = None
        if current is not None:
            procedures.append(_close(service, identifier, current))
    procedures.sort(key=lambda p: p.t_start)
    return procedures


def _close(service: int, identifier: int, state: dict) -> EcrProcedure:
    return EcrProcedure(
        service=service,
        identifier=identifier,
        control_state=state["adjust"] or b"",
        t_start=state["t_start"],
        t_end=state["t_end"],
        complete=bool(
            state["freeze_ok"] and state["adjust_ok"] and state["return_ok"]
        ),
    )


def attach_semantics(procedures: Sequence[EcrProcedure], segments) -> None:
    """Label each procedure with the actuator clicked at that time.

    ``segments`` are the collector's click-log segments; an active-test
    segment whose window contains the procedure supplies the name shown on
    the tool's UI.
    """
    for procedure in procedures:
        for segment in segments:
            if segment.kind != "active_test":
                continue
            if segment.t_start - 0.5 <= procedure.t_start <= segment.t_end + 0.5:
                procedure.label = segment.label
                break
