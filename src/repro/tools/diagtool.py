"""Simulated professional diagnostic tools.

A :class:`DiagnosticTool` models AUTEL 919 / LAUNCH X431 (handheld) and
VCDS / Techstream (laptop software): a menu-driven UI that, when driven to
"Read Data Stream" or "Active Test", speaks real UDS/KWP 2000 over the
vehicle's transport stack and renders physical values on screen using the
manufacturer's proprietary tables — which it holds internally and never
exposes, exactly like the hardened tools in the paper.

The tool is operated exclusively through :meth:`DiagnosticTool.tap` (the
robotic stylus) and observed exclusively through :attr:`screen` (the
cameras).  :meth:`tick` advances one poll cycle while a live-data screen is
open.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..diagnostics import kwp2000, uds
from ..diagnostics.messages import is_negative_response
from ..formulas import EnumFormula, Formula
from ..vehicle import Vehicle
from ..vehicle.fleet import CAR_SPECS
from .ui import Screen, ScreenBuilder, Widget, WidgetKind


@dataclass(frozen=True)
class ToolProfile:
    """Per-product characteristics of a diagnostic tool."""

    name: str
    screen_width: int
    screen_height: int
    ocr_error_rate: float  # camera+OCR per-region error probability (Tab. 4)
    rows_per_page: int = 8
    poll_interval_s: float = 0.5
    #: UI rendering latency: a polled value appears on screen between
    #: ``display_latency_min_s`` and ``display_latency_max_s`` after the
    #: response — §4.3's noise source (i): "a time interval between the
    #: time receiving the response message and the time displaying the ESV".
    display_latency_min_s: float = 0.01
    display_latency_max_s: float = 0.16


#: The four tools of Tab. 3.  OCR error rates are calibrated so the Tab. 4
#: bench lands near the paper's 97.6 % (AUTEL) and 85.0 % (LAUNCH);
#: the laptop tools render crisp fonts and OCR them nearly perfectly.
TOOL_PROFILES: Dict[str, ToolProfile] = {
    "AUTEL 919": ToolProfile("AUTEL 919", 1024, 768, ocr_error_rate=0.024),
    "LAUNCH X431": ToolProfile("LAUNCH X431", 800, 480, ocr_error_rate=0.15),
    "VCDS": ToolProfile("VCDS", 1280, 800, ocr_error_rate=0.02),
    "Techstream": ToolProfile("Techstream", 1280, 800, ocr_error_rate=0.02),
}


def _decimals_for_unit(unit: str) -> int:
    if unit in ("rpm", "km", "km/h", "count", "s"):
        return 0
    if unit in ("V", "ms", "g/s", "l"):
        return 2
    return 1


@dataclass
class UdsDataItem:
    """Tool-database entry for one UDS-readable quantity."""

    ecu_name: str
    name: str
    did: int
    formula: Formula
    bytes_per_var: int
    unit: str
    decimals: int

    @property
    def is_enum(self) -> bool:
        return isinstance(self.formula, EnumFormula)

    def decode(self, value_bytes: bytes) -> Tuple[Tuple[int, ...], float]:
        """Raw variables and physical value from the response value field."""
        if self.formula.arity == 1:
            raw: Tuple[int, ...] = (int.from_bytes(value_bytes, "big"),)
        else:
            raw = tuple(value_bytes[: self.formula.arity])
        return raw, self.formula(raw)

    def render(self, value_bytes: bytes) -> str:
        raw, value = self.decode(value_bytes)
        if self.is_enum:
            return self.formula.label(int(raw[0]))  # type: ignore[attr-defined]
        text = f"{value:.{self.decimals}f}"
        return f"{text} {self.unit}".rstrip()


@dataclass
class KwpBlockItem:
    """Tool-database entry for one KWP 2000 measuring block."""

    ecu_name: str
    local_id: int
    name: str
    slot_names: List[str]
    slot_units: List[str]

    def render_slot(self, esv: kwp2000.KwpEsv) -> str:
        formula = kwp2000.formula_for_type(esv.formula_type)
        if isinstance(formula, EnumFormula):
            return formula.label(esv.x1)
        value = formula((esv.x0, esv.x1))
        unit = self.slot_units[esv.position] if esv.position < len(self.slot_units) else ""
        decimals = _decimals_for_unit(unit or formula.unit)
        return f"{value:.{decimals}f} {unit or formula.unit}".rstrip()


@dataclass
class ActuatorItem:
    """Tool-database entry for one active test."""

    ecu_name: str
    name: str
    identifier: int
    service: int  # 0x2F or 0x30
    control_state: bytes  # the tool's canned short-term-adjustment record


class DiagnosticTool:
    """A camera-and-stylus-operated diagnostic tool bound to one vehicle."""

    def __init__(
        self,
        profile: ToolProfile,
        vehicle: Vehicle,
        security_masks: Optional[Dict[str, int]] = None,
    ) -> None:
        self.profile = profile
        self.vehicle = vehicle
        self.clock = vehicle.clock
        self.security_masks = security_masks or {}
        self.uds_items: List[UdsDataItem] = []
        self.kwp_items: List[KwpBlockItem] = []
        self.actuator_items: List[ActuatorItem] = []
        self._endpoints: Dict[str, object] = {}
        self._screen: Screen = Screen("boot", "Booting...")
        self._state = "home"
        self._current_ecu: Optional[str] = None
        self._page = 0
        self._selection: List[object] = []  # items ticked on the select screen
        self._live_items: List[object] = []
        self._live_values: Dict[str, Widget] = {}
        self._last_test: str = ""
        self.tap_log: List[Tuple[float, str]] = []
        # Display pipeline: updates land on screen after a small random
        # rendering latency.  (apply_at, widget, text), flushed by
        # :meth:`flush_display`.
        self._pending_updates: List[Tuple[float, Widget, str]] = []
        self._latency_rng = random.Random(0xD15B1A)
        self._show_home()

    # ----------------------------------------------------------- tool database

    def load_vehicle_database(self) -> None:
        """Populate the tool's proprietary tables from the vehicle's ECUs.

        In reality the manufacturer ships these tables inside the tool; in
        the simulation we copy them from the ECU definitions — the
        reverse-engineering pipeline never sees either side.
        """
        for ecu in self.vehicle.ecus:
            for point in ecu.uds_data_points.values():
                self.uds_items.append(
                    UdsDataItem(
                        ecu_name=ecu.name,
                        name=point.name,
                        did=point.did,
                        formula=point.formula,
                        bytes_per_var=point.bytes_per_var,
                        unit=point.unit or point.formula.unit,
                        decimals=_decimals_for_unit(point.unit or point.formula.unit),
                    )
                )
            for group in ecu.kwp_groups.values():
                self.kwp_items.append(
                    KwpBlockItem(
                        ecu_name=ecu.name,
                        local_id=group.local_id,
                        name=group.name,
                        slot_names=[m.name for m in group.measurements],
                        slot_units=[m.unit for m in group.measurements],
                    )
                )
            for actuator in ecu.actuators.values():
                state = bytes([0x05, 0x01] + [0x00] * max(0, actuator.state_length - 2))
                self.actuator_items.append(
                    ActuatorItem(
                        ecu_name=ecu.name,
                        name=actuator.name,
                        identifier=actuator.identifier,
                        service=ecu.ecr_service,
                        control_state=state,
                    )
                )

    # ------------------------------------------------------------------ screen

    @property
    def screen(self) -> Screen:
        return self._screen

    @property
    def state(self) -> str:
        return self._state

    def tap(self, x: int, y: int) -> bool:
        """Stylus tap at screen coordinates; returns True if a widget fired."""
        widget = self._screen.widget_at(x, y)
        self.tap_log.append((self.clock.now(), widget.text if widget else ""))
        if widget is None or widget.on_tap is None:
            return False
        widget.on_tap()
        return True

    # ------------------------------------------------------------- transports

    def _endpoint(self, ecu_name: str):
        if ecu_name not in self._endpoints:
            self._endpoints[ecu_name] = self.vehicle.tester_endpoint(
                ecu_name, tester=self.profile.name
            )
        return self._endpoints[ecu_name]

    def _exchange(self, ecu_name: str, request: bytes) -> Optional[bytes]:
        endpoint = self._endpoint(ecu_name)
        endpoint.send(request)
        response = endpoint.receive()
        # NRC 0x78 (requestCorrectlyReceived-ResponsePending): the real
        # response follows; keep draining, bounded against broken ECUs.
        retries = 0
        while (
            response is not None
            and len(response) >= 3
            and response[0] == 0x7F
            and response[2] == 0x78
            and retries < 8
        ):
            response = endpoint.receive()
            retries += 1
        return response

    def _unlock_security(self, ecu_name: str) -> bool:
        """Extended session + seed/key unlock (the tool knows the key rule)."""
        mask = self.security_masks.get(ecu_name)
        self._exchange(ecu_name, uds.encode_session_control(uds.SessionType.EXTENDED))
        if mask is None:
            return True
        response = self._exchange(ecu_name, uds.encode_security_access_request_seed())
        if response is None or is_negative_response(response):
            return False
        seed = int.from_bytes(response[2:4], "big")
        if seed == 0:
            return True  # already unlocked
        key = (seed ^ mask) & 0xFFFF
        response = self._exchange(
            ecu_name, uds.encode_security_access_send_key(0x01, key.to_bytes(2, "big"))
        )
        return response is not None and not is_negative_response(response)

    # ------------------------------------------------------------- navigation

    def _show_home(self) -> None:
        builder = ScreenBuilder(
            "home",
            f"{self.profile.name} - Select System",
            self.profile.screen_width,
            self.profile.screen_height,
        )
        for ecu in self.vehicle.ecus:
            builder.add_row(
                WidgetKind.BUTTON, ecu.name, on_tap=lambda n=ecu.name: self._enter_ecu(n)
            )
        builder.add_row(WidgetKind.ICON_BUTTON, "", icon="settings-gear")
        self._screen = builder.screen
        self._state = "home"
        self._current_ecu = None

    def _enter_ecu(self, ecu_name: str) -> None:
        self._current_ecu = ecu_name
        identification = self._read_identification(ecu_name)
        builder = ScreenBuilder(
            "ecu_menu",
            f"{ecu_name} - Functions",
            self.profile.screen_width,
            self.profile.screen_height,
        )
        if identification:
            builder.add_row(WidgetKind.LABEL, identification)
        builder.add_row(WidgetKind.BUTTON, "Read Data Stream", on_tap=self._enter_datastream)
        if any(a.ecu_name == ecu_name for a in self.actuator_items):
            builder.add_row(WidgetKind.BUTTON, "Active Test", on_tap=self._enter_activetest)
        builder.add_row(
            WidgetKind.BUTTON, "Read Trouble Codes", on_tap=self._read_dtcs
        )
        builder.add_row(
            WidgetKind.BUTTON, "Clear Trouble Codes", on_tap=self._clear_dtcs
        )
        builder.add_row(WidgetKind.BUTTON, "ECU Coding", on_tap=self._enter_coding)
        builder.add_row(WidgetKind.BUTTON, "Back", on_tap=self._show_home)
        builder.add_row(WidgetKind.ICON_BUTTON, "", icon="home")
        self._screen = builder.screen
        self._state = "ecu_menu"

    def _read_identification(self, ecu_name: str) -> str:
        """Read the ECU's identification on connect, as real tools do.

        KWP ECUs answer readEcuIdentification (0x1A); UDS ECUs answer the
        standard identification DIDs.  These long ASCII responses are the
        multi-frame transfers that dominate real diagnostic traffic
        (Tab. 9).
        """
        has_kwp = any(i.ecu_name == ecu_name for i in self.kwp_items)
        if has_kwp:
            response = self._exchange(ecu_name, b"\x1a\x9b")
            if response and not is_negative_response(response):
                return response[2:].decode("ascii", errors="replace")
            return ""
        response = self._exchange(
            ecu_name, uds.encode_read_data_by_identifier([0xF190])
        )
        if response and not is_negative_response(response):
            return response[3:].decode("ascii", errors="replace")
        return ""

    # ------------------------------------------------------------ OBD anchor

    def obd_supported(self) -> bool:
        """Whether the vehicle exposes legislated OBD-II PIDs."""
        return any(ecu.obd_pids for ecu in self.vehicle.ecus)

    def obd_anchor_tick(self) -> None:
        """One round of the §9.4 pre-session OBD-II reads.

        The tool polls the engine's legislated PIDs and shows their values
        (computed with the *public* SAE formulas) on an "OBD quick check"
        screen.  Because those formulas are public, the offline pipeline
        can anchor the video clock to the CAN clock on these reads.
        """
        from ..diagnostics import obd2

        ecu = next((e for e in self.vehicle.ecus if e.obd_pids), None)
        if ecu is None:
            return
        if self._state != "obd_anchor":
            builder = ScreenBuilder(
                "live",  # camera-b extraction treats it like any live screen
                "OBD-II Quick Check",
                self.profile.screen_width,
                self.profile.screen_height,
            )
            self._live_values = {}
            for pid in sorted(ecu.obd_pids):
                definition = obd2.pid_definition(pid)
                __, value_widget = builder.add_pair(definition.name, "---")
                self._live_values[definition.name] = value_widget
            builder.add_row(WidgetKind.BUTTON, "Back", on_tap=self._show_home)
            self._screen = builder.screen
            self._state = "obd_anchor"
        for pid in sorted(ecu.obd_pids):
            response = self._exchange(ecu.name, obd2.encode_request(pid))
            if response is None or is_negative_response(response):
                continue
            __, got_pid, data = obd2.decode_response(response)
            definition = obd2.pid_definition(got_pid)
            value = obd2.physical_value(got_pid, data)
            self._queue_update(
                self._live_values[definition.name],
                f"{value:.1f} {definition.formula.unit}".rstrip(),
            )

    # ----------------------------------------------------------------- DTCs

    def _uses_kwp(self, ecu_name: str) -> bool:
        return any(i.ecu_name == ecu_name for i in self.kwp_items)

    def _read_dtcs(self) -> None:
        """The "Read Trouble Codes" screen."""
        from ..diagnostics import dtc as dtc_codec

        ecu_name = self._current_ecu
        if self._uses_kwp(ecu_name):
            response = self._exchange(ecu_name, dtc_codec.encode_kwp_read_dtcs())
            decode = dtc_codec.decode_kwp_dtc_response
        else:
            response = self._exchange(ecu_name, dtc_codec.encode_uds_read_dtcs())
            decode = dtc_codec.decode_uds_dtc_response
        codes = []
        if response is not None and not is_negative_response(response):
            try:
                codes = decode(response)
            except Exception:
                codes = []
        builder = ScreenBuilder(
            "dtc_list",
            f"{ecu_name} - Trouble Codes ({len(codes)})",
            self.profile.screen_width,
            self.profile.screen_height,
        )
        for code in codes:
            description = dtc_codec.KNOWN_DTCS.get(code.code, "Unknown fault")
            builder.add_row(WidgetKind.LABEL, f"{code.code}: {description}")
        if not codes:
            builder.add_row(WidgetKind.LABEL, "No trouble codes stored")
        builder.add_row(
            WidgetKind.BUTTON, "Back", on_tap=lambda: self._enter_ecu(ecu_name)
        )
        self._screen = builder.screen
        self._state = "dtc_list"

    def _clear_dtcs(self) -> None:
        from ..diagnostics import dtc as dtc_codec

        ecu_name = self._current_ecu
        if self._uses_kwp(ecu_name):
            request = bytes([dtc_codec.KWP_CLEAR_DIAGNOSTIC_INFORMATION, 0xFF, 0x00])
        else:
            request = dtc_codec.encode_uds_clear()
        response = self._exchange(ecu_name, request)
        ok = response is not None and not is_negative_response(response)
        self._last_test = f"Clear DTCs {'OK' if ok else 'FAILED'}"
        self._enter_ecu(ecu_name)

    # ---------------------------------------------------------------- coding

    CODING_DID = 0x0600

    def _enter_coding(self) -> None:
        """The "ECU Coding" screen: show the coding word, offer a recode."""
        ecu_name = self._current_ecu
        if self._uses_kwp(ecu_name):
            # KWP coding uses a different flow; the menu entry is inert on
            # KWP ECUs (mirrors tools that grey it out).
            return
        response = self._exchange(
            ecu_name, uds.encode_read_data_by_identifier([self.CODING_DID])
        )
        coding = b""
        if response is not None and not is_negative_response(response):
            coding = response[3:]
        builder = ScreenBuilder(
            "coding",
            f"{ecu_name} - ECU Coding",
            self.profile.screen_width,
            self.profile.screen_height,
        )
        builder.add_row(WidgetKind.LABEL, f"Current coding: {coding.hex(' ').upper()}")
        builder.add_row(
            WidgetKind.BUTTON,
            "Recode",
            on_tap=lambda: self._write_coding(ecu_name, coding),
        )
        builder.add_row(
            WidgetKind.BUTTON, "Back", on_tap=lambda: self._enter_ecu(ecu_name)
        )
        self._screen = builder.screen
        self._state = "coding"

    def _write_coding(self, ecu_name: str, current: bytes) -> None:
        """Write the coding word back with the last byte incremented."""
        if not current:
            return
        self._unlock_security(ecu_name)
        new_coding = current[:-1] + bytes([(current[-1] + 1) & 0xFF])
        request = (
            bytes([0x2E]) + self.CODING_DID.to_bytes(2, "big") + new_coding
        )
        response = self._exchange(ecu_name, request)
        ok = response is not None and not is_negative_response(response)
        self._last_test = f"Recode {'OK' if ok else 'FAILED'}"
        self._enter_coding()

    def _items_for_current_ecu(self) -> List[object]:
        items: List[object] = [
            i for i in self.uds_items if i.ecu_name == self._current_ecu
        ]
        items += [i for i in self.kwp_items if i.ecu_name == self._current_ecu]
        return items

    def _enter_datastream(self) -> None:
        self._selection = []
        self._page = 0
        self._render_datastream_select()

    def _render_datastream_select(self) -> None:
        items = self._items_for_current_ecu()
        per_page = self.profile.rows_per_page
        pages = max(1, -(-len(items) // per_page))
        self._page %= pages
        builder = ScreenBuilder(
            "datastream_select",
            f"{self._current_ecu} - Read Data Stream ({self._page + 1}/{pages})",
            self.profile.screen_width,
            self.profile.screen_height,
        )
        start = self._page * per_page
        for item in items[start : start + per_page]:
            label = item.name if hasattr(item, "name") else str(item)
            prefix = "[x] " if item in self._selection else "[ ] "
            builder.add_row(
                WidgetKind.BUTTON,
                prefix + label,
                on_tap=lambda it=item: self._toggle_item(it),
            )
        if pages > 1:
            builder.add_row(WidgetKind.BUTTON, "Next Page", on_tap=self._next_page)
        builder.add_row(WidgetKind.BUTTON, "Start", on_tap=self._start_live)
        builder.add_row(WidgetKind.BUTTON, "Back", on_tap=lambda: self._enter_ecu(self._current_ecu))
        self._screen = builder.screen
        self._state = "datastream_select"

    def _toggle_item(self, item: object) -> None:
        if item in self._selection:
            self._selection.remove(item)
        else:
            self._selection.append(item)
        self._render_datastream_select()

    def _next_page(self) -> None:
        self._page += 1
        self._render_datastream_select()

    def _start_live(self) -> None:
        if not self._selection:
            return
        self._live_items = list(self._selection)
        builder = ScreenBuilder(
            "live",
            f"{self._current_ecu} - Data Stream",
            self.profile.screen_width,
            self.profile.screen_height,
        )
        self._live_values = {}
        for item in self._live_items:
            if isinstance(item, UdsDataItem):
                __, value_widget = builder.add_pair(item.name, "---")
                self._live_values[item.name] = value_widget
            else:
                for slot_name in item.slot_names:
                    __, value_widget = builder.add_pair(slot_name, "---")
                    self._live_values[slot_name] = value_widget
        builder.add_row(WidgetKind.BUTTON, "Back", on_tap=lambda: self._enter_ecu(self._current_ecu))
        self._screen = builder.screen
        self._state = "live"
        self.tick()

    # ------------------------------------------------------------------ live

    def tick(self) -> None:
        """One poll cycle: query the selected items and refresh the screen.

        The clock is *not* advanced here — the operator (the data
        collector) owns pacing, so that a screenshot taken right after a
        tick carries the same timestamp as the responses it displays.
        """
        if self._state != "live":
            return
        # Keep the extended session alive: real tools interleave
        # TesterPresent (0x3E) with the data-stream polling.
        self._ticks_since_keepalive = getattr(self, "_ticks_since_keepalive", 0) + 1
        if self._ticks_since_keepalive >= 4:
            self._ticks_since_keepalive = 0
            ecus = {i.ecu_name for i in self._live_items}
            for ecu_name in ecus:
                self._exchange(ecu_name, uds.encode_tester_present())
        uds_batch = [i for i in self._live_items if isinstance(i, UdsDataItem)]
        # Two DIDs per request: short reads stay single-frame while wider
        # values spill into multi-frame transport, matching the Tab. 9 mix.
        for start in range(0, len(uds_batch), 2):
            chunk = uds_batch[start : start + 2]
            dids = [item.did for item in chunk]
            response = self._exchange(
                chunk[0].ecu_name, uds.encode_read_data_by_identifier(dids)
            )
            if response is None or is_negative_response(response):
                continue
            for did, value_bytes in uds.decode_read_response(dids, response):
                item = next(i for i in chunk if i.did == did)
                self._queue_update(self._live_values[item.name], item.render(value_bytes))
        for item in self._live_items:
            if not isinstance(item, KwpBlockItem):
                continue
            response = self._exchange(
                item.ecu_name, kwp2000.encode_read_by_local_id(item.local_id)
            )
            if response is None or is_negative_response(response):
                continue
            __, records = kwp2000.decode_read_response(response)
            for esv in records:
                if esv.position < len(item.slot_names):
                    slot = item.slot_names[esv.position]
                    self._queue_update(self._live_values[slot], item.render_slot(esv))

    def _queue_update(self, widget: Widget, text: str) -> None:
        """Schedule a screen update after the rendering latency."""
        latency = self._latency_rng.uniform(
            self.profile.display_latency_min_s, self.profile.display_latency_max_s
        )
        self._pending_updates.append((self.clock.now() + latency, widget, text))

    def flush_display(self) -> None:
        """Apply every queued update whose render time has passed.

        Called by whoever paces the session (the data collector) before a
        screenshot; anything still in flight stays at its previous value —
        the stale-read effect the paper's §4.3 traces its coefficient
        noise to.
        """
        now = self.clock.now()
        remaining: List[Tuple[float, Widget, str]] = []
        for apply_at, widget, text in self._pending_updates:
            if apply_at <= now:
                widget.text = text
            else:
                remaining.append((apply_at, widget, text))
        self._pending_updates = remaining

    # ----------------------------------------------------------- active test

    def _enter_activetest(self) -> None:
        builder = ScreenBuilder(
            "activetest_select",
            f"{self._current_ecu} - Active Test",
            self.profile.screen_width,
            self.profile.screen_height,
        )
        if self._last_test:
            builder.add_row(WidgetKind.LABEL, f"Last test: {self._last_test}")
        for item in self.actuator_items:
            if item.ecu_name != self._current_ecu:
                continue
            builder.add_row(
                WidgetKind.BUTTON, item.name, on_tap=lambda it=item: self._run_test(it)
            )
        builder.add_row(WidgetKind.BUTTON, "Back", on_tap=lambda: self._enter_ecu(self._current_ecu))
        self._screen = builder.screen
        self._state = "activetest_select"

    def _run_test(self, item: ActuatorItem) -> None:
        """The three-message IO-control procedure of §4.5."""
        if not self._unlock_security(item.ecu_name):
            self._last_test = f"{item.name} FAILED (security)"
            self._enter_activetest()
            return
        param = uds.IoControlParameter
        if item.service == uds.UdsService.IO_CONTROL_BY_IDENTIFIER:
            freeze = uds.encode_io_control(item.identifier, param.FREEZE_CURRENT_STATE)
            adjust = uds.encode_io_control(
                item.identifier, param.SHORT_TERM_ADJUSTMENT, item.control_state
            )
            release = uds.encode_io_control(item.identifier, param.RETURN_CONTROL_TO_ECU)
        else:
            freeze = kwp2000.encode_io_control_local(
                item.identifier, bytes([param.FREEZE_CURRENT_STATE])
            )
            adjust = kwp2000.encode_io_control_local(
                item.identifier,
                bytes([param.SHORT_TERM_ADJUSTMENT]) + item.control_state,
            )
            release = kwp2000.encode_io_control_local(
                item.identifier, bytes([param.RETURN_CONTROL_TO_ECU])
            )
        ok = True
        for message, wait in ((freeze, 0.2), (adjust, 2.0), (release, 0.2)):
            response = self._exchange(item.ecu_name, message)
            ok = ok and response is not None and not is_negative_response(response)
            self.clock.advance(wait)
        self._last_test = f"{item.name} {'OK' if ok else 'FAILED'}"
        self._enter_activetest()


def make_tool_for_car(key: str, vehicle: Vehicle) -> DiagnosticTool:
    """Instantiate the Tab. 3 diagnostic tool for fleet car ``key``."""
    spec = CAR_SPECS[key]
    profile = TOOL_PROFILES[spec.tool]
    masks = {
        ecu.name: ecu.security.mask
        for ecu in vehicle.ecus
        if ecu.security.required
    }
    tool = DiagnosticTool(profile, vehicle, security_masks=masks)
    tool.load_vehicle_database()
    tool._show_home()
    return tool
