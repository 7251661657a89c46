"""K-Line diagnostic session driver.

The oldest KWP 2000 deployments run over the K-Line (ISO 14230), not CAN.
:class:`KLineDiagnosticSession` plays the role VCDS plays for such cars: it
fast-inits each ECU, polls its measuring blocks, renders the physical
values on a laptop-style screen (using the manufacturer formula table) and
lets a video recorder + the K-Line sniffer observe everything — producing
the same two artefacts the CAN pipeline consumes.

Use :func:`build_kline_vehicle` for a ready-made KWP-over-K-Line car and
:meth:`KLineDiagnosticSession.collect` for a full capture; feed the result
to :class:`~repro.core.reverser.DPReverser` via ``analyze(capture,
messages=...)``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List

from ..can import CanLog
from ..diagnostics import kwp2000
from ..diagnostics.messages import is_negative_response
from ..simtime import SimClock
from ..transport.kline import (
    KLineBus,
    KLineEndpoint,
    KLineTester,
    parse_capture,
    to_assembled_messages,
)
from ..vehicle.ecu import KwpDataGroup, KwpMeasurement, SimulatedEcu
from ..vehicle.signals import ConstantSignal, RampSignal, SineSignal
from .diagtool import _decimals_for_unit
from .ui import Screen, ScreenBuilder, WidgetKind


@dataclass
class KLineVehicle:
    """A K-Line car: the wire plus address-mapped ECUs."""

    bus: KLineBus
    ecus: Dict[int, SimulatedEcu]  # K-Line address -> ECU
    model: str = "K-Line KWP car"

    @property
    def clock(self) -> SimClock:
        return self.bus.clock


def build_kline_vehicle(seed: int = 77, n_measurements: int = 9) -> KLineVehicle:
    """A VW-Golf-style KWP 2000 vehicle on the K-Line."""
    rng = random.Random(seed)
    bus = KLineBus(SimClock())
    ecus: Dict[int, SimulatedEcu] = {}
    names = ["Engine", "Instrument Cluster"]
    measurement_pool = [
        ("Engine Speed", 0x01), ("Coolant Temperature", 0x05),
        ("Battery Voltage", 0x06), ("Vehicle Speed", 0x07),
        ("Injection Timing", 0x0F), ("Manifold Pressure", 0x12),
        ("Lambda Control", 0x17), ("Engine Load", 0x02),
        ("Fuel Consumption", 0x23), ("Intake Air Temperature", 0x05),
    ]
    per_ecu = max(1, n_measurements // len(names))
    index = 0
    # Local ids are drawn from disjoint per-ECU ranges: the pipeline keys
    # ESV observations by (local id, slot), so two ECUs reusing block 01
    # would alias.  (Real tools disambiguate by the CAN id / K-Line address
    # of the conversation; see DESIGN.md, known limitations.)
    for ecu_index, (address, name) in enumerate(zip((0x01, 0x17), names)):
        ecu = SimulatedEcu(name, bus.clock)
        local_id = 1 + 0x20 * ecu_index
        while index < min(n_measurements, (len(ecus) + 1) * per_ecu):
            group = KwpDataGroup(local_id, f"Block {local_id:02X}")
            for __ in range(min(3, n_measurements - index)):
                if index >= n_measurements:
                    break
                mname, ftype = measurement_pool[index % len(measurement_pool)]
                group.measurements.append(
                    KwpMeasurement(
                        mname if index < len(measurement_pool) else f"{mname} #{index}",
                        formula_type=ftype,
                        x0=ConstantSignal(rng.randrange(20, 120))
                        if rng.random() < 0.2
                        else SineSignal(10, 250, period_s=rng.uniform(9, 25)),
                        x1=RampSignal(5, 250, period_s=rng.uniform(7, 20)),
                    )
                )
                index += 1
            ecu.add_kwp_group(group)
            local_id += 1

        endpoint = KLineEndpoint(
            bus,
            f"ecu@{address:02X}",
            address,
            on_message=lambda m, _e=None: None,  # replaced below
        )

        def responder(message, ecu=ecu, endpoint=endpoint):
            response = ecu.handle_request(message.payload)
            if response is not None:
                endpoint.send(response, target=message.source)

        endpoint.on_message = responder
        ecus[address] = ecu
    return KLineVehicle(bus=bus, ecus=ecus)


class KLineDiagnosticSession:
    """Drives a K-Line vehicle and records screen + wire."""

    def __init__(self, vehicle: KLineVehicle, poll_interval_s: float = 0.5) -> None:
        # Imported here: repro.cps imports repro.tools.ui at module scope,
        # so a module-level import from this file would be circular.
        from ..cps.camera import VideoRecorder

        self.vehicle = vehicle
        self.poll_interval_s = poll_interval_s
        self.tester = KLineTester(vehicle.bus)
        self.video = VideoRecorder(vehicle.clock)
        self.segments: List = []

    def _render(self, values: Dict[str, str], ecu_name: str) -> Screen:
        builder = ScreenBuilder("live", f"{ecu_name} - Measuring Blocks", 1280, 800)
        for label, text in values.items():
            builder.add_pair(label, text)
        builder.add_row(WidgetKind.BUTTON, "Back")
        return builder.screen

    def read_ecu(self, address: int, duration_s: float = 30.0) -> None:
        """Fast-init one ECU and poll all its measuring blocks."""
        ecu = self.vehicle.ecus[address]
        if not self.tester.fast_init(address):
            raise RuntimeError(f"ECU {address:#04x} did not answer fast init")
        from ..cps.collector import Segment

        t_start = self.vehicle.clock.now()
        values: Dict[str, str] = {}
        while self.vehicle.clock.now() - t_start < duration_s:
            for group in ecu.kwp_groups.values():
                response = self.tester.request(
                    kwp2000.encode_read_by_local_id(group.local_id), address
                )
                if response is None or is_negative_response(response):
                    continue
                __, records = kwp2000.decode_read_response(response)
                for record in records:
                    if record.position >= len(group.measurements):
                        continue
                    measurement = group.measurements[record.position]
                    formula = kwp2000.formula_for_type(record.formula_type)
                    value = formula((record.x0, record.x1))
                    decimals = _decimals_for_unit(measurement.unit or formula.unit)
                    values[measurement.name] = (
                        f"{value:.{decimals}f} {measurement.unit or formula.unit}".rstrip()
                    )
            self.video.record(self._render(values, ecu.name))
            self.vehicle.clock.advance(self.poll_interval_s)
        self.segments.append(
            Segment("live", ecu.name, "Measuring Blocks", t_start, self.vehicle.clock.now())
        )

    def collect(self, duration_per_ecu_s: float = 30.0):
        """Full session over every ECU; returns (capture, messages)."""
        from ..cps.collector import Capture

        for address in self.vehicle.ecus:
            self.read_ecu(address, duration_per_ecu_s)
        messages = to_assembled_messages(parse_capture(self.vehicle.bus.capture))
        capture = Capture(
            model=self.vehicle.model,
            tool_name="VCDS (K-Line)",
            can_log=CanLog(),
            video=self.video.frames,
            clicks=[],
            segments=self.segments,
            tool_error_rate=0.02,
        )
        return capture, messages
