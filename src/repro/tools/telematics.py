"""OBD-based telematics app simulator.

§4.2 of the paper drives the Android app "ChevroSys Scan Free" against an
OBD-II vehicle simulator to validate formula recovery against the public
SAE J1979 ground truth.  :class:`ObdTelematicsApp` is that app: a phone
screen showing live PID read-outs, polling the simulator through a
Bluetooth/WiFi OBD dongle (modelled as a plain ISO-TP endpoint).

The app picks *one* unit system per PID (the paper notes this is why only
one of the two SAE formulas per PID is recoverable).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

from ..diagnostics import obd2
from ..vehicle.obd_sim import ObdVehicleSimulator
from .ui import Screen, ScreenBuilder, Widget

#: PIDs the app displays in imperial units (mirrors the paper's Tab. 5,
#: where speed/temperature/pressure resolve to the imperial variant).
IMPERIAL_PIDS = frozenset({0x0D, 0x05, 0x0B})


class ObdTelematicsApp:
    """A minimal OBD dashboard app bound to an OBD-II vehicle simulator."""

    def __init__(
        self,
        simulator: ObdVehicleSimulator,
        pids: Optional[Iterable[int]] = None,
        name: str = "ChevroSys Scan Free",
        poll_interval_s: float = 0.5,
    ) -> None:
        self.simulator = simulator
        self.clock = simulator.clock
        self.name = name
        self.poll_interval_s = poll_interval_s
        self.pids: List[int] = list(pids) if pids is not None else list(simulator.pids)
        self.endpoint = simulator.tester_endpoint(name)
        self._values: Dict[int, Widget] = {}
        self._screen = self._build_screen()

    def _build_screen(self) -> Screen:
        builder = ScreenBuilder(f"{self.name}-dash", f"{self.name} - Live Data", 480, 960)
        for pid in self.pids:
            definition = obd2.pid_definition(pid)
            __, value_widget = builder.add_pair(definition.name, "---")
            self._values[pid] = value_widget
        return builder.screen

    @property
    def screen(self) -> Screen:
        return self._screen

    def _unit_for(self, pid: int) -> str:
        definition = obd2.pid_definition(pid)
        if pid in IMPERIAL_PIDS and definition.alt_formula is not None:
            return definition.alt_formula.unit
        return definition.formula.unit

    def tick(self) -> None:
        """Poll every displayed PID once and refresh the screen."""
        for pid in self.pids:
            self.endpoint.send(obd2.encode_request(pid))
            response = self.endpoint.receive()
            if response is None:
                continue
            __, resp_pid, data = obd2.decode_response(response)
            if resp_pid != pid:
                continue
            value = obd2.physical_value(pid, data, imperial=pid in IMPERIAL_PIDS)
            decimals = 0 if pid in (0x0C, 0x1F, 0x21) else 1
            self._values[pid].text = f"{value:.{decimals}f} {self._unit_for(pid)}".rstrip()
        self.clock.advance(self.poll_interval_s)
