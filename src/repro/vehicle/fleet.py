"""The 18-vehicle evaluation fleet (Tab. 3 of the paper).

Each car is generated deterministically from its :class:`CarSpec`: the
per-car ESV counts match Tab. 6 (formula vs enum ESVs), the ECR counts and
IO-control service match Tab. 11, and the transport stack matches the
manufacturer (VW → TP 2.0, BMW/Mini → extended addressing, everything else
→ ISO-TP).  The dashboard-visible ESVs of Tab. 7 (Cars F, K, L, R) are
pinned to the exact formulas the paper lists.

The formulas assigned to ESVs are drawn from a realistic manufacturer pool —
mostly affine scalings, a few two-variable and non-linear shapes — seeded
per car so the whole fleet is reproducible.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..diagnostics import kwp2000, uds
from ..diagnostics.messages import Protocol
from ..formulas import (
    AffineFormula,
    EnumFormula,
    ExpressionFormula,
    Formula,
    ProductFormula,
    TwoVarAffineFormula,
)
from ..simtime import SimClock
from .ecu import (
    Actuator,
    KwpDataGroup,
    KwpMeasurement,
    Routine,
    SecurityAccessPolicy,
    SimulatedEcu,
    UdsDataPoint,
)
from .signals import (
    ConstantSignal,
    RampSignal,
    RandomWalkSignal,
    SignalSource,
    SineSignal,
    ToggleSignal,
)
from .vehicle import TransportKind, Vehicle


@dataclass(frozen=True)
class CarSpec:
    """Static description of one evaluation vehicle."""

    key: str  # "A" .. "R"
    model: str
    protocol: Protocol
    tool: str
    transport: TransportKind
    formula_esvs: int  # Tab. 6 "#ESV (formula)"
    enum_esvs: int  # Tab. 6 "#ESV (Enum)"
    ecrs: int  # Tab. 11 "#ECR"
    ecr_service: Optional[int]  # 0x2F / 0x30 per Tab. 11, None if no active test
    seed: int

    @property
    def name(self) -> str:
        return f"Car {self.key}"


_2F = uds.UdsService.IO_CONTROL_BY_IDENTIFIER
_30 = kwp2000.KwpService.IO_CONTROL_BY_LOCAL_IDENTIFIER

#: Tab. 3 + Tab. 6 + Tab. 11, merged.
CAR_SPECS: Dict[str, CarSpec] = {
    spec.key: spec
    for spec in [
        CarSpec("A", "Skoda Octavia", Protocol.UDS, "LAUNCH X431", TransportKind.ISOTP, 28, 0, 11, _2F, 1001),
        CarSpec("B", "Volkswagen Magotan", Protocol.KWP2000, "VCDS", TransportKind.VWTP, 8, 0, 0, None, 1002),
        CarSpec("C", "Volkswagen Lavida", Protocol.KWP2000, "LAUNCH X431", TransportKind.VWTP, 5, 0, 0, None, 1003),
        CarSpec("D", "Lexus NX300", Protocol.UDS, "Techstream", TransportKind.ISOTP, 12, 5, 5, _30, 1004),
        CarSpec("E", "Mini Cooper R56", Protocol.UDS, "AUTEL 919", TransportKind.BMW, 5, 4, 3, _30, 1005),
        CarSpec("F", "Mini Cooper R59", Protocol.UDS, "AUTEL 919", TransportKind.BMW, 8, 5, 5, _30, 1006),
        CarSpec("G", "BMW i3", Protocol.UDS, "AUTEL 919", TransportKind.BMW, 5, 22, 0, None, 1007),
        CarSpec("H", "RongWei MARVEL X", Protocol.UDS, "AUTEL 919", TransportKind.ISOTP, 5, 13, 6, _2F, 1008),
        CarSpec("I", "Changan Eado", Protocol.UDS, "AUTEL 919", TransportKind.ISOTP, 11, 0, 10, _2F, 1009),
        CarSpec("J", "BMW 532Li", Protocol.UDS, "AUTEL 919", TransportKind.BMW, 20, 20, 27, _30, 1010),
        CarSpec("K", "Volkswagen Passat", Protocol.KWP2000, "AUTEL 919", TransportKind.VWTP, 41, 0, 0, None, 1011),
        CarSpec("L", "Toyota Corolla", Protocol.UDS, "AUTEL 919", TransportKind.ISOTP, 29, 20, 0, None, 1012),
        CarSpec("M", "Peugeot 308", Protocol.UDS, "AUTEL 919", TransportKind.ISOTP, 4, 14, 0, None, 1013),
        CarSpec("N", "Kia k2 (UC)", Protocol.UDS, "AUTEL 919", TransportKind.ISOTP, 26, 19, 21, _2F, 1014),
        CarSpec("O", "Ford Kuga", Protocol.UDS, "AUTEL 919", TransportKind.ISOTP, 18, 9, 4, _2F, 1015),
        CarSpec("P", "Honda Accord", Protocol.UDS, "AUTEL 919", TransportKind.ISOTP, 7, 6, 0, None, 1016),
        CarSpec("Q", "Nissan Teana", Protocol.UDS, "AUTEL 919", TransportKind.ISOTP, 18, 17, 32, _30, 1017),
        CarSpec("R", "Audi A4L", Protocol.UDS, "AUTEL 919", TransportKind.ISOTP, 40, 2, 0, None, 1018),
    ]
}

#: ESV name pool, combined with per-car suffixes when exhausted.
ESV_NAMES: Tuple[str, ...] = (
    "Engine Speed", "Vehicle Speed", "Coolant Temperature", "Intake Air Temperature",
    "Battery Voltage", "Fuel Rail Pressure", "Throttle Position", "Boost Pressure",
    "Oil Temperature", "Lambda Bank 1", "Injection Quantity Cyl 1", "Steering Angle",
    "Brake Pressure", "Torque Assistance", "Lateral Acceleration", "Fuel Level",
    "Manifold Pressure", "EGR Duty Cycle", "Ignition Advance", "Gearbox Oil Temperature",
    "Transmission Input Speed", "Wheel Speed FL", "Wheel Speed FR", "Wheel Speed RL",
    "Wheel Speed RR", "Yaw Rate", "AC Refrigerant Pressure", "Ambient Temperature",
    "Alternator Load", "Rail Voltage", "Mass Air Flow", "Accelerator Position",
    "Turbo Speed", "Exhaust Gas Temperature", "Fuel Consumption Rate",
    "Knock Sensor Level", "Cam Position", "Crank Position", "Clutch Pressure",
    "Brake Pedal Position", "Engine Load", "Oil Pressure", "Coolant Flow",
    "DPF Soot Load", "NOx Concentration", "Charge Current", "Battery SOC",
    "Inverter Temperature", "Motor Torque", "Regen Braking Level",
)

ENUM_NAMES: Tuple[str, ...] = (
    "Driver Door Status", "Passenger Door Status", "Rear Left Door Status",
    "Rear Right Door Status", "Trunk Status", "Hood Status", "Gear Position",
    "Headlight Switch", "Wiper Switch", "Brake Light Switch", "Clutch Switch",
    "Cruise Control State", "Seat Belt Driver", "Seat Belt Passenger",
    "Handbrake Status", "AC Switch", "Defrost Switch", "Fog Light Switch",
    "Ignition State", "Key Position", "Central Lock State", "Window FL State",
    "Window FR State", "Sunroof State", "Interior Light State", "Hazard Switch",
)

ACTUATOR_NAMES: Tuple[str, ...] = (
    "Fog Light Left", "Fog Light Right", "Central Lock", "Trunk Release",
    "Wiper Front", "Wiper Rear", "Horn", "Fuel Pump", "Turn Light Left",
    "Turn Light Right", "Window FL", "Window FR", "Window RL", "Window RR",
    "Mirror Fold", "Seat Heater Left", "Seat Heater Right", "AC Compressor",
    "Radiator Fan", "High Beam", "Low Beam", "Brake Light", "Reverse Light",
    "Interior Light", "Sunroof", "Door Lock FL", "Door Lock FR", "Door Lock RL",
    "Door Lock RR", "Hazard Light", "Headlight Washer", "Tailgate",
)

#: KWP formula types used when generating measuring blocks (non-enum only).
_KWP_GEN_TYPES: Tuple[int, ...] = (
    0x01, 0x02, 0x05, 0x06, 0x07, 0x12, 0x14, 0x16, 0x17, 0x22, 0x23, 0x31,
)

ECU_NAMES: Tuple[str, ...] = ("Engine", "ABS", "Body Control", "Instrument Cluster")


def _unique_names(pool: Tuple[str, ...], count: int) -> List[str]:
    """First ``count`` names from ``pool``, suffixing on wrap-around."""
    names: List[str] = []
    for index in range(count):
        base = pool[index % len(pool)]
        round_no = index // len(pool)
        names.append(base if round_no == 0 else f"{base} #{round_no + 1}")
    return names


def _make_signal(rng: random.Random, lo: int, hi: int) -> SignalSource:
    kind = rng.random()
    period = rng.uniform(9.0, 31.0)
    phase = rng.uniform(0.0, 10.0)
    if kind < 0.45:
        return SineSignal(lo, hi, period_s=period, phase=phase)
    if kind < 0.8:
        return RampSignal(lo, hi, period_s=period, phase=phase)
    return RandomWalkSignal(lo, hi, seed=rng.randrange(1 << 30), step_size=max(2, (hi - lo) // 20))


def _uds_formula_and_signals(
    rng: random.Random,
) -> Tuple[Formula, List[SignalSource], int]:
    """Draw one proprietary formula with matching raw-signal generators.

    Returns ``(formula, signals, bytes_per_var)``.
    """
    roll = rng.random()
    if roll < 0.35:  # pure scaling, one byte
        a = rng.choice([0.01, 0.1, 0.25, 0.392, 0.5, 0.75, 1.0, 2.0, 4.0, 100.0 / 255.0])
        return AffineFormula(a), [_make_signal(rng, 5, 250)], 1
    if roll < 0.60:  # affine with offset (temperature style)
        a = rng.choice([0.1, 0.5, 0.75, 1.0, 1.5, 2.0])
        b = rng.choice([-64.0, -48.0, -40.0, -32.0, -22.0, 10.0, 48.0])
        return AffineFormula(a, b), [_make_signal(rng, 20, 240)], 1
    if roll < 0.75:  # one 16-bit variable
        a = rng.choice([0.01, 0.1, 0.125, 0.25, 1.0])
        return AffineFormula(a), [_make_signal(rng, 100, 6000)], 2
    if roll < 0.88:  # two bytes, independent weights (RPM style)
        a0 = rng.choice([2.56, 10.0, 64.0, 64.1, 256.0 * 0.05])
        a1 = rng.choice([0.01, 0.05, 0.241, 0.25, 1.0])
        return (
            TwoVarAffineFormula(a0, a1),
            [_make_signal(rng, 2, 120), _make_signal(rng, 0, 255)],
            1,
        )
    if roll < 0.95:  # two-byte product
        c = rng.choice([0.002, 0.01, 0.04, 0.2])
        return (
            ProductFormula(c),
            [_make_signal(rng, 10, 200), _make_signal(rng, 10, 200)],
            1,
        )
    # non-linear: quadratic
    c = rng.choice([0.001, 0.01, 0.05])
    return (
        ExpressionFormula(
            lambda xs, c=c: c * xs[0] * xs[0], arity=1, description=f"Y = {c:g}*X*X"
        ),
        [_make_signal(rng, 10, 220)],
        1,
    )


def _enum_point(rng: random.Random, did: int, name: str) -> UdsDataPoint:
    n_states = rng.choice([2, 2, 2, 3, 4])
    states = list(range(n_states))
    labels = {0: "Off", 1: "On", 2: "Auto", 3: "Fault"}
    return UdsDataPoint(
        did=did,
        name=name,
        signals=[ToggleSignal(states, dwell_s=rng.uniform(3.0, 9.0))],
        formula=EnumFormula({s: labels.get(s, f"state {s}") for s in states}),
    )


# ---------------------------------------------------------------------- build


def build_car(key: str, clock: Optional[SimClock] = None) -> Vehicle:
    """Instantiate one fleet vehicle by its Tab. 3 key (``"A"``..``"R"``)."""
    spec = CAR_SPECS[key]
    rng = random.Random(spec.seed)
    vehicle = Vehicle(spec.name, transport=spec.transport, clock=clock)

    ecus: List[SimulatedEcu] = []
    security = SecurityAccessPolicy(mask=0x5A00 | spec.seed & 0xFF, required=spec.ecrs > 0)
    for index, ecu_name in enumerate(ECU_NAMES):
        ecu = SimulatedEcu(
            ecu_name,
            vehicle.clock,
            ecr_service=spec.ecr_service or _2F,
            security=security if ecu_name == "Body Control" else SecurityAccessPolicy(required=False),
        )
        ecus.append(ecu)

    if spec.protocol == Protocol.KWP2000:
        _populate_kwp(spec, rng, ecus)
    else:
        _populate_uds(spec, rng, ecus)
    _populate_actuators(spec, rng, ecus)
    _populate_dtcs(rng, ecus)
    _populate_obd(rng, ecus)
    if spec.key == "Q":
        # The Nissan's body ECU answers IO control with responsePending
        # first (slow relay hardware) — exercises the NRC-0x78 path.
        body = next(e for e in ecus if e.name == "Body Control")
        body.slow_services = {int(spec.ecr_service)}
    if spec.transport == TransportKind.BMW:
        _populate_bmw_routines(ecus)

    for index, ecu in enumerate(ecus):
        if spec.transport == TransportKind.VWTP:
            vehicle.add_ecu(
                ecu,
                ecu_tx_id=0x300 + index,
                ecu_rx_id=0x740 + index,
                ecu_address=index + 1,
            )
        elif spec.transport == TransportKind.BMW:
            vehicle.add_ecu(
                ecu,
                ecu_tx_id=0x600 + index,
                ecu_rx_id=0x6F0 + index,
                ecu_address=(0x12, 0x29, 0x40, 0x60)[index],
            )
        else:
            base = 0x710 + 0x10 * index
            vehicle.add_ecu(ecu, ecu_tx_id=base + 8, ecu_rx_id=base)
    return vehicle


def _populate_uds(spec: CarSpec, rng: random.Random, ecus: List[SimulatedEcu]) -> None:
    names = _unique_names(ESV_NAMES, spec.formula_esvs)
    did_bases = [0xF400, 0x2400, 0x0940, 0xD100]
    counters = [0, 0, 0, 0]

    pinned = _pinned_dashboard_points(spec)
    for name in pinned:
        # Pinned points count toward the Tab. 6 formula-ESV total.
        if name in names:
            names.remove(name)
        elif names:
            names.pop()

    points: List[UdsDataPoint] = []
    for ecu_index, (name, builder) in enumerate(pinned.items()):
        did = did_bases[0] + counters[0]
        counters[0] += 1
        points.append(builder(did))
    for name in names:
        ecu_index = rng.randrange(len(ecus))
        did = did_bases[ecu_index] + counters[ecu_index]
        counters[ecu_index] += 1
        formula, signals, bytes_per_var = _uds_formula_and_signals(rng)
        points.append(
            UdsDataPoint(
                did=did,
                name=name,
                signals=signals,
                formula=formula,
                bytes_per_var=bytes_per_var,
            )
        )
    enum_names = _unique_names(ENUM_NAMES, spec.enum_esvs)
    for name in enum_names:
        ecu_index = rng.randrange(len(ecus))
        did = did_bases[ecu_index] + counters[ecu_index]
        counters[ecu_index] += 1
        points.append(_enum_point(rng, did, name))

    for point in points:
        ecu_index = next(
            i for i, base in enumerate(did_bases) if base <= point.did < base + 0x100
        )
        ecus[ecu_index].add_data_point(point)


def _pinned_dashboard_points(spec: CarSpec) -> Dict[str, object]:
    """Tab. 7's dashboard ESVs with the paper's exact formulas."""
    pinned: Dict[str, object] = {}
    if spec.key == "F":  # Mini R59: engine speed, Y = X (16-bit raw)
        pinned["Engine Speed"] = lambda did: UdsDataPoint(
            did=did,
            name="Engine Speed",
            signals=[SineSignal(800, 4500, period_s=19.0)],
            formula=AffineFormula(1.0, unit="rpm"),
            bytes_per_var=2,
            on_dashboard=True,
        )
    if spec.key == "L":  # Toyota Corolla: coolant temperature, Y = 0.5*X
        pinned["Coolant Temperature"] = lambda did: UdsDataPoint(
            did=did,
            name="Coolant Temperature",
            signals=[SineSignal(120, 240, period_s=27.0)],
            formula=AffineFormula(0.5, unit="degC"),
            on_dashboard=True,
        )
    if spec.key == "R":  # Audi A4L: engine speed, Y = 64.1*X0 + 0.241*X1
        pinned["Engine Speed"] = lambda did: UdsDataPoint(
            did=did,
            name="Engine Speed",
            signals=[SineSignal(10, 80, period_s=19.0), RampSignal(0, 255, period_s=5.0)],
            formula=TwoVarAffineFormula(64.1, 0.241, unit="rpm"),
            on_dashboard=True,
        )
    return pinned


def _populate_kwp(spec: CarSpec, rng: random.Random, ecus: List[SimulatedEcu]) -> None:
    names = _unique_names(ESV_NAMES, spec.formula_esvs)
    measurements: List[KwpMeasurement] = []

    def _reserve(name: str) -> None:
        # Pinned measurements count toward the Tab. 6 formula-ESV total.
        if name in names:
            names.remove(name)
        elif names:
            names.pop()

    if spec.key == "K":
        # Tab. 7: Passat engine speed via formula type 0x01 (Y = X0*X1/5);
        # §4.3: vehicle speed whose X0 is the constant 100 in traffic.
        _reserve("Engine Speed")
        _reserve("Vehicle Speed")
        measurements.append(
            KwpMeasurement(
                "Engine Speed",
                formula_type=0x01,
                x0=ConstantSignal(40),
                x1=SineSignal(20, 240, period_s=19.0),
                unit="rpm",
                on_dashboard=True,
            )
        )
        measurements.append(
            KwpMeasurement(
                "Vehicle Speed",
                formula_type=0x07,
                x0=ConstantSignal(100),
                x1=SineSignal(0, 180, period_s=23.0),
                unit="km/h",
            )
        )
    if spec.key == "B":
        # §4.3: torque assistance where X1 toggles between 0x7F and 0x81.
        _reserve("Torque Assistance")
        measurements.append(
            KwpMeasurement(
                "Torque Assistance",
                formula_type=0x22,
                x0=SineSignal(10, 220, period_s=13.0),
                x1=ToggleSignal([0x7F, 0x81], dwell_s=7.0),
                unit="Nm",
            )
        )

    for name in names:
        formula_type = rng.choice(_KWP_GEN_TYPES)
        x0 = _make_signal(rng, 5, 250)
        x1 = _make_signal(rng, 5, 250)
        if rng.random() < 0.12:  # occasional constant variable (paper §4.3)
            x0 = ConstantSignal(rng.randrange(1, 200))
        measurements.append(
            KwpMeasurement(name, formula_type=formula_type, x0=x0, x1=x1)
        )

    # Pack measurements into measuring blocks of up to 8 slots.  Real VAG
    # blocks hold 4 values, but tools read several related blocks in one
    # request; larger groups reproduce the multi-frame-heavy KWP traffic of
    # Tab. 9 (75.2 % of frames waiting for successors).
    local_id = 0x01
    cursor = 0
    while cursor < len(measurements):
        size = min(rng.choice([6, 7, 8, 8]), len(measurements) - cursor)
        group = KwpDataGroup(local_id, f"Measuring Block {local_id:02X}")
        group.measurements = measurements[cursor : cursor + size]
        ecu = ecus[local_id % 2]  # spread blocks over Engine and ABS
        ecu.add_kwp_group(group)
        cursor += size
        local_id += 1


def _populate_actuators(spec: CarSpec, rng: random.Random, ecus: List[SimulatedEcu]) -> None:
    if not spec.ecrs:
        return
    body = next(e for e in ecus if e.name == "Body Control")
    names = _unique_names(ACTUATOR_NAMES, spec.ecrs)
    for index, name in enumerate(names):
        if spec.ecr_service == _30:
            identifier = 0x10 + index  # 1-byte local identifier
        else:
            identifier = 0x0950 + index  # 2-byte DID
        body.add_actuator(Actuator(identifier, name, state_length=rng.choice([2, 4, 5])))


def _populate_obd(rng: random.Random, ecus: List[SimulatedEcu]) -> None:
    """Legislated OBD-II PIDs on the engine ECU (every car has them).

    These are the §9.4 alignment anchors: their formulas are public, so
    the pipeline can compute each response's true value and find it on the
    screen to estimate the camera-vs-sniffer clock offset.
    """
    engine = next(e for e in ecus if e.name == "Engine")
    engine.obd_pids = {
        0x05: [SineSignal(100, 180, period_s=rng.uniform(20, 35))],  # coolant
        0x0C: [  # engine rpm, two bytes
            SineSignal(4, 90, period_s=rng.uniform(9, 16)),
            RampSignal(0, 255, period_s=rng.uniform(4, 8)),
        ],
        0x0D: [SineSignal(0, 180, period_s=rng.uniform(15, 25))],  # speed
    }


def _populate_dtcs(rng: random.Random, ecus: List[SimulatedEcu]) -> None:
    """Seed a few stored trouble codes (cars in repair shops have them)."""
    from ..diagnostics.dtc import Dtc, KNOWN_DTCS

    codes = list(KNOWN_DTCS)
    for ecu in ecus:
        for __ in range(rng.randrange(0, 3)):
            code = rng.choice(codes)
            if not any(d.code == code for d in ecu.dtcs):
                ecu.dtcs.append(Dtc(code, description=KNOWN_DTCS[code]))


def _populate_bmw_routines(ecus: List[SimulatedEcu]) -> None:
    """Routine-control targets used by the Tab. 13 BMW attack messages."""
    body = next(e for e in ecus if e.name == "Body Control")
    cluster = next(e for e in ecus if e.name == "Instrument Cluster")
    body.add_routine(Routine(0x03, "High Beam Test (FLEL)"))
    body.add_routine(Routine(0x01, "Low Beam Test (FLEL)"))
    cluster.add_routine(Routine(0x13, "Turn Light Test (KOMBI)"))


def ground_truth_formulas(vehicle: Vehicle) -> Dict[str, Formula]:
    """Hidden manufacturer formulas of a fleet car, keyed by pipeline id.

    Keys use the identifier scheme of the reverse-engineering reports
    (``"uds:F400"``, ``"kwp:01/0"``), so evaluation code — the CLI fleet
    table, :mod:`repro.runtime.job` and the examples — can look up each
    recovered ESV's ground truth directly.
    """
    truth: Dict[str, Formula] = {}
    for ecu in vehicle.ecus:
        for point in ecu.uds_data_points.values():
            truth[f"uds:{point.did:04X}"] = point.formula
        for group in ecu.kwp_groups.values():
            for index, measurement in enumerate(group.measurements):
                truth[f"kwp:{group.local_id:02X}/{index}"] = measurement.formula
    return truth


def expected_esv_counts() -> Dict[str, Tuple[int, int]]:
    """Tab. 6 per-car (formula, enum) ESV counts, for benches and tests."""
    return {
        spec.key: (spec.formula_esvs, spec.enum_esvs) for spec in CAR_SPECS.values()
    }


def expected_ecr_counts() -> Dict[str, int]:
    """Tab. 11 per-car ECR counts (cars with active tests only)."""
    return {spec.key: spec.ecrs for spec in CAR_SPECS.values() if spec.ecrs}
