"""Virtual-vehicle substrate: ECUs, signals, the bus wiring and the fleet."""

from .signals import (
    ConstantSignal,
    RampSignal,
    RandomWalkSignal,
    SignalSource,
    SineSignal,
    ToggleSignal,
)
from .ecu import (
    Actuator,
    ActuatorAction,
    ActuatorState,
    KwpDataGroup,
    KwpMeasurement,
    Routine,
    SecurityAccessPolicy,
    SimulatedEcu,
    UdsDataPoint,
)
from .vehicle import EcuBinding, TESTER_ADDRESS, TransportKind, Vehicle
from .obd_sim import (
    OBD_FUNCTIONAL_ID,
    OBD_PHYSICAL_REQUEST_ID,
    OBD_RESPONSE_ID,
    ObdVehicleSimulator,
)
from .broadcast import (
    BroadcastEmitter,
    BroadcastFrameSpec,
    SignalSpec,
    crc8,
    default_broadcast_vehicle,
)
from .gateway import Gateway, GatewayVehicle
from .fleet import (
    CAR_SPECS,
    CarSpec,
    build_car,
    expected_ecr_counts,
    expected_esv_counts,
    ground_truth_formulas,
)

__all__ = [
    "ConstantSignal",
    "RampSignal",
    "RandomWalkSignal",
    "SignalSource",
    "SineSignal",
    "ToggleSignal",
    "Actuator",
    "ActuatorAction",
    "ActuatorState",
    "KwpDataGroup",
    "KwpMeasurement",
    "Routine",
    "SecurityAccessPolicy",
    "SimulatedEcu",
    "UdsDataPoint",
    "EcuBinding",
    "TESTER_ADDRESS",
    "TransportKind",
    "Vehicle",
    "OBD_FUNCTIONAL_ID",
    "OBD_PHYSICAL_REQUEST_ID",
    "OBD_RESPONSE_ID",
    "ObdVehicleSimulator",
    "BroadcastEmitter",
    "BroadcastFrameSpec",
    "SignalSpec",
    "crc8",
    "default_broadcast_vehicle",
    "Gateway",
    "GatewayVehicle",
    "CAR_SPECS",
    "CarSpec",
    "build_car",
    "expected_ecr_counts",
    "expected_esv_counts",
    "ground_truth_formulas",
]
