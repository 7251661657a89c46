"""Tests for the gateway-segmented vehicle topology."""

import pytest

from repro.can import CanFrame
from repro.diagnostics import uds
from repro.formulas import AffineFormula
from repro.vehicle import SimulatedEcu, UdsDataPoint
from repro.vehicle.gateway import GatewayVehicle
from repro.vehicle.signals import ConstantSignal, SineSignal


def make_gateway_car():
    vehicle = GatewayVehicle("GwCar")
    ecu = SimulatedEcu("Engine", vehicle.clock)
    ecu.add_data_point(
        UdsDataPoint(0xF400, "Engine Speed", [SineSignal(10, 250, 11.0)], AffineFormula(10.0))
    )
    vehicle.add_ecu(ecu, ecu_tx_id=0x7E8, ecu_rx_id=0x7E0)
    return vehicle, ecu


class TestGatewayForwarding:
    def test_diagnostic_round_trip_through_gateway(self):
        vehicle, __ = make_gateway_car()
        endpoint = vehicle.tester_endpoint("Engine")
        endpoint.send(uds.encode_read_data_by_identifier([0xF400]))
        response = endpoint.receive()
        assert response is not None and response[0] == 0x62

    def test_sniffer_sees_diagnostic_frames(self):
        vehicle, __ = make_gateway_car()
        sniffer = vehicle.attach_sniffer()
        endpoint = vehicle.tester_endpoint("Engine")
        endpoint.send(uds.encode_read_data_by_identifier([0xF400]))
        endpoint.receive()
        ids = set(sniffer.log.ids())
        assert 0x7E0 in ids and 0x7E8 in ids

    def test_internal_chatter_never_reaches_obd_port(self):
        vehicle, __ = make_gateway_car()
        sniffer = vehicle.attach_sniffer()
        for index in range(50):
            vehicle.broadcast_internal(CanFrame(0x280, bytes([index % 256] * 8)))
        assert 0x280 not in set(sniffer.log.ids())
        assert vehicle.gateway.dropped >= 50

    def test_gateway_adds_latency(self):
        vehicle, __ = make_gateway_car()
        direct = GatewayVehicle("Direct")
        # Compare to a request on a plain vehicle sharing frame timing.
        from repro.vehicle import Vehicle, TransportKind

        plain = Vehicle("Plain", transport=TransportKind.ISOTP)
        ecu = SimulatedEcu("Engine", plain.clock)
        ecu.add_data_point(
            UdsDataPoint(0xF400, "X", [ConstantSignal(5)], AffineFormula(1.0))
        )
        plain.add_ecu(ecu, 0x7E8, 0x7E0)

        def elapsed(vehicle_obj):
            endpoint = vehicle_obj.tester_endpoint("Engine")
            start = vehicle_obj.clock.now()
            endpoint.send(uds.encode_read_data_by_identifier([0xF400]))
            endpoint.receive()
            return vehicle_obj.clock.now() - start

        assert elapsed(vehicle) > elapsed(plain)

    def test_forward_counters(self):
        vehicle, __ = make_gateway_car()
        endpoint = vehicle.tester_endpoint("Engine")
        endpoint.send(uds.encode_read_data_by_identifier([0xF400]))
        endpoint.receive()
        assert vehicle.gateway.forwarded >= 2  # request + response


class TestGatewayPipeline:
    def test_reverse_engineering_through_gateway(self):
        """The pipeline's view from the OBD port is unchanged by the
        gateway, so everything still reverses."""
        from repro.core import DPReverser, GpConfig, ReverserConfig, check_formula
        from repro.core.fields import extract_fields
        from repro.core.assembly import assemble

        vehicle, ecu = make_gateway_car()
        sniffer = vehicle.attach_sniffer()
        endpoint = vehicle.tester_endpoint("Engine")
        for __ in range(30):
            endpoint.send(uds.encode_read_data_by_identifier([0xF400]))
            endpoint.receive()
            vehicle.clock.advance(0.5)
        fields = extract_fields(assemble(list(sniffer.log)))
        assert len(fields.observations) == 30
        values = set(fields.by_identifier()["uds:F400"].as_ints())
        assert len(values) > 5  # live signal visible through the gateway


class TestGatewayFullPipeline:
    def test_collector_and_reverser_through_gateway(self):
        """The complete CPS loop works unchanged on a gateway topology."""
        from repro.core import DPReverser, GpConfig, ReverserConfig, check_formula
        from repro.cps import DataCollector
        from repro.formulas import AffineFormula, ProductFormula
        from repro.tools import TOOL_PROFILES
        from repro.tools.diagtool import DiagnosticTool
        from repro.vehicle import SimulatedEcu, UdsDataPoint
        from repro.vehicle.signals import RampSignal, SineSignal

        vehicle = GatewayVehicle("GwFull")
        engine = SimulatedEcu("Engine", vehicle.clock)
        engine.add_data_point(
            UdsDataPoint(
                0xF400, "Engine Speed", [SineSignal(10, 250, 11.0)],
                AffineFormula(32.0),
            )
        )
        engine.add_data_point(
            UdsDataPoint(
                0xF401, "Coolant Temperature", [RampSignal(40, 240, 23.0)],
                AffineFormula(0.75, -48.0),
            )
        )
        vehicle.add_ecu(engine, ecu_tx_id=0x7E8, ecu_rx_id=0x7E0)

        tool = DiagnosticTool(TOOL_PROFILES["AUTEL 919"], vehicle)
        tool.load_vehicle_database()
        tool._show_home()
        capture = DataCollector(tool, read_duration_s=25.0).collect()
        report = DPReverser(ReverserConfig(gp_config=GpConfig(seed=2))).reverse_engineer(capture)

        assert len(report.formula_esvs) == 2
        truth = {
            "uds:F400": engine.uds_data_points[0xF400].formula,
            "uds:F401": engine.uds_data_points[0xF401].formula,
        }
        for esv in report.formula_esvs:
            assert check_formula(esv.formula, truth[esv.identifier], esv.samples)
        assert vehicle.gateway.forwarded > 100
