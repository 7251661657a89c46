"""What remains of the removed ``gp_batch`` option.

Cross-ESV batched GP evaluation is gone; two remnants stay and are pinned
here.  ``ReverserConfig.gp_batch`` is a field nothing reads (the pipeline
benchmark's worker still passes ``gp_batch=True``), so setting it must
leave the report byte-identical on every backend.  Checkpointed
:class:`~repro.runtime.JobSpec` payloads written before the removal still
carry a ``gp_batch`` key; they must load, and keep their ``job_id``.
"""

import json

import pytest

from repro.core import DPReverser, ReverserConfig
from repro.core.gp import GpConfig

GP = GpConfig(seed=2, generations=8, population_size=100)


def car_capture(key="C"):
    from repro.cps import DataCollector
    from repro.tools import make_tool_for_car
    from repro.vehicle import build_car

    car = build_car(key)
    return DataCollector(make_tool_for_car(key, car), read_duration_s=8.0).collect()


def reverse_capture(capture, **kwargs):
    reverser = DPReverser(ReverserConfig(gp_config=GP, **kwargs))
    return json.dumps(reverser.reverse_engineer(capture).to_dict(), sort_keys=True)


@pytest.mark.slow
class TestBatchedBackendsByteIdentical:
    def test_batch_and_island_match_serial(self):
        capture = car_capture()
        serial = reverse_capture(capture)
        assert reverse_capture(capture, gp_batch=True) == serial
        assert (
            reverse_capture(capture, gp_batch=True, gp_backend="process", gp_workers=2)
            == serial
        )


def checkpoint_payload_with_gp_batch():
    from repro.runtime import JobSpec

    payload = JobSpec(car_key="C").to_dict()
    assert "gp_batch" not in payload
    payload["gp_batch"] = True
    return payload


class TestJobSpecGpBatch:
    def test_gp_batch_excluded_from_job_id(self):
        from repro.runtime import JobSpec

        spec = JobSpec.from_dict(checkpoint_payload_with_gp_batch())
        assert spec.job_id == JobSpec(car_key="C").job_id

    def test_gp_batch_round_trips_and_defaults_off(self):
        from repro.runtime import JobSpec

        spec = JobSpec.from_dict(checkpoint_payload_with_gp_batch())
        assert spec == JobSpec(car_key="C")
        assert "gp_batch" not in spec.to_dict()
        assert JobSpec.from_dict(spec.to_dict()) == spec
