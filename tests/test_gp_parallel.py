"""Process-parallel GP inference and the cross-run formula memo.

The load-bearing invariant: both execution backends (serial, and the
persistent per-ESV process pool) and every memo path (cold, warm, corrupt
store) produce a byte-identical :class:`~repro.core.reverser.ReverseReport`
— and therefore identical fleet results digests.  Everything here asserts
that invariant, the serialization machinery it rests on, or the shared
pool's lifecycle (persistence across calls, rebuild after a worker crash).
"""

import json
import os
import pickle
import random
import signal
import subprocess
import sys
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.core import (
    DPReverser,
    FormulaMemo,
    ReverserConfig,
    ScaledTreeFormula,
    dataset_key,
    infer_formula,
)
from repro.core import reverser as reverser_module
from repro.core.fields import EsvObservation
from repro.core.formula_memo import MEMO_FORMAT_VERSION
from repro.core.gp import (
    DEFAULT_FUNCTION_NAMES,
    FUNCTION_SET,
    GpConfig,
    Node,
    random_tree,
    tree_from_tokens,
    tree_to_tokens,
)
from repro.core.screenshot import UiSample, UiSeries
from repro.observability import Tracer

GP = GpConfig(seed=2, generations=8, population_size=100)


def make_task_dataset(raws, values, dt=0.5, identifier="uds:F40D"):
    observations = [
        EsvObservation("uds", identifier, bytes([raw]), i * dt)
        for i, raw in enumerate(raws)
    ]
    series = UiSeries(
        "Speed", [UiSample(i * dt, f"{v}", float(v)) for i, v in enumerate(values)]
    )
    return observations, series


# --------------------------------------------------------------- serialization


class TestTreeTokens:
    def test_round_trip_random_trees(self):
        rng = random.Random(7)
        for _ in range(50):
            tree = random_tree(rng, 3, DEFAULT_FUNCTION_NAMES, max_depth=4)
            rebuilt = tree_from_tokens(tree_to_tokens(tree))
            assert rebuilt.to_infix() == tree.to_infix()
            xs = [1.5, -2.0, 0.25]
            assert repr(rebuilt.evaluate_point(xs)) == repr(tree.evaluate_point(xs))

    def test_functions_resolve_to_interned_objects(self):
        tree = Node.call("mul", Node.var(0), Node.const(2.5))
        rebuilt = tree_from_tokens(tree_to_tokens(tree))
        assert rebuilt.function is FUNCTION_SET["mul"]

    def test_non_finite_constants_round_trip(self):
        tree = Node.call("add", Node.const(float("nan")), Node.const(float("inf")))
        tokens = json.loads(json.dumps(tree_to_tokens(tree)))
        rebuilt = tree_from_tokens(tokens)
        assert repr(rebuilt.children[0].constant) == "nan"
        assert rebuilt.children[1].constant == float("inf")

    @pytest.mark.parametrize(
        "tokens",
        [
            [],
            [["f", "mul"]],  # stack underflow
            [["v", 0], ["c", 1.0]],  # two roots
            [["c", 1.0], ["c", 2.0], ["f", "bogus"]],  # unknown function
            [["x", 0]],  # unknown kind
        ],
    )
    def test_malformed_tokens_raise(self, tokens):
        with pytest.raises(ValueError):
            tree_from_tokens(tokens)


class TestPicklability:
    """Everything a formula task carries must survive a process boundary."""

    def test_function_pickles_to_same_object(self):
        function = FUNCTION_SET["div"]
        assert pickle.loads(pickle.dumps(function)) is function

    def test_tree_pickle_round_trip(self):
        tree = random_tree(random.Random(3), 2, DEFAULT_FUNCTION_NAMES, max_depth=4)
        rebuilt = pickle.loads(pickle.dumps(tree))
        assert rebuilt.to_infix() == tree.to_infix()

    def test_scaled_tree_formula_round_trips(self):
        tree = Node.call("mul", Node.var(0), Node.const(0.25))
        formula = ScaledTreeFormula(tree, (0.1,), 10.0)
        for clone in (
            pickle.loads(pickle.dumps(formula)),
            ScaledTreeFormula.from_payload(
                json.loads(json.dumps(formula.to_payload()))
            ),
        ):
            assert clone.describe() == formula.describe()
            assert repr(clone([12.0])) == repr(formula([12.0]))


# ------------------------------------------------------------------- backends


def car_capture(key="C", read_duration_s=8.0):
    from repro.cps import DataCollector
    from repro.tools import make_tool_for_car
    from repro.vehicle import build_car

    car = build_car(key)
    return DataCollector(
        make_tool_for_car(key, car), read_duration_s=read_duration_s
    ).collect()


def reverse_capture(capture, **kwargs):
    """(canonical report JSON, span names, reverser) for one traced run."""
    tracer = Tracer()
    reverser = DPReverser(ReverserConfig(gp_config=GP, trace=tracer, **kwargs))
    report = reverser.reverse_engineer(capture)
    reverser.last_report = report
    stages = [span.name for span in tracer.spans]
    return json.dumps(report.to_dict(), sort_keys=True), stages, reverser


@pytest.mark.slow
class TestBackendEquivalence:
    """serial == process, byte for byte."""

    def test_all_backends_byte_identical(self):
        capture = car_capture()
        serial, serial_stages, reverser = reverse_capture(capture)
        n_formulas = len(reverser.last_report.formula_esvs)
        assert n_formulas > 1
        parallel, stages, __ = reverse_capture(capture, gp_workers=4, gp_backend="process")
        assert parallel == serial, "process backend diverged from serial"
        # Worker tracers cannot cross the process boundary; their spans
        # ride back in the result objects, one gp_formula per formula ESV.
        assert stages.count("gp_formula") == n_formulas
        assert serial_stages.count("gp_formula") == n_formulas

    def test_explicit_serial_backend_ignores_workers(self):
        reverser = DPReverser(ReverserConfig(gp_workers=8, gp_backend="serial"))
        assert reverser._resolve_backend(n_tasks=10) == "serial"

    def test_auto_picks_process_only_when_parallel(self):
        reverser = DPReverser(ReverserConfig(gp_workers=4))
        assert reverser._resolve_backend(n_tasks=10) == "process"
        assert reverser._resolve_backend(n_tasks=1) == "serial"
        assert DPReverser(ReverserConfig())._resolve_backend(n_tasks=10) == "serial"

    def test_explicit_process_always_uses_the_pool(self):
        reverser = DPReverser(ReverserConfig(gp_backend="process"))
        assert reverser._resolve_backend(n_tasks=1) == "process"

    def test_unknown_backend_rejected(self):
        for backend in ("greenlet", "thread", "island"):
            with pytest.raises(ValueError):
                DPReverser(ReverserConfig(gp_backend=backend))

    def test_fleet_digest_identical_across_gp_backends(self):
        from repro.runtime import Scheduler, SchedulerConfig, fleet_job_specs

        overrides = (("generations", 8), ("population_size", 100))
        digests = {}
        for backend in ("serial", "process"):
            report = Scheduler(SchedulerConfig()).run(
                fleet_job_specs(
                    ["C"],
                    read_duration_s=8.0,
                    gp_overrides=overrides,
                    gp_workers=1 if backend == "serial" else 2,
                    gp_backend=backend,
                )
            )
            digests[backend] = report.results_digest()
        assert len(set(digests.values())) == 1, digests


class TestJobSpecFields:
    def test_backend_and_memo_excluded_from_job_id(self, tmp_path):
        from repro.runtime import JobSpec

        base = JobSpec(car_key="C")
        tuned = JobSpec(
            car_key="C",
            gp_workers=4,
            gp_backend="process",
            gp_memo_dir=str(tmp_path),
        )
        assert base.job_id == tuned.job_id

    def test_round_trip(self, tmp_path):
        from repro.runtime import JobSpec

        spec = JobSpec(car_key="C", gp_backend="process", gp_memo_dir=str(tmp_path))
        assert JobSpec.from_dict(spec.to_dict()) == spec

    def test_from_dict_defaults_for_old_checkpoints(self):
        from repro.runtime import JobSpec

        payload = JobSpec(car_key="C").to_dict()
        del payload["gp_backend"], payload["gp_memo_dir"]
        spec = JobSpec.from_dict(payload)
        assert spec.gp_backend == "auto" and spec.gp_memo_dir == ""


# ----------------------------------------------------------------------- memo


class TestFormulaMemo:
    def dataset(self):
        # raw * 0.5 with a NaN payload reading in the middle: NaN-valued
        # samples must flow through keying and storage without error.
        raws = [2, 4, 6, 8, 10, 12, 14, 16]
        values = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]
        observations, series = make_task_dataset(raws, values)
        noisy = series.samples + [UiSample(99.0, "nan", float("nan"))]
        return observations, UiSeries(series.label, noisy)

    def infer_config(self, identifier="uds:F40D"):
        from repro.core.reverser import _stable_seed
        from dataclasses import replace

        return replace(GP, seed=_stable_seed(identifier, GP.seed))

    def test_cold_then_warm_recalls_identical_result(self, tmp_path):
        observations, series = self.dataset()
        config = self.infer_config()
        memo = FormulaMemo(tmp_path)
        key = dataset_key(observations, series, config)

        hit, __ = memo.get(key)
        assert not hit
        inferred = infer_formula(observations, series, config)
        assert inferred is not None
        memo.put(key, inferred)
        assert len(memo) == 1

        warm = FormulaMemo(tmp_path)
        hit, recalled = warm.get(key)
        assert hit
        assert recalled.description == inferred.description
        assert repr(recalled.fitness) == repr(inferred.fitness)
        assert recalled.interpretation == inferred.interpretation
        assert repr(recalled.formula([6.0])) == repr(inferred.formula([6.0]))
        assert warm.stats()["hits"] == 1 and memo.stats()["misses"] == 1

    def test_negative_result_is_memoised(self, tmp_path):
        memo = FormulaMemo(tmp_path)
        memo.put("nothing", None)
        hit, recalled = memo.get("nothing")
        assert hit and recalled is None

    def test_corrupt_entry_is_a_miss_and_gets_repaired(self, tmp_path):
        memo = FormulaMemo(tmp_path)
        memo.put("k", None)
        path = memo._path("k")
        path.write_text("{ truncated")
        hit, __ = memo.get("k")
        assert not hit and memo.stats()["invalid"] == 1
        memo.put("k", None)
        hit, __ = memo.get("k")
        assert hit

    def test_version_mismatch_is_a_miss(self, tmp_path):
        memo = FormulaMemo(tmp_path)
        memo.put("k", None)
        entry = json.loads(memo._path("k").read_text())
        entry["format_version"] = MEMO_FORMAT_VERSION + 1
        memo._path("k").write_text(json.dumps(entry))
        hit, __ = memo.get("k")
        assert not hit

    def test_key_depends_on_dataset_and_config(self):
        observations, series = self.dataset()
        config = self.infer_config()
        key = dataset_key(observations, series, config)
        assert key == dataset_key(observations, series, config)
        assert key != dataset_key(observations[1:], series, config)
        assert key != dataset_key(observations, series, self.infer_config("uds:F40E"))


@pytest.mark.slow
class TestMemoEndToEnd:
    """Warm reruns skip GP and stay byte-identical, on every backend."""

    def test_warm_rerun_identical_and_all_hits(self, tmp_path):
        capture = car_capture()
        baseline, __, reverser = reverse_capture(capture)
        n_formulas = len(reverser.last_report.formula_esvs)

        memo_dir = str(tmp_path / "memo")
        cold_report, __, cold_reverser = reverse_capture(
            capture, gp_workers=2, gp_backend="process", gp_memo_dir=memo_dir
        )
        assert cold_report == baseline
        assert cold_reverser.memo_stats == {
            "hits": 0,
            "misses": n_formulas,
            "gp.misses": n_formulas,
        }

        for backend, workers in (("process", 2), ("serial", 1)):
            warm_report, stages, warm_reverser = reverse_capture(
                capture,
                gp_workers=workers,
                gp_backend=backend,
                gp_memo_dir=memo_dir,
            )
            assert warm_report == baseline, f"warm {backend} run diverged"
            assert warm_reverser.memo_stats == {
                "hits": n_formulas,
                "misses": 0,
                "gp.hits": n_formulas,
            }
            assert stages.count("gp_formula") == n_formulas


# ---------------------------------------------------------------- shared pool

#: The real task entry point, bound before any test monkeypatches it.
_run_formula_task = reverser_module._run_formula_task


def _run_recording_pid(task):
    """Pool task wrapper: run the real task, note which worker ran it."""
    outcome = _run_formula_task(task)
    outcome.worker_pid = os.getpid()
    return outcome


def _kill_self(task):
    """Stand-in task body: die the way a segfaulting worker does."""
    os.kill(os.getpid(), signal.SIGKILL)


@pytest.fixture(scope="module")
def context_c():
    return DPReverser(ReverserConfig(gp_config=GP)).analyze(car_capture())


def infer_json(context, **kwargs):
    report = DPReverser(ReverserConfig(gp_config=GP, **kwargs)).infer(context)
    return json.dumps(report.to_dict(), sort_keys=True)


class TestSharedPool:
    def test_pool_persists_across_calls(self):
        from repro.core.gp.pool import shared_pool

        assert shared_pool(2) is shared_pool(2)
        assert shared_pool(2) is not shared_pool(2, memo_dir="/tmp/other")

    def test_shutdown_forgets_cached_pools(self):
        from repro.core.gp.pool import shared_pool, shutdown_shared_pools

        first = shared_pool(2)
        shutdown_shared_pools()
        assert shared_pool(2) is not first

    def test_concurrent_callers_share_one_pool(self, tmp_path):
        """Service offload threads race to build the pool; one must win."""
        import sys
        import threading

        from repro.core.gp.pool import shared_pool

        memo_dir = str(tmp_path)
        barrier = threading.Barrier(8)
        pools = []

        def build():
            barrier.wait(timeout=10)
            pools.append(shared_pool(3, memo_dir))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=build) for __ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=10)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(pools) == 8 and all(pool is pools[0] for pool in pools)
        pools[0].shutdown()

    def test_pool_built_in_a_pool_worker_lets_the_worker_exit(self, tmp_path):
        """A fleet sweep's job worker may build its own GP pool: it must not
        reuse the pool it inherited from its parent, and its exit must shut
        its own pool down instead of waiting on it forever."""
        script = tmp_path / "nested_pools.py"
        script.write_text(
            "from concurrent.futures import ProcessPoolExecutor\n"
            "from repro.core.gp.pool import shared_pool\n"
            "\n"
            "def job(_):\n"
            "    shared_pool(2).warm()\n"
            "    return 'ok'\n"
            "\n"
            "if __name__ == '__main__':\n"
            "    shared_pool(2).warm()\n"
            "    with ProcessPoolExecutor(1) as outer:\n"
            "        print(outer.submit(job, 0).result())\n"
        )
        process = subprocess.Popen(
            [sys.executable, str(script)],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            start_new_session=True,
        )
        try:
            out, err = process.communicate(timeout=30)
        except subprocess.TimeoutExpired:
            os.killpg(process.pid, signal.SIGKILL)
            process.communicate()
            pytest.fail("the pool worker never exited")
        assert process.returncode == 0, err
        assert out.strip() == "ok"

    @pytest.mark.slow
    def test_infer_calls_reuse_the_same_workers(self, context_c, monkeypatch):
        from repro.core.gp.pool import shared_pool

        ran_on = []
        execute = DPReverser._execute_tasks

        def recording_execute(self, tasks):
            outcomes = execute(self, tasks)
            ran_on.append({outcome.worker_pid for outcome in outcomes})
            return outcomes

        serial = infer_json(context_c, gp_backend="serial")
        monkeypatch.setattr(reverser_module, "_run_formula_task", _run_recording_pid)
        monkeypatch.setattr(DPReverser, "_execute_tasks", recording_execute)
        pool = shared_pool(2)
        assert infer_json(context_c, gp_backend="process", gp_workers=2) == serial
        workers = set(pool._executor._processes)
        assert len(workers) == 2 and os.getpid() not in workers
        assert infer_json(context_c, gp_backend="process", gp_workers=2) == serial
        assert shared_pool(2) is pool and set(pool._executor._processes) == workers
        first, second = ran_on
        assert first and second and first | second <= workers

    @pytest.mark.slow
    def test_worker_crash_surfaces_then_pool_is_rebuilt(self, context_c, monkeypatch):
        from repro.core.gp.pool import shared_pool

        serial = infer_json(context_c, gp_backend="serial")
        doomed = shared_pool(2)
        monkeypatch.setattr(reverser_module, "_run_formula_task", _kill_self)
        with pytest.raises(BrokenProcessPool):
            infer_json(context_c, gp_backend="process", gp_workers=2)
        monkeypatch.undo()
        assert doomed.broken
        assert infer_json(context_c, gp_backend="process", gp_workers=2) == serial
        assert shared_pool(2) is not doomed and not shared_pool(2).broken


class TestCliBackendChoices:
    @pytest.mark.parametrize(
        "argv",
        [
            ["reverse", "capture", "--gp-backend", "island"],
            ["reverse", "capture", "--gp-backend", "thread"],
            ["reverse", "capture", "--gp-islands", "2"],
            ["fleet-run", "--gp-backend", "island"],
            ["serve", "--gp-backend", "thread"],
            ["reverse", "capture", "--gp-batch"],
            ["reverse", "capture", "--no-gp-batch"],
            ["fleet-run", "--gp-batch"],
            ["fleet-run", "--no-gp-batch"],
            ["serve", "--gp-batch"],
            ["serve", "--no-gp-batch"],
        ],
    )
    def test_removed_backends_rejected(self, argv, capsys):
        from repro.cli import build_parser

        with pytest.raises(SystemExit):
            build_parser().parse_args(argv)

    @pytest.mark.parametrize("flag", ["--gp-compiled", "--no-gp-compiled"])
    def test_removed_gp_compiled_flag_rejected(self, flag, capsys):
        from repro.cli import build_parser

        with pytest.raises(SystemExit):
            build_parser().parse_args(["reverse", "capture", flag])
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_kept_backends_parse(self):
        from repro.cli import build_parser

        for backend in ("auto", "serial", "process"):
            args = build_parser().parse_args(["serve", "--gp-backend", backend])
            assert args.gp_backend == backend
