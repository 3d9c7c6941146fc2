"""Executor: task running, stage barriers, early stop, report delivery."""

from __future__ import annotations

import json
import threading
import time

import pytest

from conftest import FakeGatewayClient, make_bundle
from expforge.connectors.simulated import FaultModel, SimNode, SimRuntime
from expforge.executor import (
    CANCEL_GRACE_S,
    EXIT_OK,
    EXIT_STARTUP_ERROR,
    LocalRuntime,
    PipelineBundle,
    PipelineReport,
    RetryPolicy,
    TaskContext,
    deliver_report,
    redeliver_spooled,
    run_executor,
    run_pipeline,
    run_stage,
    run_task,
    spool_path,
    write_spool,
)
from expforge.model import NodeDescriptor, Outcome, Pipeline, TaskSpec
from expforge.registry import TaskImplementation


@pytest.fixture
def sim_runtime():
    return SimRuntime(SimNode("sim-000", {}, seed=0), FaultModel())


@pytest.fixture
def local_runtime(tmp_path):
    return LocalRuntime(tmp_path / "scratch")


def make_ctx(runtime, gateway=None, **kwargs) -> TaskContext:
    return TaskContext(
        experiment_id="exp",
        node=NodeDescriptor("sim-000", runtime.kind),
        runtime=runtime,
        gateway=gateway,
        **kwargs)


def one_task(task: TaskSpec, runtime, registry, gateway=None):
    kind = runtime.kind
    named = Pipeline("p").then(task).stages[0].tasks[0]
    impl_id = registry.resolve(named.task_type, kind)
    return run_task(named, registry, impl_id, make_ctx(runtime, gateway))


# ---------------------------------------------------------------------------
# run_task
# ---------------------------------------------------------------------------

class TestRunTask:
    def test_sleep_zero_fast_success(self, registry, sim_runtime):
        result = one_task(TaskSpec("sleep", params={"seconds": 0}),
                          sim_runtime, registry)
        assert result.outcome is Outcome.SUCCESS
        assert result.duration_s() < 0.5

    def test_shell_echo_payload(self, registry, local_runtime):
        result = one_task(TaskSpec("shell", params={"command": "echo hi"}),
                          local_runtime, registry)
        assert result.outcome is Outcome.SUCCESS
        assert result.payload == "hi\n"

    def test_shell_exit_code_in_error(self, registry, local_runtime):
        result = one_task(TaskSpec("shell", params={"command": "exit 3"}),
                          local_runtime, registry)
        assert result.outcome is Outcome.FAILURE
        assert "3" in result.error_text

    def test_sleep_timeout(self, registry, sim_runtime):
        result = one_task(
            TaskSpec("sleep", params={"seconds": 1}, timeout_s=0.2),
            sim_runtime, registry)
        assert result.outcome is Outcome.TIMEOUT
        assert result.duration_s() < 1.0

    def test_missing_implementation_is_failure(self, registry, sim_runtime):
        task = Pipeline("p").then(TaskSpec("sleep", params={"seconds": 0}))
        result = run_task(task.stages[0].tasks[0], registry, None,
                          make_ctx(sim_runtime))
        assert result.outcome is Outcome.FAILURE
        assert "no implementation" in result.error_text

    def test_timestamps_monotone(self, registry, sim_runtime):
        result = one_task(TaskSpec("sleep", params={"seconds": 0.05}),
                          sim_runtime, registry)
        assert result.finished_mono >= result.started_mono
        assert result.finished_mono - result.started_mono >= 0.0


# ---------------------------------------------------------------------------
# run_stage
# ---------------------------------------------------------------------------

class TestRunStage:
    def test_concurrent_not_serial(self, registry, sim_runtime):
        pipeline = Pipeline("p").then(
            [TaskSpec("sleep", params={"seconds": 0.3})
             for _ in range(10)])
        bundle = make_bundle(pipeline, registry)
        started = time.monotonic()
        results = run_stage(pipeline.stages[0], 0, bundle, registry,
                            make_ctx(sim_runtime))
        wall = time.monotonic() - started
        assert all(r.outcome is Outcome.SUCCESS for r in results)
        assert wall < 0.9, f"stage of 10 x 0.3s sleeps took {wall:.2f}s"

    def test_single_task_stage_equivalent_to_run_task(self, registry,
                                                      sim_runtime):
        pipeline = Pipeline("p").then(TaskSpec("sleep",
                                               params={"seconds": 0}))
        bundle = make_bundle(pipeline, registry)
        results = run_stage(pipeline.stages[0], 0, bundle, registry,
                            make_ctx(sim_runtime))
        assert len(results) == 1
        assert results[0].outcome is Outcome.SUCCESS

    def test_hanging_task_beside_fast_task(self, registry, sim_runtime):
        pipeline = Pipeline("p").then([
            TaskSpec("sleep", name="hang", params={"seconds": 30},
                     timeout_s=0.3),
            TaskSpec("sleep", name="fast", params={"seconds": 0}),
        ])
        bundle = make_bundle(pipeline, registry)
        results = {r.task_name: r for r in run_stage(
            pipeline.stages[0], 0, bundle, registry, make_ctx(sim_runtime))}
        assert results["hang"].outcome is Outcome.TIMEOUT
        assert results["fast"].outcome is Outcome.SUCCESS


# ---------------------------------------------------------------------------
# run_pipeline
# ---------------------------------------------------------------------------

class TestRunPipeline:
    def test_two_stages_ordered_success(self, registry, sim_runtime):
        pipeline = (Pipeline("p")
                    .then(TaskSpec("sleep", params={"seconds": 0.05}))
                    .then(TaskSpec("sleep", params={"seconds": 0.05})))
        results = run_pipeline(make_bundle(pipeline, registry), registry,
                               sim_runtime)
        assert [r.outcome for r in results] == [Outcome.SUCCESS] * 2
        assert results[0].stage_index == 0
        assert results[1].stage_index == 1
        assert results[1].started_mono >= results[0].finished_mono

    def test_early_stop_skips_later_stages(self, registry, sim_runtime):
        pipeline = Pipeline("p", early_stop=True)
        pipeline = pipeline.then(TaskSpec("shell", params={"command": "true"}))
        pipeline = pipeline.then(TaskSpec("shell", params={"command": "false"}))
        pipeline = pipeline.then([TaskSpec("sleep", params={"seconds": 0}),
                                  TaskSpec("sleep", params={"seconds": 0})])
        pipeline = pipeline.then(TaskSpec("sleep", params={"seconds": 0}))
        results = run_pipeline(make_bundle(pipeline, registry), registry,
                               sim_runtime)
        outcomes = [r.outcome for r in results]
        assert outcomes == [Outcome.SUCCESS, Outcome.FAILURE,
                            Outcome.SKIPPED, Outcome.SKIPPED, Outcome.SKIPPED]

    def test_no_early_stop_continues(self, registry, sim_runtime):
        pipeline = (Pipeline("p")
                    .then(TaskSpec("shell", params={"command": "false"}))
                    .then(TaskSpec("sleep", params={"seconds": 0})))
        results = run_pipeline(make_bundle(pipeline, registry), registry,
                               sim_runtime)
        assert [r.outcome for r in results] == [Outcome.FAILURE,
                                                Outcome.SUCCESS]

    def test_result_completeness(self, registry, sim_runtime):
        pipeline = Pipeline("p", early_stop=True)
        for i in range(5):
            pipeline = pipeline.then(
                [TaskSpec("shell",
                          params={"command": "false" if i == 1 else "true"})
                 for _ in range(3)])
        results = run_pipeline(make_bundle(pipeline, registry), registry,
                               sim_runtime)
        assert len(results) == pipeline.task_count()

    def test_stage_barrier_on_trace(self, registry, sim_runtime):
        pipeline = Pipeline("p")
        for _ in range(6):
            pipeline = pipeline.then(
                [TaskSpec("sleep", params={"seconds": 0.02})
                 for _ in range(4)])
        results = run_pipeline(make_bundle(pipeline, registry), registry,
                               sim_runtime)
        by_stage: dict[int, list] = {}
        for r in results:
            by_stage.setdefault(r.stage_index, []).append(r)
        for i in range(1, 6):
            assert min(r.started_mono for r in by_stage[i]) >= \
                max(r.finished_mono for r in by_stage[i - 1])


# ---------------------------------------------------------------------------
# report delivery and spooling
# ---------------------------------------------------------------------------

def small_report(experiment_id="exp", node_id="sim-000") -> dict:
    return PipelineReport(experiment_id=experiment_id, node_id=node_id,
                          results=(), started_wall=1.0, finished_wall=2.0,
                          started_mono=1.0, finished_mono=2.0).to_doc()


class TestReportDelivery:
    def test_delivered_first_attempt(self):
        gateway = FakeGatewayClient()
        assert deliver_report(small_report(), gateway,
                              RetryPolicy(0.01, 2, 5)) == "delivered"
        assert gateway.attempts == 1

    def test_down_twice_then_up(self):
        gateway = FakeGatewayClient(fail_deliveries=2)
        sleeps: list[float] = []
        outcome = deliver_report(small_report(), gateway,
                                 RetryPolicy(0.01, 2.0, 5),
                                 sleeper=sleeps.append)
        assert outcome == "delivered"
        assert gateway.attempts == 3
        assert sleeps == [0.01, 0.02]  # exponential backoff

    def test_exhaustion_reports_undelivered(self):
        gateway = FakeGatewayClient(fail_deliveries=99)
        outcome = deliver_report(small_report(), gateway,
                                 RetryPolicy(0.001, 2.0, 5),
                                 sleeper=lambda _: None)
        assert outcome == "undelivered"
        assert gateway.attempts == 5

    def test_spool_then_redeliver(self, tmp_path):
        spool_dir = tmp_path / "spool"
        write_spool(spool_dir, small_report())
        assert spool_path(spool_dir, "exp", "sim-000").exists()
        gateway = FakeGatewayClient()
        assert redeliver_spooled(spool_dir, gateway) == 1
        assert not spool_path(spool_dir, "exp", "sim-000").exists()
        assert gateway.delivered[0]["experiment_id"] == "exp"

    def test_redeliver_keeps_file_while_down(self, tmp_path):
        spool_dir = tmp_path / "spool"
        write_spool(spool_dir, small_report())
        gateway = FakeGatewayClient(fail_deliveries=99)
        assert redeliver_spooled(spool_dir, gateway) == 0
        assert spool_path(spool_dir, "exp", "sim-000").exists()


class TestRunExecutor:
    def pipeline(self) -> Pipeline:
        return (Pipeline("p")
                .then(TaskSpec("sleep", params={"seconds": 0.02}))
                .then(TaskSpec("sleep", params={"seconds": 0.02})))

    def test_delivers_and_clears_spool(self, registry, sim_runtime, tmp_path):
        bundle = make_bundle(self.pipeline(), registry)
        gateway = FakeGatewayClient()
        code = run_executor(bundle, registry, sim_runtime, gateway,
                            tmp_path / "spool")
        assert code == EXIT_OK
        assert len(gateway.delivered) == 1
        assert len(gateway.delivered[0]["results"]) == 2
        assert list((tmp_path / "spool").glob("*.report.json")) == []

    def test_gateway_forever_down_spools_then_relaunch_delivers(
            self, registry, sim_runtime, tmp_path):
        bundle = make_bundle(self.pipeline(), registry,
                             retry=RetryPolicy(0.001, 2.0, 3))
        down = FakeGatewayClient(fail_deliveries=10**6)
        code = run_executor(bundle, registry, sim_runtime, down,
                            tmp_path / "spool", sleeper=lambda _: None)
        assert code == EXIT_OK
        spooled = list((tmp_path / "spool").glob("*.report.json"))
        assert len(spooled) == 1

        up = FakeGatewayClient()
        code = run_executor(bundle, registry, sim_runtime, up,
                            tmp_path / "spool")
        assert code == EXIT_OK
        # spool replay + this run's own report, same (exp, node) key
        assert len(up.delivered) == 1
        assert list((tmp_path / "spool").glob("*.report.json")) == []

    def test_digest_mismatch_is_startup_error(self, registry, sim_runtime,
                                              tmp_path):
        bundle = make_bundle(self.pipeline(), registry)
        tampered = PipelineBundle.from_doc(
            bundle.to_doc() | {"pipeline_digest": "0" * 64})
        gateway = FakeGatewayClient()
        code = run_executor(tampered, registry, sim_runtime, gateway,
                            tmp_path / "spool")
        assert code == EXIT_STARTUP_ERROR
        assert gateway.delivered == []

    def test_stop_event_skips_and_suppresses_report(self, registry,
                                                    sim_runtime, tmp_path):
        stop = threading.Event()
        stop.set()
        bundle = make_bundle(self.pipeline(), registry)
        gateway = FakeGatewayClient()
        code = run_executor(bundle, registry, sim_runtime, gateway,
                            tmp_path / "spool", stop=stop)
        assert code != EXIT_OK
        assert gateway.delivered == []


def test_bundle_doc_roundtrip(registry):
    pipeline = (Pipeline("p", early_stop=True)
                .then(TaskSpec("sleep", params={"seconds": 1})))
    bundle = make_bundle(pipeline, registry)
    rebuilt = PipelineBundle.from_doc(json.loads(json.dumps(bundle.to_doc())))
    assert rebuilt == bundle
    assert rebuilt.digest_matches()


# ---------------------------------------------------------------------------
# threading contract: one thread per task, deadlines before graces
# ---------------------------------------------------------------------------

class _IgnoresCancel(TaskImplementation):
    """Notes when its cancel fires, then blocks until the test releases it."""

    task_type = "ignores-cancel"
    kind = "simulated"

    def __init__(self):
        self.release = threading.Event()
        self.cancelled_at: dict[str, float] = {}

    def run(self, params, ctx):
        if ctx.cancel.wait(5.0):
            self.cancelled_at[ctx.task_name] = time.monotonic()
        self.release.wait(5.0)


@pytest.fixture
def ignores_cancel(registry):
    impl = _IgnoresCancel()
    registry.register(impl)
    yield impl
    impl.release.set()


def test_run_stage_starts_one_thread_per_task(registry, sim_runtime,
                                              monkeypatch):
    pipeline = Pipeline("p").then(
        [TaskSpec("sleep", params={"seconds": 0}) for _ in range(5)])
    bundle = make_bundle(pipeline, registry)
    # threads started by this thread or, transitively, by threads it started
    ours = {threading.current_thread()}
    real_start = threading.Thread.start

    def start(thread, *args, **kwargs):
        if threading.current_thread() in ours:
            ours.add(thread)
        return real_start(thread, *args, **kwargs)

    monkeypatch.setattr(threading.Thread, "start", start)
    results = run_stage(pipeline.stages[0], 0, bundle, registry,
                        make_ctx(sim_runtime))
    assert [r.outcome for r in results] == [Outcome.SUCCESS] * 5
    assert len(ours) - 1 == 5


@pytest.mark.parametrize("order", [("long", "short"), ("short", "long")])
def test_each_cancel_fires_at_its_own_deadline(registry, sim_runtime,
                                               ignores_cancel, order):
    timeouts = {"short": 0.2, "long": 0.4}
    pipeline = Pipeline("p").then([
        TaskSpec("ignores-cancel", name=name, timeout_s=timeouts[name])
        for name in order])
    bundle = make_bundle(pipeline, registry)
    started = time.monotonic()
    results = run_stage(pipeline.stages[0], 0, bundle, registry,
                        make_ctx(sim_runtime))
    wall = time.monotonic() - started
    assert [r.task_name for r in results] == list(order)
    for result in results:
        assert result.outcome is Outcome.TIMEOUT
        deadline = result.started_mono + timeouts[result.task_name]
        fired = ignores_cancel.cancelled_at[result.task_name]
        assert deadline <= fired < deadline + 0.15, (
            f"{result.task_name}: cancel {fired - deadline:+.3f}s "
            f"from its deadline")
    assert wall < 0.4 + CANCEL_GRACE_S + 0.3


def test_spool_names_keep_distinct_ids_apart(tmp_path):
    pairs = [("a/b", "n"), ("a_b", "n"), ("a-b", "c"), ("a", "b-c")]
    paths = {spool_path(tmp_path, eid, nid) for eid, nid in pairs}
    assert len(paths) == len(pairs)
    assert all(path.parent == tmp_path for path in paths)
    assert spool_path(tmp_path, "exp", "sim-000").name == \
        "exp+sim-000.report.json"
    for eid, nid in pairs:
        write_spool(tmp_path, small_report(eid, nid))
    assert len(list(tmp_path.glob("*.report.json"))) == len(pairs)
