"""Acceptance gate: the platform's exit criteria, one test per criterion.

Run with `pytest tests/test_acceptance.py -v` for one pass/fail line per
criterion; each test also prints a `[criterion N] PASS` line with measured
numbers where the criterion is quantitative.

Long pipeline shapes replay with compressed sleeps on the simulated
infrastructure (the barrier/overhead arithmetic uses the scaled expected
durations); wall-clock criteria (3) use real sleeps.
"""

from __future__ import annotations

import random
import time

from conftest import (
    FAST_SIM,
    FakeGatewayClient,
    drive,
    kill_director_at,
    listing1_connector,
    make_bundle,
    wait_status,
)
from expforge import Director, FileStore, MemoryStore, builtin_registry
from expforge.compiler import compile_experiment
from expforge.connectors.simulated import (
    FaultModel,
    SimNode,
    SimRuntime,
    SimulatedConnector,
)
from expforge.connectors.local import LocalConnector
from expforge.executor import RetryPolicy, run_executor, run_pipeline
from expforge.manifest import (
    load_bundled_example,
    parse_manifest,
    resolve_experiment,
)
from expforge.model import (
    Experiment,
    NodeDescriptor,
    NodePool,
    Outcome,
    Pipeline,
    Policies,
    Status,
    TaskSpec,
)
from expforge.server import PlatformServer

SHAPES = [(1, 1), (2, 10), (100, 1), (100, 10)]
SLEEP_S = 5.0
SCALE = 0.001  # desk-scale compression for the long shapes


def _mark(criterion: int, detail: str = "") -> None:
    print(f"\n[criterion {criterion}] PASS {detail}".rstrip())


def shape_pipeline(stages: int, tasks: int) -> Pipeline:
    pipeline = Pipeline(f"shape-{stages}x{tasks}")
    for _ in range(stages):
        pipeline = pipeline.then([
            TaskSpec("sleep", params={"seconds": SLEEP_S})
            for _ in range(tasks)])
    return pipeline


def run_shape(stages: int, tasks: int, seed: int, scale: float = SCALE):
    registry = builtin_registry()
    node = SimNode("sim-000", {}, seed=seed)
    runtime = SimRuntime(node, FaultModel(sleep_scale=scale))
    bundle = make_bundle(shape_pipeline(stages, tasks), registry)
    return run_pipeline(bundle, registry, runtime)


def listing1_platform(seed: int):
    connector = listing1_connector(seed=seed)
    director = Director(MemoryStore(), builtin_registry(),
                        {"sim": connector})
    manifest = parse_manifest(load_bundled_example())
    experiment = resolve_experiment(manifest, director.query_nodes)
    return director, connector, experiment


# ---------------------------------------------------------------------------
# 1. end-to-end lifecycle
# ---------------------------------------------------------------------------

def test_c01_listing1_reaches_finished_with_complete_results():
    director, _, experiment = listing1_platform(seed=7)
    started = time.monotonic()
    eid = director.submit(experiment)
    final = drive(director, eid, timeout=55)
    wall = time.monotonic() - started
    try:
        assert final is Status.FINISHED
        assert wall < 60.0, f"lifecycle took {wall:.1f}s"
        record = director.record(eid)
        expected = {
            (node.node_id, task.name)
            for assignment in experiment.assignments
            for node in assignment.nodes
            for stage in assignment.pipeline.stages
            for task in stage.tasks}
        got = {(r["node_id"], r["task_name"]) for r in record.results}
        assert got == expected, "result set incomplete"
        assert all(r["outcome"] is not None for r in record.results)
    finally:
        director.close()
    _mark(1, f"(21 nodes, {len(expected)} results, {wall:.2f}s wall)")


# ---------------------------------------------------------------------------
# 2. stage barrier over the reference pipeline shapes
# ---------------------------------------------------------------------------

def test_c02_stage_barrier_zero_violations_over_20_seeded_runs():
    violations = 0
    runs = 0
    for seed in range(5):
        for stages, tasks in SHAPES:
            results = run_shape(stages, tasks, seed=seed)
            runs += 1
            by_stage: dict[int, list] = {}
            for result in results:
                assert result.outcome is Outcome.SUCCESS
                by_stage.setdefault(result.stage_index, []).append(result)
            for i in range(1, stages):
                start_i = min(r.started_mono for r in by_stage[i])
                finish_prev = max(r.finished_mono for r in by_stage[i - 1])
                if start_i < finish_prev:
                    violations += 1
    assert runs == 20
    assert violations == 0
    _mark(2, f"(20 runs over shapes {SHAPES}, violations={violations})")


# ---------------------------------------------------------------------------
# 3. intra-stage concurrency at full sleep duration
# ---------------------------------------------------------------------------

def test_c03_ten_real_5s_sleeps_complete_under_6s():
    registry = builtin_registry()
    runtime = SimRuntime(SimNode("sim-000", {}, seed=0),
                         FaultModel(sleep_scale=1.0))
    bundle = make_bundle(shape_pipeline(1, 10), registry)
    started = time.monotonic()
    results = run_pipeline(bundle, registry, runtime)
    wall = time.monotonic() - started
    assert all(r.outcome is Outcome.SUCCESS for r in results)
    assert wall < 6.0, f"stage of 10 x sleep(5) took {wall:.2f}s"
    _mark(3, f"(10 x sleep(5) in {wall:.2f}s wall)")


# ---------------------------------------------------------------------------
# 4. executor overhead on the 100x10 shape
# ---------------------------------------------------------------------------

def test_c04_executor_overhead_bounds():
    results = run_shape(100, 10, seed=1)
    expected_task = SLEEP_S * SCALE
    task_overheads = [r.duration_s() - expected_task for r in results]
    by_stage: dict[int, list] = {}
    for result in results:
        by_stage.setdefault(result.stage_index, []).append(result)
    stage_overheads = [
        (max(r.finished_mono for r in stage_results)
         - min(r.started_mono for r in stage_results)) - expected_task
        for stage_results in by_stage.values()]
    per_task = sum(task_overheads) / len(task_overheads)
    per_stage = sum(stage_overheads) / len(stage_overheads)
    assert per_stage < 0.100, f"per-stage overhead {per_stage * 1e3:.1f} ms"
    assert per_task < 0.020, f"per-task overhead {per_task * 1e3:.2f} ms"
    _mark(4, f"(per-stage {per_stage * 1e3:.2f} ms vs 100 ms bound "
             f"[constrained-device reference: 1000 ms]; per-task "
             f"{per_task * 1e3:.3f} ms vs 20 ms bound [reference: 130 ms])")


# ---------------------------------------------------------------------------
# 5. compiler dedup vs brute force over 200 random experiments
# ---------------------------------------------------------------------------

def test_c05_dedup_agreement_on_200_random_experiments():
    registry = builtin_registry()
    rng = random.Random(20_26)
    agree = 0
    for index in range(200):
        pipelines = [
            Pipeline(f"p{i}").then([
                TaskSpec("shell",
                         params={"command": f"cmd-{rng.randint(0, 2)}"})
                for _ in range(rng.randint(1, 3))])
            for i in range(rng.randint(1, 4))]
        if rng.random() < 0.5 and len(pipelines) > 1:
            clone = pipelines[0].to_doc()
            clone["pipeline_id"] = pipelines[-1].pipeline_id
            pipelines[-1] = Pipeline.from_doc(clone)
        exp = Experiment(f"rand-{index}")
        counter = 0
        for pipeline in pipelines:
            nodes = []
            for _ in range(rng.randint(1, 4)):
                kind = rng.choice(["simulated", "linux-shell"])
                nodes.append(NodeDescriptor(
                    f"n-{index}-{counter}", kind, {}, "c"))
                counter += 1
            exp = exp.map(pipeline, nodes)
        plan = compile_experiment(exp, registry)
        brute = len({(a.pipeline.digest(), n.kind)
                     for a in exp.assignments for n in a.nodes})
        agree += int(len(plan.environment_specs) == brute)
    assert agree == 200, f"only {agree}/200 agreed with brute force"
    _mark(5, "(200/200 experiments agree with the brute-force pair count)")


# ---------------------------------------------------------------------------
# 6. coordination ordering across 20 seeded runs
# ---------------------------------------------------------------------------

def test_c06_post_wait_tasks_start_strictly_after_flag_set():
    checked = 0
    for seed in range(20):
        director, _, experiment = listing1_platform(seed=100 + seed)
        try:
            eid = director.submit(experiment)
            assert drive(director, eid, timeout=55) is Status.FINISHED
            record = director.record(eid)
            flag = record.flags["server_ready"]
            client_pipelines = {"probe", "browse"}
            node_pipeline = {
                node.node_id: assignment.pipeline.pipeline_id
                for assignment in experiment.assignments
                for node in assignment.nodes}
            for result in record.results:
                if node_pipeline[result["node_id"]] not in client_pipelines:
                    continue
                if result["stage_index"] == 0:
                    continue  # the wait task itself
                assert result["started_mono"] > flag["set_mono"], (
                    f"seed {seed}: {result['task_name']} on "
                    f"{result['node_id']} started before the flag was set")
                checked += 1
        finally:
            director.close()
    assert checked == 20 * 20  # 20 post-wait tasks per run
    _mark(6, f"({checked} post-wait starts, all strictly after set_flag)")


# ---------------------------------------------------------------------------
# 7. fault handling: prepare failures and silent nodes
# ---------------------------------------------------------------------------

def _fault_experiment(connector, strictness: str,
                      timeout_s: float = 30.0) -> Experiment:
    pool = connector.list_nodes()
    pipeline = Pipeline("p").then(TaskSpec("sleep", params={"seconds": 0.1}))
    return Experiment(
        f"fault-{strictness}",
        policies=Policies(deploy_strictness=strictness,
                          experiment_timeout_s=timeout_s),
    ).map(pipeline, list(pool))


def test_c07_prepare_faults_and_silent_node():
    fault = FaultModel(prepare_fail_prob=0.2, sleep_scale=0.01)
    outcomes = {}
    for strictness in ("all-or-nothing", "best-effort"):
        connector = SimulatedConnector("sim", node_count=20, seed=0,
                                       fault=fault)
        director = Director(MemoryStore(), builtin_registry(),
                            {"sim": connector})
        try:
            eid = director.submit(_fault_experiment(connector, strictness))
            director.deploy(eid)
            status = wait_status(director, eid,
                                 {Status.READY, Status.FAILED})
            injected = sum(
                1 for node in connector.infra.nodes.values()
                for event in node.events if event.name == "fault-injected")
            record = director.record(eid)
            outcomes[strictness] = (status, injected,
                                    len(record.prepared_nodes()))
        finally:
            director.close()

    status, injected, prepared = outcomes["all-or-nothing"]
    assert injected >= 1, "seed 0 must inject at least one failure"
    assert status is Status.FAILED
    status, injected_be, prepared = outcomes["best-effort"]
    assert injected_be == injected  # same seed, same draws
    assert status is Status.READY
    assert prepared == 20 - injected

    silent = SimulatedConnector(
        "sim", node_count=3,
        fault=FaultModel(silent_nodes=frozenset({"sim-002"}),
                         sleep_scale=0.01))
    director = Director(MemoryStore(), builtin_registry(), {"sim": silent})
    try:
        eid = director.submit(_fault_experiment(silent, "all-or-nothing",
                                                timeout_s=1.5))
        assert drive(director, eid) is Status.FINISHED
        assert director.record(eid).exec_state["sim-002"]["state"] \
            == "timed-out"
    finally:
        director.close()
    _mark(7, f"(p=0.2 injected {injected}/20 prepare failures; "
             f"best-effort prepared {20 - injected}; silent node timed out, "
             f"experiment FINISHED)")


# ---------------------------------------------------------------------------
# 8. crash recovery at every non-terminal status
# ---------------------------------------------------------------------------

def test_c08_kill_and_recover_every_non_terminal_status(tmp_path):
    recovered = []
    for target in (Status.SUBMITTED, Status.COMPILING, Status.DEPLOYING,
                   Status.READY, Status.RUNNING):
        connector = SimulatedConnector("sim", node_count=4, fault=FAST_SIM)
        raw_store = FileStore(tmp_path / f"records-{target.value.lower()}")
        pool = connector.list_nodes()
        experiment = Experiment(
            f"kill-{target.value.lower()}",
            policies=Policies(experiment_timeout_s=30),
        ).map(Pipeline("p").then(TaskSpec("sleep",
                                          params={"seconds": 0.2})),
              list(pool))
        eid = kill_director_at(target, experiment, {"sim": connector},
                               raw_store)
        assert raw_store.load(eid).status is target, \
            f"kill at {target.value} persisted a different status"

        reborn = Director(raw_store, builtin_registry(), {"sim": connector},
                          recover=False)
        try:
            assert reborn.record(eid).status is target
            reborn.recover()
            if target is Status.SUBMITTED:
                reborn.deploy(eid)
            if target in (Status.SUBMITTED, Status.COMPILING,
                          Status.DEPLOYING):
                wait_status(reborn, eid, {Status.READY})
            if target is not Status.RUNNING:
                reborn.execute(eid)
            assert wait_status(reborn, eid,
                               {Status.FINISHED, Status.FAILED},
                               timeout=30) is Status.FINISHED
            starts = connector.infra.task_start_events()
            assert len(starts) == len(set(starts)), \
                f"task executed twice after kill at {target.value}"
            recovered.append(target.value)
        finally:
            reborn.close()
    assert len(recovered) == 5
    _mark(8, f"(killed+recovered at {recovered}, no duplicate execution)")


# ---------------------------------------------------------------------------
# 9. early-stop semantics
# ---------------------------------------------------------------------------

def test_c09_early_stop_skips_exactly_later_stages():
    registry = builtin_registry()
    for total_stages, failing_stage, tasks_per_stage in ((5, 2, 2), (4, 1, 3),
                                                         (3, 3, 1)):
        pipeline = Pipeline("p", early_stop=True)
        for index in range(1, total_stages + 1):
            command = "false" if index == failing_stage else "true"
            pipeline = pipeline.then([
                TaskSpec("shell", params={"command": command})
                for _ in range(tasks_per_stage)])
        runtime = SimRuntime(SimNode("sim-000", {}, seed=0), FaultModel())
        results = run_pipeline(make_bundle(pipeline, registry), registry,
                               runtime)
        skipped = [r for r in results if r.outcome is Outcome.SKIPPED]
        expected = (total_stages - failing_stage) * tasks_per_stage
        assert len(skipped) == expected, (
            f"{total_stages} stages, failure in {failing_stage}: expected "
            f"{expected} skips, saw {len(skipped)}")
        assert all(r.stage_index >= failing_stage for r in skipped)
        assert len(results) == pipeline.task_count()
    _mark(9, "(skipped == tasks in stages past the failure, 3 shapes)")


# ---------------------------------------------------------------------------
# 10. report idempotence and spooling
# ---------------------------------------------------------------------------

def test_c10_report_idempotence_and_spool(tmp_path):
    # idempotence against the real gateway
    connector = SimulatedConnector("sim", node_count=2, fault=FAST_SIM)
    director = Director(MemoryStore(), builtin_registry(),
                        {"sim": connector})
    try:
        pool = connector.list_nodes()
        eid = director.submit(Experiment(
            "idem", policies=Policies(experiment_timeout_s=30)).map(
            Pipeline("p").then(TaskSpec("sleep", params={"seconds": 0.1})),
            list(pool)))
        assert drive(director, eid) is Status.FINISHED
        record = director.record(eid)
        replay = {"experiment_id": eid, "node_id": "sim-000",
                  "results": [dict(r) for r in record.results
                              if r["node_id"] == "sim-000"]}
        before = record.to_doc()
        for _ in range(5):
            assert director.gateway.ingest_report(replay) == "duplicate"
        after = director.record(eid).to_doc()
        assert after["results"] == before["results"]
        assert after["reports"] == before["reports"]
    finally:
        director.close()

    # spooling with the gateway down, then redelivery on relaunch
    registry = builtin_registry()
    runtime = SimRuntime(SimNode("sim-000", {}, seed=0),
                         FaultModel(sleep_scale=0.01))
    bundle = make_bundle(
        Pipeline("p").then(TaskSpec("sleep", params={"seconds": 0.1})),
        registry, retry=RetryPolicy(0.001, 2.0, 3))
    spool_dir = tmp_path / "spool"
    down = FakeGatewayClient(fail_deliveries=10**6)
    assert run_executor(bundle, registry, runtime, down, spool_dir,
                        sleeper=lambda _: None) == 0
    spooled = list(spool_dir.glob("*.report.json"))
    assert len(spooled) == 1, "no spool file with the gateway down"

    up = FakeGatewayClient()
    assert run_executor(bundle, registry, runtime, up, spool_dir) == 0
    assert list(spool_dir.glob("*.report.json")) == []
    assert len(up.delivered) == 1
    _mark(10, "(duplicates left state unchanged; spool file created and "
              "redelivered on relaunch)")


# ---------------------------------------------------------------------------
# 11. filter/take against a brute-force oracle
# ---------------------------------------------------------------------------

def test_c11_filter_take_matches_linear_scan_on_1000_triples():
    rng = random.Random(1_000)
    keys = ["location", "room", "arch"]
    values = ["azure", "campus", "aws", "lab-1", "arm", "x86"]
    for trial in range(1000):
        nodes = tuple(
            NodeDescriptor(
                f"n-{trial}-{i}", "simulated",
                {k: rng.choice(values) for k in rng.sample(
                    keys, rng.randint(0, 3))}, "sim")
            for i in range(rng.randint(0, 30)))
        pool = NodePool(nodes)
        key = rng.choice(keys)
        value = rng.choice(values)
        n = rng.randint(0, 35)

        oracle = [node for node in nodes
                  if node.attributes.get(key) == value][:n]
        assert pool.filter(key, value).take(n) == oracle, \
            f"triple {trial} diverged from the linear-scan oracle"
    _mark(11, "(1000/1000 random (pool, predicate, n) triples match)")


# ---------------------------------------------------------------------------
# 12. connector substitutability
# ---------------------------------------------------------------------------

def _single_node_suite(connector_name: str, connector) -> dict:
    """The single-node end-to-end suite, identical for every connector."""
    director = Director(MemoryStore(), builtin_registry(),
                        {connector_name: connector})
    platform = PlatformServer(director).start()
    try:
        pool = connector.list_nodes()
        assert len(pool) >= 1
        pipeline = (Pipeline("single")
                    .then(TaskSpec("shell", name="greet",
                                   params={"command": "echo hello"}))
                    .then(TaskSpec("sleep", name="settle",
                                   params={"seconds": 0.2}))
                    .then(TaskSpec("set-flag", name="announce",
                                   params={"key": "done"}))
                    .then(TaskSpec("wait-flag", name="confirm",
                                   params={"key": "done", "timeout_s": 10})))
        experiment = Experiment(
            "substitutability",
            policies=Policies(experiment_timeout_s=60),
        ).map(pipeline, pool.take(1, strict=True))
        eid = director.submit(experiment)
        final = drive(director, eid, timeout=55)
        record = director.record(eid)
        results = sorted(record.results, key=lambda r: r["stage_index"])
        return {
            "status": final.value,
            "outcomes": [(r["task_name"], r["outcome"]) for r in results],
            "greeting": results[0]["payload"],
            "reported": len(record.reports),
        }
    finally:
        platform.stop()


def test_c12_simulated_and_local_connectors_interchangeable(tmp_path):
    summaries = {
        "sim": _single_node_suite(
            "sim", SimulatedConnector("sim", node_count=1)),
        "local": _single_node_suite(
            "local", LocalConnector("local", workdir=tmp_path / "nodes")),
    }
    assert summaries["sim"] == summaries["local"], summaries
    assert summaries["sim"]["status"] == "FINISHED"
    assert summaries["sim"]["greeting"] == "hello\n"
    assert [o for _, o in summaries["sim"]["outcomes"]] == ["success"] * 4
    _mark(12, "(single-node suite identical under simulated and "
              "local-process connectors)")
