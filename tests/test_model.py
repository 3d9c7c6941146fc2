"""Core model: pipelines, pools, experiments, validation, transitions."""

from __future__ import annotations

import json
import math
import random
import time
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from expforge.errors import (
    DuplicateTaskName,
    EmptyNodeList,
    EmptyStage,
    InsufficientNodes,
    NodeAlreadyAssigned,
)
import expforge.model as model_module
from expforge.model import (
    EMPTY_ENVIRONMENT,
    BinaryRequirement,
    EnvironmentRequirement,
    Experiment,
    NodeDescriptor,
    NodePool,
    Outcome,
    Pipeline,
    Policies,
    Stage,
    Status,
    TaskResult,
    TaskSpec,
    VALID_TRANSITIONS,
    canonical_json,
    is_valid_transition,
    validate_experiment,
)
from expforge.tasks import builtin_registry


def sim_node(i: int, **attrs) -> NodeDescriptor:
    return NodeDescriptor(node_id=f"n-{i:03d}", kind="simulated",
                          attributes=attrs, connector_ref="sim")


def pool_of(n: int, **attrs) -> NodePool:
    return NodePool(tuple(sim_node(i, **attrs) for i in range(n)))


# ---------------------------------------------------------------------------
# Pipeline.then
# ---------------------------------------------------------------------------

class TestPipelineThen:
    def test_single_append(self):
        pipeline = Pipeline("p").then(TaskSpec("sleep", params={"seconds": 5}))
        assert len(pipeline.stages) == 1
        assert len(pipeline.stages[0].tasks) == 1
        assert pipeline.stages[0].tasks[0].task_type == "sleep"

    def test_wait_then_work_ordering(self):
        # Client pipelines gate their traffic behind a readiness flag.
        pipeline = (Pipeline("p3")
                    .then(TaskSpec("wait-flag", params={"key": "ready"}))
                    .then(TaskSpec("shell", params={"command": "browse"})))
        assert [s.tasks[0].task_type for s in pipeline.stages] == \
            ["wait-flag", "shell"]

    def test_hundred_stages_digest_stable(self):
        def build() -> Pipeline:
            pipeline = Pipeline("long")
            for _ in range(100):
                pipeline = pipeline.then(
                    TaskSpec("sleep", params={"seconds": 1}))
            return pipeline

        first, second = build(), build()
        assert len(first.stages) == 100
        assert first.digest() == second.digest()

    def test_composition_is_pure(self):
        base = Pipeline("p").then(TaskSpec("sleep", params={"seconds": 1}))
        snapshot = base.to_doc()
        base.then(TaskSpec("shell", params={"command": "true"}))
        assert base.to_doc() == snapshot

    def test_empty_stage_rejected(self):
        with pytest.raises(EmptyStage):
            Pipeline("p").then([])

    def test_duplicate_name_rejected(self):
        pipeline = Pipeline("p").then(TaskSpec("sleep", name="a",
                                               params={"seconds": 1}))
        with pytest.raises(DuplicateTaskName):
            pipeline.then(TaskSpec("shell", name="a",
                                   params={"command": "true"}))

    def test_auto_names_get_ordinals(self):
        pipeline = (Pipeline("p")
                    .then(TaskSpec("sleep", params={"seconds": 1}))
                    .then([TaskSpec("sleep", params={"seconds": 1}),
                           TaskSpec("sleep", params={"seconds": 1})]))
        assert pipeline.task_names() == ["sleep", "sleep-2", "sleep-3"]

    def test_five_thousand_tasks_build_in_linear_time(self):
        started = time.perf_counter()
        pipeline = Pipeline("p")
        for _ in range(500):
            pipeline = pipeline.then(
                [TaskSpec("sleep", params={"seconds": 0}) for _ in range(10)])
        elapsed = time.perf_counter() - started
        assert pipeline.task_names() == \
            ["sleep"] + [f"sleep-{i}" for i in range(2, 5001)]
        assert elapsed < 1.0

    def test_doc_roundtrip(self):
        pipeline = (Pipeline("p", early_stop=True)
                    .then(TaskSpec("sleep", params={"seconds": 2.5},
                                   timeout_s=7.0))
                    .then([TaskSpec("shell", params={"command": "echo hi"}),
                           TaskSpec("set-flag", params={"key": "k"})]))
        assert Pipeline.from_doc(pipeline.to_doc()) == pipeline

    def test_empty_environments_decode_to_the_shared_one(self):
        pipeline = (Pipeline("p")
                    .then(TaskSpec("sleep", params={"seconds": 1}))
                    .then(TaskSpec("shell", params={"command": "true"},
                                   environment=EnvironmentRequirement(
                                       setup_commands=("apt-get install x",),
                                       binaries=(BinaryRequirement("x"),)))))
        decoded = Pipeline.from_doc(pipeline.to_doc())
        assert decoded == pipeline
        assert decoded.digest() == pipeline.digest()
        assert decoded.stages[0].tasks[0].environment is EMPTY_ENVIRONMENT
        assert decoded.stages[1].tasks[0].environment \
            == pipeline.stages[1].tasks[0].environment

    def test_digest_is_computed_once_per_instance(self, monkeypatch):
        pipeline = Pipeline("p").then(TaskSpec("sleep", params={"seconds": 1}))
        calls = []
        digest_doc = model_module.digest_doc
        monkeypatch.setattr(model_module, "digest_doc",
                            lambda doc: calls.append(doc) or digest_doc(doc))
        assert pipeline.digest() == pipeline.digest() == digest_doc(
            pipeline.to_doc())
        assert len(calls) == 1
        assert Pipeline.from_doc(pipeline.to_doc()).digest() \
            == pipeline.digest()
        assert len(calls) == 2

    def test_digest_normalizes_newlines(self):
        unix = Pipeline("p").then(
            TaskSpec("shell", params={"command": "step one\nstep two"}))
        dos = Pipeline("p").then(
            TaskSpec("shell", params={"command": "step one\r\nstep two"}))
        assert unix.digest() == dos.digest()


@pytest.mark.parametrize("seconds", [0, -1, math.inf, -math.inf, math.nan])
def test_timeouts_must_be_finite_and_positive(seconds):
    with pytest.raises(ValueError):
        TaskSpec("sleep", timeout_s=seconds)
    with pytest.raises(ValueError):
        Policies(experiment_timeout_s=seconds)


# ---------------------------------------------------------------------------
# NodePool.filter / NodePool.take
# ---------------------------------------------------------------------------

class TestNodePool:
    def test_filter_by_location(self):
        nodes = [sim_node(0, location="azure"),
                 sim_node(1, location="campus"),
                 sim_node(2, location="azure")]
        pool = NodePool(tuple(nodes)).filter("location", "azure")
        assert [n.node_id for n in pool] == ["n-000", "n-002"]

    def test_filter_empty_pool(self):
        assert len(NodePool().filter("location", "azure")) == 0

    def test_filter_matches_linear_scan_oracle(self):
        rng = random.Random(50)
        nodes = tuple(
            sim_node(i, location=rng.choice(["azure", "campus", "aws"]),
                     room=str(rng.randint(1, 3)))
            for i in range(50))
        pool = NodePool(nodes)
        for key, value in (("location", "azure"), ("room", "2"),
                           ("missing", "x")):
            oracle = [n for n in nodes if n.attributes.get(key) == value]
            assert list(pool.filter(key, value)) == oracle

    def test_take_head_of_list(self):
        pool = pool_of(100)
        taken = pool.take(40)
        assert taken == list(pool.nodes[:40])

    def test_take_zero(self):
        assert pool_of(5).take(0) == []

    def test_take_lenient_vs_strict(self):
        pool = pool_of(3)
        assert len(pool.take(5)) == 3
        with pytest.raises(InsufficientNodes):
            pool.take(5, strict=True)

    def test_duplicate_node_ids_rejected(self):
        with pytest.raises(ValueError):
            NodePool((sim_node(1), sim_node(1)))

    @given(st.integers(0, 30), st.integers(0, 40))
    def test_take_length_is_min(self, pool_size, n):
        assert len(pool_of(pool_size).take(n)) == min(n, pool_size)

    @given(st.lists(st.sampled_from(["a", "b", "c", None]), max_size=30),
           st.sampled_from(["a", "b", "c"]))
    def test_filter_idempotent_and_subset(self, labels, wanted):
        nodes = tuple(
            sim_node(i, **({"tag": label} if label else {}))
            for i, label in enumerate(labels))
        pool = NodePool(nodes)
        once = pool.filter("tag", wanted)
        twice = once.filter("tag", wanted)
        assert list(once) == list(twice)
        remaining = list(nodes)
        for node in once:  # subsequence: order preserved, no duplication
            assert node in remaining
            remaining = remaining[remaining.index(node) + 1:]


# ---------------------------------------------------------------------------
# Experiment.map
# ---------------------------------------------------------------------------

def two_stage_pipeline(pid: str) -> Pipeline:
    return (Pipeline(pid)
            .then(TaskSpec("wait-flag", params={"key": "ready"}))
            .then(TaskSpec("shell", params={"command": "work"})))


class TestExperimentMap:
    def test_three_assignments(self):
        pool = pool_of(21)
        exp = (Experiment("bruteforce")
               .map(two_stage_pipeline("p1"), pool.take(1))
               .map(two_stage_pipeline("p2"), list(pool)[1:11])
               .map(two_stage_pipeline("p3"), list(pool)[11:21]))
        assert len(exp.assignments) == 3
        assert len(exp.assigned_node_ids()) == 21

    def test_node_in_two_pipelines_rejected(self):
        node = sim_node(0)
        exp = Experiment("e").map(two_stage_pipeline("p1"), [node])
        with pytest.raises(NodeAlreadyAssigned):
            exp.map(two_stage_pipeline("p2"), [node])

    def test_twenty_disjoint_singletons(self):
        exp = Experiment("e")
        for i in range(20):
            exp = exp.map(two_stage_pipeline(f"p{i}"), [sim_node(i)])
        assert len(exp.assignments) == 20
        assert len(exp.assigned_node_ids()) == 20

    def test_empty_node_list_rejected(self):
        with pytest.raises(EmptyNodeList):
            Experiment("e").map(two_stage_pipeline("p"), [])

    def test_map_is_pure(self):
        exp = Experiment("e")
        exp.map(two_stage_pipeline("p"), [sim_node(0)])
        assert exp.assignments == ()

    def test_doc_roundtrip(self):
        exp = Experiment("e").map(two_stage_pipeline("p"),
                                  [sim_node(0), sim_node(1)])
        assert Experiment.from_doc(exp.to_doc()) == exp


# ---------------------------------------------------------------------------
# validate_experiment
# ---------------------------------------------------------------------------

class TestValidateExperiment:
    def test_listing_shaped_experiment_ok(self, registry):
        pool = pool_of(21)
        server = (Pipeline("serve")
                  .then(TaskSpec("shell", params={"command": "serve"}))
                  .then(TaskSpec("capture-start",
                                 params={"out_path": "t.pcap"}))
                  .then(TaskSpec("set-flag", params={"key": "ready"})))
        exp = (Experiment("fixture")
               .map(server, pool.take(1))
               .map(two_stage_pipeline("probe"), list(pool)[1:11])
               .map(two_stage_pipeline("browse"), list(pool)[11:21]))
        assert validate_experiment(exp, registry) == []

    def test_unknown_task_type_named(self, registry):
        exp = Experiment("e").map(
            Pipeline("p").then(TaskSpec("warp-drive", name="warp")),
            [sim_node(0)])
        issues = validate_experiment(exp, registry)
        assert len(issues) == 1
        assert issues[0].code == "unsupported-task"
        assert "warp" in issues[0].subject

    def test_conflicting_binary_versions(self, registry):
        env_v1 = EnvironmentRequirement(
            binaries=(BinaryRequirement("probe-tool", "1.0"),))
        env_v2 = EnvironmentRequirement(
            binaries=(BinaryRequirement("probe-tool", "2.0"),))
        pipeline = (Pipeline("p")
                    .then(TaskSpec("shell", params={"command": "a"},
                                   environment=env_v1))
                    .then(TaskSpec("shell", params={"command": "b"},
                                   environment=env_v2)))
        issues = validate_experiment(
            Experiment("e").map(pipeline, [sim_node(0)]), registry)
        assert [i.code for i in issues] == ["environment-conflict"]

    def test_never_raises_on_reassigned_node(self, registry):
        # from_doc can construct states map() would reject
        doc = Experiment("e").map(two_stage_pipeline("p"),
                                  [sim_node(0)]).to_doc()
        doc["assignments"].append(doc["assignments"][0] | {
            "pipeline": two_stage_pipeline("q").to_doc()})
        issues = validate_experiment(Experiment.from_doc(doc),
                                     builtin_registry())
        assert any(i.code == "node-reassigned" for i in issues)


# ---------------------------------------------------------------------------
# status transitions
# ---------------------------------------------------------------------------

EDGES = {(src, dst) for src, dsts in VALID_TRANSITIONS.items()
         for dst in dsts}


class TestTransitions:
    def test_expected_edge_set(self):
        n = Status
        expected = {
            (n.SUBMITTED, n.COMPILING),
            (n.COMPILING, n.DEPLOYING), (n.COMPILING, n.FAILED),
            (n.DEPLOYING, n.READY), (n.DEPLOYING, n.FAILED),
            (n.READY, n.RUNNING),
            (n.RUNNING, n.FINISHED), (n.RUNNING, n.FAILED),
            (n.SUBMITTED, n.CANCELLED), (n.COMPILING, n.CANCELLED),
            (n.DEPLOYING, n.CANCELLED), (n.READY, n.CANCELLED),
            (n.RUNNING, n.CANCELLED),
        }
        assert EDGES == expected

    @given(st.lists(st.sampled_from(list(Status)), min_size=1, max_size=12))
    def test_random_walks_accepted_iff_edge_valid(self, path):
        status = Status.SUBMITTED
        for step in path:
            if is_valid_transition(status, step):
                status = step
            else:
                assert (status, step) not in EDGES

    def test_terminal_states_have_no_exits(self):
        for status in (Status.FINISHED, Status.FAILED, Status.CANCELLED):
            assert VALID_TRANSITIONS[status] == frozenset()


# ---------------------------------------------------------------------------
# task results
# ---------------------------------------------------------------------------

class TestTaskResult:
    def test_ordering_enforced(self):
        with pytest.raises(ValueError):
            TaskResult("t", "n", 0, Outcome.SUCCESS,
                       started_wall=2.0, finished_wall=1.0,
                       started_mono=2.0, finished_mono=1.0)

    def test_skipped_carries_no_timestamps(self):
        result = TaskResult("t", "n", 0, Outcome.SKIPPED)
        assert result.started_mono is None
        with pytest.raises(ValueError):
            TaskResult("t", "n", 0, Outcome.SKIPPED, started_wall=1.0,
                       finished_wall=2.0, started_mono=1.0, finished_mono=2.0)

    def test_bytes_payload_roundtrip(self):
        result = TaskResult("t", "n", 0, Outcome.SUCCESS,
                            started_wall=1.0, finished_wall=2.0,
                            started_mono=1.0, finished_mono=2.0,
                            payload=b"\x00\x01binary")
        assert TaskResult.from_doc(result.to_doc()).payload == b"\x00\x01binary"


# ---------------------------------------------------------------------------
# digest determinism under random construction
# ---------------------------------------------------------------------------

task_types = st.sampled_from(["sleep", "shell", "set-flag", "wait-flag"])


@st.composite
def pipeline_recipes(draw):
    n_stages = draw(st.integers(1, 5))
    return [
        [draw(task_types) for _ in range(draw(st.integers(1, 3)))]
        for _ in range(n_stages)
    ]


@settings(max_examples=50)
@given(pipeline_recipes())
def test_identical_recipes_identical_digests(recipe):
    def build():
        pipeline = Pipeline("p")
        for stage in recipe:
            pipeline = pipeline.then(
                [TaskSpec(t, params={"x": 1}) for t in stage])
        return pipeline

    assert build().digest() == build().digest()
    assert build().to_doc() == build().to_doc()


def reference_then(pipeline: Pipeline, tasks: list[TaskSpec]) -> Pipeline:
    """``Pipeline.then``'s naming rule written as a plain scan: each unnamed
    task probes its type, then ``-2``, ``-3``, ... from ordinal 1."""
    used = set(pipeline.task_names())
    named = []
    for task in tasks:
        if task.name:
            if task.name in used:
                raise DuplicateTaskName(task.name)
            named.append(task)
            used.add(task.name)
        else:
            candidate, ordinal = task.task_type, 1
            while candidate in used:
                ordinal += 1
                candidate = f"{task.task_type}-{ordinal}"
            named.append(replace(task, name=candidate))
            used.add(candidate)
    return replace(pipeline, stages=pipeline.stages + (Stage(tuple(named)),))


# "sleep-2" is also a type, so its names and sleep's ordinals collide.
naming_types = st.sampled_from(["sleep", "shell", "sleep-2"])
user_names = st.sampled_from(
    ["", "", "", "sleep", "sleep-2", "sleep-3", "shell-2", "sleep-2-2", "x"])
naming_stages = st.lists(st.tuples(naming_types, user_names),
                         min_size=1, max_size=4)
# (which earlier pipeline to start from, what to do to it)
naming_steps = st.tuples(
    st.integers(0, 100),
    st.one_of(naming_stages, st.sampled_from(["from_doc", "replace"])))


@settings(max_examples=200, deadline=None)
@given(st.lists(naming_steps, min_size=1, max_size=25))
def test_then_names_tasks_as_the_reference_scan_does(steps):
    """Extends fresh, decoded, replaced and already-extended pipelines, so
    both the handed-on names and their rebuild are compared."""
    history = [(Pipeline("p"), Pipeline("p"))]
    for pick, step in steps:
        fast, slow = history[pick % len(history)]
        if step == "from_doc":
            fast = Pipeline.from_doc(fast.to_doc())
        elif step == "replace":
            fast = replace(fast, early_stop=not fast.early_stop)
            slow = replace(slow, early_stop=not slow.early_stop)
        else:
            tasks = [TaskSpec(t, name=n) for t, n in step]
            try:
                slow = reference_then(slow, tasks)
            except DuplicateTaskName:
                with pytest.raises(DuplicateTaskName):
                    fast.then(tasks)
                continue
            fast = fast.then(tasks)
        assert fast.to_doc() == slow.to_doc()
        history.append((fast, slow))


# ---------------------------------------------------------------------------
# canonical_json fast path against the normalize-then-dump form
# ---------------------------------------------------------------------------

def _normalized_reference(value):
    if isinstance(value, str):
        return value.replace("\r\n", "\n").replace("\r", "\n")
    if isinstance(value, dict):
        return {k: _normalized_reference(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_normalized_reference(v) for v in value]
    return value


CR_TEXT = st.lists(
    st.sampled_from(["\r", "\r\n", "\\r", "\\", "r", "\n", "a", "é", "😀"]),
    max_size=6).map("".join)
CR_DOCS = st.recursive(
    st.none() | st.booleans() | st.integers() | CR_TEXT,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(CR_TEXT, inner, max_size=4),
    max_leaves=20)


@settings(max_examples=200, deadline=None)
@given(CR_DOCS)
def test_canonical_json_equals_normalize_then_dump(doc):
    expected = json.dumps(_normalized_reference(doc), sort_keys=True,
                          separators=(",", ":"), ensure_ascii=True)
    assert canonical_json(doc) == expected


# ---------------------------------------------------------------------------
# values refused where they are built
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("build, error", [
    (lambda: NodeDescriptor("n", "mainframe"), ValueError),
    (lambda: NodePool().take(-1), ValueError),
    (lambda: TaskSpec(""), ValueError),
    (lambda: Stage(()), EmptyStage),
    (lambda: TaskResult("t", "n", 0, Outcome.SUCCESS, started_mono=1.0),
     ValueError),
    (lambda: Policies(deploy_strictness="most"), ValueError),
    (lambda: Experiment(""), ValueError),
])
def test_invalid_values_are_refused_at_construction(build, error):
    with pytest.raises(error):
        build()


def test_skipped_result_has_no_duration_and_round_trips():
    skipped = TaskResult("t", "n", 0, Outcome.SKIPPED)
    assert skipped.duration_s() is None
    ran = TaskResult("t", "n", 0, Outcome.SUCCESS, started_mono=1.0,
                     finished_mono=1.5, payload="text")
    for result in (skipped, ran):
        assert TaskResult.from_doc(result.to_doc()) == result


def test_check_experiment_reports_shapes_only_a_raw_build_reaches():
    """``map`` and ``then`` refuse an empty node list and a repeated task
    name; an ``Assignment`` or ``Pipeline`` built directly, or decoded from
    a document, can still hold one, and validation names it."""
    node = NodeDescriptor("sim-000", "simulated", {}, "sim")
    task = TaskSpec("sleep", name="nap", params={"seconds": 0})
    twice = Pipeline("twice", stages=(Stage((task, task)),))
    experiment = Experiment("raw", assignments=(
        model_module.Assignment(twice, (node,)),
        model_module.Assignment(Pipeline("p").then(task), ())))
    issues = validate_experiment(experiment, builtin_registry())
    assert [(i.code, i.subject) for i in issues] == [
        ("empty-node-list", "p"), ("duplicate-task-name", "twice")]
    assert issues[0].to_doc() == {"code": "empty-node-list", "subject": "p",
                                  "message": "assignment has no nodes"}


def test_environment_with_staged_files_round_trips():
    environment = EnvironmentRequirement(
        staged_files=(model_module.StagedFile("probe.cfg", "interval=5"),))
    decoded = EnvironmentRequirement.from_doc(
        json.loads(json.dumps(environment.to_doc())))
    assert decoded == environment
