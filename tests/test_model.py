"""Core model: pipelines, pools, experiments, validation, transitions."""

from __future__ import annotations

import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from expforge.errors import (
    DuplicateTaskName,
    EmptyNodeList,
    EmptyStage,
    InsufficientNodes,
    NodeAlreadyAssigned,
)
from expforge.model import (
    BinaryRequirement,
    EnvironmentRequirement,
    Experiment,
    NodeDescriptor,
    NodePool,
    Outcome,
    Pipeline,
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

    def test_doc_roundtrip(self):
        pipeline = (Pipeline("p", early_stop=True)
                    .then(TaskSpec("sleep", params={"seconds": 2.5},
                                   timeout_s=7.0))
                    .then([TaskSpec("shell", params={"command": "echo hi"}),
                           TaskSpec("set-flag", params={"key": "k"})]))
        assert Pipeline.from_doc(pipeline.to_doc()) == pipeline

    def test_digest_normalizes_newlines(self):
        unix = Pipeline("p").then(
            TaskSpec("shell", params={"command": "step one\nstep two"}))
        dos = Pipeline("p").then(
            TaskSpec("shell", params={"command": "step one\r\nstep two"}))
        assert unix.digest() == dos.digest()


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
