"""Compiler: environment merging, implementation resolution, plan dedup."""

from __future__ import annotations

import gc
import random

import pytest
from hypothesis import given, settings, strategies as st

from expforge.compiler import (
    CLEAN_SCRATCH_COMMAND,
    DeploymentPlan,
    compile_experiment,
)
from expforge.errors import (
    EnvironmentConflict,
    UnsupportedTaskForKind,
    ValidationFailed,
)
from expforge.model import (
    BinaryRequirement,
    EnvironmentRequirement,
    Experiment,
    NodeDescriptor,
    Pipeline,
    StagedFile,
    TaskSpec,
    digest_doc,
    merge_requirements,
)
from expforge.registry import TaskImplementation, TaskRegistry
from expforge.tasks import builtin_registry


def node(i: int, kind: str = "simulated") -> NodeDescriptor:
    return NodeDescriptor(node_id=f"{kind}-{i:03d}", kind=kind,
                          attributes={}, connector_ref="c")


def shell_pipeline(pid: str, *commands: str) -> Pipeline:
    pipeline = Pipeline(pid)
    for command in commands:
        pipeline = pipeline.then(TaskSpec("shell",
                                          params={"command": command}))
    return pipeline


# ---------------------------------------------------------------------------
# merge_requirements
# ---------------------------------------------------------------------------

class TestMergeEnvironments:
    def test_duplicate_commands_collapse(self):
        req = EnvironmentRequirement(setup_commands=("install-tcpdump",))
        merged = merge_requirements([req, req])
        assert merged.setup_commands == ("install-tcpdump",)

    def test_stage_ordered_union_on_server_pipeline(self):
        # http server + capture + flag, with explicit setup requirements
        reqs = [
            EnvironmentRequirement(setup_commands=("install-http-server",
                                                   "configure-tls")),
            EnvironmentRequirement(setup_commands=("install-tcpdump",),
                                   verify_commands=("command -v tcpdump",)),
            EnvironmentRequirement(setup_commands=("configure-tls",)),
        ]
        merged = merge_requirements(reqs)
        # oracle: first-occurrence order over the concatenation
        expected: list[str] = []
        for req in reqs:
            for cmd in req.setup_commands:
                if cmd not in expected:
                    expected.append(cmd)
        assert list(merged.setup_commands) == expected
        assert merged.verify_commands == ("command -v tcpdump",)

    def test_binary_version_conflict(self):
        one = EnvironmentRequirement(
            binaries=(BinaryRequirement("tool-x", "1"),))
        two = EnvironmentRequirement(
            binaries=(BinaryRequirement("tool-x", "2"),))
        with pytest.raises(EnvironmentConflict) as excinfo:
            merge_requirements([one, two])
        assert excinfo.value.first.version == "1"
        assert excinfo.value.second.version == "2"

    def test_staged_file_content_conflict(self):
        one = EnvironmentRequirement(staged_files=(StagedFile("cfg", "a"),))
        two = EnvironmentRequirement(staged_files=(StagedFile("cfg", "b"),))
        with pytest.raises(EnvironmentConflict):
            merge_requirements([one, two])
        assert merge_requirements([one, one]).staged_files == one.staged_files


# ---------------------------------------------------------------------------
# registry.resolve
# ---------------------------------------------------------------------------

class _FixtureImpl(TaskImplementation):
    def __init__(self, task_type: str, kind: str):
        self.task_type = task_type
        self.kind = kind

    def run(self, params, ctx):
        return None


class TestResolveImplementation:
    def test_builtin_sleep_on_simulated(self, registry):
        assert registry.resolve("sleep", "simulated") == "sleep@simulated"

    def test_exact_kind_beats_fallback(self):
        fixture = TaskRegistry([_FixtureImpl("shell", "linux-shell"),
                                _FixtureImpl("shell", "ssh-host")])
        assert fixture.resolve("shell", "ssh-host") == "shell@ssh-host"

    def test_ssh_falls_back_to_linux_shell(self, registry):
        assert registry.resolve("shell", "ssh-host") == "shell@linux-shell"

    def test_capture_on_simulated_is_stub(self, registry):
        impl_id = registry.resolve("capture-start", "simulated")
        assert impl_id == "capture-start@simulated"
        impl = registry.implementation(impl_id)
        assert impl.environment.is_empty()  # stub needs no real binary

    def test_unsupported_kind_raises(self, registry):
        with pytest.raises(UnsupportedTaskForKind):
            TaskRegistry([_FixtureImpl("x", "simulated")]).resolve(
                "capture-start", "ssh-host")


# ---------------------------------------------------------------------------
# compile
# ---------------------------------------------------------------------------

class TestCompile:
    def test_three_pipelines_one_kind_three_specs(self, registry):
        nodes = [node(i) for i in range(21)]
        exp = (Experiment("listing")
               .map(shell_pipeline("p1", "serve"), nodes[:1])
               .map(shell_pipeline("p2", "wait", "attack"), nodes[1:11])
               .map(shell_pipeline("p3", "wait", "browse"), nodes[11:21]))
        plan = compile_experiment(exp, registry)
        assert len(plan.environment_specs) == 3

    def test_one_pipeline_twenty_nodes_one_spec(self, registry):
        nodes = [node(i) for i in range(20)]
        exp = Experiment("dedup").map(shell_pipeline("p", "work"), nodes)
        plan = compile_experiment(exp, registry)
        assert len(plan.environment_specs) == 1
        assert len(plan.node_bundles) == 20

    def test_plan_stores_each_pipeline_once(self, registry):
        nodes = [node(i) for i in range(6)]
        exp = (Experiment("shared")
               .map(shell_pipeline("p1", "a"), nodes[:4])
               .map(shell_pipeline("p2", "b"), nodes[4:]))
        plan = compile_experiment(exp, registry)
        assert set(plan.pipelines) == {a.pipeline.digest()
                                       for a in exp.assignments}
        for bundle in plan.node_bundles.values():
            assert "pipeline" not in bundle
            assert bundle["pipeline_digest"] in plan.pipelines

    def test_two_pipelines_two_kinds_four_specs(self, registry):
        sims = [node(i, "simulated") for i in range(2)]
        shells = [node(i, "linux-shell") for i in range(2)]
        exp = (Experiment("crossed")
               .map(shell_pipeline("p1", "a"), [sims[0], shells[0]])
               .map(shell_pipeline("p2", "b"), [sims[1], shells[1]]))
        plan = compile_experiment(exp, registry)
        assert len(plan.environment_specs) == 4

    def test_bundles_cover_exactly_assigned_nodes(self, registry):
        nodes = [node(i) for i in range(7)]
        exp = (Experiment("complete")
               .map(shell_pipeline("p1", "a"), nodes[:3])
               .map(shell_pipeline("p2", "b"), nodes[3:]))
        plan = compile_experiment(exp, registry)
        assert set(plan.node_bundles) == exp.assigned_node_ids()
        for node_id, bundle in plan.node_bundles.items():
            assert bundle["node_id"] == node_id
            assert bundle["experiment_id"] == "complete"

    def test_compile_deterministic_bytes(self, registry):
        nodes = [node(i) for i in range(5)]
        exp = (Experiment("det")
               .map(shell_pipeline("p1", "a", "b"), nodes[:2])
               .map(shell_pipeline("p2", "c"), nodes[2:]))
        first = compile_experiment(exp, registry).canonical()
        second = compile_experiment(exp, registry).canonical()
        assert first == second

    def test_invalid_experiment_rejected(self, registry):
        exp = Experiment("bad").map(
            Pipeline("p").then(TaskSpec("no-such-task")), [node(0)])
        with pytest.raises(ValidationFailed):
            compile_experiment(exp, registry)

    def test_binary_requirements_become_verify_commands(self, registry):
        pipeline = Pipeline("cap").then(
            TaskSpec("capture-start", params={"out_path": "x.pcap"}))
        exp = Experiment("verify").map(pipeline, [node(0, "linux-shell")])
        plan = compile_experiment(exp, registry)
        spec = plan.environment_specs[0]
        assert "command -v tcpdump" in spec.verify_commands

    def test_cleanup_commands_end_with_scratch_wipe(self, registry):
        exp = Experiment("clean").map(shell_pipeline("p", "x"), [node(0)])
        plan = compile_experiment(exp, registry)
        assert plan.cleanup_commands["simulated"][-1] == CLEAN_SCRATCH_COMMAND

    def test_each_task_resolved_once_per_kind(self, registry, monkeypatch):
        """The validation walk resolves; every node reuses what it found."""
        calls = []
        resolve = registry.resolve
        monkeypatch.setattr(registry, "resolve",
                            lambda *args: calls.append(args) or resolve(*args))
        pipeline = Pipeline("two").then(
            [TaskSpec("sleep", params={"seconds": 0}),
             TaskSpec("shell", params={"command": "true"})])
        exp = Experiment("twenty").map(pipeline, [node(i) for i in range(20)])
        compile_experiment(exp, registry)
        assert len(calls) == 2

    def test_plan_doc_roundtrip(self, registry):
        exp = Experiment("rt").map(shell_pipeline("p", "x"),
                                   [node(0), node(1)])
        plan = compile_experiment(exp, registry)
        assert DeploymentPlan.from_doc(plan.to_doc()).canonical() \
            == plan.canonical()


# ---------------------------------------------------------------------------
# dedup exactness against a brute-force oracle
# ---------------------------------------------------------------------------

def random_experiment(rng: random.Random, index: int) -> Experiment:
    pipelines = [
        shell_pipeline(f"p{i}", *(f"cmd-{rng.randint(0, 2)}"
                                  for _ in range(rng.randint(1, 3))))
        for i in range(rng.randint(1, 4))
    ]
    # Duplicate pipeline bodies across assignments to stress digest dedup.
    if rng.random() < 0.5 and len(pipelines) > 1:
        pipelines[-1] = Pipeline.from_doc(
            pipelines[0].to_doc() | {"pipeline_id": pipelines[-1].pipeline_id})
    exp = Experiment(f"rand-{index}")
    counter = 0
    for pipeline in pipelines:
        nodes = []
        for _ in range(rng.randint(1, 4)):
            kind = rng.choice(["simulated", "linux-shell"])
            nodes.append(node(1000 * index + counter, kind))
            counter += 1
        exp = exp.map(pipeline, nodes)
    return exp


def brute_force_spec_count(exp: Experiment) -> int:
    pairs = set()
    for assignment in exp.assignments:
        for n in assignment.nodes:
            pairs.add((assignment.pipeline.digest(), n.kind))
    return len(pairs)


def test_dedup_matches_brute_force_over_random_experiments(registry):
    rng = random.Random(181)
    for index in range(60):
        exp = random_experiment(rng, index)
        plan = compile_experiment(exp, registry)
        assert len(plan.environment_specs) == brute_force_spec_count(exp), \
            f"dedup mismatch on experiment {index}"


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000))
def test_dedup_matches_brute_force_property(seed):
    registry = builtin_registry()
    exp = random_experiment(random.Random(seed), 0)
    plan = compile_experiment(exp, registry)
    assert len(plan.environment_specs) == brute_force_spec_count(exp)


# ---------------------------------------------------------------------------
# doc shape: pinned bytes, and empty environments stay off the collector
# ---------------------------------------------------------------------------

PINNED_PIPELINE_DIGEST = (
    "c6ba861d04a7c5f70bbd68a0293617410a7ebd16a3f2d39978fa861bd2a82ba6")
PINNED_PLAN_DIGEST = (  # sha256 of the plan's canonical_json
    "beeea3247b5381878a4e16c7e09cab1070dc0d1ee6ffe59f1132b066573a6e6b")


def pinned_experiment() -> Experiment:
    capture_env = EnvironmentRequirement(
        setup_commands=("apt-get install -y tcpdump", "mkdir -p captures"),
        binaries=(BinaryRequirement("tcpdump", "4.99"),
                  BinaryRequirement("curl")),
        staged_files=(StagedFile("conf/capture.conf", "iface=eth0\n"),),
        verify_commands=("test -d captures",))
    pipeline = (Pipeline("pinned")
                .then(TaskSpec("shell", params={"command": "echo a"},
                               timeout_s=5.0, environment=capture_env))
                .then([TaskSpec("sleep", params={"seconds": 0}),
                       TaskSpec("shell", params={"command": "true"},
                                environment=EnvironmentRequirement(
                                    setup_commands=("mkdir -p captures",)))]))
    return Experiment("pinned").map(pipeline, [node(0), node(1)])


def test_pipeline_digest_and_plan_bytes_are_pinned(registry):
    """Values computed before environment docs became tuples; a doc-shape
    change must not move a digest or a byte of the plan."""
    exp = pinned_experiment()
    plan = compile_experiment(exp, registry)
    assert exp.assignments[0].pipeline.digest() == PINNED_PIPELINE_DIGEST
    assert digest_doc(plan.to_doc()) == PINNED_PLAN_DIGEST


def test_empty_environment_doc_is_untracked():
    assert not gc.is_tracked(TaskSpec("sleep").to_doc()["environment"])


def test_compile_builds_each_pipeline_doc_once(registry, monkeypatch):
    """One ``Pipeline.to_doc`` per assignment: the digest is taken from the
    doc the plan stores."""
    exp = Experiment("three")
    for index in range(3):
        exp = exp.map(shell_pipeline(f"p{index}", f"echo {index}"),
                      [node(index)])
    built = []
    to_doc = Pipeline.to_doc
    monkeypatch.setattr(Pipeline, "to_doc",
                        lambda self: built.append(self) or to_doc(self))
    plan = compile_experiment(exp, registry)
    assert len(built) == 3
    assert len(plan.pipelines) == 3


def test_spec_for_a_pair_the_plan_lacks_is_a_key_error(registry):
    exp = Experiment("one").map(shell_pipeline("p", "x"), [node(0)])
    plan = compile_experiment(exp, registry)
    (digest,) = plan.pipelines
    assert plan.spec_for(digest, "simulated").pipeline_digest == digest
    with pytest.raises(KeyError):
        plan.spec_for(digest, "ssh-host")
