"""Manifest parsing, rendering, round-tripping, selector resolution."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from expforge.errors import InsufficientNodes, ManifestError, NodeAlreadyAssigned
from expforge.manifest import (
    ExperimentManifest,
    PipelineSpec,
    SelectorSpec,
    TaskEntry,
    load_bundled_example,
    manifest_from_doc,
    parse_manifest,
    render_manifest,
    resolve_experiment,
)
from expforge.model import NodeDescriptor, NodePool, Policies
from expforge.tasks import builtin_registry
from expforge.model import validate_experiment


def make_pool(count: int, **attrs) -> NodePool:
    return NodePool(tuple(
        NodeDescriptor(f"sim-{i:03d}", "simulated", dict(attrs), "sim")
        for i in range(count)))


def fixed_query(pools: dict[str, NodePool]):
    def query(filters, connector):
        pool = pools[connector or "sim"]
        for key, value in filters.items():
            pool = pool.filter(key, value)
        return pool
    return query


class TestBundledFixture:
    def test_three_pipelines_three_assignments(self):
        manifest = parse_manifest(load_bundled_example())
        assert manifest.name == "listing1"
        assert len(manifest.pipelines) == 3
        assert len(manifest.assignments) == 3
        assert [s for _, s in manifest.assignments] == \
            ["server", "probes", "browsers"]

    def test_resolves_to_21_nodes_and_validates(self):
        manifest = parse_manifest(load_bundled_example())
        nodes = tuple(
            NodeDescriptor(f"sim-{i:03d}", "simulated", {"location": loc},
                           "sim")
            for i, loc in enumerate(
                ["azure"] + ["campus"] * 10 + ["cloud"] * 10))
        exp = resolve_experiment(manifest,
                                 fixed_query({"sim": NodePool(nodes)}))
        assert len(exp.assigned_node_ids()) == 21
        assert validate_experiment(exp, builtin_registry()) == []

    def test_roundtrip(self):
        manifest = parse_manifest(load_bundled_example())
        assert parse_manifest(render_manifest(manifest)) == manifest


class TestParseErrors:
    def test_empty_document(self):
        with pytest.raises(ManifestError) as excinfo:
            parse_manifest("")
        assert "empty" in str(excinfo.value)

    def test_broken_yaml_reports_location(self):
        with pytest.raises(ManifestError) as excinfo:
            parse_manifest("name: x\npipelines:\n  p: [unclosed")
        assert excinfo.value.line is not None

    def test_unknown_top_level_field(self):
        with pytest.raises(ManifestError) as excinfo:
            parse_manifest("name: x\nbogus: 1\npipelines: {}\n")
        assert "bogus" in str(excinfo.value)

    def test_unknown_task_field(self):
        text = """
name: x
pipelines:
  p:
    stages:
      - [{type: sleep, retries: 3}]
assignments: [{pipeline: p, nodes: all}]
selectors: {all: {}}
"""
        with pytest.raises(ManifestError) as excinfo:
            parse_manifest(text)
        assert "retries" in str(excinfo.value)

    def test_assignment_must_name_known_keys(self):
        text = """
name: x
selectors: {all: {}}
pipelines:
  p: {stages: [[{type: sleep}]]}
assignments: [{pipeline: nope, nodes: all}]
"""
        with pytest.raises(ManifestError) as excinfo:
            parse_manifest(text)
        assert "nope" in str(excinfo.value)

    def test_missing_name(self):
        with pytest.raises(ManifestError):
            parse_manifest("pipelines: {p: {stages: [[{type: sleep}]]}}")

    def test_pipeline_needs_stages(self):
        text = """
name: x
selectors: {all: {}}
pipelines: {p: {stages: []}}
assignments: [{pipeline: p, nodes: all}]
"""
        with pytest.raises(ManifestError):
            parse_manifest(text)

    @pytest.mark.parametrize("value", ["0", "-1", ".inf", "-.inf", ".nan",
                                       "soon", "[1]"])
    @pytest.mark.parametrize("template", [
        "pipelines: {{p: {{stages: [[{{type: sleep, timeout_s: {}}}]]}}}}",
        "pipelines: {{p: {{stages: [[{{type: sleep}}]]}}}}\n"
        "policies: {{experiment_timeout_s: {}}}"])
    def test_timeout_must_be_finite_and_positive(self, template, value):
        text = ("name: x\nselectors: {all: {}}\n"
                "assignments: [{pipeline: p, nodes: all}]\n"
                + template.format(value))
        with pytest.raises(ManifestError):
            parse_manifest(text)

    @pytest.mark.parametrize("task_type", ["''", "null"])
    def test_task_needs_a_non_empty_type(self, task_type):
        text = f"""
name: x
selectors: {{all: {{}}}}
pipelines: {{p: {{stages: [[{{type: {task_type}}}]]}}}}
assignments: [{{pipeline: p, nodes: all}}]
"""
        with pytest.raises(ManifestError) as excinfo:
            parse_manifest(text)
        assert "has no type" in str(excinfo.value)


class TestResolution:
    def manifest(self, take=2, strict=True) -> ExperimentManifest:
        return manifest_from_doc({
            "name": "resolved",
            "selectors": {
                "picked": {"filters": {"location": "campus"},
                           "take": take, "strict": strict},
            },
            "pipelines": {"p": {"stages": [[{"type": "sleep",
                                             "params": {"seconds": 1}}]]}},
            "assignments": [{"pipeline": "p", "nodes": "picked"}],
        })

    def test_nodes_frozen_into_experiment(self):
        pool = make_pool(5, location="campus")
        exp = resolve_experiment(self.manifest(),
                                 fixed_query({"sim": pool}))
        assert [n.node_id for a in exp.assignments for n in a.nodes] == \
            ["sim-000", "sim-001"]

    def test_strict_shortfall_raises(self):
        pool = make_pool(1, location="campus")
        with pytest.raises(InsufficientNodes):
            resolve_experiment(self.manifest(take=2, strict=True),
                               fixed_query({"sim": pool}))

    def test_lenient_shortfall_takes_what_exists(self):
        pool = make_pool(1, location="campus")
        exp = resolve_experiment(self.manifest(take=2, strict=False),
                                 fixed_query({"sim": pool}))
        assert len(exp.assigned_node_ids()) == 1

    def test_selector_reused_across_assignments_rejected(self):
        doc = {
            "name": "clash",
            "selectors": {"all": {}},
            "pipelines": {
                "p": {"stages": [[{"type": "sleep"}]]},
                "q": {"stages": [[{"type": "sleep"}]]},
            },
            "assignments": [{"pipeline": "p", "nodes": "all"},
                            {"pipeline": "q", "nodes": "all"}],
        }
        with pytest.raises(NodeAlreadyAssigned):
            resolve_experiment(manifest_from_doc(doc),
                               fixed_query({"sim": make_pool(2)}))

    def test_task_environment_flows_into_compiled_spec(self):
        from expforge.compiler import compile_experiment

        text = """
name: env-flow
selectors: {all: {connector: sim}}
pipelines:
  p:
    stages:
      - - type: shell
          params: {command: run-probe}
          environment:
            setup_commands: [install-probe-tool]
            verify_commands: [probe-tool --selfcheck]
assignments: [{pipeline: p, nodes: all}]
"""
        manifest = parse_manifest(text)
        exp = resolve_experiment(manifest,
                                 fixed_query({"sim": make_pool(2)}))
        plan = compile_experiment(exp, builtin_registry())
        spec = plan.environment_specs[0]
        assert "install-probe-tool" in spec.setup_commands
        assert "probe-tool --selfcheck" in spec.verify_commands

    def test_strict_selector_without_take_requires_matches(self):
        doc = {
            "name": "empty-strict",
            "selectors": {"none": {"filters": {"location": "mars"},
                                   "strict": True}},
            "pipelines": {"p": {"stages": [[{"type": "sleep"}]]}},
            "assignments": [{"pipeline": "p", "nodes": "none"}],
        }
        with pytest.raises(InsufficientNodes):
            resolve_experiment(manifest_from_doc(doc),
                               fixed_query({"sim": make_pool(3)}))


# ---------------------------------------------------------------------------
# round-trip property over generated manifests
# ---------------------------------------------------------------------------

names = st.text(alphabet="abcdefghij-", min_size=1, max_size=8).filter(
    lambda s: s.strip("-"))
scalars = st.one_of(st.integers(-100, 100), st.booleans(),
                    st.text(alphabet="xyz ", max_size=6))


@st.composite
def manifests(draw) -> ExperimentManifest:
    n_pipelines = draw(st.integers(1, 3))
    pipelines = []
    for p in range(n_pipelines):
        stages = []
        for _ in range(draw(st.integers(1, 3))):
            stages.append(tuple(
                TaskEntry(
                    type=draw(st.sampled_from(["sleep", "shell", "ping"])),
                    name=draw(st.one_of(st.just(""), names)),
                    params=tuple(sorted(draw(st.dictionaries(
                        names, scalars, max_size=2)).items())),
                    timeout_s=draw(st.one_of(
                        st.none(), st.floats(1, 100, allow_nan=False))),
                )
                for _ in range(draw(st.integers(1, 2)))))
        pipelines.append((f"p{p}", PipelineSpec(
            stages=tuple(stages), early_stop=draw(st.booleans()))))
    selectors = tuple(
        (f"s{i}", SelectorSpec(
            filters=tuple(sorted(draw(st.dictionaries(
                names, names, max_size=2)).items())),
            take=draw(st.one_of(st.none(), st.integers(0, 5))),
            strict=draw(st.booleans()),
            connector=draw(st.one_of(st.none(), st.just("sim")))))
        for i in range(draw(st.integers(1, 2))))
    assignments = tuple(
        (pipelines[i % len(pipelines)][0], selectors[i % len(selectors)][0])
        for i in range(draw(st.integers(1, 2))))
    return ExperimentManifest(
        name=draw(names),
        selectors=selectors,
        pipelines=tuple(pipelines),
        assignments=assignments,
        policies=Policies(
            deploy_strictness=draw(st.sampled_from(
                ["all-or-nothing", "best-effort"])),
            experiment_timeout_s=draw(st.floats(1, 10_000,
                                                allow_nan=False))),
    )


@settings(max_examples=60, deadline=None)
@given(manifests())
def test_parse_render_roundtrip(manifest):
    assert parse_manifest(render_manifest(manifest)) == manifest


def valid_manifest_doc() -> dict:
    return {"name": "x", "selectors": {"all": {}},
            "pipelines": {"p": {"stages": [[{"type": "sleep"}]]}},
            "assignments": [{"pipeline": "p", "nodes": "all"}]}


@pytest.mark.parametrize("path, value, message", [
    ((), ["not", "a", "mapping"], "manifest must be a mapping"),
    (("selectors",), ["all"], "selectors must be a mapping"),
    (("selectors", "all", "filters"), ["a=b"], "filters must be a mapping"),
    (("pipelines",), {}, "at least one pipeline"),
    (("pipelines", "p", "stages", 0, 0, "params"), [1],
     "params must be a mapping"),
    (("pipelines", "p", "stages", 0), {"type": "sleep"},
     "must be a non-empty task list"),
    (("pipelines", "p", "stages", 0, 0, "environment"),
     {"setup_commands": "apt-get install x"},
     "environment setup_commands must be a list of strings in "
     "pipeline 'p' stage 0"),
    (("pipelines", "p", "stages", 0, 0, "environment"), ["install-x"],
     "environment must be a mapping in pipeline 'p' stage 0"),
    (("pipelines", "p", "stages", 0, 0, "environment"), {"binaries": ["curl"]},
     "environment binaries must be a list of mappings .* in "
     "pipeline 'p' stage 0"),
    (("pipelines", "p", "stages", 0, 0, "environment"),
     {"binaries": [{"name": "curl", "version": 8.1}]},
     "environment binaries must be a list of mappings .* in "
     "pipeline 'p' stage 0"),
    (("pipelines", "p", "stages", 0, 0, "environment"),
     {"staged_files": [{"path": "probe.cfg", "content": 5}]},
     "environment staged_files must be a list of mappings .* in "
     "pipeline 'p' stage 0"),
    (("assignments",), [], "at least one assignment"),
    (("assignments", 0), "p->all", "assignment 0 must be a mapping"),
    (("assignments", 0, "nodes"), "nobody", "unknown selector 'nobody'"),
    (("policies",), [], "policies must be a mapping"),
    (("policies",), {"deploy_strictness": "most"},
     "unknown deploy_strictness 'most'"),
])
def test_manifest_shape_errors(path, value, message):
    doc = valid_manifest_doc()
    if path:
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = value
    else:
        doc = value
    with pytest.raises(ManifestError, match=message):
        manifest_from_doc(doc)


def test_undecodable_text_is_a_syntax_error():
    with pytest.raises(ManifestError, match="syntax error"):
        parse_manifest("name: x\x00")


def test_task_environment_round_trips():
    doc = valid_manifest_doc()
    doc["pipelines"]["p"]["stages"][0][0]["environment"] = {
        "setup_commands": ["install-probe"],
        "staged_files": [{"path": "probe.cfg", "content": "interval=5"}]}
    manifest = manifest_from_doc(doc)
    assert parse_manifest(render_manifest(manifest)) == manifest
    task = manifest.pipelines[0][1].stages[0][0].to_task_spec()
    assert task.environment.staged_files[0].content == "interval=5"
