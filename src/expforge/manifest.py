"""Declarative experiment manifests: parse, render, resolve.

A manifest is the shareable, language-agnostic equivalent of composing an
experiment in code: named node selectors, pipelines of stages, assignments
wiring them together, and run policies. ``parse_manifest(render_manifest(m))
== m`` holds for every manifest. Selector resolution against live node pools
happens server-side at submit time, freezing the chosen nodes into the stored
experiment so reruns are reproducible.
"""

from __future__ import annotations

import importlib.resources
import math
from dataclasses import dataclass
from typing import Any, Callable, Mapping

import yaml

from .errors import InsufficientNodes, ManifestError
from .model import (
    DEFAULT_TASK_TIMEOUT_S,
    EnvironmentRequirement,
    Experiment,
    NodePool,
    Pipeline,
    Policies,
    TaskSpec,
    valid_timeout,
)

# query(filters, connector) -> NodePool; the director's node query endpoint.
NodeQuery = Callable[[Mapping[str, str], "str | None"], NodePool]


def _check_keys(doc: Mapping[str, Any], allowed: set[str], where: str) -> None:
    unknown = set(doc) - allowed
    if unknown:
        raise ManifestError(
            f"unknown field(s) {sorted(unknown)} in {where}")


@dataclass(frozen=True)
class SelectorSpec:
    """How to pick nodes: attribute filters, then take-N."""

    filters: tuple[tuple[str, str], ...] = ()
    take: int | None = None
    strict: bool = False
    connector: str | None = None

    @classmethod
    def from_doc(cls, doc: Mapping[str, Any], where: str) -> "SelectorSpec":
        _check_keys(doc, {"filters", "take", "strict", "connector"}, where)
        filters = doc.get("filters", {})
        if not isinstance(filters, Mapping):
            raise ManifestError(f"filters must be a mapping in {where}")
        take = doc.get("take")
        if take is not None and (type(take) is not int or take < 0):
            raise ManifestError(
                f"take must be an integer >= 0 in {where}: {take!r}")
        return cls(
            filters=tuple((str(k), str(v)) for k, v in filters.items()),
            take=take,
            strict=bool(doc.get("strict", False)),
            connector=doc.get("connector"),
        )

    def to_doc(self) -> dict:
        doc: dict[str, Any] = {"filters": {k: v for k, v in self.filters}}
        if self.take is not None:
            doc["take"] = self.take
        if self.strict:
            doc["strict"] = True
        if self.connector is not None:
            doc["connector"] = self.connector
        return doc


@dataclass(frozen=True)
class TaskEntry:
    type: str
    name: str = ""
    params: tuple[tuple[str, Any], ...] = ()
    timeout_s: float | None = None
    environment: EnvironmentRequirement | None = None

    @classmethod
    def from_doc(cls, doc: Mapping[str, Any], where: str) -> "TaskEntry":
        _check_keys(doc, {"type", "name", "params", "timeout_s",
                          "environment"}, where)
        if doc.get("type") in (None, ""):
            raise ManifestError(f"task in {where} has no type")
        params = doc.get("params", {})
        if not isinstance(params, Mapping):
            raise ManifestError(f"params must be a mapping in {where}")
        timeout_s = doc.get("timeout_s")
        if timeout_s is not None:
            try:
                timeout_s = float(timeout_s)
            except (TypeError, ValueError):
                timeout_s = math.nan
            if not valid_timeout(timeout_s):
                raise ManifestError(
                    f"timeout_s must be a finite number > 0 in {where}: "
                    f"{doc['timeout_s']!r}")
        environment = None
        if doc.get("environment") is not None:
            environment = _environment(doc["environment"], where)
        return cls(
            type=str(doc["type"]),
            name=str(doc.get("name", "")),
            params=tuple(sorted((str(k), v) for k, v in params.items())),
            timeout_s=timeout_s,
            environment=environment,
        )

    def to_doc(self) -> dict:
        doc: dict[str, Any] = {"type": self.type}
        if self.name:
            doc["name"] = self.name
        if self.params:
            doc["params"] = {k: v for k, v in self.params}
        if self.timeout_s is not None:
            doc["timeout_s"] = self.timeout_s
        if self.environment is not None:
            doc["environment"] = self.environment.to_doc()
        return doc

    def to_task_spec(self) -> TaskSpec:
        return TaskSpec(
            task_type=self.type,
            name=self.name,
            params={k: v for k, v in self.params},
            timeout_s=(self.timeout_s if self.timeout_s is not None
                       else DEFAULT_TASK_TIMEOUT_S),
            environment=self.environment or EnvironmentRequirement(),
        )


def _environment(doc: Any, where: str) -> EnvironmentRequirement:
    """A task's environment, checked as user input: command lists hold
    strings, a binary has a string name and an optional string version, and
    a staged file a string path and content."""
    if not isinstance(doc, Mapping):
        raise ManifestError(f"environment must be a mapping in {where}")
    _check_keys(doc, {"setup_commands", "binaries", "staged_files",
                      "verify_commands"}, f"environment in {where}")

    def check(key: str, valid: Callable[[Any], bool], what: str) -> None:
        items = doc.get(key, [])
        if not isinstance(items, list) or not all(map(valid, items)):
            raise ManifestError(
                f"environment {key} must be a list of {what} in {where}")

    def is_str(value: Any) -> bool:
        return isinstance(value, str)

    check("setup_commands", is_str, "strings")
    check("verify_commands", is_str, "strings")
    check("binaries", lambda b: isinstance(b, Mapping) and is_str(
        b.get("name")) and isinstance(b.get("version"), (str, type(None))),
        "mappings with a string name and version")
    check("staged_files", lambda f: isinstance(f, Mapping) and is_str(
        f.get("path")) and is_str(f.get("content", "")),
        "mappings with a string path and content")
    return EnvironmentRequirement.from_doc(doc)


@dataclass(frozen=True)
class PipelineSpec:
    stages: tuple[tuple[TaskEntry, ...], ...] = ()
    early_stop: bool = False

    @classmethod
    def from_doc(cls, doc: Mapping[str, Any], where: str) -> "PipelineSpec":
        _check_keys(doc, {"stages", "early_stop"}, where)
        raw_stages = doc.get("stages")
        if not isinstance(raw_stages, list) or not raw_stages:
            raise ManifestError(f"pipeline {where} needs a non-empty stages list")
        stages = []
        for i, raw_stage in enumerate(raw_stages):
            if not isinstance(raw_stage, list) or not raw_stage:
                raise ManifestError(
                    f"stage {i} of {where} must be a non-empty task list")
            stages.append(tuple(
                TaskEntry.from_doc(t, f"{where} stage {i}")
                for t in raw_stage))
        return cls(stages=tuple(stages),
                   early_stop=bool(doc.get("early_stop", False)))

    def to_doc(self) -> dict:
        doc: dict[str, Any] = {
            "stages": [[t.to_doc() for t in stage] for stage in self.stages]}
        if self.early_stop:
            doc["early_stop"] = True
        return doc

    def to_pipeline(self, pipeline_id: str) -> Pipeline:
        pipeline = Pipeline(pipeline_id=pipeline_id, early_stop=self.early_stop)
        for stage in self.stages:
            pipeline = pipeline.then([t.to_task_spec() for t in stage])
        return pipeline


@dataclass(frozen=True)
class ExperimentManifest:
    name: str
    selectors: tuple[tuple[str, SelectorSpec], ...] = ()
    pipelines: tuple[tuple[str, PipelineSpec], ...] = ()
    assignments: tuple[tuple[str, str], ...] = ()  # (pipeline key, selector key)
    policies: Policies = Policies()

    def to_doc(self) -> dict:
        return {
            "name": self.name,
            "selectors": {k: s.to_doc() for k, s in self.selectors},
            "pipelines": {k: p.to_doc() for k, p in self.pipelines},
            "assignments": [{"pipeline": p, "nodes": s}
                            for p, s in self.assignments],
            "policies": self.policies.to_doc(),
        }


def manifest_from_doc(doc: Mapping[str, Any]) -> ExperimentManifest:
    if not isinstance(doc, Mapping):
        raise ManifestError("manifest must be a mapping")
    _check_keys(doc, {"name", "selectors", "pipelines", "assignments",
                      "policies"}, "manifest")
    name = doc.get("name")
    if not name or not isinstance(name, str):
        raise ManifestError("manifest needs a non-empty string name")

    selectors_doc = doc.get("selectors", {})
    if not isinstance(selectors_doc, Mapping):
        raise ManifestError("selectors must be a mapping")
    selectors = tuple(
        (str(key), SelectorSpec.from_doc(value, f"selector {key!r}"))
        for key, value in selectors_doc.items())

    pipelines_doc = doc.get("pipelines", {})
    if not isinstance(pipelines_doc, Mapping) or not pipelines_doc:
        raise ManifestError("manifest needs at least one pipeline")
    pipelines = tuple(
        (str(key), PipelineSpec.from_doc(value, f"pipeline {key!r}"))
        for key, value in pipelines_doc.items())

    assignments_doc = doc.get("assignments", [])
    if not isinstance(assignments_doc, list) or not assignments_doc:
        raise ManifestError("manifest needs at least one assignment")
    pipeline_keys = {k for k, _ in pipelines}
    selector_keys = {k for k, _ in selectors}
    assignments = []
    for i, entry in enumerate(assignments_doc):
        if not isinstance(entry, Mapping):
            raise ManifestError(f"assignment {i} must be a mapping")
        _check_keys(entry, {"pipeline", "nodes"}, f"assignment {i}")
        pipeline_key = entry.get("pipeline")
        selector_key = entry.get("nodes")
        if pipeline_key not in pipeline_keys:
            raise ManifestError(
                f"assignment {i} names unknown pipeline {pipeline_key!r}")
        if selector_key not in selector_keys:
            raise ManifestError(
                f"assignment {i} names unknown selector {selector_key!r}")
        assignments.append((str(pipeline_key), str(selector_key)))

    policies_doc = doc.get("policies", {})
    if not isinstance(policies_doc, Mapping):
        raise ManifestError("policies must be a mapping")
    _check_keys(policies_doc, {"deploy_strictness", "experiment_timeout_s"},
                "policies")
    try:
        policies = Policies.from_doc(policies_doc)
    except (TypeError, ValueError) as exc:
        raise ManifestError(str(exc)) from exc

    return ExperimentManifest(
        name=name,
        selectors=selectors,
        pipelines=pipelines,
        assignments=tuple(assignments),
        policies=policies,
    )


def parse_manifest(text: str) -> ExperimentManifest:
    """Parse a manifest document; syntax errors carry line/column."""
    try:
        doc = yaml.safe_load(text)
    except yaml.MarkedYAMLError as exc:
        mark = exc.problem_mark
        raise ManifestError(
            f"syntax error: {exc.problem or exc}",
            line=None if mark is None else mark.line + 1,
            column=None if mark is None else mark.column + 1) from exc
    except yaml.YAMLError as exc:
        raise ManifestError(f"syntax error: {exc}") from exc
    if doc is None:
        raise ManifestError("empty document")
    return manifest_from_doc(doc)


def render_manifest(manifest: ExperimentManifest) -> str:
    return yaml.safe_dump(manifest.to_doc(), sort_keys=False,
                          default_flow_style=False)


def resolve_experiment(manifest: ExperimentManifest,
                       query: NodeQuery) -> Experiment:
    """Freeze selectors into concrete node lists and build the experiment.

    ``query`` is the director's node query: (filters, connector) -> NodePool.
    A strict selector that comes up short raises :class:`InsufficientNodes`.
    """
    selected: dict[str, list] = {}
    for key, selector in manifest.selectors:
        pool = query({k: v for k, v in selector.filters}, selector.connector)
        if selector.take is not None:
            nodes = pool.take(selector.take, strict=selector.strict)
        else:
            nodes = list(pool)
            if selector.strict and not nodes:
                raise InsufficientNodes(
                    f"selector {key!r} matched no nodes")
        selected[key] = nodes

    experiment = Experiment(experiment_id=manifest.name,
                            policies=manifest.policies)
    pipeline_specs = dict(manifest.pipelines)
    for pipeline_key, selector_key in manifest.assignments:
        pipeline = pipeline_specs[pipeline_key].to_pipeline(pipeline_key)
        experiment = experiment.map(pipeline, selected[selector_key])
    return experiment


def load_bundled_example() -> str:
    """The bundled three-pipeline coordination fixture manifest."""
    return (importlib.resources.files("expforge")
            .joinpath("data/listing1.yaml").read_text(encoding="utf-8"))
