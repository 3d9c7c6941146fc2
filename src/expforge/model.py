"""Experiment description language: tasks, stages, pipelines, node pools, experiments.

All values here are immutable after construction and safe to share across
threads. Composition operators (``Pipeline.then``, ``Experiment.map``,
``NodePool.filter``) return new values and never mutate their inputs, so two
structurally identical construction sequences always produce identical
canonical serializations and digests.
"""

from __future__ import annotations

import base64
import hashlib
import json
import math
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Any, Iterable, Mapping, Sequence, TYPE_CHECKING

from .errors import (
    DuplicateTaskName,
    EmptyNodeList,
    EmptyStage,
    EnvironmentConflict,
    InsufficientNodes,
    NodeAlreadyAssigned,
    UnsupportedTaskForKind,
)

if TYPE_CHECKING:  # pragma: no cover
    from .registry import TaskRegistry

NODE_KINDS = ("linux-shell", "ssh-host", "simulated")

DEFAULT_TASK_TIMEOUT_S = 300.0
DEFAULT_EXPERIMENT_TIMEOUT_S = 3600.0


def valid_timeout(seconds: float) -> bool:
    """Every timeout, of a task or of an experiment, is a finite number > 0:
    an infinite one cannot be waited on and a NaN one never passes."""
    return math.isfinite(seconds) and seconds > 0


# ---------------------------------------------------------------------------
# canonical serialization
# ---------------------------------------------------------------------------

def _normalize_newlines(value: Any) -> Any:
    if isinstance(value, str):
        return value.replace("\r\n", "\n").replace("\r", "\n")
    if isinstance(value, dict):
        return {k: _normalize_newlines(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_normalize_newlines(v) for v in value]
    return value


def canonical_json(doc: Any) -> str:
    """Deterministic text form of a document: sorted keys, normalized newlines.

    ``ensure_ascii`` writes every CR as ``\\r``, so text without that escape
    holds no string that newline normalization would change.
    """
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"),
                      ensure_ascii=True)
    if "\\r" not in text:
        return text
    return json.dumps(_normalize_newlines(doc), sort_keys=True,
                      separators=(",", ":"), ensure_ascii=True)


def digest_doc(doc: Any) -> str:
    return hashlib.sha256(canonical_json(doc).encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# nodes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NodeDescriptor:
    """One data-collection endpoint owned by a connector."""

    node_id: str
    kind: str
    attributes: Mapping[str, str] = field(default_factory=dict)
    connector_ref: str = ""

    def __post_init__(self):
        if self.kind not in NODE_KINDS:
            raise ValueError(f"unknown node kind {self.kind!r}")

    def to_doc(self) -> dict:
        return {
            "node_id": self.node_id,
            "kind": self.kind,
            "attributes": dict(self.attributes),
            "connector_ref": self.connector_ref,
        }

    @classmethod
    def from_doc(cls, doc: Mapping[str, Any]) -> "NodeDescriptor":
        return cls(
            node_id=doc["node_id"],
            kind=doc["kind"],
            attributes=dict(doc.get("attributes", {})),
            connector_ref=doc.get("connector_ref", ""),
        )


@dataclass(frozen=True)
class NodePool:
    """Ordered pool of nodes; selection happens through filter/take."""

    nodes: tuple[NodeDescriptor, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "nodes", tuple(self.nodes))
        seen: set[str] = set()
        for node in self.nodes:
            if node.node_id in seen:
                raise ValueError(f"duplicate node_id in pool: {node.node_id}")
            seen.add(node.node_id)

    def __len__(self) -> int:
        return len(self.nodes)

    def __iter__(self):
        return iter(self.nodes)

    def filter(self, key: str, value: str) -> "NodePool":
        """Keep nodes whose attribute ``key`` equals ``value``, order preserved.

        Nodes missing the attribute are excluded rather than erroring.
        """
        return NodePool(tuple(n for n in self.nodes
                              if n.attributes.get(key) == value))

    def take(self, n: int, strict: bool = False) -> list[NodeDescriptor]:
        """Return the first min(n, len) nodes.

        Selection is deterministic head-of-list so repeated runs of the same
        experiment pick the same nodes. With ``strict=True`` a short pool
        raises :class:`InsufficientNodes` instead of returning fewer nodes.
        """
        if n < 0:
            raise ValueError("take(n) requires n >= 0")
        if strict and len(self.nodes) < n:
            raise InsufficientNodes(
                f"requested {n} nodes, pool has {len(self.nodes)}")
        return list(self.nodes[:n])


# ---------------------------------------------------------------------------
# environment requirements
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BinaryRequirement:
    name: str
    version: str | None = None

    def to_doc(self) -> dict:
        return {"name": self.name, "version": self.version}

    @classmethod
    def from_doc(cls, doc: Mapping[str, Any]) -> "BinaryRequirement":
        return cls(name=doc["name"], version=doc.get("version"))


@dataclass(frozen=True)
class StagedFile:
    path: str
    content: str = ""

    @property
    def content_digest(self) -> str:
        return hashlib.sha256(self.content.encode("utf-8")).hexdigest()

    def to_doc(self) -> dict:
        return {"path": self.path, "content": self.content,
                "digest": self.content_digest}

    @classmethod
    def from_doc(cls, doc: Mapping[str, Any]) -> "StagedFile":
        return cls(path=doc["path"], content=doc.get("content", ""))


@dataclass(frozen=True)
class EnvironmentRequirement:
    """What a task needs on the node before the pipeline may start."""

    setup_commands: tuple[str, ...] = ()
    binaries: tuple[BinaryRequirement, ...] = ()
    staged_files: tuple[StagedFile, ...] = ()
    verify_commands: tuple[str, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "setup_commands", tuple(self.setup_commands))
        object.__setattr__(self, "binaries", tuple(self.binaries))
        object.__setattr__(self, "staged_files", tuple(self.staged_files))
        object.__setattr__(self, "verify_commands", tuple(self.verify_commands))

    def is_empty(self) -> bool:
        return not (self.setup_commands or self.binaries
                    or self.staged_files or self.verify_commands)

    def to_doc(self) -> dict:
        """Sequences stay tuples, which JSON writes as arrays: the doc of an
        empty environment holds only the ``()`` singleton, so the cycle
        collector never tracks it."""
        return {
            "setup_commands": self.setup_commands,
            "binaries": tuple(b.to_doc() for b in self.binaries),
            "staged_files": tuple(f.to_doc() for f in self.staged_files),
            "verify_commands": self.verify_commands,
        }

    @classmethod
    def from_doc(cls, doc: Mapping[str, Any]) -> "EnvironmentRequirement":
        """An empty doc, the common case, decodes to the shared
        :data:`EMPTY_ENVIRONMENT`."""
        if not any(doc.values()):
            return EMPTY_ENVIRONMENT
        return cls(
            setup_commands=tuple(doc.get("setup_commands", ())),
            binaries=tuple(BinaryRequirement.from_doc(b)
                           for b in doc.get("binaries", ())),
            staged_files=tuple(StagedFile.from_doc(f)
                               for f in doc.get("staged_files", ())),
            verify_commands=tuple(doc.get("verify_commands", ())),
        )


EMPTY_ENVIRONMENT = EnvironmentRequirement()


def merge_requirements(reqs: Sequence[EnvironmentRequirement]) -> EnvironmentRequirement:
    """Union of requirements preserving first-occurrence order.

    Exact duplicates collapse. The same binary or staged file declared twice
    with different versions/contents is a hard :class:`EnvironmentConflict`:
    a single node environment cannot satisfy both.
    """
    setup: list[str] = []
    verify: list[str] = []
    binaries: dict[str, BinaryRequirement] = {}
    files: dict[str, StagedFile] = {}
    for req in reqs:
        for cmd in req.setup_commands:
            if cmd not in setup:
                setup.append(cmd)
        for binary in req.binaries:
            existing = binaries.get(binary.name)
            if existing is None:
                binaries[binary.name] = binary
            elif existing.version != binary.version:
                raise EnvironmentConflict(
                    f"binary {binary.name!r} required at both "
                    f"{existing.version!r} and {binary.version!r}",
                    first=existing, second=binary)
        for staged in req.staged_files:
            existing_file = files.get(staged.path)
            if existing_file is None:
                files[staged.path] = staged
            elif existing_file.content_digest != staged.content_digest:
                raise EnvironmentConflict(
                    f"staged file {staged.path!r} declared with two different contents",
                    first=existing_file, second=staged)
        for cmd in req.verify_commands:
            if cmd not in verify:
                verify.append(cmd)
    return EnvironmentRequirement(
        setup_commands=tuple(setup),
        binaries=tuple(binaries.values()),
        staged_files=tuple(files.values()),
        verify_commands=tuple(verify),
    )


# ---------------------------------------------------------------------------
# tasks, stages, pipelines
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TaskSpec:
    """One unit of data-collection work inside a stage.

    ``name`` may be left empty; ``Pipeline.then`` assigns a unique one
    (the task type, ordinal-suffixed on repeats).
    """

    task_type: str
    name: str = ""
    params: Mapping[str, Any] = field(default_factory=dict)
    timeout_s: float = DEFAULT_TASK_TIMEOUT_S
    environment: EnvironmentRequirement = EMPTY_ENVIRONMENT

    def __post_init__(self):
        if not self.task_type:
            raise ValueError("task_type must be non-empty")
        if not valid_timeout(self.timeout_s):
            raise ValueError(
                f"timeout_s must be a finite number > 0: {self.timeout_s!r}")

    def to_doc(self) -> dict:
        return {
            "task_type": self.task_type,
            "name": self.name,
            "params": dict(self.params),
            "timeout_s": self.timeout_s,
            "environment": self.environment.to_doc(),
        }

    @classmethod
    def from_doc(cls, doc: Mapping[str, Any]) -> "TaskSpec":
        return cls(
            task_type=doc["task_type"],
            name=doc.get("name", ""),
            params=dict(doc.get("params", {})),
            timeout_s=float(doc.get("timeout_s", DEFAULT_TASK_TIMEOUT_S)),
            environment=EnvironmentRequirement.from_doc(doc.get("environment", {})),
        )


@dataclass(frozen=True)
class Stage:
    """Tasks executed concurrently; the stage ends when all of them end."""

    tasks: tuple[TaskSpec, ...]

    def __post_init__(self):
        object.__setattr__(self, "tasks", tuple(self.tasks))
        if not self.tasks:
            raise EmptyStage("a stage requires at least one task")

    def to_doc(self) -> dict:
        return {"tasks": [t.to_doc() for t in self.tasks]}

    @classmethod
    def from_doc(cls, doc: Mapping[str, Any]) -> "Stage":
        return cls(tasks=tuple(TaskSpec.from_doc(t) for t in doc["tasks"]))


@dataclass(frozen=True)
class Pipeline:
    """Ordered stages executed on one node; the unit of deployment and reporting."""

    pipeline_id: str = "pipeline"
    stages: tuple[Stage, ...] = ()
    early_stop: bool = False

    def __post_init__(self):
        object.__setattr__(self, "stages", tuple(self.stages))

    def task_names(self) -> list[str]:
        return [t.name for s in self.stages for t in s.tasks]

    def task_count(self) -> int:
        return sum(len(s.tasks) for s in self.stages)

    def then(self, tasks: TaskSpec | Iterable[TaskSpec]) -> "Pipeline":
        """Append a stage; pure composition, the receiver is unchanged.

        Tasks are named in order. An unnamed task takes the first of its
        type, the type suffixed ``-2``, ``-3``, ... that no earlier task in
        the pipeline uses (``sleep``, ``sleep-2``, ...). A user-supplied
        name that collides with any earlier task raises
        :class:`DuplicateTaskName`.

        Naming costs amortised O(1) per task. The pipeline keeps its used
        names and, per task type, the lowest ordinal that may still be free
        (names are only ever added, so it never goes down), and hands both
        to the pipeline it returns. A pipeline made any other way, or
        extended a second time, rebuilds them once in O(tasks).
        """
        if isinstance(tasks, TaskSpec):
            tasks = [tasks]
        tasks = list(tasks)
        if not tasks:
            raise EmptyStage("then() requires at least one task")
        # Popping takes the names from the receiver, so no two pipelines
        # share them, even when two threads extend the same one.
        used, free_from = (self.__dict__.pop("_names", None)
                           or (set(self.task_names()), {}))
        named: list[TaskSpec] = []
        for task in tasks:
            if task.name:
                if task.name in used:
                    raise DuplicateTaskName(
                        f"task name {task.name!r} already used in pipeline "
                        f"{self.pipeline_id!r}")
                named.append(task)
                used.add(task.name)
            else:
                task_type = task.task_type
                ordinal = free_from.get(task_type, 1)
                candidate = (task_type if ordinal == 1
                             else f"{task_type}-{ordinal}")
                while candidate in used:
                    ordinal += 1
                    candidate = f"{task_type}-{ordinal}"
                named.append(replace(task, name=candidate))
                used.add(candidate)
                free_from[task_type] = ordinal + 1
        pipeline = replace(self, stages=self.stages + (Stage(tuple(named)),))
        object.__setattr__(pipeline, "_names", (used, free_from))
        return pipeline

    def to_doc(self) -> dict:
        return {
            "pipeline_id": self.pipeline_id,
            "early_stop": self.early_stop,
            "stages": [s.to_doc() for s in self.stages],
        }

    @classmethod
    def from_doc(cls, doc: Mapping[str, Any]) -> "Pipeline":
        return cls(
            pipeline_id=doc["pipeline_id"],
            early_stop=bool(doc.get("early_stop", False)),
            stages=tuple(Stage.from_doc(s) for s in doc.get("stages", ())),
        )

    def digest(self) -> str:
        """Content identity over the canonical serialization, computed once
        per instance: its stages and tasks, params included, are read-only."""
        digest = self.__dict__.get("_digest")
        if digest is None:
            digest = digest_doc(self.to_doc())
            object.__setattr__(self, "_digest", digest)
        return digest


# ---------------------------------------------------------------------------
# lifecycle statuses
# ---------------------------------------------------------------------------

class Status(str, Enum):
    SUBMITTED = "SUBMITTED"
    COMPILING = "COMPILING"
    DEPLOYING = "DEPLOYING"
    READY = "READY"
    RUNNING = "RUNNING"
    FINISHED = "FINISHED"
    FAILED = "FAILED"
    CANCELLED = "CANCELLED"


TERMINAL_STATUSES = frozenset({Status.FINISHED, Status.FAILED, Status.CANCELLED})

# The full transition relation. COMPILING -> FAILED covers compile errors;
# every non-terminal status may be cancelled.
VALID_TRANSITIONS: dict[Status, frozenset[Status]] = {
    Status.SUBMITTED: frozenset({Status.COMPILING, Status.CANCELLED}),
    Status.COMPILING: frozenset({Status.DEPLOYING, Status.FAILED, Status.CANCELLED}),
    Status.DEPLOYING: frozenset({Status.READY, Status.FAILED, Status.CANCELLED}),
    Status.READY: frozenset({Status.RUNNING, Status.CANCELLED}),
    Status.RUNNING: frozenset({Status.FINISHED, Status.FAILED, Status.CANCELLED}),
    Status.FINISHED: frozenset(),
    Status.FAILED: frozenset(),
    Status.CANCELLED: frozenset(),
}


def is_valid_transition(src: Status, dst: Status) -> bool:
    return dst in VALID_TRANSITIONS[Status(src)]


# ---------------------------------------------------------------------------
# task results
# ---------------------------------------------------------------------------

class Outcome(str, Enum):
    SUCCESS = "success"
    FAILURE = "failure"
    TIMEOUT = "timeout"
    SKIPPED = "skipped"


@dataclass(frozen=True)
class TaskResult:
    """Outcome of one task execution, buffered on the node until pipeline end.

    Timestamps are captured twice: wall clock for humans and cross-node
    grouping, monotonic clock for ordering/overhead arithmetic. Skipped
    results never ran and carry no timestamps.
    """

    task_name: str
    node_id: str
    stage_index: int
    outcome: Outcome
    started_wall: float | None = None
    finished_wall: float | None = None
    started_mono: float | None = None
    finished_mono: float | None = None
    payload: str | bytes | None = None
    error_text: str | None = None

    def __post_init__(self):
        if self.outcome is Outcome.SKIPPED:
            if self.started_wall is not None or self.finished_wall is not None:
                raise ValueError("skipped results carry no timestamps")
        else:
            if self.started_mono is None or self.finished_mono is None:
                raise ValueError("non-skipped results need timestamps")
            if self.finished_mono < self.started_mono:
                raise ValueError("finished_at must be >= started_at")

    def duration_s(self) -> float | None:
        if self.started_mono is None or self.finished_mono is None:
            return None
        return self.finished_mono - self.started_mono

    def to_doc(self) -> dict:
        doc: dict[str, Any] = {
            "task_name": self.task_name,
            "node_id": self.node_id,
            "stage_index": self.stage_index,
            "outcome": self.outcome.value,
            "started_wall": self.started_wall,
            "finished_wall": self.finished_wall,
            "started_mono": self.started_mono,
            "finished_mono": self.finished_mono,
            "error_text": self.error_text,
        }
        if isinstance(self.payload, bytes):
            doc["payload_b64"] = base64.b64encode(self.payload).decode("ascii")
        else:
            doc["payload"] = self.payload
        return doc

    @classmethod
    def from_doc(cls, doc: Mapping[str, Any]) -> "TaskResult":
        payload: str | bytes | None
        if doc.get("payload_b64") is not None:
            payload = base64.b64decode(doc["payload_b64"])
        else:
            payload = doc.get("payload")
        return cls(
            task_name=doc["task_name"],
            node_id=doc["node_id"],
            stage_index=int(doc["stage_index"]),
            outcome=Outcome(doc["outcome"]),
            started_wall=doc.get("started_wall"),
            finished_wall=doc.get("finished_wall"),
            started_mono=doc.get("started_mono"),
            finished_mono=doc.get("finished_mono"),
            payload=payload,
            error_text=doc.get("error_text"),
        )


# ---------------------------------------------------------------------------
# experiments
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Policies:
    deploy_strictness: str = "all-or-nothing"  # or "best-effort"
    experiment_timeout_s: float = DEFAULT_EXPERIMENT_TIMEOUT_S

    def __post_init__(self):
        if self.deploy_strictness not in ("all-or-nothing", "best-effort"):
            raise ValueError(
                f"unknown deploy_strictness {self.deploy_strictness!r}")
        if not valid_timeout(self.experiment_timeout_s):
            raise ValueError("experiment_timeout_s must be a finite number "
                             f"> 0: {self.experiment_timeout_s!r}")

    def to_doc(self) -> dict:
        return {"deploy_strictness": self.deploy_strictness,
                "experiment_timeout_s": self.experiment_timeout_s}

    @classmethod
    def from_doc(cls, doc: Mapping[str, Any]) -> "Policies":
        return cls(
            deploy_strictness=doc.get("deploy_strictness", "all-or-nothing"),
            experiment_timeout_s=float(
                doc.get("experiment_timeout_s", DEFAULT_EXPERIMENT_TIMEOUT_S)),
        )


@dataclass(frozen=True)
class Assignment:
    pipeline: Pipeline
    nodes: tuple[NodeDescriptor, ...]

    def to_doc(self) -> dict:
        return {"pipeline": self.pipeline.to_doc(),
                "nodes": [n.to_doc() for n in self.nodes]}

    @classmethod
    def from_doc(cls, doc: Mapping[str, Any]) -> "Assignment":
        return cls(pipeline=Pipeline.from_doc(doc["pipeline"]),
                   nodes=tuple(NodeDescriptor.from_doc(n) for n in doc["nodes"]))


@dataclass(frozen=True)
class Experiment:
    """Named mapping of pipelines to node lists plus run policies.

    The description is immutable; lifecycle status lives in the director's
    :class:`~expforge.store.ExperimentRecord`, which enforces the transition
    relation defined by :data:`VALID_TRANSITIONS`.
    """

    experiment_id: str
    assignments: tuple[Assignment, ...] = ()
    policies: Policies = Policies()

    def __post_init__(self):
        if not self.experiment_id:
            raise ValueError("experiment_id must be non-empty")

    def assigned_node_ids(self) -> set[str]:
        return {n.node_id for a in self.assignments for n in a.nodes}

    def all_nodes(self) -> list[NodeDescriptor]:
        return [n for a in self.assignments for n in a.nodes]

    def map(self, pipeline: Pipeline, nodes: Sequence[NodeDescriptor]) -> "Experiment":
        """Assign ``pipeline`` to ``nodes``; a node joins at most one assignment."""
        nodes = tuple(nodes)
        if not nodes:
            raise EmptyNodeList(
                f"map() on {self.experiment_id!r} requires at least one node")
        taken = self.assigned_node_ids()
        fresh: set[str] = set()
        for node in nodes:
            if node.node_id in taken or node.node_id in fresh:
                raise NodeAlreadyAssigned(
                    f"node {node.node_id!r} already assigned in experiment "
                    f"{self.experiment_id!r}")
            fresh.add(node.node_id)
        return replace(self, assignments=self.assignments
                       + (Assignment(pipeline, nodes),))

    def to_doc(self) -> dict:
        return {
            "experiment_id": self.experiment_id,
            "assignments": [a.to_doc() for a in self.assignments],
            "policies": self.policies.to_doc(),
        }

    @classmethod
    def from_doc(cls, doc: Mapping[str, Any]) -> "Experiment":
        return cls(
            experiment_id=doc["experiment_id"],
            assignments=tuple(Assignment.from_doc(a)
                              for a in doc.get("assignments", ())),
            policies=Policies.from_doc(doc.get("policies", {})),
        )


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ValidationIssue:
    code: str
    subject: str
    message: str

    def __str__(self) -> str:
        return f"[{self.code}] {self.subject}: {self.message}"

    def to_doc(self) -> dict:
        return {"code": self.code, "subject": self.subject,
                "message": self.message}


# For one (assignment index, node kind): the implementation id of each task
# by name, and the merged environment of the pipeline on that kind.
Resolution = tuple[dict[str, str], EnvironmentRequirement]


def validate_experiment(exp: Experiment,
                        registry: "TaskRegistry") -> list[ValidationIssue]:
    """Check an experiment against the registry; returns issues, never raises.

    Empty result means the experiment is deployable: every task resolves to an
    implementation for every assigned node kind and the per-pipeline
    environment requirements merge without conflict.
    """
    return check_experiment(exp, registry)[0]


def check_experiment(exp: Experiment, registry: "TaskRegistry") -> tuple[
        list[ValidationIssue], dict[tuple[int, str], Resolution]]:
    """:func:`validate_experiment`'s issues, plus the :data:`Resolution` of
    every (assignment index, node kind), which is complete only when there
    are no issues. Each task is resolved once per kind of its assignment.
    An empty stage or a bad timeout cannot get this far: ``Stage`` and
    ``TaskSpec`` refuse them when they are built."""
    issues: list[ValidationIssue] = []
    resolved: dict[tuple[int, str], Resolution] = {}

    seen_nodes: set[str] = set()
    for assignment in exp.assignments:
        if not assignment.nodes:
            issues.append(ValidationIssue(
                "empty-node-list", assignment.pipeline.pipeline_id,
                "assignment has no nodes"))
        for node in assignment.nodes:
            if node.node_id in seen_nodes:
                issues.append(ValidationIssue(
                    "node-reassigned", node.node_id,
                    "node appears in more than one assignment"))
            seen_nodes.add(node.node_id)

    for index, assignment in enumerate(exp.assignments):
        pipeline = assignment.pipeline
        names: set[str] = set()
        for stage in pipeline.stages:
            for task in stage.tasks:
                if task.name in names:
                    issues.append(ValidationIssue(
                        "duplicate-task-name", pipeline.pipeline_id,
                        f"task name {task.name!r} used twice"))
                names.add(task.name)

        kinds = sorted({n.kind for n in assignment.nodes})
        for kind in kinds:
            impl_ids: dict[str, str] = {}
            reqs = []
            for stage in pipeline.stages:
                for task in stage.tasks:
                    try:
                        impl_id = registry.resolve(task.task_type, kind)
                    except UnsupportedTaskForKind:
                        issues.append(ValidationIssue(
                            "unsupported-task", task.name,
                            f"task type {task.task_type!r} has no "
                            f"implementation for kind {kind!r}"))
                        continue
                    impl_ids[task.name] = impl_id
                    reqs.append(registry.implementation(impl_id).environment)
                    reqs.append(task.environment)
            try:
                resolved[(index, kind)] = (impl_ids, merge_requirements(reqs))
            except EnvironmentConflict as exc:
                issues.append(ValidationIssue(
                    "environment-conflict",
                    f"{pipeline.pipeline_id}/{kind}", str(exc)))

    return issues, resolved
