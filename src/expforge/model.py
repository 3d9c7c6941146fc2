"""Experiment description language: tasks, stages, pipelines, node pools, experiments.

All values here are immutable after construction and safe to share across
threads. Composition operators (``Pipeline.then``, ``Experiment.map``,
``NodePool.filter``) return new values and never mutate their inputs, so two
structurally identical construction sequences always produce identical
canonical serializations and digests.

Each value has a JSON document (``to_doc``/``from_doc``), which records,
plans, bundles and reports carry between layers. One codec,
:class:`DocCodec`, writes and reads them: it walks the dataclass's fields
and converts each by its type hint. A class whose document is not just its
fields overrides the two methods, and the walk calls the override wherever
the class is nested: ``StagedFile`` adds a derived ``digest``,
``EnvironmentRequirement`` shares one empty value and keeps tuples, and
``TaskResult`` carries a bytes payload as base64.
"""

from __future__ import annotations

import base64
import collections.abc
import hashlib
import json
import math
from dataclasses import MISSING, dataclass, field, fields, replace
from enum import Enum
from typing import (Any, Callable, Iterable, Mapping, Sequence, TYPE_CHECKING,
                    get_args, get_origin, get_type_hints)

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


class DocCodec:
    """A dataclass's JSON document, one key per field.

    Each field converts by its resolved type hint: a nested ``DocCodec``
    class through its own ``to_doc``/``from_doc``, so that an override is
    called wherever its class is nested; a ``tuple`` to a list, a
    ``frozenset`` to a sorted list, a mapping to a dict of converted values
    and an enum to its value. Decoding coerces ``float``, ``int`` and
    ``bool`` fields, so an integer timeout decodes to the float it was
    written as; it ignores unknown keys, and a missing key takes its field's
    default. Any other value is its own document.

    A class's encoder and decoder are generated from its fields on first
    use, as ``dataclasses`` generates ``__init__``, so no value is
    dispatched on its type and they cost what hand-written ones cost. They
    replace the methods here on a class that does not override them.
    """

    def to_doc(self) -> dict:
        return _codec(type(self))[0](self)

    @classmethod
    def from_doc(cls, doc: Mapping[str, Any]) -> Any:
        return _codec(cls)[1](cls, doc)


def _codec(cls: type) -> tuple[Callable, Callable]:
    """``cls``'s generated encoder and decoder."""
    codec = cls.__dict__.get("_doc_codec")
    if codec is not None:
        return codec
    hints = get_type_hints(cls)
    namespace: dict[str, Any] = {}

    def ref(value: Any) -> str:
        """The name the generated code reads ``value`` under."""
        name = f"_{len(namespace)}"
        namespace[name] = value
        return name

    encoded, decoded = [], []
    for f in fields(cls):
        hint, key = hints[f.name], repr(f.name)
        encoded.append(f"{key}: {_convert(hint, f'self.{f.name}', ref, True)}")
        value = _convert(hint, f"doc[{key}]", ref, False)
        if f.default is not MISSING:
            value += f" if {key} in doc else {ref(f.default)}"
        elif f.default_factory is not MISSING:
            value += f" if {key} in doc else {ref(f.default_factory)}()"
        decoded.append(f"{f.name}={value}")
    exec(f"def to_doc(self):\n    return {{{', '.join(encoded)}}}\n"
         f"def from_doc(cls, doc):\n    return cls({', '.join(decoded)})\n",
         namespace)
    codec = cls._doc_codec = namespace["to_doc"], namespace["from_doc"]
    if "to_doc" not in cls.__dict__:
        cls.to_doc = codec[0]
    if "from_doc" not in cls.__dict__:
        cls.from_doc = classmethod(codec[1])
    return codec


def _convert(hint: Any, value: str, ref: Callable[[Any], str], encode: bool,
             depth: int = 0) -> str:
    """Source of an expression that converts ``value``, an expression of
    type ``hint``, to its document (``encode``) or from it."""
    origin, args = get_origin(hint), get_args(hint)
    item = f"v{depth}"
    if isinstance(hint, type) and issubclass(hint, DocCodec):
        return (f"{value}.to_doc()" if encode
                else f"{ref(hint)}.from_doc({value})")
    if isinstance(hint, type) and issubclass(hint, Enum):
        return f"{value}.value" if encode else f"{ref(hint)}({value})"
    if hint in (float, int, bool) and not encode:
        return f"{hint.__name__}({value})"
    if origin in (tuple, frozenset):
        container = origin.__name__ if not encode \
            else "list" if origin is tuple else "sorted"
        items = _convert(args[0], item, ref, encode, depth + 1)
        if items == item:
            return f"{container}({value})"
        listed = f"[{items} for {item} in {value}]"
        return listed if container == "list" else f"{container}({listed})"
    if origin is collections.abc.Mapping:
        items = _convert(args[1], item, ref, encode, depth + 1)
        if items == item:
            return f"dict({value})"
        return f"{{k{depth}: {items} for k{depth}, {item} in {value}.items()}}"
    return value


# ---------------------------------------------------------------------------
# nodes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NodeDescriptor(DocCodec):
    """One data-collection endpoint owned by a connector."""

    node_id: str
    kind: str
    attributes: Mapping[str, str] = field(default_factory=dict)
    connector_ref: str = ""

    def __post_init__(self):
        if self.kind not in NODE_KINDS:
            raise ValueError(f"unknown node kind {self.kind!r}")


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
class BinaryRequirement(DocCodec):
    name: str
    version: str | None = None


@dataclass(frozen=True)
class StagedFile(DocCodec):
    path: str
    content: str = ""

    @property
    def content_digest(self) -> str:
        return hashlib.sha256(self.content.encode("utf-8")).hexdigest()

    def to_doc(self) -> dict:
        return {"path": self.path, "content": self.content,
                "digest": self.content_digest}


@dataclass(frozen=True)
class EnvironmentRequirement(DocCodec):
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
        return super().from_doc(doc) if any(doc.values()) \
            else EMPTY_ENVIRONMENT


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
class TaskSpec(DocCodec):
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


@dataclass(frozen=True)
class Stage(DocCodec):
    """Tasks executed concurrently; the stage ends when all of them end."""

    tasks: tuple[TaskSpec, ...]

    def __post_init__(self):
        object.__setattr__(self, "tasks", tuple(self.tasks))
        if not self.tasks:
            raise EmptyStage("a stage requires at least one task")


@dataclass(frozen=True)
class Pipeline(DocCodec):
    """Ordered stages executed on one node; the unit of deployment and reporting."""

    pipeline_id: str = "pipeline"
    stages: tuple[Stage, ...] = ()
    early_stop: bool = False

    def __post_init__(self):
        object.__setattr__(self, "stages", tuple(self.stages))

    def task_names(self) -> list[str]:
        return [t.name for s in self.stages for t in s.tasks]

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

    def digested_doc(self) -> tuple[dict, str]:
        """``to_doc()`` and its digest, which is computed once per instance
        and kept for :meth:`digest`."""
        doc = self.to_doc()
        digest = self.__dict__.get("_digest")
        if digest is None:
            digest = digest_doc(doc)
            object.__setattr__(self, "_digest", digest)
        return doc, digest

    def digest(self) -> str:
        """Content identity over the canonical serialization, computed once
        per instance: its stages and tasks, params included, are read-only."""
        return self.__dict__.get("_digest") or self.digested_doc()[1]


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


class NodeState(str, Enum):
    PENDING = "pending"
    PREPARED = "prepared"
    PREPARE_FAILED = "prepare-failed"
    RUNNING = "running"  # its execution token is written
    REPORTED = "reported"
    UNREACHABLE = "unreachable"
    TIMED_OUT = "timed-out"
    CANCELLED = "cancelled"


# One node's lifecycle; every node enters it at PENDING. A launch that raised
# after its executor had started may still report: UNREACHABLE -> REPORTED.
VALID_NODE_TRANSITIONS: dict[NodeState, frozenset[NodeState]] = {
    NodeState.PENDING: frozenset({NodeState.PREPARED, NodeState.PREPARE_FAILED}),
    NodeState.PREPARED: frozenset({NodeState.RUNNING}),
    NodeState.PREPARE_FAILED: frozenset(),
    NodeState.RUNNING: frozenset({NodeState.REPORTED, NodeState.UNREACHABLE,
                                  NodeState.TIMED_OUT, NodeState.CANCELLED}),
    NodeState.REPORTED: frozenset(),
    NodeState.UNREACHABLE: frozenset({NodeState.REPORTED}),
    NodeState.TIMED_OUT: frozenset(),
    NodeState.CANCELLED: frozenset(),
}
# The states that end a node; each but REPORTED carries a reason.
TERMINAL_NODE_STATES = frozenset({NodeState.PREPARE_FAILED, NodeState.REPORTED,
                                  NodeState.UNREACHABLE, NodeState.TIMED_OUT,
                                  NodeState.CANCELLED})
# The states of a node whose execution token was written.
LAUNCHED_NODE_STATES = frozenset({NodeState.RUNNING, NodeState.REPORTED,
                                  NodeState.UNREACHABLE, NodeState.TIMED_OUT,
                                  NodeState.CANCELLED})


# ---------------------------------------------------------------------------
# task results
# ---------------------------------------------------------------------------

class Outcome(str, Enum):
    SUCCESS = "success"
    FAILURE = "failure"
    TIMEOUT = "timeout"
    SKIPPED = "skipped"


@dataclass(frozen=True)
class TaskResult(DocCodec):
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
        """A bytes payload travels base64-encoded, as ``payload_b64``.
        Written out by hand: every report encodes each of its results."""
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
        if doc.get("payload_b64") is not None:
            doc = {**doc, "payload": base64.b64decode(doc["payload_b64"])}
        return super().from_doc(doc)


# ---------------------------------------------------------------------------
# experiments
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Policies(DocCodec):
    deploy_strictness: str = "all-or-nothing"  # or "best-effort"
    experiment_timeout_s: float = DEFAULT_EXPERIMENT_TIMEOUT_S

    def __post_init__(self):
        if self.deploy_strictness not in ("all-or-nothing", "best-effort"):
            raise ValueError(
                f"unknown deploy_strictness {self.deploy_strictness!r}")
        if not valid_timeout(self.experiment_timeout_s):
            raise ValueError("experiment_timeout_s must be a finite number "
                             f"> 0: {self.experiment_timeout_s!r}")


@dataclass(frozen=True)
class Assignment(DocCodec):
    pipeline: Pipeline
    nodes: tuple[NodeDescriptor, ...]


@dataclass(frozen=True)
class Experiment(DocCodec):
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


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ValidationIssue(DocCodec):
    code: str
    subject: str
    message: str

    def __str__(self) -> str:
        return f"[{self.code}] {self.subject}: {self.message}"


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
