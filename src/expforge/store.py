"""Experiment records and their pluggable persistence.

A store owns the committed copy of each record it holds. ``load`` hands out
a snapshot whose containers the caller may change; ``save`` commits a
changed snapshot, durably first and then in memory; ``read`` applies a
function to the committed record without copying it. The documents inside
a record (experiment and plan docs, transition entries, results, report
metadata, flags, errors, cleanup outcomes, artifact metadata) are never
changed in place, so snapshots share them, and a committed record is never
changed at all: a save replaces it. The task environments inside the
experiment and plan docs hold their sequences as tuples, which nothing can
change in place: the model's doc codec writes each task's environment
through ``EnvironmentRequirement.to_doc``. JSON writes them as arrays, so a
record read from disk holds lists.
Serializing writers per experiment is the director's job.

``MemoryStore`` keeps records as objects. ``FileStore`` keeps one file per
experiment, ``<path_component(id)>.jsonl``. Its first line is the whole
record doc. A non-terminal save appends one fsynced line, its commit point:
the changed keys of maps (a node event merges one entry of ``nodes``), the
tails appended to lists, and any other changed field; a save that changes
nothing writes nothing. A load applies the later lines to the first and
stops at one that is torn or does not parse; the next append overwrites
it. ``create``, the save that makes a record terminal and any later save
of a terminal record replace the whole file with a one-line doc: temp file,
fsync, rename, then an fsync of the root; a temp file that a crash left
in the root is removed when a store opens it. Non-terminal records stay in
memory; terminal ones are read from disk. A record written before the node
map (with ``deploy_state`` and ``exec_state``) is refused on load, and a
directory of the earlier per-experiment layout is not read; neither is
migrated.
"""

from __future__ import annotations

import contextlib
import copy
import hashlib
import json
import os
import string
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Container, Mapping, TypeVar

from .errors import (DuplicateExperimentName, ExpforgeError, InvalidTransition,
                     UnknownExperiment)
from .model import (LAUNCHED_NODE_STATES, TERMINAL_NODE_STATES,
                    VALID_NODE_TRANSITIONS, NodeState, Status, TERMINAL_STATUSES,
                    is_valid_transition)

T = TypeVar("T")

_SAFE_CHARS = frozenset(string.ascii_letters + string.digits + "-_.")


def path_component(name: str) -> str:
    """One file name for an arbitrary id; distinct ids get distinct names.

    An id of at most 64 characters from ``[A-Za-z0-9._-]``, and not made of
    dots only, is its own name. Any other id keeps its first safe characters
    and gains ``~`` and a digest of the id, so the name holds no separator
    or NUL and is never empty, ``.`` or ``..``.
    """
    if len(name) <= 64 and name.strip(".") and _SAFE_CHARS.issuperset(name):
        return name
    kept = "".join(c if c in _SAFE_CHARS else "_" for c in name[:32])
    digest = hashlib.sha256(name.encode("utf-8", "surrogatepass")).hexdigest()
    return f"{kept}~{digest[:24]}"


@dataclass
class ExperimentRecord:
    """Everything the director persists about one experiment.

    ``transition`` is the only way the status changes; it enforces the
    lifecycle relation and appends to the transition log so recovery and the
    property tests can audit every persisted edge.
    """

    experiment_id: str
    experiment_doc: dict
    status: Status = Status.SUBMITTED
    created_at: float = field(default_factory=time.time)
    transitions: list[dict] = field(default_factory=list)
    nodes: dict[str, dict] = field(default_factory=dict)
    plan_doc: dict | None = None
    results: list[dict] = field(default_factory=list)
    reports: dict[str, dict] = field(default_factory=dict)
    flags: dict[str, dict] = field(default_factory=dict)
    errors: list[dict] = field(default_factory=list)
    cleanup: dict[str, dict] = field(default_factory=dict)
    artifacts: list[dict] = field(default_factory=list)
    deadline_wall: float | None = None

    def transition(self, to: Status, at: float | None = None) -> None:
        to = Status(to)
        if not is_valid_transition(self.status, to):
            raise InvalidTransition(
                f"{self.experiment_id}: {self.status.value} -> {to.value}")
        self.transitions.append({
            "from": self.status.value,
            "to": to.value,
            "at": at if at is not None else time.time(),
        })
        self.status = to

    def node_transition(self, node_id: str, to: NodeState,
                        reason: str | None = None, at: float | None = None,
                        **detail: Any) -> None:
        """The only way a node's state changes: a node enters at PENDING and
        then follows ``VALID_NODE_TRANSITIONS``, and every terminal state but
        REPORTED needs a reason. The node's entry is replaced by one stamped
        ``at`` that adds ``reason`` and ``detail`` (a token, a command)."""
        node = self.nodes.get(node_id, {})
        src = node.get("state")
        edges = VALID_NODE_TRANSITIONS[src] if src else (NodeState.PENDING,)
        if to not in edges or not reason and to in TERMINAL_NODE_STATES \
                and to is not NodeState.REPORTED:
            raise InvalidTransition(f"{self.experiment_id}: node {node_id} "
                                    f"{src} -> {to.value}, reason {reason!r}")
        self.nodes[node_id] = {**node, **detail, "state": to.value,
                               "at": at if at is not None else time.time(),
                               **({"reason": reason} if reason else {})}

    def nodes_in(self, states: Container[str]) -> list[str]:
        return [n for n, s in self.nodes.items() if s["state"] in states]

    def prepared_nodes(self) -> list[str]:
        return self.nodes_in(LAUNCHED_NODE_STATES | {NodeState.PREPARED})

    def pending_execution(self) -> list[str]:
        """Prepared nodes that have not reached a terminal state."""
        return self.nodes_in((NodeState.PREPARED, NodeState.RUNNING))

    def snapshot(self) -> "ExperimentRecord":
        """A copy whose containers can change without touching this record.

        The documents inside the containers are shared; nothing changes them
        in place.
        """
        clone = copy.copy(self)
        clone.transitions = list(self.transitions)
        clone.nodes = {n: dict(s) for n, s in self.nodes.items()}
        clone.results = list(self.results)
        clone.reports = dict(self.reports)
        clone.flags = dict(self.flags)
        clone.errors = list(self.errors)
        clone.cleanup = dict(self.cleanup)
        clone.artifacts = list(self.artifacts)
        return clone

    def to_doc(self) -> dict:
        return {**{name: getattr(self, name) for name in self.__dataclass_fields__},
                "status": self.status.value}

    @classmethod
    def from_doc(cls, doc: Mapping[str, Any]) -> "ExperimentRecord":
        if "nodes" not in doc:
            raise ExpforgeError(f"record {doc['experiment_id']!r} predates the "
                                "per-node map (deploy_state, exec_state)")
        return cls(**{**{name: doc[name] for name in cls.__dataclass_fields__
                         if name in doc}, "status": Status(doc["status"])})


class Store:
    """Persistence interface; the store owns each record's committed copy."""

    def create(self, record: ExperimentRecord) -> None:
        raise NotImplementedError

    def save(self, record: ExperimentRecord) -> None:
        """Commit ``record``: durably first, then in memory."""
        raise NotImplementedError

    def list_ids(self) -> list[str]:
        raise NotImplementedError

    def _committed(self, experiment_id: str) -> ExperimentRecord:
        """The committed record, which nobody may change; raises
        UnknownExperiment."""
        raise NotImplementedError

    def load(self, experiment_id: str) -> ExperimentRecord:
        """A snapshot of the committed record, free to change and save."""
        return self._committed(experiment_id).snapshot()

    def read(self, experiment_id: str,
             view: Callable[[ExperimentRecord], T]) -> T:
        """``view`` applied to the committed record, which is not copied.

        ``view`` must not change the record, nor return a container of it
        that its caller will change.
        """
        return view(self._committed(experiment_id))

    def exists(self, experiment_id: str) -> bool:
        try:
            self._committed(experiment_id)
            return True
        except UnknownExperiment:
            return False


def _unknown(experiment_id: str) -> UnknownExperiment:
    return UnknownExperiment(f"unknown experiment {experiment_id!r}")


def _duplicate(experiment_id: str) -> DuplicateExperimentName:
    return DuplicateExperimentName(
        f"experiment name {experiment_id!r} already exists")


class MemoryStore(Store):
    def __init__(self):
        self._records: dict[str, ExperimentRecord] = {}
        self._lock = threading.Lock()

    def create(self, record: ExperimentRecord) -> None:
        committed = record.snapshot()
        with self._lock:
            if record.experiment_id in self._records:
                raise _duplicate(record.experiment_id)
            self._records[record.experiment_id] = committed

    def save(self, record: ExperimentRecord) -> None:
        committed = record.snapshot()
        with self._lock:
            self._records[record.experiment_id] = committed

    def _committed(self, experiment_id: str) -> ExperimentRecord:
        try:
            return self._records[experiment_id]
        except KeyError:
            raise _unknown(experiment_id) from None

    def list_ids(self) -> list[str]:
        with self._lock:
            return sorted(self._records)


def _encode(doc: Any) -> bytes:
    return json.dumps(doc, separators=(",", ":")).encode("utf-8")


def _write_file(path: Path, data: bytes) -> None:
    """Replace ``path`` by ``data``: temp file, fsync, rename, then the
    directory fsynced, so the new name survives a power loss too."""
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=".tmp-")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise
    _fsync_dir(path.parent)


def _append(path: Path, data: bytes, end: int) -> int:
    """Write ``data`` at ``end`` over any torn line, fsync; the new end."""
    with open(path, "r+b", buffering=0) as handle:
        handle.truncate(end)
        if os.pwrite(handle.fileno(), data, end) < len(data):
            raise OSError(f"short write to {path}")
        os.fsync(handle.fileno())
    return end + len(data)


def _fsync_dir(path: Path) -> None:
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _make_dirs(path: Path) -> None:
    """``mkdir -p`` that leaves every new directory durable: each missing
    ancestor is made from the top down and its parent fsynced, so a file
    fsynced inside it survives a power loss. An existing directory costs
    nothing."""
    missing = []
    while not path.is_dir():
        missing.append(path)
        path = path.parent
    for directory in reversed(missing):
        with contextlib.suppress(FileExistsError):  # made by a racing caller
            directory.mkdir()
        _fsync_dir(directory.parent)


def _changed(new: Any, old: Any) -> bool:
    return new is not old and new != old


def _delta(new: dict, old: dict) -> dict:
    """The journal line from record doc ``old`` to ``new``: the changed keys
    of maps that lost none, the tails of lists, and other changed fields."""
    changes, merges, tails = {}, {}, {}
    for key, value in new.items():
        was = old[key]
        if not _changed(value, was):
            continue
        if isinstance(value, dict) and isinstance(was, dict) \
                and was.keys() <= value.keys():
            merges[key] = {k: v for k, v in value.items()
                           if k not in was or _changed(v, was[k])}
        elif isinstance(value, list) and value[:len(was)] == was:
            tails[key] = value[len(was):]
        else:
            changes[key] = value
    return {"set": changes, "merge": merges, "extend": tails}


class FileStore(Store):
    """One file per experiment under ``root`` (see the module doc)."""

    def __init__(self, root: str | Path):
        self.root = Path(root)
        _make_dirs(self.root)
        for stale in self.root.glob(".tmp-*"):
            stale.unlink(missing_ok=True)
        self._lock = threading.Lock()  # writes, and reads that go to disk
        # Committed non-terminal records, each with the length of its file.
        self._records: dict[str, tuple[ExperimentRecord, int]] = {}

    def _path(self, experiment_id: str) -> Path:
        return self.root / f"{path_component(experiment_id)}.jsonl"

    def create(self, record: ExperimentRecord) -> None:
        with self._lock:
            if (record.experiment_id in self._records
                    or self._path(record.experiment_id).exists()):
                raise _duplicate(record.experiment_id)
            self._commit(record, None, 0)

    def save(self, record: ExperimentRecord) -> None:
        with self._lock:
            self._commit(record, *self._current(record.experiment_id))

    def _committed(self, experiment_id: str) -> ExperimentRecord:
        current = self._records.get(experiment_id)
        if current is None:
            with self._lock:
                current = self._current(experiment_id)
        return current[0]

    def list_ids(self) -> list[str]:
        ids = []
        for path in self.root.glob("*.jsonl"):
            try:
                with path.open("rb") as handle:
                    ids.append(json.loads(handle.readline())["experiment_id"])
            except (json.JSONDecodeError, KeyError):
                continue
        return sorted(ids)

    # -- under self._lock ---------------------------------------------------

    def _current(self, experiment_id: str) -> tuple[ExperimentRecord, int]:
        current = self._records.get(experiment_id)
        if current is None:
            current = self._read(experiment_id)
            self._publish(*current)
        return current

    def _publish(self, record: ExperimentRecord, end: int) -> None:
        if record.status in TERMINAL_STATUSES:
            self._records.pop(record.experiment_id, None)
        else:
            self._records[record.experiment_id] = (record, end)

    def _read(self, experiment_id: str) -> tuple[ExperimentRecord, int]:
        try:
            first, *lines = self._path(experiment_id).read_bytes().split(b"\n")
        except FileNotFoundError:
            raise _unknown(experiment_id) from None
        doc = json.loads(first)
        end = len(first) + 1
        for raw in lines[:-1]:  # the last piece lacks its newline
            try:
                line = json.loads(raw)
            except ValueError:
                break
            end += len(raw) + 1
            doc.update(line["set"])
            for key, changes in line["merge"].items():
                doc[key].update(changes)
            for key, tail in line["extend"].items():
                doc[key].extend(tail)
        return ExperimentRecord.from_doc(doc), end

    def _commit(self, record: ExperimentRecord, base: ExperimentRecord | None,
                end: int) -> None:
        """Write what changed since ``base``, if anything, then publish."""
        new = record.snapshot()
        doc = new.to_doc()
        delta = None if base is None else _delta(doc, base.to_doc())
        if delta is not None and not any(delta.values()):
            return
        path = self._path(new.experiment_id)
        if base is None or new.status in TERMINAL_STATUSES:
            data = _encode(doc) + b"\n"
            _write_file(path, data)
            end = len(data)
        else:
            end = _append(path, _encode(delta) + b"\n", end)
        self._publish(new, end)
