"""Experiment records and their pluggable persistence.

A store owns the committed copy of each record it holds. ``load`` hands out
a snapshot whose containers the caller may change; ``save`` commits a
changed snapshot, durably first and then in memory; ``read`` applies a
function to the committed record without copying it. The documents inside
a record (experiment and plan docs, transition entries, results, report
metadata, flags, errors, cleanup outcomes, artifact metadata) are never
changed in place, so snapshots share them, and a committed record is never
changed at all: a save replaces it. Serializing writers per experiment is
the director's job.

``MemoryStore`` keeps records as objects. ``FileStore`` keeps one directory
per experiment::

    experiment.json    the experiment doc, written once
    plan.json          the compiled plan, written once
    head.json          a snapshot of everything else, with its sequence number
    journal.jsonl      one line per save since the snapshot

A non-terminal save appends one fsynced line to the journal, its commit
point: the save's sequence number, the changed keys of the node maps, the
tails appended to lists, and any other changed field. A load replays the
lines over the snapshot up to the first one that is torn or does not parse;
the next append overwrites that one. The save that makes a record terminal
writes a new snapshot, then removes the journal; a line the snapshot
already holds (a crash between the two) is skipped by its number. Whole
files go through a temp file, fsync, rename and a directory fsync.
Non-terminal records stay in memory; terminal ones are read from disk.
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
from functools import cached_property
from pathlib import Path
from typing import Any, Callable, Mapping, TypeVar

from .errors import DuplicateExperimentName, InvalidTransition, UnknownExperiment
from .model import Status, TERMINAL_STATUSES, is_valid_transition

# Per-node deployment states
DEPLOY_PENDING = "pending"
DEPLOY_PREPARED = "prepared"
DEPLOY_FAILED = "prepare-failed"

# Per-node execution states
EXEC_IDLE = "idle"
EXEC_RUNNING = "running"
EXEC_REPORTED = "reported"
EXEC_UNREACHABLE = "unreachable"
EXEC_TIMED_OUT = "timed-out"

TERMINAL_EXEC_STATES = frozenset({EXEC_REPORTED, EXEC_UNREACHABLE, EXEC_TIMED_OUT})

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
    deploy_state: dict[str, dict] = field(default_factory=dict)
    exec_state: dict[str, dict] = field(default_factory=dict)
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

    # -- per-node state helpers ----------------------------------------------

    def node_deploy(self, node_id: str) -> dict:
        return self.deploy_state.setdefault(node_id, {"state": DEPLOY_PENDING})

    def node_exec(self, node_id: str) -> dict:
        return self.exec_state.setdefault(node_id, {"state": EXEC_IDLE})

    def prepared_nodes(self) -> list[str]:
        return [n for n, s in self.deploy_state.items()
                if s.get("state") == DEPLOY_PREPARED]

    def pending_execution(self) -> list[str]:
        """Prepared nodes that have not reached a terminal execution state."""
        return [n for n in self.prepared_nodes()
                if self.exec_state.get(n, {}).get("state")
                not in TERMINAL_EXEC_STATES]

    @cached_property
    def assigned_nodes(self) -> frozenset[str]:
        """Ids of the nodes the experiment assigns (its doc never changes)."""
        return frozenset(n["node_id"]
                         for a in self.experiment_doc.get("assignments", ())
                         for n in a.get("nodes", ()))

    def snapshot(self) -> "ExperimentRecord":
        """A copy whose containers can change without touching this record.

        The documents inside the containers are shared; nothing changes them
        in place.
        """
        clone = copy.copy(self)
        clone.transitions = list(self.transitions)
        clone.deploy_state = {n: dict(s) for n, s in self.deploy_state.items()}
        clone.exec_state = {n: dict(s) for n, s in self.exec_state.items()}
        clone.results = list(self.results)
        clone.reports = dict(self.reports)
        clone.flags = dict(self.flags)
        clone.errors = list(self.errors)
        clone.cleanup = dict(self.cleanup)
        clone.artifacts = list(self.artifacts)
        return clone

    def to_doc(self) -> dict:
        return {
            "experiment_id": self.experiment_id,
            "experiment_doc": self.experiment_doc,
            "status": self.status.value,
            "created_at": self.created_at,
            "transitions": self.transitions,
            "deploy_state": self.deploy_state,
            "exec_state": self.exec_state,
            "plan_doc": self.plan_doc,
            "results": self.results,
            "reports": self.reports,
            "flags": self.flags,
            "errors": self.errors,
            "cleanup": self.cleanup,
            "artifacts": self.artifacts,
            "deadline_wall": self.deadline_wall,
        }

    @classmethod
    def from_doc(cls, doc: Mapping[str, Any]) -> "ExperimentRecord":
        return cls(
            experiment_id=doc["experiment_id"],
            experiment_doc=doc["experiment_doc"],
            status=Status(doc["status"]),
            created_at=doc.get("created_at", 0.0),
            transitions=list(doc.get("transitions", ())),
            deploy_state=dict(doc.get("deploy_state", {})),
            exec_state=dict(doc.get("exec_state", {})),
            plan_doc=doc.get("plan_doc"),
            results=list(doc.get("results", ())),
            reports=dict(doc.get("reports", {})),
            flags=dict(doc.get("flags", {})),
            errors=list(doc.get("errors", ())),
            cleanup=dict(doc.get("cleanup", {})),
            artifacts=list(doc.get("artifacts", ())),
            deadline_wall=doc.get("deadline_wall"),
        )


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


HEAD = "head.json"
EXPERIMENT = "experiment.json"
PLAN = "plan.json"
JOURNAL = "journal.jsonl"


def _encode(doc: Any) -> bytes:
    return json.dumps(doc, separators=(",", ":")).encode("utf-8")


def _write_file(path: Path, data: bytes) -> None:
    """Replace ``path`` by ``data``: temp file, fsync, rename."""
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


def _changed(new: Any, old: Any) -> bool:
    return new is not old and new != old


def _head(record: ExperimentRecord, seq: int) -> dict:
    head = {**record.to_doc(), "has_plan": record.plan_doc is not None,
            "seq": seq}
    del head["experiment_doc"], head["plan_doc"]
    return head


def _delta(new: dict, old: dict) -> dict:
    """The journal line from head ``old`` to ``new``: the changed keys of maps
    that lost none, the tails of lists, and other changed fields (``seq``)."""
    changes, merges, tails = {}, {}, {}
    for key, value in new.items():
        was = old[key]
        if not _changed(value, was):
            continue
        if isinstance(value, dict) and was.keys() <= value.keys():
            merges[key] = {k: v for k, v in value.items()
                           if k not in was or _changed(v, was[k])}
        elif isinstance(value, list) and value[:len(was)] == was:
            tails[key] = value[len(was):]
        else:
            changes[key] = value
    return {"set": changes, "merge": merges, "extend": tails}


class FileStore(Store):
    """One directory per experiment under ``root`` (see the module doc)."""

    def __init__(self, root: str | Path):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self._lock = threading.Lock()  # writes, and reads that go to disk
        # Committed non-terminal records, each with its last sequence number
        # and the length of its journal.
        self._records: dict[str, tuple[ExperimentRecord, int, int]] = {}

    def _dir(self, experiment_id: str) -> Path:
        return self.root / path_component(experiment_id)

    def create(self, record: ExperimentRecord) -> None:
        with self._lock:
            if (record.experiment_id in self._records
                    or (self._dir(record.experiment_id) / HEAD).exists()):
                raise _duplicate(record.experiment_id)
            self._commit(record, None, 0, 0)

    def save(self, record: ExperimentRecord) -> None:
        with self._lock:
            try:
                base, seq, end = self._current(record.experiment_id)
            except UnknownExperiment:
                base, seq, end = None, 0, 0
            self._commit(record, base, seq, end)

    def _committed(self, experiment_id: str) -> ExperimentRecord:
        current = self._records.get(experiment_id)
        if current is None:
            with self._lock:
                current = self._current(experiment_id)
        return current[0]

    def list_ids(self) -> list[str]:
        ids = []
        for head in self.root.glob(f"*/{HEAD}"):
            try:
                ids.append(json.loads(head.read_bytes())["experiment_id"])
            except (json.JSONDecodeError, KeyError):
                continue
        return sorted(ids)

    # -- under self._lock ---------------------------------------------------

    def _current(self, experiment_id: str) -> tuple[ExperimentRecord, int, int]:
        current = self._records.get(experiment_id)
        if current is None:
            current = self._read(experiment_id)
            self._publish(*current)
        return current

    def _publish(self, record: ExperimentRecord, seq: int, end: int) -> None:
        if record.status in TERMINAL_STATUSES:
            self._records.pop(record.experiment_id, None)
        else:
            self._records[record.experiment_id] = (record, seq, end)

    def _read(self, experiment_id: str) -> tuple[ExperimentRecord, int, int]:
        directory = self._dir(experiment_id)
        try:
            head = json.loads((directory / HEAD).read_bytes())
        except FileNotFoundError:
            raise _unknown(experiment_id) from None
        journal = directory / JOURNAL
        end = 0
        lines = journal.read_bytes().split(b"\n") if journal.exists() else [b""]
        for raw in lines[:-1]:  # the last piece lacks its newline
            try:
                line = json.loads(raw)
            except ValueError:
                break
            end += len(raw) + 1
            if line["set"]["seq"] > head["seq"]:  # not in the snapshot yet
                head.update(line["set"])
                for key, changes in line["merge"].items():
                    head[key].update(changes)
                for key, tail in line["extend"].items():
                    head[key].extend(tail)
        head["experiment_doc"] = json.loads((directory / EXPERIMENT).read_bytes())
        head["plan_doc"] = (json.loads((directory / PLAN).read_bytes())
                            if head["has_plan"] else None)
        return ExperimentRecord.from_doc(head), head["seq"], end

    def _commit(self, record: ExperimentRecord, base: ExperimentRecord | None,
                seq: int, end: int) -> None:
        """Write what changed since ``base``, then publish the record."""
        new = record.snapshot()
        directory = self._dir(new.experiment_id)
        if base is None:
            directory.mkdir(exist_ok=True)
            _write_file(directory / EXPERIMENT, _encode(new.experiment_doc))
            (directory / JOURNAL).write_bytes(b"")
            _fsync_dir(directory)
        if new.plan_doc is not None and (
                base is None or _changed(new.plan_doc, base.plan_doc)):
            _write_file(directory / PLAN, _encode(new.plan_doc))
            _fsync_dir(directory)  # durable before the commit refers to it
        head = _head(new, seq + 1)
        if base is not None and new.status not in TERMINAL_STATUSES:
            line = _encode(_delta(head, _head(base, seq))) + b"\n"
            end = _append(directory / JOURNAL, line, end)
        else:  # a snapshot; a terminal one ends the journal
            _write_file(directory / HEAD, _encode(head))
            if new.status in TERMINAL_STATUSES:
                (directory / JOURNAL).unlink(missing_ok=True)
            _fsync_dir(directory)
        self._publish(new, seq + 1, end)
