"""Executor-facing service: bundle fetch, report ingestion, coordination flags.

The gateway is a thin facade over the director's experiment records: report
ingestion and flag writes go through the director's per-experiment monitor,
so there is exactly one logical writer per record no matter how many
executors connect, and flag waits block on that same monitor, so the gateway
keeps no flag state of its own. Reports that queue for one experiment's
monitor are committed together (group commit): one mutate, one save and one
settle per batch, with each caller's own outcome. Bundle and flag reads look
at the one field they need in the store's committed record and copy nothing
else. A fetched bundle is an immutable ``PipelineBundle``; the gateway
decodes each pipeline once, on the first fetch of its digest, and every
bundle of that digest shares it for as long as one of them lives. Flags are
monotone (set once, never unset within an experiment), namespaced per
experiment, and destroyed at cleanup; their timestamps come from the
gateway's clock so cross-node ordering has a single authority.

Uploads, reports and node flag sets are accepted only from nodes the
experiment assigns. An artifact's bytes are written durably, outside any
lock, to ``artifact_root/<experiment>/<node>/<sha256>`` before a short mutate
lists them in the record. Without an ``artifact_root`` the gateway writes to
a temporary directory removed with it; ``expforge-server`` passes one, so
its artifacts survive a restart.

Executors in the platform process call the gateway through
``InProcessGatewayClient``; executors in other processes use
``HttpGatewayClient``, which sends through the standard-library client in
``transport.py``, decodes its own copy of the bundle, and maps 5xx to
TransportError, 404 to UnknownAssignment or UnknownExperiment and 409 to
WrongPhase. Ids and flag keys travel quoted, one URL path segment each.
"""

from __future__ import annotations

import hashlib
import shutil
import tempfile
import threading
import time
import urllib.parse
import weakref
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Mapping, TYPE_CHECKING

from .errors import (
    ExpforgeError,
    TransportError,
    UnknownAssignment,
    UnknownExperiment,
    WrongPhase,
)
from .executor import PipelineBundle
from .model import Pipeline, Status
from .store import (
    EXEC_REPORTED,
    EXEC_TIMED_OUT,
    ExperimentRecord,
    _fsync_dir,
    _make_dirs,
    _write_file,
    path_component,
)
from .transport import HttpTransport, quote

# The longest flag long-poll the HTTP client asks for: a cancelled wait
# ends within the executor's one-second cancel grace.
CLIENT_LONG_POLL_S = 0.5

if TYPE_CHECKING:  # pragma: no cover
    from .director import Director


class Gateway:
    def __init__(self, director: "Director", artifact_root: str | Path | None = None):
        self._director = director
        if not artifact_root:
            artifact_root = tempfile.mkdtemp(prefix="expforge-artifacts-")
            weakref.finalize(self, shutil.rmtree, artifact_root,
                             ignore_errors=True)
        self._artifact_root = Path(artifact_root)
        # Reports waiting for their experiment's monitor, with their outcomes.
        self._queued: dict[str, list[_QueuedReport]] = {}
        self._queue_guard = threading.Lock()
        # Decoded pipelines by digest, alive while a bundle holds one.
        self._pipelines: weakref.WeakValueDictionary[str, Pipeline] = \
            weakref.WeakValueDictionary()
        self._pipelines_lock = threading.Lock()

    # -- bundles ---------------------------------------------------------------

    def fetch_bundle(self, experiment_id: str,
                     node_id: str) -> PipelineBundle:
        """The node's execution bundle; an idempotent read. Bundles of one
        digest share one pipeline, decoded from the plan on the first fetch."""
        def plan_entry(record) -> tuple[dict, dict]:
            if record.status is not Status.RUNNING:
                raise WrongPhase(
                    f"bundle fetch requires RUNNING, {experiment_id} is "
                    f"{record.status.value}")
            plan = record.plan_doc or {}
            entry = plan.get("node_bundles", {}).get(node_id)
            if entry is None:
                raise _unassigned(experiment_id, node_id)
            return entry, plan["pipelines"]

        entry, pipeline_docs = self._director.store.read(experiment_id,
                                                         plan_entry)
        digest = entry["pipeline_digest"]
        with self._pipelines_lock:  # one decode per digest
            pipeline = self._pipelines.get(digest)
            if pipeline is None:
                pipeline = Pipeline.from_doc(pipeline_docs[digest])
                self._pipelines[digest] = pipeline
        return PipelineBundle.join(entry, pipeline)

    def require_assigned(self, experiment_id: str, node_id: str) -> None:
        """Raise UnknownAssignment unless the experiment assigns the node."""
        assigned = self._director.store.read(
            experiment_id, lambda record: record.assigned_nodes)
        if node_id not in assigned:
            raise _unassigned(experiment_id, node_id)

    # -- reports ---------------------------------------------------------------

    def ingest_report(self, report_doc: Mapping[str, Any]) -> str:
        """Persist the first report per (experiment, node); 'duplicate' after.

        A report from a node already marked timed-out is still stored (late
        data beats no data) with a ``late`` annotation on the node state.
        Reports that wait for the same experiment's monitor are committed
        together by whichever of their callers gets it first; each caller
        returns once the save that holds its report is done, or raises what
        that save raised.
        """
        experiment_id = report_doc.get("experiment_id", "")
        monitor = self._director.monitor(experiment_id)
        queued = _QueuedReport(report_doc)
        with self._queue_guard:
            self._queued.setdefault(experiment_id, []).append(queued)
        with monitor:
            if queued.outcome is None:  # no earlier caller committed it
                with self._queue_guard:
                    batch = self._queued.pop(experiment_id)
                try:
                    with self._director.mutate(experiment_id) as record:
                        for entry in batch:
                            entry.outcome = _add_report(record, entry.doc)
                        self._director.settle(record)
                except BaseException as exc:
                    for entry in batch:  # each caller raises it
                        entry.outcome = exc
                    raise
        if isinstance(queued.outcome, BaseException):
            raise queued.outcome
        return queued.outcome

    # -- flags -------------------------------------------------------------

    def set_flag(self, experiment_id: str, key: str, node_id: str) -> dict:
        """Set a monotone flag; idempotent, the first set's timestamp wins.

        The setter is not checked here, so the platform and its operator can
        set flags; the node-facing clients and routes call
        :meth:`require_assigned` first.
        """
        with self._director.mutate(experiment_id) as record:
            if record.status is not Status.RUNNING:
                raise WrongPhase(
                    f"flags require RUNNING, {experiment_id} is "
                    f"{record.status.value}")
            flag = record.flags.get(key)
            if flag is None:
                flag = {"set_wall": time.time(), "set_mono": time.monotonic(),
                        "node_id": node_id}
                record.flags[key] = flag
            flag = dict(flag)
        return flag

    def get_flag(self, experiment_id: str, key: str) -> dict:
        flag = self._director.store.read(
            experiment_id, lambda record: record.flags.get(key))
        if flag is None:
            return {"set": False}
        return {"set": True, **flag}

    def wait_flag(self, experiment_id: str, key: str, timeout_s: float,
                  cancel: threading.Event | None = None) -> dict | None:
        """The flag's state once set; None at the deadline or once ``cancel``
        is set; WrongPhase once the experiment leaves RUNNING. Every client
        waits here, in the director's wait: the flag, then the status, is
        read under the experiment's monitor, so a returned flag is durable."""
        def check() -> dict | None:
            state = self.get_flag(experiment_id, key)
            if state["set"]:
                return state
            status = self._director.store.read(
                experiment_id, lambda record: record.status)
            if status is not Status.RUNNING:
                raise WrongPhase(
                    f"flag wait requires RUNNING, {experiment_id} is "
                    f"{status.value}")
            return None
        return self._director.wait(experiment_id, check, timeout_s, cancel)

    # -- artifacts ---------------------------------------------------------

    def _artifact_dir(self, experiment_id: str, node_id: str) -> Path:
        return (self._artifact_root / path_component(experiment_id)
                / path_component(node_id))

    def store_artifact(self, experiment_id: str, node_id: str, name: str,
                       data: bytes) -> dict:
        """List an assigned node's artifact once its bytes are durable under
        their digest, so no crash lists missing bytes; a later upload of the
        name replaces the listing, and the old bytes stay on disk."""
        self.require_assigned(experiment_id, node_id)
        meta = {"node_id": node_id, "name": name, "size": len(data),
                "digest": hashlib.sha256(data).hexdigest()}
        directory = self._artifact_dir(experiment_id, node_id)
        _make_dirs(directory)
        _write_file(directory / meta["digest"], data)
        _fsync_dir(directory)
        with self._director.mutate(experiment_id) as record:
            record.artifacts = [e for e in record.artifacts if (
                e["node_id"], e["name"]) != (node_id, name)] + [meta]
        return dict(meta)

    def list_artifacts(self, experiment_id: str) -> list[dict]:
        return [dict(e) for e in self._director.store.read(
            experiment_id, lambda record: record.artifacts)]

    def artifact_data(self, experiment_id: str, node_id: str, name: str) -> bytes:
        """The listed bytes; KeyError if unlisted, ExpforgeError if corrupt."""
        digest = self._director.store.read(experiment_id, lambda record: {
            (e["node_id"], e["name"]): e["digest"]
            for e in record.artifacts})[node_id, name]
        data = (self._artifact_dir(experiment_id, node_id) / digest).read_bytes()
        if hashlib.sha256(data).hexdigest() != digest:
            raise ExpforgeError(f"artifact {name!r} of {node_id!r} in "
                                f"{experiment_id!r} does not match its digest")
        return data


@dataclass
class _QueuedReport:
    """A report waiting to be committed, then its caller's outcome."""

    doc: Mapping[str, Any]
    outcome: str | BaseException | None = None


def _add_report(record: ExperimentRecord,
                report_doc: Mapping[str, Any]) -> str | UnknownAssignment:
    """Add one report to a record being mutated; its caller's outcome."""
    node_id = report_doc.get("node_id", "")
    if node_id not in record.assigned_nodes:
        return _unassigned(record.experiment_id, node_id)
    if node_id in record.reports:
        return "duplicate"
    state = record.node_exec(node_id)
    late = (state.get("state") == EXEC_TIMED_OUT
            or record.status is not Status.RUNNING)
    record.reports[node_id] = {
        "received_wall": time.time(),
        "executor_version": report_doc.get("executor_version", ""),
        "late": late,
    }
    if state.get("state") != EXEC_TIMED_OUT:
        state["state"] = EXEC_REPORTED
    if late:
        state["late"] = True
    record.results.extend(dict(result)
                          for result in report_doc.get("results", ()))
    return "accepted"


def _unassigned(experiment_id: str, node_id: str) -> UnknownAssignment:
    return UnknownAssignment(
        f"node {node_id!r} has no assignment in {experiment_id!r}")


# ---------------------------------------------------------------------------
# clients
# ---------------------------------------------------------------------------

class InProcessGatewayClient:
    """Direct client for executors running inside the platform process."""

    def __init__(self, gateway: Gateway):
        self._gateway = gateway

    def fetch_bundle(self, experiment_id: str,
                     node_id: str) -> PipelineBundle:
        return self._gateway.fetch_bundle(experiment_id, node_id)

    def deliver_report(self, report_doc: dict) -> str:
        return self._gateway.ingest_report(report_doc)

    def set_flag(self, experiment_id: str, key: str, node_id: str) -> dict:
        self._gateway.require_assigned(experiment_id, node_id)
        return self._gateway.set_flag(experiment_id, key, node_id)

    def get_flag(self, experiment_id: str, key: str) -> dict:
        return self._gateway.get_flag(experiment_id, key)

    def wait_flag(self, experiment_id: str, key: str, timeout_s: float,
                  cancel: threading.Event | None = None) -> dict | None:
        return self._gateway.wait_flag(experiment_id, key, timeout_s, cancel)

    def upload_artifact(self, experiment_id: str, node_id: str, name: str,
                        data: bytes) -> dict:
        return self._gateway.store_artifact(experiment_id, node_id, name, data)


class HttpGatewayClient:
    """Wire client used by executors launched as separate processes."""

    def __init__(self, base_url: str, timeout_s: float = 10.0):
        self.base_url = base_url.rstrip("/")
        self.timeout_s = timeout_s
        self._transport = HttpTransport(base_url, timeout_s)

    def _request(self, method: str, path: str, body: dict | bytes | None = None,
                 timeout_s: float | None = None) -> Any:
        status, payload = self._transport.request(method, path, body,
                                                  timeout_s)
        if status >= 500:
            raise TransportError(
                f"{method} {self.base_url}{path}: server error {status}")
        if status >= 400:
            message = payload.get("message", "request failed")
            if status == 404:
                if payload.get("error") == "UnknownAssignment":
                    raise UnknownAssignment(message)
                raise UnknownExperiment(message)
            if status == 409:
                raise WrongPhase(message)
            raise TransportError(
                f"{method} {self.base_url}{path}: {status} {message}")
        return payload

    def fetch_bundle(self, experiment_id: str,
                     node_id: str) -> PipelineBundle:
        query = urllib.parse.urlencode({"exp": experiment_id, "node": node_id})
        return PipelineBundle.from_doc(
            self._request("GET", f"/gw/v1/bundle?{query}"))

    def deliver_report(self, report_doc: dict) -> str:
        payload = self._request("POST", "/gw/v1/report", report_doc)
        return payload.get("result", "accepted")

    def set_flag(self, experiment_id: str, key: str, node_id: str) -> dict:
        return self._request("POST", _flag_path(experiment_id, key),
                             {"node_id": node_id})

    def get_flag(self, experiment_id: str, key: str) -> dict:
        return self._request("GET", _flag_path(experiment_id, key))

    def wait_flag(self, experiment_id: str, key: str, timeout_s: float,
                  cancel: threading.Event | None = None) -> dict | None:
        """A loop of server-side waits (long-polls) of at most
        ``CLIENT_LONG_POLL_S`` each; ``cancel`` is checked between them."""
        deadline = time.monotonic() + timeout_s
        path = _flag_path(experiment_id, key)
        while True:
            remaining = deadline - time.monotonic()
            wait_s = max(0.0, min(remaining, CLIENT_LONG_POLL_S))
            state = self._request("GET", f"{path}?wait_s={wait_s:.3f}",
                                  timeout_s=self.timeout_s + wait_s)
            if state.get("set"):
                return state
            if remaining <= wait_s or (cancel is not None and cancel.is_set()):
                return None

    def upload_artifact(self, experiment_id: str, node_id: str, name: str,
                        data: bytes) -> dict:
        query = urllib.parse.urlencode({"name": name})
        return self._request(
            "POST", f"/gw/v1/artifacts/{quote(experiment_id)}/"
                    f"{quote(node_id)}?{query}", data)


def _flag_path(experiment_id: str, key: str) -> str:
    return f"/gw/v1/flags/{quote(experiment_id)}/{quote(key)}"


GatewayClient = InProcessGatewayClient | HttpGatewayClient
