"""Executor-facing service: bundle fetch, report ingestion, coordination flags.

The gateway is a thin facade over the director's experiment records: report
ingestion and flag writes go through the director's per-experiment monitor,
so there is exactly one logical writer per record no matter how many
executors connect, and flag waits block on that same monitor, so the gateway
keeps no flag state of its own. Reports that queue for one experiment's
monitor are committed together (group commit): one mutate, one save and one
settle per batch, with each caller's own outcome. Bundle and flag reads look
at the one field they need in the store's committed record and copy nothing
else. A fetched bundle is an immutable ``PipelineBundle``. The gateway
keeps each experiment's pipelines by digest from compile until the record
turns terminal: the director hands it the ``Pipeline`` objects it compiled,
already digested, and every in-process bundle of that experiment and digest
shares one of them. Only a pipeline the gateway does not hold (after a
director restart, or for a deployment recovered at DEPLOYING) is decoded
from the plan, once, on its first fetch.
Flags are monotone (set once, never unset within an experiment), namespaced
per experiment, and destroyed at cleanup; their timestamps come from the
gateway's clock so cross-node ordering has a single authority.

Uploads, reports and node flag sets are accepted only from nodes the
experiment assigns, and a report's results only for its own node. An
artifact's bytes are written durably, outside any lock, to
``artifact_root/<experiment>/<node>/<sha256>`` before a short mutate lists
them in the record. Without an ``artifact_root`` the gateway writes to a
temporary directory removed with it; ``expforge-server`` passes one, so its
artifacts survive a restart.

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
    ManifestError,
    TransportError,
    UnknownAssignment,
    UnknownExperiment,
    WrongPhase,
)
from .executor import PipelineBundle
from .model import LAUNCHED_NODE_STATES, NodeState, Pipeline, Status
from .store import (
    ExperimentRecord,
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
        # Each live experiment's pipelines by digest, until its terminal save.
        self._pipelines: dict[str, dict[str, Pipeline]] = {}
        self._pipelines_lock = threading.Lock()

    # -- bundles ---------------------------------------------------------------

    def hold_pipelines(self, experiment_id: str,
                       pipelines: Mapping[str, Pipeline]) -> None:
        """Keep an experiment's compiled pipelines, by digest, for its
        fetches; called in the mutate that commits DEPLOYING."""
        with self._pipelines_lock:
            self._pipelines[experiment_id] = dict(pipelines)

    def drop_pipelines(self, experiment_id: str) -> None:
        """Forget an experiment's pipelines; called after its terminal save."""
        with self._pipelines_lock:
            self._pipelines.pop(experiment_id, None)

    def fetch_bundle(self, experiment_id: str,
                     node_id: str) -> PipelineBundle:
        """The node's execution bundle; an idempotent read. Bundles of one
        experiment and digest share one pipeline: the one compiled, or else
        one decoded from the plan and digested on the first fetch, and kept
        only while the experiment is still RUNNING."""
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
        with self._pipelines_lock:  # one decode and one digest per digest
            pipeline = self._pipelines.get(experiment_id, {}).get(digest)
            if pipeline is None:
                pipeline = Pipeline.from_doc(pipeline_docs[digest])
                pipeline.digest()  # cached: its executors check it for free
                # Checked under the lock that drop_pipelines takes after the
                # terminal save, so a fetch racing that save keeps nothing.
                if self._director.store.read(
                        experiment_id, lambda r: r.status) is Status.RUNNING:
                    self._pipelines.setdefault(experiment_id, {})[digest] = \
                        pipeline
        return PipelineBundle.join(entry, pipeline)

    def require_assigned(self, experiment_id: str, node_id: str) -> None:
        """Raise UnknownAssignment unless the experiment assigns the node."""
        if not self._director.store.read(
                experiment_id, lambda record: node_id in record.nodes):
            raise _unassigned(experiment_id, node_id)

    # -- reports ---------------------------------------------------------------

    def ingest_report(self, report_doc: Mapping[str, Any]) -> str:
        """Persist the first report per (experiment, node); 'duplicate' after.

        A report from a node never launched is refused as an unassigned
        node's is; one from a node already marked timed-out or cancelled is
        stored (late data beats no data) with a ``late`` annotation on the
        node, which keeps its state. Reports
        waiting for the same experiment's monitor are committed together by
        whichever caller gets it first; each caller returns once the save
        holding its report is done, or raises what that save raised.
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


def _add_report(record: ExperimentRecord, report_doc: Mapping[str, Any]
                ) -> str | ManifestError | UnknownAssignment:
    """Add one report to a record being mutated; its caller's outcome. The
    report's shape is checked before the record changes, so a malformed one
    fails only its own caller, and a node files results under itself only."""
    node_id = report_doc.get("node_id", "")
    results = report_doc.get("results", ())
    if not isinstance(node_id, str) or not isinstance(results, (list, tuple)) \
            or not all(isinstance(result, dict)
                       and result.get("node_id") == node_id
                       for result in results):
        return ManifestError(
            f"report of node {node_id!r} to {record.experiment_id!r}: "
            "results must be a list of that node's task results")
    if node_id not in record.nodes:
        return _unassigned(record.experiment_id, node_id)
    if node_id in record.reports:
        return "duplicate"
    state = record.nodes[node_id]["state"]
    if state not in LAUNCHED_NODE_STATES:
        return UnknownAssignment(f"node {node_id!r} of {record.experiment_id!r}"
                                 f" was never launched")
    ended = state in (NodeState.TIMED_OUT, NodeState.CANCELLED)
    late = ended or record.status is not Status.RUNNING
    record.reports[node_id] = {
        "received_wall": time.time(),
        "executor_version": report_doc.get("executor_version", ""),
        "late": late,
    }
    if not ended:
        record.node_transition(node_id, NodeState.REPORTED)
    if late:
        record.nodes[node_id] = {**record.nodes[node_id], "late": True}
    record.results.extend(dict(result) for result in results)
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
