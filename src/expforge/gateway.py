"""Executor-facing service: bundle fetch, report ingestion, coordination flags.

The gateway is a thin facade over the director's experiment records: report
ingestion and flag writes go through the director's per-experiment monitor,
so there is exactly one logical writer per record no matter how many
executors connect, and flag waits block on that same monitor, so the gateway
keeps no flag state of its own. Reports that queue for one experiment's
monitor are committed together (group commit): one mutate, one save and one
settle per batch, with each caller's own outcome. Bundle and flag reads look
at the one field they need in the store's committed record and copy nothing
else. Flags are monotone (set once, never unset within an experiment),
namespaced per experiment, and destroyed at cleanup; their timestamps come
from the gateway's clock so cross-node ordering has a single authority.

Uploads, reports and node flag sets are accepted only from nodes the
experiment assigns. Every artifact is written under
``artifact_root/<experiment>/`` and its metadata is kept in the experiment
record, so a restarted director lists it.
"""

from __future__ import annotations

import hashlib
import json
import threading
import time
import urllib.parse
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Mapping, TYPE_CHECKING

import requests

from .compiler import join_bundle
from .errors import (
    TransportError,
    UnknownAssignment,
    UnknownExperiment,
    WrongPhase,
)
from .model import Status
from .store import (
    EXEC_REPORTED,
    EXEC_TIMED_OUT,
    ExperimentRecord,
    path_component,
)

# How often a blocked flag wait re-reads the flag and status and looks at
# its cancel event; a set flag, or the experiment's end, wakes it at once.
FLAG_WAIT_SLICE_S = 0.1
# The longest flag long-poll the HTTP client asks for: a cancelled wait
# ends within the executor's one-second cancel grace.
CLIENT_LONG_POLL_S = 0.5

if TYPE_CHECKING:  # pragma: no cover
    from .director import Director


class Gateway:
    def __init__(self, director: "Director", artifact_root: str | Path | None = None):
        self._director = director
        self._artifact_root = Path(artifact_root) if artifact_root else None
        self._artifacts: dict[tuple[str, str, str], bytes] = {}
        # Reports waiting for their experiment's monitor, with their outcomes.
        self._queued: dict[str, list[_QueuedReport]] = {}
        self._queue_guard = threading.Lock()

    # -- bundles ---------------------------------------------------------------

    def fetch_bundle(self, experiment_id: str, node_id: str) -> dict:
        """The node's execution bundle, a fresh document; an idempotent read."""
        def encoded_bundle(record) -> str:
            if record.status is not Status.RUNNING:
                raise WrongPhase(
                    f"bundle fetch requires RUNNING, {experiment_id} is "
                    f"{record.status.value}")
            plan = record.plan_doc or {}
            bundle = plan.get("node_bundles", {}).get(node_id)
            if bundle is None:
                raise _unassigned(experiment_id, node_id)
            return json.dumps(join_bundle(bundle, plan["pipelines"]))

        return json.loads(self._director.store.read(experiment_id,
                                                    encoded_bundle))

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
        waits here. The flag, then the status, is read under the
        experiment's monitor, which the director's mutate notifies after a
        durable save that sets a flag or changes the status, so no wake-up
        is lost and a returned flag is durable."""
        deadline = time.monotonic() + timeout_s
        monitor = self._director.monitor(experiment_id)
        with monitor:
            while True:
                state = self.get_flag(experiment_id, key)
                if state["set"]:
                    return state
                status = self._director.store.read(
                    experiment_id, lambda record: record.status)
                if status is not Status.RUNNING:
                    raise WrongPhase(
                        f"flag wait requires RUNNING, {experiment_id} is "
                        f"{status.value}")
                remaining = deadline - time.monotonic()
                if remaining <= 0 or (cancel is not None and cancel.is_set()):
                    return None
                monitor.wait(min(remaining, FLAG_WAIT_SLICE_S))

    # -- artifacts ---------------------------------------------------------

    def _artifact_path(self, experiment_id: str, node_id: str,
                       name: str) -> Path:
        return (self._artifact_root / path_component(experiment_id)
                / path_component(node_id) / path_component(name))

    def store_artifact(self, experiment_id: str, node_id: str, name: str,
                       data: bytes) -> dict:
        """Write an assigned node's artifact and commit its metadata to the
        record in one mutate; a later upload of the same name replaces it."""
        meta = {"node_id": node_id, "name": name, "size": len(data),
                "digest": hashlib.sha256(data).hexdigest()}
        with self._director.mutate(experiment_id) as record:
            if node_id not in record.assigned_nodes:
                raise _unassigned(experiment_id, node_id)
            if self._artifact_root is not None:
                path = self._artifact_path(experiment_id, node_id, name)
                path.parent.mkdir(parents=True, exist_ok=True)
                path.write_bytes(data)
            else:
                self._artifacts[(experiment_id, node_id, name)] = data
            record.artifacts = [
                e for e in record.artifacts
                if not (e["node_id"] == node_id and e["name"] == name)
            ] + [meta]
        return dict(meta)

    def list_artifacts(self, experiment_id: str) -> list[dict]:
        return [dict(e) for e in self._director.store.read(
            experiment_id, lambda record: record.artifacts)]

    def artifact_data(self, experiment_id: str, node_id: str, name: str) -> bytes:
        with self._director.monitor(experiment_id):
            if self._artifact_root is not None:
                return self._artifact_path(experiment_id, node_id,
                                           name).read_bytes()
            return self._artifacts[(experiment_id, node_id, name)]


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

    def fetch_bundle(self, experiment_id: str, node_id: str) -> dict:
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
        self._session = requests.Session()

    def _request(self, method: str, path: str, **kwargs) -> Any:
        url = f"{self.base_url}{path}"
        kwargs.setdefault("timeout", self.timeout_s)
        try:
            response = self._session.request(method, url, **kwargs)
        except requests.RequestException as exc:
            raise TransportError(f"{method} {url}: {exc}") from exc
        if response.status_code >= 500:
            raise TransportError(
                f"{method} {url}: server error {response.status_code}")
        if response.status_code >= 400:
            try:
                payload = response.json()
            except ValueError:
                payload = {"message": response.text}
            message = payload.get("message", "request failed")
            error = payload.get("error", "")
            if response.status_code == 404:
                if error == "UnknownAssignment":
                    raise UnknownAssignment(message)
                raise UnknownExperiment(message)
            if response.status_code == 409:
                raise WrongPhase(message)
            raise TransportError(f"{method} {url}: {response.status_code} "
                                 f"{message}")
        if response.content:
            return response.json()
        return None

    def fetch_bundle(self, experiment_id: str, node_id: str) -> dict:
        query = urllib.parse.urlencode({"exp": experiment_id, "node": node_id})
        return self._request("GET", f"/gw/v1/bundle?{query}")

    def deliver_report(self, report_doc: dict) -> str:
        payload = self._request("POST", "/gw/v1/report", json=report_doc)
        return payload.get("result", "accepted")

    def set_flag(self, experiment_id: str, key: str, node_id: str) -> dict:
        return self._request(
            "POST", f"/gw/v1/flags/{experiment_id}/{key}",
            json={"node_id": node_id})

    def get_flag(self, experiment_id: str, key: str) -> dict:
        return self._request("GET", f"/gw/v1/flags/{experiment_id}/{key}")

    def wait_flag(self, experiment_id: str, key: str, timeout_s: float,
                  cancel: threading.Event | None = None) -> dict | None:
        """A loop of server-side waits (long-polls) of at most
        ``CLIENT_LONG_POLL_S`` each; ``cancel`` is checked between them."""
        deadline = time.monotonic() + timeout_s
        path = f"/gw/v1/flags/{experiment_id}/{key}"
        while True:
            remaining = deadline - time.monotonic()
            wait_s = max(0.0, min(remaining, CLIENT_LONG_POLL_S))
            state = self._request("GET", f"{path}?wait_s={wait_s:.3f}",
                                  timeout=self.timeout_s + wait_s)
            if state.get("set"):
                return state
            if remaining <= wait_s or (cancel is not None and cancel.is_set()):
                return None

    def upload_artifact(self, experiment_id: str, node_id: str, name: str,
                        data: bytes) -> dict:
        query = urllib.parse.urlencode({"name": name})
        return self._request(
            "POST", f"/gw/v1/artifacts/{experiment_id}/{node_id}?{query}",
            data=data,
            headers={"Content-Type": "application/octet-stream"})


GatewayClient = InProcessGatewayClient | HttpGatewayClient
