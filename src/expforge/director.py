"""Mediation service: experiment lifecycle, persistence, orchestration.

The director is the only writer of experiment records; the store owns their
committed copies. All record mutation funnels through one monitor per
experiment, a re-entrant lock with a condition (one logical writer, many
readers); the gateway's ingestion path uses the same lock, so reports,
flags, and lifecycle moves never race. Every wait (flag, deadline, status)
is a wait() on the monitor, which a save that sets a flag or changes the
status notifies. A monitor is made only for an experiment the store holds.
Readers that need a field or two (status, bundle and flag reads) read the
committed record in place instead of taking a snapshot. deploy() and
execute() return as soon as the corresponding transition is persisted and
the real work proceeds on background threads; clients use wait_status().

Per-node events are committed in batches. The deploy thread commits, in
one mutate, every prepare outcome that finished since its last commit; the
execute thread writes the tokens of all tokenless prepared nodes in one
mutate before it launches any of them; reports are group-committed by the
gateway. A RUNNING experiment ends in the mutate that settles its last
pending node, and a terminal save drops what the director held for it.

Restarting a director over the same store recovers every record unchanged:
in-flight deployments resume preparing only nodes without a committed
outcome, RUNNING experiments re-poll nodes that already hold an execution
token and launch only tokenless ones; execution is at-most-once per
(experiment, node).
"""

from __future__ import annotations

import logging
import threading
import time
import uuid
import weakref
from concurrent.futures import FIRST_COMPLETED, ThreadPoolExecutor, wait
from contextlib import contextmanager
from typing import Any, Callable, Iterator, Mapping

from .compiler import DeploymentPlan, compile_experiment
from .connectors import Connector, ExecutorConfig, LaunchHandle
from .errors import (
    AlreadyTerminal,
    ConnectorUnavailable,
    ExpforgeError,
    InvalidTransition,
    NotReady,
    UnknownExperiment,
    ValidationFailed,
)
from .gateway import Gateway, InProcessGatewayClient
from .model import (
    LAUNCHED_NODE_STATES,
    Experiment,
    NodeDescriptor,
    NodePool,
    NodeState,
    Policies,
    Status,
    TERMINAL_STATUSES,
    validate_experiment,
)
from .registry import TaskRegistry
from .store import ExperimentRecord, Store

log = logging.getLogger("expforge.director")

# How many nodes of one deployment are prepared at once.
PREPARE_WORKERS = 8
# How often a wait with a cancel event looks at it; a notify wakes it sooner.
WAIT_SLICE_S = 0.1


class Director:
    def __init__(self, store: Store, registry: TaskRegistry,
                 connectors: Mapping[str, Connector], *,
                 gateway_url: str | None = None,
                 artifact_root=None,
                 recover: bool = True):
        self.store = store
        self.registry = registry
        self.connectors = dict(connectors)
        self.gateway_url = gateway_url
        self.gateway = Gateway(self, artifact_root=artifact_root)

        self._monitors: weakref.WeakValueDictionary[
            str, threading.Condition] = weakref.WeakValueDictionary()
        self._monitors_guard = threading.Lock()
        self._handles: dict[tuple[str, str], tuple[Connector, LaunchHandle]] = {}
        self._guard = threading.Lock()  # guards _handles
        self._closed = threading.Event()
        if recover:
            self.recover()

    # ------------------------------------------------------------------
    # record access
    # ------------------------------------------------------------------

    def monitor(self, experiment_id: str) -> threading.Condition:
        """The experiment's re-entrant ownership lock and the condition
        every wait waits on. Made only for an experiment the store holds;
        raises UnknownExperiment otherwise.

        A monitor lives while some thread holds it and is made anew only
        when none does, so two threads never hold different monitors for
        one experiment, and the director keeps none for an experiment
        nobody is working on."""
        with self._monitors_guard:
            monitor = self._monitors.get(experiment_id)
            if monitor is None:
                if not self.store.exists(experiment_id):
                    raise UnknownExperiment(
                        f"unknown experiment {experiment_id!r}")
                monitor = threading.Condition(threading.RLock())
                self._monitors[experiment_id] = monitor
            return monitor

    def record(self, experiment_id: str) -> ExperimentRecord:
        """A snapshot of the committed record; raises UnknownExperiment."""
        return self.store.load(experiment_id)

    @contextmanager
    def mutate(self, experiment_id: str) -> Iterator[ExperimentRecord]:
        """Load-modify-save under the experiment's monitor. A save that
        changes the status or the number of flags wakes the waiters; the
        terminal save drops the launch handles (a late report still lands)
        and the gateway's pipelines."""
        monitor = self.monitor(experiment_id)
        with monitor:
            record = self.store.load(experiment_id)
            status, flags = record.status, len(record.flags)
            yield record
            self.store.save(record)
            if record.status is not status or len(record.flags) != flags:
                monitor.notify_all()
            if record.status in TERMINAL_STATUSES \
                    and status not in TERMINAL_STATUSES:
                self._pop_handles(experiment_id)
                self.gateway.drop_pipelines(experiment_id)

    def settle(self, record: ExperimentRecord) -> None:
        """Inside a mutate: end a RUNNING record once no prepared node is
        pending, FINISHED if any node reported and FAILED if none did."""
        if record.status is not Status.RUNNING or record.pending_execution():
            return
        if record.reports:
            record.transition(Status.FINISHED)
        else:
            record.errors.append({"phase": "execute",
                                  "message": "no node delivered a report"})
            record.transition(Status.FAILED)
        log.info("experiment %s finished: %s", record.experiment_id,
                 record.status.value)

    def _pop_handles(self, experiment_id: str) -> list[tuple[Connector,
                                                             LaunchHandle]]:
        with self._guard:
            keys = [key for key in self._handles if key[0] == experiment_id]
            return [self._handles.pop(key) for key in keys]

    def wait(self, experiment_id: str, check: Callable[[], Any],
             timeout_s: float, cancel: threading.Event | None = None) -> Any:
        """``check()``'s first result that is not None, run under the monitor
        at once and after each notify of mutate; None after ``timeout_s`` or
        once ``cancel`` is set, which is looked at every ``WAIT_SLICE_S``."""
        deadline = time.monotonic() + timeout_s
        monitor = self.monitor(experiment_id)
        with monitor:
            while (result := check()) is None:
                remaining = deadline - time.monotonic()
                if remaining <= 0 or (cancel is not None and cancel.is_set()):
                    return None
                monitor.wait(remaining if cancel is None
                             else min(remaining, WAIT_SLICE_S))
            return result

    # ------------------------------------------------------------------
    # experimenter-facing operations
    # ------------------------------------------------------------------

    def submit(self, exp: Experiment) -> str:
        issues = validate_experiment(exp, self.registry)
        if issues:
            raise ValidationFailed(issues)
        record = ExperimentRecord(experiment_id=exp.experiment_id,
                                  experiment_doc=exp.to_doc())
        for node in exp.all_nodes():
            record.node_transition(node.node_id, NodeState.PENDING)
        self.store.create(record)
        log.info("experiment %s submitted (%d assignments, %d nodes)",
                 exp.experiment_id, len(exp.assignments),
                 len(exp.assigned_node_ids()))
        return exp.experiment_id

    def deploy(self, experiment_id: str) -> None:
        """Compile and distribute in the background; idempotent while a
        deployment is in flight or already READY."""
        with self.mutate(experiment_id) as record:
            if record.status in (Status.COMPILING, Status.DEPLOYING,
                                 Status.READY):
                return
            if record.status is not Status.SUBMITTED:
                raise InvalidTransition(
                    f"deploy requires SUBMITTED, {experiment_id} is "
                    f"{record.status.value}")
            record.transition(Status.COMPILING)
        self._spawn(self._deploy_worker, experiment_id,
                    name=f"deploy-{experiment_id}")

    def execute(self, experiment_id: str) -> None:
        """Launch executors on every prepared node; idempotent while RUNNING."""
        with self.mutate(experiment_id) as record:
            if record.status is Status.RUNNING:
                return
            if record.status is not Status.READY:
                raise NotReady(
                    f"execute requires READY, {experiment_id} is "
                    f"{record.status.value}")
            policies = Policies.from_doc(
                record.experiment_doc.get("policies", {}))
            record.deadline_wall = time.time() + policies.experiment_timeout_s
            record.transition(Status.RUNNING)
        self._spawn(self._execute_worker, experiment_id,
                    name=f"execute-{experiment_id}")

    def status(self, experiment_id: str) -> dict:
        """A fresh view of one experiment record."""
        return self.store.read(experiment_id, self._status_view)

    def wait_status(self, experiment_id: str, unless: Status,
                    timeout_s: float) -> dict:
        """The view once the status is not ``unless``, at timeout or close."""
        return self.wait(experiment_id, lambda: self.store.read(
            experiment_id, lambda r: None if r.status is unless
            else self._status_view(r)), timeout_s, self._closed) \
            or self.status(experiment_id)

    @staticmethod
    def _status_view(record: ExperimentRecord) -> dict:
        nodes = {}
        for node_id, node in record.nodes.items():
            launched = node["state"] in LAUNCHED_NODE_STATES
            nodes[node_id] = {
                "deploy": "prepared" if launched else node["state"],
                "execution": node["state"] if launched else "idle",
                **{k: node[k] for k in ("failed_command", "late") if node.get(k)}}
        return {
            "experiment_id": record.experiment_id,
            "status": record.status.value,
            "created_at": record.created_at,
            "policies": dict(record.experiment_doc.get("policies", {})),
            "transitions": [dict(t) for t in record.transitions],
            "nodes": nodes,
            "prepared_count": len(record.prepared_nodes()),
            "reported_count": len(record.reports),
            "result_count": len(record.results),
            "errors": [dict(e) for e in record.errors],
            "deadline_wall": record.deadline_wall,
            "cleanup": {n: dict(o) for n, o in record.cleanup.items()},
        }

    def results(self, experiment_id: str) -> dict:
        """All task results received so far, grouped by pipeline and node."""
        record = self.record(experiment_id)
        node_pipeline: dict[str, str] = {}
        for assignment in record.experiment_doc.get("assignments", ()):
            pid = assignment["pipeline"]["pipeline_id"]
            for node in assignment["nodes"]:
                node_pipeline[node["node_id"]] = pid
        grouped: dict[str, dict[str, list[dict]]] = {}
        for result in record.results:
            pid = node_pipeline.get(result.get("node_id", ""), "?")
            grouped.setdefault(pid, {}).setdefault(
                result["node_id"], []).append(dict(result))
        return {
            "experiment_id": record.experiment_id,
            "status": record.status.value,
            "pipelines": grouped,
        }

    def cancel(self, experiment_id: str) -> None:
        """Stop the executors, then commit CANCELLED and end every running
        node, under the experiment lock: a flag waiter released by the
        status change finds its executor already stopped, so no later stage
        starts."""
        with self.mutate(experiment_id) as record:
            if record.status in TERMINAL_STATUSES:
                raise AlreadyTerminal(
                    f"{experiment_id} is already {record.status.value}")
            for connector, handle in self._pop_handles(experiment_id):
                try:
                    connector.stop_executor(handle)
                except ExpforgeError:
                    log.warning("could not stop executor on %s",
                                handle.node_id)
            for node_id in record.nodes_in((NodeState.RUNNING,)):
                record.node_transition(node_id, NodeState.CANCELLED,
                                       reason="experiment cancelled")
            record.transition(Status.CANCELLED)
        log.info("experiment %s cancelled", experiment_id)

    def cleanup(self, experiment_id: str) -> dict:
        """Run the plan's cleanup commands on every prepared node."""
        record = self.record(experiment_id)
        if record.status not in TERMINAL_STATUSES:
            raise InvalidTransition(
                f"cleanup requires a terminal status, {experiment_id} is "
                f"{record.status.value}")
        outcomes: dict[str, dict] = {}
        plan_doc = record.plan_doc or {}
        cleanup_commands = plan_doc.get("cleanup_commands", {})
        prepared = set(record.prepared_nodes())
        for node in self._nodes_of(record):
            if node.node_id not in prepared:
                continue
            commands = cleanup_commands.get(node.kind, ())
            connector = self.connectors.get(node.connector_ref)
            if connector is None:
                outcomes[node.node_id] = {"ok": False,
                                          "error": "connector missing"}
                continue
            try:
                results = connector.run_commands(node, commands)
            except ExpforgeError as exc:
                outcomes[node.node_id] = {"ok": False, "error": str(exc)}
                continue
            failed = [r for r in results if r.exit_code != 0]
            outcomes[node.node_id] = (
                {"ok": True} if not failed else
                {"ok": False, "failed_command": failed[0].command,
                 "output": failed[0].output})
        with self.mutate(experiment_id) as record:
            record.cleanup = outcomes
            record.flags.clear()
        return outcomes

    # ------------------------------------------------------------------
    # node pool queries
    # ------------------------------------------------------------------

    def query_nodes(self, filters: Mapping[str, str] | None = None,
                    connector: str | None = None) -> NodePool:
        names = [connector] if connector else sorted(self.connectors)
        nodes: list[NodeDescriptor] = []
        for name in names:
            conn = self.connectors.get(name)
            if conn is None:
                raise ConnectorUnavailable(f"unknown connector {name!r}")
            pool = conn.list_nodes()
            for key, value in (filters or {}).items():
                pool = pool.filter(key, value)
            nodes.extend(pool)
        return NodePool(tuple(nodes))

    # ------------------------------------------------------------------
    # background workers
    # ------------------------------------------------------------------

    def _spawn(self, target, *args, name: str) -> None:
        thread = threading.Thread(target=self._guarded, args=(target, *args),
                                  daemon=True, name=name)
        thread.start()

    def _guarded(self, target, *args) -> None:
        try:
            target(*args)
        except Exception:  # noqa: BLE001 - workers must never kill the service
            log.exception("background worker %s failed", target.__name__)

    def _nodes_of(self, record: ExperimentRecord) -> list[NodeDescriptor]:
        return [NodeDescriptor.from_doc(n)
                for a in record.experiment_doc.get("assignments", ())
                for n in a.get("nodes", ())]

    def _deploy_worker(self, experiment_id: str) -> None:
        record = self.record(experiment_id)
        if record.status is Status.COMPILING:
            exp = Experiment.from_doc(record.experiment_doc)
            try:
                plan = compile_experiment(exp, self.registry)
            except ValidationFailed as exc:
                with self.mutate(experiment_id) as rec:
                    if rec.status is not Status.COMPILING:
                        return
                    rec.errors.append({"phase": "compile", "message": str(exc)})
                    rec.transition(Status.FAILED)
                log.warning("experiment %s failed to compile: %s",
                            experiment_id, exc)
                return
            with self.mutate(experiment_id) as rec:
                if rec.status is not Status.COMPILING:
                    return
                rec.plan_doc = plan.to_doc()
                rec.transition(Status.DEPLOYING)
                # compile digested them: their executors check them for free
                self.gateway.hold_pipelines(experiment_id, {
                    a.pipeline.digest(): a.pipeline for a in exp.assignments})

        record = self.record(experiment_id)
        if record.status is not Status.DEPLOYING:
            return
        plan = DeploymentPlan.from_doc(record.plan_doc or {})
        nodes = self._nodes_of(record)
        pending = [n for n in nodes if record.nodes[n.node_id]["state"]
                   == NodeState.PENDING]

        def prepare_one(node: NodeDescriptor) -> dict:
            outcome = {"to": NodeState.PREPARE_FAILED,
                       "reason": f"connector {node.connector_ref!r} missing"}
            connector = self.connectors.get(node.connector_ref)
            if connector is not None:
                try:
                    digest = plan.node_bundles[node.node_id]["pipeline_digest"]
                    spec = plan.spec_for(digest, node.kind)
                    result = connector.prepare(node, spec)
                    outcome = ({"to": NodeState.PREPARED} if result.prepared
                               else {"to": NodeState.PREPARE_FAILED,
                                     "failed_command": result.failed_command,
                                     "reason": result.output or
                                     f"{result.failed_command!r} failed"})
                except Exception as exc:  # noqa: BLE001 - one bad node must
                    # not strand the whole deployment
                    outcome = {"to": NodeState.PREPARE_FAILED,
                               "reason": str(exc) or repr(exc)}
            return outcome

        if pending:
            # One commit holds every outcome that finished since the last.
            workers = min(PREPARE_WORKERS, len(pending))
            with ThreadPoolExecutor(max_workers=workers,
                                    thread_name_prefix="prepare") as pool:
                running = {pool.submit(prepare_one, node): node.node_id
                           for node in pending}
                while running:
                    done, _ = wait(running, return_when=FIRST_COMPLETED)
                    with self.mutate(experiment_id) as rec:
                        for future in done:
                            rec.node_transition(running.pop(future),
                                                **future.result())

        with self.mutate(experiment_id) as rec:
            if rec.status is not Status.DEPLOYING:
                return
            policies = Policies.from_doc(
                rec.experiment_doc.get("policies", {}))
            prepared = len(rec.prepared_nodes())
            total = len(nodes)
            if policies.deploy_strictness == "all-or-nothing":
                ok = prepared == total
            else:
                ok = prepared >= 1
            if ok:
                rec.transition(Status.READY)
            else:
                rec.errors.append({
                    "phase": "deploy",
                    "message": f"{prepared}/{total} nodes prepared under "
                               f"{policies.deploy_strictness}"})
                rec.transition(Status.FAILED)
        log.info("experiment %s deployment finished: %s", experiment_id,
                 rec.status.value)

    def _executor_config(self, record: ExperimentRecord,
                         node_id: str) -> ExecutorConfig:
        # Executors fetch their bundle from the gateway (idempotent read with
        # a digest check) rather than receiving it inline.
        return ExecutorConfig(
            experiment_id=record.experiment_id,
            node_id=node_id,
            gateway_url=self.gateway_url,
            gateway_client=InProcessGatewayClient(self.gateway),
            registry=self.registry,
        )

    def _execute_worker(self, experiment_id: str) -> None:
        # Every token is durable before any launch: at-most-once per node.
        with self.mutate(experiment_id) as record:
            if record.status is not Status.RUNNING or self._closed.is_set():
                return
            tokenless = record.nodes_in((NodeState.PREPARED,))
            for node_id in tokenless:
                record.node_transition(node_id, NodeState.RUNNING,
                                       token=uuid.uuid4().hex)
        nodes = {n.node_id: n for n in self._nodes_of(record)}
        for node_id in tokenless:
            if self._closed.is_set():
                return
            node = nodes[node_id]
            connector = self.connectors.get(node.connector_ref)
            failure: str | None = None
            if connector is None:
                failure = f"connector {node.connector_ref!r} missing"
            else:
                # Launch and register under the experiment lock, as cancel
                # stops and commits: none sees CANCELLED with stop unset.
                # The launch is the reachability check, and any fault it
                # raises ends this node, not the worker.
                try:
                    with self.monitor(experiment_id):
                        if self.store.read(experiment_id, lambda r: r.status) \
                                is not Status.RUNNING:
                            return
                        handle = connector.launch_executor(
                            node, self._executor_config(record, node_id))
                        with self._guard:
                            self._handles[(experiment_id, node_id)] = (
                                connector, handle)
                except Exception as exc:  # noqa: BLE001 - see above
                    failure = str(exc) or repr(exc)
            if failure is not None:
                with self.mutate(experiment_id) as rec:
                    # a report its executor sent before the launch failed stands
                    if node_id in rec.pending_execution():
                        rec.node_transition(node_id, NodeState.UNREACHABLE,
                                            failure)
                    self.settle(rec)
                log.warning("experiment %s node %s not launched: %s",
                            experiment_id, node_id, failure)
        # Wait for the end, the deadline or close; a RUNNING record with
        # nothing pending (all nodes ended before a recovery) settles at once.
        deadline = self.store.read(experiment_id, lambda r: r.deadline_wall)
        status = self.wait(experiment_id, lambda: self.store.read(
            experiment_id, lambda r: None if r.status is Status.RUNNING
            and r.pending_execution() else r.status),
            max(deadline - time.time(), 0), self._closed)
        if self._closed.is_set() or status not in (None, Status.RUNNING):
            return
        with self.mutate(experiment_id) as rec:
            if rec.status is Status.RUNNING:
                for node_id in rec.pending_execution():
                    rec.node_transition(node_id, NodeState.TIMED_OUT,
                                        "no report by the deadline")
                    log.warning("experiment %s node %s timed out",
                                experiment_id, node_id)
            self.settle(rec)

    # ------------------------------------------------------------------
    # recovery / shutdown
    # ------------------------------------------------------------------

    def recover(self) -> None:
        """Resume whatever the persisted records say was in flight."""
        for experiment_id in self.store.list_ids():
            try:
                record = self.record(experiment_id)
            except ExpforgeError as exc:
                log.warning("not recovering %s: %s", experiment_id, exc)
                continue
            if record.status in (Status.COMPILING, Status.DEPLOYING):
                log.info("recovering deployment of %s", experiment_id)
                self._spawn(self._deploy_worker, experiment_id,
                            name=f"recover-deploy-{experiment_id}")
            elif record.status is Status.RUNNING:
                log.info("recovering execution of %s", experiment_id)
                self._spawn(self._execute_worker, experiment_id,
                            name=f"recover-execute-{experiment_id}")

    def close(self) -> None:
        """Stop background work; records stay as persisted."""
        self._closed.set()
