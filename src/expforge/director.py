"""Mediation service: experiment lifecycle, persistence, orchestration.

The director is the only writer of experiment records; the store owns their
committed copies. All record mutation funnels through one monitor per
experiment, a re-entrant lock with a condition (one logical writer, many
readers); the gateway's ingestion path uses the same lock, so reports,
flags, and lifecycle moves never race, and its flag waits wait on the same
condition, which a save that sets a flag or changes the status notifies.
A monitor is made only for an experiment the store holds. Readers that need
a field or two (status, bundle and flag reads) read the committed record in
place instead of taking a snapshot. deploy() and execute() return as soon as
the corresponding transition is persisted and the real work proceeds on
background threads; clients poll status().

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
from concurrent.futures import FIRST_COMPLETED, ThreadPoolExecutor, wait
from contextlib import contextmanager
from typing import Iterator, Mapping

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
    Experiment,
    NodeDescriptor,
    NodePool,
    Policies,
    Status,
    TERMINAL_STATUSES,
    validate_experiment,
)
from .registry import TaskRegistry
from .store import (
    DEPLOY_FAILED,
    DEPLOY_PENDING,
    DEPLOY_PREPARED,
    EXEC_RUNNING,
    EXEC_UNREACHABLE,
    EXEC_TIMED_OUT,
    ExperimentRecord,
    Store,
)

log = logging.getLogger("expforge.director")

# How many nodes of one deployment are prepared at once.
PREPARE_WORKERS = 8


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

        self._monitors: dict[str, threading.Condition] = {}
        self._monitors_guard = threading.Lock()
        self._handles: dict[tuple[str, str], tuple[Connector, LaunchHandle]] = {}
        self._wakeups: dict[str, threading.Event] = {}  # deadline waits
        self._guard = threading.Lock()  # guards _handles and _wakeups
        self._closed = threading.Event()
        if recover:
            self.recover()

    # ------------------------------------------------------------------
    # record access
    # ------------------------------------------------------------------

    def monitor(self, experiment_id: str) -> threading.Condition:
        """The experiment's re-entrant ownership lock and the condition flag
        waiters wait on. Made only for an experiment the store holds;
        raises UnknownExperiment otherwise."""
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
        changes the status or the number of flags wakes the flag waiters;
        the save that makes the experiment terminal releases what it held."""
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
                self._release(experiment_id)

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

    def _release(self, experiment_id: str) -> None:
        """Drop the handles and deadline wake-up of an experiment that has
        just ended; executors are left running, so a timed-out node's late
        report is still stored."""
        self._pop_handles(experiment_id)
        with self._guard:
            wakeup = self._wakeups.pop(experiment_id, None)
        if wakeup is not None:
            wakeup.set()

    # ------------------------------------------------------------------
    # experimenter-facing operations
    # ------------------------------------------------------------------

    def submit(self, exp: Experiment) -> str:
        issues = validate_experiment(exp, self.registry)
        if issues:
            raise ValidationFailed(issues)
        record = ExperimentRecord(experiment_id=exp.experiment_id,
                                  experiment_doc=exp.to_doc())
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

    @staticmethod
    def _status_view(record: ExperimentRecord) -> dict:
        nodes = {}
        for node_id, deploy in record.deploy_state.items():
            execution = record.exec_state.get(node_id, {})
            entry = {"deploy": deploy.get("state", DEPLOY_PENDING),
                     "execution": execution.get("state", "idle")}
            if deploy.get("failed_command"):
                entry["failed_command"] = deploy["failed_command"]
            if execution.get("late"):
                entry["late"] = True
            nodes[node_id] = entry
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
        """Stop the executors, then commit CANCELLED, under the experiment
        lock: a flag waiter released by the status change finds its
        executor already stopped, so no later stage starts."""
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
        for node in self._nodes_of(record):
            if record.deploy_state.get(node.node_id, {}).get("state") \
                    != DEPLOY_PREPARED:
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
                for node in exp.all_nodes():
                    rec.node_deploy(node.node_id)
                rec.transition(Status.DEPLOYING)

        record = self.record(experiment_id)
        if record.status is not Status.DEPLOYING:
            return
        plan = DeploymentPlan.from_doc(record.plan_doc or {})
        nodes = self._nodes_of(record)
        pending = [n for n in nodes
                   if record.deploy_state.get(n.node_id, {}).get("state",
                                              DEPLOY_PENDING) == DEPLOY_PENDING]

        def prepare_one(node: NodeDescriptor) -> dict:
            outcome = {"state": DEPLOY_FAILED,
                       "reason": f"connector {node.connector_ref!r} missing"}
            connector = self.connectors.get(node.connector_ref)
            if connector is not None:
                try:
                    digest = plan.node_bundles[node.node_id]["pipeline_digest"]
                    spec = plan.spec_for(digest, node.kind)
                    result = connector.prepare(node, spec)
                    outcome = ({"state": DEPLOY_PREPARED} if result.prepared
                               else {"state": DEPLOY_FAILED,
                                     "failed_command": result.failed_command,
                                     "reason": result.output})
                except Exception as exc:  # noqa: BLE001 - one bad node must
                    # not strand the whole deployment
                    outcome = {"state": DEPLOY_FAILED, "reason": str(exc)}
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
                            rec.deploy_state[running.pop(future)] = \
                                future.result()

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
        record = self.record(experiment_id)
        if record.status is not Status.RUNNING or self._closed.is_set():
            return
        nodes = {n.node_id: n for n in self._nodes_of(record)}
        # Every token is durable before any launch: at-most-once per node.
        with self.mutate(experiment_id) as rec:
            if rec.status is not Status.RUNNING:
                return
            tokenless = [node_id for node_id in rec.prepared_nodes()
                         if not rec.node_exec(node_id).get("token")]
            for node_id in tokenless:
                rec.node_exec(node_id).update(
                    {"token": uuid.uuid4().hex, "token_at": time.time(),
                     "state": EXEC_RUNNING})
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
                    failure = str(exc)
            if failure is not None:
                with self.mutate(experiment_id) as rec:
                    rec.node_exec(node_id).update(
                        {"state": EXEC_UNREACHABLE, "reason": failure})
                    self.settle(rec)
                log.warning("experiment %s node %s not launched: %s",
                            experiment_id, node_id, failure)
        # Block until the release or the deadline. The release pops the
        # wake-up under the guard after its terminal save, so this status
        # read misses none. With nothing pending (a recovery where every
        # node had already ended), settle at once.
        with self._guard:
            status, pending, deadline = self.store.read(
                experiment_id, lambda r: (r.status,
                                          bool(r.pending_execution()),
                                          r.deadline_wall))
            if self._closed.is_set() or status is not Status.RUNNING:
                return
            wakeup = self._wakeups.setdefault(experiment_id, threading.Event())
        if pending and (wakeup.wait(max(deadline - time.time(), 0))
                        or self._closed.is_set()):
            return
        with self.mutate(experiment_id) as rec:
            if rec.status is Status.RUNNING:
                for node_id in rec.pending_execution():
                    rec.node_exec(node_id)["state"] = EXEC_TIMED_OUT
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
            except ExpforgeError:
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
        with self._guard:
            wakeups = list(self._wakeups.values())
        for wakeup in wakeups:
            wakeup.set()
