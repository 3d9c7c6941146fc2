"""Node-resident executor: runs one pipeline, reports once at the end.

Stages run sequentially with a hard barrier between them; tasks inside a
stage run concurrently, each on its own thread with its own cancellation
event and timeout. The threads are workers of one call (``run_pipeline``,
``run_stage`` or ``run_task``): a task goes to an idle worker, or to a new
one, so a pipeline starts about as many threads as its widest stage has
tasks. A worker whose task ignored its cancel is never reused and ends when
that task returns; a worker of the last stage ends as soon as its task
returns, and the others end when the call returns. Each call owns one
completion queue, on which a worker puts every task it ran once the task
returns. The calling thread hands a stage's tasks out, then takes them off
that queue, waiting no longer than the earliest deadline of the tasks still
running, each deadline anchored at the moment its worker picked the task
up: it fires each task's cancel event at that task's deadline and only then
waits out the cancel grace of the tasks that timed out. A stopped executor
(its ``stop`` event set, looked at every ``STOP_SLICE_S`` while tasks run)
fires the cancel of every running task at once, waits out their graces and
skips the later stages. Every task anomaly becomes a TaskResult; nothing
propagates to the caller. The finished report is written to the node's
report spool before the first delivery attempt and removed only after the
gateway acknowledged it, so a crash or an unreachable gateway never loses
results. A spool (``ReportSpool``) holds named documents, and each backend
decides how to keep them: a process executor's ``DirectorySpool`` encodes
each one as JSON and writes it as the store writes a file (temp file,
fsync, rename, then the directory fsynced), and a simulated node keeps the
document object itself on its own virtual scratch filesystem, so it never
encodes its report.
Spooled reports of earlier runs are retried at start; one the gateway
refuses (unknown experiment, unassigned node) is kept and skipped.

``run_executor`` is the one executor entry of every backend: a simulated
node's thread and a child process (``python -m expforge.executor``) both
call it with the node's ``ExecutorConfig``. It fetches the node's immutable
``PipelineBundle`` from the gateway and ends in one exit code (``EXIT_*``).
Executors of one experiment in the platform process share, per digest, the
``Pipeline`` that compile built and digested (after a director restart, one
the gateway decoded from the plan), so no digest is computed twice; a child
process decodes its own copy from the wire and digests that.
``ExecutorConfig.to_env`` and ``from_env`` write and read a child's
environment: EXPFORGE_GATEWAY, EXPFORGE_EXPERIMENT_ID, EXPFORGE_NODE_ID and
EXPFORGE_SCRATCH; a child's report spool is the directory
``<EXPFORGE_SCRATCH>/.spool``.
"""

from __future__ import annotations

import contextlib
import heapq
import json
import logging
import os
import queue
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from types import MappingProxyType
from typing import Any, Mapping, Sequence, TYPE_CHECKING

from .errors import (LaunchFailed, TransportError, UnknownAssignment,
                     UnknownExperiment)
from .model import (
    DocCodec,
    NodeDescriptor,
    Outcome,
    Pipeline,
    Stage,
    TaskResult,
    TaskSpec,
)
from .registry import TaskError, TaskRegistry
from .store import _make_dirs, _write_file, path_component

if TYPE_CHECKING:  # pragma: no cover
    from .gateway import GatewayClient

log = logging.getLogger("expforge.executor")

EXECUTOR_VERSION = "0.1.0"

# Exit codes: connectors distinguish launch problems from task failures.
EXIT_OK = 0                 # report delivered or spooled (task failures included)
EXIT_STARTUP_ERROR = 2      # bundle fetch failed, or digest mismatch
EXIT_STOPPED = 3            # stopped before the pipeline finished
EXIT_CRASHED = 4            # any other exception, logged with its traceback

CANCEL_GRACE_S = 1.0
STOP_SLICE_S = 0.1  # how often a waiting executor looks at its stop event


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff for report delivery."""

    base_delay_s: float = 1.0
    factor: float = 2.0
    max_attempts: int = 5


REPORT_RETRY = RetryPolicy()


@dataclass
class ExecutorConfig:
    """What a connector needs to start an executor for one node."""

    experiment_id: str
    node_id: str
    gateway_url: str | None = None
    gateway_client: Any = None
    registry: TaskRegistry | None = None

    def to_env(self, scratch: str) -> dict[str, str]:
        """The environment of a child executor working in ``scratch``."""
        if not self.gateway_url:
            raise LaunchFailed("a child executor needs a gateway HTTP endpoint")
        return {"EXPFORGE_GATEWAY": self.gateway_url,
                "EXPFORGE_EXPERIMENT_ID": self.experiment_id,
                "EXPFORGE_NODE_ID": self.node_id,
                "EXPFORGE_SCRATCH": scratch}

    @classmethod
    def from_env(cls, env: Mapping[str, str]) -> "ExecutorConfig":
        """A child's config; it runs the builtin tasks."""
        from .tasks import builtin_registry

        return cls(experiment_id=env.get("EXPFORGE_EXPERIMENT_ID", ""),
                   node_id=env.get("EXPFORGE_NODE_ID", ""),
                   gateway_url=env.get("EXPFORGE_GATEWAY"),
                   registry=builtin_registry())


@dataclass(frozen=True)
class PipelineBundle(DocCodec):
    """Everything a node needs to run its pipeline, shipped by the compiler.

    Immutable: ``impl_ids`` is a read-only copy, and ``pipeline`` may be
    shared with other bundles of the same digest.
    """

    experiment_id: str
    node_id: str
    node_kind: str
    pipeline: Pipeline
    pipeline_digest: str
    impl_ids: Mapping[str, str]

    def __post_init__(self):
        object.__setattr__(self, "impl_ids",
                           MappingProxyType(dict(self.impl_ids)))

    def digest_matches(self) -> bool:
        """Tamper/skew check: the shipped digest must match the pipeline."""
        return self.pipeline.digest() == self.pipeline_digest

    @classmethod
    def join(cls, doc: Mapping[str, Any],
             pipeline: Pipeline) -> "PipelineBundle":
        """A node's bundle from its plan entry, which names its pipeline by
        digest only, and that pipeline."""
        return cls(
            experiment_id=doc["experiment_id"],
            node_id=doc["node_id"],
            node_kind=doc.get("node_kind", "linux-shell"),
            pipeline=pipeline,
            pipeline_digest=doc["pipeline_digest"],
            impl_ids=doc.get("impl_ids", {}),
        )


@dataclass(frozen=True)
class PipelineReport(DocCodec):
    """Single end-of-pipeline report for one (experiment, node)."""

    experiment_id: str
    node_id: str
    results: tuple[TaskResult, ...]
    executor_version: str = EXECUTOR_VERSION
    started_wall: float = 0.0
    finished_wall: float = 0.0
    started_mono: float = 0.0
    finished_mono: float = 0.0


# ---------------------------------------------------------------------------
# node runtimes
# ---------------------------------------------------------------------------

def run_in_group(args: str | Sequence[str], timeout: float | None,
                 cancel: threading.Event | None = None,
                 **popen: Any) -> tuple[int | None, str]:
    """(exit code, output) of a command started in a session of its own. At
    ``timeout`` or once ``cancel`` is set its whole process group is killed,
    so no child it started outlives it or holds the output open, and the
    exit code is None."""
    proc = subprocess.Popen(args, start_new_session=True,
                            stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                            text=True, **popen)
    deadline = None if timeout is None else time.monotonic() + timeout
    while True:
        try:
            output = proc.communicate(timeout=0.05)[0]
            return proc.returncode, output or ""
        except subprocess.TimeoutExpired:
            expired = deadline is not None and time.monotonic() > deadline
            if expired or (cancel is not None and cancel.is_set()):
                with contextlib.suppress(ProcessLookupError):  # all ended
                    os.killpg(proc.pid, signal.SIGKILL)
                return None, proc.communicate()[0] or ""


class NodeRuntime:
    """Target-specific surface task implementations run against.

    Keeps implementations portable across real shells and the simulated
    infrastructure: commands, scratch files, sleeping, and event logging all
    go through here.
    """

    kind: str = ""

    def run_command(self, command: str, cancel: threading.Event,
                    timeout: float | None = None) -> tuple[int, str]:
        raise NotImplementedError

    def sleep(self, seconds: float, cancel: threading.Event) -> bool:
        """Sleep; False when interrupted by cancellation."""
        raise NotImplementedError

    def write_file(self, path: str, content: str | bytes) -> None:
        raise NotImplementedError

    def read_file(self, path: str) -> bytes:
        raise NotImplementedError

    def file_exists(self, path: str) -> bool:
        raise NotImplementedError

    def log_event(self, scope: str, name: str, detail: dict | None = None) -> None:
        """Record an execution event (no-op outside the simulator)."""

    def scoped(self, scope: str) -> "NodeRuntime":
        """A view of this runtime attributing implicit events to ``scope``."""
        return self


class LocalRuntime(NodeRuntime):
    """Runs commands in a real shell with a scratch directory as cwd."""

    kind = "linux-shell"

    def __init__(self, scratch: str | Path):
        self.scratch = Path(scratch)
        self.scratch.mkdir(parents=True, exist_ok=True)

    def resolve(self, path: str) -> Path:
        candidate = Path(path)
        return candidate if candidate.is_absolute() else self.scratch / candidate

    def run_command(self, command: str, cancel: threading.Event,
                    timeout: float | None = None) -> tuple[int, str]:
        """(exit code, output); killed at ``timeout`` or on ``cancel``, it
        answers -9 with the output so far."""
        code, output = run_in_group(command, timeout, cancel, shell=True,
                                    cwd=str(self.scratch))
        return -9 if code is None else code, output

    def sleep(self, seconds: float, cancel: threading.Event) -> bool:
        return not cancel.wait(seconds)

    def write_file(self, path: str, content: str | bytes) -> None:
        target = self.resolve(path)
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_bytes(content.encode("utf-8") if isinstance(content, str)
                           else content)

    def read_file(self, path: str) -> bytes:
        return self.resolve(path).read_bytes()

    def file_exists(self, path: str) -> bool:
        return self.resolve(path).exists()


# ---------------------------------------------------------------------------
# task context and execution
# ---------------------------------------------------------------------------

@dataclass
class TaskContext:
    """Explicit, per-task view of the executor's world.

    ``shared``/``shared_lock`` are scoped to one executor run and are the only
    sanctioned cross-task state (capture handles live there).
    """

    experiment_id: str
    node: NodeDescriptor
    runtime: NodeRuntime
    gateway: "GatewayClient | None" = None
    shared: dict = field(default_factory=dict)
    shared_lock: threading.Lock = field(default_factory=threading.Lock)
    cancel: threading.Event = field(default_factory=threading.Event)
    stage_index: int = 0
    task_name: str = ""


def _task_scope(stage_index: int, task_name: str) -> str:
    return f"task:{stage_index}:{task_name}"


class _TaskRun:
    """One task, run by a worker thread of its executor call.

    The worker stamps the start when it picks the task up, which anchors the
    deadline, and records the outcome and its own finish time before it puts
    the run on the call's completion queue. ``returned`` belongs to the
    calling thread: it is set when that thread takes the run off the queue
    (see ``_run_tasks``).
    """

    def __init__(self, task: TaskSpec, registry: TaskRegistry,
                 impl_id: str | None, ctx: TaskContext):
        self.task = task
        self.registry = registry
        self.impl_id = impl_id
        self.ctx = ctx
        self.scope = _task_scope(ctx.stage_index, task.name)
        ctx.runtime = ctx.runtime.scoped(self.scope)
        ctx.runtime.log_event(self.scope, "task-start",
                              {"task_type": task.task_type})
        self.payload: Any = None
        self.error: str | None = None
        self.timed_out = False
        self.returned = False
        self._stamp_start()  # again when a worker picks the task up

    def _stamp_start(self) -> None:
        self.started_wall, self.started_mono = time.time(), time.monotonic()
        self.deadline = self.started_mono + self.task.timeout_s

    def work(self) -> None:
        self._stamp_start()
        try:
            if self.impl_id is None:
                raise TaskError(
                    f"no implementation resolved for task {self.task.name!r}")
            impl = self.registry.implementation(self.impl_id)
            self.payload = impl.run(dict(self.task.params), self.ctx)
        except TaskError as exc:
            self.error = str(exc)
            self.payload = exc.payload
        except BaseException as exc:  # noqa: BLE001 - every anomaly is a result
            self.error = f"{type(exc).__name__}: {exc}"
        finally:
            self.finished_wall, self.finished_mono = time.time(), time.monotonic()

    def cancel(self, graces: list[tuple["_TaskRun", float]]) -> None:
        """Fire the task's cancel event; its grace ends ``CANCEL_GRACE_S``
        from now."""
        self.ctx.cancel.set()
        graces.append((self, time.monotonic() + CANCEL_GRACE_S))

    def result(self) -> TaskResult:
        outcome, error_text, payload = Outcome.SUCCESS, None, self.payload
        if self.timed_out:
            outcome, error_text, payload = (
                Outcome.TIMEOUT, f"timed out after {self.task.timeout_s}s", None)
        elif self.error is not None:
            outcome, error_text = Outcome.FAILURE, self.error
        if self.returned:
            finished_wall, finished_mono = self.finished_wall, self.finished_mono
        else:  # still running after its grace: it ignored the cancel
            finished_wall, finished_mono = time.time(), time.monotonic()
        self.ctx.runtime.log_event(self.scope, "task-finish",
                                   {"outcome": outcome.value})
        return TaskResult(
            task_name=self.task.name,
            node_id=self.ctx.node.node_id,
            stage_index=self.ctx.stage_index,
            outcome=outcome,
            started_wall=self.started_wall,
            finished_wall=finished_wall,
            started_mono=self.started_mono,
            finished_mono=finished_mono,
            payload=payload,
            error_text=error_text,
        )


def _serve(run: _TaskRun | None, inbox: queue.SimpleQueue,
           finished: queue.SimpleQueue) -> None:
    """A worker thread: runs tasks from its inbox until it receives None,
    putting each on ``finished`` when it returns."""
    while run is not None:
        run.work()
        finished.put(run)
        run = inbox.get()


class _Workers:
    """The task threads of one executor call, one task at a time each, and
    the call's completion queue.

    A task goes to an idle worker, or to a new one that takes it as its first
    task; the worker puts the task on ``finished`` when it returns. A task of
    the call's last stage is followed in its worker's inbox by the None that
    ends the worker, so that worker exits as soon as the task returns. A
    worker whose task has not returned when its stage ends (it ignored its
    cancel) gets no other: it ends when that task returns. Leaving the
    ``with`` block ends the rest, so no worker outlives the call. Only the
    calling thread uses this object; ``stop``, when set, cancels the tasks
    still running.
    """

    def __init__(self, stop: threading.Event | None = None):
        self.stop = stop
        self.finished: queue.SimpleQueue[_TaskRun] = queue.SimpleQueue()
        self._idle: list[queue.SimpleQueue] = []
        self._busy: dict[_TaskRun, queue.SimpleQueue] = {}

    def __enter__(self) -> "_Workers":
        return self

    def __exit__(self, *exc_info) -> None:
        for inbox in (*self._idle, *self._busy.values()):
            inbox.put(None)

    def stopped(self) -> bool:
        return self.stop is not None and self.stop.is_set()

    def collect(self, timeout: float) -> None:
        """Take one returned task off the completion queue, waiting at most
        ``timeout``; queue.Empty when none returned. It may be a task of an
        earlier stage that returned after its grace."""
        self.finished.get(timeout=max(0.0, timeout)).returned = True

    def start(self, run: _TaskRun, last: bool) -> None:
        if self._idle:
            inbox = self._idle.pop()
            inbox.put(run)
        else:
            inbox = queue.SimpleQueue()
            threading.Thread(target=_serve, args=(run, inbox, self.finished),
                             daemon=True,
                             name=f"task-{run.ctx.node.node_id}").start()
        if last:
            inbox.put(None)
        else:
            self._busy[run] = inbox

    def take_back(self, run: _TaskRun) -> None:
        inbox = self._busy.pop(run, None)
        if inbox is None:  # already told to end
            return
        if run.returned:
            self._idle.append(inbox)
        else:
            inbox.put(None)


def _run_tasks(runs: list[_TaskRun], workers: _Workers,
               last: bool = True) -> list[TaskResult]:
    """Run tasks concurrently; results come back in the order of ``runs``.
    ``last`` says no later stage will use the workers.

    Every task is handed out before any is awaited. Then the returned tasks
    are taken off the completion queue, each wait ending at the earliest
    deadline of the tasks still running (a heap keyed by deadline; a worker
    that stamps its start moves its task's deadline later, and the task's
    entry moves with it), so each task's cancel event fires at its own
    deadline. Only then are the grace periods of the cancelled tasks waited
    out, so one task's grace never delays another's cancel. Once
    ``workers.stop`` is set every task still running is cancelled at once.
    """
    for run in runs:
        workers.start(run, last)
    running = [(run.deadline, index, run) for index, run in enumerate(runs)]
    heapq.heapify(running)
    graces: list[tuple[_TaskRun, float]] = []
    while running:
        deadline, index, run = running[0]
        if run.returned:
            heapq.heappop(running)
        elif run.deadline > deadline:  # its worker stamped the start since
            heapq.heapreplace(running, (run.deadline, index, run))
        elif workers.stopped():
            for _, _, pending in running:
                if not pending.returned:
                    pending.cancel(graces)
            running.clear()
        else:
            wait = deadline - time.monotonic()
            if workers.stop is not None:
                wait = min(wait, STOP_SLICE_S)
            try:
                workers.collect(wait)
            except queue.Empty:
                if time.monotonic() >= run.deadline:
                    heapq.heappop(running)
                    run.timed_out = True
                    run.cancel(graces)
    for run, grace_end in graces:
        with contextlib.suppress(queue.Empty):
            while not run.returned:
                workers.collect(grace_end - time.monotonic())
    results = [run.result() for run in runs]
    for run in runs:
        workers.take_back(run)
    return results


def run_task(task: TaskSpec, registry: TaskRegistry, impl_id: str | None,
             ctx: TaskContext) -> TaskResult:
    """Run one task with its timeout; anomalies become result outcomes.

    Timestamps come from the monotonic clock (plus wall time for humans).
    On timeout the task's cancel event fires: builtin tasks cancel
    cooperatively, shell tasks get their process killed.
    """
    with _Workers() as workers:
        return _run_tasks([_TaskRun(task, registry, impl_id, ctx)], workers)[0]


def _stage_runs(stage: Stage, stage_index: int, bundle: PipelineBundle,
                registry: TaskRegistry,
                base_ctx: TaskContext) -> list[_TaskRun]:
    return [_TaskRun(task, registry, bundle.impl_ids.get(task.name),
                     TaskContext(experiment_id=base_ctx.experiment_id,
                                 node=base_ctx.node, runtime=base_ctx.runtime,
                                 gateway=base_ctx.gateway,
                                 shared=base_ctx.shared,
                                 shared_lock=base_ctx.shared_lock,
                                 cancel=threading.Event(),
                                 stage_index=stage_index, task_name=task.name))
            for task in stage.tasks]


def run_stage(stage: Stage, stage_index: int, bundle: PipelineBundle,
              registry: TaskRegistry, base_ctx: TaskContext) -> list[TaskResult]:
    """Run all tasks of a stage concurrently; ends when the last task ends.

    Every task is started before any is awaited, so an n-task stage of
    equal-duration work completes in roughly one task's duration.
    """
    with _Workers() as workers:
        return _run_tasks(
            _stage_runs(stage, stage_index, bundle, registry, base_ctx),
            workers)


def _skipped(task: TaskSpec, stage_index: int, node_id: str) -> TaskResult:
    return TaskResult(task_name=task.name, node_id=node_id,
                      stage_index=stage_index, outcome=Outcome.SKIPPED)


def run_pipeline(bundle: PipelineBundle, registry: TaskRegistry,
                 runtime: NodeRuntime,
                 gateway: "GatewayClient | None" = None,
                 stop: threading.Event | None = None) -> list[TaskResult]:
    """Execute the bundle's stages in order and return one result per task.

    A failed or timed-out task aborts the remaining stages when the pipeline
    asked for early_stop; the unrun tasks still appear, marked skipped, so
    the report always covers the full task count. Once ``stop`` is set the
    running tasks are cancelled and the later stages skipped.
    """
    base_ctx = TaskContext(
        experiment_id=bundle.experiment_id,
        node=NodeDescriptor(node_id=bundle.node_id, kind=bundle.node_kind),
        runtime=runtime,
        gateway=gateway,
    )
    results: list[TaskResult] = []
    abort = False
    with _Workers(stop) as workers:
        for stage_index, stage in enumerate(bundle.pipeline.stages):
            if abort or workers.stopped():
                results.extend(_skipped(t, stage_index, bundle.node_id)
                               for t in stage.tasks)
                continue
            stage_results = _run_tasks(
                _stage_runs(stage, stage_index, bundle, registry, base_ctx),
                workers, last=stage_index == len(bundle.pipeline.stages) - 1)
            results.extend(stage_results)
            if bundle.pipeline.early_stop and any(
                    r.outcome in (Outcome.FAILURE, Outcome.TIMEOUT)
                    for r in stage_results):
                abort = True
    return results


# ---------------------------------------------------------------------------
# report delivery and spooling
# ---------------------------------------------------------------------------

SPOOL_SUFFIX = ".report.json"  # ends every report's spool name


class ReportSpool:
    """Where a node keeps its undelivered reports: named documents.

    Once a document is written to a spool, nobody changes it: a backend may
    keep the object itself, and a later ``read`` hands that object out. The
    executor leaves a report alone after spooling it, and the gateway copies
    each result it ingests, so a record never aliases a node's spool."""

    def write(self, name: str, doc: Mapping[str, Any]) -> None:
        """Store ``doc`` under ``name``, replacing what was there, as
        durably as the node's storage allows."""
        raise NotImplementedError

    def read(self, name: str) -> Mapping[str, Any]:
        """The document stored under ``name``; ``ValueError`` for an entry
        that is not a report document."""
        raise NotImplementedError

    def remove(self, name: str) -> None:
        """Forget ``name``; a name that is not there is no error."""
        raise NotImplementedError

    def names(self) -> list[str]:
        """The stored names that end in ``SPOOL_SUFFIX``, sorted."""
        raise NotImplementedError


class DirectorySpool(ReportSpool):
    """A process executor's spool: one JSON file per document in
    ``directory``.

    A write is the store's: the directory is made durably, the file written
    to a temp file, fsynced and renamed, and then the directory fsynced, so
    the rename survives a power loss as well."""

    def __init__(self, directory: str | Path):
        self.directory = Path(directory)

    def write(self, name: str, doc: Mapping[str, Any]) -> None:
        _make_dirs(self.directory)
        _write_file(self.directory / name, json.dumps(doc).encode("utf-8"))

    def read(self, name: str) -> Mapping[str, Any]:
        doc = json.loads((self.directory / name).read_bytes())
        if not isinstance(doc, dict):
            raise ValueError(f"spooled {name} is not a document")
        return doc

    def remove(self, name: str) -> None:
        (self.directory / name).unlink(missing_ok=True)

    def names(self) -> list[str]:
        return sorted(path.name
                      for path in self.directory.glob("*" + SPOOL_SUFFIX))


def spool_name(experiment_id: str, node_id: str) -> str:
    """One spool name per (experiment, node); distinct pairs never share one.

    ``path_component`` never emits ``+``, so the joined name is unambiguous.
    """
    return (f"{path_component(experiment_id)}+{path_component(node_id)}"
            + SPOOL_SUFFIX)


def write_spool(spool: ReportSpool, report_doc: dict) -> str:
    """Persist an undelivered report in ``spool``; one document per report.
    The name it is stored under. Nobody changes ``report_doc`` after this."""
    name = spool_name(report_doc["experiment_id"], report_doc["node_id"])
    spool.write(name, report_doc)
    return name


def deliver_report(report_doc: dict, gateway: "GatewayClient",
                   retry: RetryPolicy,
                   sleeper=time.sleep) -> str:
    """Deliver with exponential backoff; 'delivered' or 'undelivered'."""
    delay = retry.base_delay_s
    for attempt in range(1, retry.max_attempts + 1):
        try:
            gateway.deliver_report(report_doc)
            return "delivered"
        except TransportError as exc:
            log.warning("report delivery attempt %d/%d failed: %s",
                        attempt, retry.max_attempts, exc)
            if attempt == retry.max_attempts:
                break
            sleeper(delay)
            delay *= retry.factor
    return "undelivered"


def redeliver_spooled(spool: ReportSpool, gateway: "GatewayClient") -> int:
    """Try undelivered reports from previous runs once each; keep failures.

    A report the gateway refuses, because it does not know the experiment
    or the experiment does not assign the node, is kept and skipped too, so
    it never stops this executor's own pipeline."""
    delivered = 0
    for name in spool.names():
        try:
            report_doc = spool.read(name)
        except ValueError:
            log.warning("dropping corrupt spooled report %s", name)
            spool.remove(name)
            continue
        try:
            gateway.deliver_report(report_doc)
        except (TransportError, UnknownExperiment, UnknownAssignment) as exc:
            log.warning("spooled report of %s on %s not redelivered: %s",
                        report_doc.get("experiment_id"),
                        report_doc.get("node_id"), exc)
            continue
        spool.remove(name)
        delivered += 1
    return delivered


def run_executor(config: ExecutorConfig, runtime: NodeRuntime,
                 gateway: "GatewayClient", spool: ReportSpool,
                 stop: threading.Event | None = None,
                 sleeper=time.sleep) -> int:
    """Full executor run of one node: bundle fetch, spool replay, digest
    check, pipeline, report. Every way it ends is an exit code."""
    try:
        bundle = gateway.fetch_bundle(config.experiment_id, config.node_id)
    except Exception as exc:  # noqa: BLE001 - startup failure is the contract
        log.error("could not obtain bundle for %s/%s: %s",
                  config.experiment_id, config.node_id, exc)
        return EXIT_STARTUP_ERROR
    try:
        redeliver_spooled(spool, gateway)
        if not bundle.digest_matches():
            log.error("bundle digest mismatch for %s/%s",
                      bundle.experiment_id, bundle.node_id)
            return EXIT_STARTUP_ERROR
        started_wall, started_mono = time.time(), time.monotonic()
        results = run_pipeline(bundle, config.registry, runtime, gateway,
                               stop)
        if stop is not None and stop.is_set():
            return EXIT_STOPPED
        report_doc = PipelineReport(
            bundle.experiment_id, bundle.node_id, tuple(results),
            started_wall=started_wall, finished_wall=time.time(),
            started_mono=started_mono,
            finished_mono=time.monotonic()).to_doc()
        name = write_spool(spool, report_doc)
        if deliver_report(report_doc, gateway, REPORT_RETRY,
                          sleeper=sleeper) == "delivered":
            spool.remove(name)
        return EXIT_OK
    except Exception:  # noqa: BLE001 - a dead node, not a dead platform
        log.exception("executor for %s/%s crashed", config.experiment_id,
                      config.node_id)
        return EXIT_CRASHED


# ---------------------------------------------------------------------------
# child-process entry point
# ---------------------------------------------------------------------------

def main() -> int:
    from .gateway import HttpGatewayClient

    logging.basicConfig(level=os.environ.get("EXPFORGE_LOG_LEVEL", "WARNING"))
    config = ExecutorConfig.from_env(os.environ)
    if not config.gateway_url:
        log.error("EXPFORGE_GATEWAY is not set")
        return EXIT_STARTUP_ERROR
    try:
        gateway = HttpGatewayClient(config.gateway_url)
    except TransportError as exc:
        log.error("EXPFORGE_GATEWAY is unusable: %s", exc)
        return EXIT_STARTUP_ERROR
    scratch = Path(os.environ.get("EXPFORGE_SCRATCH", "./expforge-scratch"))
    return run_executor(config, LocalRuntime(scratch), gateway,
                        DirectorySpool(scratch / ".spool"))


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
