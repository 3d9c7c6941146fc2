"""Node-resident executor: runs one pipeline, reports once at the end.

Stages run sequentially with a hard barrier between them; tasks inside a
stage run concurrently, each on its own thread with its own cancellation
event and timeout. The threads are workers of one call (``run_pipeline``,
``run_stage`` or ``run_task``): a task goes to an idle worker, or to a new
one, so a pipeline starts about as many threads as its widest stage has
tasks. A worker whose task ignored its cancel is never reused and ends when
that task returns; a worker of the last stage ends as soon as its task
returns, and the others end when the call returns. The calling thread
hands the tasks out and enforces their deadlines, each anchored at the
moment its worker picked the task up: it fires each task's cancel event at
that task's deadline and only then waits out the cancel grace of the tasks
that timed out. Every task anomaly becomes a TaskResult; nothing
propagates to the caller. The finished report is flushed to a local spool
file before the first delivery attempt and removed only after the gateway
acknowledged it, so a crash or an unreachable gateway never loses results.

Every executor gets its bundle from the gateway (``fetch_bundle``). As a
child process (``python -m expforge.executor``) configuration comes from
environment variables: EXPFORGE_GATEWAY, EXPFORGE_EXPERIMENT_ID,
EXPFORGE_NODE_ID and EXPFORGE_SCRATCH; the report spool is
``<EXPFORGE_SCRATCH>/.spool``.
"""

from __future__ import annotations

import json
import logging
import os
import queue
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Mapping, TYPE_CHECKING

from .errors import TransportError
from .model import (
    NodeDescriptor,
    Outcome,
    Pipeline,
    Stage,
    TaskResult,
    TaskSpec,
    digest_doc,
)
from .registry import TaskError, TaskRegistry
from .store import path_component

if TYPE_CHECKING:  # pragma: no cover
    from .gateway import GatewayClient

log = logging.getLogger("expforge.executor")

EXECUTOR_VERSION = "0.1.0"

# Exit codes: connectors distinguish launch problems from task failures.
EXIT_OK = 0                 # report delivered or spooled (task failures included)
EXIT_STARTUP_ERROR = 2      # bundle unavailable or digest mismatch
EXIT_STOPPED = 3            # stopped before the pipeline finished

CANCEL_GRACE_S = 1.0


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff for report delivery."""

    base_delay_s: float = 1.0
    factor: float = 2.0
    max_attempts: int = 5

    def to_doc(self) -> dict:
        return {"base_delay_s": self.base_delay_s, "factor": self.factor,
                "max_attempts": self.max_attempts}

    @classmethod
    def from_doc(cls, doc: Mapping[str, Any]) -> "RetryPolicy":
        return cls(base_delay_s=float(doc.get("base_delay_s", 1.0)),
                   factor=float(doc.get("factor", 2.0)),
                   max_attempts=int(doc.get("max_attempts", 5)))


@dataclass(frozen=True)
class PipelineBundle:
    """Everything a node needs to run its pipeline, shipped by the compiler."""

    experiment_id: str
    node_id: str
    node_kind: str
    pipeline: Pipeline
    pipeline_digest: str
    impl_ids: Mapping[str, str]
    early_stop: bool = False
    report_retry: RetryPolicy = RetryPolicy()

    def digest_matches(self) -> bool:
        """Tamper/skew check: the shipped digest must match the pipeline."""
        return digest_doc(self.pipeline.to_doc()) == self.pipeline_digest

    def to_doc(self) -> dict:
        return {
            "experiment_id": self.experiment_id,
            "node_id": self.node_id,
            "node_kind": self.node_kind,
            "pipeline": self.pipeline.to_doc(),
            "pipeline_digest": self.pipeline_digest,
            "impl_ids": dict(self.impl_ids),
            "early_stop": self.early_stop,
            "report_retry": self.report_retry.to_doc(),
        }

    @classmethod
    def from_doc(cls, doc: Mapping[str, Any]) -> "PipelineBundle":
        return cls(
            experiment_id=doc["experiment_id"],
            node_id=doc["node_id"],
            node_kind=doc.get("node_kind", "linux-shell"),
            pipeline=Pipeline.from_doc(doc["pipeline"]),
            pipeline_digest=doc["pipeline_digest"],
            impl_ids=dict(doc.get("impl_ids", {})),
            early_stop=bool(doc.get("early_stop", False)),
            report_retry=RetryPolicy.from_doc(doc.get("report_retry", {})),
        )


@dataclass(frozen=True)
class PipelineReport:
    """Single end-of-pipeline report for one (experiment, node)."""

    experiment_id: str
    node_id: str
    results: tuple[TaskResult, ...]
    executor_version: str = EXECUTOR_VERSION
    started_wall: float = 0.0
    finished_wall: float = 0.0
    started_mono: float = 0.0
    finished_mono: float = 0.0

    def to_doc(self) -> dict:
        return {
            "experiment_id": self.experiment_id,
            "node_id": self.node_id,
            "results": [r.to_doc() for r in self.results],
            "executor_version": self.executor_version,
            "started_wall": self.started_wall,
            "finished_wall": self.finished_wall,
            "started_mono": self.started_mono,
            "finished_mono": self.finished_mono,
        }


# ---------------------------------------------------------------------------
# node runtimes
# ---------------------------------------------------------------------------

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

    def file_size(self, path: str) -> int:
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
        proc = subprocess.Popen(
            command, shell=True, cwd=str(self.scratch),
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            try:
                output = proc.communicate(timeout=0.05)[0]
                return proc.returncode, output or ""
            except subprocess.TimeoutExpired:
                expired = deadline is not None and time.monotonic() > deadline
                if cancel.is_set() or expired:
                    proc.kill()
                    output = proc.communicate()[0]
                    return -9, output or ""

    def sleep(self, seconds: float, cancel: threading.Event) -> bool:
        return not cancel.wait(seconds)

    def write_file(self, path: str, content: str | bytes) -> None:
        target = self.resolve(path)
        target.parent.mkdir(parents=True, exist_ok=True)
        if isinstance(content, bytes):
            target.write_bytes(content)
        else:
            target.write_text(content, encoding="utf-8")

    def read_file(self, path: str) -> bytes:
        return self.resolve(path).read_bytes()

    def file_exists(self, path: str) -> bool:
        return self.resolve(path).exists()

    def file_size(self, path: str) -> int:
        return self.resolve(path).stat().st_size


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
    deadline, and records the outcome and its own finish time; the thread
    that handed the task over enforces the deadline (see ``_run_tasks``).
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
        self.done = threading.Event()
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
            self.payload = impl.run(self.task.params, self.ctx)
        except TaskError as exc:
            self.error = str(exc)
            self.payload = exc.payload
        except BaseException as exc:  # noqa: BLE001 - every anomaly is a result
            self.error = f"{type(exc).__name__}: {exc}"
        finally:
            self.finished_wall, self.finished_mono = time.time(), time.monotonic()
            self.done.set()

    def outlived_deadline(self) -> bool:
        """Wait for the task until its deadline, which its worker may still
        move later by stamping the start; True when the deadline passed."""
        while not self.done.wait(max(0.0, self.deadline - time.monotonic())):
            if time.monotonic() >= self.deadline:
                return True
        return False

    def result(self) -> TaskResult:
        outcome, error_text, payload = Outcome.SUCCESS, None, self.payload
        if self.timed_out:
            outcome, error_text, payload = (
                Outcome.TIMEOUT, f"timed out after {self.task.timeout_s}s", None)
        elif self.error is not None:
            outcome, error_text = Outcome.FAILURE, self.error
        if self.done.is_set():
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


def _serve(run: _TaskRun | None, inbox: queue.SimpleQueue) -> None:
    """A worker thread: runs tasks from its inbox until it receives None."""
    while run is not None:
        run.work()
        run = inbox.get()


class _Workers:
    """The task threads of one executor call, one task at a time each.

    A task goes to an idle worker, or to a new one that takes it as its first
    task. A task of the call's last stage is followed in its worker's inbox
    by the None that ends the worker, so that worker exits as soon as the
    task returns. A worker whose task ignored its cancel gets no other: it
    ends when that task returns. Leaving the ``with`` block ends the rest,
    so no worker outlives the call. Only the calling thread uses this object.
    """

    def __init__(self):
        self._idle: list[queue.SimpleQueue] = []
        self._busy: dict[_TaskRun, queue.SimpleQueue] = {}

    def __enter__(self) -> "_Workers":
        return self

    def __exit__(self, *exc_info) -> None:
        for inbox in (*self._idle, *self._busy.values()):
            inbox.put(None)

    def start(self, run: _TaskRun, last: bool) -> None:
        if self._idle:
            inbox = self._idle.pop()
            inbox.put(run)
        else:
            inbox = queue.SimpleQueue()
            threading.Thread(target=_serve, args=(run, inbox), daemon=True,
                             name=f"task-{run.ctx.node.node_id}").start()
        if last:
            inbox.put(None)
        else:
            self._busy[run] = inbox

    def take_back(self, run: _TaskRun) -> None:
        inbox = self._busy.pop(run, None)
        if inbox is None:  # already told to end
            return
        if run.done.is_set():
            self._idle.append(inbox)
        else:
            inbox.put(None)


def _run_tasks(runs: list[_TaskRun], workers: _Workers,
               last: bool = True) -> list[TaskResult]:
    """Run tasks concurrently; results come back in the order of ``runs``.
    ``last`` says no later stage will use the workers.

    Every task is handed out before any is awaited. Deadlines are checked in
    deadline order, each task's cancel event firing at its own deadline. Only
    then are the grace periods of the timed-out tasks waited out, so one
    task's grace never delays another's cancel.
    """
    for run in runs:
        workers.start(run, last)
    graces: list[tuple[_TaskRun, float]] = []
    for run in sorted(runs, key=lambda r: r.deadline):
        if run.outlived_deadline():
            run.timed_out = True
            run.ctx.cancel.set()
            graces.append((run, time.monotonic() + CANCEL_GRACE_S))
    for run, grace_end in graces:
        run.done.wait(max(0.0, grace_end - time.monotonic()))
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
                     replace(base_ctx, cancel=threading.Event(),
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
    the report always covers the full task count.
    """
    base_ctx = TaskContext(
        experiment_id=bundle.experiment_id,
        node=NodeDescriptor(node_id=bundle.node_id, kind=bundle.node_kind),
        runtime=runtime,
        gateway=gateway,
    )
    results: list[TaskResult] = []
    abort = False
    with _Workers() as workers:
        for stage_index, stage in enumerate(bundle.pipeline.stages):
            stopped = stop is not None and stop.is_set()
            if abort or stopped:
                results.extend(_skipped(t, stage_index, bundle.node_id)
                               for t in stage.tasks)
                continue
            stage_results = _run_tasks(
                _stage_runs(stage, stage_index, bundle, registry, base_ctx),
                workers, last=stage_index == len(bundle.pipeline.stages) - 1)
            results.extend(stage_results)
            if bundle.early_stop and any(
                    r.outcome in (Outcome.FAILURE, Outcome.TIMEOUT)
                    for r in stage_results):
                abort = True
    return results


# ---------------------------------------------------------------------------
# report delivery and spooling
# ---------------------------------------------------------------------------

def spool_path(spool_dir: str | Path, experiment_id: str, node_id: str) -> Path:
    """One spool file per (experiment, node); distinct pairs never share one.

    ``path_component`` never emits ``+``, so the joined name is unambiguous.
    """
    name = f"{path_component(experiment_id)}+{path_component(node_id)}"
    return Path(spool_dir) / f"{name}.report.json"


def write_spool(spool_dir: str | Path, report_doc: dict) -> Path:
    """Durably persist an undelivered report; one document per report."""
    directory = Path(spool_dir)
    directory.mkdir(parents=True, exist_ok=True)
    path = spool_path(directory, report_doc["experiment_id"],
                      report_doc["node_id"])
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-")
    with os.fdopen(fd, "w", encoding="utf-8") as handle:
        handle.write(json.dumps(report_doc))
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)
    return path


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


def redeliver_spooled(spool_dir: str | Path, gateway: "GatewayClient") -> int:
    """Try undelivered reports from previous runs once each; keep failures."""
    directory = Path(spool_dir)
    if not directory.is_dir():
        return 0
    delivered = 0
    for path in sorted(directory.glob("*.report.json")):
        try:
            report_doc = json.loads(path.read_text(encoding="utf-8"))
        except json.JSONDecodeError:
            log.warning("dropping corrupt spool file %s", path)
            path.unlink(missing_ok=True)
            continue
        try:
            gateway.deliver_report(report_doc)
        except TransportError:
            continue
        path.unlink(missing_ok=True)
        delivered += 1
    return delivered


def run_executor(bundle: PipelineBundle, registry: TaskRegistry,
                 runtime: NodeRuntime, gateway: "GatewayClient",
                 spool_dir: str | Path,
                 stop: threading.Event | None = None,
                 sleeper=time.sleep) -> int:
    """Full executor run: spool replay, digest check, pipeline, report."""
    redeliver_spooled(spool_dir, gateway)

    if not bundle.digest_matches():
        log.error("bundle digest mismatch for %s/%s",
                  bundle.experiment_id, bundle.node_id)
        return EXIT_STARTUP_ERROR

    started_wall, started_mono = time.time(), time.monotonic()
    results = run_pipeline(bundle, registry, runtime, gateway, stop)
    finished_wall, finished_mono = time.time(), time.monotonic()

    if stop is not None and stop.is_set():
        return EXIT_STOPPED

    report = PipelineReport(
        experiment_id=bundle.experiment_id,
        node_id=bundle.node_id,
        results=tuple(results),
        started_wall=started_wall,
        finished_wall=finished_wall,
        started_mono=started_mono,
        finished_mono=finished_mono,
    )
    report_doc = report.to_doc()
    path = write_spool(spool_dir, report_doc)
    if deliver_report(report_doc, gateway, bundle.report_retry,
                      sleeper=sleeper) == "delivered":
        path.unlink(missing_ok=True)
    return EXIT_OK


# ---------------------------------------------------------------------------
# child-process entry point
# ---------------------------------------------------------------------------

def main(argv: list[str] | None = None) -> int:
    from .gateway import HttpGatewayClient
    from .tasks import builtin_registry

    logging.basicConfig(level=os.environ.get("EXPFORGE_LOG_LEVEL", "WARNING"))
    gateway_url = os.environ.get("EXPFORGE_GATEWAY")
    if not gateway_url:
        log.error("EXPFORGE_GATEWAY is not set")
        return EXIT_STARTUP_ERROR
    gateway = HttpGatewayClient(gateway_url)
    scratch = os.environ.get("EXPFORGE_SCRATCH", "./expforge-scratch")
    spool = str(Path(scratch) / ".spool")
    try:
        bundle = PipelineBundle.from_doc(gateway.fetch_bundle(
            os.environ["EXPFORGE_EXPERIMENT_ID"],
            os.environ["EXPFORGE_NODE_ID"]))
    except Exception as exc:  # noqa: BLE001 - startup failure is the contract
        log.error("could not obtain bundle: %s", exc)
        return EXIT_STARTUP_ERROR
    runtime = LocalRuntime(scratch)
    return run_executor(bundle, builtin_registry(), runtime, gateway, spool)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
