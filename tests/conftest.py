from __future__ import annotations

import threading
import time

import pytest

from expforge import Director, MemoryStore, builtin_registry
from expforge.connectors.simulated import FaultModel, SimulatedConnector
from expforge.errors import TransportError
from expforge.executor import PipelineBundle, RetryPolicy
from expforge.model import Pipeline, Status, TaskSpec, TERMINAL_STATUSES

# One server node, ten "campus" clients, ten "cloud" clients.
LISTING1_ATTRS = ([{"location": "azure"}]
                  + [{"location": "campus"}] * 10
                  + [{"location": "cloud"}] * 10)

FAST_SIM = FaultModel(sleep_scale=0.01)


@pytest.fixture(autouse=True)
def no_stray_execute_threads():
    """No execute worker a test starts is alive 2 s after its teardown."""
    before = set(threading.enumerate())

    def stray() -> list[str]:
        return [t.name for t in threading.enumerate()
                if t not in before
                and t.name.startswith(("execute-", "recover-execute-"))]

    yield
    deadline = time.monotonic() + 2.0
    while stray() and time.monotonic() < deadline:
        time.sleep(0.02)
    assert stray() == []


@pytest.fixture
def registry():
    return builtin_registry()


@pytest.fixture
def make_director():
    """Factory for fast-polling directors; closes them all afterwards."""
    created: list[Director] = []

    def factory(connectors, store=None, **kwargs) -> Director:
        director = Director(store or MemoryStore(), builtin_registry(),
                            connectors, **kwargs)
        created.append(director)
        return director

    yield factory
    for director in created:
        director.close()


def listing1_connector(seed: int = 7, fault: FaultModel | None = None,
                       name: str = "sim") -> SimulatedConnector:
    return SimulatedConnector(
        name, node_count=21, per_node_attributes=LISTING1_ATTRS,
        seed=seed, fault=fault or FAST_SIM)


def wait_status(director: Director, experiment_id: str,
                statuses, timeout: float = 30.0) -> Status:
    targets = {Status(s) for s in statuses}
    deadline = time.monotonic() + timeout
    while True:
        status = director.record(experiment_id).status
        if status in targets:
            return status
        if time.monotonic() > deadline:
            raise AssertionError(
                f"{experiment_id} stuck at {status.value}, wanted "
                f"{[s.value for s in targets]}: "
                f"{director.status(experiment_id)}")
        time.sleep(0.01)


def drive(director: Director, experiment_id: str,
          timeout: float = 30.0) -> Status:
    """deploy -> READY -> execute -> terminal; returns the final status."""
    director.deploy(experiment_id)
    status = wait_status(director, experiment_id,
                         {Status.READY, Status.FAILED, Status.CANCELLED},
                         timeout)
    if status is not Status.READY:
        return status
    director.execute(experiment_id)
    return wait_status(director, experiment_id, TERMINAL_STATUSES, timeout)


def sleep_pipeline(stages: int, tasks_per_stage: int,
                   seconds: float = 5.0) -> Pipeline:
    pipeline = Pipeline(pipeline_id=f"shape-{stages}x{tasks_per_stage}")
    for _ in range(stages):
        pipeline = pipeline.then([
            TaskSpec("sleep", params={"seconds": seconds})
            for _ in range(tasks_per_stage)])
    return pipeline


def make_bundle(pipeline: Pipeline, registry, node_id: str = "sim-000",
                kind: str = "simulated", experiment_id: str = "exp",
                retry: RetryPolicy | None = None) -> PipelineBundle:
    impl_ids = {
        task.name: registry.resolve(task.task_type, kind)
        for stage in pipeline.stages for task in stage.tasks}
    return PipelineBundle(
        experiment_id=experiment_id, node_id=node_id, node_kind=kind,
        pipeline=pipeline, pipeline_digest=pipeline.digest(),
        impl_ids=impl_ids, early_stop=pipeline.early_stop,
        report_retry=retry or RetryPolicy(base_delay_s=0.01, max_attempts=3))


class FencedStoreError(Exception):
    """Raised by a killed store: the 'process' died mid-operation."""


class KillSwitchStore:
    """Store wrapper that simulates killing the director at an exact
    persisted state.

    The write that first satisfies ``trigger`` completes durably, then the
    writing thread blocks until the harness releases it, at which point it
    raises (the thread dies exactly as if the process had been killed after
    the write syscall). Once fenced, every further write from the old
    director is rejected.
    """

    def __init__(self, inner, trigger):
        self.inner = inner
        self.trigger = trigger
        self.tripped = threading.Event()
        self.released = threading.Event()
        self._fenced = False

    def fence(self):
        self._fenced = True

    def _maybe_trip(self, record) -> None:
        if not self.tripped.is_set() and self.trigger(record):
            self.tripped.set()
            self.released.wait(15)
            raise FencedStoreError(record.experiment_id)

    def create(self, record):
        if self._fenced:
            raise FencedStoreError(record.experiment_id)
        self.inner.create(record)
        self._maybe_trip(record)

    def save(self, record):
        if self._fenced:
            raise FencedStoreError(record.experiment_id)
        self.inner.save(record)
        self._maybe_trip(record)

    def load(self, experiment_id):
        return self.inner.load(experiment_id)

    def list_ids(self):
        return self.inner.list_ids()

    def exists(self, experiment_id):
        return self.inner.exists(experiment_id)


def kill_director_at(target: Status, experiment, connectors, raw_store,
                     director_kwargs=None) -> str:
    """Run the lifecycle on a doomed director and kill it the moment
    ``target`` is durably persisted. Returns the experiment id; the caller
    restarts on ``raw_store``."""
    kwargs = dict(director_kwargs or {})
    store = KillSwitchStore(
        raw_store, lambda record: Status(record.status) is target)
    doomed = Director(store, builtin_registry(), connectors, **kwargs)
    experiment_id = experiment.experiment_id

    def drive_until_killed():
        try:
            doomed.submit(experiment)
            if target is Status.SUBMITTED:
                return
            doomed.deploy(experiment_id)
            if target is not Status.RUNNING:
                return  # background worker reaches the trigger
            deadline = time.monotonic() + 15
            while raw_store.load(experiment_id).status is not Status.READY:
                if store.tripped.is_set() or time.monotonic() > deadline:
                    return
                time.sleep(0.01)
            doomed.execute(experiment_id)
        except FencedStoreError:
            pass

    driver = threading.Thread(target=drive_until_killed, daemon=True)
    driver.start()
    assert store.tripped.wait(15), f"never reached {target.value}"
    store.fence()
    doomed.close()
    store.released.set()
    driver.join(timeout=15)
    return experiment_id


class FakeGatewayClient:
    """Executor-facing stub: records deliveries, optionally failing first."""

    def __init__(self, fail_deliveries: int = 0,
                 bundles: dict[str, dict] | None = None):
        self.fail_deliveries = fail_deliveries
        self.bundles = dict(bundles or {})  # node id -> bundle doc
        self.delivered: list[dict] = []
        self.attempts = 0
        self.flags: dict[tuple[str, str], dict] = {}
        self.artifacts: dict[tuple[str, str, str], bytes] = {}
        self._lock = threading.Lock()

    def deliver_report(self, report_doc: dict) -> str:
        with self._lock:
            self.attempts += 1
            if self.attempts <= self.fail_deliveries:
                raise TransportError("injected gateway outage")
            duplicate = any(
                d["experiment_id"] == report_doc["experiment_id"]
                and d["node_id"] == report_doc["node_id"]
                for d in self.delivered)
            if duplicate:
                return "duplicate"
            self.delivered.append(report_doc)
            return "accepted"

    def fetch_bundle(self, experiment_id: str, node_id: str) -> dict:
        if node_id not in self.bundles:
            raise TransportError(f"fake client has no bundle for {node_id}")
        return self.bundles[node_id]

    def set_flag(self, experiment_id: str, key: str, node_id: str) -> dict:
        with self._lock:
            flag = self.flags.setdefault(
                (experiment_id, key),
                {"set_wall": time.time(), "set_mono": time.monotonic(),
                 "node_id": node_id})
            return dict(flag)

    def get_flag(self, experiment_id: str, key: str) -> dict:
        with self._lock:
            flag = self.flags.get((experiment_id, key))
        return {"set": True, **flag} if flag else {"set": False}

    def wait_flag(self, experiment_id: str, key: str, timeout_s: float,
                  poll_interval: float = 0.02, cancel=None) -> dict | None:
        deadline = time.monotonic() + timeout_s
        waiter = cancel or threading.Event()
        while True:
            state = self.get_flag(experiment_id, key)
            if state["set"]:
                return state
            if time.monotonic() >= deadline:
                return None
            if cancel is not None and cancel.is_set():
                return None
            waiter.wait(poll_interval)

    def upload_artifact(self, experiment_id: str, node_id: str, name: str,
                        data: bytes) -> dict:
        import hashlib
        with self._lock:
            self.artifacts[(experiment_id, node_id, name)] = data
        return {"digest": hashlib.sha256(data).hexdigest(),
                "size": len(data)}
