"""Director: lifecycle, fault handling, cancellation, crash recovery."""

from __future__ import annotations

import threading
import time
from collections import Counter

import pytest

from conftest import (
    FAST_SIM,
    KillSwitchStore,
    drive,
    kill_director_at,
    wait_status,
)
import expforge.director as director_module
from expforge import Director, FileStore, MemoryStore
from expforge.compiler import CLEAN_SCRATCH_COMMAND
from expforge.connectors import PrepareResult
from expforge.connectors.ssh import SshConnector, SshHost
from expforge.connectors.simulated import FaultModel, SimulatedConnector
from expforge.errors import (
    AlreadyTerminal,
    DuplicateExperimentName,
    InvalidTransition,
    LaunchFailed,
    NotReady,
    UnknownExperiment,
    ValidationFailed,
)
from expforge.model import (
    Experiment,
    NodeState,
    Pipeline,
    Policies,
    TERMINAL_STATUSES,
    Status,
    TaskSpec,
    is_valid_transition,
)
from expforge.store import ExperimentRecord


def sleep_experiment(connector, *, nodes=2, name="exp", seconds=0.2,
                     timeout_s=30.0, strictness="all-or-nothing",
                     early_stop=False) -> Experiment:
    pool = connector.list_nodes()
    pipeline = Pipeline("p", early_stop=early_stop).then(
        TaskSpec("sleep", params={"seconds": seconds}))
    return Experiment(
        name, policies=Policies(deploy_strictness=strictness,
                                experiment_timeout_s=timeout_s)
    ).map(pipeline, pool.take(nodes, strict=True))


@pytest.fixture
def sim20():
    return SimulatedConnector("sim", node_count=20, fault=FAST_SIM)


# ---------------------------------------------------------------------------
# submit
# ---------------------------------------------------------------------------

class TestSubmit:
    def test_valid_submission(self, make_director, sim20):
        director = make_director({"sim": sim20})
        eid = director.submit(sleep_experiment(sim20))
        assert director.record(eid).status is Status.SUBMITTED

    def test_duplicate_name_rejected(self, make_director, sim20):
        director = make_director({"sim": sim20})
        director.submit(sleep_experiment(sim20, name="twice"))
        with pytest.raises(DuplicateExperimentName):
            director.submit(sleep_experiment(sim20, name="twice"))

    def test_invalid_experiment_rejected(self, make_director, sim20):
        director = make_director({"sim": sim20})
        pool = sim20.list_nodes()
        bad = Experiment("bad").map(
            Pipeline("p").then(TaskSpec("no-such-task")), pool.take(1))
        with pytest.raises(ValidationFailed):
            director.submit(bad)

    def test_submit_survives_restart(self, make_director, sim20, tmp_path):
        store = FileStore(tmp_path / "records")
        director = make_director({"sim": sim20}, store=store)
        eid = director.submit(sleep_experiment(sim20, name="durable"))
        director.close()
        reborn = make_director({"sim": sim20}, store=store)
        assert reborn.record(eid).status is Status.SUBMITTED


# ---------------------------------------------------------------------------
# deploy
# ---------------------------------------------------------------------------

class TestDeploy:
    def test_twenty_clean_nodes_ready(self, make_director, sim20):
        director = make_director({"sim": sim20})
        eid = director.submit(sleep_experiment(sim20, nodes=20))
        director.deploy(eid)
        assert wait_status(director, eid,
                           {Status.READY, Status.FAILED}) is Status.READY
        record = director.record(eid)
        assert len(record.prepared_nodes()) == 20

    def test_injected_failure_all_or_nothing(self, make_director):
        connector = SimulatedConnector(
            "sim", node_count=20,
            fault=FaultModel(prepare_fail_nodes=frozenset({"sim-007"}),
                             sleep_scale=0.01))
        director = make_director({"sim": connector})
        eid = director.submit(sleep_experiment(connector, nodes=20))
        director.deploy(eid)
        assert wait_status(director, eid,
                           {Status.READY, Status.FAILED}) is Status.FAILED
        record = director.record(eid)
        assert record.nodes["sim-007"]["state"] == "prepare-failed"
        assert len(record.prepared_nodes()) == 19

    def test_injected_failure_best_effort(self, make_director):
        connector = SimulatedConnector(
            "sim", node_count=20,
            fault=FaultModel(prepare_fail_nodes=frozenset({"sim-007"}),
                             sleep_scale=0.01))
        director = make_director({"sim": connector})
        eid = director.submit(sleep_experiment(connector, nodes=20,
                                               strictness="best-effort"))
        director.deploy(eid)
        assert wait_status(director, eid,
                           {Status.READY, Status.FAILED}) is Status.READY
        assert len(director.record(eid).prepared_nodes()) == 19

    def test_deploy_idempotent_while_in_flight(self, make_director, sim20):
        director = make_director({"sim": sim20})
        eid = director.submit(sleep_experiment(sim20))
        director.deploy(eid)
        director.deploy(eid)  # no-op, no error
        wait_status(director, eid, {Status.READY})
        director.deploy(eid)  # READY: still a no-op

    def test_deploy_unknown_experiment(self, make_director, sim20):
        director = make_director({"sim": sim20})
        with pytest.raises(UnknownExperiment):
            director.deploy("ghost")

    def test_missing_connector_fails_node_preparation(self, make_director,
                                                      sim20):
        director = make_director({"elsewhere": sim20})  # ref 'sim' unmapped
        eid = director.submit(sleep_experiment(sim20, nodes=2))
        director.deploy(eid)
        assert wait_status(director, eid,
                           {Status.READY, Status.FAILED}) is Status.FAILED
        states = director.record(eid).nodes
        assert all(s["state"] == "prepare-failed" for s in states.values())
        assert "connector" in states["sim-000"]["reason"]

    def test_compile_failure_marks_failed(self, make_director, sim20):
        director = make_director({"sim": sim20})
        exp = sleep_experiment(sim20, name="stale")
        eid = director.submit(exp)
        # registry drift after submit: swap in an empty registry
        director.registry = type(director.registry)()
        director.deploy(eid)
        assert wait_status(director, eid,
                           {Status.READY, Status.FAILED}) is Status.FAILED
        assert any(e["phase"] == "compile"
                   for e in director.record(eid).errors)


# ---------------------------------------------------------------------------
# execute / completion
# ---------------------------------------------------------------------------

class TestExecute:
    def test_execute_before_deploy_not_ready(self, make_director, sim20):
        director = make_director({"sim": sim20})
        eid = director.submit(sleep_experiment(sim20))
        with pytest.raises(NotReady):
            director.execute(eid)

    def test_full_run_finishes(self, make_director, sim20):
        director = make_director({"sim": sim20})
        eid = director.submit(sleep_experiment(sim20, nodes=5))
        assert drive(director, eid) is Status.FINISHED
        record = director.record(eid)
        assert len(record.reports) == 5
        assert len(record.results) == 5

    def test_status_view_during_run(self, make_director, sim20):
        director = make_director({"sim": sim20})
        pool = sim20.list_nodes()
        pipeline = Pipeline("p").then(
            TaskSpec("wait-flag", params={"key": "go", "timeout_s": 20}))
        eid = director.submit(Experiment("held").map(pipeline, pool.take(2)))
        director.deploy(eid)
        wait_status(director, eid, {Status.READY})
        director.execute(eid)
        wait_status(director, eid, {Status.RUNNING})
        view = director.status(eid)
        assert view["status"] == "RUNNING"
        assert set(view["nodes"]) == {"sim-000", "sim-001"}
        assert all(n["deploy"] == "prepared" for n in view["nodes"].values())
        director.gateway.set_flag(eid, "go", "test")
        wait_status(director, eid, {Status.FINISHED})
        final = director.status(eid)
        assert final["reported_count"] == 2
        assert final["result_count"] == 2

    def test_results_before_execute_empty(self, make_director, sim20):
        director = make_director({"sim": sim20})
        eid = director.submit(sleep_experiment(sim20))
        assert director.results(eid)["pipelines"] == {}

    def test_silent_node_times_out_experiment_finishes(self, make_director):
        connector = SimulatedConnector(
            "sim", node_count=3,
            fault=FaultModel(silent_nodes=frozenset({"sim-001"}),
                             sleep_scale=0.01))
        director = make_director({"sim": connector})
        eid = director.submit(sleep_experiment(connector, nodes=3,
                                               timeout_s=1.5))
        assert drive(director, eid) is Status.FINISHED
        record = director.record(eid)
        assert record.nodes["sim-001"]["state"] == "timed-out"
        assert record.nodes["sim-000"]["state"] == "reported"
        assert record.nodes["sim-002"]["state"] == "reported"

    def test_early_stop_failure_produces_skips(self, make_director, sim20):
        director = make_director({"sim": sim20})
        pool = sim20.list_nodes()
        pipeline = (Pipeline("p", early_stop=True)
                    .then(TaskSpec("shell", params={"command": "true"}))
                    .then(TaskSpec("shell", params={"command": "false"}))
                    .then([TaskSpec("sleep", params={"seconds": 0}),
                           TaskSpec("sleep", params={"seconds": 0})]))
        eid = director.submit(Experiment("stop").map(pipeline, pool.take(1)))
        assert drive(director, eid) is Status.FINISHED
        results = director.results(eid)["pipelines"]["p"]["sim-000"]
        outcomes = [r["outcome"] for r in results]
        assert outcomes == ["success", "failure", "skipped", "skipped"]

    def test_prepare_failed_node_never_launched(self, make_director):
        connector = SimulatedConnector(
            "sim", node_count=3,
            fault=FaultModel(prepare_fail_nodes=frozenset({"sim-002"}),
                             sleep_scale=0.01))
        director = make_director({"sim": connector})
        eid = director.submit(sleep_experiment(connector, nodes=3,
                                               strictness="best-effort"))
        assert drive(director, eid) is Status.FINISHED
        failed_node = connector.infra.node("sim-002")
        assert not any(e.scope == "launch" for e in failed_node.events)
        assert "token" not in director.record(eid).nodes["sim-002"]

    def test_launch_fault_ends_the_node_not_the_run(self, make_director):
        def runner(host, command):
            if "expforge.executor" in command:
                raise OSError(24, "Too many open files")
            return 0, ""

        connector = SshConnector("lab", hosts=[SshHost("h1")], runner=runner)
        director = make_director({"lab": connector},
                                 gateway_url="http://director:8714")
        eid = director.submit(sleep_experiment(connector, nodes=1,
                                               timeout_s=2.0))
        assert drive(director, eid, timeout=1.0) is Status.FAILED
        record = director.record(eid)
        assert record.transitions[-1]["at"] < record.deadline_wall - 1.0
        state = record.nodes["lab-h1"]
        assert state["state"] == "unreachable"
        assert "Too many open files" in state["reason"]

    def test_at_most_once_tokens(self, make_director, sim20):
        director = make_director({"sim": sim20})
        eid = director.submit(sleep_experiment(sim20, nodes=4))
        director.deploy(eid)
        wait_status(director, eid, {Status.READY})
        director.execute(eid)
        director.execute(eid)  # idempotent second call
        wait_status(director, eid, {Status.FINISHED})
        starts = sim20.infra.task_start_events()
        assert len(starts) == len(set(starts)), "a task ran twice"
        tokens = [s.get("token") for s in
                  director.record(eid).nodes.values()]
        assert all(tokens) and len(set(tokens)) == 4


# ---------------------------------------------------------------------------
# cancel / cleanup
# ---------------------------------------------------------------------------

class TestCancelCleanup:
    def test_cancel_during_running(self, make_director, sim20):
        director = make_director({"sim": sim20})
        pool = sim20.list_nodes()
        pipeline = (Pipeline("p")
                    .then(TaskSpec("wait-flag",
                                   params={"key": "never", "timeout_s": 30}))
                    .then(TaskSpec("shell", params={"command": "late-work"})))
        eid = director.submit(Experiment("c").map(pipeline, pool.take(2)))
        director.deploy(eid)
        wait_status(director, eid, {Status.READY})
        director.execute(eid)
        wait_status(director, eid, {Status.RUNNING})
        director.cancel(eid)
        assert director.record(eid).status is Status.CANCELLED
        time.sleep(0.3)  # executors notice the stop event
        assert director.record(eid).reports == {}
        # the post-wait stage never started anywhere
        for node in sim20.infra.nodes.values():
            assert not any("late-work" in str(e.detail) for e in node.events)

    def test_cancel_ends_every_launched_node(self, make_director, sim20):
        director = make_director({"sim": sim20})
        pipeline = Pipeline("p").then(
            TaskSpec("wait-flag", params={"key": "never", "timeout_s": 30}))
        eid = director.submit(
            Experiment("ends").map(pipeline, sim20.list_nodes().take(2)))
        director.deploy(eid)
        wait_status(director, eid, {Status.READY})
        director.execute(eid)
        wait_status(director, eid, {Status.RUNNING})
        deadline = time.monotonic() + 10
        while director.record(eid).nodes_in(("prepared",)):  # tokens unwritten
            assert time.monotonic() < deadline
            time.sleep(0.01)
        before = time.time()
        director.cancel(eid)
        record = director.record(eid)
        assert len(record.nodes) == 2
        for node in record.nodes.values():
            assert node["state"] == "cancelled"
            assert node["reason"] == "experiment cancelled"
            assert node["at"] >= before
        view = director.status(eid)
        assert {n["execution"] for n in view["nodes"].values()} \
            == {"cancelled"}
        # a report that still arrives is kept as late; the node stays ended
        node_id = sorted(record.nodes)[0]
        assert director.gateway.ingest_report(
            {"experiment_id": eid, "node_id": node_id, "results": []}) \
            == "accepted"
        node = director.record(eid).nodes[node_id]
        assert (node["state"], node["late"]) == ("cancelled", True)

    def test_cancel_finished_already_terminal(self, make_director, sim20):
        director = make_director({"sim": sim20})
        eid = director.submit(sleep_experiment(sim20))
        assert drive(director, eid) is Status.FINISHED
        with pytest.raises(AlreadyTerminal):
            director.cancel(eid)

    def test_terminal_save_releases_experiment_state(self, make_director,
                                                     sim20):
        """Finishing and cancelling each drop the experiment's handles and
        deadline wake-up; no director thread polls."""
        director = make_director({"sim": sim20})
        pipeline = Pipeline("p").then(
            TaskSpec("wait-flag", params={"key": "go", "timeout_s": 30}))
        eids = []
        for name in ("ends-finished", "ends-cancelled"):
            eid = director.submit(Experiment(
                name, policies=Policies(experiment_timeout_s=60)).map(
                pipeline, sim20.list_nodes().take(2)))
            director.deploy(eid)
            wait_status(director, eid, {Status.READY})
            director.execute(eid)
            eids.append(eid)

        def held(eid: str) -> list:
            return ([k for k in list(director._handles) if k[0] == eid]
                    + [e for e in list(director._monitors) if e == eid])

        def director_threads(eid: str) -> list[str]:
            return [t.name for t in threading.enumerate()
                    if t.name in (f"execute-{eid}", f"monitor-{eid}")]

        deadline = time.monotonic() + 5
        while any(len(held(eid)) < 3 for eid in eids):
            assert time.monotonic() < deadline, [held(e) for e in eids]
            time.sleep(0.01)
        assert all(director_threads(eid) == [f"execute-{eid}"]
                   for eid in eids)

        finished, cancelled = eids
        director.gateway.set_flag(finished, "go", "test")
        wait_status(director, finished, {Status.FINISHED})
        director.cancel(cancelled)
        deadline = time.monotonic() + 2
        while any(held(e) or director_threads(e) for e in eids):
            assert time.monotonic() < deadline, [
                (held(e), director_threads(e)) for e in eids]
            time.sleep(0.01)

    def test_cleanup_requires_terminal(self, make_director, sim20):
        director = make_director({"sim": sim20})
        eid = director.submit(sleep_experiment(sim20))
        with pytest.raises(InvalidTransition):
            director.cleanup(eid)

    def test_cleanup_empties_sim_scratch(self, make_director, sim20):
        director = make_director({"sim": sim20})
        pool = sim20.list_nodes()
        pipeline = (Pipeline("p")
                    .then(TaskSpec("capture-start",
                                   params={"out_path": "t.pcap"}))
                    .then(TaskSpec("capture-stop")))
        eid = director.submit(Experiment("scrub").map(pipeline, pool.take(2)))
        assert drive(director, eid) is Status.FINISHED
        assert sim20.infra.node("sim-000").files() == ["t.pcap"]
        outcomes = director.cleanup(eid)
        assert all(o["ok"] for o in outcomes.values())
        assert sim20.infra.node("sim-000").files() == []
        assert sim20.infra.node("sim-001").files() == []


# ---------------------------------------------------------------------------
# status polling consistency
# ---------------------------------------------------------------------------

def test_rapid_polls_observe_only_legal_sequences(make_director, sim20):
    # A sampling poller may miss short-lived states (COMPILING lasts about a
    # millisecond), so it is held to the persisted path: what it sees must be
    # that path, in order, with some states possibly skipped, never a torn,
    # invented or backward status.
    director = make_director({"sim": sim20})
    eid = director.submit(sleep_experiment(sim20, nodes=6, seconds=2.0))
    collapsed: list[str] = []

    def poller():
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            status = director.status(eid)["status"]
            if not collapsed or status != collapsed[-1]:
                collapsed.append(status)
            if Status(status) in TERMINAL_STATUSES:
                return

    thread = threading.Thread(target=poller, daemon=True)
    thread.start()
    assert drive(director, eid) is Status.FINISHED
    thread.join(timeout=60)

    transitions = director.record(eid).transitions
    path = [transitions[0]["from"]] + [move["to"] for move in transitions]
    for src, dst in zip(path, path[1:]):
        assert is_valid_transition(Status(src), Status(dst)), \
            f"illegal persisted move {src} -> {dst} in {path}"
    assert collapsed[0] == Status.SUBMITTED.value
    assert collapsed[-1] == Status.FINISHED.value
    remaining = iter(path)
    assert all(status in remaining for status in collapsed), \
        f"observed {collapsed} is not an in-order part of {path}"


# ---------------------------------------------------------------------------
# transition log audit
# ---------------------------------------------------------------------------

def test_persisted_transition_log_contains_only_legal_edges(make_director):
    scenarios = []
    clean = SimulatedConnector("ok", node_count=2, fault=FAST_SIM)
    director = make_director({"ok": clean})
    eid = director.submit(sleep_experiment(clean, name="good"))
    drive(director, eid)
    scenarios.append(director.record(eid))

    broken = SimulatedConnector(
        "bad", node_count=2,
        fault=FaultModel(prepare_fail_prob=1.0, sleep_scale=0.01))
    director2 = make_director({"bad": broken})
    exp = sleep_experiment(broken, name="failing")
    eid2 = director2.submit(exp)
    drive(director2, eid2)
    scenarios.append(director2.record(eid2))

    for record in scenarios:
        for move in record.transitions:
            assert is_valid_transition(Status(move["from"]),
                                       Status(move["to"]))


# ---------------------------------------------------------------------------
# crash recovery
# ---------------------------------------------------------------------------

NON_TERMINAL = [Status.SUBMITTED, Status.COMPILING, Status.DEPLOYING,
                Status.READY, Status.RUNNING]


@pytest.mark.parametrize("target", NON_TERMINAL,
                         ids=[s.value for s in NON_TERMINAL])
def test_kill_and_recover_at_status(target, make_director, tmp_path):
    connector = SimulatedConnector(f"sim", node_count=4, fault=FAST_SIM)
    raw_store = FileStore(tmp_path / "records")
    experiment = sleep_experiment(connector, nodes=4,
                                  name=f"kill-{target.value.lower()}")
    eid = kill_director_at(target, experiment, {"sim": connector}, raw_store)

    # durably persisted status is exactly where we killed
    assert raw_store.load(eid).status is target

    reborn = make_director({"sim": connector}, store=raw_store, recover=False)
    assert reborn.record(eid).status is target
    reborn.recover()

    if target is Status.SUBMITTED:
        reborn.deploy(eid)
    if target in (Status.SUBMITTED, Status.COMPILING, Status.DEPLOYING):
        wait_status(reborn, eid, {Status.READY})
    if target is not Status.RUNNING:
        reborn.execute(eid)
    assert wait_status(reborn, eid, {Status.FINISHED, Status.FAILED},
                       timeout=30) is Status.FINISHED

    starts = connector.infra.task_start_events()
    assert len(starts) == len(set(starts)), "image of a task ran twice"
    assert len(reborn.record(eid).results) == 4


def test_recovery_repolls_inflight_nodes_without_relaunch(make_director,
                                                          tmp_path):
    """A RUNNING experiment whose nodes already hold tokens is re-polled:
    the restarted director never launches them again."""
    connector = SimulatedConnector("sim", node_count=2, fault=FAST_SIM)
    raw_store = FileStore(tmp_path / "records")
    director = make_director({"sim": connector}, store=raw_store)
    pool = connector.list_nodes()
    pipeline = Pipeline("p").then(
        TaskSpec("wait-flag", params={"key": "go", "timeout_s": 20}))
    eid = director.submit(
        Experiment("repoll", policies=Policies(experiment_timeout_s=30))
        .map(pipeline, list(pool)))
    director.deploy(eid)
    wait_status(director, eid, {Status.READY})
    director.execute(eid)
    wait_status(director, eid, {Status.RUNNING})
    def launch_count() -> int:
        return len([e for n in connector.infra.nodes.values()
                    for e in n.events if e.scope == "launch"])

    deadline = time.monotonic() + 10
    while launch_count() < 2 or not all(
            s.get("token") for s in director.record(eid).nodes.values()):
        assert time.monotonic() < deadline
        time.sleep(0.01)
    launches_before = launch_count()
    director.close()  # abrupt stop; executors keep running on the "nodes"

    reborn = make_director({"sim": connector}, store=raw_store)
    assert reborn.record(eid).status is Status.RUNNING
    reborn.gateway.set_flag(eid, "go", "test")
    wait_status(reborn, eid, {Status.FINISHED})
    assert launch_count() == launches_before
    starts = connector.infra.task_start_events()
    assert len(starts) == len(set(starts))


# ---------------------------------------------------------------------------
# batched commits
# ---------------------------------------------------------------------------

def test_tokens_durable_before_first_launch(make_director, tmp_path):
    """Each launch finds every prepared node's token already on disk."""
    root = tmp_path / "records"
    tokenless_at_launch: list[list[str]] = []

    class TokenCheckingConnector(SimulatedConnector):
        def launch_executor(self, node, config):
            record = FileStore(root).load(config.experiment_id)
            tokenless_at_launch.append(
                [n for n in record.prepared_nodes()
                 if not record.nodes[n].get("token")])
            return super().launch_executor(node, config)

    connector = TokenCheckingConnector("sim", node_count=6, fault=FAST_SIM)
    director = make_director({"sim": connector}, store=FileStore(root))
    eid = director.submit(sleep_experiment(connector, nodes=6))
    assert drive(director, eid) is Status.FINISHED
    assert tokenless_at_launch == [[]] * 6


class PrepareProbe(SimulatedConnector):
    """Counts prepare calls per node and returns in all; a prepare of a node
    in ``held`` blocks until ``release`` is set."""

    def __init__(self, *args, held=frozenset(), **kwargs):
        super().__init__(*args, **kwargs)
        self.held = held
        self.release = threading.Event()
        self.calls: Counter[str] = Counter()
        self.returned = 0
        self._lock = threading.Lock()

    def prepare(self, node, env):
        with self._lock:
            self.calls[node.node_id] += 1
        if node.node_id in self.held:
            self.release.wait(10)
        try:
            return super().prepare(node, env)
        finally:
            with self._lock:
                self.returned += 1


def settled_nodes(record) -> int:
    return sum(s.get("state") != "pending"
               for s in record.nodes.values())


def test_prepare_outcomes_committed_in_batches(make_director):
    """20 outcomes take far fewer than 20 commits: the first commit is held
    until every prepare has returned, so the next one takes the rest."""
    connector = PrepareProbe("sim", node_count=20, fault=FAST_SIM)

    class OutcomeCommits(MemoryStore):
        commits = 0

        def save(self, record):
            if settled_nodes(record) > settled_nodes(
                    self._committed(record.experiment_id)):
                self.commits += 1
                deadline = time.monotonic() + 10
                while connector.returned < 20 \
                        and time.monotonic() < deadline:
                    time.sleep(0.001)
            super().save(record)

    store = OutcomeCommits()
    director = make_director({"sim": connector}, store=store)
    eid = director.submit(sleep_experiment(connector, nodes=20))
    director.deploy(eid)
    assert wait_status(director, eid, {Status.READY}) is Status.READY
    assert len(director.record(eid).prepared_nodes()) == 20
    assert store.commits < 20, store.commits


def test_recovery_prepares_only_uncommitted_nodes(make_director):
    """A director stopped while some prepares hang has committed the others;
    a fresh director over the same store prepares only the rest."""
    held = frozenset(f"sim-{i:03d}" for i in range(10, 20))
    connector = PrepareProbe("sim", node_count=20, fault=FAST_SIM, held=held)
    store = MemoryStore()
    doomed_store = KillSwitchStore(store, lambda record: False)
    doomed = make_director({"sim": connector}, store=doomed_store)
    eid = doomed.submit(sleep_experiment(connector, nodes=20))
    doomed.deploy(eid)
    deadline = time.monotonic() + 10
    while len(store.load(eid).prepared_nodes()) < 10:
        assert time.monotonic() < deadline
        time.sleep(0.01)
    doomed_store.fence()
    doomed.close()
    committed = set(store.load(eid).prepared_nodes())
    assert committed.isdisjoint(held) and len(committed) == 10
    calls_before = Counter(connector.calls)
    connector.held = frozenset()  # the doomed director's calls stay blocked
    try:
        reborn = make_director({"sim": connector}, store=store)
        assert wait_status(reborn, eid, {Status.READY}) is Status.READY
        prepared_again = connector.calls - calls_before
        assert prepared_again == Counter(held)
        assert len(reborn.record(eid).prepared_nodes()) == 20
    finally:
        connector.release.set()


def test_ended_experiments_keep_no_monitor(make_director, sim20):
    """A monitor lives only while some thread holds it, so twenty ended
    experiments leave none behind on their director."""
    director = make_director({"sim": sim20})
    for index in range(20):
        eid = director.submit(sleep_experiment(sim20, name=f"m{index}",
                                               seconds=0))
        assert drive(director, eid) is Status.FINISHED
    deadline = time.monotonic() + 2.0
    while len(director._monitors) and time.monotonic() < deadline:
        time.sleep(0.01)
    assert len(director._monitors) == 0


# ---------------------------------------------------------------------------
# paths that only a fault or a racing cancel reaches
# ---------------------------------------------------------------------------

def hold_spawns(director, monkeypatch) -> list:
    """Keep the workers ``director`` starts from now on; the test runs each
    one itself, at the point of the race it wants."""
    spawned: list = []
    monkeypatch.setattr(director, "_spawn",
                        lambda target, *args, name: spawned.append(
                            lambda: target(*args)))
    return spawned


def test_deploy_requires_submitted(make_director, sim20):
    director = make_director({"sim": sim20})
    eid = director.submit(sleep_experiment(sim20))
    director.cancel(eid)
    with pytest.raises(InvalidTransition, match="deploy requires SUBMITTED"):
        director.deploy(eid)


def test_workers_started_after_a_cancel_change_nothing(make_director, sim20,
                                                       monkeypatch):
    director = make_director({"sim": sim20})
    ready = director.submit(sleep_experiment(sim20, name="ready"))
    director.deploy(ready)
    wait_status(director, ready, {Status.READY})
    spawned = hold_spawns(director, monkeypatch)
    compiling = director.submit(sleep_experiment(sim20, name="compiling"))
    director.deploy(compiling)
    director.execute(ready)
    for eid in (compiling, ready):
        director.cancel(eid)
    before = {eid: director.record(eid) for eid in (compiling, ready)}
    for worker in spawned:
        worker()
    for eid, record in before.items():
        after = director.record(eid)
        assert after.status is Status.CANCELLED
        assert (after.plan_doc, after.nodes, after.errors) \
            == (record.plan_doc, record.nodes, record.errors)
    assert sim20.infra.task_start_events() == []


@pytest.mark.parametrize("compiles", [True, False],
                         ids=["compiled", "compile-failed"])
def test_cancel_during_compile_wins(make_director, sim20, monkeypatch,
                                    compiles):
    director = make_director({"sim": sim20})
    spawned = hold_spawns(director, monkeypatch)
    eid = director.submit(sleep_experiment(sim20))
    real_compile = director_module.compile_experiment

    def compile_then_cancel(exp, registry):
        plan = real_compile(exp, registry)
        director.cancel(exp.experiment_id)
        if not compiles:
            raise ValidationFailed([])
        return plan

    monkeypatch.setattr(director_module, "compile_experiment",
                        compile_then_cancel)
    director.deploy(eid)
    spawned.pop()()
    record = director.record(eid)
    assert record.status is Status.CANCELLED
    assert (record.plan_doc, record.errors) == (None, [])


def test_cancel_during_prepare_wins(make_director, monkeypatch):
    class CancelsOnPrepare(SimulatedConnector):
        def prepare(self, node, env):
            if node.node_id == "sim-000":
                director.cancel("exp")
            return super().prepare(node, env)

    connector = CancelsOnPrepare("sim", node_count=3, fault=FAST_SIM)
    director = make_director({"sim": connector})
    spawned = hold_spawns(director, monkeypatch)
    director.submit(sleep_experiment(connector, nodes=3))
    director.deploy("exp")
    spawned.pop()()
    record = director.record("exp")
    assert record.status is Status.CANCELLED
    assert record.errors == []
    assert len(record.prepared_nodes()) == 3


def test_prepare_that_raises_fails_only_its_node(make_director):
    class BrokenPrepare(SimulatedConnector):
        def prepare(self, node, env):
            if node.node_id == "sim-001":
                raise RuntimeError("disk on fire")
            return super().prepare(node, env)

    connector = BrokenPrepare("sim", node_count=3, fault=FAST_SIM)
    director = make_director({"sim": connector})
    eid = director.submit(sleep_experiment(connector, nodes=3,
                                           strictness="best-effort"))
    assert drive(director, eid) is Status.FINISHED
    record = director.record(eid)
    assert record.nodes["sim-001"] == {"state": "prepare-failed",
                                       "reason": "disk on fire",
                                       "at": record.nodes["sim-001"]["at"]}
    assert len(record.reports) == 2


def test_silent_prepare_failures_still_carry_a_reason(make_director):
    """A failing command with no output, and an exception with no message,
    still end their node with a reason."""
    class SilentFailures(SimulatedConnector):
        def prepare(self, node, env):
            if node.node_id == "sim-000":
                return PrepareResult(False, "command -v tcpdump", "")
            raise RuntimeError()

    connector = SilentFailures("sim", node_count=2, fault=FAST_SIM)
    director = make_director({"sim": connector})
    eid = director.submit(sleep_experiment(connector, nodes=2))
    director.deploy(eid)
    assert wait_status(director, eid, TERMINAL_STATUSES) is Status.FAILED
    nodes = director.status(eid)["nodes"]
    record = director.record(eid)
    assert nodes["sim-000"]["failed_command"] == "command -v tcpdump"
    assert record.nodes["sim-000"]["reason"] == "'command -v tcpdump' failed"
    assert record.nodes["sim-001"]["reason"] == "RuntimeError()"


def test_close_during_the_launch_loop_stops_launching(make_director,
                                                      monkeypatch):
    class ClosesOnLaunch(SimulatedConnector):
        def launch_executor(self, node, config):
            director.close()
            return super().launch_executor(node, config)

    connector = ClosesOnLaunch("sim", node_count=3, fault=FAST_SIM)
    director = make_director({"sim": connector})
    eid = director.submit(sleep_experiment(connector, nodes=3, seconds=0))
    director.deploy(eid)
    wait_status(director, eid, {Status.READY})
    spawned = hold_spawns(director, monkeypatch)
    director.execute(eid)
    spawned.pop()()
    launched = [node_id for node_id, node in connector.infra.nodes.items()
                if any(e.scope == "launch" for e in node.events)]
    assert launched == ["sim-000"]


def test_a_report_before_a_failed_launch_ends_stands(make_director):
    # The executor reports from its own thread while the launch that
    # started it is still running, and then the launch raises.
    class ReportsThenRaises(SimulatedConnector):
        def launch_executor(self, node, config):
            handle = super().launch_executor(node, config)
            if node.node_id != "sim-000":
                return handle
            monitor = director.monitor(config.experiment_id)
            give_up = time.monotonic() + 5.0
            with monitor:  # already held: wait releases it to the report
                while director.record(config.experiment_id).nodes[
                        node.node_id]["state"] != "reported" \
                        and time.monotonic() < give_up:
                    monitor.wait(0.01)
            raise LaunchFailed("launch timed out after its executor started")

    connector = ReportsThenRaises("sim", node_count=3, fault=FAST_SIM)
    director = make_director({"sim": connector})
    eid = director.submit(sleep_experiment(connector, nodes=3, seconds=0,
                                           timeout_s=10.0))
    assert drive(director, eid, timeout=5.0) is Status.FINISHED
    record = director.record(eid)
    assert {n: s["state"] for n, s in record.nodes.items()} == {
        "sim-000": "reported", "sim-001": "reported", "sim-002": "reported"}
    launched = [node_id for node_id, node in connector.infra.nodes.items()
                if any(e.scope == "launch" for e in node.events)]
    assert launched == ["sim-000", "sim-001", "sim-002"]


def test_missing_connector_at_launch_ends_each_node(make_director, sim20):
    director = make_director({"sim": sim20})
    eid = director.submit(sleep_experiment(sim20, nodes=2))
    director.deploy(eid)
    wait_status(director, eid, {Status.READY})
    del director.connectors["sim"]
    director.execute(eid)
    assert wait_status(director, eid, TERMINAL_STATUSES) is Status.FAILED
    record = director.record(eid)
    assert {s["state"] for s in record.nodes.values()} == {"unreachable"}
    assert record.nodes["sim-000"]["reason"] == "connector 'sim' missing"


def test_cancel_survives_a_stop_that_raises(make_director, caplog):
    class StubbornStop(SimulatedConnector):
        def stop_executor(self, handle):
            super().stop_executor(handle)
            raise LaunchFailed(f"{handle.node_id} did not answer the stop")

    connector = StubbornStop("sim", node_count=2, fault=FAST_SIM)
    director = make_director({"sim": connector})
    pipeline = Pipeline("p").then(
        TaskSpec("wait-flag", params={"key": "never", "timeout_s": 30}))
    eid = director.submit(Experiment("stuck").map(
        pipeline, connector.list_nodes().take(2)))
    director.deploy(eid)
    wait_status(director, eid, {Status.READY})
    director.execute(eid)
    deadline = time.monotonic() + 5
    while len(director._handles) < 2:
        assert time.monotonic() < deadline
        time.sleep(0.01)
    director.cancel(eid)
    assert director.record(eid).status is Status.CANCELLED
    assert caplog.text.count("could not stop executor") == 2


def test_status_view_marks_a_late_report(make_director):
    connector = SimulatedConnector(
        "sim", node_count=2,
        fault=FaultModel(silent_nodes=frozenset({"sim-001"}),
                         sleep_scale=0.01))
    director = make_director({"sim": connector})
    eid = director.submit(sleep_experiment(connector, nodes=2,
                                           timeout_s=0.5))
    assert drive(director, eid) is Status.FINISHED
    assert "late" not in director.status(eid)["nodes"]["sim-001"]
    assert director.gateway.ingest_report(
        {"experiment_id": eid, "node_id": "sim-001", "results": []}) \
        == "accepted"
    node = director.status(eid)["nodes"]["sim-001"]
    assert (node["execution"], node["late"]) == ("timed-out", True)


def test_cleanup_reports_each_node_that_failed(make_director):
    """A node that never prepared is skipped; a command that fails, a
    connector that raises and a connector that is gone each get an outcome
    that names why, and the rest are cleaned."""
    class FlakyCleanup(SimulatedConnector):
        def run(self, node, command):
            if command == CLEAN_SCRATCH_COMMAND and node.node_id == "sim-002":
                raise LaunchFailed("sim-002 is gone")
            if command == CLEAN_SCRATCH_COMMAND and node.node_id == "sim-003":
                return 1, "device busy"
            return super().run(node, command)

    connector = FlakyCleanup(
        "sim", node_count=4,
        fault=FaultModel(prepare_fail_nodes=frozenset({"sim-001"}),
                         sleep_scale=0.01))
    director = make_director({"sim": connector})
    eid = director.submit(sleep_experiment(connector, nodes=4, seconds=0,
                                           strictness="best-effort"))
    assert drive(director, eid) is Status.FINISHED
    assert director.cleanup(eid) == {
        "sim-000": {"ok": True},
        "sim-002": {"ok": False, "error": "sim-002 is gone"},
        "sim-003": {"ok": False, "failed_command": CLEAN_SCRATCH_COMMAND,
                    "output": "device busy"}}
    del director.connectors["sim"]
    gone = {"ok": False, "error": "connector missing"}
    assert director.cleanup(eid) == dict.fromkeys(
        ("sim-000", "sim-002", "sim-003"), gone)
    assert director.record(eid).cleanup["sim-000"] == gone


def test_recovery_skips_a_record_it_cannot_load(make_director, sim20,
                                                tmp_path):
    """A record file that no longer sits under its experiment's name is
    listed but cannot be loaded; recovery passes over it."""
    root = tmp_path / "records"
    director = make_director({"sim": sim20}, store=FileStore(root))
    eid = director.submit(sleep_experiment(sim20))
    director.close()
    (root / f"{eid}.jsonl").rename(root / "moved.jsonl")
    store = FileStore(root)
    assert store.list_ids() == [eid]
    reborn = make_director({"sim": sim20}, store=store)
    with pytest.raises(UnknownExperiment):
        reborn.record(eid)


def test_status_view_of_each_node_state():
    """The per-node ``deploy``/``execution`` pair, ``failed_command`` and
    ``late`` that ``status`` shows for every state of the node map."""
    n = NodeState
    paths = {
        "pending": [],
        "prepared": [(n.PREPARED, None)],
        "prepare-failed": [(n.PREPARE_FAILED, "exit 1")],
        "running": [(n.PREPARED, None), (n.RUNNING, None)],
        "reported": [(n.PREPARED, None), (n.RUNNING, None),
                     (n.REPORTED, None)],
        "unreachable": [(n.PREPARED, None), (n.RUNNING, None),
                        (n.UNREACHABLE, "refused")],
        "reported-after-unreachable": [
            (n.PREPARED, None), (n.RUNNING, None),
            (n.UNREACHABLE, "refused"), (n.REPORTED, None)],
        "timed-out": [(n.PREPARED, None), (n.RUNNING, None),
                      (n.TIMED_OUT, "no report")],
        "cancelled": [(n.PREPARED, None), (n.RUNNING, None),
                      (n.CANCELLED, "experiment cancelled")],
    }
    record = ExperimentRecord(experiment_id="view", experiment_doc={})
    for node_id, path in paths.items():
        record.node_transition(node_id, n.PENDING)
        for to, reason in path:
            detail = {"failed_command": "setup"} \
                if to is n.PREPARE_FAILED else {}
            record.node_transition(node_id, to, reason, **detail)
    for node_id in ("reported", "timed-out"):
        record.nodes[f"late-{node_id}"] = {**record.nodes[node_id],
                                           "late": True}
    assert Director._status_view(record)["nodes"] == {
        "pending": {"deploy": "pending", "execution": "idle"},
        "prepared": {"deploy": "prepared", "execution": "idle"},
        "prepare-failed": {"deploy": "prepare-failed", "execution": "idle",
                           "failed_command": "setup"},
        "running": {"deploy": "prepared", "execution": "running"},
        "reported": {"deploy": "prepared", "execution": "reported"},
        "unreachable": {"deploy": "prepared", "execution": "unreachable"},
        "reported-after-unreachable": {"deploy": "prepared",
                                       "execution": "reported"},
        "timed-out": {"deploy": "prepared", "execution": "timed-out"},
        "cancelled": {"deploy": "prepared", "execution": "cancelled"},
        "late-reported": {"deploy": "prepared", "execution": "reported",
                          "late": True},
        "late-timed-out": {"deploy": "prepared", "execution": "timed-out",
                           "late": True},
    }
