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
from expforge import Director, FileStore, MemoryStore
from expforge.connectors.ssh import SshConnector, SshHost
from expforge.connectors.simulated import FaultModel, SimulatedConnector
from expforge.errors import (
    AlreadyTerminal,
    DuplicateExperimentName,
    InvalidTransition,
    NotReady,
    UnknownExperiment,
    ValidationFailed,
)
from expforge.model import (
    Experiment,
    Pipeline,
    Policies,
    TERMINAL_STATUSES,
    Status,
    TaskSpec,
    is_valid_transition,
)


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
        assert record.deploy_state["sim-007"]["state"] == "prepare-failed"
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
        states = director.record(eid).deploy_state
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
        assert record.exec_state["sim-001"]["state"] == "timed-out"
        assert record.exec_state["sim-000"]["state"] == "reported"
        assert record.exec_state["sim-002"]["state"] == "reported"

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
        assert "token" not in director.record(eid).exec_state.get("sim-002",
                                                                  {})

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
        state = record.exec_state["lab-h1"]
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
                  director.record(eid).exec_state.values()]
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
                    + [e for e in list(director._wakeups) if e == eid])

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
            s.get("token") for s in director.record(eid).exec_state.values()):
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
                 if not record.exec_state.get(n, {}).get("token")])
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
               for s in record.deploy_state.values())


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
