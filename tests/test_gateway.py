"""Gateway: bundle fetch phases, ingestion idempotence, coordination flags."""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
import threading
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import expforge.gateway as gateway_module
from conftest import drive, wait_status
from expforge import Director, FileStore, MemoryStore, builtin_registry
from expforge.connectors.simulated import FaultModel, SimulatedConnector
from expforge.errors import (
    ExpforgeError,
    TransportError,
    UnknownAssignment,
    UnknownExperiment,
    WrongPhase,
)
from expforge.executor import PipelineReport
from expforge.gateway import HttpGatewayClient, InProcessGatewayClient
from expforge.model import (
    Experiment,
    NodeDescriptor,
    Outcome,
    Pipeline,
    Policies,
    Status,
    TaskResult,
    TaskSpec,
)
from expforge.registry import TaskError, TaskImplementation
from expforge.store import path_component

FAST = FaultModel(sleep_scale=0.01)


@pytest.fixture
def platform(make_director):
    connector = SimulatedConnector("sim", node_count=3, fault=FAST)
    director = make_director({"sim": connector})
    return director, connector


def submit_sleep_experiment(director, connector, *, nodes=2,
                            name="exp") -> str:
    pool = connector.list_nodes()
    pipeline = Pipeline("p").then(TaskSpec("sleep", params={"seconds": 0.5}))
    exp = Experiment(
        name, policies=Policies(experiment_timeout_s=30)).map(
        pipeline, pool.take(nodes))
    return director.submit(exp)


def deploy_and_start(director, experiment_id) -> None:
    director.deploy(experiment_id)
    wait_status(director, experiment_id, {Status.READY})
    director.execute(experiment_id)
    wait_status(director, experiment_id, {Status.RUNNING})


def submit_held_experiment(director, connector, *, nodes=2,
                           name="held") -> str:
    """Experiment whose nodes block on a 'release' flag, so it stays RUNNING
    until the test sets it."""
    pool = connector.list_nodes()
    pipeline = Pipeline("p").then(
        TaskSpec("wait-flag", params={"key": "release", "timeout_s": 20}))
    exp = Experiment(
        name, policies=Policies(experiment_timeout_s=30)).map(
        pipeline, pool.take(nodes))
    return director.submit(exp)


def report_doc(experiment_id, node_id, *, task="sleep") -> dict:
    now_wall, now_mono = time.time(), time.monotonic()
    result = TaskResult(task, node_id, 0, Outcome.SUCCESS,
                        started_wall=now_wall, finished_wall=now_wall,
                        started_mono=now_mono, finished_mono=now_mono)
    return PipelineReport(experiment_id=experiment_id, node_id=node_id,
                          results=(result,), started_wall=now_wall,
                          finished_wall=now_wall, started_mono=now_mono,
                          finished_mono=now_mono).to_doc()


# ---------------------------------------------------------------------------
# fetch_bundle
# ---------------------------------------------------------------------------

class TestFetchBundle:
    def test_valid_fetch_matches_digest(self, platform):
        director, connector = platform
        eid = submit_sleep_experiment(director, connector)
        deploy_and_start(director, eid)
        node_id = connector.list_nodes().nodes[0].node_id
        bundle = director.gateway.fetch_bundle(eid, node_id)
        assert bundle.digest_matches()
        wait_status(director, eid, {Status.FINISHED})

    def test_unknown_node(self, platform):
        director, connector = platform
        eid = submit_sleep_experiment(director, connector)
        deploy_and_start(director, eid)
        with pytest.raises(UnknownAssignment):
            director.gateway.fetch_bundle(eid, "phantom-node")
        wait_status(director, eid, {Status.FINISHED})

    def test_fetch_before_execute_wrong_phase(self, platform):
        director, connector = platform
        eid = submit_sleep_experiment(director, connector)
        director.deploy(eid)
        wait_status(director, eid, {Status.READY})
        node_id = connector.list_nodes().nodes[0].node_id
        with pytest.raises(WrongPhase):
            director.gateway.fetch_bundle(eid, node_id)

    def test_unknown_experiment(self, platform):
        director, _ = platform
        with pytest.raises(UnknownExperiment):
            director.gateway.fetch_bundle("ghost", "sim-000")

    def test_nodes_share_one_pipeline_per_experiment(self, platform,
                                                     monkeypatch):
        director, connector = platform
        gateway = director.gateway
        fetched, decoded = [], []
        fetch = gateway.fetch_bundle

        def recording_fetch(experiment_id, node_id):
            fetched.append(fetch(experiment_id, node_id))
            return fetched[-1]

        class CountingPipeline:
            @staticmethod
            def from_doc(doc):
                decoded.append(doc)
                return Pipeline.from_doc(doc)

        monkeypatch.setattr(gateway, "fetch_bundle", recording_fetch)
        monkeypatch.setattr(gateway_module, "Pipeline", CountingPipeline)
        for round_ in (1, 2):  # the same digest, one experiment after another
            eid = submit_sleep_experiment(director, connector,
                                          name=f"share-{round_}")
            assert drive(director, eid) is Status.FINISHED
            assert sorted(b.node_id for b in fetched) == ["sim-000",
                                                          "sim-001"]
            assert fetched[0].pipeline is fetched[1].pipeline
            assert len(decoded) == round_
            fetched.clear()
            join_executors(eid)
            assert len(gateway._pipelines) == 0

    def test_a_task_cannot_change_the_shared_params(self, platform):
        director, connector = platform
        director.registry.register(MutatingProbe())
        pipeline = Pipeline("p").then(
            TaskSpec("mutating-probe", params={"seconds": 1, "tags": ["a"]}))
        exp = Experiment("mutate", policies=Policies(
            experiment_timeout_s=30)).map(pipeline,
                                          connector.list_nodes().take(2))
        eid = director.submit(exp)
        assert drive(director, eid) is Status.FINISHED
        seen = {node_id: json.loads(results[0]["payload"]) for node_id, results
                in director.results(eid)["pipelines"]["p"].items()}
        original = {"seconds": 1, "tags": ["a"]}
        assert seen["sim-000"] == {"params": {"seconds": "changed"},
                                   "fetched": original}
        assert seen["sim-001"] == {"params": original, "fetched": original}


class MutatingProbe(TaskImplementation):
    """sim-000 changes its params, then sim-001 runs; each returns what it
    sees in its own params and in a fresh fetch of its bundle."""

    task_type = "mutating-probe"
    kind = "simulated"

    def run(self, params, ctx):
        node_id = ctx.node.node_id
        if node_id == "sim-000":
            params.clear()
            params["seconds"] = "changed"
            ctx.gateway.set_flag(ctx.experiment_id, "changed", node_id)
        elif not ctx.gateway.wait_flag(ctx.experiment_id, "changed", 10):
            raise TaskError("sim-000 never changed its params")
        bundle = ctx.gateway.fetch_bundle(ctx.experiment_id, node_id)
        fetched = bundle.pipeline.stages[0].tasks[0].params
        return json.dumps({"params": params, "fetched": fetched})


def join_executors(experiment_id: str) -> None:
    for thread in threading.enumerate():
        if thread.name.startswith(f"sim-executor-{experiment_id}-"):
            thread.join(timeout=10)
            assert not thread.is_alive()


# ---------------------------------------------------------------------------
# ingest_report
# ---------------------------------------------------------------------------

class TestIngestReport:
    def test_first_accepted_then_duplicate(self, platform):
        director, connector = platform
        eid = submit_sleep_experiment(director, connector, name="dup")
        deploy_and_start(director, eid)
        doc = report_doc(eid, "sim-000")
        assert director.gateway.ingest_report(doc) == "accepted"
        before = len(director.record(eid).results)
        assert director.gateway.ingest_report(doc) == "duplicate"
        record = director.record(eid)
        assert len(record.results) == before
        assert record.exec_state["sim-000"]["state"] == "reported"

    def test_n_duplicates_equal_one_report_state(self, platform):
        director, connector = platform
        eid = submit_sleep_experiment(director, connector, name="many")
        deploy_and_start(director, eid)
        doc = report_doc(eid, "sim-000")
        director.gateway.ingest_report(doc)
        snapshot = director.record(eid).to_doc()
        for _ in range(10):
            assert director.gateway.ingest_report(doc) == "duplicate"
        after = director.record(eid).to_doc()
        # reports may race with the other node finishing; compare the slice
        # owned by this node
        assert after["reports"]["sim-000"] == snapshot["reports"]["sim-000"]
        assert [r for r in after["results"] if r["node_id"] == "sim-000"] \
            == [r for r in snapshot["results"] if r["node_id"] == "sim-000"]

    def test_unassigned_node_rejected(self, platform):
        director, connector = platform
        # only 2 of 3 sim nodes are assigned
        eid = submit_sleep_experiment(director, connector, name="extra")
        deploy_and_start(director, eid)
        with pytest.raises(UnknownAssignment):
            director.gateway.ingest_report(report_doc(eid, "sim-002"))

    def test_late_report_from_timed_out_node(self, make_director):
        connector = SimulatedConnector(
            "sim", node_count=2,
            fault=FaultModel(sleep_scale=0.01,
                             silent_nodes=frozenset({"sim-001"})))
        director = make_director({"sim": connector})
        pool = connector.list_nodes()
        pipeline = Pipeline("p").then(TaskSpec("sleep",
                                               params={"seconds": 0.1}))
        eid = director.submit(
            Experiment("late", policies=Policies(experiment_timeout_s=1.5))
            .map(pipeline, list(pool)))
        assert drive(director, eid) is Status.FINISHED
        record = director.record(eid)
        assert record.exec_state["sim-001"]["state"] == "timed-out"

        outcome = director.gateway.ingest_report(report_doc(eid, "sim-001"))
        assert outcome == "accepted"
        record = director.record(eid)
        assert record.exec_state["sim-001"]["state"] == "timed-out"
        assert record.exec_state["sim-001"]["late"] is True
        assert record.reports["sim-001"]["late"] is True
        assert any(r["node_id"] == "sim-001" for r in record.results)


# ---------------------------------------------------------------------------
# group commit of reports
# ---------------------------------------------------------------------------

def held_entries(director) -> int:
    """Entries in every dict the director or gateway holds."""
    return sum(len(value) for owner in (director, director.gateway)
               for value in vars(owner).values() if isinstance(value, dict))


def start_held(director, connector, *, nodes, name) -> str:
    """A RUNNING held experiment whose nodes all hold their tokens, so the
    director commits nothing more until a report or flag arrives."""
    eid = submit_held_experiment(director, connector, nodes=nodes, name=name)
    deploy_and_start(director, eid)
    deadline = time.monotonic() + 10
    while sum(bool(state.get("token")) for state
              in director.record(eid).exec_state.values()) < nodes:
        assert time.monotonic() < deadline
        time.sleep(0.01)
    return eid


def ingest_together(director, eid, docs) -> list:
    """Ingest ``docs``, one thread each, all queued behind the experiment's
    monitor before any is committed; each caller's outcome or exception, in
    the order of ``docs``."""
    outcomes: list = [None] * len(docs)

    def deliver(index: int) -> None:
        try:
            outcomes[index] = director.gateway.ingest_report(docs[index])
        except Exception as exc:  # noqa: BLE001 - the caller's outcome
            outcomes[index] = exc

    threads = [threading.Thread(target=deliver, args=(index,))
               for index in range(len(docs))]
    with director.monitor(eid):
        for thread in threads:
            thread.start()
        deadline = time.monotonic() + 10
        while len(director.gateway._queued.get(eid, ())) < len(docs):
            assert time.monotonic() < deadline
            time.sleep(0.005)
    for thread in threads:
        thread.join(10)
    return outcomes


class TestGroupCommit:
    def test_one_commit_gives_each_caller_its_outcome(self, make_director):
        class ReportCommits(MemoryStore):
            commits = 0

            def save(self, record):
                if len(record.reports) > len(
                        self._committed(record.experiment_id).reports):
                    self.commits += 1
                super().save(record)

        connector = SimulatedConnector("sim", node_count=21, fault=FAST)
        store = ReportCommits()
        director = make_director({"sim": connector}, store=store)
        eid = submit_held_experiment(director, connector, nodes=20,
                                     name="batch")
        director.deploy(eid)
        wait_status(director, eid, {Status.READY})
        entries_before = held_entries(director)
        director.execute(eid)
        wait_status(director, eid, {Status.RUNNING})
        nodes = [f"sim-{index:03d}" for index in range(20)]
        docs = ([report_doc(eid, node) for node in nodes]
                + [report_doc(eid, "sim-000"), report_doc(eid, "sim-020")])

        outcomes = ingest_together(director, eid, docs)
        assert store.commits == 1
        assert sorted([outcomes[0], outcomes[20]]) == ["accepted",
                                                       "duplicate"]
        assert outcomes[1:20] == ["accepted"] * 19
        assert isinstance(outcomes[21], UnknownAssignment)
        record = director.record(eid)
        assert record.status is Status.FINISHED
        assert sorted(record.reports) == nodes
        assert sorted(r["node_id"] for r in record.results) == nodes

        deadline = time.monotonic() + 10  # executors deliver duplicates
        while any(t.name.startswith(f"sim-executor-{eid}-")
                  for t in threading.enumerate()):
            assert time.monotonic() < deadline
            time.sleep(0.01)
        assert held_entries(director) == entries_before

    def test_concurrent_reports_each_committed_once(self, make_director):
        """Two reports per node from 80 threads with frequent thread
        switches: each node gets exactly one acceptance, every report is
        stored once and the queue is left empty."""
        connector = SimulatedConnector("sim", node_count=40, fault=FAST)
        director = make_director({"sim": connector})
        eid = submit_sleep_experiment(director, connector, nodes=40,
                                      name="stress")
        nodes = [f"sim-{index:03d}" for index in range(40)]
        outcomes: dict[str, list[str]] = {node: [] for node in nodes}

        def deliver(node: str) -> None:
            outcomes[node].append(
                director.gateway.ingest_report(report_doc(eid, node)))

        threads = [threading.Thread(target=deliver, args=(node,))
                   for node in nodes * 2]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(10)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert all(sorted(o) == ["accepted", "duplicate"]
                   for o in outcomes.values()), outcomes
        record = director.record(eid)
        assert sorted(record.reports) == nodes
        assert sorted(r["node_id"] for r in record.results) == nodes
        assert director.gateway._queued == {}

    def test_failed_save_fails_the_whole_batch(self, make_director):
        class FailsOnce(MemoryStore):
            fail = False

            def save(self, record):
                if self.fail:
                    self.fail = False
                    raise OSError("injected write failure")
                super().save(record)

        connector = SimulatedConnector("sim", node_count=3, fault=FAST)
        store = FailsOnce()
        director = make_director({"sim": connector}, store=store)
        eid = start_held(director, connector, nodes=3, name="fails")
        docs = [report_doc(eid, f"sim-{index:03d}") for index in range(3)]

        store.fail = True
        outcomes = ingest_together(director, eid, docs)
        assert all(isinstance(o, OSError) for o in outcomes), outcomes
        assert director.record(eid).reports == {}
        assert director.gateway._queued == {}
        assert [director.gateway.ingest_report(d) for d in docs] \
            == ["accepted"] * 3
        assert director.record(eid).status is Status.FINISHED


# ---------------------------------------------------------------------------
# flags
# ---------------------------------------------------------------------------

class TestFlags:
    def test_set_flag_ok_and_idempotent(self, platform):
        director, connector = platform
        eid = submit_held_experiment(director, connector, name="flags")
        deploy_and_start(director, eid)
        first = director.gateway.set_flag(eid, "server_ready", "sim-000")
        time.sleep(0.02)
        second = director.gateway.set_flag(eid, "server_ready", "sim-001")
        assert second["set_mono"] == first["set_mono"]
        assert second["node_id"] == "sim-000"  # first setter retained
        director.gateway.set_flag(eid, "release", "test")
        wait_status(director, eid, {Status.FINISHED})

    def test_set_flag_after_finished_wrong_phase(self, platform):
        director, connector = platform
        eid = submit_sleep_experiment(director, connector, name="closed")
        deploy_and_start(director, eid)
        wait_status(director, eid, {Status.FINISHED})
        with pytest.raises(WrongPhase):
            director.gateway.set_flag(eid, "too-late", "sim-000")

    def test_wait_returns_immediately_when_set(self, platform):
        director, connector = platform
        eid = submit_held_experiment(director, connector, name="imm")
        deploy_and_start(director, eid)
        director.gateway.set_flag(eid, "go", "sim-000")
        started = time.monotonic()
        flag = director.gateway.wait_flag(eid, "go", timeout_s=5)
        assert flag is not None and flag["set"]
        assert time.monotonic() - started < 0.5
        director.gateway.set_flag(eid, "release", "test")
        wait_status(director, eid, {Status.FINISHED})

    def test_wait_wakes_on_set(self, platform):
        director, connector = platform
        eid = submit_held_experiment(director, connector, name="wake")
        deploy_and_start(director, eid)

        def setter():
            time.sleep(0.3)
            director.gateway.set_flag(eid, "go", "sim-000")

        threading.Thread(target=setter).start()
        started = time.monotonic()
        flag = director.gateway.wait_flag(eid, "go", timeout_s=5)
        elapsed = time.monotonic() - started
        assert flag is not None
        assert 0.25 <= elapsed < 1.5  # 0.3s setter delay + wakeup slack
        director.gateway.set_flag(eid, "release", "test")
        wait_status(director, eid, {Status.FINISHED})

    def test_wait_times_out(self, platform):
        director, connector = platform
        eid = submit_held_experiment(director, connector, name="never")
        deploy_and_start(director, eid)
        started = time.monotonic()
        assert director.gateway.wait_flag(eid, "never-set",
                                          timeout_s=0.6) is None
        elapsed = time.monotonic() - started
        assert 0.55 <= elapsed < 1.6
        director.gateway.set_flag(eid, "release", "test")
        wait_status(director, eid, {Status.FINISHED})

    def test_ended_and_unknown_experiments_leave_no_state(self, platform):
        """Waits on an ended experiment, and reports and waits that name
        unknown ones, add no entry to any dict the director or gateway
        holds."""
        director, connector = platform
        eid = submit_held_experiment(director, connector, name="gone")
        deploy_and_start(director, eid)
        director.cancel(eid)

        def held() -> int:
            return sum(len(value) for owner in (director, director.gateway)
                       for value in vars(owner).values()
                       if isinstance(value, dict))

        before = held()
        for index in range(100):
            with pytest.raises(WrongPhase):
                director.gateway.wait_flag(eid, f"fresh-{index}", timeout_s=1)
        for index in range(100):
            with pytest.raises(UnknownExperiment):
                director.gateway.ingest_report(
                    report_doc(f"ghost-{index}", "sim-000"))
        for index in range(100):
            with pytest.raises(UnknownExperiment):
                director.gateway.wait_flag(f"ghost-{index}", "k", timeout_s=1)
        assert held() == before

    def test_flags_cleared_at_cleanup(self, platform):
        director, connector = platform
        eid = submit_held_experiment(director, connector, name="wipe")
        deploy_and_start(director, eid)
        director.gateway.set_flag(eid, "release", "test")
        wait_status(director, eid, {Status.FINISHED})
        assert director.record(eid).flags
        director.cleanup(eid)
        assert director.record(eid).flags == {}


# ---------------------------------------------------------------------------
# artifacts
# ---------------------------------------------------------------------------

@pytest.fixture(params=["default-root", "given-root"])
def artifact_platform(request, make_director, tmp_path):
    """A platform whose gateway writes to its own temporary directory, or
    to a given ``artifact_root``: both take one path."""
    connector = SimulatedConnector("sim", node_count=3, fault=FAST)
    root = tmp_path / "artifacts" if request.param == "given-root" else None
    return make_director({"sim": connector}, artifact_root=root), connector


class TestArtifacts:
    def test_store_list_and_read(self, artifact_platform):
        director, connector = artifact_platform
        eid = submit_sleep_experiment(director, connector, name="art")
        meta = director.gateway.store_artifact(eid, "sim-000", "t.pcap",
                                               b"\x00pcap")
        assert meta["size"] == 5
        listed = director.gateway.list_artifacts(eid)
        assert listed == [meta]
        assert director.gateway.artifact_data(eid, "sim-000", "t.pcap") \
            == b"\x00pcap"

    def test_listing_survives_restart(self, make_director, tmp_path):
        store = FileStore(tmp_path / "records")
        connector = SimulatedConnector("sim", node_count=3, fault=FAST)
        root = tmp_path / "artifacts"
        director = make_director({"sim": connector}, store=store,
                                 artifact_root=root)
        eid = submit_sleep_experiment(director, connector, name="art")
        gateway = director.gateway
        gateway.store_artifact(eid, "sim-000", "t.pcap", b"old")
        gateway.store_artifact(eid, "sim-001", "t.pcap", b"\x00pcap")
        gateway.store_artifact(eid, "sim-000", "t.pcap", b"new!")
        listed = gateway.list_artifacts(eid)
        assert [(m["node_id"], m["size"]) for m in listed] == \
            [("sim-001", 5), ("sim-000", 4)]
        director.close()
        reborn = make_director({"sim": connector}, store=store,
                               artifact_root=root)
        assert reborn.gateway.list_artifacts(eid) == listed
        assert reborn.gateway.artifact_data(eid, "sim-000", "t.pcap") \
            == b"new!"
        with pytest.raises(UnknownExperiment):  # no record, no listing
            reborn.gateway.list_artifacts("ghost")

    def test_restart_keeps_bytes_that_match_their_digest(self, make_director,
                                                        tmp_path):
        store = FileStore(tmp_path / "records")
        connector = SimulatedConnector("sim", node_count=3, fault=FAST)
        root = tmp_path / "artifacts"
        director = make_director({"sim": connector}, store=store,
                                 artifact_root=root)
        eid = submit_sleep_experiment(director, connector, name="art")
        for node_id, data in [("sim-000", b"old"), ("sim-001", b"\x00pcap"),
                              ("sim-000", b"new!")]:
            director.gateway.store_artifact(eid, node_id, "t.pcap", data)
        director.close()
        gateway = make_director({"sim": connector}, store=store,
                                artifact_root=root).gateway
        listed = gateway.list_artifacts(eid)
        assert len(listed) == 2
        for meta in listed:
            path = (root / path_component(eid)
                    / path_component(meta["node_id"]) / meta["digest"])
            data = gateway.artifact_data(eid, meta["node_id"], "t.pcap")
            assert path.read_bytes() == data
            assert hashlib.sha256(data).hexdigest() == meta["digest"]
            assert len(data) == meta["size"]
        tampered = bytearray(path.read_bytes())
        tampered[0] ^= 1
        path.write_bytes(bytes(tampered))
        with pytest.raises(ExpforgeError, match="digest"):
            gateway.artifact_data(eid, listed[-1]["node_id"], "t.pcap")

    def test_unlisted_artifact_is_a_key_error(self, artifact_platform):
        director, connector = artifact_platform
        eid = submit_sleep_experiment(director, connector, name="art")
        director.gateway.store_artifact(eid, "sim-000", "t.pcap", b"x")
        for node_id, name in [("sim-000", "other"), ("sim-001", "t.pcap")]:
            with pytest.raises(KeyError):
                director.gateway.artifact_data(eid, node_id, name)

    def test_report_commits_while_an_upload_is_written(self, platform,
                                                       monkeypatch):
        director, connector = platform
        eid = submit_held_experiment(director, connector, name="held-write")
        deploy_and_start(director, eid)
        writing, release = threading.Event(), threading.Event()
        write_file = gateway_module._write_file

        def held_write(path, data):
            writing.set()
            assert release.wait(10)
            write_file(path, data)

        monkeypatch.setattr(gateway_module, "_write_file", held_write)
        upload = threading.Thread(
            target=director.gateway.store_artifact,
            args=(eid, "sim-000", "big.pcap", b"\x00" * 1024))
        upload.start()
        try:
            assert writing.wait(10)
            outcome = []
            report = threading.Thread(target=lambda: outcome.append(
                director.gateway.ingest_report(report_doc(eid, "sim-001"))))
            report.start()
            report.join(5)
            assert outcome == ["accepted"]
            assert "sim-001" in director.record(eid).reports
            assert director.gateway.list_artifacts(eid) == []
        finally:
            release.set()
            upload.join(10)
            report.join(10)
        assert not upload.is_alive() and not report.is_alive()
        assert [m["name"] for m in director.gateway.list_artifacts(eid)] \
            == ["big.pcap"]
        director.gateway.set_flag(eid, "release", "test")
        wait_status(director, eid, {Status.FINISHED})

    def test_racing_uploads_of_one_name_leave_a_readable_winner(
            self, artifact_platform):
        director, connector = artifact_platform
        eid = submit_sleep_experiment(director, connector, name="race")
        gateway = director.gateway
        payloads = [bytes([i]) * (1000 + i) for i in range(4)]

        def upload(start, data):
            start.wait()
            gateway.store_artifact(eid, "sim-000", "t.pcap", data)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for _ in range(30):
                start = threading.Barrier(len(payloads), timeout=10)
                threads = [threading.Thread(target=upload, args=(start, data))
                           for data in payloads]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(10)
                    assert not thread.is_alive()
                [meta] = gateway.list_artifacts(eid)
                data = gateway.artifact_data(eid, "sim-000", "t.pcap")
                assert data in payloads
                assert hashlib.sha256(data).hexdigest() == meta["digest"]
                assert len(data) == meta["size"]
        finally:
            sys.setswitchinterval(interval)

    def test_artifact_for_unknown_experiment(self, artifact_platform):
        director, _ = artifact_platform
        with pytest.raises(UnknownExperiment):
            director.gateway.store_artifact("ghost", "n", "a", b"")

    def test_unassigned_node_cannot_upload(self, artifact_platform):
        director, connector = artifact_platform
        eid = submit_sleep_experiment(director, connector, name="stranger")
        with pytest.raises(UnknownAssignment):
            director.gateway.store_artifact(eid, "sim-002", "t.pcap", b"x")
        with pytest.raises(UnknownAssignment):
            director.gateway.store_artifact(eid, "..", "t.pcap", b"x")
        assert director.gateway.list_artifacts(eid) == []


class TestNodeFlags:
    def test_unassigned_node_cannot_set_flag(self, platform):
        director, connector = platform
        eid = submit_held_experiment(director, connector, name="node-flags")
        deploy_and_start(director, eid)
        client = InProcessGatewayClient(director.gateway)
        with pytest.raises(UnknownAssignment):
            client.set_flag(eid, "release", "sim-002")
        assert client.get_flag(eid, "release") == {"set": False}
        assert client.set_flag(eid, "release", "sim-001")["node_id"] \
            == "sim-001"
        wait_status(director, eid, {Status.FINISHED})


HOSTILE = st.text(max_size=40) | st.sampled_from(
    ["..", ".", "/", "../..", "a/../../b", "\x00", "é", ""])


@settings(max_examples=40, deadline=None)
@given(experiment_id=HOSTILE.filter(bool), node_id=HOSTILE, name=HOSTILE,
       stranger=HOSTILE)
@example(experiment_id="..", node_id="..", name="../../x", stranger="/")
@example(experiment_id="e", node_id="", name="", stranger="\x00")
def test_artifacts_stay_in_the_experiment_namespace(experiment_id, node_id,
                                                     name, stranger):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp) / "artifacts"
        director = Director(MemoryStore(), builtin_registry(), {},
                            artifact_root=root, recover=False)
        pipeline = Pipeline("p").then(TaskSpec("sleep",
                                               params={"seconds": 0}))
        eid = director.submit(Experiment(experiment_id).map(
            pipeline, [NodeDescriptor(node_id, "simulated", {}, "sim")]))
        gateway = director.gateway
        gateway.store_artifact(eid, node_id, name, b"data")
        assert gateway.artifact_data(eid, node_id, name) == b"data"
        if stranger != node_id:
            with pytest.raises(UnknownAssignment):
                gateway.store_artifact(eid, stranger, name, b"stranger")
        namespace = root / path_component(eid)
        written = [p for p in Path(tmp).rglob("*") if p.is_file()]
        assert len(written) == 1
        assert written[0].resolve().is_relative_to(namespace.resolve())


def test_simulated_nodes_upload_through_the_in_process_client(make_director):
    connector = SimulatedConnector("sim", node_count=2, fault=FAST)
    director = make_director({"sim": connector})
    pipeline = (Pipeline("p")
                .then(TaskSpec("capture-start", params={"out_path": "t.pcap"}))
                .then(TaskSpec("capture-stop"))
                .then(TaskSpec("upload", params={"paths": "t.pcap"})))
    eid = director.submit(Experiment("uploads").map(
        pipeline, connector.list_nodes().take(2)))
    assert drive(director, eid) is Status.FINISHED
    assert sorted((a["node_id"], a["name"])
                  for a in director.gateway.list_artifacts(eid)) \
        == [("sim-000", "t.pcap"), ("sim-001", "t.pcap")]
    assert director.gateway.artifact_data(eid, "sim-001", "t.pcap") \
        == b"synthetic-capture(any)"


class _Replies:
    """A transport that answers every request with one status and payload."""

    def __init__(self, status: int, payload: dict):
        self.reply = (status, payload)

    def request(self, method, path, body=None, timeout_s=None):
        return self.reply


@pytest.mark.parametrize("status, payload, error, message", [
    (503, {}, TransportError, "server error 503"),
    (413, {"message": "too big"}, TransportError, "413 too big"),
    (400, {}, TransportError, "400 request failed"),
    (404, {"error": "UnknownAssignment", "message": "no"}, UnknownAssignment,
     "no"),
    (409, {"message": "not now"}, WrongPhase, "not now"),
])
def test_http_client_maps_error_statuses(status, payload, error, message):
    client = HttpGatewayClient("http://127.0.0.1:9")
    client._transport = _Replies(status, payload)
    with pytest.raises(error, match=message):
        client.deliver_report({"experiment_id": "e", "node_id": "n"})
