"""Record persistence: atomicity, uniqueness, transition enforcement."""

from __future__ import annotations

import json
import os
import stat
import statistics
import tempfile
import threading
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import expforge.store as store_module
from expforge import Director, builtin_registry
from expforge.compiler import compile_experiment
from expforge.executor import write_spool
from expforge.errors import (
    DuplicateExperimentName,
    InvalidTransition,
    UnknownExperiment,
)
from expforge.model import (
    Experiment,
    NodeDescriptor,
    Pipeline,
    Policies,
    Status,
    TaskSpec,
    TERMINAL_STATUSES,
)
from expforge.store import (
    ExperimentRecord,
    FileStore,
    MemoryStore,
    path_component,
)


def record(name: str = "exp") -> ExperimentRecord:
    return ExperimentRecord(experiment_id=name,
                            experiment_doc={"experiment_id": name,
                                            "assignments": [],
                                            "policies": {}})


@pytest.fixture(params=["memory", "file"])
def store(request, tmp_path):
    if request.param == "memory":
        return MemoryStore()
    return FileStore(tmp_path / "records")


class TestStores:
    def test_create_load_roundtrip(self, store):
        store.create(record("a"))
        loaded = store.load("a")
        assert loaded.experiment_id == "a"
        assert loaded.status is Status.SUBMITTED

    def test_duplicate_create_rejected(self, store):
        store.create(record("a"))
        with pytest.raises(DuplicateExperimentName):
            store.create(record("a"))

    def test_unknown_load(self, store):
        with pytest.raises(UnknownExperiment):
            store.load("ghost")

    def test_save_persists_mutations(self, store):
        store.create(record("a"))
        rec = store.load("a")
        rec.transition(Status.COMPILING)
        rec.results.append({"task_name": "t"})
        store.save(rec)
        loaded = store.load("a")
        assert loaded.status is Status.COMPILING
        assert loaded.results == [{"task_name": "t"}]

    def test_results_changed_other_than_by_append_persist(self, store):
        store.create(record("a"))
        for batch in ([{"n": 1}, {"n": 2}], [{"n": 3}]):
            rec = store.load("a")
            rec.results.extend(batch)
            store.save(rec)
        rec = store.load("a")
        rec.results[1:] = [{"n": 9}]
        store.save(rec)
        for view in (store, reopened(store)):
            assert view.load("a").results == [{"n": 1}, {"n": 9}]
        if isinstance(store, FileStore):  # one journal line per save
            journal = store.root / "a" / store_module.JOURNAL
            assert journal.read_bytes().count(b"\n") == 3

    def test_list_ids(self, store):
        for name in ("b", "a", "c"):
            store.create(record(name))
        assert store.list_ids() == ["a", "b", "c"]

    def test_loads_are_snapshots(self, store):
        store.create(record("a"))
        first = store.load("a")
        second = store.load("a")
        first.results.append({"x": 1})
        assert second.results == []

    def test_concurrent_saves_never_tear(self, store):
        store.create(record("a"))
        stop = threading.Event()
        errors = []

        def writer(tag: str):
            while not stop.is_set():
                rec = store.load("a")
                rec.flags[tag] = {"set_wall": 1.0}
                store.save(rec)

        def reader():
            while not stop.is_set():
                try:
                    store.load("a")
                except (UnknownExperiment, json.JSONDecodeError) as exc:
                    errors.append(exc)

        threads = [threading.Thread(target=writer, args=(t,))
                   for t in "xy"] + [threading.Thread(target=reader)]
        for thread in threads:
            thread.start()
        import time
        time.sleep(0.3)
        stop.set()
        for thread in threads:
            thread.join()
        assert errors == []


class TestRecordTransitions:
    def test_valid_chain_logged(self):
        rec = record()
        for status in (Status.COMPILING, Status.DEPLOYING, Status.READY,
                       Status.RUNNING, Status.FINISHED):
            rec.transition(status)
        assert [t["to"] for t in rec.transitions] == \
            ["COMPILING", "DEPLOYING", "READY", "RUNNING", "FINISHED"]
        assert [t["from"] for t in rec.transitions] == \
            ["SUBMITTED", "COMPILING", "DEPLOYING", "READY", "RUNNING"]

    def test_illegal_move_rejected_and_unlogged(self):
        rec = record()
        with pytest.raises(InvalidTransition):
            rec.transition(Status.RUNNING)
        assert rec.status is Status.SUBMITTED
        assert rec.transitions == []

    def test_terminal_is_final(self):
        rec = record()
        rec.transition(Status.CANCELLED)
        with pytest.raises(InvalidTransition):
            rec.transition(Status.COMPILING)

    def test_doc_roundtrip(self):
        rec = record()
        rec.transition(Status.COMPILING)
        rec.deploy_state["n1"] = {"state": "prepared"}
        rec.exec_state["n1"] = {"state": "running", "token": "abc"}
        rec.flags["go"] = {"set_wall": 1.0, "set_mono": 2.0, "node_id": "n1"}
        clone = ExperimentRecord.from_doc(
            json.loads(json.dumps(rec.to_doc())))
        assert clone.to_doc() == rec.to_doc()

    def test_pending_execution_tracks_prepared_only(self):
        rec = record()
        rec.deploy_state = {"a": {"state": "prepared"},
                            "b": {"state": "prepare-failed"},
                            "c": {"state": "prepared"}}
        rec.exec_state = {"a": {"state": "reported"},
                          "c": {"state": "running"}}
        assert rec.pending_execution() == ["c"]


# ---------------------------------------------------------------------------
# the store contract, on a record driven through its whole life
# ---------------------------------------------------------------------------

NODES = ("n-0", "n-1", "n-2")


def life_experiment() -> Experiment:
    pipeline = Pipeline("p").then(TaskSpec("sleep", params={"seconds": 0}))
    return Experiment("life", policies=Policies(experiment_timeout_s=30)).map(
        pipeline, [NodeDescriptor(n, "simulated", {}, "sim") for n in NODES])


def report(node_id: str, results: int = 1, payload: str = "") -> dict:
    now = time.time()
    return {"experiment_id": "life", "node_id": node_id,
            "executor_version": "t",
            "results": [{"task_name": f"t{i}", "node_id": node_id,
                         "stage_index": 0, "outcome": "success",
                         "started_wall": now, "finished_wall": now,
                         "started_mono": 1.0, "finished_mono": 2.0,
                         "error_text": "", "payload": payload}
                        for i in range(results)]}


def lifecycle(director: Director):
    """Drive experiment ``life`` through every step; yield after each."""
    exp = life_experiment()
    director.submit(exp)
    yield "submitted"

    def plan(record):
        record.plan_doc = compile_experiment(exp, builtin_registry()).to_doc()
        for node_id in NODES:
            record.node_deploy(node_id)
        record.transition(Status.DEPLOYING)

    def run(record):
        record.deadline_wall = time.time() + 30
        record.transition(Status.RUNNING)

    steps = [("compiling", lambda r: r.transition(Status.COMPILING)),
             ("planned", plan)]
    steps += [(f"prepared {n}", lambda r, n=n: r.deploy_state.update(
        {n: {"state": "prepared"}})) for n in NODES]
    steps += [("ready", lambda r: r.transition(Status.READY)),
              ("running", run)]
    steps += [(f"token {n}", lambda r, n=n: r.node_exec(n).update(
        {"token": n * 4, "token_at": 1.0, "state": "running"}))
        for n in NODES]
    for name, change in steps:
        with director.mutate("life") as record:
            change(record)
        yield name
    director.gateway.set_flag("life", "go", "n-0")
    yield "flag"
    for node_id in NODES:
        assert director.gateway.ingest_report(report(node_id, 2)) \
            == "accepted"
        yield f"report {node_id}"
    assert director.record("life").status is Status.FINISHED
    yield "finished"
    with director.mutate("life") as record:
        record.cleanup = {n: {"ok": True} for n in NODES}
        record.flags.clear()
    yield "cleaned"


def frozen(record: ExperimentRecord) -> str:
    return json.dumps(record.to_doc(), sort_keys=True)


def reopened(store) -> MemoryStore | FileStore:
    """What a restarted process would see: a new FileStore on the same root;
    a MemoryStore has no disk, so it is its own answer."""
    return FileStore(store.root) if isinstance(store, FileStore) else store


@pytest.fixture
def director_on(store):
    return Director(store, builtin_registry(), {}, recover=False)


class TestStoreContract:
    def test_failed_mutate_leaves_record_unchanged(self, store, director_on):
        for step in lifecycle(director_on):
            if step == "report n-0":
                break
        before = frozen(store.load("life"))
        with pytest.raises(RuntimeError):
            with director_on.mutate("life") as record:
                record.transition(Status.FINISHED)
                record.results.append({"node_id": "n-1"})
                record.exec_state["n-1"]["state"] = "reported"
                record.flags["stop"] = {"set_wall": 1.0}
                raise RuntimeError("body failed")
        assert frozen(store.load("life")) == before
        assert frozen(reopened(store).load("life")) == before

    def test_returned_documents_do_not_alias_the_record(self, store,
                                                        director_on):
        for step in lifecycle(director_on):
            if step == "report n-0":
                break
        before = frozen(store.load("life"))

        snapshot = store.load("life")
        snapshot.transition(Status.FINISHED)
        snapshot.results.append({"node_id": "n-1"})
        snapshot.exec_state["n-0"]["state"] = "tampered"
        snapshot.deploy_state["n-0"]["state"] = "tampered"
        snapshot.reports["n-1"] = {}
        snapshot.flags["go"] = {}
        snapshot.errors.append({})
        snapshot.cleanup["n-0"] = {}

        bundle = director_on.gateway.fetch_bundle("life", "n-0")
        with pytest.raises(TypeError):
            bundle.impl_ids["sleep"] = "tampered"
        with pytest.raises(AttributeError):
            bundle.pipeline.stages.clear()
        result = director_on.results("life")["pipelines"]["p"]["n-0"][0]
        result["outcome"] = "tampered"
        view = director_on.status("life")
        view["transitions"][0]["to"] = "tampered"
        view["policies"]["experiment_timeout_s"] = 0
        view["nodes"]["n-0"]["execution"] = "tampered"

        assert frozen(store.load("life")) == before
        assert director_on.gateway.fetch_bundle("life", "n-0").pipeline.stages

    def test_fresh_store_loads_every_step_equal(self, tmp_path):
        store = FileStore(tmp_path / "records")
        director = Director(store, builtin_registry(), {}, recover=False)
        steps = []
        for step in lifecycle(director):
            steps.append(step)
            assert frozen(FileStore(store.root).load("life")) \
                == frozen(store.load("life")), f"differs after {step}"
        assert steps[-1] == "cleaned"
        assert FileStore(store.root).list_ids() == ["life"]

    def test_last_report_commits_finished(self, tmp_path):
        """The save that stores the last report also commits FINISHED."""
        store = FileStore(tmp_path / "records")
        director = Director(store, builtin_registry(), {}, recover=False)
        for step in lifecycle(director):
            if step == f"report {NODES[-1]}":
                break
        assert director.record("life").status is Status.FINISHED
        assert FileStore(store.root).load("life").status is Status.FINISHED

    def test_orphan_chunk_is_ignored(self, tmp_path, monkeypatch):
        """An uncommitted write, a torn or a garbage last journal line, is
        ignored on reload and overwritten by the next save."""
        store = FileStore(tmp_path / "records")
        director = Director(store, builtin_registry(), {}, recover=False)
        for step in lifecycle(director):
            if step == "report n-0":
                break
        before = frozen(store.load("life"))
        real_append = store_module._append

        def torn(path, data, end):
            real_append(path, data[:len(data) // 2], end)
            raise OSError("crashed in the middle of the append")

        monkeypatch.setattr(store_module, "_append", torn)
        with pytest.raises(OSError):
            director.gateway.ingest_report(report("n-1", 2))
        monkeypatch.setattr(store_module, "_append", real_append)

        journal = store.root / "life" / store_module.JOURNAL
        assert not journal.read_bytes().endswith(b"\n")  # the torn line
        assert frozen(store.load("life")) == before
        assert frozen(FileStore(store.root).load("life")) == before

        assert director.gateway.ingest_report(report("n-1", 2)) == "accepted"
        assert frozen(FileStore(store.root).load("life")) \
            == frozen(store.load("life"))
        assert len(store.load("life").results) == 4

        before = frozen(store.load("life"))
        with journal.open("ab") as handle:
            handle.write(b'{"set": ' + b"garbage " * 1000 + b"\n")
        restarted = FileStore(store.root)
        assert frozen(restarted.load("life")) == before
        rec = restarted.load("life")
        rec.errors.append({"phase": "test"})
        restarted.save(rec)
        assert b"garbage" not in journal.read_bytes()
        assert FileStore(store.root).load("life").errors == [{"phase": "test"}]

    def test_bytes_per_report_do_not_grow_with_stored_results(
            self, tmp_path, monkeypatch):
        store = FileStore(tmp_path / "records")
        director = Director(store, builtin_registry(), {}, recover=False)
        for step in lifecycle(director):
            if step == "flag":
                break
        written: list[int] = []
        real_write, real_append = store_module._write_file, store_module._append

        def counting_write(path, data):
            written[-1] += len(data)
            real_write(path, data)

        def counting_append(path, data, end):
            written[-1] += len(data)
            return real_append(path, data, end)

        monkeypatch.setattr(store_module, "_write_file", counting_write)
        monkeypatch.setattr(store_module, "_append", counting_append)
        for node_id in NODES:
            written.append(0)
            director.gateway.ingest_report(report(node_id, 20, "x" * 200))
        one_report = len(json.dumps(report("n-0", 20, "x" * 200)["results"]))
        # Each non-terminal report appends its own results and metadata;
        # rewriting the stored results would add a whole report's worth.
        *appended, compacted = written
        assert min(appended) > one_report / 2, written  # counted at all
        assert max(appended) - min(appended) < one_report / 4, written
        # The last report makes the record terminal: one snapshot, no line.
        directory = store.root / "life"
        assert compacted == (directory / store_module.HEAD).stat().st_size
        assert not (directory / store_module.JOURNAL).exists()

    def test_crash_between_compaction_and_journal_removal(self, tmp_path):
        store = FileStore(tmp_path / "records")
        director = Director(store, builtin_registry(), {}, recover=False)
        journal = store.root / "life" / store_module.JOURNAL
        for step in lifecycle(director):
            if step == f"report {NODES[-2]}":
                lines = journal.read_bytes()
            if step == f"report {NODES[-1]}":
                break
        assert not journal.exists()
        finished = frozen(store.load("life"))
        journal.write_bytes(lines)  # as if the removal never happened

        restarted = FileStore(store.root)
        assert frozen(restarted.load("life")) == finished
        rec = restarted.load("life")
        assert len(rec.results) == 2 * len(NODES)
        assert len(rec.transitions) == len({t["to"] for t in rec.transitions})
        rec.cleanup = {"n-0": {"ok": True}}
        restarted.save(rec)
        assert not journal.exists()
        assert FileStore(store.root).load("life").cleanup == rec.cleanup

    def test_terminal_record_leaves_no_journal(self, tmp_path):
        store = FileStore(tmp_path / "records")
        director = Director(store, builtin_registry(), {}, recover=False)
        journal = store.root / "life" / store_module.JOURNAL
        for step in lifecycle(director):
            terminal = store.load("life").status in TERMINAL_STATUSES
            assert journal.exists() is not terminal, step
        assert terminal

    def test_journal_bytes_per_report_do_not_grow_with_nodes(self, tmp_path):
        def bytes_per_report(nodes: int) -> float:
            store = FileStore(tmp_path / f"records-{nodes}")
            rec = record("wide")
            for i in range(nodes):
                rec.deploy_state[f"n-{i}"] = {"state": "prepared"}
                rec.exec_state[f"n-{i}"] = {"state": "running", "token": "t"}
            store.create(rec)
            journal = store.root / "wide" / store_module.JOURNAL
            sizes = []
            for i in range(nodes):
                rec = store.load("wide")
                rec.exec_state[f"n-{i}"] = {"state": "reported", "token": "t"}
                rec.reports[f"n-{i}"] = {"executor_version": "t"}
                rec.results.extend(report(f"n-{i}")["results"])
                size = journal.stat().st_size
                store.save(rec)
                sizes.append(journal.stat().st_size - size)
            return statistics.median(sizes)

        few, many = bytes_per_report(10), bytes_per_report(100)
        assert max(few, many) < 1.5 * min(few, many), (few, many)

    def test_renames_are_followed_by_a_directory_fsync(self, tmp_path,
                                                       monkeypatch):
        store = FileStore(tmp_path / "records")
        director = Director(store, builtin_registry(), {}, recover=False)
        calls: list[str] = []
        real_fsync = os.fsync

        def counting(fd):
            calls.append("dir" if stat.S_ISDIR(os.fstat(fd).st_mode)
                         else "file")
            real_fsync(fd)

        monkeypatch.setattr(os, "fsync", counting)
        # (directory fsyncs, file fsyncs) per step; any other step is one
        # journal append. Submit also fsyncs the root, which holds the new
        # experiment directory.
        expected = {"submitted": (3, 2), "planned": (1, 2),
                    f"report {NODES[-1]}": (1, 1), "finished": (0, 0),
                    "cleaned": (1, 1)}
        for step in lifecycle(director):
            assert (calls.count("dir"), calls.count("file")) \
                == expected.get(step, (0, 1)), step
            calls.clear()

HOSTILE_IDS = st.text(max_size=80)


@settings(max_examples=40, deadline=None)
@given(st.lists(HOSTILE_IDS, min_size=1, max_size=4, unique=True))
@example(["..", ".", "/", "a/../../b", "\x00", "é", "", "a_b", "a/b"])
def test_hostile_ids_stay_inside_root_and_apart(ids):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp) / "records"
        store = FileStore(root)
        for experiment_id in ids:
            store.create(record(experiment_id))
        assert list(Path(tmp).iterdir()) == [root]
        assert len(list(root.iterdir())) == len(ids)
        fresh = FileStore(root)
        assert fresh.list_ids() == sorted(ids)
        for experiment_id in ids:
            assert fresh.load(experiment_id).experiment_id == experiment_id


@given(HOSTILE_IDS)
@example("..")
@example("")
def test_path_component_is_one_plain_name(name):
    component = path_component(name)
    assert component not in ("", ".", "..")
    assert "/" not in component and "\x00" not in component
    assert Path(component).name == component


class TestDurableDirectories:
    """Every directory the platform makes has its parent fsynced once it
    exists; a directory that is already there costs no fsync."""

    @pytest.fixture
    def fsynced(self, monkeypatch) -> list[Path]:
        calls: list[Path] = []
        real = store_module._fsync_dir

        def recording(path):
            calls.append(Path(path))
            real(path)

        monkeypatch.setattr(store_module, "_fsync_dir", recording)
        return calls

    def test_store_root_and_experiment_directories(self, tmp_path, fsynced):
        root = tmp_path / "a" / "records"
        store = FileStore(root)
        assert fsynced == [tmp_path, tmp_path / "a"]
        fsynced.clear()
        FileStore(root)
        assert fsynced == []
        store.create(record("new"))
        # the new directory's parent, then the directory after each rename
        assert fsynced == [root, root / "new", root / "new"]
        fsynced.clear()
        (root / "reused").mkdir()
        store.create(record("reused"))
        assert fsynced == [root / "reused", root / "reused"]

    def test_spool_directory(self, tmp_path, fsynced):
        spool_dir = tmp_path / "spool" / "sim-000"
        doc = {"experiment_id": "exp", "node_id": "sim-000", "results": []}
        write_spool(spool_dir, doc)
        assert fsynced == [tmp_path, tmp_path / "spool"]
        fsynced.clear()
        write_spool(spool_dir, {**doc, "experiment_id": "exp-2"})
        assert fsynced == []

    def test_artifact_directories(self, tmp_path, fsynced):
        director = Director(MemoryStore(), builtin_registry(), {},
                            recover=False,
                            artifact_root=tmp_path / "artifacts")
        node = NodeDescriptor("sim-000", "simulated", {}, "sim")
        director.submit(Experiment("exp").map(
            Pipeline("p").then(TaskSpec("sleep", params={"seconds": 0})),
            [node]))
        director.gateway.store_artifact("exp", "sim-000", "a", b"1")
        assert fsynced == [tmp_path, tmp_path / "artifacts",
                           tmp_path / "artifacts" / "exp"]
        fsynced.clear()
        director.gateway.store_artifact("exp", "sim-000", "b", b"2")
        assert fsynced == []


def test_failed_write_leaves_no_temp_file(tmp_path, monkeypatch):
    def refuse(src, dst):
        raise OSError("no space left on device")

    monkeypatch.setattr(os, "replace", refuse)
    with pytest.raises(OSError, match="no space"):
        store_module._write_file(tmp_path / "head.json", b"{}")
    assert list(tmp_path.iterdir()) == []


def test_short_journal_append_raises(tmp_path, monkeypatch):
    journal = tmp_path / store_module.JOURNAL
    journal.write_bytes(b"")
    monkeypatch.setattr(os, "pwrite", lambda fd, data, offset: len(data) - 1)
    with pytest.raises(OSError, match="short write"):
        store_module._append(journal, b"{}\n", 0)


def test_list_ids_skips_heads_it_cannot_read(tmp_path):
    store = FileStore(tmp_path / "records")
    store.create(record("good"))
    for name, text in (("torn", '{"experiment_'), ("anonymous", "{}")):
        (store.root / name).mkdir()
        (store.root / name / store_module.HEAD).write_text(text)
    assert store.list_ids() == ["good"]


def test_file_store_saves_only_what_it_created(tmp_path):
    with pytest.raises(UnknownExperiment):
        FileStore(tmp_path / "records").save(record("never-created"))
