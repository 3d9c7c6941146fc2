"""The one wait helper, Director.wait: status waits in process and as an HTTP
long-poll, the execute worker's deadline wait, and slicing only with a
cancel event."""

from __future__ import annotations

import threading
import time

import pytest
import requests

from conftest import FAST_SIM, wait_status
from expforge import Director, MemoryStore, builtin_registry
from expforge import server as server_module
from expforge.cli import DirectorClient
from expforge.connectors.simulated import SimulatedConnector
from expforge.model import Experiment, Pipeline, Policies, Status, TaskSpec
from expforge.server import PlatformServer


def start_held(director, connector, name: str) -> str:
    """A RUNNING one-node experiment whose node waits 30 s on 'release',
    with a 60 s deadline."""
    pipeline = Pipeline("p").then(
        TaskSpec("wait-flag", params={"key": "release", "timeout_s": 30}))
    exp = Experiment(name, policies=Policies(experiment_timeout_s=60)).map(
        pipeline, connector.list_nodes().take(1))
    experiment_id = director.submit(exp)
    director.deploy(experiment_id)
    wait_status(director, experiment_id, {Status.READY})
    director.execute(experiment_id)
    wait_status(director, experiment_id, {Status.RUNNING})
    return experiment_id


def release(director, experiment_id: str) -> None:
    director.gateway.set_flag(experiment_id, "release", "test")
    wait_status(director, experiment_id, {Status.FINISHED})


@pytest.fixture
def connector():
    return SimulatedConnector("sim", node_count=2, fault=FAST_SIM)


@pytest.fixture
def served(connector):
    director = Director(MemoryStore(), builtin_registry(), {"sim": connector})
    platform = PlatformServer(director).start()
    yield platform
    platform.stop()


def test_wait_status_wakes_on_another_threads_commit(make_director,
                                                     connector):
    director = make_director({"sim": connector})
    eid = start_held(director, connector, "wake")
    threading.Timer(0.1, director.gateway.set_flag,
                    (eid, "release", "test")).start()
    view = director.wait_status(eid, Status.RUNNING, timeout_s=5)
    woke_wall = time.time()
    assert view["status"] == "FINISHED"
    assert woke_wall - view["transitions"][-1]["at"] < 0.02


def test_wait_status_returns_the_view_at_timeout(make_director, connector):
    director = make_director({"sim": connector})
    eid = start_held(director, connector, "timeout")
    started = time.monotonic()
    view = director.wait_status(eid, Status.RUNNING, timeout_s=0.2)
    assert 0.2 <= time.monotonic() - started < 1.0
    assert view["status"] == "RUNNING"
    release(director, eid)


def test_only_a_wait_with_cancel_slices(make_director, connector):
    director = make_director({"sim": connector})
    eid = director.submit(Experiment("idle").map(
        Pipeline("p").then(TaskSpec("sleep", params={"seconds": 0})),
        connector.list_nodes().take(1)))
    checks: list[float] = []

    def never() -> None:
        checks.append(time.monotonic())

    assert director.wait(eid, never, 0.5) is None
    assert len(checks) <= 2  # at once, and after the timed-out wait
    checks.clear()
    assert director.wait(eid, never, 0.5, threading.Event()) is None
    assert len(checks) >= 4


def test_close_ends_the_deadline_wait(make_director, connector):
    director = make_director({"sim": connector})
    eid = start_held(director, connector, "close")
    deadline = time.monotonic() + 5
    while not any(key[0] == eid for key in list(director._handles)):
        assert time.monotonic() < deadline
        time.sleep(0.01)
    worker = next(t for t in threading.enumerate()
                  if t.name == f"execute-{eid}")
    time.sleep(0.05)  # into its wait for the 60 s deadline
    started = time.monotonic()
    director.close()
    worker.join(timeout=0.5)
    assert not worker.is_alive()
    assert time.monotonic() - started < 0.5
    assert director.record(eid).status is Status.RUNNING
    release(director, eid)


class TestHttpStatusWait:
    def test_returns_once_finished(self, served, connector):
        eid = start_held(served.director, connector, "http-wake")
        threading.Timer(0.1, served.director.gateway.set_flag,
                        (eid, "release", "test")).start()
        started = time.monotonic()
        response = requests.get(
            f"{served.url}/api/v1/experiments/{eid}"
            f"?wait_s=5&unless=RUNNING", timeout=10)
        assert response.status_code == 200
        assert response.json()["status"] == "FINISHED"
        assert time.monotonic() - started < 1.0

    @pytest.mark.parametrize("query", [
        "wait_s=-1&unless=RUNNING", "wait_s=nan&unless=RUNNING",
        "wait_s=abc&unless=RUNNING", "wait_s=1&unless=running",
        "wait_s=1&unless=BOGUS", "wait_s=1"])
    def test_bad_query_is_rejected(self, served, connector, query):
        eid = start_held(served.director, connector, "bad-query")
        response = requests.get(
            f"{served.url}/api/v1/experiments/{eid}?{query}", timeout=10)
        assert response.status_code == 400
        release(served.director, eid)

    def test_server_caps_the_wait(self, served, connector, monkeypatch):
        eid = start_held(served.director, connector, "http-cap")
        monkeypatch.setattr(server_module, "MAX_FLAG_WAIT_S", 0.2)
        started = time.monotonic()
        response = requests.get(
            f"{served.url}/api/v1/experiments/{eid}"
            f"?wait_s=1000&unless=RUNNING", timeout=10)
        assert response.status_code == 200
        assert response.json()["status"] == "RUNNING"
        assert time.monotonic() - started < 2.0
        release(served.director, eid)

    def test_unknown_id_is_404_and_makes_no_monitor(self, served):
        before = len(served.director._monitors)
        response = requests.get(
            f"{served.url}/api/v1/experiments/nope?wait_s=1&unless=RUNNING",
            timeout=10)
        assert response.status_code == 404
        assert len(served.director._monitors) == before

    def test_open_long_poll_does_not_delay_stop(self, connector):
        director = Director(MemoryStore(), builtin_registry(),
                            {"sim": connector})
        platform = PlatformServer(director).start()
        eid = start_held(director, connector, "http-stop")
        returned: list[tuple[float, dict]] = []
        poller = threading.Thread(target=lambda: returned.append((
            time.monotonic(), DirectorClient(platform.url).status(
                eid, wait_s=20, unless="RUNNING"))))
        poller.start()
        time.sleep(0.2)
        stopped_at = time.monotonic()
        platform.stop()
        poller.join(timeout=5)
        assert returned and returned[0][1]["status"] == "RUNNING"
        assert returned[0][0] - stopped_at < 0.5
        release(director, eid)
