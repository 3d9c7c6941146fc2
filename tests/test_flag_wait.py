"""The one flag-wait path: Gateway.wait_flag, in process and as a long-poll."""

from __future__ import annotations

import sys
import threading
import time

import pytest
import requests

from conftest import FAST_SIM, wait_status
from expforge import Director, MemoryStore, builtin_registry
from expforge import gateway as gateway_module
from expforge.connectors.simulated import SimulatedConnector
from expforge.errors import WrongPhase
from expforge.gateway import CLIENT_LONG_POLL_S, HttpGatewayClient
from expforge.model import Experiment, Pipeline, Policies, Status, TaskSpec
from expforge import server as server_module
from expforge.server import PlatformServer


def start_held(director, connector, name: str, *, nodes: int = 1) -> str:
    """A RUNNING experiment whose nodes wait 30 s on a 'release' flag."""
    pipeline = Pipeline("p").then(
        TaskSpec("wait-flag", params={"key": "release", "timeout_s": 30}))
    exp = Experiment(name, policies=Policies(experiment_timeout_s=60)).map(
        pipeline, connector.list_nodes().take(nodes))
    experiment_id = director.submit(exp)
    director.deploy(experiment_id)
    wait_status(director, experiment_id, {Status.READY})
    director.execute(experiment_id)
    wait_status(director, experiment_id, {Status.RUNNING})
    return experiment_id


def executor_threads(experiment_id: str) -> list[threading.Thread]:
    prefix = f"sim-executor-{experiment_id}-"
    return [t for t in threading.enumerate() if t.name.startswith(prefix)]


def test_cancel_releases_flag_waiters(make_director):
    connector = SimulatedConnector("sim", node_count=3, fault=FAST_SIM)
    director = make_director({"sim": connector})
    eid = start_held(director, connector, "cancel-release", nodes=3)
    deadline = time.monotonic() + 5.0
    while len(executor_threads(eid)) < 3 and time.monotonic() < deadline:
        time.sleep(0.01)
    assert len(executor_threads(eid)) == 3
    director.cancel(eid)
    deadline = time.monotonic() + 2.0
    while executor_threads(eid) and time.monotonic() < deadline:
        time.sleep(0.02)
    assert executor_threads(eid) == []
    assert director.record(eid).reports == {}


def test_no_lost_wake_up_under_contention(make_director, monkeypatch):
    """Waiters racing a setter all wake on its notify; with the re-check
    slice raised to 30 s, a lost wake-up would hold a waiter past its join."""
    monkeypatch.setattr(gateway_module, "FLAG_WAIT_SLICE_S", 30.0)
    connector = SimulatedConnector("sim", node_count=1, fault=FAST_SIM)
    director = make_director({"sim": connector})
    eid = start_held(director, connector, "contention")
    released: list[dict | None] = []
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for round_index in range(20):
            key = f"k{round_index}"
            waiters = [threading.Thread(target=lambda: released.append(
                director.gateway.wait_flag(eid, key, timeout_s=10)))
                for _ in range(8)]
            for waiter in waiters:
                waiter.start()
            director.gateway.set_flag(eid, key, "test")
            for waiter in waiters:
                waiter.join(timeout=5)
            assert not any(waiter.is_alive() for waiter in waiters)
    finally:
        sys.setswitchinterval(previous)
    assert len(released) == 160 and all(flag for flag in released)
    director.gateway.set_flag(eid, "release", "test")


def test_cancel_ends_blocked_wait_at_once(make_director, monkeypatch):
    """With the re-check slice raised to 30 s, only the notify of the
    cancel's release can end the wait within a second."""
    monkeypatch.setattr(gateway_module, "FLAG_WAIT_SLICE_S", 30.0)
    connector = SimulatedConnector("sim", node_count=1, fault=FAST_SIM)
    director = make_director({"sim": connector})
    eid = start_held(director, connector, "cancel-wakes")
    raised: list[Exception] = []

    def waiter():
        try:
            director.gateway.wait_flag(eid, "never", timeout_s=20)
        except WrongPhase as exc:
            raised.append(exc)

    thread = threading.Thread(target=waiter)
    thread.start()
    time.sleep(0.2)
    assert thread.is_alive()  # blocked in its 30 s slice
    started = time.monotonic()
    director.cancel(eid)
    thread.join(timeout=1.0)
    assert not thread.is_alive()
    assert time.monotonic() - started < 1.0
    assert len(raised) == 1


@pytest.fixture
def served():
    connector = SimulatedConnector("sim", node_count=2, fault=FAST_SIM)
    director = Director(MemoryStore(), builtin_registry(), {"sim": connector})
    platform = PlatformServer(director).start()
    yield platform, connector
    platform.stop()


class TestHttpLongPoll:
    def test_wakes_promptly_after_set(self, served):
        platform, connector = served
        eid = start_held(platform.director, connector, "wake-http")
        client = HttpGatewayClient(platform.url)
        set_at: list[float] = []

        def setter():
            time.sleep(0.1)
            set_at.append(time.monotonic())
            platform.director.gateway.set_flag(eid, "go", "test")

        thread = threading.Thread(target=setter)
        thread.start()
        flag = client.wait_flag(eid, "go", timeout_s=5)
        woke_at = time.monotonic()
        thread.join(timeout=5)
        assert not thread.is_alive()
        assert flag is not None and flag["set"] is True
        assert woke_at - set_at[0] < 0.2
        platform.director.gateway.set_flag(eid, "release", "test")
        wait_status(platform.director, eid, {Status.FINISHED})

    def test_client_long_polls_stay_within_cap(self, served):
        platform, connector = served
        eid = start_held(platform.director, connector, "client-cap")
        client = HttpGatewayClient(platform.url)
        asked: list[float] = []
        request = client._session.request

        def recording(method, url, **kwargs):
            asked.append(float(url.rsplit("wait_s=", 1)[1]))
            return request(method, url, **kwargs)

        client._session.request = recording
        started = time.monotonic()
        assert client.wait_flag(eid, "never", timeout_s=1.3) is None
        elapsed = time.monotonic() - started
        assert 1.25 <= elapsed < 2.5
        assert len(asked) >= 3
        assert all(0 <= wait_s <= CLIENT_LONG_POLL_S for wait_s in asked)
        platform.director.gateway.set_flag(eid, "release", "test")

    def test_cancel_ends_client_wait(self, served):
        platform, connector = served
        eid = start_held(platform.director, connector, "client-cancel")
        client = HttpGatewayClient(platform.url)
        cancel = threading.Event()
        threading.Timer(0.1, cancel.set).start()
        started = time.monotonic()
        assert client.wait_flag(eid, "never", timeout_s=30,
                                cancel=cancel) is None
        assert time.monotonic() - started < 0.1 + CLIENT_LONG_POLL_S + 0.5
        platform.director.gateway.set_flag(eid, "release", "test")

    def test_server_clamps_wait(self, served, monkeypatch):
        platform, connector = served
        eid = start_held(platform.director, connector, "server-cap")
        monkeypatch.setattr(server_module, "MAX_FLAG_WAIT_S", 0.2)
        started = time.monotonic()
        response = requests.get(
            f"{platform.url}/gw/v1/flags/{eid}/never?wait_s=1000", timeout=10)
        assert response.status_code == 200
        assert response.json() == {"set": False}
        assert time.monotonic() - started < 2.0
        platform.director.gateway.set_flag(eid, "release", "test")

    @pytest.mark.parametrize("wait_s", ["abc", "-1", "nan", "inf"])
    def test_bad_wait_is_rejected(self, served, wait_s):
        platform, connector = served
        eid = start_held(platform.director, connector, "bad-wait")
        response = requests.get(
            f"{platform.url}/gw/v1/flags/{eid}/release?wait_s={wait_s}",
            timeout=10)
        assert response.status_code == 400
        platform.director.gateway.set_flag(eid, "release", "test")

    def test_wait_on_cancelled_experiment_conflicts(self, served):
        platform, connector = served
        eid = start_held(platform.director, connector, "cancelled-wait")
        platform.director.cancel(eid)
        client = HttpGatewayClient(platform.url)
        with pytest.raises(WrongPhase):
            client.wait_flag(eid, "release", timeout_s=1)
