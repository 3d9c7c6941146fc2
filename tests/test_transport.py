"""The stdlib HTTP client both wire clients share: quoted path segments,
one keep-alive connection per thread, and no ``requests`` at run time."""

from __future__ import annotations

import os
import re
import subprocess
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import pytest

import expforge
from conftest import FAST_SIM
from expforge import Director, MemoryStore, builtin_registry
from expforge.cli import DirectorClient
from expforge.connectors.simulated import SimulatedConnector
from expforge.errors import TransportError, UnknownAssignment
from expforge.gateway import HttpGatewayClient
from expforge.server import PlatformServer
from expforge.transport import HttpTransport

ODD_NAMES = ["lab run 1", "x/y", "q?a", "h#1", "ü-1", "50%"]
FLAG_KEY = "go/now then"


@pytest.fixture
def server():
    connector = SimulatedConnector("sim", node_count=2, fault=FAST_SIM)
    director = Director(MemoryStore(), builtin_registry(), {"sim": connector})
    platform = PlatformServer(director).start()
    yield platform
    platform.stop()


def held_manifest(name: str) -> dict:
    """One node that waits on ``FLAG_KEY`` before it finishes."""
    return {
        "name": name,
        "selectors": {"one": {"connector": "sim", "take": 1}},
        "pipelines": {"hold": {"stages": [[{
            "type": "wait-flag", "name": "hold",
            "params": {"key": FLAG_KEY, "timeout_s": 30}}]]}},
        "assignments": [{"pipeline": "hold", "nodes": "one"}],
        "policies": {"experiment_timeout_s": 60},
    }


def wait_view(client: DirectorClient, experiment_id: str, status: str,
              timeout: float = 10.0) -> dict:
    deadline = time.monotonic() + timeout
    while (view := client.status(experiment_id))["status"] != status:
        assert time.monotonic() < deadline, view
        time.sleep(0.01)
    return view


@pytest.mark.parametrize("name", ODD_NAMES)
def test_odd_ids_and_flag_keys_round_trip(server, name):
    client = DirectorClient(server.url)
    eid = client.submit(held_manifest(name))
    assert eid == name
    client.deploy(eid)
    wait_view(client, eid, "READY")
    client.execute(eid)
    wait_view(client, eid, "RUNNING")

    gateway = HttpGatewayClient(server.url)
    (node_id,) = server.director.record(eid).nodes
    assert gateway.get_flag(eid, FLAG_KEY) == {"set": False}
    assert gateway.set_flag(eid, FLAG_KEY, node_id)["node_id"] == node_id
    assert gateway.get_flag(eid, FLAG_KEY)["set"] is True
    assert gateway.wait_flag(eid, FLAG_KEY, timeout_s=5)["set"] is True
    assert server.director.record(eid).flags.keys() == {FLAG_KEY}

    meta = gateway.upload_artifact(eid, node_id, "a b/c", b"x")
    assert (meta["node_id"], meta["name"]) == (node_id, "a b/c")
    with pytest.raises(UnknownAssignment, match=re.escape("'a/b c'")):
        gateway.upload_artifact(eid, "a/b c", "n", b"x")

    wait_view(client, eid, "FINISHED")
    results = client.results(eid)
    assert results["experiment_id"] == name
    assert list(results["pipelines"]["hold"]) == [node_id]


def test_shared_client_sets_during_another_threads_long_poll(server):
    client = DirectorClient(server.url)
    eid = client.submit(held_manifest("shared"))
    client.deploy(eid)
    wait_view(client, eid, "READY")
    client.execute(eid)
    wait_view(client, eid, "RUNNING")
    (node_id,) = server.director.record(eid).nodes
    gateway = HttpGatewayClient(server.url)
    assert gateway.get_flag(eid, "late") == {"set": False}  # one idle
    waited: list[dict | None] = []
    waiter = threading.Thread(target=lambda: waited.append(
        gateway.wait_flag(eid, "late", timeout_s=5)))
    waiter.start()
    time.sleep(0.15)  # the waiter is inside a long-poll
    started = time.monotonic()
    gateway.set_flag(eid, "late", node_id)
    assert time.monotonic() - started < 0.2
    waiter.join(timeout=5)
    assert not waiter.is_alive()
    assert waited[0] is not None and waited[0]["set"] is True
    gateway.set_flag(eid, FLAG_KEY, node_id)
    wait_view(client, eid, "FINISHED")


class _ClosingHandler(BaseHTTPRequestHandler):
    """Answers every request on a keep-alive reply, then closes the
    connection without saying so."""

    protocol_version = "HTTP/1.1"
    seen: list[tuple[str, int]]

    def log_message(self, fmt, *args) -> None:
        pass

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        self.seen.append((self.path, self.client_address[1]))
        data = b'{"ok": true}'
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)
        self.close_connection = True


def test_connection_closed_while_idle_is_replaced_not_resent():
    handler = type("Handler", (_ClosingHandler,), {"seen": []})
    httpd = ThreadingHTTPServer(("127.0.0.1", 0), handler)
    thread = threading.Thread(target=httpd.serve_forever, args=(0.05,),
                              daemon=True)
    thread.start()
    try:
        host, port = httpd.server_address[:2]
        transport = HttpTransport(f"http://{host}:{port}", timeout_s=5)
        assert transport.request("GET", "/one") == (200, {"ok": True})
        time.sleep(0.1)  # the server's close reaches the idle connection
        assert transport.request("GET", "/two") == (200, {"ok": True})
    finally:
        httpd.shutdown()
        httpd.server_close()
        thread.join(timeout=5)
    assert [path for path, _ in handler.seen] == ["/one", "/two"]
    assert handler.seen[0][1] != handler.seen[1][1]  # a new connection


def test_runtime_never_imports_requests():
    package = Path(expforge.__file__).parent
    probe = ("import sys, expforge, expforge.cli, expforge.executor, "
             "expforge.server; print('requests' in sys.modules)")
    env = {**os.environ, "PYTHONPATH": str(package.parent)}
    completed = subprocess.run([sys.executable, "-c", probe], env=env,
                               capture_output=True, text=True, timeout=60)
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout.strip() == "False"
    importing = [str(path) for path in package.rglob("*.py")
                 if re.search(r"^\s*(import|from)\s+requests\b",
                              path.read_text(encoding="utf-8"), re.M)]
    assert importing == []


def test_transport_refuses_a_url_that_is_not_http():
    with pytest.raises(TransportError, match="not an http"):
        HttpTransport("ftp://127.0.0.1/", 1.0)


def test_reply_that_is_not_json_becomes_a_message(server):
    """The server answers an unsupported method with its own HTML error
    page; the transport hands that text back as the message."""
    status, payload = HttpTransport(server.url, 5.0).request("PUT", "/x")
    assert status == 501
    assert "Unsupported method" in payload["message"]
