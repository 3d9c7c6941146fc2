"""The HTTP server's transport: loopback latency and bounded request bodies."""

from __future__ import annotations

import socket
import statistics
import time

import pytest
import yaml

from conftest import listing1_connector
from expforge import Director, MemoryStore, builtin_registry
from expforge.cli import DirectorClient
from expforge.manifest import load_bundled_example
from expforge.server import MAX_BODY_BYTES, PlatformServer


@pytest.fixture
def server():
    director = Director(MemoryStore(), builtin_registry(),
                        {"sim": listing1_connector()})
    platform = PlatformServer(director).start()
    yield platform
    platform.stop()


def raw_request(server, head: str) -> tuple[bytes, float]:
    """Send ``head`` with no body; the reply and how long it took."""
    host, port = server.httpd.server_address[:2]
    started = time.monotonic()
    with socket.create_connection((host, port), timeout=5) as sock:
        sock.sendall(head.encode("ascii"))
        reply = b""
        while chunk := sock.recv(65536):
            reply += chunk
    return reply, time.monotonic() - started


def test_status_round_trip_is_not_delayed_by_nagle(server):
    client = DirectorClient(server.url)
    eid = client.submit(yaml.safe_load(load_bundled_example()))
    client.status(eid)  # open the keep-alive connection
    timings = []
    for _ in range(20):
        started = time.perf_counter()
        client.status(eid)
        timings.append(time.perf_counter() - started)
    assert statistics.median(timings) < 0.010


def test_oversized_body_rejected_before_it_is_read(server):
    reply, elapsed = raw_request(
        server,
        "POST /gw/v1/report HTTP/1.1\r\nHost: x\r\n"
        "Content-Type: application/json\r\n"
        f"Content-Length: {MAX_BODY_BYTES * 1000}\r\n\r\n")
    assert reply.startswith(b"HTTP/1.1 413 ")
    assert elapsed < 2.0


@pytest.mark.parametrize("length", ["-1", "ten"])
def test_malformed_length_is_a_bad_request(server, length):
    reply, _ = raw_request(
        server,
        "POST /gw/v1/report HTTP/1.1\r\nHost: x\r\n"
        f"Content-Length: {length}\r\n\r\n")
    assert reply.startswith(b"HTTP/1.1 400 ")
