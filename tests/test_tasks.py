"""Builtin task library contracts on simulated and linux-shell kinds."""

from __future__ import annotations

import hashlib
import json
import shutil
import socket
import subprocess
import threading

import pytest

from conftest import FakeGatewayClient
from expforge.connectors.simulated import FaultModel, SimNode, SimRuntime
from expforge.executor import LocalRuntime, TaskContext
from expforge.model import NodeDescriptor
from expforge.registry import TaskError
from expforge.tasks import parse_ping_output


@pytest.fixture
def sim_node():
    return SimNode("sim-000", {}, seed=0)


@pytest.fixture
def sim_ctx(sim_node, registry):
    runtime = SimRuntime(sim_node, FaultModel())
    return TaskContext(experiment_id="exp",
                       node=NodeDescriptor("sim-000", "simulated"),
                       runtime=runtime, gateway=FakeGatewayClient())


@pytest.fixture
def local_ctx(tmp_path):
    runtime = LocalRuntime(tmp_path / "scratch")
    return TaskContext(experiment_id="exp",
                       node=NodeDescriptor("local-host", "linux-shell"),
                       runtime=runtime, gateway=FakeGatewayClient())


def impl(registry, task_type, kind):
    return registry.implementation(registry.resolve(task_type, kind))


# ---------------------------------------------------------------------------
# sleep / shell
# ---------------------------------------------------------------------------

def test_sleep_negative_rejected(registry, sim_ctx):
    with pytest.raises(TaskError):
        impl(registry, "sleep", "simulated").run({"seconds": -1}, sim_ctx)


def test_zero_sleep_with_its_cancel_set_is_cancelled(registry, sim_ctx,
                                                     sim_node):
    """A zero-length simulated sleep takes no wait, yet answers a cancel
    that is already set, and logs its event as every sleep does."""
    sim_ctx.cancel.set()
    with pytest.raises(TaskError, match="sleep cancelled"):
        impl(registry, "sleep", "simulated").run({"seconds": 0}, sim_ctx)
    assert [(e.name, dict(e.detail)) for e in sim_node.events] \
        == [("sleep", {"seconds": 0})]


def test_shell_sim_vocabulary(registry, sim_ctx):
    shell = impl(registry, "shell", "simulated")
    assert shell.run({"command": "echo hello there"}, sim_ctx) \
        == "hello there\n"
    with pytest.raises(TaskError) as excinfo:
        shell.run({"command": "exit 7"}, sim_ctx)
    assert "7" in str(excinfo.value)


def test_shell_sim_records_intent_for_unknown_commands(registry, sim_ctx,
                                                       sim_node):
    shell = impl(registry, "shell", "simulated")
    shell.run({"command": "start-http-server --port 443"}, sim_ctx)
    intents = [e for e in sim_node.events if e.name == "intent"]
    assert any("start-http-server" in dict(e.detail)["command"]
               for e in intents)


def test_shell_empty_command_rejected(registry, sim_ctx):
    with pytest.raises(TaskError):
        impl(registry, "shell", "simulated").run({"command": "  "}, sim_ctx)


# ---------------------------------------------------------------------------
# flags
# ---------------------------------------------------------------------------

def test_set_then_wait_same_node_immediate(registry, sim_ctx):
    impl(registry, "set-flag", "simulated").run({"key": "ready"}, sim_ctx)
    payload = impl(registry, "wait-flag", "simulated").run(
        {"key": "ready", "timeout_s": 1}, sim_ctx)
    assert json.loads(payload)["flag"]["set"]


def test_wait_flag_timeout_is_failure(registry, sim_ctx):
    with pytest.raises(TaskError) as excinfo:
        impl(registry, "wait-flag", "simulated").run(
            {"key": "never", "timeout_s": 0.1}, sim_ctx)
    assert "never" in str(excinfo.value)


def test_flags_without_gateway_fail(registry, sim_ctx):
    sim_ctx.gateway = None
    with pytest.raises(TaskError):
        impl(registry, "set-flag", "simulated").run({"key": "k"}, sim_ctx)


def test_two_party_ordering(registry, sim_ctx):
    gateway = sim_ctx.gateway
    release = threading.Event()
    observed = {}

    def server():
        release.wait(2)
        observed["set_at"] = gateway.set_flag("exp", "go", "server")

    thread = threading.Thread(target=server)
    thread.start()
    release.set()
    payload = impl(registry, "wait-flag", "simulated").run(
        {"key": "go", "timeout_s": 5}, sim_ctx)
    thread.join()
    assert json.loads(payload)["flag"]["set_mono"] \
        == observed["set_at"]["set_mono"]


# ---------------------------------------------------------------------------
# capture
# ---------------------------------------------------------------------------

def test_sim_capture_start_stop(registry, sim_ctx, sim_node):
    start = impl(registry, "capture-start", "simulated")
    stop = impl(registry, "capture-stop", "simulated")
    start.run({"iface": "eth0", "out_path": "t.pcap"}, sim_ctx)
    payload = json.loads(stop.run({}, sim_ctx))
    assert payload["size_bytes"] > 0
    assert sim_node.exists("t.pcap")
    assert any(e.name == "capture-start-intent" for e in sim_node.events)


def test_capture_stop_without_start(registry, sim_ctx):
    with pytest.raises(TaskError) as excinfo:
        impl(registry, "capture-stop", "simulated").run({}, sim_ctx)
    assert "no active capture" in str(excinfo.value)


def test_capture_start_twice_same_handle(registry, sim_ctx):
    start = impl(registry, "capture-start", "simulated")
    start.run({"out_path": "a.pcap"}, sim_ctx)
    with pytest.raises(TaskError):
        start.run({"out_path": "b.pcap"}, sim_ctx)


def test_linux_capture_declares_binary(registry):
    start = impl(registry, "capture-start", "linux-shell")
    assert any(b.name == "tcpdump" for b in start.environment.binaries)


# ---------------------------------------------------------------------------
# ping
# ---------------------------------------------------------------------------

IPUTILS_OUTPUT = """\
PING 127.0.0.1 (127.0.0.1) 56(84) bytes of data.
64 bytes from 127.0.0.1: icmp_seq=1 ttl=64 time=0.045 ms

--- 127.0.0.1 ping statistics ---
1 packets transmitted, 1 received, 0% packet loss, time 0ms
rtt min/avg/max/mdev = 0.045/0.047/0.049/0.002 ms
"""

BUSYBOX_OUTPUT = """\
PING example.net (93.184.216.34): 56 data bytes

--- example.net ping statistics ---
4 packets transmitted, 3 packets received, 25% packet loss
round-trip min/avg/max = 11.2/12.5/14.0 ms
"""


def test_parse_ping_iputils():
    summary = parse_ping_output(IPUTILS_OUTPUT)
    assert summary["transmitted"] == 1
    assert summary["received"] == 1
    assert summary["loss_pct"] == 0.0
    assert summary["rtt_ms"]["avg"] == 0.047


def test_parse_ping_busybox():
    summary = parse_ping_output(BUSYBOX_OUTPUT)
    assert summary["received"] == 3
    assert summary["loss_pct"] == 25.0
    assert summary["rtt_ms"]["max"] == 14.0


def test_parse_ping_garbage_fails():
    with pytest.raises(TaskError):
        parse_ping_output("connect: Network is unreachable")


def test_ping_count_zero_rejected(registry, sim_ctx):
    with pytest.raises(TaskError):
        impl(registry, "ping", "simulated").run(
            {"target": "127.0.0.1", "count": 0}, sim_ctx)


def test_sim_ping_synthetic_zero_loss(registry, sim_ctx):
    payload = json.loads(impl(registry, "ping", "simulated").run(
        {"target": "host-under-test", "count": 3}, sim_ctx))
    assert payload["loss_pct"] == 0.0
    assert payload["transmitted"] == 3
    assert payload["synthetic"] is True


def _ping_usable() -> bool:
    if shutil.which("ping") is None:
        return False
    probe = subprocess.run(["ping", "-c", "1", "127.0.0.1"],
                           stdout=subprocess.DEVNULL,
                           stderr=subprocess.DEVNULL)
    return probe.returncode == 0


@pytest.mark.skipif(not _ping_usable(),
                    reason="ping binary unavailable or unpermitted here")
def test_ping_loopback_zero_loss(registry, local_ctx):
    payload = json.loads(impl(registry, "ping", "linux-shell").run(
        {"target": "127.0.0.1", "count": 1}, local_ctx))
    assert payload["loss_pct"] == 0.0


# ---------------------------------------------------------------------------
# port-check
# ---------------------------------------------------------------------------

def test_port_check_open_on_live_listener(registry, local_ctx):
    listener = socket.socket()
    listener.bind(("127.0.0.1", 0))
    listener.listen(1)
    port = listener.getsockname()[1]
    try:
        payload = json.loads(impl(registry, "port-check", "linux-shell").run(
            {"host": "127.0.0.1", "port": port}, local_ctx))
        assert payload["open"] is True
    finally:
        listener.close()


def test_port_check_closed_is_success(registry, local_ctx):
    listener = socket.socket()
    listener.bind(("127.0.0.1", 0))
    port = listener.getsockname()[1]
    listener.close()  # nothing listens here now
    payload = json.loads(impl(registry, "port-check", "linux-shell").run(
        {"host": "127.0.0.1", "port": port, "timeout_s": 0.5}, local_ctx))
    assert payload["open"] is False


def test_port_check_port_zero_rejected(registry, sim_ctx):
    with pytest.raises(TaskError):
        impl(registry, "port-check", "simulated").run(
            {"host": "127.0.0.1", "port": 0}, sim_ctx)


# ---------------------------------------------------------------------------
# upload
# ---------------------------------------------------------------------------

def test_upload_single_file_digest_matches(registry, sim_ctx):
    sim_ctx.runtime.write_file("data.bin", b"\x01\x02payload")
    payload = json.loads(impl(registry, "upload", "simulated").run(
        {"paths": ["data.bin"]}, sim_ctx))
    stored = sim_ctx.gateway.artifacts[("exp", "sim-000", "data.bin")]
    assert payload["uploaded"][0]["digest"] \
        == hashlib.sha256(b"\x01\x02payload").hexdigest()
    assert stored == b"\x01\x02payload"


def test_upload_empty_list_noop(registry, sim_ctx):
    payload = json.loads(impl(registry, "upload", "simulated").run(
        {"paths": []}, sim_ctx))
    assert payload["count"] == 0


def test_upload_missing_path_fails(registry, sim_ctx):
    with pytest.raises(TaskError) as excinfo:
        impl(registry, "upload", "simulated").run(
            {"paths": ["data.bin", "absent.txt"]}, sim_ctx)
    assert "absent.txt" in str(excinfo.value)


def test_upload_foreign_destination_rejected(registry, sim_ctx):
    sim_ctx.runtime.write_file("x", "1")
    with pytest.raises(TaskError):
        impl(registry, "upload", "simulated").run(
            {"paths": ["x"], "destination_url": "dav://elsewhere"}, sim_ctx)


def test_upload_on_local_runtime(registry, local_ctx):
    local_ctx.runtime.write_file("out/result.txt", "measured")
    payload = json.loads(impl(registry, "upload", "linux-shell").run(
        {"paths": ["out/result.txt"]}, local_ctx))
    assert payload["count"] == 1


@pytest.mark.parametrize("task_type, params, message", [
    ("shell", {}, "missing required param 'command'"),
    ("sleep", {}, "missing required param 'seconds'"),
    ("sleep", {"seconds": "soon"}, "param 'seconds' must be a number"),
    ("sleep", {"seconds": [1]}, "param 'seconds' must be a number"),
])
def test_bad_params_fail_the_task(registry, sim_ctx, task_type, params,
                                  message):
    with pytest.raises(TaskError, match=message):
        impl(registry, task_type, "simulated").run(params, sim_ctx)


def test_sim_port_check_is_synthetic(registry, sim_ctx, sim_node):
    out = json.loads(impl(registry, "port-check", "simulated").run(
        {"host": "10.0.0.1", "port": 443}, sim_ctx))
    assert out == {"host": "10.0.0.1", "port": 443, "open": True,
                   "synthetic": True}
    assert sim_node.events[-1].name == "port-check-intent"


def test_upload_takes_one_path_as_a_string(registry, sim_ctx):
    sim_ctx.runtime.write_file("one.txt", "1")
    out = json.loads(impl(registry, "upload", "simulated").run(
        {"paths": "one.txt"}, sim_ctx))
    assert [u["path"] for u in out["uploaded"]] == ["one.txt"]
