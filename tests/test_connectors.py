"""Connectors: inventory, prepare semantics, fault injection, determinism."""

from __future__ import annotations

import gc
import os
import signal
import socket
import subprocess
import sys
import tempfile
import time

import pytest

from conftest import FakeGatewayClient, make_bundle
from expforge import Director, MemoryStore
import expforge.connectors as connectors_module
import expforge.connectors.local as local_module
import expforge.connectors.ssh as ssh_module
from expforge.compiler import CLEAN_SCRATCH_COMMAND, EnvironmentSpec
from expforge.connectors import ExecutorConfig, LaunchHandle, load_connectors
from expforge.connectors.local import LocalConnector
from expforge.connectors.simulated import (
    FaultModel,
    SimulatedConnector,
    SimulatedInfrastructure,
)
from expforge.connectors.ssh import SshConnector, SshHost
from expforge.errors import ConnectorUnavailable, LaunchFailed, NodeUnreachable
from expforge.executor import EXIT_STARTUP_ERROR
from expforge.model import NodeDescriptor, Pipeline, StagedFile, TaskSpec
from expforge.store import path_component
from expforge.tasks import builtin_registry


def env_spec(setup=(), staged=(), verify=(), kind="simulated") -> EnvironmentSpec:
    return EnvironmentSpec(pipeline_digest="d" * 64, node_kind=kind,
                           setup_commands=tuple(setup),
                           staged_files=tuple(staged),
                           verify_commands=tuple(verify))


# ---------------------------------------------------------------------------
# inventories
# ---------------------------------------------------------------------------

class TestListNodes:
    def test_simulated_twenty_campus_nodes(self):
        connector = SimulatedConnector("sim", node_count=20,
                                       attributes={"location": "campus"})
        pool = connector.list_nodes()
        assert len(pool) == 20
        assert all(n.kind == "simulated" for n in pool)
        assert all(n.attributes["location"] == "campus" for n in pool)
        assert all(n.connector_ref == "sim" for n in pool)

    def test_local_single_host(self, tmp_path):
        connector = LocalConnector("local", workdir=tmp_path)
        pool = connector.list_nodes()
        assert len(pool) == 1
        assert pool.nodes[0].kind == "linux-shell"

    def test_ssh_three_configured_hosts(self):
        connector = SshConnector("lab", hosts=[
            SshHost("probe1.example.net", attributes={"location": "campus"}),
            SshHost("probe2.example.net"),
            SshHost("10.0.0.9", node_id="rack-a"),
        ])
        pool = connector.list_nodes()
        assert len(pool) == 3
        assert all(n.kind == "ssh-host" for n in pool)
        assert {n.node_id for n in pool} == \
            {"lab-probe1.example.net", "lab-probe2.example.net", "rack-a"}


# ---------------------------------------------------------------------------
# prepare
# ---------------------------------------------------------------------------

class TestPrepare:
    def test_empty_spec_vacuously_prepared_sim(self):
        connector = SimulatedConnector("sim", node_count=1)
        node = connector.list_nodes().nodes[0]
        assert connector.prepare(node, env_spec()).prepared

    def test_empty_spec_vacuously_prepared_local(self, tmp_path):
        connector = LocalConnector("local", workdir=tmp_path)
        node = connector.list_nodes().nodes[0]
        assert connector.prepare(node, env_spec(kind="linux-shell")).prepared

    def test_failing_verify_names_command_local(self, tmp_path):
        connector = LocalConnector("local", workdir=tmp_path)
        node = connector.list_nodes().nodes[0]
        result = connector.prepare(node, env_spec(
            setup=("true",), verify=("false",), kind="linux-shell"))
        assert not result.prepared
        assert result.failed_command == "false"

    def test_failing_verify_names_command_sim(self):
        connector = SimulatedConnector("sim", node_count=1)
        node = connector.list_nodes().nodes[0]
        result = connector.prepare(node, env_spec(setup=("true",),
                                                  verify=("false",)))
        assert not result.prepared
        assert result.failed_command == "false"

    def test_prepare_fail_prob_one_always_fails(self):
        connector = SimulatedConnector(
            "sim", node_count=1, fault=FaultModel(prepare_fail_prob=1.0))
        node = connector.list_nodes().nodes[0]
        result = connector.prepare(node, env_spec())
        assert not result.prepared
        assert "injected" in result.output

    def test_staged_files_written_before_verify(self, tmp_path):
        connector = LocalConnector("local", workdir=tmp_path)
        node = connector.list_nodes().nodes[0]
        result = connector.prepare(node, env_spec(
            staged=(StagedFile("conf/app.cfg", "retries=3"),),
            verify=("grep -q retries conf/app.cfg",), kind="linux-shell"))
        assert result.prepared
        assert (connector.scratch_dir(node.node_id)
                / "conf/app.cfg").read_text() == "retries=3"

    def test_sim_staged_files_in_virtual_fs(self):
        connector = SimulatedConnector("sim", node_count=1)
        node = connector.list_nodes().nodes[0]
        connector.prepare(node, env_spec(
            staged=(StagedFile("cfg", "x"),),
            verify=("true",)))
        assert connector.infra.node(node.node_id).read("cfg") == b"x"


# ---------------------------------------------------------------------------
# simulated determinism
# ---------------------------------------------------------------------------

def run_workload(seed: int) -> list[tuple]:
    registry = builtin_registry()
    connector = SimulatedConnector(
        "sim", node_count=3, seed=seed,
        fault=FaultModel(prepare_fail_prob=0.3, report_drop_prob=0.4,
                         sleep_scale=0.01))
    pipeline = (Pipeline("w")
                .then([TaskSpec("sleep", params={"seconds": 1}),
                       TaskSpec("shell", params={"command": "echo hi"})])
                .then(TaskSpec("shell", params={"command": "collect-data"})))
    nodes = list(connector.list_nodes())
    gateway = FakeGatewayClient(bundles={
        node.node_id: make_bundle(pipeline, registry, node_id=node.node_id)
        for node in nodes})
    handles = []
    for node in nodes:
        connector.prepare(node, env_spec(setup=("true",), verify=("true",)))
        config = ExecutorConfig(
            experiment_id="exp", node_id=node.node_id,
            gateway_client=gateway, registry=registry)
        handles.append(connector.launch_executor(node, config))
    for handle in handles:
        handle.thread.join(timeout=20)
    return connector.infra.event_trace()


class TestSimDeterminism:
    def test_equal_seeds_equal_traces(self):
        assert run_workload(42) == run_workload(42)

    def test_different_seeds_differ(self):
        # with these fault probabilities, traces should diverge
        assert run_workload(1) != run_workload(9)

    def test_fault_draws_independent_of_node_order(self):
        fault = FaultModel(prepare_fail_prob=0.5)
        draws = {}
        for order in (False, True):
            connector = SimulatedConnector("sim", node_count=6, seed=11,
                                           fault=fault)
            nodes = list(connector.list_nodes())
            if order:
                nodes.reverse()
            for node in nodes:
                draws.setdefault(order, {})[node.node_id] = \
                    connector.prepare(node, env_spec()).prepared
        assert draws[False] == draws[True]


# ---------------------------------------------------------------------------
# cleanup command handling
# ---------------------------------------------------------------------------

def test_sim_clean_scratch_token(tmp_path):
    connector = SimulatedConnector("sim", node_count=1)
    node = connector.list_nodes().nodes[0]
    sim_node = connector.infra.node(node.node_id)
    sim_node.write("junk.txt", "x")
    results = connector.run_commands(node, [CLEAN_SCRATCH_COMMAND])
    assert results[0].exit_code == 0
    assert sim_node.files() == []


def test_local_clean_scratch_token(tmp_path):
    connector = LocalConnector("local", workdir=tmp_path)
    node = connector.list_nodes().nodes[0]
    scratch = connector.scratch_dir(node.node_id)
    (scratch / "junk.txt").write_text("x")
    (scratch / "sub").mkdir()
    connector.run_commands(node, [CLEAN_SCRATCH_COMMAND])
    assert list(scratch.iterdir()) == []


# ---------------------------------------------------------------------------
# ssh connector against a scripted runner
# ---------------------------------------------------------------------------

class ScriptedRunner:
    def __init__(self, fail_on: str | None = None,
                 unreachable: set[str] | None = None):
        self.calls: list[tuple[str, str]] = []
        self.fail_on = fail_on
        self.unreachable = unreachable or set()

    def __call__(self, host: SshHost, command: str) -> tuple[int, str]:
        self.calls.append((host.host, command))
        if host.host in self.unreachable:
            return 255, "ssh: connect to host: Connection refused"
        if self.fail_on and self.fail_on in command:
            return 1, f"failed: {self.fail_on}"
        if "echo $!" in command or command.endswith("echo $!"):
            return 0, "4242\n"
        return 0, ""


class TestSshConnector:
    def test_prepare_runs_setup_then_verify(self):
        runner = ScriptedRunner()
        connector = SshConnector("lab", hosts=[SshHost("h1")], runner=runner)
        node = connector.list_nodes().nodes[0]
        result = connector.prepare(node, env_spec(
            setup=("apt-get install -y tcpdump",),
            staged=(StagedFile("probe.cfg", "interval=5"),),
            verify=("command -v tcpdump",), kind="ssh-host"))
        assert result.prepared
        commands = [c for _, c in runner.calls]
        assert "apt-get install -y tcpdump" in commands[0]
        assert "base64 -d" in commands[1]
        assert "command -v tcpdump" in commands[2]

    def test_prepare_failure_names_command(self):
        runner = ScriptedRunner(fail_on="command -v tcpdump")
        connector = SshConnector("lab", hosts=[SshHost("h1")], runner=runner)
        node = connector.list_nodes().nodes[0]
        result = connector.prepare(node, env_spec(
            verify=("command -v tcpdump",), kind="ssh-host"))
        assert not result.prepared
        assert result.failed_command == "command -v tcpdump"

    def test_unreachable_node_launch(self):
        runner = ScriptedRunner(unreachable={"h1"})
        connector = SshConnector("lab", hosts=[SshHost("h1")], runner=runner)
        node = connector.list_nodes().nodes[0]
        with pytest.raises(NodeUnreachable):
            connector.launch_executor(node, ExecutorConfig(
                experiment_id="exp", node_id=node.node_id,
                gateway_url="http://director:8714"))

    def test_failing_stage_names_file(self):
        runner = ScriptedRunner(fail_on="base64 -d")
        connector = SshConnector("lab", hosts=[SshHost("h1")], runner=runner)
        node = connector.list_nodes().nodes[0]
        result = connector.prepare(node, env_spec(
            setup=("true",), staged=(StagedFile("conf/probe.cfg", "x"),),
            verify=("command -v tcpdump",), kind="ssh-host"))
        assert not result.prepared
        assert result.failed_command == "stage-file conf/probe.cfg"
        assert len(runner.calls) == 2  # verify never ran

    def test_health(self):
        """Reachability is answered by the launch: a node that answers runs
        the executor, one whose ssh exits 255 raises ``NodeUnreachable``
        naming the node."""
        runner = ScriptedRunner(unreachable={"down"})
        connector = SshConnector("lab", hosts=[SshHost("h1"),
                                               SshHost("down")],
                                 runner=runner)
        nodes = {n.node_id: n for n in connector.list_nodes()}

        def config(node_id):
            return ExecutorConfig(experiment_id="exp", node_id=node_id,
                                  gateway_url="http://director:8714")

        handle = connector.launch_executor(nodes["lab-h1"], config("lab-h1"))
        assert handle.process == "4242"
        with pytest.raises(NodeUnreachable, match="lab-down did not answer"):
            connector.launch_executor(nodes["lab-down"], config("lab-down"))

    def test_launch_is_the_only_reachability_check(self):
        runner = ScriptedRunner(unreachable={"down"})
        connector = SshConnector("lab", hosts=[SshHost("h1"),
                                               SshHost("down")],
                                 runner=runner)
        up, down = connector.list_nodes().nodes

        def config(node):
            return ExecutorConfig(experiment_id="exp", node_id=node.node_id,
                                  gateway_url="http://director:8714")

        assert connector.launch_executor(up, config(up)).process == "4242"
        assert len(runner.calls) == 1
        with pytest.raises(NodeUnreachable, match="Connection refused"):
            connector.launch_executor(down, config(down))
        assert len(runner.calls) == 2

    def test_launch_passes_config_env(self):
        runner = ScriptedRunner()
        connector = SshConnector("lab", hosts=[SshHost("h1")], runner=runner)
        node = connector.list_nodes().nodes[0]
        handle = connector.launch_executor(node, ExecutorConfig(
            experiment_id="exp-9", node_id=node.node_id,
            gateway_url="http://director:8714"))
        launch_command = runner.calls[-1][1]
        assert "EXPFORGE_GATEWAY=http://director:8714" in launch_command
        assert "EXPFORGE_EXPERIMENT_ID=exp-9" in launch_command
        assert "expforge.executor" in launch_command
        assert handle.process == "4242"
        connector.stop_executor(handle)
        assert "kill 4242" in runner.calls[-1][1]

    @pytest.fixture
    def hung_ssh(self, tmp_path, monkeypatch):
        """An ``ssh`` first on PATH that never answers; commands get 0.5 s."""
        script = tmp_path / "bin" / "ssh"
        script.parent.mkdir()
        script.write_text("#!/bin/sh\nexec sleep 30\n")
        script.chmod(0o755)
        monkeypatch.setenv("PATH", f"{script.parent}:{os.environ['PATH']}")
        monkeypatch.setattr(connectors_module, "COMMAND_TIMEOUT_S", 0.5)
        connector = SshConnector("lab", hosts=[SshHost("h1")])
        return connector, connector.list_nodes().nodes[0]

    def test_hung_launch_answers_unreachable(self, hung_ssh):
        connector, node = hung_ssh
        started = time.monotonic()
        with pytest.raises(NodeUnreachable, match="timed out"):
            connector.launch_executor(node, ExecutorConfig(
                experiment_id="exp", node_id=node.node_id,
                gateway_url="http://director:8714"))
        assert time.monotonic() - started < 5

    def test_hung_setup_command_fails_prepare(self, hung_ssh):
        connector, node = hung_ssh
        started = time.monotonic()
        result = connector.prepare(node, env_spec(
            setup=("apt-get install -y tcpdump",), kind="ssh-host"))
        assert time.monotonic() - started < 5
        assert not result.prepared
        assert result.failed_command == "apt-get install -y tcpdump"
        assert "timed out" in result.output


# ---------------------------------------------------------------------------
# executor launch preconditions
# ---------------------------------------------------------------------------

def test_local_launch_requires_gateway_url(tmp_path):
    connector = LocalConnector("local", workdir=tmp_path)
    node = connector.list_nodes().nodes[0]
    with pytest.raises(LaunchFailed):
        connector.launch_executor(node, ExecutorConfig(
            experiment_id="exp", node_id=node.node_id))


def test_local_child_imports_expforge_under_relative_pythonpath(
        tmp_path, monkeypatch):
    # Exit 2 means the child imported expforge and then could not fetch its
    # bundle from the closed port; exit 1 would mean the import failed.
    monkeypatch.setenv("PYTHONPATH", "src")
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
    connector = LocalConnector("local", workdir=tmp_path)
    node = connector.list_nodes().nodes[0]
    handle = connector.launch_executor(node, ExecutorConfig(
        experiment_id="exp", node_id=node.node_id,
        gateway_url=f"http://127.0.0.1:{port}"))
    try:
        assert handle.process.wait(timeout=30) == EXIT_STARTUP_ERROR
    finally:
        connector.stop_executor(handle)


def test_local_child_stderr_is_kept(tmp_path):
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
    connector = LocalConnector("local", workdir=tmp_path)
    node = connector.list_nodes().nodes[0]
    handle = connector.launch_executor(node, ExecutorConfig(
        experiment_id="exp/1", node_id=node.node_id,
        gateway_url=f"http://127.0.0.1:{port}"))
    try:
        assert handle.process.wait(timeout=30) == EXIT_STARTUP_ERROR
    finally:
        connector.stop_executor(handle)
    log = (connector.scratch_dir(node.node_id) / ".logs"
           / f"{path_component('exp/1')}.stderr")
    assert "could not obtain bundle" in log.read_text()


def test_sim_launch_requires_client_and_registry():
    connector = SimulatedConnector("sim", node_count=1)
    node = connector.list_nodes().nodes[0]
    with pytest.raises(LaunchFailed):
        connector.launch_executor(node, ExecutorConfig(
            experiment_id="exp", node_id=node.node_id))
    with pytest.raises(LaunchFailed, match="registry"):
        connector.launch_executor(node, ExecutorConfig(
            experiment_id="exp", node_id=node.node_id,
            gateway_client=FakeGatewayClient()))


# ---------------------------------------------------------------------------
# configuration loading
# ---------------------------------------------------------------------------

CONFIG_YAML = """
connectors:
  - name: sim
    type: simulated
    params:
      nodes: 4
      seed: 7
      attributes: {location: campus}
      fault: {prepare_fail_prob: 0.5, sleep_scale: 0.01}
  - name: workstation
    type: local
    params: {}
  - name: lab
    type: ssh
    params:
      user: probe
      hosts:
        - {host: probe1.example.net}
        - {host: probe2.example.net, port: 2222}
"""


def test_load_connectors_from_file(tmp_path):
    config = tmp_path / "connectors.yaml"
    config.write_text(CONFIG_YAML, encoding="utf-8")
    connectors = load_connectors(config)
    assert set(connectors) == {"sim", "workstation", "lab"}
    assert len(connectors["sim"].list_nodes()) == 4
    assert connectors["sim"].fault.prepare_fail_prob == 0.5
    assert len(connectors["lab"].list_nodes()) == 2
    assert connectors["lab"].user == "probe"


def test_load_connectors_rejects_unknown_type():
    with pytest.raises(ConnectorUnavailable):
        load_connectors({"connectors": [{"name": "x", "type": "warp"}]})


def test_load_connectors_rejects_duplicate_names():
    doc = {"connectors": [
        {"name": "a", "type": "local", "params": {}},
        {"name": "a", "type": "local", "params": {}}]}
    with pytest.raises(ConnectorUnavailable):
        load_connectors(doc)


def test_infrastructure_seeded_attribute_layout():
    infra = SimulatedInfrastructure(
        5, per_node_attributes=[{"g": "a"}, {"g": "b"}], seed=1)
    groups = [infra.node(f"sim-{i:03d}").attributes["g"] for i in range(5)]
    assert groups == ["a", "b", "a", "b", "a"]


@pytest.mark.parametrize("make", [
    lambda name: SimulatedConnector(name, node_count=2),
    LocalConnector,
    lambda name: Director(MemoryStore(), builtin_registry(), {}),
], ids=["simulated", "local", "director-without-artifact-root"])
def test_dropped_simulated_connectors_leave_no_spool_dir(tmp_path,
                                                         monkeypatch, make):
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    connectors = [make(f"leak{i}") for i in range(3)]
    assert len(list(tmp_path.iterdir())) == 3
    del connectors
    gc.collect()
    assert list(tmp_path.iterdir()) == []


def test_sim_node_outside_the_connector_is_refused():
    connector = SimulatedConnector("sim", node_count=1)
    ghost = NodeDescriptor("ghost", "simulated", connector_ref="sim")
    with pytest.raises(LaunchFailed, match="not part of 'sim'"):
        connector.prepare(ghost, env_spec())


def test_sim_executor_crash_is_logged_not_raised(caplog):
    """A simulated executor that cannot start is a dead node: its thread
    logs the crash and ends, and nothing escapes it."""
    connector = SimulatedConnector("sim", node_count=1)
    node = connector.list_nodes().nodes[0]
    handle = connector.launch_executor(node, ExecutorConfig(
        experiment_id="exp", node_id=node.node_id,
        gateway_client=FakeGatewayClient(), registry=builtin_registry()))
    handle.thread.join(timeout=10)
    assert not handle.thread.is_alive()
    assert "simulated executor for sim-000 crashed" in caplog.text


@pytest.mark.parametrize("command, expected", [
    ("true", (0, "")),
    ("false", (1, "")),
    ("exit", (0, "")),
    ("exit 7", (7, "")),
    ("exit seven", (1, "bad exit code 'seven'")),
    ("echo a  'b c'", (0, "a b c\n")),
    ("", (1, "empty command")),
    ("echo 'unbalanced", (1, "unparseable command: echo 'unbalanced")),
    ("stop-captures", (0, "")),
    ("install-anything --now", (0, "")),
])
def test_sim_shell_vocabulary(command, expected):
    connector = SimulatedConnector("sim", node_count=1)
    node = connector.list_nodes().nodes[0]
    assert connector.run(node, command) == expected
    event = connector.infra.node(node.node_id).events[-1]
    recorded = command == "install-anything --now"
    assert event.name == ("intent" if recorded else "command")


def test_load_connectors_rejects_an_empty_config():
    with pytest.raises(ConnectorUnavailable, match="no connectors"):
        load_connectors({"connectors": []})


def test_local_spawn_failure_is_a_launch_failure(tmp_path, monkeypatch):
    connector = LocalConnector("local", workdir=tmp_path)
    node = connector.list_nodes().nodes[0]
    monkeypatch.setattr(sys, "executable", str(tmp_path / "no-python"))
    with pytest.raises(LaunchFailed, match="could not spawn executor"):
        connector.launch_executor(node, ExecutorConfig(
            experiment_id="exp", node_id=node.node_id,
            gateway_url="http://127.0.0.1:9"))


def test_local_stop_executor_terminates_then_kills(tmp_path, monkeypatch):
    """SIGTERM first; a child that ignores it is killed after the grace.
    A handle whose child already exited, or that has none, is left alone."""
    connector = LocalConnector("local", workdir=tmp_path)
    monkeypatch.setattr(local_module, "STOP_GRACE_S", 0.2)

    def child(ignore_term: bool) -> subprocess.Popen:
        code = ("import signal, time\n"
                + ("signal.signal(signal.SIGTERM, signal.SIG_IGN)\n"
                   if ignore_term else "")
                + "print('ready', flush=True)\ntime.sleep(30)\n")
        proc = subprocess.Popen([sys.executable, "-c", code],
                                stdout=subprocess.PIPE, text=True)
        assert proc.stdout.readline() == "ready\n"
        return proc

    for ignore_term, returncode in ((False, -signal.SIGTERM),
                                    (True, -signal.SIGKILL)):
        proc = child(ignore_term)
        handle = LaunchHandle("local-host", "exp", process=proc)
        connector.stop_executor(handle)
        assert proc.wait(timeout=10) == returncode
        proc.stdout.close()
        connector.stop_executor(handle)  # already exited: a no-op
    connector.stop_executor(LaunchHandle("local-host", "exp"))


class TestSshPrimitives:
    def connector(self, runner, **kwargs) -> SshConnector:
        return SshConnector("lab", hosts=[SshHost("h1")], runner=runner,
                            **kwargs)

    def test_host_given_as_a_bare_name(self):
        connectors = load_connectors({"connectors": [
            {"name": "lab", "type": "ssh", "params": {"hosts": ["h1"]}}]})
        assert [n.node_id for n in connectors["lab"].list_nodes()] \
            == ["lab-h1"]

    def test_duplicate_node_id_is_refused(self):
        with pytest.raises(ValueError, match="duplicate ssh node id"):
            SshConnector("lab", hosts=[SshHost("h1"), SshHost("h1")])

    def test_ssh_argv_carries_key_and_port(self, monkeypatch):
        seen = []
        monkeypatch.setattr(ssh_module, "run_bounded",
                            lambda argv: seen.append(argv) or (0, ""))
        connector = SshConnector("lab", hosts=[SshHost("h1", port=2222)],
                                 user="probe", key_path="/keys/id")
        connector.run(connector.list_nodes().nodes[0], "true")
        argv = seen[0]
        assert argv[argv.index("-i") + 1] == "/keys/id"
        assert argv[argv.index("-p") + 1] == "2222"
        assert "probe@h1" in argv

    def test_unknown_node_is_refused(self):
        connector = self.connector(ScriptedRunner())
        with pytest.raises(LaunchFailed, match="not part of 'lab'"):
            connector.run(NodeDescriptor("lab-h9", "ssh-host"), "true")

    def test_clean_scratch_token_empties_the_workdir(self):
        runner = ScriptedRunner()
        connector = self.connector(runner)
        connector.run(connector.list_nodes().nodes[0], CLEAN_SCRATCH_COMMAND)
        assert "rm -rf ./* ./.spool" in runner.calls[0][1]

    def test_launch_needs_a_gateway_url(self):
        connector = self.connector(ScriptedRunner())
        node = connector.list_nodes().nodes[0]
        with pytest.raises(LaunchFailed, match="gateway HTTP endpoint"):
            connector.launch_executor(node, ExecutorConfig(
                experiment_id="exp", node_id=node.node_id))

    def test_launch_that_fails_on_the_host(self):
        connector = self.connector(ScriptedRunner(fail_on="nohup"))
        node = connector.list_nodes().nodes[0]
        with pytest.raises(LaunchFailed, match="executor launch on lab-h1"):
            connector.launch_executor(node, ExecutorConfig(
                experiment_id="exp", node_id=node.node_id,
                gateway_url="http://director:8714"))

    def test_stop_kills_the_pid_of_a_known_node_only(self):
        runner = ScriptedRunner()
        connector = self.connector(runner)
        connector.stop_executor(LaunchHandle("lab-h9", "exp", process="7"))
        connector.stop_executor(LaunchHandle("lab-h1", "exp", process=""))
        assert runner.calls == []
        connector.stop_executor(LaunchHandle("lab-h1", "exp", process="7"))
        assert runner.calls == [("h1", "kill 7 2>/dev/null || true")]
