"""Connector interface: one uniform surface over every deployment backend.

A connector owns a namespace of nodes and supplies primitives over them:
``list_nodes``, ``run`` (one command in a node's scratch directory),
``stage`` (write one staged file there), ``launch_executor`` and
``stop_executor``. The algorithms over those primitives, ``prepare`` and
``run_commands``, live once in :class:`Connector`. The launch is the only
reachability check: a node that cannot be reached raises from
``launch_executor``. Connectors are stateless between calls apart from
launch handles, and must be safely shareable across threads; the director
serializes per-node calls, calls for distinct nodes may run concurrently.

Connector instances are configuration-driven: a structured config file names
each instance, its type, and its parameters (see :func:`load_connectors`).
"""

from __future__ import annotations

import subprocess
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Mapping, Sequence, TYPE_CHECKING

import yaml

from ..compiler import CLEAN_SCRATCH_COMMAND, EnvironmentSpec
from ..errors import ConnectorUnavailable
from ..model import NodeDescriptor, NodePool, StagedFile

if TYPE_CHECKING:  # pragma: no cover
    from ..registry import TaskRegistry

# The longest any one node command (setup, verify, cleanup, ssh) may run.
COMMAND_TIMEOUT_S = 120.0
# The exit code ``run_bounded`` answers for a command it had to kill.
TIMED_OUT = -1


def run_bounded(args: str | Sequence[str], **kwargs) -> tuple[int, str]:
    """(exit code, output) of a command; one that runs past
    ``COMMAND_TIMEOUT_S`` is killed and answers ``TIMED_OUT``."""
    try:
        proc = subprocess.run(args, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True,
                              timeout=COMMAND_TIMEOUT_S, **kwargs)
    except subprocess.TimeoutExpired:
        return TIMED_OUT, f"timed out after {COMMAND_TIMEOUT_S:g} s"
    return proc.returncode, proc.stdout or ""


@dataclass(frozen=True)
class PrepareResult:
    """Outcome of environment preparation on one node.

    ``prepared`` is True only when every setup and verify command exited 0;
    otherwise the first failing command and its output are carried along.
    """

    prepared: bool
    failed_command: str | None = None
    output: str | None = None


@dataclass(frozen=True)
class CommandResult:
    command: str
    exit_code: int
    output: str = ""


@dataclass
class ExecutorConfig:
    """What a connector needs to start an executor for one node."""

    experiment_id: str
    node_id: str
    gateway_url: str | None = None
    gateway_client: Any = None
    registry: "TaskRegistry | None" = None


@dataclass
class LaunchHandle:
    """Opaque executor handle; ``stop`` is best-effort."""

    node_id: str
    experiment_id: str
    stop_event: threading.Event | None = None
    process: Any = None
    thread: threading.Thread | None = None


class Connector:
    """Abstract deployment-system adapter: a backend writes the primitives,
    this class owns prepare and cleanup."""

    name: str

    def list_nodes(self) -> NodePool:
        raise NotImplementedError

    def run(self, node: NodeDescriptor, command: str) -> tuple[int, str]:
        """(exit code, output) of one command in the node's scratch
        directory; ``CLEAN_SCRATCH_COMMAND`` empties that directory."""
        raise NotImplementedError

    def stage(self, node: NodeDescriptor,
              staged: StagedFile) -> tuple[int, str]:
        """(exit code, output) of writing one file into the node's scratch
        directory."""
        raise NotImplementedError

    def prepare(self, node: NodeDescriptor, env: EnvironmentSpec) -> PrepareResult:
        """Setup commands, then staged files, then verify commands; the
        first step that fails ends preparation and is named."""
        steps = ([(command, self.run, command)
                  for command in env.setup_commands]
                 + [(f"stage-file {staged.path}", self.stage, staged)
                    for staged in env.staged_files]
                 + [(command, self.run, command)
                    for command in env.verify_commands])
        for name, step, arg in steps:
            code, output = step(node, arg)
            if code != 0:
                return PrepareResult(False, name, output)
        return PrepareResult(True)

    def run_commands(self, node: NodeDescriptor,
                     commands: Sequence[str]) -> list[CommandResult]:
        """Run cleanup-style commands on the node; never raises per-command."""
        return [CommandResult(command, *self.run(node, command))
                for command in commands]

    def launch_executor(self, node: NodeDescriptor,
                        config: ExecutorConfig) -> LaunchHandle:
        """Start the node's executor; raises NodeUnreachable or
        LaunchFailed."""
        raise NotImplementedError

    def stop_executor(self, handle: LaunchHandle) -> None:
        raise NotImplementedError


def load_connectors(source: str | Path | Mapping[str, Any]) -> dict[str, Connector]:
    """Build named connector instances from a config document or file.

    The document shape::

        connectors:
          - name: sim
            type: simulated
            params: {nodes: 20, seed: 7, attributes: {location: campus}}
          - name: local
            type: local
            params: {workdir: /tmp/expforge-nodes}
          - name: lab
            type: ssh
            params: {user: probe, key_path: ~/.ssh/id_ed25519,
                     hosts: [{host: probe1.example.net}]}
    """
    from .local import LocalConnector
    from .simulated import FaultModel, SimulatedConnector
    from .ssh import SshConnector, SshHost

    if isinstance(source, (str, Path)):
        doc = yaml.safe_load(Path(source).read_text(encoding="utf-8"))
    else:
        doc = dict(source)
    entries = doc.get("connectors")
    if not isinstance(entries, list) or not entries:
        raise ConnectorUnavailable("config declares no connectors")

    connectors: dict[str, Connector] = {}
    for entry in entries:
        name = entry.get("name")
        kind = entry.get("type")
        params = dict(entry.get("params", {}))
        if not name or name in connectors:
            raise ConnectorUnavailable(f"bad or duplicate connector name {name!r}")
        if kind == "simulated":
            fault = FaultModel.from_doc(params.pop("fault", {}))
            connectors[name] = SimulatedConnector(
                name=name,
                node_count=int(params.pop("nodes", 1)),
                attributes=params.pop("attributes", {}),
                per_node_attributes=params.pop("per_node_attributes", None),
                seed=int(params.pop("seed", 0)),
                fault=fault,
            )
        elif kind == "local":
            connectors[name] = LocalConnector(
                name=name,
                workdir=params.pop("workdir", None),
                attributes=params.pop("attributes", {}),
            )
        elif kind == "ssh":
            hosts = [SshHost.from_doc(h) for h in params.pop("hosts", [])]
            connectors[name] = SshConnector(
                name=name,
                hosts=hosts,
                user=params.pop("user", None),
                key_path=params.pop("key_path", None),
                workdir=params.pop("workdir", "~/.expforge"),
            )
        else:
            raise ConnectorUnavailable(f"unknown connector type {kind!r}")
    return connectors


__all__ = [
    "CLEAN_SCRATCH_COMMAND",
    "CommandResult",
    "Connector",
    "ExecutorConfig",
    "LaunchHandle",
    "PrepareResult",
    "load_connectors",
]
