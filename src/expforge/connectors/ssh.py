"""SSH fan-out connector: configured hosts as ssh-host nodes.

Host lists and credentials come from connector configuration, never from
experiments. All node interaction happens through a runner callable
``(host, command) -> (exit_code, output)`` so the remote-session plumbing can
be swapped out in tests; the default runner shells out to the ``ssh`` binary
in batch mode over an established key-authenticated channel, and kills a
command that runs past ``COMMAND_TIMEOUT_S``.
"""

from __future__ import annotations

import base64
import logging
import shlex
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, Sequence

from ..compiler import CLEAN_SCRATCH_COMMAND
from ..errors import LaunchFailed, NodeUnreachable
from ..model import DocCodec, NodeDescriptor, NodePool, StagedFile
from . import TIMED_OUT, Connector, ExecutorConfig, LaunchHandle, run_bounded

log = logging.getLogger("expforge.ssh")

Runner = Callable[["SshHost", str], tuple[int, str]]

# ssh's own exit code when it could not reach or log in to the host; the
# launch command itself exits with ``echo``'s status at once, so a launch
# that timed out never got an answer either.
SSH_CONNECTION_FAILED = 255


@dataclass(frozen=True)
class SshHost(DocCodec):
    host: str
    port: int = 22
    node_id: str = ""
    attributes: Mapping[str, str] = field(default_factory=dict)

    @classmethod
    def from_doc(cls, doc: Mapping[str, Any] | str) -> "SshHost":
        """Also takes a bare host name."""
        return cls(host=doc) if isinstance(doc, str) else super().from_doc(doc)


class SshConnector(Connector):
    def __init__(self, name: str = "ssh", hosts: Sequence[SshHost] = (), *,
                 user: str | None = None, key_path: str | None = None,
                 workdir: str = "~/.expforge", connect_timeout_s: int = 10,
                 python: str = "python3", runner: Runner | None = None):
        self.name = name
        self.user = user
        self.key_path = key_path
        self.workdir = workdir
        self.connect_timeout_s = connect_timeout_s
        self.python = python
        self._runner = runner or self._ssh_runner
        self._hosts: dict[str, SshHost] = {}
        for host in hosts:
            node_id = host.node_id or f"{name}-{host.host}"
            if node_id in self._hosts:
                raise ValueError(f"duplicate ssh node id {node_id!r}")
            self._hosts[node_id] = host

    # -- transport -----------------------------------------------------------

    def _ssh_runner(self, host: SshHost, command: str) -> tuple[int, str]:
        argv = ["ssh", "-o", "BatchMode=yes",
                "-o", f"ConnectTimeout={self.connect_timeout_s}"]
        if self.key_path:
            argv += ["-i", self.key_path]
        if host.port != 22:
            argv += ["-p", str(host.port)]
        target = f"{self.user}@{host.host}" if self.user else host.host
        argv += [target, "--", command]
        return run_bounded(argv)

    def _host(self, node: NodeDescriptor) -> SshHost:
        try:
            return self._hosts[node.node_id]
        except KeyError:
            raise LaunchFailed(
                f"node {node.node_id!r} is not part of {self.name!r}") from None

    def _remote(self, command: str) -> str:
        return f"mkdir -p {self.workdir} && cd {self.workdir} && ({command})"

    # -- connector interface ---------------------------------------------------

    def list_nodes(self) -> NodePool:
        return NodePool(tuple(
            NodeDescriptor(node_id=node_id, kind="ssh-host",
                           attributes=dict(host.attributes),
                           connector_ref=self.name)
            for node_id, host in self._hosts.items()))

    def run(self, node: NodeDescriptor, command: str) -> tuple[int, str]:
        if command == CLEAN_SCRATCH_COMMAND:
            command = "rm -rf ./* ./.spool 2>/dev/null; true"
        return self._runner(self._host(node), self._remote(command))

    def stage(self, node: NodeDescriptor,
              staged: StagedFile) -> tuple[int, str]:
        encoded = base64.b64encode(staged.content.encode("utf-8")).decode("ascii")
        path = shlex.quote(staged.path)
        return self.run(node, f"mkdir -p $(dirname {path}) 2>/dev/null; "
                              f"printf '%s' {encoded} | base64 -d > {path}")

    def launch_executor(self, node: NodeDescriptor,
                        config: ExecutorConfig) -> LaunchHandle:
        env_assignments = " ".join(
            f"{key}={shlex.quote(value)}"
            for key, value in config.to_env(".").items())
        launch = (f"{env_assignments} nohup {self.python} -m expforge.executor "
                  f">/dev/null 2>&1 & echo $!")
        code, output = self.run(node, launch)
        if code in (SSH_CONNECTION_FAILED, TIMED_OUT):
            raise NodeUnreachable(f"{node.node_id} did not answer: {output}")
        if code != 0:
            raise LaunchFailed(
                f"executor launch on {node.node_id} failed: {output}")
        pid = output.strip().splitlines()[-1] if output.strip() else ""
        return LaunchHandle(node_id=node.node_id,
                            experiment_id=config.experiment_id, process=pid)

    def stop_executor(self, handle: LaunchHandle) -> None:
        host = self._hosts.get(handle.node_id)
        if host is None or not handle.process:
            return
        self._runner(host, f"kill {handle.process} 2>/dev/null || true")
