"""Local-process connector: the host machine as a single linux-shell node.

Setup/verify commands run in a per-node scratch directory; executors are
child processes (``python -m expforge.executor``) configured through
environment variables and reporting to the gateway over HTTP. A child's
stderr goes to ``.logs/<experiment>.stderr`` in the node's scratch directory.
"""

from __future__ import annotations

import logging
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Sequence

from ..compiler import CLEAN_SCRATCH_COMMAND, EnvironmentSpec
from ..errors import LaunchFailed
from ..model import NodeDescriptor, NodePool
from ..store import path_component
from . import (
    CommandResult,
    Connector,
    ExecutorConfig,
    HEALTH_REACHABLE,
    LaunchHandle,
    PrepareResult,
    run_bounded,
)

log = logging.getLogger("expforge.local")

# Directory that holds the running expforge package. The child starts in the
# node's scratch directory, where a relative PYTHONPATH entry of the parent
# (e.g. ``PYTHONPATH=src``) no longer resolves, so this absolute path goes
# first on the child's PYTHONPATH.
PACKAGE_ROOT = str(Path(__file__).resolve().parents[2])


class LocalConnector(Connector):
    def __init__(self, name: str = "local", workdir: str | Path | None = None,
                 attributes: dict[str, str] | None = None):
        self.name = name
        self.workdir = Path(workdir) if workdir else Path(
            tempfile.mkdtemp(prefix=f"expforge-{name}-"))
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.attributes = dict(attributes or {})
        self._node_id = f"{name}-host"

    def list_nodes(self) -> NodePool:
        return NodePool((NodeDescriptor(
            node_id=self._node_id, kind="linux-shell",
            attributes=dict(self.attributes), connector_ref=self.name),))

    def scratch_dir(self, node_id: str) -> Path:
        path = self.workdir / node_id
        path.mkdir(parents=True, exist_ok=True)
        return path

    def health(self, node: NodeDescriptor) -> str:
        return HEALTH_REACHABLE

    def _run(self, node_id: str, command: str) -> CommandResult:
        code, output = run_bounded(command, shell=True,
                                   cwd=str(self.scratch_dir(node_id)))
        return CommandResult(command, code, output)

    def prepare(self, node: NodeDescriptor, env: EnvironmentSpec) -> PrepareResult:
        scratch = self.scratch_dir(node.node_id)
        for command in env.setup_commands:
            result = self._run(node.node_id, command)
            if result.exit_code != 0:
                return PrepareResult(False, command, result.output)
        for staged in env.staged_files:
            target = scratch / staged.path
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_text(staged.content, encoding="utf-8")
        for command in env.verify_commands:
            result = self._run(node.node_id, command)
            if result.exit_code != 0:
                return PrepareResult(False, command, result.output)
        return PrepareResult(True)

    def run_commands(self, node: NodeDescriptor,
                     commands: Sequence[str]) -> list[CommandResult]:
        results = []
        for command in commands:
            if command == CLEAN_SCRATCH_COMMAND:
                self._wipe_scratch(node.node_id)
                results.append(CommandResult(command, 0))
                continue
            results.append(self._run(node.node_id, command))
        return results

    def _wipe_scratch(self, node_id: str) -> None:
        scratch = self.scratch_dir(node_id)
        for entry in scratch.iterdir():
            if entry.is_dir():
                shutil.rmtree(entry, ignore_errors=True)
            else:
                entry.unlink(missing_ok=True)

    def launch_executor(self, node: NodeDescriptor,
                        config: ExecutorConfig) -> LaunchHandle:
        if not config.gateway_url:
            raise LaunchFailed(
                "local connector needs a gateway HTTP endpoint to hand to "
                "the child executor")
        scratch = self.scratch_dir(node.node_id)
        env = dict(os.environ)
        env.update({
            "PYTHONPATH": os.pathsep.join(
                filter(None, (PACKAGE_ROOT, env.get("PYTHONPATH")))),
            "EXPFORGE_GATEWAY": config.gateway_url,
            "EXPFORGE_EXPERIMENT_ID": config.experiment_id,
            "EXPFORGE_NODE_ID": config.node_id,
            "EXPFORGE_SCRATCH": str(scratch),
            "EXPFORGE_SPOOL": str(scratch / ".spool"),
        })
        log_name = f"{path_component(config.experiment_id)}.stderr"
        (scratch / ".logs").mkdir(exist_ok=True)
        try:
            with open(scratch / ".logs" / log_name, "wb") as stderr:
                proc = subprocess.Popen(
                    [sys.executable, "-m", "expforge.executor"],
                    cwd=str(scratch), env=env,
                    stdout=subprocess.DEVNULL, stderr=stderr)
        except OSError as exc:
            raise LaunchFailed(f"could not spawn executor: {exc}") from exc
        return LaunchHandle(node_id=node.node_id,
                            experiment_id=config.experiment_id, process=proc)

    def stop_executor(self, handle: LaunchHandle) -> None:
        proc = handle.process
        if proc is None or proc.poll() is not None:
            return
        proc.terminate()
        try:
            proc.wait(timeout=5)
        except subprocess.TimeoutExpired:
            proc.kill()
