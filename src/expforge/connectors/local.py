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
import weakref
from pathlib import Path

from ..compiler import CLEAN_SCRATCH_COMMAND
from ..errors import LaunchFailed
from ..model import NodeDescriptor, NodePool, StagedFile
from ..store import path_component
from . import Connector, ExecutorConfig, LaunchHandle, run_bounded

log = logging.getLogger("expforge.local")

# Directory that holds the running expforge package. The child starts in the
# node's scratch directory, where a relative PYTHONPATH entry of the parent
# (e.g. ``PYTHONPATH=src``) no longer resolves, so this absolute path goes
# first on the child's PYTHONPATH.
PACKAGE_ROOT = str(Path(__file__).resolve().parents[2])
# How long a stopped child may take to exit after SIGTERM before SIGKILL.
STOP_GRACE_S = 5.0


class LocalConnector(Connector):
    def __init__(self, name: str = "local", workdir: str | Path | None = None,
                 attributes: dict[str, str] | None = None):
        self.name = name
        if workdir:
            self.workdir = Path(workdir)
            self.workdir.mkdir(parents=True, exist_ok=True)
        else:  # made here, so removed with the connector
            self.workdir = Path(tempfile.mkdtemp(prefix=f"expforge-{name}-"))
            weakref.finalize(self, shutil.rmtree, self.workdir,
                             ignore_errors=True)
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

    def run(self, node: NodeDescriptor, command: str) -> tuple[int, str]:
        scratch = self.scratch_dir(node.node_id)
        if command != CLEAN_SCRATCH_COMMAND:
            return run_bounded(command, shell=True, cwd=str(scratch))
        for entry in scratch.iterdir():
            if entry.is_dir():
                shutil.rmtree(entry, ignore_errors=True)
            else:
                entry.unlink(missing_ok=True)
        return 0, ""

    def stage(self, node: NodeDescriptor,
              staged: StagedFile) -> tuple[int, str]:
        target = self.scratch_dir(node.node_id) / staged.path
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(staged.content, encoding="utf-8")
        return 0, ""

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
            proc.wait(timeout=STOP_GRACE_S)
        except subprocess.TimeoutExpired:
            proc.kill()
