"""Deterministic simulated infrastructure with fault injection.

Every node carries a virtual scratch filesystem, an event log, and seeded
per-purpose randomness streams keyed by (seed, node id, purpose), so fault
decisions never depend on thread interleaving. The event trace is canonically
ordered by (node, scope, sequence-within-scope); two runs with the same seed,
fault model, and workload produce identical traces.

Simulated command execution interprets a tiny vocabulary (true / false /
exit N / echo) plus the scratch-wipe and capture-stop tokens; any other
command "succeeds" with recorded intent, keeping simulation hermetic. Sleeps
are scaled by ``fault.sleep_scale`` so long pipeline shapes replay at desk
speed.
"""

from __future__ import annotations

import hashlib
import logging
import random
import shlex
import shutil
import tempfile
import threading
import time
import weakref
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Mapping, Sequence

from ..compiler import CLEAN_SCRATCH_COMMAND, EnvironmentSpec
from ..errors import LaunchFailed, TransportError
from ..executor import NodeRuntime, run_executor
from ..model import NodeDescriptor, NodePool, StagedFile
from . import Connector, ExecutorConfig, LaunchHandle, PrepareResult

log = logging.getLogger("expforge.sim")

FAULT_INJECTION_COMMAND = "<fault-injection>"


@dataclass(frozen=True)
class FaultModel:
    """Injected faults. Probabilistic knobs draw from per-node seeded streams
    (deterministic given the seed); the node sets are exact."""

    prepare_fail_prob: float = 0.0
    prepare_fail_nodes: frozenset[str] = frozenset()
    silent_nodes: frozenset[str] = frozenset()
    report_drop_prob: float = 0.0
    sleep_scale: float = 1.0

    @classmethod
    def from_doc(cls, doc: Mapping[str, Any]) -> "FaultModel":
        return cls(
            prepare_fail_prob=float(doc.get("prepare_fail_prob", 0.0)),
            prepare_fail_nodes=frozenset(doc.get("prepare_fail_nodes", ())),
            silent_nodes=frozenset(doc.get("silent_nodes", ())),
            report_drop_prob=float(doc.get("report_drop_prob", 0.0)),
            sleep_scale=float(doc.get("sleep_scale", 1.0)),
        )


@dataclass(frozen=True)
class SimEvent:
    node_id: str
    scope: str
    seq: int
    name: str
    detail: tuple[tuple[str, Any], ...]
    wall: float

    def canonical(self) -> tuple:
        """Timing-free view used for determinism comparisons."""
        return (self.node_id, self.scope, self.seq, self.name, self.detail)


def _stream_seed(seed: int, node_id: str, purpose: str) -> int:
    blob = hashlib.sha256(f"{seed}|{node_id}|{purpose}".encode()).digest()
    return int.from_bytes(blob[:8], "big")


class SimNode:
    def __init__(self, node_id: str, attributes: dict[str, str], seed: int):
        self.node_id = node_id
        self.attributes = attributes
        self._seed = seed
        self.fs: dict[str, bytes] = {}
        self.events: list[SimEvent] = []
        self._lock = threading.Lock()
        self._seqs: dict[str, int] = {}
        self._streams: dict[str, random.Random] = {}

    def stream(self, purpose: str) -> random.Random:
        with self._lock:
            if purpose not in self._streams:
                self._streams[purpose] = random.Random(
                    _stream_seed(self._seed, self.node_id, purpose))
            return self._streams[purpose]

    def log(self, scope: str, name: str, detail: Mapping[str, Any] | None = None) -> None:
        with self._lock:
            seq = self._seqs.get(scope, 0)
            self._seqs[scope] = seq + 1
            self.events.append(SimEvent(
                node_id=self.node_id, scope=scope, seq=seq, name=name,
                detail=tuple(sorted((detail or {}).items())),
                wall=time.time()))

    def write(self, path: str, content: str | bytes) -> None:
        data = content.encode("utf-8") if isinstance(content, str) else content
        with self._lock:
            self.fs[path] = data

    def read(self, path: str) -> bytes:
        with self._lock:
            return self.fs[path]

    def exists(self, path: str) -> bool:
        with self._lock:
            return path in self.fs

    def files(self) -> list[str]:
        with self._lock:
            return sorted(self.fs)

    def wipe(self) -> None:
        with self._lock:
            self.fs.clear()


class SimulatedInfrastructure:
    """A pool of simulated nodes sharing one seed and fault model."""

    def __init__(self, node_count: int, *,
                 attributes: Mapping[str, str] | None = None,
                 per_node_attributes: Sequence[Mapping[str, str]] | None = None,
                 seed: int = 0,
                 fault: FaultModel = FaultModel(),
                 node_prefix: str = "sim"):
        self.seed = seed
        self.fault = fault
        self.nodes: dict[str, SimNode] = {}
        for i in range(node_count):
            attrs = dict(attributes or {})
            if per_node_attributes:
                attrs.update(per_node_attributes[i % len(per_node_attributes)])
            node_id = f"{node_prefix}-{i:03d}"
            self.nodes[node_id] = SimNode(node_id, attrs, seed)

    def node(self, node_id: str) -> SimNode:
        return self.nodes[node_id]

    def event_trace(self) -> list[tuple]:
        """Canonically ordered, timing-free event trace across all nodes."""
        events = [e for n in self.nodes.values() for e in n.events]
        return sorted(e.canonical() for e in events)

    def task_start_events(self) -> list[tuple]:
        """(node_id, scope) per task-start event; execution-token audit."""
        return [(e.node_id, e.scope)
                for n in self.nodes.values() for e in n.events
                if e.name == "task-start"]


class SimRuntime(NodeRuntime):
    """Runtime surface bound to one simulated node.

    Command and sleep events are attributed to the runtime's scope; the
    executor hands each task a ``scoped()`` view so concurrent tasks land in
    distinct, canonically ordered scopes.
    """

    kind = "simulated"

    def __init__(self, node: SimNode, fault: FaultModel, scope: str = "command"):
        self.node = node
        self.fault = fault
        self._command_scope = scope

    def scoped(self, scope: str) -> "SimRuntime":
        return SimRuntime(self.node, self.fault, scope)

    def run_command(self, command: str, cancel: threading.Event,
                    timeout: float | None = None) -> tuple[int, str]:
        code, output, recorded = self._interpret(command)
        self.node.log(self._command_scope,
                      "intent" if recorded else "command",
                      {"command": command, "exit": code})
        return code, output

    def _interpret(self, command: str) -> tuple[int, str, bool]:
        try:
            argv = shlex.split(command)
        except ValueError:
            return 1, f"unparseable command: {command}", False
        if not argv:
            return 1, "empty command", False
        head = argv[0]
        if head == "true":
            return 0, "", False
        if head == "false":
            return 1, "", False
        if head == "exit":
            try:
                return int(argv[1]) if len(argv) > 1 else 0, "", False
            except ValueError:
                return 1, f"bad exit code {argv[1]!r}", False
        if head == "echo":
            return 0, " ".join(argv[1:]) + "\n", False
        if head == CLEAN_SCRATCH_COMMAND:
            self.node.wipe()
            return 0, "", False
        if head == "stop-captures":
            return 0, "", False
        # Outside the vocabulary: succeed with recorded intent.
        return 0, "", True

    def sleep(self, seconds: float, cancel: threading.Event) -> bool:
        self.node.log(self._command_scope, "sleep", {"seconds": seconds})
        return not cancel.wait(seconds * self.fault.sleep_scale)

    def write_file(self, path: str, content: str | bytes) -> None:
        self.node.write(path, content)

    def read_file(self, path: str) -> bytes:
        return self.node.read(path)

    def file_exists(self, path: str) -> bool:
        return self.node.exists(path)

    def log_event(self, scope: str, name: str, detail: dict | None = None) -> None:
        self.node.log(scope, name, detail)


class _SimGatewayProxy:
    """Gateway client wrapper applying the node's delivery fault model."""

    def __init__(self, inner, node: SimNode, fault: FaultModel):
        self._inner = inner
        self._node = node
        self._fault = fault

    def _drops(self) -> bool:
        if self._node.node_id in self._fault.silent_nodes:
            return True
        if self._fault.report_drop_prob <= 0:
            return False
        return (self._node.stream("report").random()
                < self._fault.report_drop_prob)

    def deliver_report(self, report_doc: dict) -> str:
        dropped = self._drops()
        self._node.log("report", "deliver-attempt", {"dropped": dropped})
        if dropped:
            raise TransportError(
                f"simulated report drop for {self._node.node_id}")
        return self._inner.deliver_report(report_doc)

    def __getattr__(self, item):
        return getattr(self._inner, item)


class SimulatedConnector(Connector):
    def __init__(self, name: str = "sim", node_count: int = 1, *,
                 attributes: Mapping[str, str] | None = None,
                 per_node_attributes: Sequence[Mapping[str, str]] | None = None,
                 seed: int = 0,
                 fault: FaultModel = FaultModel(),
                 infra: SimulatedInfrastructure | None = None):
        self.name = name
        self.infra = infra or SimulatedInfrastructure(
            node_count, attributes=attributes,
            per_node_attributes=per_node_attributes, seed=seed, fault=fault,
            node_prefix=name)
        self.fault = self.infra.fault
        self.spool_root = Path(tempfile.mkdtemp(prefix=f"expforge-{name}-spool-"))
        # Removed with the connector, not at Director.close: a restarted
        # director reuses the connector, and spooled reports with it.
        weakref.finalize(self, shutil.rmtree, self.spool_root,
                         ignore_errors=True)

    # -- inventory -------------------------------------------------------------

    def list_nodes(self) -> NodePool:
        return NodePool(tuple(
            NodeDescriptor(node_id=n.node_id, kind="simulated",
                           attributes=dict(n.attributes),
                           connector_ref=self.name)
            for n in self.infra.nodes.values()))

    def _node(self, node: NodeDescriptor) -> SimNode:
        try:
            return self.infra.node(node.node_id)
        except KeyError:
            raise LaunchFailed(
                f"node {node.node_id!r} is not part of {self.name!r}") from None

    # -- environment -----------------------------------------------------------

    def prepare(self, node: NodeDescriptor, env: EnvironmentSpec) -> PrepareResult:
        """One seeded draw decides an injected failure; otherwise the
        base algorithm runs."""
        sim = self._node(node)
        injected = (sim.node_id in self.fault.prepare_fail_nodes
                    or sim.stream("prepare").random()
                    < self.fault.prepare_fail_prob)
        if injected:
            sim.log("prepare", "fault-injected", {})
            return PrepareResult(False, FAULT_INJECTION_COMMAND,
                                 "injected prepare failure")
        return super().prepare(node, env)

    def run(self, node: NodeDescriptor, command: str) -> tuple[int, str]:
        runtime = SimRuntime(self._node(node), self.fault, scope="connector")
        return runtime.run_command(command, threading.Event())

    def stage(self, node: NodeDescriptor,
              staged: StagedFile) -> tuple[int, str]:
        sim = self._node(node)
        sim.write(staged.path, staged.content)
        sim.log("connector", "staged-file", {"path": staged.path})
        return 0, ""

    # -- execution -------------------------------------------------------------

    def launch_executor(self, node: NodeDescriptor,
                        config: ExecutorConfig) -> LaunchHandle:
        sim = self._node(node)
        if config.gateway_client is None:
            raise LaunchFailed("simulated connector needs an in-process "
                               "gateway client")
        if config.registry is None:
            raise LaunchFailed("simulated connector needs a task registry")
        stop = threading.Event()
        proxy = _SimGatewayProxy(config.gateway_client, sim, self.fault)
        runtime = SimRuntime(sim, self.fault)
        spool_dir = self.spool_root / sim.node_id
        scale = self.fault.sleep_scale

        def run() -> None:
            sim.log("launch", "executor-launch",
                    {"experiment_id": config.experiment_id})
            try:
                bundle = config.gateway_client.fetch_bundle(
                    config.experiment_id, config.node_id)
                run_executor(bundle, config.registry, runtime, proxy,
                             spool_dir, stop=stop,
                             sleeper=lambda s: time.sleep(s * scale))
            except Exception:  # noqa: BLE001 - a dead node, not a dead platform
                log.exception("simulated executor for %s crashed", sim.node_id)

        thread = threading.Thread(
            target=run, daemon=True,
            name=f"sim-executor-{config.experiment_id}-{sim.node_id}")
        thread.start()
        return LaunchHandle(node_id=sim.node_id,
                            experiment_id=config.experiment_id,
                            stop_event=stop, thread=thread)

    def stop_executor(self, handle: LaunchHandle) -> None:
        if handle.stop_event is not None:
            handle.stop_event.set()
