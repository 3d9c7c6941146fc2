"""Deterministic simulated infrastructure with fault injection.

Every node carries a virtual scratch filesystem, an event log, and seeded
per-purpose randomness streams keyed by (seed, node id, purpose), so fault
decisions never depend on thread interleaving. The event trace is canonically
ordered by (node, scope, sequence-within-scope); two runs with the same seed,
fault model, and workload produce identical traces.

The scratch filesystem also holds the node's report spool, under
``.spool/``: an undelivered report stays on its node for the next executor
launched there, also under a restarted director that reuses the connector,
and the scratch wipe removes it with the rest, as a real node's cleanup
does. The spool holds each report as the document object itself, never
encoded: it lives in the same process as the gateway that reads it.

Simulated command execution interprets a tiny vocabulary (true / false /
exit N / echo) plus the scratch-wipe and capture-stop tokens; any other
command "succeeds" with recorded intent, keeping simulation hermetic. Sleeps
are scaled by ``fault.sleep_scale`` so long pipeline shapes replay at desk
speed.
"""

from __future__ import annotations

import hashlib
import itertools
import logging
import random
import shlex
import threading
import time
from dataclasses import dataclass
from typing import Any, Mapping, NamedTuple, Sequence

from ..compiler import CLEAN_SCRATCH_COMMAND, EnvironmentSpec
from ..errors import LaunchFailed, TransportError
from ..executor import (EXIT_OK, SPOOL_SUFFIX, NodeRuntime, ReportSpool,
                        run_executor)
from ..model import DocCodec, NodeDescriptor, NodePool, StagedFile
from . import Connector, ExecutorConfig, LaunchHandle, PrepareResult

log = logging.getLogger("expforge.sim")

FAULT_INJECTION_COMMAND = "<fault-injection>"


@dataclass(frozen=True)
class FaultModel(DocCodec):
    """Injected faults. Probabilistic knobs draw from per-node seeded streams
    (deterministic given the seed); the node sets are exact."""

    prepare_fail_prob: float = 0.0
    prepare_fail_nodes: frozenset[str] = frozenset()
    silent_nodes: frozenset[str] = frozenset()
    report_drop_prob: float = 0.0
    sleep_scale: float = 1.0


class SimEvent(NamedTuple):
    node_id: str
    scope: str
    seq: int
    name: str
    detail: tuple[tuple[str, Any], ...]
    wall: float

    def canonical(self) -> tuple:
        """Timing-free view used for determinism comparisons, its detail
        sorted by key."""
        return (self.node_id, self.scope, self.seq, self.name,
                tuple(sorted(self.detail)))


def _stream_seed(seed: int, node_id: str, purpose: str) -> int:
    blob = hashlib.sha256(f"{seed}|{node_id}|{purpose}".encode()).digest()
    return int.from_bytes(blob[:8], "big")


class SimNode:
    def __init__(self, node_id: str, attributes: dict[str, str], seed: int):
        self.node_id = node_id
        self.attributes = attributes
        self._seed = seed
        self.fs: dict[str, bytes | Mapping[str, Any]] = {}
        self.events: list[SimEvent] = []
        self._lock = threading.Lock()
        self._seqs: dict[str, itertools.count] = {}
        self._streams: dict[str, random.Random] = {}

    def stream(self, purpose: str) -> random.Random:
        with self._lock:
            if purpose not in self._streams:
                self._streams[purpose] = random.Random(
                    _stream_seed(self._seed, self.node_id, purpose))
            return self._streams[purpose]

    def log(self, scope: str, name: str, detail: Mapping[str, Any] | None = None) -> None:
        """Append an event, its detail's items in the given order. Takes no
        lock: under the GIL ``setdefault``, ``next`` on a count and
        ``append`` are each atomic, so every scope's numbers stay unique."""
        seqs = self._seqs.get(scope) or self._seqs.setdefault(
            scope, itertools.count())
        self.events.append(SimEvent(
            self.node_id, scope, next(seqs), name,
            tuple(detail.items()) if detail else (), time.time()))

    def write(self, path: str,
              content: str | bytes | Mapping[str, Any]) -> None:
        """Store ``content``: a str UTF-8 encoded, bytes and a spooled
        document as they are."""
        data = content.encode("utf-8") if isinstance(content, str) else content
        with self._lock:
            self.fs[path] = data

    def read(self, path: str) -> bytes | Mapping[str, Any]:
        with self._lock:
            return self.fs[path]

    def exists(self, path: str) -> bool:
        with self._lock:
            return path in self.fs

    def remove(self, path: str) -> None:
        with self._lock:
            self.fs.pop(path, None)

    def files(self) -> list[str]:
        with self._lock:
            return sorted(self.fs)

    def wipe(self) -> None:
        with self._lock:
            self.fs.clear()


class SimSpool(ReportSpool):
    """A simulated node's report spool: each document object itself, kept
    at ``.spool/<name>`` on the node's virtual scratch filesystem.

    Nothing is encoded, so nothing can be torn; an entry that is not a
    mapping, such as bytes a task wrote to that path, reads as corrupt."""

    PREFIX = ".spool/"

    def __init__(self, node: SimNode):
        self.node = node

    def write(self, name: str, doc: Mapping[str, Any]) -> None:
        self.node.write(self.PREFIX + name, doc)

    def read(self, name: str) -> Mapping[str, Any]:
        doc = self.node.read(self.PREFIX + name)
        if not isinstance(doc, Mapping):
            raise ValueError(f"spooled {name} is not a document")
        return doc

    def remove(self, name: str) -> None:
        self.node.remove(self.PREFIX + name)

    def names(self) -> list[str]:
        return [path[len(self.PREFIX):] for path in self.node.files()
                if path.startswith(self.PREFIX)
                and path.endswith(SPOOL_SUFFIX)]


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
        scaled = seconds * self.fault.sleep_scale
        if scaled <= 0:  # cancel.wait(0)'s answer, without its Condition
            return not cancel.is_set()
        return not cancel.wait(scaled)

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
        spool = SimSpool(sim)
        scale = self.fault.sleep_scale

        def run() -> None:
            sim.log("launch", "executor-launch",
                    {"experiment_id": config.experiment_id})
            code = run_executor(config, runtime, proxy, spool, stop=stop,
                                sleeper=lambda s: time.sleep(s * scale))
            if code != EXIT_OK:
                log.warning("simulated executor for %s exited with code %d",
                            sim.node_id, code)

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
