"""The benchmark's workloads and the closed loop step that drives one experiment.

Each workload builds a fresh platform stack (store, simulated connector,
director and, for listing1, the HTTP server with the CLI's keep-alive
client). One client then runs experiments back to back, each under a fresh
name. Why each workload exists is recorded in ``BENCHMARK.json`` and in
``README.md`` beside this file.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import yaml

from expforge import (
    Director,
    Experiment,
    FileStore,
    MemoryStore,
    Pipeline,
    TaskSpec,
    builtin_registry,
)
from expforge.cli import DirectorClient
from expforge.connectors.simulated import SimulatedConnector
from expforge.manifest import load_bundled_example
from expforge.server import PlatformServer

from metrics import flag_releases, stage_gaps

# listing1's node pool: one server, ten campus and ten cloud clients. The
# seed shuffles this order, which decides which node becomes the server.
LISTING1_ATTRS = ([{"location": "azure"}]
                  + [{"location": "campus"}] * 10
                  + [{"location": "cloud"}] * 10)

# Fixed client poll periods. A status read loads the whole record, so the
# client polls slowly to keep its own CPU out of the numbers; the READY poll
# is faster because execute waits for it, so it lies on the makespan path.
POLL_READY_S = 0.05
POLL_DONE_S = 0.25
EXPERIMENT_TIMEOUT_S = 60.0

TERMINAL = frozenset({"FINISHED", "FAILED", "CANCELLED"})

# node id -> (pipeline id, task names per stage)
Layout = dict[str, tuple[str, list[list[str]]]]


@dataclass
class Stack:
    """One platform instance and the client that drives it.

    ``client`` is the CLI's HTTP ``DirectorClient`` or, in process, the
    ``Director`` itself: both offer submit/deploy/execute/status/results.
    """

    director: Director
    connector: SimulatedConnector
    client: Any
    submission: Callable[[int], tuple[Any, str]]  # index -> (payload, id)
    expected: Layout
    server: PlatformServer | None = None

    def forget_node_events(self) -> None:
        """Drop the simulator's per-node event logs between experiments.

        Real nodes keep their own logs. Simulated ones keep them in this
        process, where they grow with every experiment and slow each later
        one (every full garbage collection walks them). Left alone, the run
        would time the simulator's trace, and a change that fits more
        experiments into a run would read slower.
        """
        for node in self.connector.infra.nodes.values():
            node.events.clear()

    def close(self) -> None:
        if self.server is not None:
            self.server.stop()  # also closes the director
        else:
            self.director.close()


@dataclass(frozen=True)
class Workload:
    name: str
    build: Callable[[Path, int], Stack]
    waiter: str | None = None  # wait-flag task whose release is measured


def _manifest_layout(manifest: dict, connector: SimulatedConnector) -> Layout:
    """Which node runs which pipeline, worked out from the attributes."""
    nodes = [(n.node_id, n.attributes) for n in connector.list_nodes()]
    layout: Layout = {}
    for assignment in manifest["assignments"]:
        selector = manifest["selectors"][assignment["nodes"]]
        matching = [node_id for node_id, attrs in nodes
                    if all(attrs.get(k) == v
                           for k, v in selector["filters"].items())]
        stages = [[task["name"] for task in stage] for stage in
                  manifest["pipelines"][assignment["pipeline"]]["stages"]]
        for node_id in matching[:selector["take"]]:
            layout[node_id] = (assignment["pipeline"], stages)
    return layout


def build_listing1(work: Path, seed: int) -> Stack:
    attrs = list(LISTING1_ATTRS)
    random.Random(seed).shuffle(attrs)
    connector = SimulatedConnector("sim", node_count=len(attrs),
                                   per_node_attributes=attrs, seed=seed)
    # As expforge-server builds it: FileStore, artifact root, defaults.
    director = Director(FileStore(work / "records"), builtin_registry(),
                        {"sim": connector}, artifact_root=work / "artifacts")
    server = PlatformServer(director).start()
    client = DirectorClient(server.url)
    client.nodes({})  # opens the keep-alive connection
    manifest = yaml.safe_load(load_bundled_example())

    def submission(index: int) -> tuple[dict, str]:
        doc = dict(manifest, name=f"listing1-{index:05d}")
        return doc, doc["name"]

    return Stack(director, connector, client, submission,
                 _manifest_layout(manifest, connector), server)


def build_simulated(name: str, nodes: int, stages: int, tasks: int,
                    store: Callable[[Path], Any]) -> Callable[[Path, int], Stack]:
    """A stages x tasks ``sleep 0`` pipeline mapped onto every simulated node."""

    def build(work: Path, seed: int) -> Stack:
        connector = SimulatedConnector("sim", node_count=nodes, seed=seed)
        director = Director(store(work), builtin_registry(), {"sim": connector})
        pipeline = Pipeline(name)
        for _ in range(stages):
            pipeline = pipeline.then([TaskSpec("sleep", params={"seconds": 0})
                                      for _ in range(tasks)])
        pool = list(director.query_nodes())

        def submission(index: int) -> tuple[Experiment, str]:
            experiment_id = f"{name}-{index:05d}"
            return Experiment(experiment_id).map(pipeline, pool), experiment_id

        layout = [[task.name for task in stage.tasks]
                  for stage in pipeline.stages]
        return Stack(director, connector, director, submission,
                     {node.node_id: (name, layout) for node in pool})

    return build


WORKLOADS = {
    "listing1": Workload("listing1", build_listing1, waiter="wait-ready"),
    "wide": Workload("wide", build_simulated(
        "wide", nodes=100, stages=1, tasks=1,
        store=lambda work: FileStore(work / "records"))),
    "deep": Workload("deep", build_simulated(
        "deep", nodes=2, stages=100, tasks=10,
        store=lambda work: MemoryStore())),
}


# ---------------------------------------------------------------------------
# one experiment
# ---------------------------------------------------------------------------

@dataclass
class Drive:
    """What the client saw of one experiment."""

    experiment_id: str
    submitted: float  # wall clock, just before the submit call
    cpu_s: float      # process CPU from submit until the end was seen
    view: dict        # the last status view
    results: dict | None


def _wait(client, experiment_id: str, targets, period: float,
          deadline: float) -> dict:
    while True:
        view = client.status(experiment_id)
        if view["status"] in targets or time.monotonic() >= deadline:
            return view
        time.sleep(period)


def drive(stack: Stack, payload: Any, experiment_id: str) -> Drive:
    """Submit, deploy, poll, execute, poll, fetch results, as the CLI's run."""
    deadline = time.monotonic() + EXPERIMENT_TIMEOUT_S
    cpu0 = time.process_time()
    submitted = time.time()
    stack.client.submit(payload)
    stack.client.deploy(experiment_id)
    view = _wait(stack.client, experiment_id, TERMINAL | {"READY"},
                 POLL_READY_S, deadline)
    if view["status"] == "READY":
        stack.client.execute(experiment_id)
        view = _wait(stack.client, experiment_id, TERMINAL, POLL_DONE_S,
                     deadline)
    cpu_s = time.process_time() - cpu0
    if view["status"] not in TERMINAL:
        stack.director.cancel(experiment_id)
        return Drive(experiment_id, submitted, cpu_s, view, None)
    return Drive(experiment_id, submitted, cpu_s, view,
                 stack.client.results(experiment_id))


def flatten(results: dict) -> list[dict]:
    """Result documents tagged with the pipeline they were grouped under."""
    return [dict(result, pipeline=pipeline)
            for pipeline, nodes in results["pipelines"].items()
            for node_results in nodes.values()
            for result in node_results]


def check(stack: Stack, run: Drive, waiter: str | None) -> str | None:
    """The first way the experiment's output is wrong, or None."""
    view = run.view
    if view["status"] != "FINISHED":
        return f"ended {view['status']}: {view.get('errors')}"
    if set(view["nodes"]) != set(stack.expected):
        return "node set differs from the assignment"
    unreported = sorted(node for node, state in view["nodes"].items()
                        if state["execution"] != "reported")
    if unreported or view["reported_count"] != len(stack.expected):
        return f"reports missing from {unreported or view['reported_count']}"
    results = flatten(run.results)
    expected = {(pipeline, node, index, task)
                for node, (pipeline, stages) in stack.expected.items()
                for index, stage in enumerate(stages) for task in stage}
    got = [(r["pipeline"], r["node_id"], r["stage_index"], r["task_name"])
           for r in results]
    if len(got) != len(expected) or set(got) != expected:
        return f"{len(got)} results do not match the {len(expected)} expected"
    failed = [r for r in results if r["outcome"] != "success"]
    if failed:
        return (f"{len(failed)} tasks not successful, first "
                f"{failed[0]['node_id']}/{failed[0]['task_name']}: "
                f"{failed[0]['outcome']} {failed[0].get('error_text')}")
    if any(gap < 0 for gap in stage_gaps(results)):
        return "a stage started before its previous stage finished"
    if waiter is not None:
        waiters = sum(task == waiter for *_, task in expected)
        delays = flag_releases(results, waiter)
        if len(delays) != waiters or any(d < 0 for d in delays):
            return "a flag waiter was released before the flag was set"
    return None
