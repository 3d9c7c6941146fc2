"""Spans recorded from outside the program, by wrapping its public calls.

The tracer replaces instance methods and module attributes with wrappers
that record a span (name, start, end, parent, experiment id) around each
call, and restores the originals on ``uninstall``. Nothing under ``src/``
is changed. Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from contextlib import contextmanager
from typing import Any, Callable, Iterator

import expforge.connectors.simulated as simulated
import expforge.director as director_module
import expforge.executor as executor

from metrics import Span

_MISSING = object()


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.experiment_id = ""  # fallback for calls that carry no id
        self.peak_threads = 0
        self.prepare_failed = 0
        self.plan_bytes: list[int] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._counts_lock = threading.Lock()  # guards peak_threads, prepare_failed
        self._patches: list[tuple[Any, str, Any]] = []
        # Spans are timed on perf_counter and shifted onto the wall clock,
        # which the record's transition timestamps use.
        self._wall_offset = time.time() - time.perf_counter()

    @contextmanager
    def span(self, name: str, experiment_id: str | None = None) -> Iterator[None]:
        stack = self._local.__dict__.setdefault("stack", [])
        parent = stack[-1] if stack else None
        span_id = next(self._ids)
        stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(Span(span_id, parent, name,
                                   experiment_id or self.experiment_id,
                                   start + self._wall_offset,
                                   end + self._wall_offset))

    # -- patching --------------------------------------------------------

    def _patch(self, owner: Any, attr: str, replacement: Any) -> None:
        self._patches.append((owner, attr, vars(owner).get(attr, _MISSING)))
        setattr(owner, attr, replacement)

    def wrap(self, owner: Any, attr: str, name: str,
             experiment_of: Callable[..., str] | None = None,
             on_result: Callable[[Any], None] | None = None) -> None:
        """Record a span around every call of ``owner.attr``."""
        original = getattr(owner, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            eid = experiment_of(*args, **kwargs) if experiment_of else None
            with self.span(name, eid):
                result = original(*args, **kwargs)
            if on_result is not None:
                on_result(result)
            return result

        self._patch(owner, attr, wrapper)

    def wrap_context(self, owner: Any, attr: str, name: str,
                     experiment_of: Callable[..., str]) -> None:
        """Record a span around the ``with`` block of a context-manager call."""
        original = getattr(owner, attr)

        @contextmanager
        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            with self.span(name, experiment_of(*args, **kwargs)):
                with original(*args, **kwargs) as value:
                    yield value

        self._patch(owner, attr, wrapper)

    def count_threads(self) -> None:
        """Track the peak live thread count at every Thread.start."""
        original = threading.Thread.start
        tracer = self

        @functools.wraps(original)
        def start(thread, *args, **kwargs):
            original(thread, *args, **kwargs)
            with tracer._counts_lock:
                tracer.peak_threads = max(tracer.peak_threads,
                                          threading.active_count())

        self._patch(threading.Thread, "start", start)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, previous = self._patches.pop()
            if previous is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, previous)


def install(tracer: Tracer, director, connector, client=None) -> None:
    """Wrap every layer boundary the benchmark reports on.

    ``client`` is the HTTP client when the workload goes through the server.
    """
    def plan_size(plan) -> None:
        tracer.plan_bytes.append(len(json.dumps(plan.to_doc())))

    def prepare_outcome(result) -> None:
        if not result.prepared:
            with tracer._counts_lock:
                tracer.prepare_failed += 1

    store, gateway = director.store, director.gateway
    tracer.wrap(store, "load", "store.load", lambda eid: eid)
    tracer.wrap(store, "save", "store.save", lambda rec: rec.experiment_id)
    tracer.wrap_context(director, "mutate", "director.mutate", lambda eid: eid)
    tracer.wrap(gateway, "fetch_bundle", "gateway.fetch_bundle",
                lambda eid, node: eid)
    tracer.wrap(gateway, "ingest_report", "gateway.ingest",
                lambda doc: doc.get("experiment_id", ""))
    tracer.wrap(gateway, "set_flag", "gateway.set_flag", lambda eid, *_: eid)
    tracer.wrap(gateway, "get_flag", "gateway.get_flag", lambda eid, *_: eid)
    tracer.wrap(connector, "prepare", "connector.prepare",
                on_result=prepare_outcome)
    tracer.wrap(connector, "launch_executor", "connector.launch",
                lambda node, config: config.experiment_id)
    tracer.wrap(director_module, "compile_experiment", "compiler.compile",
                lambda exp, *_: exp.experiment_id, on_result=plan_size)
    tracer.wrap(simulated, "run_executor", "executor.run_executor",
                lambda bundle, *_, **__: bundle.experiment_id)
    tracer.wrap(executor, "run_pipeline", "executor.run_pipeline",
                lambda bundle, *_, **__: bundle.experiment_id)
    tracer.wrap(executor, "write_spool", "executor.write_spool",
                lambda spool, doc: doc["experiment_id"])
    tracer.count_threads()
    if client is not None:
        tracer.wrap(client, "submit", "server.submit",
                    lambda doc: doc["name"])
        for action in ("deploy", "execute"):
            tracer.wrap(client, action, "server.action", lambda eid: eid)
        tracer.wrap(client, "status", "server.status", lambda eid: eid)
        tracer.wrap(client, "results", "server.results", lambda eid: eid)
