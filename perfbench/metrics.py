"""Pure metric helpers: percentiles, summaries, result extraction, span self time.

Nothing here imports expforge, so the helpers can be unit-checked on
synthetic inputs (see ``test_metrics.py``).
"""

from __future__ import annotations

import json
import math
import statistics
from typing import Iterable, NamedTuple, Sequence

# Highest first; a percentile is reported only when at least MIN_BEYOND
# samples lie beyond it, so it is never set by a handful of outliers.
PERCENTILES = (99.9, 99.0, 90.0)
MIN_BEYOND = 10


def _rank(n: int, q: float) -> int:
    # Rounded first so that, say, 99.9 % of 10000 is rank 9990, not 9991.
    return max(1, math.ceil(round(q * n / 100.0, 9)))


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile: the smallest value with q % at or below it."""
    ordered = sorted(values)
    return ordered[_rank(len(ordered), q) - 1]


def samples_beyond(n: int, q: float) -> int:
    """How many of ``n`` samples lie above the nearest-rank q-th percentile."""
    return n - _rank(n, q)


def top_percentile(n: int) -> float | None:
    """The highest percentile with at least ten samples beyond it, or None."""
    for q in PERCENTILES:
        if samples_beyond(n, q) >= MIN_BEYOND:
            return q
    return None


def summarize(values: Sequence[float]) -> dict:
    """Median, sample count and the highest percentile the rule allows."""
    summary = {"n": len(values), "p50": statistics.median(values)}
    q = top_percentile(len(values))
    if q is not None:
        summary[f"p{q:g}"] = percentile(values, q)
    return summary


def quartile_spread(values: Sequence[float]) -> float:
    """Distance between the first and third quartile (statistics.quantiles)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


# ---------------------------------------------------------------------------
# extraction from task results (result documents as the results API returns)
# ---------------------------------------------------------------------------

def stage_gaps(results: Iterable[dict]) -> list[float]:
    """Per node: first start of stage i+1 minus last finish of stage i, in s.

    A negative gap is a stage-barrier violation. Skipped tasks carry no
    timestamps and are ignored.
    """
    stages: dict[str, dict[int, list[dict]]] = {}
    for result in results:
        if result.get("started_mono") is None:
            continue
        stages.setdefault(result["node_id"], {}).setdefault(
            int(result["stage_index"]), []).append(result)
    gaps = []
    for by_stage in stages.values():
        for index in sorted(by_stage):
            previous = by_stage.get(index - 1)
            if previous is None:
                continue
            gaps.append(min(r["started_mono"] for r in by_stage[index])
                        - max(r["finished_mono"] for r in previous))
    return gaps


def flag_releases(results: Iterable[dict], waiter: str) -> list[float]:
    """Seconds from each flag's ``set_mono`` to its waiters' ``finished_mono``.

    The waiter task's payload is ``{"key": ..., "flag": {"set_mono": ...}}``
    as the wait-flag task writes it. A negative delay means a waiter was
    released before the flag was set.
    """
    delays = []
    for result in results:
        if result["task_name"] != waiter:
            continue
        flag = json.loads(result["payload"])["flag"]
        delays.append(result["finished_mono"] - flag["set_mono"])
    return delays


# ---------------------------------------------------------------------------
# spans
# ---------------------------------------------------------------------------

class Span(NamedTuple):
    span_id: int
    parent_id: int | None
    name: str
    experiment_id: str
    start: float
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Total length of the union of intervals."""
    total = 0.0
    reach = -math.inf
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def self_times(spans: Iterable[Span]) -> dict[int, float]:
    """span_id -> duration minus the part of it that child spans cover."""
    spans = list(spans)
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent_id is not None:
            children.setdefault(span.parent_id, []).append((span.start, span.end))
    result = {}
    for span in spans:
        clipped = [(max(s, span.start), min(e, span.end))
                   for s, e in children.get(span.span_id, ())
                   if min(e, span.end) > max(s, span.start)]
        result[span.span_id] = span.duration - _covered(clipped)
    return result
