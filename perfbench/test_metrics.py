"""Unit checks for the benchmark's metric helpers, on synthetic inputs.

    python3 -m pytest -q perfbench
"""

import json

import pytest

from compare import verdict
from metrics import (
    Span,
    flag_releases,
    percentile,
    self_times,
    stage_gaps,
    summarize,
    top_percentile,
)


def test_percentile_needs_ten_samples_beyond_it():
    assert top_percentile(99) is None   # p90 has 9 beyond
    assert top_percentile(100) == 90.0  # p90 has 10 beyond
    assert top_percentile(999) == 90.0  # p99 has 9 beyond
    assert top_percentile(1000) == 99.0
    assert top_percentile(10_000) == 99.9


def test_summarize_names_only_the_allowed_percentile():
    assert summarize([3.0, 1.0, 2.0]) == {"n": 3, "p50": 2.0}
    values = [float(v) for v in range(1, 101)]
    assert summarize(values) == {"n": 100, "p50": 50.5, "p90": 90.0}
    assert percentile(values, 99) == 99.0


def result(node, stage, start, finish, task="t", payload=None):
    return {"node_id": node, "stage_index": stage, "task_name": task,
            "started_mono": start, "finished_mono": finish,
            "payload": payload}


def test_stage_gaps_per_node_from_last_finish_to_first_start():
    results = [
        result("a", 0, 0.0, 1.0), result("a", 0, 0.0, 1.5),
        result("a", 1, 1.75, 2.0), result("a", 1, 1.6, 2.5),
        result("a", 2, 2.5, 3.0),
        result("b", 0, 0.0, 1.0), result("b", 1, 0.5, 1.2),  # violation
        {"node_id": "b", "stage_index": 2, "task_name": "skipped",
         "started_mono": None, "finished_mono": None},
    ]
    assert sorted(stage_gaps(results)) == pytest.approx([-0.5, 0.0, 0.1])


def test_flag_release_from_set_mono_to_waiter_finish():
    flag = {"set_mono": 10.0, "set_wall": 1.0, "node_id": "s"}
    results = [
        result("s", 2, 9.9, 10.0, "announce-ready",
               json.dumps({"key": "k", "flag": flag})),
        result("w1", 0, 0.0, 10.25, "wait-ready",
               json.dumps({"key": "k", "flag": flag})),
        result("w2", 0, 11.0, 11.5, "wait-ready",
               json.dumps({"key": "k", "flag": flag})),
        result("w2", 1, 11.5, 12.0, "probe"),
    ]
    assert flag_releases(results, "wait-ready") == pytest.approx([0.25, 1.5])


def test_self_time_subtracts_the_union_of_children():
    spans = [
        Span(1, None, "mutate", "e", 0.0, 10.0),
        Span(2, 1, "load", "e", 1.0, 3.0),
        Span(3, 1, "save", "e", 2.0, 4.0),    # overlaps load
        Span(4, 1, "late", "e", 9.0, 12.0),   # ends after the parent
        Span(5, 2, "inner", "e", 1.5, 2.5),   # a grandchild
        Span(6, None, "other", "e", 0.0, 1.0),
    ]
    selfs = self_times(spans)
    assert selfs[1] == pytest.approx(10.0 - 3.0 - 1.0)
    assert selfs[2] == pytest.approx(1.0)
    assert selfs[4] == pytest.approx(3.0)
    assert selfs[6] == pytest.approx(1.0)


def test_verdict_rules():
    parent = [1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00, 1.00]
    faster = [(p, p * 0.8) for p in parent]
    assert verdict(faster, "lower", 0.1) == "improved"
    assert verdict(faster[:9], "lower", 0.1) == "unchanged"  # too few pairs
    slower = [(p, p * 1.2) for p in parent]
    assert verdict(slower, "lower", 0.1) == "regressed"
    assert verdict(slower, "higher", 0.1) == "improved"
    same = [(p, p) for p in parent]
    assert verdict(same, "lower", 0.1) == "unchanged"
    noisy = [(v, 1.0) for v in (0.5, 1.5) * 5]
    assert verdict(noisy, "lower", 0.1) == "unresolved"
    assert verdict(slower, "lower", None) == "regressed"
    counts = [(305.0, 305.0)] * 10
    assert verdict(counts, "lower", None) == "unchanged"
