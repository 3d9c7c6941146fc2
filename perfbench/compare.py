"""Compare a parent's and a change's benchmark results, metric by metric.

    python3 perfbench/compare.py PARENT CHANGE

PARENT and CHANGE are result files written by ``run.py`` or directories of
them. Results are paired by (workload, trace, seed); run each pair's two
sides one after the other, alternating which goes first, with the same
``--seconds``. Each (workload, metric) gets one verdict:

- improved: the change wins at least nine tenths of the pairs (ties count
  for neither side), over at least ten pairs, and the medians differ by more
  than the parent's interquartile spread;
- regressed: for a metric with a bound in BENCHMARK.json, the change's
  median is worse than the parent's by more than that bound; for one
  without, the improved rule holds the other way round;
- unresolved: the parent's own spread is wider than the bound (and not
  every change run beats every parent run), or, without a bound, the
  medians differ by more than that spread but neither rule holds;
- unchanged: otherwise.

Exits 1 when any metric regressed on any workload.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

from metrics import quartile_spread

ROOT = Path(__file__).resolve().parent.parent
MIN_PAIRS = 10
WIN_SHARE = 0.9


def verdict(pairs: list[tuple[float, float]], better: str,
            bound: float | None) -> str:
    """The verdict for one metric over (parent, change) value pairs."""
    sign = 1.0 if better == "lower" else -1.0
    parent = [p for p, _ in pairs]
    change = [c for _, c in pairs]
    base = statistics.median(parent)
    gain = sign * (base - statistics.median(change))  # > 0: change better
    spread = quartile_spread(parent)
    wins = sum(sign * (p - c) > 0 for p, c in pairs)
    losses = sum(sign * (p - c) < 0 for p, c in pairs)
    enough = len(pairs) >= MIN_PAIRS
    if enough and wins >= WIN_SHARE * len(pairs) and gain > spread:
        return "improved"
    if bound is None:
        if enough and losses >= WIN_SHARE * len(pairs) and -gain > spread:
            return "regressed"
        return "unchanged" if abs(gain) <= spread else "unresolved"
    every_better = all(sign * (p - c) > 0 for p in parent for c in change)
    if spread > bound * abs(base) and not every_better:
        return "unresolved"
    if -gain > bound * abs(base):
        return "regressed"
    return "unchanged"


def load(path: Path) -> dict[tuple[str, int, int], dict]:
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    runs = {}
    for file in files:
        doc = json.loads(file.read_text(encoding="utf-8"))
        stamp = doc["stamp"]
        key = (stamp["workload"], stamp["trace"], stamp["seed"])
        if key in runs:
            raise SystemExit(f"{path}: two results for workload {key[0]} "
                             f"trace {key[1]} seed {key[2]}")
        runs[key] = doc
    return runs


def compare(parent: dict, change: dict, bounds: dict[str, float]) -> list[dict]:
    rows = []
    groups = sorted({key[:2] for key in parent} & {key[:2] for key in change})
    for workload, trace in groups:
        seeds = sorted(seed for (w, t, seed) in parent
                       if (w, t) == (workload, trace)
                       and (w, t, seed) in change)
        docs = [(parent[(workload, trace, s)], change[(workload, trace, s)])
                for s in seeds]
        parent_first = sum(p["stamp"]["started_at"] < c["stamp"]["started_at"]
                           for p, c in docs)
        names = [name for name in docs[0][0]["metrics"]
                 if all(name in p["metrics"] and name in c["metrics"]
                        for p, c in docs)]
        for name in names:
            pairs = [(p["metrics"][name]["value"], c["metrics"][name]["value"])
                     for p, c in docs]
            metric = docs[0][0]["metrics"][name]
            parent_values = [p for p, _ in pairs]
            change_values = [c for _, c in pairs]
            rows.append({
                "workload": workload, "trace": trace, "metric": name,
                "unit": metric["unit"], "pairs": len(pairs),
                "parent_first": parent_first,
                "parent": statistics.median(parent_values),
                "parent_iqr": quartile_spread(parent_values),
                "change": statistics.median(change_values),
                "change_iqr": quartile_spread(change_values),
                "verdict": verdict(pairs, metric["better"],
                                   bounds.get(name)),
            })
    return rows


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    rows = compare(load(args.parent), load(args.change), bounds)
    print(f"{'workload':<9} {'metric':<28} {'parent':>12} {'IQR':<11} "
          f"{'change':>12} {'IQR':<11} {'unit':<6} verdict")
    for row in rows:
        print(f"{row['workload']:<9} {row['metric']:<28} "
              f"{row['parent']:>12.6g} {row['parent_iqr']:<11.3g} "
              f"{row['change']:>12.6g} {row['change_iqr']:<11.3g} "
              f"{row['unit']:<6} {row['verdict']}")
    for workload, trace in sorted({(r["workload"], r["trace"]) for r in rows}):
        row = next(r for r in rows
                   if (r["workload"], r["trace"]) == (workload, trace))
        print(f"# {workload} trace={trace}: {row['pairs']} pairs, parent "
              f"ran first in {row['parent_first']}")
    return int(any(row["verdict"] == "regressed" for row in rows))


if __name__ == "__main__":
    sys.exit(main())
