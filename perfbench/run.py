"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload listing1 --seed 1 --seconds 30 --trace 0

Runs from the repository root against the sources in ``src/``, on one
CPU. Set-up (a fresh interpreter importing expforge and building the
platform) is timed once; one warm-up experiment follows; then one client
runs experiments back to back for ``--seconds``, timing more set-ups
between them, and every output is checked. fsync is counted but not
waited for (see ``Fsyncs``).
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` wraps each
layer's public calls, alternates traced and untraced experiments, and
reports the per-layer metrics and the tracing overhead. Every metric is
printed with its unit and sample count, the full result is written to
``--out-dir``, and the last line of output is one JSON object holding the
metrics that ``BENCHMARK.json`` names.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPS = 7

# The benchmark measures this checkout's sources and nothing else.
sys.path.insert(0, str(SRC))
try:
    import workloads
except ImportError as exc:
    sys.exit(f"cannot import expforge from {SRC}: {exc}")
if not Path(sys.modules["expforge"].__file__).resolve().is_relative_to(SRC):
    sys.exit(f"expforge was not imported from {SRC}")

import tracing
from metrics import (
    MIN_BEYOND,
    flag_releases,
    percentile,
    samples_beyond,
    self_times,
    stage_gaps,
    summarize,
)


@dataclass
class Sample:
    """One measured experiment."""

    experiment_id: str
    traced: bool
    failure: str | None = None
    makespan_s: float = 0.0
    deploy_s: float = 0.0
    run_s: float = 0.0
    cpu_s: float = 0.0
    at: dict = field(default_factory=dict)  # status -> transition wall time
    gaps: list = field(default_factory=list)
    releases: list = field(default_factory=list)
    task_s: list = field(default_factory=list)  # durations of non-waiting tasks
    peak_threads: int = 0
    record_bytes: int = 0
    fsyncs: int = 0


def entry(value: float, unit: str, n: int, better: str = "lower",
          **extra) -> dict:
    return {"value": value, "unit": unit, "better": better, "n": n, **extra}


def timing(values: list[float], unit: str, scale: float = 1.0) -> dict:
    """Median of the values plus the highest percentile the rule allows."""
    summary = summarize([v * scale for v in values])
    return entry(summary.pop("p50"), unit, summary.pop("n"), **summary)


def mean_ms(spans) -> dict:
    return entry(statistics.fmean(s.duration for s in spans) * 1e3, "ms",
                 len(spans))


# ---------------------------------------------------------------------------
# measuring
# ---------------------------------------------------------------------------

class Fsyncs:
    """Stands in for ``os.fsync``: counts the calls, skips the device wait.

    FileStore fsyncs every record save and the executor every spool: about
    400 calls per experiment on ``wide``. Their latency belongs to the disk
    and to whatever else the shared host writes, and it drifts from run to
    run, so timing it would measure the host rather than the program. The
    data still goes through the page cache, so writes, renames and reads
    run as before. A change that makes fewer durable writes shows in
    ``os.fsync_calls``.
    """

    def __init__(self):
        self.calls = 0
        self._lock = threading.Lock()

    def __call__(self, fd: int) -> None:
        with self._lock:
            self.calls += 1


# Set-up as a user pays it when starting the server or a script: a fresh
# interpreter imports expforge and builds the workload's platform.
SETUP_PROBE = """\
import sys, tempfile
from pathlib import Path
src, here, name, seed, work = sys.argv[1:]
sys.path[:0] = [src, here]
tempfile.tempdir = work
import workloads
workloads.WORKLOADS[name].build(Path(work), int(seed))
"""


def time_setup(name: str, seed: int, work: Path, rep: int) -> float:
    """Wall time of one set-up in its own process."""
    rep_work = work / f"setup-{rep}"
    rep_work.mkdir()
    started = time.perf_counter()
    # No timeout: waiting with one polls in steps of up to 50 ms.
    subprocess.run([sys.executable, "-c", SETUP_PROBE, str(SRC), str(HERE),
                    name, str(seed), str(rep_work)],
                   stdout=subprocess.DEVNULL, check=True)
    return time.perf_counter() - started


def measure_one(workload, stack, index: int, tracer,
                fsyncs: Fsyncs) -> Sample:
    payload, experiment_id = stack.submission(index)
    sample = Sample(experiment_id, traced=tracer is not None)
    fsyncs_before = fsyncs.calls
    if tracer is not None:
        tracer.experiment_id = experiment_id
        tracer.peak_threads = threading.active_count()
        tracing.install(tracer, stack.director, stack.connector,
                        stack.client if stack.server is not None else None)
    try:
        run = workloads.drive(stack, payload, experiment_id)
    except Exception:  # noqa: BLE001 - a broken experiment is a failure
        sample.failure = traceback.format_exc(limit=3)
        return sample
    finally:
        if tracer is not None:
            tracer.uninstall()
        stack.forget_node_events()
    sample.cpu_s = run.cpu_s
    sample.fsyncs = fsyncs.calls - fsyncs_before
    sample.failure = workloads.check(stack, run, workload.waiter)
    if sample.failure is not None:
        return sample
    sample.at = {t["to"]: t["at"] for t in run.view["transitions"]}
    sample.makespan_s = sample.at["FINISHED"] - run.submitted
    sample.deploy_s = sample.at["READY"] - run.submitted
    sample.run_s = sample.at["FINISHED"] - sample.at["RUNNING"]
    results = workloads.flatten(run.results)
    sample.gaps = stage_gaps(results)
    if workload.waiter is not None:
        sample.releases = flag_releases(results, workload.waiter)
    if tracer is not None:
        sample.task_s = [r["finished_mono"] - r["started_mono"]
                         for r in results if r["task_name"] != workload.waiter]
        sample.peak_threads = tracer.peak_threads
        sample.record_bytes = len(json.dumps(
            stack.director.record(experiment_id).to_doc()))
    return sample


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def end_to_end(samples: list[Sample], waiter: str | None) -> dict:
    ok = [s for s in samples if s.failure is None]
    if not ok:
        return {}
    out = {name: timing([getattr(s, name) for s in ok], "s")
           for name in ("makespan_s", "deploy_s", "run_s")}
    out["cpu_s_per_exp"] = timing([s.cpu_s for s in ok], "s")
    delays = [d * 1e3 for s in ok for d in s.releases]
    if waiter is not None and delays:
        out["flag_release_p50_ms"] = entry(statistics.median(delays), "ms",
                                           len(delays))
        if samples_beyond(len(delays), 90) >= MIN_BEYOND:
            out["flag_release_p90_ms"] = entry(percentile(delays, 90), "ms",
                                               len(delays))
    return out


def per_layer(tracer, samples: list[Sample], waiter: str | None) -> dict:
    traced = [s for s in samples if s.traced and s.failure is None]
    untraced = [s for s in samples if not s.traced and s.failure is None]
    n = len(traced)
    ids = {s.experiment_id for s in traced}
    spans = [s for s in tracer.spans if s.experiment_id in ids]
    by_name = defaultdict(list)
    for span in spans:
        by_name[span.name].append(span)

    def calls(name: str) -> dict:
        return entry(len(by_name[name]) / n, "count", n)

    def last_end(name: str, eid: str) -> float:
        return max(s.end for s in by_name[name] if s.experiment_id == eid)

    selfs = self_times(spans)
    out = {
        "store.save_calls": calls("store.save"),
        "store.save_ms": mean_ms(by_name["store.save"]),
        "store.load_calls": calls("store.load"),
        "store.load_ms": mean_ms(by_name["store.load"]),
        "os.fsync_calls": entry(statistics.fmean(s.fsyncs for s in traced),
                                "count", n),
        "store.record_bytes": timing([s.record_bytes for s in traced],
                                     "bytes"),
        "gateway.ingest_ms": mean_ms(by_name["gateway.ingest"]),
        "gateway.fetch_bundle_ms": mean_ms(by_name["gateway.fetch_bundle"]),
        "director.mutate_calls": calls("director.mutate"),
        "director.mutate_self_ms": entry(
            statistics.fmean(selfs[s.span_id]
                             for s in by_name["director.mutate"]) * 1e3,
            "ms", len(by_name["director.mutate"])),
        "director.launch_span_s": timing(
            [last_end("connector.launch", s.experiment_id) - s.at["RUNNING"]
             for s in traced], "s"),
        "director.finish_lag_ms": timing(
            [s.at["FINISHED"] - last_end("gateway.ingest", s.experiment_id)
             for s in traced], "ms", scale=1e3),
        "connector.prepare_ms": mean_ms(by_name["connector.prepare"]),
        "connector.launch_ms": mean_ms(by_name["connector.launch"]),
        "connector.prepare_failed": entry(tracer.prepare_failed, "count", n),
        "compiler.compile_ms": mean_ms(by_name["compiler.compile"]),
        "compiler.plan_bytes": timing(tracer.plan_bytes, "bytes"),
        "executor.run_pipeline_ms": mean_ms(by_name["executor.run_pipeline"]),
        "executor.task_overhead_ms": entry(
            statistics.fmean(d for s in traced for d in s.task_s) * 1e3, "ms",
            sum(len(s.task_s) for s in traced)),
        "executor.spool_write_ms": mean_ms(by_name["executor.write_spool"]),
        "executor.peak_threads": timing([s.peak_threads for s in traced],
                                        "count"),
    }
    gaps = [g for s in traced for g in s.gaps]
    if gaps:
        out["executor.stage_gap_ms"] = timing(gaps, "ms", scale=1e3)
    if waiter is not None:
        releases = sum(len(s.releases) for s in traced)
        out["gateway.set_flag_ms"] = mean_ms(by_name["gateway.set_flag"])
        out["gateway.get_flag_ms"] = mean_ms(by_name["gateway.get_flag"])
        out["gateway.get_flag_calls"] = entry(
            len(by_name["gateway.get_flag"]) / releases, "count", releases)
    routes = [name for name in by_name if name.startswith("server.")]
    for name in routes:
        out[f"server.rtt_ms.{name.split('.', 1)[1]}"] = mean_ms(by_name[name])
    if routes:
        out["server.requests"] = entry(
            sum(len(by_name[name]) for name in routes) / n, "count", n)
    if untraced:
        for metric, attr in (("trace.overhead_pct", "makespan_s"),
                             ("trace.cpu_overhead_pct", "cpu_s")):
            base = statistics.median(getattr(s, attr) for s in untraced)
            with_trace = statistics.median(getattr(s, attr) for s in traced)
            out[metric] = entry((with_trace / base - 1) * 100, "%",
                                len(untraced) + n)
    return out


# ---------------------------------------------------------------------------
# output
# ---------------------------------------------------------------------------

def stamp(args) -> dict:
    try:
        top, sha = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
            capture_output=True, text=True, timeout=10,
            check=True).stdout.split()
        if Path(top).resolve() != ROOT:
            sha = None  # the enclosing repository is not this checkout
    except (OSError, subprocess.SubprocessError, ValueError):
        sha = None  # not a git checkout; src_digest still identifies it
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": sha,
        "src_digest": digest.hexdigest(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "setup_reps": SETUP_REPS,
    }


def render(name: str, metric: dict) -> str:
    extra = " ".join(f"{k}={v:.6g}" for k, v in metric.items()
                     if k.startswith("p"))
    return (f"{name:<28} {metric['value']:>14.6g} {metric['unit']:<6} "
            f"n={metric['n']} {extra}").rstrip()


def gated(spec: dict, trace: bool, metrics: dict) -> dict:
    """The metrics BENCHMARK.json names for this mode, as value and unit."""
    out = {}
    for declared in spec["per_layer" if trace else "end_to_end"]:
        metric = metrics.get(declared["name"])
        if metric is None or metric["unit"] != declared["unit"]:
            raise SystemExit(f"metric {declared['name']!r} was not measured "
                             f"in {declared['unit']!r}")
        out[declared["name"]] = {"value": metric["value"],
                                 "unit": metric["unit"]}
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out-dir", type=Path, default=HERE / "results")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{sorted(workloads.WORKLOADS)}")

    info = stamp(args)
    # The whole run, set-up probes included, stays on one CPU. The program
    # runs one Python thread at a time; spread over two vCPUs, each hand-over
    # between its threads waits for the host to wake the other vCPU, and
    # that wait follows the host's load rather than the program.
    info["cpu"] = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {info["cpu"]})
    info["started_at"] = time.time()
    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    (work / "tmp").mkdir(parents=True)
    tempfile.tempdir = str(work / "tmp")  # simulator spools stay in the checkout
    tracer = tracing.Tracer() if args.trace else None
    stack = None
    fsyncs, real_fsync = Fsyncs(), os.fsync
    os.fsync = fsyncs
    # Set-up is timed SETUP_REPS times, spread over the run between
    # experiments: the host's speed shifts every few seconds, and set-ups
    # timed back to back would all see the same state.
    setup_times: list[float] = []

    def time_next_setup() -> None:
        setup_times.append(time_setup(args.workload, args.seed, work,
                                      len(setup_times)))

    try:
        time_next_setup()
        stack = workload.build(work / "platform", args.seed)
        warmup = measure_one(workload, stack, 0, None, fsyncs)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        samples: list[Sample] = []
        start = time.monotonic()
        end = start + args.seconds
        while time.monotonic() < end:
            if time.monotonic() >= (start + len(setup_times) * args.seconds
                                    / SETUP_REPS):
                time_next_setup()
                continue
            traced = tracer is not None and len(samples) % 2 == 0
            samples.append(measure_one(workload, stack, len(samples) + 1,
                                       tracer if traced else None, fsyncs))
        while len(setup_times) < SETUP_REPS:
            time_next_setup()
    finally:
        if stack is not None:
            stack.close()
        os.fsync = real_fsync
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()  # gone once no other run is using it
        except OSError:
            pass
        tempfile.tempdir = None
    info["finished_at"] = time.time()

    failures = [s for s in samples + [warmup] if s.failure is not None]
    attempted = len(samples)
    failed = sum(s.failure is not None for s in samples)
    metrics = end_to_end([s for s in samples if not s.traced], workload.waiter)
    metrics["failed_frac"] = entry(failed / attempted, "ratio", attempted)
    metrics["setup_s"] = entry(statistics.median(setup_times), "s",
                               len(setup_times))
    metrics["peak_rss_mb"] = entry(rss_mb, "MB", 1)
    if tracer is not None and any(s.traced and s.failure is None
                                  for s in samples):
        metrics.update(per_layer(tracer, samples, workload.waiter))

    args.out_dir.mkdir(parents=True, exist_ok=True)
    name = (f"{args.workload}-seed{args.seed}-trace{args.trace}-"
            f"{int(info['started_at'])}")
    result_path = args.out_dir / f"{name}.json"
    result_path.write_text(json.dumps({
        "stamp": info,
        "attempted": attempted,
        "failed": failed,
        "warmup_makespan_s": warmup.makespan_s,
        "setup_times_s": setup_times,
        "samples": [{"experiment_id": s.experiment_id, "traced": s.traced,
                     "makespan_s": s.makespan_s, "deploy_s": s.deploy_s,
                     "run_s": s.run_s, "cpu_s": s.cpu_s, "fsyncs": s.fsyncs}
                    for s in samples if s.failure is None],
        "failures": [f"{s.experiment_id}: {s.failure}" for s in failures[:10]],
        "metrics": metrics,
    }, indent=1), encoding="utf-8")
    if tracer is not None:
        with open(args.out_dir / f"{name}.spans.jsonl", "w",
                  encoding="utf-8") as handle:
            for span in tracer.spans:
                handle.write(json.dumps(span._asdict()) + "\n")

    for failure in failures[:10]:
        print(f"FAILED {failure.experiment_id}: {failure.failure}",
              file=sys.stderr)
    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          f"experiments={attempted} failed={failed} -> {result_path}")
    for metric_name, metric in metrics.items():
        print(render(metric_name, metric))
    if failed == attempted:
        sys.exit("no experiment passed its checks")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": gated(spec, bool(args.trace), metrics),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
