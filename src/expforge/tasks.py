"""Builtin task library: self-contained, reusable tasks per node kind.

Every builtin ships implementations for both the simulated kind (hermetic
stubs so the whole platform can be exercised without real infrastructure)
and linux-shell (which also serves ssh hosts through the registry's fallback
chain). Implementations are reentrant and confine side effects to the node
scratch area and the explicit task context.
"""

from __future__ import annotations

import json
import re
import socket
import subprocess
import time
from typing import Any, Mapping

from .executor import TaskContext
from .model import BinaryRequirement, EnvironmentRequirement
from .registry import TaskError, TaskImplementation, TaskRegistry


def _require(params: Mapping[str, Any], key: str) -> Any:
    if key not in params:
        raise TaskError(f"missing required param {key!r}")
    return params[key]


def _number(params: Mapping[str, Any], key: str, default=None) -> float:
    value = params.get(key, default)
    if value is None:
        raise TaskError(f"missing required param {key!r}")
    try:
        return float(value)
    except (TypeError, ValueError):
        raise TaskError(f"param {key!r} must be a number, got {value!r}") from None


# ---------------------------------------------------------------------------
# sleep
# ---------------------------------------------------------------------------

class SleepTask(TaskImplementation):
    """Sleep for ``seconds``; the runtime may compress time in simulation."""

    task_type = "sleep"

    def __init__(self, kind: str):
        self.kind = kind

    def run(self, params, ctx: TaskContext):
        seconds = _number(params, "seconds")
        if seconds < 0:
            raise TaskError("seconds must be >= 0")
        if not ctx.runtime.sleep(seconds, ctx.cancel):
            raise TaskError("sleep cancelled")
        return json.dumps({"slept_s": seconds})


# ---------------------------------------------------------------------------
# shell
# ---------------------------------------------------------------------------

class ShellTask(TaskImplementation):
    """Run a command in the node's shell; success iff it exits 0.

    On simulated nodes the runtime interprets a small command vocabulary and
    records intent for everything else, keeping simulation hermetic.
    """

    task_type = "shell"

    def __init__(self, kind: str):
        self.kind = kind

    def run(self, params, ctx: TaskContext):
        command = str(_require(params, "command"))
        if not command.strip():
            raise TaskError("command must be non-empty")
        code, output = ctx.runtime.run_command(command, ctx.cancel)
        if code != 0:
            raise TaskError(f"command exited with code {code}", payload=output)
        return output


# ---------------------------------------------------------------------------
# coordination flags
# ---------------------------------------------------------------------------

class SetFlagTask(TaskImplementation):
    task_type = "set-flag"

    def __init__(self, kind: str):
        self.kind = kind

    def run(self, params, ctx: TaskContext):
        key = str(_require(params, "key"))
        if ctx.gateway is None:
            raise TaskError("gateway unreachable: no client configured")
        flag = ctx.gateway.set_flag(ctx.experiment_id, key, ctx.node.node_id)
        return json.dumps({"key": key, "flag": flag})


class WaitFlagTask(TaskImplementation):
    task_type = "wait-flag"

    def __init__(self, kind: str):
        self.kind = kind

    def run(self, params, ctx: TaskContext):
        key = str(_require(params, "key"))
        timeout_s = _number(params, "timeout_s", 60.0)
        if ctx.gateway is None:
            raise TaskError("gateway unreachable: no client configured")
        flag = ctx.gateway.wait_flag(ctx.experiment_id, key, timeout_s,
                                     cancel=ctx.cancel)
        if flag is None:
            raise TaskError(f"flag {key!r} not set within {timeout_s}s")
        return json.dumps({"key": key, "flag": flag})


# ---------------------------------------------------------------------------
# packet capture
# ---------------------------------------------------------------------------

def _register_capture(ctx: TaskContext, handle: str, entry: dict) -> None:
    with ctx.shared_lock:
        captures = ctx.shared.setdefault("captures", {})
        if handle in captures:
            raise TaskError(f"capture handle {handle!r} already active")
        captures[handle] = entry


def _pop_capture(ctx: TaskContext, handle: str) -> dict:
    with ctx.shared_lock:
        captures = ctx.shared.get("captures", {})
        if handle not in captures:
            raise TaskError("no active capture")
        return captures.pop(handle)


class CaptureStartTask(TaskImplementation):
    """Start tcpdump writing to ``out_path`` inside the node scratch."""

    task_type = "capture-start"
    kind = "linux-shell"
    environment = EnvironmentRequirement(
        binaries=(BinaryRequirement("tcpdump"),))

    def run(self, params, ctx: TaskContext):
        iface = str(params.get("iface", "any"))
        out_path = str(_require(params, "out_path"))
        handle = str(params.get("handle", "default"))
        runtime = ctx.runtime
        target = runtime.resolve(out_path)  # type: ignore[attr-defined]
        proc = subprocess.Popen(
            ["tcpdump", "-i", iface, "-w", str(target)],
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        _register_capture(ctx, handle, {
            "proc": proc, "iface": iface, "out_path": out_path})
        return json.dumps({"handle": handle, "iface": iface,
                           "out_path": out_path, "pid": proc.pid})


class CaptureStopTask(TaskImplementation):
    task_type = "capture-stop"
    kind = "linux-shell"

    def run(self, params, ctx: TaskContext):
        handle = str(params.get("handle", "default"))
        entry = _pop_capture(ctx, handle)
        proc = entry["proc"]
        proc.terminate()
        try:
            proc.wait(timeout=5)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        size = (ctx.runtime.file_size(entry["out_path"])
                if ctx.runtime.file_exists(entry["out_path"]) else 0)
        return json.dumps({"handle": handle, "out_path": entry["out_path"],
                           "size_bytes": size})


class SimCaptureStartTask(TaskImplementation):
    """Capture stub: records intent only, no packets exist in simulation."""

    task_type = "capture-start"
    kind = "simulated"
    cleanup_commands = ("stop-captures",)

    def run(self, params, ctx: TaskContext):
        iface = str(params.get("iface", "any"))
        out_path = str(_require(params, "out_path"))
        handle = str(params.get("handle", "default"))
        _register_capture(ctx, handle, {"iface": iface, "out_path": out_path})
        ctx.runtime.log_event(
            f"task:{ctx.stage_index}:{ctx.task_name}", "capture-start-intent",
            {"iface": iface, "out_path": out_path, "handle": handle})
        return json.dumps({"handle": handle, "iface": iface,
                           "out_path": out_path, "stub": True})


class SimCaptureStopTask(TaskImplementation):
    task_type = "capture-stop"
    kind = "simulated"
    cleanup_commands = ("stop-captures",)

    def run(self, params, ctx: TaskContext):
        handle = str(params.get("handle", "default"))
        entry = _pop_capture(ctx, handle)
        content = f"synthetic-capture({entry['iface']})"
        ctx.runtime.write_file(entry["out_path"], content)
        return json.dumps({"handle": handle, "out_path": entry["out_path"],
                           "size_bytes": len(content), "stub": True})


# ---------------------------------------------------------------------------
# ping
# ---------------------------------------------------------------------------

_PING_STATS = re.compile(
    r"(\d+) packets transmitted, (\d+)(?: packets)? received.*?"
    r"([\d.]+)% packet loss", re.DOTALL)
_PING_RTT = re.compile(
    r"(?:rtt|round-trip) [^=]*= ([\d.]+)/([\d.]+)/([\d.]+)")


def parse_ping_output(output: str) -> dict:
    stats = _PING_STATS.search(output)
    if not stats:
        raise TaskError("could not parse ping output", payload=output)
    summary = {
        "transmitted": int(stats.group(1)),
        "received": int(stats.group(2)),
        "loss_pct": float(stats.group(3)),
    }
    rtt = _PING_RTT.search(output)
    if rtt:
        summary["rtt_ms"] = {"min": float(rtt.group(1)),
                             "avg": float(rtt.group(2)),
                             "max": float(rtt.group(3))}
    return summary


class PingTask(TaskImplementation):
    task_type = "ping"
    kind = "linux-shell"
    environment = EnvironmentRequirement(binaries=(BinaryRequirement("ping"),))

    def run(self, params, ctx: TaskContext):
        target = str(_require(params, "target"))
        count = int(_number(params, "count", 1))
        if count < 1:
            raise TaskError("count must be >= 1")
        code, output = ctx.runtime.run_command(
            f"ping -c {count} -n {target}", ctx.cancel,
            timeout=10.0 * count + 10.0)
        if code != 0:
            raise TaskError(f"ping exited with code {code}", payload=output)
        summary = parse_ping_output(output)
        summary["target"] = target
        return json.dumps(summary)


class SimPingTask(TaskImplementation):
    """Synthetic zero-loss summary; latency is not modelled."""

    task_type = "ping"
    kind = "simulated"

    def run(self, params, ctx: TaskContext):
        target = str(_require(params, "target"))
        count = int(_number(params, "count", 1))
        if count < 1:
            raise TaskError("count must be >= 1")
        ctx.runtime.log_event(
            f"task:{ctx.stage_index}:{ctx.task_name}", "ping-intent",
            {"target": target, "count": count})
        return json.dumps({
            "target": target, "transmitted": count, "received": count,
            "loss_pct": 0.0,
            "rtt_ms": {"min": 0.1, "avg": 0.1, "max": 0.1},
            "synthetic": True,
        })


# ---------------------------------------------------------------------------
# port check
# ---------------------------------------------------------------------------

def _validate_port(params: Mapping[str, Any]) -> tuple[str, int]:
    host = str(_require(params, "host"))
    port = int(_number(params, "port"))
    if not 1 <= port <= 65535:
        raise TaskError(f"port must be in [1, 65535], got {port}")
    return host, port


class PortCheckTask(TaskImplementation):
    """TCP connect probe. A closed port is an observation, not an error."""

    task_type = "port-check"
    kind = "linux-shell"

    def run(self, params, ctx: TaskContext):
        host, port = _validate_port(params)
        timeout = _number(params, "timeout_s", 3.0)
        started = time.monotonic()
        try:
            with socket.create_connection((host, port), timeout=timeout):
                open_ = True
        except OSError:
            open_ = False
        return json.dumps({"host": host, "port": port, "open": open_,
                           "elapsed_s": round(time.monotonic() - started, 4)})


class SimPortCheckTask(TaskImplementation):
    task_type = "port-check"
    kind = "simulated"

    def run(self, params, ctx: TaskContext):
        host, port = _validate_port(params)
        ctx.runtime.log_event(
            f"task:{ctx.stage_index}:{ctx.task_name}", "port-check-intent",
            {"host": host, "port": port})
        return json.dumps({"host": host, "port": port, "open": True,
                           "synthetic": True})


# ---------------------------------------------------------------------------
# file upload
# ---------------------------------------------------------------------------

class UploadTask(TaskImplementation):
    """Ship scratch files to the experiment's artifact store.

    The gateway-hosted artifact store is the default (and only) destination;
    the optional ``destination_url`` param is accepted for manifest
    compatibility but must point at the gateway.
    """

    task_type = "upload"

    def __init__(self, kind: str):
        self.kind = kind

    def run(self, params, ctx: TaskContext):
        paths = params.get("paths", [])
        if isinstance(paths, str):
            paths = [paths]
        destination = str(params.get("destination_url", "gateway"))
        if destination not in ("", "gateway"):
            raise TaskError(
                f"only the gateway artifact store is supported as a "
                f"destination, got {destination!r}")
        if ctx.gateway is None:
            raise TaskError("gateway unreachable: no client configured")
        missing = [p for p in paths if not ctx.runtime.file_exists(p)]
        if missing:
            raise TaskError(f"missing files: {', '.join(sorted(missing))}")
        uploaded = []
        for path in paths:
            data = ctx.runtime.read_file(path)
            info = ctx.gateway.upload_artifact(
                ctx.experiment_id, ctx.node.node_id, path, data)
            uploaded.append({"path": path, "size_bytes": len(data),
                             "digest": info.get("digest")})
        return json.dumps({"uploaded": uploaded, "count": len(uploaded)})


# ---------------------------------------------------------------------------
# registry assembly
# ---------------------------------------------------------------------------

def builtin_implementations() -> list[TaskImplementation]:
    impls: list[TaskImplementation] = []
    for kind in ("simulated", "linux-shell"):
        impls.append(SleepTask(kind))
        impls.append(ShellTask(kind))
        impls.append(SetFlagTask(kind))
        impls.append(WaitFlagTask(kind))
        impls.append(UploadTask(kind))
    impls.extend([
        CaptureStartTask(), CaptureStopTask(),
        SimCaptureStartTask(), SimCaptureStopTask(),
        PingTask(), SimPingTask(),
        PortCheckTask(), SimPortCheckTask(),
    ])
    return impls


def builtin_registry() -> TaskRegistry:
    """Registry of all builtin tasks for simulated and linux-shell kinds."""
    return TaskRegistry(builtin_implementations())
