"""Experimenter command-line client.

Stateless: every command maps onto one director endpoint and all state lives
server-side, so killing and re-running any command is always safe. `run`
chains submit → deploy → execute and long-polls until the experiment ends.

Exit codes: 0 ok; 2 validation/parse failure; 3 lifecycle conflict;
4 not found; 5 transport failure; 6 experiment FAILED/CANCELLED or wait
timed out.

``DirectorClient`` speaks the director's HTTP API through the
standard-library client in ``transport.py``: experiment ids travel quoted,
one URL path segment each, and any status >= 400 raises ``ApiError``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
import urllib.parse
from pathlib import Path
from typing import Any

import yaml

from .errors import ManifestError, TransportError
from .manifest import parse_manifest
from .model import Status, TERMINAL_STATUSES
from .transport import HttpTransport, quote

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_CONFLICT = 3
EXIT_NOT_FOUND = 4
EXIT_TRANSPORT = 5
EXIT_EXPERIMENT = 6

DEFAULT_ENDPOINT = "http://127.0.0.1:8714"
STATUS_LONG_POLL_S = 20.0  # the longest asked for; the server caps it too


class ApiError(Exception):
    def __init__(self, status_code: int, payload: dict):
        super().__init__(payload.get("message", f"HTTP {status_code}"))
        self.status_code = status_code
        self.payload = payload

    @property
    def exit_code(self) -> int:
        if self.status_code == 404:
            return EXIT_NOT_FOUND
        if self.status_code == 409:
            return EXIT_CONFLICT
        if self.status_code == 400:
            return EXIT_VALIDATION
        return EXIT_TRANSPORT


class DirectorClient:
    """The director's HTTP API; any status >= 400 raises ApiError."""

    def __init__(self, endpoint: str, timeout_s: float = 30.0):
        self.endpoint = endpoint.rstrip("/")
        self.timeout_s = timeout_s
        self._transport = HttpTransport(endpoint, timeout_s)

    def _request(self, method: str, path: str, body: dict | None = None,
                 timeout_s: float | None = None) -> Any:
        status, payload = self._transport.request(method, path, body,
                                                  timeout_s)
        if status >= 400:
            raise ApiError(status, payload)
        return payload

    def _experiment(self, method: str, experiment_id: str,
                    action: str = "") -> Any:
        return self._request(
            method, f"/api/v1/experiments/{quote(experiment_id)}{action}")

    def submit(self, manifest_doc: dict) -> str:
        return self._request("POST", "/api/v1/experiments",
                             manifest_doc)["experiment_id"]

    def deploy(self, experiment_id: str) -> None:
        self._experiment("POST", experiment_id, "/deploy")

    def execute(self, experiment_id: str) -> None:
        self._experiment("POST", experiment_id, "/execute")

    def cancel(self, experiment_id: str) -> None:
        self._experiment("POST", experiment_id, "/cancel")

    def cleanup(self, experiment_id: str) -> dict:
        return self._experiment("POST", experiment_id, "/cleanup")

    def status(self, experiment_id: str, wait_s: float | None = None,
               unless: str | None = None) -> dict:
        """The status view; with ``wait_s``, once it is not ``unless``."""
        if wait_s is None:
            return self._experiment("GET", experiment_id)
        return self._request(
            "GET", f"/api/v1/experiments/{quote(experiment_id)}"
                   f"?wait_s={wait_s:.3f}&unless={quote(unless)}",
            timeout_s=self.timeout_s + wait_s)

    def results(self, experiment_id: str) -> dict:
        return self._experiment("GET", experiment_id, "/results")

    def nodes(self, filters: dict[str, str]) -> list[dict]:
        query = urllib.parse.urlencode(filters)
        return self._request("GET", f"/api/v1/nodes?{query}")["nodes"]


def _load_manifest_doc(path: str) -> dict:
    text = Path(path).read_text(encoding="utf-8")
    # Parse client-side first for early, line-numbered feedback.
    parse_manifest(text)
    return yaml.safe_load(text)


def _emit(doc: Any, output: str | None) -> None:
    rendered = yaml.safe_dump(doc, sort_keys=False, default_flow_style=False)
    if output:
        Path(output).write_text(rendered, encoding="utf-8")
        print(f"wrote {output}")
    else:
        print(rendered, end="")


def _wait_terminal(client: DirectorClient, experiment_id: str,
                   timeout: float | None,
                   until: set[str] | None = None) -> dict:
    """Long-poll status until a terminal (or requested) status or timeout."""
    targets = until or {s.value for s in TERMINAL_STATUSES}
    deadline = None if timeout is None else time.monotonic() + timeout
    view = client.status(experiment_id)
    while view["status"] not in targets:
        wait_s = STATUS_LONG_POLL_S if deadline is None \
            else min(deadline - time.monotonic(), STATUS_LONG_POLL_S)
        if wait_s <= 0:
            view["wait_timed_out"] = True
            break
        view = client.status(experiment_id, wait_s, unless=view["status"])
    return view


def _cmd_submit(client: DirectorClient, args) -> int:
    experiment_id = client.submit(_load_manifest_doc(args.manifest))
    print(experiment_id)
    return EXIT_OK


def _cmd_deploy(client: DirectorClient, args) -> int:
    client.deploy(args.experiment_id)
    print(f"deploying {args.experiment_id}")
    return EXIT_OK


def _cmd_execute(client: DirectorClient, args) -> int:
    client.execute(args.experiment_id)
    print(f"executing {args.experiment_id}")
    return EXIT_OK


def _cmd_status(client: DirectorClient, args) -> int:
    print(json.dumps(client.status(args.experiment_id), indent=2))
    return EXIT_OK


def _cmd_results(client: DirectorClient, args) -> int:
    _emit(client.results(args.experiment_id), args.output)
    return EXIT_OK


def _cmd_nodes(client: DirectorClient, args) -> int:
    filters = {}
    for item in args.filter:
        if "=" not in item:
            print(f"bad filter {item!r}, expected key=value", file=sys.stderr)
            return EXIT_VALIDATION
        key, value = item.split("=", 1)
        filters[key] = value
    if args.connector:
        filters["connector"] = args.connector
    for node in client.nodes(filters):
        attrs = " ".join(f"{k}={v}" for k, v in
                         sorted(node["attributes"].items()))
        print(f"{node['node_id']}\t{node['kind']}\t"
              f"{node['connector_ref']}\t{attrs}")
    return EXIT_OK


def _cmd_cancel(client: DirectorClient, args) -> int:
    client.cancel(args.experiment_id)
    print(f"cancelled {args.experiment_id}")
    return EXIT_OK


def _cmd_cleanup(client: DirectorClient, args) -> int:
    outcome = client.cleanup(args.experiment_id)
    print(json.dumps(outcome, indent=2))
    return EXIT_OK


def _cmd_run(client: DirectorClient, args) -> int:
    experiment_id = client.submit(_load_manifest_doc(args.manifest))
    print(f"submitted {experiment_id}")
    client.deploy(experiment_id)
    view = _wait_terminal(
        client, experiment_id, args.timeout,
        until={Status.READY.value} | {s.value for s in TERMINAL_STATUSES})
    if view.get("wait_timed_out"):
        print("timed out waiting for deployment", file=sys.stderr)
        return EXIT_EXPERIMENT
    if view["status"] != Status.READY.value:
        print(f"deployment ended in {view['status']}", file=sys.stderr)
        _print_errors(view)
        return EXIT_EXPERIMENT
    print(f"deployed ({view['prepared_count']} nodes prepared)")
    client.execute(experiment_id)
    view = _wait_terminal(client, experiment_id, args.timeout)
    if view.get("wait_timed_out"):
        print("timed out waiting for completion", file=sys.stderr)
        return EXIT_EXPERIMENT
    print(f"experiment {experiment_id}: {view['status']}")
    output = args.output or f"{experiment_id}.results.yaml"
    _emit(client.results(experiment_id), output)
    if view["status"] != Status.FINISHED.value:
        _print_errors(view)
        return EXIT_EXPERIMENT
    return EXIT_OK


def _print_errors(view: dict) -> None:
    for error in view.get("errors", ()):
        print(f"  {error.get('phase', '?')}: {error.get('message', '')}",
              file=sys.stderr)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="expforge",
        description="Client for the experiment orchestration service")
    parser.add_argument(
        "--endpoint",
        default=os.environ.get("EXPFORGE_ENDPOINT", DEFAULT_ENDPOINT),
        help="director endpoint (or EXPFORGE_ENDPOINT)")
    parser.add_argument("--timeout", type=float, default=None,
                        help="max seconds to wait in waiting commands")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("submit", help="submit a manifest")
    p.add_argument("manifest")
    p.set_defaults(func=_cmd_submit)

    for name, func in (("deploy", _cmd_deploy), ("execute", _cmd_execute),
                       ("cancel", _cmd_cancel), ("cleanup", _cmd_cleanup),
                       ("status", _cmd_status)):
        p = sub.add_parser(name)
        p.add_argument("experiment_id")
        p.set_defaults(func=func)

    p = sub.add_parser("results", help="fetch results")
    p.add_argument("experiment_id")
    p.add_argument("--output", default=None)
    p.set_defaults(func=_cmd_results)

    p = sub.add_parser("nodes", help="query the node pool")
    p.add_argument("filter", nargs="*", help="attribute filters key=value")
    p.add_argument("--connector", default=None)
    p.set_defaults(func=_cmd_nodes)

    p = sub.add_parser("run",
                       help="submit, deploy, execute, wait, fetch results")
    p.add_argument("manifest")
    p.add_argument("--output", default=None)
    p.set_defaults(func=_cmd_run)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(DirectorClient(args.endpoint), args)
    except ManifestError as exc:
        print(f"manifest error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except FileNotFoundError as exc:
        print(f"no such file: {exc.filename}", file=sys.stderr)
        return EXIT_VALIDATION
    except ApiError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except TransportError as exc:
        print(f"transport error: {exc}", file=sys.stderr)
        return EXIT_TRANSPORT


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
