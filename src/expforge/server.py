"""HTTP service exposing the director's API and the gateway endpoints.

Routes (bodies are JSON, whatever their Content-Type; artifacts are bytes):

    POST /api/v1/experiments                submit a manifest document
    POST /api/v1/experiments/{id}/deploy    also: execute, cancel, cleanup
    GET  /api/v1/experiments/{id}           status view
    GET  /api/v1/experiments/{id}?wait_s=..&unless=S  view once not S (capped)
    GET  /api/v1/experiments/{id}/results   grouped results
    GET  /api/v1/nodes?key=value&...        node pool query

    GET  /gw/v1/bundle?exp=..&node=..       executor bundle fetch
    POST /gw/v1/report                      end-of-pipeline report
    POST /gw/v1/flags/{exp}/{key}           set coordination flag
    GET  /gw/v1/flags/{exp}/{key}           read coordination flag
    GET  /gw/v1/flags/{exp}/{key}?wait_s=.. wait up to wait_s (capped) for it
    POST /gw/v1/artifacts/{exp}/{node}?name=..  upload artifact bytes
    GET  /gw/v1/artifacts/{exp}             list stored artifacts

Ids, flag keys and node ids in a path are percent-quoted, one segment each.
Lifecycle conflicts answer 409, unknown ids 404, validation problems 400,
bodies over ``MAX_BODY_BYTES`` 413 (before any byte is read).
Endpoints are idempotent wherever the lifecycle allows (deploy while
deploying, execute while running, duplicate reports).
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import re
import signal
import threading
import urllib.parse
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Any

from .director import Director
from .errors import (
    AlreadyTerminal,
    ConnectorUnavailable,
    DuplicateExperimentName,
    ExpforgeError,
    InsufficientNodes,
    InvalidTransition,
    ManifestError,
    NotReady,
    UnknownAssignment,
    UnknownExperiment,
    ValidationFailed,
    WrongPhase,
)
from .manifest import manifest_from_doc, resolve_experiment
from .model import Status
from .store import FileStore

log = logging.getLogger("expforge.server")

# Far above the largest legitimate report or artifact upload.
MAX_BODY_BYTES = 64 * 1024 * 1024
# The longest one flag or status long-poll may hold a server thread.
MAX_FLAG_WAIT_S = 25.0
# How often the serving loop checks for ``stop``, which waits for it.
STOP_POLL_S = 0.05

_CONFLICTS = (InvalidTransition, NotReady, AlreadyTerminal, WrongPhase,
              DuplicateExperimentName)
_NOT_FOUND = (UnknownExperiment, UnknownAssignment)
_BAD_REQUEST = (ManifestError, ValidationFailed, InsufficientNodes,
                ConnectorUnavailable)


class _Rejected(Exception):
    """Answer with status ``args[0]`` and the message ``args[1]``."""


def _wait_seconds(text: str) -> float:
    try:
        seconds = float(text)
    except ValueError:
        seconds = math.nan
    if not 0 <= seconds < math.inf:
        raise _Rejected(400, f"wait_s must be a finite number >= 0: {text!r}")
    return min(seconds, MAX_FLAG_WAIT_S)


def _segments(route: re.Pattern, path: str) -> list[str] | None:
    """The path segments ``route`` captures, unquoted, if it matches."""
    match = route.match(path)
    return match and [urllib.parse.unquote(g) for g in match.groups()]


def _error_payload(exc: Exception) -> dict:
    payload: dict[str, Any] = {"error": type(exc).__name__,
                               "message": str(exc)}
    if isinstance(exc, ValidationFailed):
        payload["issues"] = [i.to_doc() for i in exc.issues]
    return payload


class _Handler(BaseHTTPRequestHandler):
    server_version = "expforge/0.1"
    protocol_version = "HTTP/1.1"
    # Headers and body go out in two writes; with Nagle on, the body waits
    # for the client's delayed ACK (about 40 ms per round trip).
    disable_nagle_algorithm = True
    director: Director  # assigned by PlatformServer

    # -- plumbing ------------------------------------------------------------

    def log_message(self, fmt: str, *args) -> None:
        log.debug("%s %s", self.address_string(), fmt % args)

    def _raw_body(self) -> bytes:
        declared = self.headers.get("Content-Length") or "0"
        length = int(declared) if declared.isdecimal() else -1
        if not 0 <= length <= MAX_BODY_BYTES:
            self.close_connection = True  # the unread body stays unread
            raise _Rejected(413 if length > MAX_BODY_BYTES else 400,
                            f"Content-Length {declared!r} is not in "
                            f"0..{MAX_BODY_BYTES}")
        return self.rfile.read(length) if length else b""

    def _body(self) -> Any:
        try:  # a UnicodeDecodeError is a ValueError too
            return json.loads(self._raw_body() or b"null")
        except ValueError as exc:
            raise ManifestError(f"request body is not valid JSON: {exc}")

    def _reply(self, code: int, payload: Any) -> None:
        data = json.dumps(payload).encode("utf-8")
        self.send_response(code)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        if self.close_connection:
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(data)

    def _dispatch(self, method: str) -> None:
        parsed = urllib.parse.urlsplit(self.path)
        query = dict(urllib.parse.parse_qsl(parsed.query))
        try:
            handled = self._route(method, parsed.path, query)
        except _Rejected as exc:
            self._reply(exc.args[0], {"error": "RequestRejected",
                                      "message": exc.args[1]})
        except _BAD_REQUEST as exc:
            self._reply(400, _error_payload(exc))
        except _NOT_FOUND as exc:
            self._reply(404, _error_payload(exc))
        except _CONFLICTS as exc:
            self._reply(409, _error_payload(exc))
        except ExpforgeError as exc:
            self._reply(500, _error_payload(exc))
        except Exception as exc:  # noqa: BLE001 - keep the server alive
            log.exception("unhandled error on %s %s", method, self.path)
            self._reply(500, {"error": "InternalError", "message": str(exc)})
        else:
            if not handled:
                self._reply(404, {"error": "NoSuchRoute",
                                  "message": f"{method} {parsed.path}"})

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        self._dispatch("GET")

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        self._dispatch("POST")

    # -- routing -------------------------------------------------------------

    _EXPERIMENT_ACTION = re.compile(
        r"^/api/v1/experiments/([^/]+)/(deploy|execute|cancel|cleanup)$")
    _EXPERIMENT = re.compile(r"^/api/v1/experiments/([^/]+)$")
    _RESULTS = re.compile(r"^/api/v1/experiments/([^/]+)/results$")
    _FLAG = re.compile(r"^/gw/v1/flags/([^/]+)/([^/]+)$")
    _ARTIFACTS = re.compile(r"^/gw/v1/artifacts/([^/]+)$")
    _ARTIFACT_UPLOAD = re.compile(r"^/gw/v1/artifacts/([^/]+)/([^/]+)$")

    def _route(self, method: str, path: str, query: dict[str, str]) -> bool:
        director = self.director
        gateway = director.gateway

        if method == "POST" and path == "/api/v1/experiments":
            doc = self._body()
            if not isinstance(doc, dict):
                raise ManifestError("experiment submission needs a manifest "
                                    "document")
            manifest = manifest_from_doc(doc)
            experiment = resolve_experiment(
                manifest,
                lambda filters, connector: director.query_nodes(filters,
                                                                connector))
            experiment_id = director.submit(experiment)
            self._reply(200, {"experiment_id": experiment_id})
            return True

        match = _segments(self._EXPERIMENT_ACTION, path)
        if method == "POST" and match:
            experiment_id, action = match
            if action == "deploy":
                director.deploy(experiment_id)
                self._reply(202, {"experiment_id": experiment_id,
                                  "action": "deploy"})
            elif action == "execute":
                director.execute(experiment_id)
                self._reply(202, {"experiment_id": experiment_id,
                                  "action": "execute"})
            elif action == "cancel":
                director.cancel(experiment_id)
                self._reply(200, {"experiment_id": experiment_id,
                                  "status": "CANCELLED"})
            else:
                outcomes = director.cleanup(experiment_id)
                self._reply(200, {"experiment_id": experiment_id,
                                  "cleanup": outcomes})
            return True

        match = _segments(self._RESULTS, path)
        if method == "GET" and match:
            self._reply(200, director.results(*match))
            return True

        match = _segments(self._EXPERIMENT, path)
        if method == "GET" and match:
            if "wait_s" not in query:
                self._reply(200, director.status(*match))
            elif query.get("unless") not in Status.__members__:
                raise _Rejected(400, "unless must be a status name")
            else:
                self._reply(200, director.wait_status(
                    *match, Status[query["unless"]],
                    _wait_seconds(query["wait_s"])))
            return True

        if method == "GET" and path == "/api/v1/nodes":
            connector = query.pop("connector", None)
            pool = director.query_nodes(query, connector)
            self._reply(200, {"nodes": [n.to_doc() for n in pool]})
            return True

        if method == "GET" and path == "/gw/v1/bundle":
            bundle = gateway.fetch_bundle(query.get("exp", ""),
                                          query.get("node", ""))
            self._reply(200, bundle.to_doc())
            return True

        if method == "POST" and path == "/gw/v1/report":
            report_doc = self._body()
            if not isinstance(report_doc, dict):
                raise ManifestError("report body must be a JSON document")
            result = gateway.ingest_report(report_doc)
            self._reply(200, {"result": result})
            return True

        match = _segments(self._FLAG, path)
        if match:
            experiment_id, key = match
            if method == "POST":
                body = self._body() or {}
                node_id = str(body.get("node_id", ""))
                gateway.require_assigned(experiment_id, node_id)
                flag = gateway.set_flag(experiment_id, key, node_id)
                self._reply(200, {"set": True, **flag})
            elif "wait_s" in query:
                flag = gateway.wait_flag(experiment_id, key,
                                         _wait_seconds(query["wait_s"]))
                self._reply(200, flag or {"set": False})
            else:
                self._reply(200, gateway.get_flag(experiment_id, key))
            return True

        match = _segments(self._ARTIFACT_UPLOAD, path)
        if method == "POST" and match:
            experiment_id, node_id = match
            meta = gateway.store_artifact(experiment_id, node_id,
                                          query.get("name", "artifact"),
                                          self._raw_body())
            self._reply(200, meta)
            return True

        match = _segments(self._ARTIFACTS, path)
        if method == "GET" and match:
            self._reply(200, {"artifacts": gateway.list_artifacts(*match)})
            return True

        return False


class PlatformServer:
    """Threaded HTTP server wrapping one director (API + gateway routes)."""

    def __init__(self, director: Director, host: str = "127.0.0.1",
                 port: int = 0):
        handler = type("BoundHandler", (_Handler,), {"director": director})
        self.director = director
        self.httpd = ThreadingHTTPServer((host, port), handler)
        self.httpd.daemon_threads = True
        self._thread: threading.Thread | None = None
        director.gateway_url = self.url

    @property
    def url(self) -> str:
        host, port = self.httpd.server_address[:2]
        return f"http://{host}:{port}"

    def start(self) -> "PlatformServer":
        self._thread = threading.Thread(
            target=self.httpd.serve_forever, args=(STOP_POLL_S,),
            daemon=True, name="expforge-http")
        self._thread.start()
        log.info("serving on %s", self.url)
        return self

    def stop(self) -> None:
        self.httpd.shutdown()
        self.httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5)
        self.director.close()


def main(argv: list[str] | None = None) -> int:
    from .connectors import load_connectors
    from .tasks import builtin_registry

    parser = argparse.ArgumentParser(
        prog="expforge-server",
        description="Run the experiment orchestration service")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8714)
    parser.add_argument("--store", default="./expforge-store",
                        help="directory for the embedded record store")
    parser.add_argument("--connectors", required=True,
                        help="connector configuration file (YAML)")
    parser.add_argument("--log-level", default="INFO")
    args = parser.parse_args(argv)

    logging.basicConfig(
        level=args.log_level.upper(),
        format="%(asctime)s %(name)s %(levelname)s %(message)s")

    store_dir = Path(args.store)
    director = Director(
        store=FileStore(store_dir / "records"),
        registry=builtin_registry(),
        connectors=load_connectors(args.connectors),
        artifact_root=store_dir / "artifacts",
    )
    server = PlatformServer(director, host=args.host, port=args.port)
    server.start()
    print(f"expforge server listening on {server.url}")

    stop = threading.Event()
    signal.signal(signal.SIGINT, lambda *_: stop.set())
    signal.signal(signal.SIGTERM, lambda *_: stop.set())
    stop.wait()
    server.stop()
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
