"""The one HTTP client under the CLI's and the executors' wire clients: a
keep-alive client over ``http.client`` that returns each reply's status and
JSON payload and leaves the status mapping to its callers. Proxy environment
variables are not honoured."""

from __future__ import annotations

import http.client
import json
import select
import urllib.parse
import weakref
from typing import Any

from .errors import TransportError


def quote(segment: str) -> str:
    """One URL path segment with every reserved character escaped, so an id
    holding ``/``, ``?``, ``#``, ``%``, a space or non-ASCII stays one
    segment; the server unquotes it."""
    return urllib.parse.quote(segment, safe="")


class HttpTransport:
    """Requests to one base URL over a pool of keep-alive connections.

    A request takes an idle connection, or opens one, and puts it back once
    the reply is read: no two threads share an ``HTTPConnection`` (it is not
    thread-safe), and a flag set never waits behind another thread's
    long-poll. The pool is closed when the transport is collected. A
    connection the server closed while idle is replaced before use; no
    request is sent twice.
    """

    def __init__(self, base_url: str, timeout_s: float):
        parts = urllib.parse.urlsplit(base_url)
        if parts.scheme not in ("http", "https") or not parts.hostname:
            raise TransportError(f"not an http(s) URL: {base_url!r}")
        self._connection_class = (http.client.HTTPSConnection
                                  if parts.scheme == "https"
                                  else http.client.HTTPConnection)
        self._address = (parts.hostname, parts.port)
        self._base_url = base_url.rstrip("/")
        self._prefix = parts.path.rstrip("/")
        self._timeout_s = timeout_s
        self._idle: list[http.client.HTTPConnection] = []
        weakref.finalize(self, _close_all, self._idle)

    def request(self, method: str, path: str, body: dict | bytes | None = None,
                timeout_s: float | None = None) -> tuple[int, Any]:
        """The reply's status and its JSON payload, or ``{"message": text}``
        for a reply that is not JSON. A ``dict`` body goes as JSON, ``bytes``
        as an octet stream. Raises TransportError if no reply arrives."""
        headers = {}
        if isinstance(body, bytes):
            headers["Content-Type"] = "application/octet-stream"
        elif body is not None:
            body = json.dumps(body).encode("utf-8")
            headers["Content-Type"] = "application/json"
        connection = self._take(
            self._timeout_s if timeout_s is None else timeout_s)
        try:
            connection.request(method, self._prefix + path, body, headers)
            response = connection.getresponse()
            data = response.read()
        except (OSError, http.client.HTTPException) as exc:
            connection.close()
            raise TransportError(
                f"{method} {self._base_url}{path}: {exc!r}") from exc
        self._idle.append(connection)
        try:
            payload = json.loads(data)
        except ValueError:
            payload = {"message": data.decode("utf-8", "replace")}
        return response.status, payload

    def _take(self, timeout_s: float) -> http.client.HTTPConnection:
        """An idle connection, or a new one, with ``timeout_s`` on its
        socket; list.pop is atomic, so no two threads take the same one."""
        try:
            connection = self._idle.pop()
        except IndexError:
            connection = self._connection_class(*self._address)
        if connection.sock is not None and _readable(connection.sock):
            # An idle connection has nothing to read unless the server
            # closed it; the next request opens a new one.
            connection.close()
        connection.timeout = timeout_s
        if connection.sock is not None:
            connection.sock.settimeout(timeout_s)
        return connection


def _close_all(connections: list[http.client.HTTPConnection]) -> None:
    for connection in connections:
        connection.close()


def _readable(sock) -> bool:
    if hasattr(select, "poll"):
        poller = select.poll()
        poller.register(sock, select.POLLIN)
        return bool(poller.poll(0))
    return bool(select.select([sock], [], [], 0)[0])
