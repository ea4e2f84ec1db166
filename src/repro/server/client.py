"""A blocking TCP client for ``repro serve``.

Speaks the line-oriented JSON protocol of
:mod:`repro.server.protocol`.  One socket, sequential requests; use
one client per thread (or one per concurrent task) -- the server side
is what multiplexes.  Error responses raise :class:`ServerError`,
which carries the structured code and the CLI-compatible exit code::

    with ReproClient(host, port) as client:
        rows = client.query("anc(john, X)?")["rows"]
        client.assert_facts(["par(zed, john)."])
        rows = client.query("anc(zed, X)?", timeout=2.0)["rows"]
"""

from __future__ import annotations

import socket
from typing import Any, Dict, Iterable, Optional

from .protocol import decode_line, encode_message

__all__ = ["ReproClient", "ServerError"]


class ServerError(Exception):
    """A structured error response from the server."""

    def __init__(
        self,
        code: str,
        message: str,
        exit_code: int,
        detail: Optional[dict] = None,
    ):
        super().__init__(f"[{code}] {message}")
        self.code = code
        self.message = message
        self.exit_code = exit_code
        self.detail = detail or {}


class ReproClient:
    """One connection to a running server."""

    def __init__(
        self, host: str, port: int, *, timeout: Optional[float] = 60.0
    ):
        self._sock = socket.create_connection((host, port), timeout=timeout)
        self._recv = self._sock.makefile("rb")
        self._next_id = 0

    # ------------------------------------------------------------------
    # transport
    # ------------------------------------------------------------------
    def request(self, obj: Dict[str, Any]) -> Dict[str, Any]:
        """Send one request, wait for its response, unwrap errors."""
        if "id" not in obj:
            self._next_id += 1
            obj = dict(obj, id=self._next_id)
        self._sock.sendall(encode_message(obj))
        line = self._recv.readline()
        if not line:
            raise ConnectionError("server closed the connection")
        response = decode_line(line)
        if not response.get("ok"):
            error = response.get("error") or {}
            raise ServerError(
                error.get("code", "internal_error"),
                error.get("message", "unknown server error"),
                error.get("exit_code", 70),
                error.get("detail"),
            )
        return response

    # ------------------------------------------------------------------
    # operations
    # ------------------------------------------------------------------
    def query(self, query: str, **options: Any) -> Dict[str, Any]:
        """Answer a query; keyword arguments become protocol options
        (``method``, ``timeout``, ``max_facts``)."""
        request: Dict[str, Any] = {"op": "query", "query": query}
        if options:
            request["options"] = options
        return self.request(request)

    def assert_facts(self, facts: Iterable[str]) -> Dict[str, Any]:
        return self.request({"op": "assert", "facts": list(facts)})

    def retract_facts(self, facts: Iterable[str]) -> Dict[str, Any]:
        return self.request({"op": "retract", "facts": list(facts)})

    def stats(self) -> Dict[str, Any]:
        return self.request({"op": "stats"})["stats"]

    def ping(self) -> Dict[str, Any]:
        return self.request({"op": "ping"})

    def shutdown(self) -> Dict[str, Any]:
        return self.request({"op": "shutdown"})

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        try:
            self._recv.close()
        finally:
            self._sock.close()

    def __enter__(self) -> "ReproClient":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
