"""The wire protocol of ``repro serve``: line-oriented JSON.

One request per line, one response per line, UTF-8, ``\\n``-terminated.
A request is an object with an ``op`` and an optional client-chosen
``id`` (echoed back verbatim, so clients may pipeline)::

    {"id": 1, "op": "query", "query": "anc(john, X)?",
     "options": {"method": "auto", "timeout": 2.0}}
    {"id": 2, "op": "assert", "facts": ["edge(a, b)."]}
    {"id": 3, "op": "stats"}

A response is either ``{"id": ..., "ok": true, ...payload}`` or
``{"id": ..., "ok": false, "error": {"code": ..., "message": ...,
"exit_code": ...}}``.  Error codes mirror the CLI's exit codes
(:data:`ERROR_EXIT_CODES`), so a thin shell client can exit with the
server's verdict unchanged: a tripped per-request budget is ``4`` on
the wire exactly as ``repro query --timeout`` is ``4`` in the shell.

This module is deliberately transport-free -- pure bytes <-> dict
codecs plus request validation -- so the asyncio app, the in-process
``ServerHandle``, and the blocking client all share one source of
truth for message shapes.
"""

from __future__ import annotations

import json
import math
from typing import Any, Dict, Iterable, List, Optional, Tuple

from ..core.pipeline import ENGINES

__all__ = [
    "PROTOCOL_VERSION",
    "MAX_LINE_BYTES",
    "ERROR_EXIT_CODES",
    "QUERY_OPTION_FIELDS",
    "ProtocolError",
    "encode_message",
    "decode_line",
    "ok_response",
    "error_response",
    "validate_request",
    "normalize_options",
]

PROTOCOL_VERSION = 1

#: the longest request line the server reads (asyncio's default stream
#: limit); a longer one is answered with one ``bad_request`` error, and
#: the server then closes the connection
MAX_LINE_BYTES = 64 * 1024

#: error code -> the exit code a CLI front end should surface.  The
#: mapping intentionally matches ``repro.cli.main``: 2 is argparse-style
#: usage/parse trouble, 1 a clean evaluation error, 4 a tripped budget,
#: 5 a server draining, 70 (EX_SOFTWARE) an internal fault.
ERROR_EXIT_CODES: Dict[str, int] = {
    "bad_request": 2,
    "parse_error": 2,
    "evaluation_error": 1,
    "budget_exceeded": 4,
    "shutting_down": 5,
    "internal_error": 70,
}

#: client-settable query options; anything else in ``options`` is a
#: ``bad_request`` (catching typos like ``max_fact`` loudly instead of
#: silently running unbudgeted)
QUERY_OPTION_FIELDS = ("method", "engine", "timeout", "max_facts")

_OPS = ("query", "assert", "retract", "stats", "ping", "shutdown")


class ProtocolError(Exception):
    """A structured request-level failure.

    Carries the wire ``code`` (a key of :data:`ERROR_EXIT_CODES`) and
    an optional ``detail`` object serialized alongside the message.
    """

    def __init__(self, code: str, message: str, detail: Optional[dict] = None):
        if code not in ERROR_EXIT_CODES:
            raise ValueError(f"unknown protocol error code {code!r}")
        super().__init__(message)
        self.code = code
        self.message = message
        self.detail = detail

    @property
    def exit_code(self) -> int:
        return ERROR_EXIT_CODES[self.code]


def encode_message(obj: Dict[str, Any]) -> bytes:
    """One message as one compact, newline-terminated JSON line."""
    return (
        json.dumps(obj, separators=(",", ":"), sort_keys=True) + "\n"
    ).encode("utf-8")


def decode_line(line: bytes) -> Dict[str, Any]:
    """Parse one received line into a message object."""
    try:
        obj = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError("parse_error", f"malformed JSON line: {exc}")
    if not isinstance(obj, dict):
        raise ProtocolError(
            "bad_request", "a request must be a JSON object"
        )
    return obj


def ok_response(request_id: Any, payload: Dict[str, Any]) -> Dict[str, Any]:
    out = dict(payload)
    out["id"] = request_id
    out["ok"] = True
    return out


def error_response(request_id: Any, exc: ProtocolError) -> Dict[str, Any]:
    error: Dict[str, Any] = {
        "code": exc.code,
        "message": exc.message,
        "exit_code": exc.exit_code,
    }
    if exc.detail:
        error["detail"] = exc.detail
    return {"id": request_id, "ok": False, "error": error}


def normalize_options(options: Optional[dict]) -> Dict[str, Any]:
    """Validate and normalize a request's ``options`` object.

    Returns a plain dict restricted to :data:`QUERY_OPTION_FIELDS`,
    with types checked; server-side caps are applied later by the
    scheduler (the protocol layer does not know the server config).
    """
    if options is None:
        return {}
    if not isinstance(options, dict):
        raise ProtocolError("bad_request", "options must be an object")
    unknown = sorted(set(options) - set(QUERY_OPTION_FIELDS))
    if unknown:
        raise ProtocolError(
            "bad_request",
            f"unknown query option(s) {unknown}; supported: "
            f"{list(QUERY_OPTION_FIELDS)}",
        )
    out: Dict[str, Any] = {}
    method = options.get("method")
    if method is not None:
        if not isinstance(method, str):
            raise ProtocolError("bad_request", "method must be a string")
        out["method"] = method
    engine = options.get("engine")
    if engine is not None:
        if engine not in ENGINES:
            raise ProtocolError(
                "bad_request", f"engine must be one of {list(ENGINES)}"
            )
        out["engine"] = engine
    timeout = options.get("timeout")
    if timeout is not None:
        # NaN passes `<= 0` and `min()` with a server cap, and a NaN
        # deadline never trips: only a finite positive timeout is one
        if not isinstance(timeout, (int, float)) or isinstance(
            timeout, bool
        ) or not 0 < timeout < math.inf:
            raise ProtocolError(
                "bad_request", "timeout must be a positive finite number"
            )
        out["timeout"] = float(timeout)
    max_facts = options.get("max_facts")
    if max_facts is not None:
        if not isinstance(max_facts, int) or isinstance(
            max_facts, bool
        ) or max_facts <= 0:
            raise ProtocolError(
                "bad_request", "max_facts must be a positive integer"
            )
        out["max_facts"] = max_facts
    return out


def _require_facts(obj: dict) -> List[str]:
    facts = obj.get("facts")
    if (
        not isinstance(facts, list)
        or not facts
        or not all(isinstance(f, str) for f in facts)
    ):
        raise ProtocolError(
            "bad_request",
            "facts must be a non-empty list of fact strings "
            '(e.g. ["edge(a, b)."])',
        )
    return facts


def validate_request(obj: Dict[str, Any]) -> Dict[str, Any]:
    """Check shape and normalize one decoded request object.

    Returns ``{"id", "op", ...op-specific fields}``; raises
    :class:`ProtocolError` (``bad_request``) on anything malformed.
    """
    op = obj.get("op")
    if op not in _OPS:
        raise ProtocolError(
            "bad_request", f"unknown op {op!r}; expected one of {_OPS}"
        )
    out: Dict[str, Any] = {"id": obj.get("id"), "op": op}
    if op == "query":
        query = obj.get("query")
        if not isinstance(query, str) or not query.strip():
            raise ProtocolError(
                "bad_request", "query must be a non-empty string"
            )
        out["query"] = query
        out["options"] = normalize_options(obj.get("options"))
    elif op in ("assert", "retract"):
        out["facts"] = _require_facts(obj)
    return out


def sorted_rows(rows: Iterable[Tuple[object, ...]]) -> List[List[object]]:
    """Answer rows as deterministically ordered JSON-ready lists."""
    return sorted(
        ([_jsonable(v) for v in row] for row in rows),
        key=lambda row: [str(v) for v in row],
    )


def _jsonable(value: object) -> object:
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return str(value)
