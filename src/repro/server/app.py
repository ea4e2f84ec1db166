"""The asyncio query server: ``repro serve`` and ``ServerHandle``.

:class:`ReproServer` wires the pieces together: one writer
:class:`~repro.session.Session` owning the live database, a
:class:`~repro.server.snapshot.SnapshotManager` publishing frozen
versions, a :class:`~repro.server.scheduler.QueryScheduler` answering
memo hits and view-covered reads on the event loop and running cold
evaluations in a thread pool, with coalescing, and a
:class:`~repro.server.scheduler.MutationScheduler` serializing writes.
The TCP front end speaks the line-oriented JSON protocol of
:mod:`repro.server.protocol`; :class:`ServerHandle` runs the same
server on a background thread for tests and embedding, exposing a
blocking ``request()``.

Shutdown is a graceful drain: new requests are refused with a
``shutting_down`` error while in-flight ones run to completion (up to
:data:`DRAIN_TIMEOUT` seconds), then the listeners close and the
worker pools join.
"""

from __future__ import annotations

import asyncio
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..datalog.database import Database
from ..datalog.planner import PlanCache
from ..session import Session
from .protocol import (
    MAX_LINE_BYTES,
    PROTOCOL_VERSION,
    ProtocolError,
    decode_line,
    encode_message,
    error_response,
    ok_response,
    validate_request,
)
from .scheduler import MutationScheduler, QueryScheduler, _to_protocol_error
from .snapshot import SnapshotManager

__all__ = ["ServerConfig", "ServerMetrics", "ReproServer", "ServerHandle"]

#: seconds a graceful stop waits for in-flight requests before closing
DRAIN_TIMEOUT = 5.0


@dataclass
class ServerConfig:
    """Tunables of one server instance.

    ``max_timeout`` / ``max_facts`` cap what clients may request per
    query (a client asking for more is clamped, not refused; a client
    asking for nothing gets the cap itself) -- the server, not the
    client, bounds how much work one request can buy.
    """

    host: str = "127.0.0.1"
    port: int = 0  # 0: let the OS pick (the bound port is reported)
    reader_threads: int = 4
    memo_size: int = 256
    max_timeout: Optional[float] = None
    max_facts: Optional[int] = None


@dataclass
class ServerMetrics:
    """Loop-confined counters behind the ``stats`` op."""

    started_at: float = field(default_factory=time.monotonic)
    queries: int = 0
    mutations: int = 0
    errors: int = 0
    latencies: List[float] = field(default_factory=list)
    _latency_cap: int = 4096

    def observe(self, seconds: float) -> None:
        self.latencies.append(seconds)
        if len(self.latencies) > self._latency_cap:
            # keep the newest half; cheap and good enough for p50/p95
            del self.latencies[: len(self.latencies) // 2]

    @staticmethod
    def _percentile(sorted_values: List[float], q: float) -> float:
        if not sorted_values:
            return 0.0
        index = min(
            len(sorted_values) - 1, int(q * (len(sorted_values) - 1))
        )
        return sorted_values[index]

    def summary(self) -> Dict[str, Any]:
        elapsed = max(time.monotonic() - self.started_at, 1e-9)
        ordered = sorted(self.latencies)
        return {
            "uptime": elapsed,
            "queries": self.queries,
            "mutations": self.mutations,
            "errors": self.errors,
            "qps": self.queries / elapsed,
            "latency_p50": self._percentile(ordered, 0.50),
            "latency_p95": self._percentile(ordered, 0.95),
        }


class ReproServer:
    """A concurrent query server over one program and one database."""

    def __init__(
        self,
        source: Optional[str] = None,
        *,
        program=None,
        database: Optional[Database] = None,
        config: Optional[ServerConfig] = None,
        plan_cache: Optional[PlanCache] = None,
        materialize: Optional[List[str]] = None,
    ):
        self.config = config or ServerConfig()
        # the writer session owns the live database; readers never see
        # it -- they see published snapshots
        self.session = Session(
            source, program=program, database=database,
            plan_cache=plan_cache,
        )
        if materialize:
            for target in materialize:
                self.session.materialize(target)
        self.snapshots = SnapshotManager(self.session.database)
        self.snapshots.publish(self.session.materialized_relations())
        self.queries = QueryScheduler(
            self.session.program,
            self.snapshots,
            reader_threads=self.config.reader_threads,
            memo_size=self.config.memo_size,
            max_timeout=self.config.max_timeout,
            max_facts=self.config.max_facts,
            plan_cache=self.session.plan_cache,
        )
        self.mutations = MutationScheduler(self.session, self.snapshots)
        self.metrics = ServerMetrics()
        self._server: Optional[asyncio.AbstractServer] = None
        self._draining = False
        self._active = 0
        self._idle: Optional[asyncio.Event] = None
        self._stopped: Optional[asyncio.Event] = None

    # ------------------------------------------------------------------
    # request handling (transport-independent)
    # ------------------------------------------------------------------
    async def handle_request(self, obj: Dict[str, Any]) -> Dict[str, Any]:
        """Answer one decoded request object; never raises."""
        request_id = obj.get("id") if isinstance(obj, dict) else None
        try:
            request = validate_request(obj)
        except ProtocolError as exc:
            self.metrics.errors += 1
            return error_response(request_id, exc)
        op = request["op"]
        if self._draining and op != "stats":
            self.metrics.errors += 1
            return error_response(
                request_id,
                ProtocolError("shutting_down", "server is draining"),
            )
        self._active += 1
        started = time.perf_counter()
        try:
            payload = await self._dispatch(request)
        except ProtocolError as exc:
            self.metrics.errors += 1
            return error_response(request_id, exc)
        except Exception as exc:  # belt and braces: keep serving
            self.metrics.errors += 1
            return error_response(request_id, _to_protocol_error(exc))
        finally:
            self._active -= 1
            if self._active == 0 and self._idle is not None:
                self._idle.set()
        if op == "query":
            self.metrics.queries += 1
            self.metrics.observe(time.perf_counter() - started)
        elif op in ("assert", "retract"):
            self.metrics.mutations += 1
        return ok_response(request_id, payload)

    async def _dispatch(self, request: Dict[str, Any]) -> Dict[str, Any]:
        op = request["op"]
        if op == "query":
            return await self.queries.execute(
                request["query"], request["options"]
            )
        if op in ("assert", "retract"):
            return await self.mutations.apply(op, request["facts"])
        if op == "stats":
            return {"stats": self.stats()}
        if op == "ping":
            return {"pong": True, "version": self.snapshots.current_version}
        if op == "shutdown":
            asyncio.get_running_loop().create_task(self.stop())
            return {"stopping": True}
        raise ProtocolError("bad_request", f"unhandled op {op!r}")

    def stats(self) -> Dict[str, Any]:
        out = self.metrics.summary()
        plan_cache = self.session.plan_cache
        out.update(
            plan_cache_hits=plan_cache.hits,
            plan_cache_misses=plan_cache.misses,
            protocol=PROTOCOL_VERSION,
            version=self.snapshots.current_version,
            snapshots_live=self.snapshots.live_count,
            snapshots_published=self.snapshots.published,
            cold_evaluations=self.queries.cold_evaluations,
            memo_hits=self.queries.memo_hits,
            coalesced=self.queries.coalesced,
            view_serves=self.queries.view_serves,
            mutations_applied=self.mutations.mutations,
            mutations_rolled_back=self.mutations.rolled_back,
            draining=self._draining,
        )
        return out

    # ------------------------------------------------------------------
    # TCP front end
    # ------------------------------------------------------------------
    async def start(self) -> Tuple[str, int]:
        """Bind and start serving; returns the bound ``(host, port)``."""
        self._idle = asyncio.Event()
        self._idle.set()
        self._stopped = asyncio.Event()
        self._server = await asyncio.start_server(
            self._serve_connection,
            self.config.host,
            self.config.port,
            limit=MAX_LINE_BYTES,
        )
        host, port = self._server.sockets[0].getsockname()[:2]
        return host, port

    async def _serve_connection(self, reader, writer) -> None:
        try:
            while True:
                try:
                    line = await reader.readline()
                except (ConnectionError, asyncio.IncompleteReadError):
                    break
                except ValueError:  # the line overran MAX_LINE_BYTES
                    await self._refuse_oversized_line(reader, writer)
                    break
                if not line:
                    break
                stripped = line.strip()
                if not stripped:
                    continue
                try:
                    obj = decode_line(stripped)
                except ProtocolError as exc:
                    response = error_response(None, exc)
                else:
                    response = await self.handle_request(obj)
                writer.write(encode_message(response))
                try:
                    await writer.drain()
                except ConnectionError:
                    break
        finally:
            try:
                writer.close()
            except Exception:
                pass

    async def _refuse_oversized_line(self, reader, writer) -> None:
        """Answer an overlong line once, then end the conversation.

        The stream reader has dropped the part of the line it read, so
        the next line boundary is unknown.  The reply is followed by
        end-of-file, and whatever the client still sends is read and
        dropped until it closes: closing with unread input would reset
        the connection and could destroy the reply in flight.
        """
        self.metrics.errors += 1
        error = ProtocolError(
            "bad_request",
            f"request line longer than {MAX_LINE_BYTES} bytes; "
            "closing the connection",
            detail={"limit": MAX_LINE_BYTES},
        )
        try:
            writer.write(encode_message(error_response(None, error)))
            writer.write_eof()
            while await reader.read(MAX_LINE_BYTES):
                pass
        except ConnectionError:
            pass

    async def stop(self) -> None:
        """Graceful drain: refuse new work, finish in-flight, close."""
        if self._draining:
            if self._stopped is not None:
                await self._stopped.wait()
            return
        self._draining = True
        if self._idle is not None:
            if self._active > 0:
                self._idle.clear()
            try:
                await asyncio.wait_for(
                    self._idle.wait(), DRAIN_TIMEOUT
                )
            except asyncio.TimeoutError:
                pass  # drain deadline: close anyway
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        self.queries.shutdown()
        self.mutations.shutdown()
        self.session.close()
        if self._stopped is not None:
            self._stopped.set()


class ServerHandle:
    """A server running on a background thread, for tests and embedding.

    ``request()`` is blocking and thread-safe: it submits the request
    coroutine onto the server's event loop and waits for the response.
    Use as a context manager for deterministic teardown.
    """

    def __init__(self, server: ReproServer):
        self.server = server
        self.address: Optional[Tuple[str, int]] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._ready = threading.Event()
        self._startup_error: Optional[BaseException] = None
        self._listen = True

    @classmethod
    def start(
        cls,
        source: Optional[str] = None,
        *,
        program=None,
        database: Optional[Database] = None,
        config: Optional[ServerConfig] = None,
        materialize: Optional[List[str]] = None,
        listen: bool = True,
    ) -> "ServerHandle":
        server = ReproServer(
            source,
            program=program,
            database=database,
            config=config,
            materialize=materialize,
        )
        handle = cls(server)
        handle._listen = listen
        handle._thread = threading.Thread(
            target=handle._run, name="repro-serve", daemon=True
        )
        handle._thread.start()
        handle._ready.wait()
        if handle._startup_error is not None:
            raise handle._startup_error
        return handle

    def _run(self) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self._loop = loop
        try:
            if self._listen:
                self.address = loop.run_until_complete(self.server.start())
            else:
                loop.run_until_complete(self._start_headless())
        except BaseException as exc:
            self._startup_error = exc
            self._ready.set()
            loop.close()
            return
        self._ready.set()
        try:
            assert self.server._stopped is not None
            loop.run_until_complete(self.server._stopped.wait())
        finally:
            loop.close()

    async def _start_headless(self) -> None:
        # in-process only: requests through request(), no TCP listener
        self.server._idle = asyncio.Event()
        self.server._idle.set()
        self.server._stopped = asyncio.Event()

    def request(self, obj: Dict[str, Any], timeout: float = 60.0) -> Dict:
        if self._loop is None:
            raise RuntimeError("server is not running")
        future = asyncio.run_coroutine_threadsafe(
            self.server.handle_request(obj), self._loop
        )
        return future.result(timeout)

    def stats(self) -> Dict[str, Any]:
        response = self.request({"op": "stats"})
        return response["stats"]

    def close(self, timeout: float = 10.0) -> None:
        if self._loop is None or self._thread is None:
            return
        if not self._thread.is_alive():
            return
        future = asyncio.run_coroutine_threadsafe(
            self.server.stop(), self._loop
        )
        try:
            future.result(timeout)
        except Exception:
            pass
        self._thread.join(timeout)

    def __enter__(self) -> "ServerHandle":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
