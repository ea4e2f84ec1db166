"""Read and write scheduling for the query server.

Two schedulers share one :class:`~repro.server.snapshot.SnapshotManager`:

:class:`QueryScheduler`
    Answers each read against the snapshot that was current when the
    request arrived.  Everything but evaluation runs on the asyncio
    event loop: the answer memo keyed ``(query text, QueryOptions,
    version)``,
    parsing, the in-flight table that coalesces identical cold queries
    into one evaluation, and reads a published view covers -- an
    indexed selection, whose cost is bounded by the reply the loop
    encodes anyway.  All of it is loop-confined and needs no locks.
    Only a cold evaluation, whose cost the reply does not bound, leaves
    the loop, for the reader thread pool, where it is one
    :func:`~repro.core.pipeline.answer_query` call on the pinned
    snapshot's database -- sharing the server's plan cache, so a shape
    is adorned and rewritten (or rejected) once per process.

:class:`MutationScheduler`
    Serializes every mutation through one writer: an ``asyncio.Lock``
    in front of a single-thread executor.  A batch applies atomically
    -- mutations are captured in a ``Database`` mutation log, and any
    failure mid-batch replays the log's inverse before re-raising, so
    the live database returns to its pre-batch state and, because a
    new snapshot is published only after a *successful* batch, no
    reader ever observes a partially applied mutation.  A committed
    batch runs incremental view maintenance (via ``Session.batch``)
    and publishes the next version together with whatever views came
    out fresh, shared copy-on-write.
"""

from __future__ import annotations

import asyncio
import time
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Dict, List, Optional, Tuple

from ..core.limits import BudgetExceeded, EvaluationBudget, EvaluationCancelled
from ..core.pipeline import QueryOptions, answer_query, unwrap_values
from ..datalog.ast import Query
from ..datalog.database import Database
from ..datalog.errors import ParseError, ReproError
from ..datalog.parser import parse_query
from ..datalog.planner import PlanCache
from ..session import Session
from .protocol import ProtocolError, sorted_rows
from .snapshot import Snapshot, SnapshotManager

__all__ = ["QueryScheduler", "MutationScheduler"]


def _to_protocol_error(exc: BaseException) -> ProtocolError:
    """Map an evaluation-layer exception onto a wire error."""
    if isinstance(exc, ProtocolError):
        return exc
    if isinstance(exc, BudgetExceeded):
        return ProtocolError(
            "budget_exceeded",
            str(exc),
            detail={
                "limit": exc.limit,
                "facts": exc.facts,
                "stratum": exc.stratum,
                "round": exc.round,
                "elapsed": exc.elapsed,
                "method": exc.method,
            },
        )
    if isinstance(exc, EvaluationCancelled):
        return ProtocolError("budget_exceeded", str(exc))
    if isinstance(exc, ParseError):
        return ProtocolError("parse_error", str(exc))
    if isinstance(exc, (ReproError, ValueError)):
        return ProtocolError("evaluation_error", str(exc))
    return ProtocolError(
        "internal_error", f"{type(exc).__name__}: {exc}"
    )


class QueryScheduler:
    """Executes reads against pinned snapshots, with memo + coalescing.

    Memo hits, view-covered reads and requests that fail before
    evaluation are answered on the loop; the reader pool only
    evaluates cold queries.  Must be used from a single asyncio event
    loop (the server's); the memo and in-flight tables are
    loop-confined by construction.
    """

    def __init__(
        self,
        program,
        snapshots: SnapshotManager,
        *,
        reader_threads: int = 4,
        workers: int = 1,
        memo_size: int = 256,
        max_timeout: Optional[float] = None,
        max_facts: Optional[int] = None,
        default_timeout: Optional[float] = None,
        default_max_facts: Optional[int] = None,
        plan_cache: Optional[PlanCache] = None,
    ):
        self._program = program
        self._snapshots = snapshots
        self._pool = ThreadPoolExecutor(
            max_workers=max(1, reader_threads),
            thread_name_prefix="repro-reader",
        )
        self._workers = max(1, workers)
        self._memo_size = memo_size
        self._memo: "OrderedDict[tuple, Dict[str, Any]]" = OrderedDict()
        self._inflight: Dict[tuple, "asyncio.Future"] = {}
        self._max_timeout = max_timeout
        self._max_facts = max_facts
        self._default_timeout = default_timeout
        self._default_max_facts = default_max_facts
        self._plan_cache = plan_cache
        # counters (loop-confined, read by /stats)
        self.cold_evaluations = 0
        self.memo_hits = 0
        self.coalesced = 0
        self.view_serves = 0

    def _capped_budget_options(
        self, options: Dict[str, Any]
    ) -> Tuple[Optional[float], Optional[int]]:
        """Client budget options clamped to the server's caps."""
        timeout = options.get("timeout", self._default_timeout)
        if self._max_timeout is not None:
            timeout = (
                self._max_timeout
                if timeout is None
                else min(timeout, self._max_timeout)
            )
        max_facts = options.get("max_facts", self._default_max_facts)
        if self._max_facts is not None:
            max_facts = (
                self._max_facts
                if max_facts is None
                else min(max_facts, self._max_facts)
            )
        return timeout, max_facts

    async def execute(
        self, query_text: str, options: Dict[str, Any]
    ) -> Dict[str, Any]:
        """Answer one query request; returns the response payload.

        Everything but a cold evaluation is answered here, on the loop,
        and every exit releases the snapshot the request pinned.
        """
        try:
            query_options = QueryOptions(
                method=options.get("method", "auto"),
                engine=options.get("engine", "seminaive"),
                workers=self._workers,
            )
        except ValueError as exc:
            raise ProtocolError("bad_request", str(exc))
        method = query_options.method
        snapshot = self._snapshots.current()
        try:
            text = query_text.strip()
            key = (text, query_options, snapshot.version)
            cached = self._memo.get(key)
            if cached is not None:
                self._memo.move_to_end(key)
                self.memo_hits += 1
                return dict(cached, served="memo")
            started = time.perf_counter()
            try:
                query = parse_query(text)
            except ParseError as exc:
                raise _to_protocol_error(exc)
            base: Dict[str, Any] = {"version": snapshot.version, "query": text}
            # a maintained view published with this snapshot answers by
            # indexed selection, whose cost is the answer the loop
            # encodes next -- no evaluation, no database copy, no thread
            view_rel = snapshot.views.get(query.literal.pred_key)
            if view_rel is not None and method in ("auto", "materialized"):
                rows = view_rel.answers(query.literal)
                base.update(
                    served="view",
                    method="materialized",
                    rows=sorted_rows(unwrap_values(rows)),
                    row_count=len(rows),
                    elapsed=time.perf_counter() - started,
                )
                self.view_serves += 1
                self._remember(key, base)
                return dict(base)
            if method == "materialized":
                raise ProtocolError(
                    "bad_request",
                    f"no maintained view covers {query.literal.pred_key!r} "
                    "in the current snapshot",
                )
            pending = self._inflight.get(key)
            if pending is None:
                return await self._evaluate_cold(
                    key, base, query, query_options, options, snapshot
                )
            self.coalesced += 1
        finally:
            snapshot.release()
        payload = await asyncio.shield(pending)
        return dict(payload, served="coalesced")

    async def _evaluate_cold(
        self,
        key: tuple,
        base: Dict[str, Any],
        query: Query,
        query_options: QueryOptions,
        options: Dict[str, Any],
        snapshot: Snapshot,
    ) -> Dict[str, Any]:
        """Evaluate on the reader pool; identical requests coalesce."""
        loop = asyncio.get_running_loop()
        future: "asyncio.Future" = loop.create_future()
        self._inflight[key] = future
        timeout, max_facts = self._capped_budget_options(options)
        try:
            payload = await loop.run_in_executor(
                self._pool,
                self._evaluate,
                base,
                query,
                query_options,
                timeout,
                max_facts,
                snapshot,
            )
        except BaseException as exc:
            # waiters coalesced onto this evaluation share its failure
            error = _to_protocol_error(exc)
            if not future.cancelled():
                future.set_exception(error)
                # consumed by every coalesced waiter via `await shield`;
                # retrieve here too so lone failures do not warn
                future.exception()
            raise error
        else:
            self.cold_evaluations += 1
            self._remember(key, payload)
            if not future.cancelled():
                future.set_result(payload)
            return dict(payload)
        finally:
            self._inflight.pop(key, None)

    def _remember(self, key: tuple, payload: Dict[str, Any]) -> None:
        self._memo[key] = payload
        while len(self._memo) > self._memo_size:
            self._memo.popitem(last=False)

    def _evaluate(
        self,
        base: Dict[str, Any],
        query: Query,
        query_options: QueryOptions,
        timeout: Optional[float],
        max_facts: Optional[int],
        snapshot: Snapshot,
    ) -> Dict[str, Any]:
        """Worker-thread body: evaluate ``query`` cold on ``snapshot``."""
        started = time.perf_counter()
        budget = EvaluationBudget.from_options(
            timeout=timeout, max_facts=max_facts
        )
        answer = answer_query(
            self._program,
            snapshot.db,
            query,
            query_options,
            plan_cache=self._plan_cache,
            meter=budget.start() if budget is not None else None,
        )
        base.update(
            served="cold",
            method=answer.strategy,
            degraded=answer.degraded,
            rows=sorted_rows(answer.values()),
            row_count=len(answer.answers),
            elapsed=time.perf_counter() - started,
        )
        return base

    def shutdown(self) -> None:
        self._pool.shutdown(wait=True)


class MutationScheduler:
    """Serializes mutations through one writer thread, atomically."""

    def __init__(self, session: Session, snapshots: SnapshotManager):
        self._session = session
        self._snapshots = snapshots
        self._writer = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-writer"
        )
        # created lazily inside a coroutine: asyncio.Lock binds to the
        # running loop on construction before 3.10
        self._lock: Optional[asyncio.Lock] = None
        self.mutations = 0
        self.rolled_back = 0

    async def apply(self, op: str, facts: List[str]) -> Dict[str, Any]:
        if self._lock is None:
            self._lock = asyncio.Lock()
        loop = asyncio.get_running_loop()
        async with self._lock:
            try:
                payload = await loop.run_in_executor(
                    self._writer, self._apply, op, facts
                )
            except BaseException as exc:
                raise _to_protocol_error(exc)
        self.mutations += 1
        return payload

    def _apply(self, op: str, facts: List[str]) -> Dict[str, Any]:
        """Writer-thread body: apply the batch, maintain, publish.

        Wraps the batch in a mutation log; on any failure the log's
        inverse is replayed (newest first) before the exception
        propagates, so the live database is restored byte-for-byte and
        the current published snapshot stays the serving version.
        """
        session = self._session
        database: Database = session.database
        log = database.start_mutation_log()
        changed = 0
        try:
            with session.batch():
                for fact in facts:
                    if op == "assert":
                        outcome = session.assert_(fact)
                    else:
                        outcome = session.retract(fact)
                    changed += int(bool(outcome))
        except BaseException:
            database.stop_mutation_log(log)
            self._rollback(database, log)
            self.rolled_back += 1
            raise
        database.stop_mutation_log(log)
        views = session.materialized_relations()
        snap = self._snapshots.publish(views)
        return {
            "op": op,
            "changed": changed,
            "requested": len(facts),
            "version": snap.version,
            "views_published": sorted(views.predicate_keys()),
        }

    @staticmethod
    def _rollback(database: Database, log) -> None:
        for pred_key, idrow, sign in reversed(log):
            relation = database.relation(pred_key)
            if sign > 0:
                relation.discard_id_row(idrow)
            else:
                relation.add_id_row(idrow)

    def shutdown(self) -> None:
        self._writer.shutdown(wait=True)
