"""A stateful session: versioned database, auto-dispatch, answer memo.

:func:`repro.answer_query` is the one evaluation path: it answers one
query against one database, with no memory of earlier calls beyond the
plan cache.  :class:`Session` is the surface shaped for repeated traffic
around it:

* it owns a :class:`~repro.datalog.database.Database` whose monotone
  ``version`` counter is bumped by every mutation, and supports
  incremental fact assertion *and retraction* between queries;
* :meth:`Session.query` returns the
  :class:`~repro.core.pipeline.QueryResult` that
  :func:`~repro.core.pipeline.answer_query` builds (rows, the method
  actually run, work counters) and accepts
  ``method="auto"``: magic-family
  rewriting through the shared plan cache -- for positive *and*
  stratified programs (the conservative negation extension) -- falling
  back to compiled stratified semi-naive only when the adornment
  machinery genuinely rejects the query's shape, with QSQ selectable
  explicitly;
* answers are memoized across evaluations, keyed by
  ``(query, QueryOptions)``, for one database version, as the query
  server's memo is: a repeated identical query is a dictionary hit,
  and any mutation (through the Session or out of band) drops every
  entry;
* a cold query goes to :func:`~repro.core.pipeline.answer_query`, which
  keeps what depends only on the program and the query's *shape* -- its
  predicate, which arguments are ground, the sip builder, the method
  and its rewrite options -- in the shared
  :class:`~repro.datalog.planner.PlanCache`: the adorned program, the
  rewritten program with its one ``Program`` object (under which the
  compiled join/subquery plans are cached in turn), the mirror table
  of ``seeded_database`` and ``auto``'s verdict.
  The entry outlives the session and mutations, and every session and
  the query server's cold reads over the same program and cache share
  it.

Quickstart::

    import repro

    session = repro.Session('''
        anc(X, Y) :- par(X, Y).
        anc(X, Y) :- par(X, Z), anc(Z, Y).
        par(john, mary). par(mary, sue).
    ''')
    result = session.query("anc(john, X)?")      # method="auto"
    assert ("sue",) in result.values()
    again = session.query("anc(john, X)?")       # memo hit: O(1)
    assert again.from_memo

    session.retract("par(mary, sue)")            # bumps the version,
    third = session.query("anc(john, X)?")       # drops the memo
    assert ("sue",) not in third.values()
"""

from __future__ import annotations

import time
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import replace
from typing import Dict, Iterable, List, Optional, Tuple, Union

from .core.limits import EvaluationBudget, governing_meter
from .core.pipeline import (
    BASELINE_METHODS,
    SESSION_METHODS,
    QueryOptions,
    QueryResult,
    answer_query,
)
from .core.sips import SipBuilder, build_full_sip
from .datalog.ast import Literal, Program, Query
from .datalog.database import Database
from .datalog.derivation import DerivationNode, explain_answers
from .datalog.errors import ReproError
from .datalog.ivm import MaintenanceResult, MaterializedProgram
from .datalog.parser import parse_literal, parse_program, parse_query
from .datalog.planner import PlanCache, shared_plan_cache
from .datalog.terms import Variable

__all__ = [
    "Session",
    "QueryResult",
    "MaterializedView",
    "SESSION_METHODS",
    "BASELINE_METHODS",
]

class MaterializedView:
    """A handle on incrementally maintained derived relations.

    Obtained from :meth:`Session.materialize`; all views of one session
    share a single :class:`~repro.datalog.ivm.MaterializedProgram`
    (the program is evaluated once, then maintained by deltas), so a
    view is cheap -- it records *which* predicates (or which query) it
    serves and answers from the shared maintained state.

    * ``view.rows`` -- a :class:`QueryResult` (``maintained=True``) for
      the view's query, maintaining first when mutations are pending;
    * ``view.version`` -- the database version the materialized state
      is synchronized to;
    * ``view.stale`` -- True when the state needs work before serving
      (pending mutations, or a maintenance pass aborted mid-way);
    * ``view.refresh()`` -- force maintenance now (a stale view is
      re-evaluated cold), returning the
      :class:`~repro.datalog.ivm.MaintenanceResult`;
    * ``view.drop()`` -- unregister; dropping the last view closes the
      shared materializer and stops delta capture.
    """

    def __init__(
        self,
        session: "Session",
        predicates: Iterable[str],
        query: Optional[Query] = None,
    ):
        self._session = session
        #: the predicate keys ``rows`` and ``tuples`` select among
        #: (``session.query`` serves every derived predicate of the
        #: shared materializer, whichever view asked for it)
        self.predicates = frozenset(predicates)
        #: the query this view answers, when created from one
        self.query = query
        self.dropped = False

    def _materializer(self) -> MaterializedProgram:
        if self.dropped or self._session._materializer is None:
            raise ReproError("this MaterializedView has been dropped")
        return self._session._materializer

    @property
    def version(self) -> int:
        """Database version the materialized state reflects."""
        return self._materializer().synced_version

    @property
    def stale(self) -> bool:
        """True when serving would need maintenance first: mutations
        are pending, or a prior maintenance pass aborted."""
        m = self._materializer()
        return m.stale or m.pending

    @property
    def rows(self) -> QueryResult:
        """Answer the view's query from maintained state (maintaining
        first if needed); a :class:`QueryResult` with
        ``maintained=True``."""
        return self._session._view_result(
            self._materializer(), self._query_literal()
        )

    def refresh(self) -> MaintenanceResult:
        """Run maintenance now.  Pending deltas are propagated; a stale
        view is rebuilt by cold re-evaluation.  Runs under any
        ``REPRO_FAULT_INJECT`` fault plan in the environment and
        propagates its faults (unlike the implicit maintenance on
        mutations, which degrades to staleness)."""
        return self._materializer().maintain(meter=governing_meter())

    def drop(self) -> None:
        """Unregister this view (idempotent)."""
        if not self.dropped:
            self.dropped = True
            self._session._drop_view(self)

    def tuples(self, pred_key: Optional[str] = None):
        """Raw maintained tuples of one covered predicate."""
        if pred_key is None:
            if len(self.predicates) != 1:
                raise ReproError(
                    "this view covers several predicates; pass "
                    f"tuples(pred_key) (one of {sorted(self.predicates)})"
                )
            (pred_key,) = self.predicates
        if pred_key not in self.predicates:
            raise ReproError(
                f"predicate {pred_key!r} is not covered by this view"
            )
        return self._materializer().tuples(pred_key)

    def _query_literal(self) -> Query:
        if self.query is not None:
            return self.query
        if len(self.predicates) != 1:
            raise ReproError(
                "this view covers several predicates; use "
                "session.query(...) or view.tuples(pred_key) instead of "
                ".rows"
            )
        (pred_key,) = self.predicates
        return self._session._all_free_query(pred_key)

    def __repr__(self):
        state = "dropped" if self.dropped else (
            "stale" if self.stale else "fresh"
        )
        return (
            f"MaterializedView({sorted(self.predicates)}, {state}, "
            f"version={self._session._materializer.synced_version if self._session._materializer else '-'})"
        )


class Session:
    """A stateful query session over one program and one database.

    Construct from surface syntax (rules, facts, and optionally queries
    in one string) or from a parsed :class:`Program` plus an optional
    :class:`Database`::

        session = Session(source)
        session = Session(program=program, database=db)

    Facts are asserted and retracted between queries through
    :meth:`assert_` and :meth:`retract` (one fact, an iterable of
    facts, or ``(pred, *values)``); every mutation bumps the database
    version and drops every memoized answer (so does an out-of-band
    mutation through direct ``Relation`` access, on the next read or
    write).
    ``session.query(...)`` accepts the query as text or as a parsed
    :class:`Query`, and ``method`` as one of :data:`SESSION_METHODS`
    (default ``"auto"``).

    :meth:`materialize` turns cold-per-mutation querying into
    incremental view maintenance: derived relations are evaluated once
    and then maintained by delta propagation on every assert/retract
    (``with session.batch():`` coalesces N mutations into one pass),
    and while a view is live :meth:`query` answers every derived
    predicate of the program from the maintained state before
    consulting the memo, as the query server serves its published
    views.
    """

    def __init__(
        self,
        source: Optional[str] = None,
        *,
        program: Optional[Program] = None,
        database: Optional[Database] = None,
        sip_builder: SipBuilder = build_full_sip,
        plan_cache: Optional[PlanCache] = None,
        memo_size: int = 1024,
    ):
        if source is not None and program is not None:
            raise ValueError("pass source or program, not both")
        queries: Tuple[Query, ...] = ()
        if source is not None:
            parsed = parse_program(source)
            program = parsed.program
            queries = parsed.queries
            if database is None:
                database = Database()
            database.add_fact_rows(parsed.fact_rows)
        elif program is None:
            raise ValueError("pass a source string or program=...")
        if database is None:
            database = Database()
        self._program = program
        self._database = database
        self._sip_builder = sip_builder
        self._plan_cache = (
            plan_cache if plan_cache is not None else shared_plan_cache()
        )
        #: queries embedded in the source, in order; query() defaults to
        #: the first one
        self.queries = queries
        self.memo_hits = 0
        self.memo_misses = 0
        self.memo_invalidations = 0
        self._memo_size = memo_size
        self._memo: "OrderedDict[tuple, QueryResult]" = OrderedDict()
        self._memo_version = database.version
        #: one shared MaterializedProgram backs every live view; created
        #: lazily by materialize(), closed when the last view drops
        self._materializer: Optional[MaterializedProgram] = None
        self._views: List["MaterializedView"] = []
        #: nesting depth of ``with session.batch():`` -- mutations
        #: inside a batch defer maintenance to batch exit
        self._batch_depth = 0

    # ------------------------------------------------------------------
    # state
    # ------------------------------------------------------------------
    @property
    def program(self) -> Program:
        return self._program

    @property
    def database(self) -> Database:
        return self._database

    @property
    def version(self) -> int:
        """The owned database's monotone mutation counter."""
        return self._database.version

    @property
    def plan_cache(self) -> PlanCache:
        return self._plan_cache

    def counters(self) -> Dict[str, int]:
        """Session-level cache counters, as one dict."""
        return {
            "memo_hits": self.memo_hits,
            "memo_misses": self.memo_misses,
            "memo_invalidations": self.memo_invalidations,
            "memo_entries": len(self._memo),
            "plan_cache_hits": self._plan_cache.hits,
            "plan_cache_misses": self._plan_cache.misses,
            "db_version": self.version,
        }

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Release everything this session accumulated (idempotent).

        Drops every live :class:`MaterializedView` (closing the shared
        materializer, which detaches its mutation log from the
        database) and clears the answer memo.  The
        program and database are untouched -- a closed session can be
        queried again (state simply rebuilds), which is what lets a
        server pool and recycle sessions without leaking materialized
        state.  The adorned and rewritten programs and ``auto``'s
        verdicts live in the plan cache, which outlives the session: the
        next session over the same program finds them.
        """
        for view in list(self._views):
            view.drop()
        if self._materializer is not None:
            self._materializer.close()
            self._materializer = None
        self._memo.clear()

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def materialized_relations(self) -> Database:
        """The fresh maintained derived relations, shared copy-on-write.

        A :meth:`Database.snapshot` of the materializer's derived
        relations: nothing is copied here, and for as long as the
        caller holds the returned database the next maintenance pass
        writes another version of each view it touches -- the version
        before, caught up, once no snapshot holds that one; a clone
        otherwise -- so the caller may hand it to concurrent readers
        while this session keeps mutating.  Relations read through it
        stay frozen only while it is held.  Empty when no views are live or the materializer is
        stale or has unapplied deltas -- never a stale answer.  This is
        the publish hook the query server uses to serve view-covered
        queries from a snapshot.
        """
        m = self._materializer
        if m is None or not self._views or not m.fresh:
            return Database()
        return m.working.snapshot(m.derived_keys)

    # ------------------------------------------------------------------
    # mutation (assertion / retraction)
    # ------------------------------------------------------------------
    def assert_(self, *args) -> Union[bool, int]:
        """Assert facts; the one assertion entry point.

        Three call shapes::

            session.assert_("par(a, b)")          # one fact -> bool
            session.assert_(literal)              # one Literal -> bool
            session.assert_(["par(a, b)", lit])   # iterable -> count
            session.assert_("par", "a", "b")      # (pred, *values) -> bool

        Every shape bumps the database version (no-ops excepted: a
        re-assert of a present fact leaves the version and the memo
        untouched), drops every memo entry, and -- when materialized
        views exist and no :meth:`batch` is open -- triggers one
        incremental maintenance pass.
        """
        return self._mutate(True, args)

    def retract(self, *args) -> Union[bool, int]:
        """Retract facts; same call shapes as :meth:`assert_`.

        A retract of an absent fact is a no-op: the version stays, the
        memo stays, no maintenance runs.
        """
        return self._mutate(False, args)

    def _mutate(self, asserting: bool, args: tuple) -> Union[bool, int]:
        """The one dispatch point behind assert_/retract."""
        kind, payload = self._dispatch_mutation(args)
        db = self._database
        if kind == "fact":
            result: Union[bool, int] = (
                db.add_fact if asserting else db.retract_fact
            )(payload)
        elif kind == "facts":
            result = (db.add_facts if asserting else db.retract_facts)(
                payload
            )
        else:  # one (pred, *values) row
            pred_key, row = payload
            result = bool(
                (db.add_values if asserting else db.retract_values)(
                    pred_key, [row]
                )
            )
        self._note_mutation()
        self._after_mutation()
        return result

    @staticmethod
    def _dispatch_mutation(args: tuple) -> Tuple[str, object]:
        """Classify an assert_/retract argument list.

        One str/Literal is a fact; one other argument is an iterable of
        facts; two or more are ``(pred, *values)`` for a single row.
        """
        if not args:
            raise ValueError(
                "assert_/retract need a fact, an iterable of facts, or "
                "(pred, *values)"
            )
        if len(args) == 1:
            arg = args[0]
            if isinstance(arg, (str, Literal)):
                return "fact", Session._as_fact(arg)
            return "facts", [Session._as_fact(fact) for fact in arg]
        pred_key = args[0]
        if not isinstance(pred_key, str):
            raise ValueError(
                "the (pred, *values) form needs a predicate name first, "
                f"got {pred_key!r}"
            )
        return "values", (pred_key, tuple(args[1:]))

    @staticmethod
    def _as_fact(fact: Union[str, Literal]) -> Literal:
        if isinstance(fact, str):
            fact = parse_literal(fact.rstrip().rstrip("."))
        return fact

    def _note_mutation(self) -> None:
        """Reconcile the memo with the database version.

        The memo holds answers for one version: when the version has
        moved -- a Session-mediated mutation, or an out-of-band one
        through direct ``Relation`` access -- every entry is dropped and
        counted in ``memo_invalidations``.
        """
        version = self._database.version
        if version == self._memo_version:
            return
        self.memo_invalidations += len(self._memo)
        self._memo.clear()
        self._memo_version = version

    # ------------------------------------------------------------------
    # materialized views (incremental maintenance)
    # ------------------------------------------------------------------
    def materialize(
        self,
        target: Union[str, Query, Iterable[str], None] = None,
    ) -> MaterializedView:
        """Materialize derived relations and maintain them by deltas.

        ``target`` is a query (text ending in ``?`` or a parsed
        :class:`Query`), one predicate name, an iterable of predicate
        names, or None for every derived predicate.  The first call
        evaluates the program once (compiled stratified semi-naive) and
        starts relation-level delta capture; later mutations propagate
        through per-stratum delta rules instead of re-evaluating --
        counting-based deletion on non-recursive strata, DRed on
        recursive ones.  Subsequent views share that state.

        While any view is live, ``session.query()`` answers a query on
        *any* derived predicate from the shared maintained state before
        consulting the memo (the whole program is maintained, whatever
        ``target`` names; the query server's rule too); see
        :class:`MaterializedView` for the handle's surface.
        """
        query: Optional[Query] = None
        if target is None:
            self._ensure_materializer()
            predicates = frozenset(self._materializer.derived_keys)
        elif isinstance(target, Query):
            query = target
            predicates = frozenset((target.literal.pred_key,))
        elif isinstance(target, str):
            text = target.strip()
            if text.endswith("?"):
                query = parse_query(text)
                predicates = frozenset((query.literal.pred_key,))
            else:
                predicates = frozenset((text,))
        else:
            predicates = frozenset(target)
        known = frozenset(self._program.predicates()) | frozenset(
            self._database.predicate_keys()
        )
        unknown = predicates - known
        if unknown:
            raise ReproError(
                f"cannot materialize unknown predicate(s) "
                f"{sorted(unknown)}; the program and database mention "
                f"{sorted(known)}"
            )
        self._ensure_materializer()
        view = MaterializedView(self, predicates, query)
        self._views.append(view)
        return view

    def _ensure_materializer(self) -> MaterializedProgram:
        if self._materializer is None:
            self._materializer = MaterializedProgram(
                self._program,
                self._database,
                plan_cache=self._plan_cache,
            )
        return self._materializer

    def _drop_view(self, view: MaterializedView) -> None:
        self._views = [v for v in self._views if v is not view]
        if not self._views and self._materializer is not None:
            self._materializer.close()
            self._materializer = None

    @contextmanager
    def batch(self):
        """Batch mutations into one maintenance pass.

        Inside ``with session.batch():`` asserts and retracts apply to
        the database (version bumps, memo invalidation) but view
        maintenance is deferred; on exit the accumulated delta
        propagates in a single pass.  Nesting is allowed -- the
        outermost exit maintains.
        """
        self._batch_depth += 1
        try:
            yield self
        finally:
            self._batch_depth -= 1
            if self._batch_depth == 0:
                self._maintain_views()

    def _after_mutation(self) -> None:
        """Hook every Session-mediated mutation ends with: keep live
        views fresh, unless a batch is open."""
        if self._batch_depth == 0:
            self._maintain_views()

    def _maintain_views(self) -> None:
        """One incremental maintenance pass over the shared state.

        Runs under any ``REPRO_FAULT_INJECT`` fault plan in the
        environment.  An aborted pass (budget trip, injected fault) is
        swallowed: ``MaterializedProgram.maintain`` has already marked
        the state stale and discarded the partial pass, so queries fall
        back to cold evaluation until :meth:`MaterializedView.refresh`
        or a later successful pass heals it.
        """
        m = self._materializer
        if m is None or not self._views:
            return
        if not (m.pending or m.stale):
            return
        try:
            m.maintain(meter=governing_meter())
        except ReproError:
            pass  # state is stale; cold queries still answer correctly

    def _all_free_query(self, pred_key: str) -> Query:
        """An all-free query literal for a predicate (for view.rows)."""
        arity = None
        for rule in self._program.rules:
            if rule.head.pred_key == pred_key:
                arity = len(rule.head.args)
                break
        if arity is None:
            rel = self._database.get(pred_key)
            arity = rel.arity if rel is not None else None
            if arity is None:
                raise ReproError(
                    f"cannot infer the arity of {pred_key!r}: no rule "
                    "defines it and no facts exist under it"
                )
        args = tuple(Variable(f"V{i}") for i in range(arity))
        return Query(Literal(pred_key, args))

    def _view_result(
        self,
        m: MaterializedProgram,
        query: Query,
        meter=None,
        started: Optional[float] = None,
    ) -> QueryResult:
        """Serve a query from the maintained state (maintaining first
        when mutations are pending or the state is stale)."""
        if started is None:
            started = time.perf_counter()
        maintenance_elapsed = 0.0
        if m.stale or m.pending:
            m.maintain(meter=meter)
            maintenance_elapsed = m.last_elapsed
        rows = m.working.answers(query.literal)
        return QueryResult(
            rows=rows,
            method="materialized",
            query=query,
            db_version=m.synced_version,
            elapsed=time.perf_counter() - started,
            maintained=True,
            maintenance_elapsed=maintenance_elapsed,
        )

    def _view_covering(self, query: Query) -> Optional[MaterializedProgram]:
        """The live materializer when the query's predicate is one of
        its derived predicates -- the rule the query server serves
        published views by -- else None."""
        m = self._materializer
        if m is None or not self._views:
            return None
        return m if query.literal.pred_key in m.derived_keys else None

    # ------------------------------------------------------------------
    # querying
    # ------------------------------------------------------------------
    def query(
        self,
        query: Union[str, Query, None] = None,
        method: str = "auto",
        *,
        optimize: bool = True,
        semijoin: bool = False,
        workers: int = 1,
        budget: Optional[EvaluationBudget] = None,
    ) -> QueryResult:
        """Answer a query, consulting the cross-evaluation memo first.

        ``query`` may be text (``"anc(john, X)?"``), a parsed
        :class:`Query`, or None to use the first query embedded in the
        session source.  ``method`` is ``"auto"`` (default), a rewrite
        method, or a baseline; with ``optimize``, ``semijoin`` and
        ``workers`` it forms the :class:`~repro.core.pipeline.QueryOptions`
        that a cold query hands to :func:`repro.answer_query` and that
        keys the memo.  A rewrite is always evaluated semi-naive.

        Resource governance: ``budget`` is an
        :class:`~repro.core.limits.EvaluationBudget` (fixpoint rounds
        summed over strata, wall-clock timeout, derived facts, tuples
        scanned, memory estimate, cancellation token, fault plan); any
        ``REPRO_FAULT_INJECT`` plan in the environment joins it when it
        carries none of its own.  A budget trip raises
        :class:`~repro.core.limits.BudgetExceeded` carrying structured
        progress, except under graceful degradation: when ``"auto"``
        dispatched to a rewrite method that tripped, the compiled
        semi-naive fallback retries once under the same meter (the
        wall-clock deadline stays absolute; fact/tuple caps apply to the
        retry's fresh counters) and the result is marked ``degraded``.
        Cancellation always propagates.  The budget does not
        participate in the memo key: a memo hit costs no evaluation, so
        it is served regardless of the budget, and aborted or degraded
        evaluations are never memoized.

        ``workers`` > 1 runs the bottom-up evaluations (the baselines
        and the evaluation behind every rewrite method) on the sharded
        thread pool (:mod:`repro.datalog.parallel`); answers and the
        solution counters are identical to serial.  QSQ is top-down and
        ignores it.  ``workers`` participates in the memo key -- the
        rows agree, but the memoized counters describe the run that
        produced them.
        """
        query = self._as_query(query)
        meter = governing_meter(budget)
        started = time.perf_counter()
        self._note_mutation()  # catch out-of-band database mutations
        # -- materialized-view fast path: the maintained state answers a
        # derived predicate before the memo is even consulted (the view
        # IS the cache, and unlike the memo it survives mutations by
        # delta maintenance)
        m = self._view_covering(query)
        if method == "materialized":
            if m is None:
                raise ReproError(
                    "method='materialized' needs a covering view; call "
                    "session.materialize(...) first"
                )
            return self._view_result(m, query, meter, started)
        if m is not None and method == "auto" and not m.stale:
            if not m.pending:
                return self._view_result(m, query, meter, started)
            if self._batch_depth == 0:
                try:
                    return self._view_result(m, query, meter, started)
                except ReproError:
                    # the serving maintenance pass aborted (budget trip /
                    # injected fault): the state is stale now, answer
                    # cold below
                    pass
        # an unknown method reaches this line too: QueryOptions rejects it
        options = QueryOptions(method, optimize, semijoin, workers)
        key = (query, options)
        cached = self._memo.get(key)
        if cached is not None:
            self._memo.move_to_end(key)
            self.memo_hits += 1
            return replace(
                cached,
                from_memo=True,
                db_version=self._memo_version,
                elapsed=time.perf_counter() - started,
                budget_spent=meter.spent() if meter is not None else None,
            )
        self.memo_misses += 1
        result = answer_query(
            self._program,
            self._database,
            query,
            options,
            sip_builder=self._sip_builder,
            plan_cache=self._plan_cache,
            meter=meter,
        )
        if not result.degraded:
            self._memo[key] = self._slim_for_memo(result)
            while len(self._memo) > self._memo_size:
                self._memo.popitem(last=False)
        return result

    @staticmethod
    def _slim_for_memo(result: QueryResult) -> QueryResult:
        """A copy safe to retain: the memo stores answers and counters,
        not evaluation artifacts.

        The freshly returned (cold) result keeps its evaluation's
        working database -- QSQ's with its Q/F relations -- but
        retaining those in up to ``memo_size`` entries would pin an
        evaluation snapshot per entry, and a live snapshot makes the
        next write to each relation it shares clone that relation.  The
        rows are snapshotted into a frozenset: the memo must not alias
        the mutable set handed to the cold caller (mutating a returned
        result would otherwise corrupt every later hit), and an
        immutable snapshot can be served to all hits by reference.
        """
        qsq = result.qsq
        return replace(
            result,
            rows=frozenset(result.rows),
            evaluation=None,
            qsq=qsq if qsq is None else replace(qsq, database=None),
        )

    def _as_query(self, query: Union[str, Query, None]) -> Query:
        if query is None:
            if not self.queries:
                raise ReproError(
                    "no query: pass one to query() or embed one in the "
                    "session source"
                )
            return self.queries[0]
        if isinstance(query, str):
            return parse_query(query)
        return query

    # ------------------------------------------------------------------
    # explanation
    # ------------------------------------------------------------------
    def explain(
        self,
        query: Union[str, Query, None] = None,
        limit: Optional[int] = None,
    ) -> List[DerivationNode]:
        """Derivation trees for a query's answers on the current facts.

        Runs one full bottom-up evaluation (stratified when the program
        negates) and reconstructs one proof tree per answer from it, up
        to ``limit``.  Answers are explained in sorted order so the
        output is deterministic.
        """
        query = self._as_query(query)
        return explain_answers(
            self._program, self._database, query.literal, limit,
            self._plan_cache,
        )[1]

    def __repr__(self):
        return (
            f"Session({len(self._program.rules)} rules, "
            f"{self._database.total_facts()} facts, "
            f"version={self.version}, memo={len(self._memo)})"
        )
