"""One-call public API: rewrite a program for a query and answer it.

The typical use::

    from repro import Database, QueryOptions, parse_program, parse_query
    from repro.core import pipeline

    source = '''
        anc(X, Y) :- par(X, Y).
        anc(X, Y) :- par(X, Z), anc(Z, Y).
        par(john, mary).
    '''
    parsed = parse_program(source)
    db = Database()
    db.add_fact_rows(parsed.fact_rows)  # the bulk load, by term ID
    result = pipeline.answer_query(
        parsed.program, db, parse_query("anc(john, Y)?"),
        QueryOptions(method="magic"),
    )
    result.values()  # {("mary",)}

(``program, facts, queries = parse_program(source)`` still unpacks, and
``db.add_facts(facts)`` still loads the decoded literals one by one.)

``rewrite`` builds the adorned program (Section 3) and dispatches to one
of the four rewriting algorithms (Sections 4-7), optionally followed by
the semijoin optimization (Section 8).  ``answer_query`` is the paper's
whole pipeline and the one evaluation path of the package: it adorns and
rewrites the query's *shape* once per plan cache, binds the constants
into the seed, evaluates bottom-up and selects the answer into a
:class:`QueryResult`, the one answer type of the package.  It also
accepts the baseline strategies (plain naive/semi-naive bottom-up of the
original program and top-down QSQ) and ``"auto"``, so the benchmarks,
:meth:`repro.Session.query` and the query server's cold reads all answer
through it.  Every route selects its answer from its own evaluation's
database, through :meth:`Database.answers` /
:meth:`~repro.datalog.database.Relation.matching` (a rewrite through
:meth:`RewrittenProgram.extract_answers`, whose selection is on the
rewritten answer relation).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, NamedTuple, Optional, Set, Tuple

from ..datalog.analysis import stratify
from ..datalog.ast import Program, Query
from ..datalog.database import Database
from ..datalog.engine import EvaluationResult, EvaluationStats, evaluate
from ..datalog.errors import (
    AdornmentError,
    ConnectivityError,
    ReproError,
    RewriteError,
    SipValidationError,
    UnsupportedProgramError,
)
from ..datalog.planner import PlanCache, shared_plan_cache
from ..datalog.terms import Constant, Term
from ..datalog.topdown import QSQResult, qsq_evaluate
from .adornment import AdornedProgram, adorn_program
from .limits import BudgetExceeded
from .provenance import RewrittenProgram
from .rewrites import REWRITE_METHODS, sip_rewrite
from .semijoin import semijoin_optimize
from .sips import SipBuilder, build_full_sip

__all__ = [
    "REWRITE_METHODS",
    "BASELINE_METHODS",
    "SESSION_METHODS",
    "rewrite",
    "QueryOptions",
    "QueryResult",
    "answer_query",
    "unwrap_values",
]

#: evaluation baselines answer_query accepts besides the rewrites
BASELINE_METHODS = ("naive", "seminaive", "qsq")

#: everything a query accepts for ``method``: the rewrites, the
#: baselines, "auto", plus "materialized" (answer from a covering
#: maintained view -- a Session or the server, never a fresh evaluation)
SESSION_METHODS = (
    ("auto",) + REWRITE_METHODS + BASELINE_METHODS + ("materialized",)
)

#: what ``method="auto"`` runs -- on positive AND stratified programs
#: (the conservative magic extension handles negation)
_AUTO_PRIMARY = "supplementary_magic"

#: what it runs when adorning or rewriting the shape is rejected, and
#: what a tripped rewrite degrades to (compiled bottom-up, stratum by
#: stratum)
_AUTO_FALLBACK = "seminaive"

#: errors adorning or rewriting a shape raises when the method declines
#: the program or the options (e.g. ``semijoin=True`` with a magic
#: method): the verdict is published on the shape's entry, and ``auto``
#: answers such a shape with the fallback
_SHAPE_REJECTIONS = (
    UnsupportedProgramError,
    AdornmentError,
    ConnectivityError,
    SipValidationError,
    RewriteError,
)


def rewrite(
    program: Program,
    query: Query,
    method: str = "supplementary_magic",
    sip_builder: SipBuilder = build_full_sip,
    optimize: bool = True,
    semijoin: bool = False,
    adorned: Optional[AdornedProgram] = None,
) -> RewrittenProgram:
    """Rewrite ``program`` for ``query`` with the chosen method.

    The single entry point of the four rewrites
    (:func:`repro.core.rewrites.sip_rewrite`): ``adorned`` is the
    adorned program when the caller has it, else ``program`` is adorned
    for ``query`` along ``sip_builder``.  ``optimize`` applies the
    redundant-literal deletions of Propositions 4.2/4.3 and Lemma 6.2;
    ``semijoin`` applies the Section 8 optimization (counting methods
    only).

    Stratified programs are accepted by the magic methods via the
    conservative extension (negated literals carried unchanged, their
    definitions computed completely); the rewrite output is then
    re-stratified before it is handed to the engines -- the
    conservative construction preserves stratifiability, and a failure
    here names the broken invariant instead of blaming the input.  The
    counting methods remain positive-only.
    """
    if adorned is None:
        adorned = adorn_program(program, query, sip_builder)
    result = sip_rewrite(adorned, method, optimize=optimize)
    if semijoin:
        if method not in ("counting", "supplementary_counting"):
            raise RewriteError(
                "the semijoin optimization relies on counting indices "
                "(Section 8); it does not apply to the magic-sets methods"
            )
        result = semijoin_optimize(result)
    if result.program.has_negation():
        # the conservative rewrite must never break stratifiability;
        # evaluating an unstratifiable output would be unsound, so this
        # is checked before any engine sees the program
        stratify(
            result.program,
            context=f"internal invariant violated: the {method} rewrite "
            f"of a stratified program for query {query} produced an "
            "unstratifiable program (the conservative negation "
            "treatment should make this impossible)",
        )
    return result


@dataclass(frozen=True)
class QueryOptions:
    """Everything about a query request that can change its answer.

    ``method`` is ``"auto"`` (supplementary magic, or compiled
    semi-naive where adornment or the rewrite rejects the query's
    shape), a rewrite method, a baseline, or ``"materialized"``; a
    rewrite is always evaluated semi-naive.  ``optimize`` / ``semijoin``
    configure the rewrite; ``workers`` is an int >= 1, and above 1
    evaluates on the sharded thread pool.  Limits are not options: they
    belong to the :class:`~repro.core.limits.EvaluationBudget`.
    Hashable: it is the answer memo key of a
    :class:`~repro.session.Session` and of the query server.
    """

    method: str = "auto"
    optimize: bool = True
    semijoin: bool = False
    workers: int = 1

    def __post_init__(self):
        if self.method not in SESSION_METHODS:
            raise ValueError(
                f"unknown method {self.method!r}; expected one of "
                f"{SESSION_METHODS}"
            )
        if type(self.workers) is not int or self.workers < 1:
            raise ValueError(
                f"invalid workers {self.workers!r}; expected an int >= 1"
            )


@dataclass
class QueryResult:
    """One answered query, and how it was answered.

    ``rows`` are bindings for the query's free variables (tuples of
    ground :class:`~repro.datalog.terms.Term`); ``method`` is the
    strategy actually executed (never ``"auto"``).  ``stats`` describe
    the evaluation that *produced* the rows; ``rewritten`` and
    ``evaluation`` are the bound rewritten program and its evaluation
    (a rewrite method), ``qsq`` the QSQ result (its working snapshot
    holds Q and F).  ``degraded`` marks a rewrite that
    tripped its budget and was answered by the compiled semi-naive
    fallback under the remaining budget (exact, but never memoized).
    ``db_version`` is the database version the rows are valid for,
    ``elapsed`` the seconds the answer took and ``budget_spent`` the
    governing meter's final accounting (None when ungoverned).

    A Session's memo hits are copies with ``from_memo`` set: they carry
    the memoized cold run's ``stats``, not fresh work, drop
    ``evaluation`` and QSQ's working snapshot, and their ``rows`` are
    one immutable frozenset shared by every hit.  ``maintained`` marks
    rows served by an incrementally maintained view, and
    ``maintenance_elapsed`` the seconds its serving maintenance pass
    took.
    """

    rows: Set[Tuple[Term, ...]]
    method: str
    query: Query
    stats: Optional[EvaluationStats] = None
    rewritten: Optional[RewrittenProgram] = None
    evaluation: Optional[EvaluationResult] = None
    qsq: Optional[QSQResult] = None
    degraded: bool = False
    from_memo: bool = False
    db_version: int = 0
    elapsed: float = 0.0
    budget_spent: Optional[Dict[str, object]] = None
    maintained: bool = False
    maintenance_elapsed: float = 0.0

    def values(self) -> Set[Tuple[object, ...]]:
        """Rows with plain Python values in place of Constants."""
        return unwrap_values(self.rows)

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self):
        return iter(self.rows)

    def __contains__(self, row) -> bool:
        return tuple(row) in self.rows


def unwrap_values(rows: Set[Tuple[Term, ...]]) -> Set[Tuple[object, ...]]:
    out = set()
    for row in rows:
        out.add(
            tuple(t.value if isinstance(t, Constant) else t for t in row)
        )
    return out


class _QueryShape(NamedTuple):
    """What adornment and rewriting make of one query *shape*.

    One entry of the :class:`~repro.datalog.planner.PlanCache` per
    (program, :meth:`Query.shape`, sip builder, method, optimize,
    semijoin); nothing in it depends on the query's constants, which
    stand in it as placeholders.  Published entries are never changed:
    a query gets its own copy through ``bind(query)``.
    """

    #: None when the shape was rejected
    adorned: Optional[AdornedProgram]
    #: None under QSQ, which evaluates the adorned program itself
    rewritten: Optional[RewrittenProgram]
    #: the class and message of the error adorning or rewriting the
    #: shape raised (one of ``_SHAPE_REJECTIONS``), or None: ``auto``'s
    #: verdict, and what an explicit request for the method re-raises
    rejection: Optional[Tuple[type, str]] = None
    #: the relations the rewrite introduces (magic, supplementary,
    #: counting, indexed, label): a read rejects the shape when its
    #: database already holds rows under one of them
    generated: frozenset = frozenset()


def _shape_for(
    program: Program,
    query: Query,
    method: str,
    options: QueryOptions,
    sip_builder: SipBuilder,
    plan_cache: PlanCache,
) -> _QueryShape:
    """The plan-cache entry for a query's shape, built on first use.

    The key is the cache's own ``(kind, program)`` with the shape in
    ``kind``, so every caller over this program and plan cache shares
    the entry.  QSQ reads neither ``optimize`` nor ``semijoin`` and is
    keyed with ``None`` for both.
    """
    shape = query.shape()
    if method == "qsq":
        rewrite_key = (None, None)
    else:
        rewrite_key = (options.optimize, options.semijoin)
    kind = ("query-shape", shape.literal, sip_builder, method) + rewrite_key
    entry, _ = plan_cache.get(
        kind,
        program,
        lambda program: _build_shape(
            program, shape, method, options, sip_builder
        ),
    )
    return entry


def _build_shape(
    program: Program,
    shape: Query,
    method: str,
    options: QueryOptions,
    sip_builder: SipBuilder,
) -> _QueryShape:
    """Adorn and rewrite a shape query (the plan-cache factory).

    A rewrite that generates a name the program already uses is
    rejected here; a clash with a database relation is checked per read
    (:func:`_generated_clash`).
    """
    try:
        adorned = adorn_program(program, shape, sip_builder)
        if method == "qsq":
            # .program is computed on first reading: read it before the
            # entry is published, so that every bound copy carries the
            # one Program object
            adorned.program
            return _QueryShape(adorned, None)
        rewritten = rewrite(
            program,
            shape,
            method=method,
            sip_builder=sip_builder,
            optimize=options.optimize,
            semijoin=options.semijoin,
            adorned=adorned,
        )
        generated = frozenset(
            literal.pred_key
            for literal in (
                *(rr.rule.head for rr in rewritten.rules),
                *rewritten.seed_facts,
            )
            if literal.adornment is None
        )
        clashes = sorted(generated & program.predicates())
        if clashes:
            raise RewriteError(
                f"the {method} rewrite generates the relation "
                f"{clashes[0]}, which the program already uses; rename "
                "it or use --method seminaive"
            )
    except _SHAPE_REJECTIONS as exc:
        return _QueryShape(None, None, (type(exc), str(exc)))
    # .program and .mirror_targets are computed on first reading: read
    # both before the entry is published, so that every bound copy
    # carries the one Program object and the one table
    rewritten.program, rewritten.mirror_targets
    return _QueryShape(adorned, rewritten, generated=generated)


def _generated_clash(
    shape: _QueryShape, method: str, database: Database
) -> Optional[Tuple[type, str]]:
    """A rejection when ``database`` holds rows under a relation name
    the shape's rewrite generates (its rows would join the rewrite's
    own), else None."""
    for name in shape.generated:
        relation = database.get(name)
        if relation is not None and len(relation):
            return (
                RewriteError,
                f"the {method} rewrite generates the relation {name}, "
                "which the database already holds; rename it or use "
                "--method seminaive",
            )
    return None


def answer_query(
    program: Program,
    database: Database,
    query: Query,
    options: QueryOptions = QueryOptions(),
    *,
    sip_builder: SipBuilder = build_full_sip,
    plan_cache: Optional[PlanCache] = None,
    meter=None,
) -> QueryResult:
    """Answer a query end to end; no memo, no views.

    ``options.method`` is a rewrite method, one of the baselines --
    ``"naive"`` / ``"seminaive"`` (bottom-up on the original program,
    then select/project: the Section 1 strawman) or ``"qsq"`` (top-down
    on the adorned program) -- or ``"auto"`` (the default):
    supplementary magic, unless adorning or rewriting the query's shape
    was rejected, in which case compiled semi-naive answers.

    Programs with negated body literals (stratified negation) are
    evaluable by the bottom-up baselines (stratum by stratum) and by
    the magic rewrite methods (conservative extension; ``"auto"``
    resolves to supplementary magic for them too); the counting
    rewrites and ``qsq`` raise
    :class:`~repro.datalog.errors.UnsupportedProgramError`.

    What depends only on the query's shape -- the adorned and rewritten
    program -- comes from ``plan_cache`` (default: the process-wide
    one), together with a rejection verdict; per query the constants
    are bound into a copy, the database is seeded and evaluated.

    ``meter`` is an optional :class:`~repro.core.limits.BudgetMeter`.
    A :class:`~repro.core.limits.BudgetExceeded` leaving this function
    names the method that tripped (``.method``).  When that method was
    a rewrite chosen by ``"auto"``, compiled semi-naive retries once
    under the same meter (the wall-clock deadline stays absolute;
    fact/tuple caps apply to the retry's fresh counters) and the result
    is marked ``degraded``; an explicitly requested method raises.
    The meter's install boundary is ticked last, after the answer is
    complete.
    """
    if options.method == "materialized":
        raise ReproError(
            "method='materialized' needs a covering view; query a "
            "Session that materialized one"
        )
    started = time.perf_counter()
    if plan_cache is None:
        plan_cache = shared_plan_cache()
    args = (program, database, query, options, sip_builder, plan_cache)
    try:
        result = _evaluate(*args, options.method, meter)
    except BudgetExceeded as exc:
        # re-running a tripped baseline would just trip again
        if options.method != "auto" or exc.method not in REWRITE_METHODS:
            raise
        result = _evaluate(*args, _AUTO_FALLBACK, meter)
        result.degraded = True
    if meter is not None:
        # install boundary: the last abort point before the caller
        # publishes or memoizes the answer
        meter.tick_install()
        result.budget_spent = meter.spent()
    result.db_version = database.version
    result.elapsed = time.perf_counter() - started
    return result


def _evaluate(
    program: Program,
    database: Database,
    query: Query,
    options: QueryOptions,
    sip_builder: SipBuilder,
    plan_cache: PlanCache,
    method: str,
    meter,
) -> QueryResult:
    """One evaluation by ``method`` (``auto`` resolved by the shape's
    verdict), no retry; a :class:`BudgetExceeded` leaves tagged with
    the method that tripped."""
    if method not in ("naive", "seminaive"):
        rewrite_method = _AUTO_PRIMARY if method == "auto" else method
        shape = _shape_for(
            program, query, rewrite_method, options, sip_builder, plan_cache
        )
        rejection = shape.rejection or _generated_clash(
            shape, rewrite_method, database
        )
        if rejection is not None:
            if method != "auto":
                # a fresh instance: a shared one would collect every
                # raise's traceback, across threads
                error_class, message = rejection
                raise error_class(message)
            method = _AUTO_FALLBACK
        elif method == "auto":
            method = _AUTO_PRIMARY
    try:
        if method in ("naive", "seminaive"):
            result = evaluate(
                program,
                database,
                method=method,
                plan_cache=plan_cache,
                meter=meter,
                workers=options.workers,
            )
            return QueryResult(
                rows=result.database.answers(query.literal),
                method=method,
                query=query,
                stats=result.stats,
                evaluation=result,
            )
        if method == "qsq":
            adorned = shape.adorned.bind(query)
            qsq = qsq_evaluate(
                adorned.program,
                database,
                adorned.query_literal,
                plan_cache=plan_cache,
                meter=meter,
            )
            return QueryResult(
                rows=qsq.database.answers(adorned.query_literal),
                method="qsq",
                query=query,
                stats=qsq.stats,
                qsq=qsq,
            )
        rewritten = shape.rewritten.bind(query)
        result = evaluate(
            rewritten.program,
            rewritten.seeded_database(database),
            plan_cache=plan_cache,
            meter=meter,
            workers=options.workers,
        )
        return QueryResult(
            rows=rewritten.extract_answers(result),
            method=method,
            query=query,
            stats=result.stats,
            rewritten=rewritten,
            evaluation=result,
        )
    except BudgetExceeded as exc:
        if exc.method is None:
            exc.method = method
        raise
