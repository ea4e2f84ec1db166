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
    answer = pipeline.answer_query(
        parsed.program, db, parse_query("anc(john, Y)?"),
        QueryOptions(method="magic"),
    )

(``program, facts, queries = parse_program(source)`` still unpacks, and
``db.add_facts(facts)`` still loads the decoded literals one by one.)

``rewrite`` builds the adorned program (Section 3) and dispatches to one
of the four rewriting algorithms (Sections 4-7), optionally followed by
the semijoin optimization (Section 8).  ``answer_query`` is the paper's
whole pipeline and the one evaluation path of the package: it adorns and
rewrites the query's *shape* once per plan cache, binds the constants
into the seed, evaluates bottom-up and selects the answer.  It also
accepts the baseline strategies (plain naive/semi-naive bottom-up of the
original program and top-down QSQ) and ``"auto"``, so the benchmarks,
:meth:`repro.Session.query` and the query server's cold reads all answer
through it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional, Set, Tuple

from ..datalog.analysis import reachable_predicates
from ..datalog.ast import Program, Query
from ..datalog.database import Database
from ..datalog.engine import (
    EvaluationResult,
    EvaluationStats,
    answer_tuples,
    evaluate,
)
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
from .counting import counting_rewrite
from .limits import BudgetExceeded
from .magic import magic_rewrite
from .provenance import RewrittenProgram
from .semijoin import semijoin_optimize
from .sips import SipBuilder, build_full_sip
from .stratify import stratify_or_raise
from .supplementary import supplementary_magic_rewrite
from .supplementary_counting import supplementary_counting_rewrite

__all__ = [
    "REWRITE_METHODS",
    "BASELINE_METHODS",
    "SESSION_METHODS",
    "rewrite",
    "QueryOptions",
    "QueryAnswer",
    "answer_query",
    "bottom_up_answer",
    "unwrap_values",
]

#: The four rewriting algorithms of Sections 4-7.
REWRITE_METHODS = (
    "magic",
    "supplementary_magic",
    "counting",
    "supplementary_counting",
)

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
    mode: str = "numeric",
    optimize: bool = True,
    semijoin: bool = False,
    adorned: Optional[AdornedProgram] = None,
) -> RewrittenProgram:
    """Rewrite ``program`` for ``query`` with the chosen method.

    ``mode`` selects the counting index encoding (``"numeric"`` or
    ``"structural"``); it is ignored by the magic methods.  ``semijoin``
    applies the Section 8 optimization (counting methods only).

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
    if method == "magic":
        result = magic_rewrite(adorned, optimize=optimize)
    elif method == "supplementary_magic":
        result = supplementary_magic_rewrite(adorned, optimize=optimize)
    elif method == "counting":
        result = counting_rewrite(adorned, mode=mode, optimize=optimize)
    elif method == "supplementary_counting":
        result = supplementary_counting_rewrite(
            adorned, mode=mode, optimize=optimize
        )
    else:
        raise ValueError(
            f"unknown rewrite method {method!r}; expected one of "
            f"{REWRITE_METHODS}"
        )
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
        stratify_or_raise(
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
    shape), a rewrite method, a baseline, or ``"materialized"``;
    ``engine`` is the bottom-up strategy a rewrite is evaluated with;
    ``mode`` / ``optimize`` / ``semijoin`` configure the rewrite;
    ``max_iterations`` bounds the fixpoint; ``workers`` > 1 evaluates on
    the sharded worker pool.  Hashable: it is the answer memo key of a
    :class:`~repro.session.Session` and of the query server.
    """

    method: str = "auto"
    engine: str = "seminaive"
    mode: str = "numeric"
    optimize: bool = True
    semijoin: bool = False
    max_iterations: Optional[int] = None
    workers: int = 1

    def __post_init__(self):
        if self.method not in SESSION_METHODS:
            raise ValueError(
                f"unknown method {self.method!r}; expected one of "
                f"{SESSION_METHODS}"
            )


@dataclass
class QueryAnswer:
    """An answered query: bindings for the query's free variables."""

    answers: Set[Tuple[Term, ...]]
    strategy: str
    stats: Optional[EvaluationStats] = None
    rewritten: Optional[RewrittenProgram] = None
    evaluation: Optional[EvaluationResult] = None
    #: the raw Q/F sets when the strategy was top-down QSQ
    qsq: Optional[QSQResult] = None
    #: relation names the answers were computed from, where the strategy
    #: knows them (the rewrite methods and QSQ); a Session drops a
    #: memoized answer when one of them changes
    footprint: Optional[frozenset] = None
    #: True when a rewrite method tripped its budget and the compiled
    #: semi-naive fallback answered under the remaining budget
    degraded: bool = False

    def values(self) -> Set[Tuple[object, ...]]:
        """Answers with plain Python values in place of Constants."""
        return unwrap_values(self.answers)

    def __len__(self):
        return len(self.answers)


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
    (program, :meth:`Query.shape`, sip builder, method, mode, optimize,
    semijoin); nothing in it depends on the query's constants, which
    stand in it as placeholders.  Published entries are never changed:
    a query gets its own copy through ``bind(query)``.
    """

    #: None when the shape was rejected
    adorned: Optional[AdornedProgram]
    #: None under QSQ, which evaluates the adorned program itself
    rewritten: Optional[RewrittenProgram]
    #: relation names an answer of this shape depends on (memo
    #: invalidation)
    footprint: frozenset
    #: the class and message of the error adorning or rewriting the
    #: shape raised (one of ``_SHAPE_REJECTIONS``), or None: ``auto``'s
    #: verdict, and what an explicit request for the method re-raises
    rejection: Optional[Tuple[type, str]] = None


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
    the entry.  QSQ reads none of ``mode`` / ``optimize`` /
    ``semijoin`` and is keyed with ``None`` for each.
    """
    shape = query.shape()
    if method == "qsq":
        rewrite_key = (None, None, None)
    else:
        rewrite_key = (options.mode, options.optimize, options.semijoin)
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

    The footprint: a rewrite method reads the relations its rewritten
    program mentions, plus every original name reachable from the
    query predicate (``seeded_database`` mirrors facts asserted under
    original derived names into the adorned relations) -- so mutating a
    relation outside the query's cone leaves a memo entry valid.  QSQ
    reads the adorned program's relations.
    """
    try:
        adorned = adorn_program(program, shape, sip_builder)
        if method == "qsq":
            return _QueryShape(
                adorned,
                None,
                frozenset(adorned.program.predicates())
                | {adorned.query_literal.pred_key},
            )
        rewritten = rewrite(
            program,
            shape,
            method=method,
            sip_builder=sip_builder,
            mode=options.mode,
            optimize=options.optimize,
            semijoin=options.semijoin,
            adorned=adorned,
        )
    except _SHAPE_REJECTIONS as exc:
        return _QueryShape(None, None, frozenset(), (type(exc), str(exc)))
    # .program and .mirror_targets are computed on first reading: read
    # both before the entry is published, so that every bound copy
    # carries the one Program object and the one table
    rewritten_program, _ = rewritten.program, rewritten.mirror_targets
    footprint = (
        frozenset(rewritten_program.predicates())
        | {rewritten.answer_pred_key}
        | {seed.pred_key for seed in rewritten.seed_facts}
        | reachable_predicates(program, [shape.literal.pred_key])
    )
    return _QueryShape(adorned, rewritten, footprint)


def answer_query(
    program: Program,
    database: Database,
    query: Query,
    options: QueryOptions = QueryOptions(),
    *,
    sip_builder: SipBuilder = build_full_sip,
    plan_cache: Optional[PlanCache] = None,
    meter=None,
    on_budget_exceeded: Optional[str] = None,
) -> QueryAnswer:
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
    a rewrite and either ``options.method`` is ``"auto"`` or
    ``on_budget_exceeded="degrade"``, compiled semi-naive retries once
    under the same meter (the wall-clock deadline stays absolute;
    fact/tuple caps apply to the retry's fresh counters) and the answer
    is marked ``degraded``; ``"raise"`` disables that even for auto.
    The meter's install boundary is ticked last, after the answer is
    complete.
    """
    if on_budget_exceeded not in (None, "degrade", "raise"):
        raise ValueError(
            f"unknown on_budget_exceeded policy "
            f"{on_budget_exceeded!r}; expected 'degrade' or 'raise'"
        )
    if options.method == "materialized":
        raise ReproError(
            "method='materialized' needs a covering view; query a "
            "Session that materialized one"
        )
    if plan_cache is None:
        plan_cache = shared_plan_cache()
    args = (program, database, query, options, sip_builder, plan_cache)
    try:
        answer = _evaluate(*args, options.method, meter)
    except BudgetExceeded as exc:
        # re-running a tripped baseline would just trip again
        degrade = exc.method in REWRITE_METHODS and (
            on_budget_exceeded == "degrade"
            or (options.method == "auto" and on_budget_exceeded is None)
        )
        if not degrade:
            raise
        answer = _evaluate(*args, _AUTO_FALLBACK, meter)
        answer.degraded = True
    if meter is not None:
        # install boundary: the last abort point before the caller
        # publishes or memoizes the answer
        meter.tick_install()
    return answer


def _evaluate(
    program: Program,
    database: Database,
    query: Query,
    options: QueryOptions,
    sip_builder: SipBuilder,
    plan_cache: PlanCache,
    method: str,
    meter,
) -> QueryAnswer:
    """One evaluation by ``method`` (``auto`` resolved by the shape's
    verdict), no retry; a :class:`BudgetExceeded` leaves tagged with
    the method that tripped."""
    if method not in ("naive", "seminaive"):
        shape = _shape_for(
            program,
            query,
            _AUTO_PRIMARY if method == "auto" else method,
            options,
            sip_builder,
            plan_cache,
        )
        if shape.rejection is not None:
            if method != "auto":
                # a fresh instance: a shared one would collect every
                # raise's traceback, across threads
                error_class, message = shape.rejection
                raise error_class(message)
            method = _AUTO_FALLBACK
        elif method == "auto":
            method = _AUTO_PRIMARY
    try:
        if method in ("naive", "seminaive"):
            return bottom_up_answer(
                program,
                database,
                query,
                method,
                options.max_iterations,
                plan_cache=plan_cache,
                meter=meter,
                workers=options.workers,
            )
        if method == "qsq":
            adorned = shape.adorned.bind(query)
            qsq = qsq_evaluate(
                adorned.program,
                database,
                adorned.query_literal,
                max_iterations=options.max_iterations,
                plan_cache=plan_cache,
                meter=meter,
            )
            stats = EvaluationStats(
                iterations=qsq.iterations,
                facts_derived=qsq.answer_count(),
                plan_cache_hits=qsq.plan_cache_hits,
                plan_cache_misses=qsq.plan_cache_misses,
            )
            return QueryAnswer(
                answers=qsq.query_answers(adorned.query_literal),
                strategy="qsq",
                stats=stats,
                qsq=qsq,
                footprint=shape.footprint,
            )
        rewritten = shape.rewritten.bind(query)
        result = evaluate(
            rewritten.program,
            rewritten.seeded_database(database),
            method=options.engine,
            max_iterations=options.max_iterations,
            plan_cache=plan_cache,
            meter=meter,
            workers=options.workers,
        )
        return QueryAnswer(
            answers=rewritten.extract_answers(result),
            strategy=method,
            stats=result.stats,
            rewritten=rewritten,
            evaluation=result,
            footprint=shape.footprint,
        )
    except BudgetExceeded as exc:
        if exc.method is None:
            exc.method = method
        raise


def bottom_up_answer(
    program: Program,
    database: Database,
    query: Query,
    engine: str = "seminaive",
    max_iterations: Optional[int] = None,
    max_facts: Optional[int] = None,
    plan_cache=None,
    meter=None,
    workers: int = 1,
) -> QueryAnswer:
    """The Section 1 strawman: evaluate everything, then select.

    ``meter`` is an optional :class:`repro.core.limits.BudgetMeter`
    checked at the engine's round/batch boundaries.  ``workers`` > 1
    evaluates on the sharded worker pool
    (:mod:`repro.datalog.parallel`) with identical answers and
    counters.
    """
    result = evaluate(
        program,
        database,
        method=engine,
        max_iterations=max_iterations,
        max_facts=max_facts,
        plan_cache=plan_cache,
        meter=meter,
        workers=workers,
    )
    return QueryAnswer(
        answers=answer_tuples(result, query.literal),
        strategy=engine,
        stats=result.stats,
        evaluation=result,
    )
