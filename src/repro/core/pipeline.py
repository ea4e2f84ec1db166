"""One-call public API: rewrite a program for a query and answer it.

The typical use::

    from repro import Database, parse_program, parse_query
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
        parsed.program, db, parse_query("anc(john, Y)?")
    )

(``program, facts, queries = parse_program(source)`` still unpacks, and
``db.add_facts(facts)`` still loads the decoded literals one by one.)

``rewrite`` builds the adorned program (Section 3) and dispatches to one
of the four rewriting algorithms (Sections 4-7), optionally followed by
the semijoin optimization (Section 8).  ``answer_query`` additionally
evaluates the result bottom-up and extracts the answer; it also accepts
the baseline strategies (plain naive/semi-naive bottom-up of the original
program and top-down QSQ), so the benchmarks compare everything through
one interface.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Set, Tuple

from ..datalog.ast import Program, Query
from ..datalog.database import Database
from ..datalog.engine import (
    EvaluationResult,
    EvaluationStats,
    answer_tuples,
    evaluate,
)
from ..datalog.errors import RewriteError
from ..datalog.terms import Constant, Term
from ..datalog.topdown import QSQResult
from .adornment import AdornedProgram, adorn_program
from .counting import counting_rewrite
from .magic import magic_rewrite
from .provenance import RewrittenProgram
from .semijoin import semijoin_optimize
from .sips import SipBuilder, build_full_sip
from .stratify import stratify_or_raise
from .supplementary import supplementary_magic_rewrite
from .supplementary_counting import supplementary_counting_rewrite

__all__ = [
    "REWRITE_METHODS",
    "rewrite",
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
    #: knows them (a Session's rewrite methods and QSQ); a Session drops
    #: a memoized answer when one of them changes
    footprint: Optional[frozenset] = None

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


def answer_query(
    program: Program,
    database: Database,
    query: Query,
    method: str = "supplementary_magic",
    engine: str = "seminaive",
    sip_builder: SipBuilder = build_full_sip,
    mode: str = "numeric",
    optimize: bool = True,
    semijoin: bool = False,
    max_iterations: Optional[int] = None,
    max_facts: Optional[int] = None,
    plan_cache=None,
    workers: int = 1,
    timeout: Optional[float] = None,
    budget=None,
    on_budget_exceeded: Optional[str] = None,
):
    """Answer a query end to end (legacy one-shot shim).

    ``method`` is a rewrite method, one of the baselines --
    ``"naive"`` / ``"seminaive"`` (bottom-up on the original program,
    then select/project: the Section 1 strawman) or ``"qsq"`` (top-down
    on the adorned program) -- or ``"auto"`` to let the dispatcher
    choose.

    Programs with negated body literals (stratified negation) are
    evaluable by the bottom-up baselines (stratum by stratum) and by
    the magic rewrite methods (conservative extension; ``"auto"``
    resolves to supplementary magic for them too); the counting
    rewrites and ``qsq`` raise
    :class:`~repro.datalog.errors.UnsupportedProgramError`.

    This is now a thin shim over :class:`repro.session.Session`, which
    is the surface shaped for repeated traffic (stateful database,
    cross-evaluation answer memo); a one-shot call constructs an
    ephemeral session, so it pays the evaluation every time, but the
    rewrite of the query's shape and the plans compiled from it come
    from the process-wide plan cache.

    Returns a :class:`repro.session.QueryResult` -- the same answer
    type every Session path produces (memo hits, materialized views,
    cold evaluations), so callers never branch on provenance.  The
    legacy ``QueryAnswer`` attribute names (``answers``, ``strategy``,
    ``rewritten``, ``evaluation``, ``qsq``) remain available as
    properties on it.
    """
    from ..session import Session

    session = Session(
        program=program,
        database=database,
        sip_builder=sip_builder,
        plan_cache=plan_cache,
    )
    return session.query(
        query,
        method=method,
        engine=engine,
        mode=mode,
        optimize=optimize,
        semijoin=semijoin,
        max_iterations=max_iterations,
        max_facts=max_facts,
        workers=workers,
        timeout=timeout,
        budget=budget,
        on_budget_exceeded=on_budget_exceeded,
    )


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
