"""QSQ-style top-down evaluation of adorned programs, compiled.

This is the reference *sip strategy* of Section 9: starting from the
query, construct subqueries for every body literal according to the sips
(condition 2) and compute all answers for every constructed query
(condition 1).  The evaluator is an iterated, set-at-a-time version of
the Query/Subquery method (QSQR, Vieille [24]), restricted to adorned
programs whose rule bodies are already ordered by their sip's total order
with all available bindings carried left to right (i.e. full compressed
sips -- the adornment construction of ``repro.core.adornment`` produces
exactly this form).

Its two outputs are the paper's sets

* ``Q`` -- the queries generated (per adorned predicate, the set of bound
  argument vectors); and
* ``F`` -- the facts computed (per adorned predicate, full tuples).

Theorem 9.1 states that bottom-up evaluation of the generalized magic
rewrite produces *exactly* the facts corresponding to ``Q`` (the magic
relations) and ``F`` (the adorned relations); ``repro.core.optimality``
checks this equivalence experimentally.

Architecture
------------

QSQ runs on the bottom-up engine's one join executor.  Each adorned rule
``h :- body`` is compiled **once**
(:func:`~repro.datalog.planner.compile_subquery_rule`) into the ordinary
:class:`~repro.datalog.planner.JoinPlan` of ``h :- $q:h(b), body``, where
``b`` are the head's bound arguments:

* **Subqueries and answers are relations.**  ``Q`` and ``F`` live in the
  evaluation's working database (a :meth:`Database.snapshot`): per
  adorned predicate an *input relation*
  (:func:`~repro.datalog.planner.subquery_relation`, a name no program
  can spell) and an answer relation under the adorned key, indexed on
  the adornment's bound positions.  A plan's first step reads its
  head's input relation; each derived step registers its keys -- the
  literal's bound arguments -- as subqueries in the literal's input
  relation and probes its answer relation on them; base steps probe the
  database like any plan's.  The body keeps its sip order, so one
  left-to-right pass both constructs the subqueries and joins their
  answers.  The magic rules are never run, which is what gives the
  Theorem 9.1 check its meaning.
* **Rounds on the one round driver.**
  :func:`repro.datalog.engine.fixpoint` runs the plans with
  :func:`~repro.datalog.engine.serial_executor`, like a semi-naive
  evaluation's rules: a plan's first run reads whole relations, every
  later run reads slot windows -- new inputs against all answers, old
  inputs against new answers -- and so meets each combination of rows
  once.  Rounds, budgets and termination are the driver's;
  ``QSQResult.stats`` counts answers in ``facts_derived``, subquery
  rows nowhere, and the first step's reads of an input relation in
  ``join_probes`` / ``tuples_scanned``.  Every run starts at the first
  step, so an old-inputs-against-new-answers run re-joins the old
  inputs up to the step with new answers: deep recursions still pay
  Θ(rounds·|Q|) there.
* **Plan caching.**  Compiled plans are looked up in the shared
  :class:`~repro.datalog.planner.PlanCache` keyed by program identity,
  so benchmark loops and repeated CLI queries stop recompiling;
  ``QSQResult.stats.plan_cache_hits``/``plan_cache_misses`` report what
  happened.
* **The result is the snapshot.**  :class:`QSQResult` keeps the working
  database, ``Q`` and ``F`` included, and decodes them into sets only
  when ``queries`` / ``answers`` are read; the query's answer is
  selected from it by :meth:`Database.answers`, as every route's is.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Dict, Optional, Set, Tuple

from .ast import Literal, Program
from .database import Database, FactTuple
from .engine import EvaluationStats, _install, fixpoint, serial_executor
from .errors import EvaluationError, UnsupportedProgramError
from .planner import PlanCache, subquery_program_for, subquery_relation

__all__ = ["QSQResult", "qsq_evaluate"]


@dataclass
class QSQResult:
    """Queries and facts produced by a QSQ (sip strategy) evaluation.

    ``database`` is the evaluation's working snapshot: per adorned
    predicate key of ``predicates`` it holds the paper's ``Q`` under
    :func:`~repro.datalog.planner.subquery_relation` (bound-argument
    vectors) and ``F`` under the key itself (full answer tuples), next
    to the base relations, so an answer is selected from it like any
    evaluation's (:meth:`Database.answers`).  ``queries`` / ``answers``
    decode those relations into sets when read; ``stats`` holds the
    round driver's work counters.  A memoized copy drops ``database``
    and keeps the counters.
    """

    database: Optional[Database]
    predicates: Tuple[str, ...]
    subqueries_generated: int
    stats: EvaluationStats

    @property
    def queries(self) -> Dict[str, Set[FactTuple]]:
        """``Q``: per adorned predicate, its subqueries' bound arguments."""
        return self._decode(subquery_relation, keep_empty=True)

    @property
    def answers(self) -> Dict[str, Set[FactTuple]]:
        """``F``: per adorned predicate with answers, its answer tuples."""
        return self._decode(lambda pred: pred, keep_empty=False)

    def _decode(self, name, keep_empty: bool) -> Dict[str, Set[FactTuple]]:
        if self.database is None:
            return {}
        out: Dict[str, Set[FactTuple]] = {}
        for pred in self.predicates:
            rel = self.database.get(name(pred))
            if rel is not None and (keep_empty or len(rel)):
                out[pred] = set(rel)
        return out


def qsq_evaluate(
    adorned_program: Program,
    database: Database,
    query_literal: Literal,
    plan_cache: Optional[PlanCache] = None,
    meter=None,
) -> QSQResult:
    """Evaluate an adorned program top-down, memoizing queries and answers.

    ``adorned_program`` must use adorned literals for derived predicates
    (as produced by ``repro.core.adornment.adorn_program(...).program``)
    with rule bodies in sip order.  ``query_literal`` is the adorned
    query, whose ground arguments form the initial subquery.

    ``plan_cache`` overrides the shared compiled-plan cache.

    Rounds run on :func:`repro.datalog.engine.fixpoint` and plans on
    :meth:`~repro.datalog.planner.JoinPlan.execute_batch`, so ``meter``
    (duck-typed, see :mod:`repro.core.limits`: ``check_round`` at every
    round, ``check_batch`` at every plan run) behaves as in bottom-up
    evaluation, and a non-ground answer row raises
    :class:`EvaluationError` as it does there.  Subqueries and answers
    live in a snapshot of ``database`` (the only change to ``database``
    is physical index registration), so an abort leaves it logically
    untouched.
    """
    if adorned_program.has_negation():
        raise UnsupportedProgramError(
            "the QSQ evaluator handles positive programs only; use "
            "method='auto' for stratified programs with negation (it "
            "resolves to the bottom-up magic path, which is "
            "query-directed too)"
        )
    query_key = query_literal.pred_key
    if query_key not in adorned_program.derived_predicates():
        raise EvaluationError(
            f"query predicate {query_key} is not defined by the program"
        )
    compiled, cache_hit = subquery_program_for(adorned_program, plan_cache)
    working = database.snapshot()
    stats = EvaluationStats()
    if cache_hit:
        stats.plan_cache_hits += 1
    else:
        stats.plan_cache_misses += 1
    compiled.register_indexes(working)
    for pred, positions in compiled.bound_positions.items():
        working.relation(pred).register_index(positions)
    seed = tuple(arg for arg in query_literal.args if arg.is_ground())
    working.relation(subquery_relation(query_key)).add(seed)

    execute = serial_executor(
        compiled, working, stats, meter, partial(_install, working, stats)
    )
    fixpoint(compiled, working, stats, execute, True, meter)

    predicates = tuple(compiled.bound_positions)
    subqueries = sum(
        len(working.get(subquery_relation(pred)) or ()) for pred in predicates
    )
    return QSQResult(working, predicates, subqueries, stats)
