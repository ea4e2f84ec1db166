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

Execution mirrors the bottom-up engine's join planner
(:mod:`repro.datalog.planner`).  Each adorned rule is compiled **once**
into a :class:`~repro.datalog.planner.SubqueryPlan`:

* **Slot frames.**  Rule variables are numbered into a flat frame; the
  inner loops run precompiled ops (store slot / compare slot / match
  pattern) instead of threading dict :class:`Substitution` copies
  through every candidate row.
* **Precomputed bound/free splits.**  Each derived body literal carries
  its adornment's bound positions as the key of an indexed *answer
  relation* (one per adorned predicate, indexed on those positions), so
  joining new bindings against accumulated answers is a hash probe, not
  a scan.  Base literals carry the argument positions ground at plan
  time, registered on the EDB relations up front so every database
  access goes through an index.
* **Rounds on the one round driver.**  ``Q`` and ``F`` are relations of
  the evaluation's working database (a :meth:`Database.snapshot`): per
  adorned predicate an *input relation*
  (:func:`~repro.datalog.planner.subquery_relation`, a name no program
  can spell) and an answer relation under the adorned key.  A plan's
  entry reads its head's input relation and each derived step an answer
  relation, so :func:`repro.datalog.engine.fixpoint` runs the plans like
  rules: a plan's first run reads whole relations, every later run reads
  slot windows -- new inputs against all answers, old inputs against
  new answers -- and so meets each combination of rows once.  Rounds,
  budgets and termination are the driver's; ``QSQResult.stats`` counts
  answers in ``facts_derived`` and subquery rows nowhere.  Every run
  starts at the entry, so an old-inputs-against-new-answers run
  re-joins the old inputs up to the step with new answers: deep
  recursions still pay Θ(rounds·|Q|) there.
* **Plan caching.**  Compiled plans are looked up in the shared
  :class:`~repro.datalog.planner.PlanCache` keyed by program identity,
  so benchmark loops and repeated CLI queries stop recompiling;
  ``QSQResult.stats.plan_cache_hits``/``plan_cache_misses`` report what
  happened.

Open item noticed while profiling: answer relations are rebuilt per
evaluation even when the database is unchanged -- a memo keyed by
(program, database version) would make repeated identical queries O(1).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from .ast import Literal, Program
from .catalog import term_catalog
from .database import Database, FactTuple, IdTuple
from .engine import EvaluationStats, _install, fixpoint
from .errors import EvaluationError, UnsupportedProgramError
from .planner import (
    ENTRY,
    PlanCache,
    SubqueryProgram,
    subquery_program_for,
    subquery_relation,
    _batch_keys,
    _scan_batch_step,
    _CONST,
    _EQ,
    _EVAL,
    _SLOT,
    _STORE,
)
from .terms import Term, Variable
from .unify import match_into, match_sequences, resolve

__all__ = ["QSQResult", "qsq_evaluate"]

_CATALOG = term_catalog()


@dataclass
class QSQResult:
    """Queries and facts produced by a QSQ (sip strategy) evaluation.

    ``queries`` maps adorned predicate keys to the set of bound-argument
    vectors for which a subquery was generated (the paper's ``Q``);
    ``answers`` maps adorned predicate keys to full answer tuples (the
    paper's ``F`` restricted to derived predicates); ``stats`` holds the
    round driver's work counters.
    """

    queries: Dict[str, Set[FactTuple]] = field(default_factory=dict)
    answers: Dict[str, Set[FactTuple]] = field(default_factory=dict)
    subqueries_generated: int = 0
    stats: EvaluationStats = field(default_factory=EvaluationStats)

    def query_count(self) -> int:
        return sum(len(v) for v in self.queries.values())

    def answer_count(self) -> int:
        return sum(len(v) for v in self.answers.values())

    def query_answers(self, query_literal: Literal) -> Set[FactTuple]:
        """Answer bindings (free positions) for the original query.

        Uses the query's bound/free position split directly: bound
        positions hold ground terms compared per row; free positions are
        projected out.  The generic matcher is only consulted when a
        free position holds something other than a plain variable
        (which :class:`~repro.datalog.ast.Query` never produces).
        """
        rows = self.answers.get(query_literal.pred_key, ())
        if not rows:
            return set()
        bound_checks: List[Tuple[int, Term]] = []
        free_positions: List[int] = []
        seen_vars: Set[Term] = set()
        for i, arg in enumerate(query_literal.args):
            if arg.is_ground():
                bound_checks.append((i, arg))
            else:
                free_positions.append(i)
                if not isinstance(arg, Variable) or arg in seen_vars:
                    # a structured pattern or a repeated variable: fall
                    # back to the generic matcher for the whole literal
                    return self._query_answers_generic(query_literal)
                seen_vars.add(arg)
        out: Set[FactTuple] = set()
        for row in rows:
            if all(row[i] == value for i, value in bound_checks):
                out.add(tuple(row[i] for i in free_positions))
        return out

    def _query_answers_generic(
        self, query_literal: Literal
    ) -> Set[FactTuple]:
        free_positions = [
            i
            for i, arg in enumerate(query_literal.args)
            if not arg.is_ground()
        ]
        out: Set[FactTuple] = set()
        for row in self.answers.get(query_literal.pred_key, ()):
            if match_sequences(query_literal.args, row) is not None:
                out.add(tuple(row[i] for i in free_positions))
        return out


def qsq_evaluate(
    adorned_program: Program,
    database: Database,
    query_literal: Literal,
    max_iterations: Optional[int] = None,
    max_facts: Optional[int] = None,
    plan_cache: Optional[PlanCache] = None,
    meter=None,
) -> QSQResult:
    """Evaluate an adorned program top-down, memoizing queries and answers.

    ``adorned_program`` must use adorned literals for derived predicates
    (as produced by ``repro.core.adornment.adorn_program(...).program``)
    with rule bodies in sip order.  ``query_literal`` is the adorned
    query, whose ground arguments form the initial subquery.

    ``plan_cache`` overrides the shared compiled-plan cache.

    Rounds run on :func:`repro.datalog.engine.fixpoint`, so
    ``max_iterations`` / ``max_facts`` (answers) and ``meter`` (duck-typed,
    see :mod:`repro.core.limits`: ``check_round`` at every round,
    ``check_batch`` at every plan run) behave as in bottom-up
    evaluation.  Subqueries and answers live in a snapshot of
    ``database`` (the only change to ``database`` is physical index
    registration), so an abort leaves it logically untouched.
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

    executor = _QSQExecutor(compiled, working, stats, meter)
    fixpoint(
        compiled, working, stats, executor.execute, True, meter,
        max_iterations, max_facts,
    )

    result = QSQResult(stats=stats)
    for pred in compiled.bound_positions:
        inputs = working.get(subquery_relation(pred))
        if inputs is not None:
            result.queries[pred] = set(inputs)
        found = working.get(pred)
        if len(found):
            result.answers[pred] = set(found)
    result.subqueries_generated = result.query_count()
    return result


class _QSQExecutor:
    """The QSQ round executor (:data:`repro.datalog.engine.RoundExecutor`).

    A task runs one plan over its slot windows: the entry reads the
    head's input rows in its window, each derived step appends the
    subquery keys of the frames reaching it to its predicate's input
    relation and probes the window of its answer relation, and the head
    rows of the whole task are installed at its end.  Only input
    relations change during a task, and only the entry, at its start,
    reads one.  A frame that reaches a derived step again in a later
    task (old inputs against new answers) re-registers a key already in
    the input relation, which adds nothing.
    """

    __slots__ = ("plans", "working", "stats", "meter", "rows")

    def __init__(self, compiled: SubqueryProgram, working: Database,
                 stats: EvaluationStats, meter=None):
        self.plans = compiled.plans
        self.working = working
        self.stats = stats
        self.meter = meter
        #: the running task's head ID rows
        self.rows: List[IdTuple] = []

    def execute(self, groups) -> Dict[str, List[IdTuple]]:
        stats = self.stats
        meter = self.meter
        fresh_by_head: Dict[str, List[IdTuple]] = {}
        for group in groups:
            plan = self.plans[group[0][0]]
            for _, _, windows, _ in group:
                if meter is not None:
                    meter.check_batch(stats.facts_derived, stats.tuples_scanned)
                self.rows = []
                self._run_entry(plan, windows)
                solutions = len(self.rows)
                stats.rule_firings += solutions
                fresh = _install(
                    self.working, stats, plan.head_key, self.rows, solutions
                )
                if fresh:
                    fresh_by_head.setdefault(plan.head_key, []).extend(fresh)
        return fresh_by_head

    # ------------------------------------------------------------------
    def _run_entry(self, plan, windows) -> None:
        """Push the input rows in the entry's window through ``plan``.

        The window is read as ID rows, and entry ops filter each one on
        a scratch frame of term IDs: ``_STORE``, ``_EQ`` and ``_CONST``
        compare IDs, and only a ``_MATCH`` (a ``Struct`` head pattern
        such as ``[X|Xs]``) resolves its one value and interns what it
        binds.  Survivors fill the plan's entry-slot columns, and the
        body runs in batches over term IDs (:meth:`_run_batch`).
        """
        inputs = self.working.get(plan.input_key)
        if inputs is None:
            return
        lo, hi = (0, inputs.slot_count()) if windows is None else windows[ENTRY]
        frame: List[Optional[int]] = [None] * plan.n_slots
        entry_ops = plan.entry_ops
        entry_slots = plan.b_entry_slots
        resolve_id = _CATALOG.resolve
        intern = _CATALOG.intern
        cols: Dict[int, List[int]] = {s: [] for s in entry_slots}
        n = 0
        for row in inputs.window_rows(lo, hi):
            for pos, tag, payload in entry_ops:
                value = row[pos]
                if tag == _STORE:
                    frame[payload] = value
                elif tag == _CONST:
                    if payload != value:
                        break
                elif tag == _EQ:
                    if frame[payload] != value:
                        break
                else:  # _MATCH
                    pattern, bound_pairs, free_pairs = payload
                    seed = {v: resolve_id(frame[s]) for v, s in bound_pairs}
                    if not match_into(pattern, resolve_id(value), seed):
                        break
                    for v, s in free_pairs:
                        frame[s] = intern(seed[v])
            else:
                for s in entry_slots:
                    cols[s].append(frame[s])
                n += 1
        if n:
            self._run_batch(plan, cols, n, windows)

    # ------------------------------------------------------------------
    def _run_batch(self, plan, cols, n, windows) -> None:
        """Batch body execution over ID columns; every plan runs here.

        Partial matches travel as parallel columns of term IDs, each
        step probes its relation once per *distinct* key in the batch,
        derived-step keys are registered as subqueries once per distinct
        key (always ground: ``compile_subquery_rule`` rejects a rule
        where one might not be), and head rows are collected as ID rows
        -- terms are resolved only when ``QSQResult.answers`` is
        materialized.
        """
        working = self.working
        stats = self.stats
        resolve_id = _CATALOG.resolve
        id_of = _CATALOG.id_of
        intern = _CATALOG.intern
        for depth, step in enumerate(plan.steps):
            b_key_ops = step.b_key_ops
            relation = working.get(step.pred_key)
            window = None
            if step.is_derived:
                # derived keys double as subquery vectors, so _EVAL keys
                # are interned, and every frame reaching the step
                # registers its key -- before any emptiness check
                keys = (
                    _batch_keys(b_key_ops, cols, n, False, intern)
                    if b_key_ops else None
                )
                if keys is None:
                    subqueries = [()]
                elif len(b_key_ops) == 1:
                    subqueries = [(k,) for k in set(keys)]
                else:
                    subqueries = set(keys)
                working.relation(step.input_key).add_id_rows(subqueries)
                if windows is not None:
                    window = windows[depth]
            else:
                keys = (
                    _batch_keys(b_key_ops, cols, n, False, id_of)
                    if b_key_ops else None
                )
            if relation is None or len(relation) == 0:
                return
            sel, stores, probes, scanned = _scan_batch_step(
                relation, step.lookup_positions, keys,
                step.b_row_ops, len(step.b_store_slots), cols, n, window,
            )
            stats.join_probes += probes
            stats.tuples_scanned += scanned
            if not sel:
                return
            next_cols: Dict[int, List[int]] = {
                s: [cols[s][i] for i in sel] for s in step.b_carry_out
            }
            for j, s in step.b_store_out:
                next_cols[s] = stores[j]
            cols = next_cols
            n = len(sel)

        head_slots = plan.b_head_slots
        if head_slots is not None:
            if not head_slots:
                self.rows.extend([()] * n)
            elif len(head_slots) == 1:
                self.rows.extend([(v,) for v in cols[head_slots[0]]])
            else:
                self.rows.extend(zip(*(cols[s] for s in head_slots)))
            return
        b_head_ops = plan.b_head_ops
        for i in range(n):
            args = []
            for tag, payload in b_head_ops:
                if tag == _SLOT:
                    args.append(cols[payload][i])
                elif tag == _CONST:
                    args.append(payload)
                elif tag == _EVAL:
                    term, pairs = payload
                    value = resolve(
                        term,
                        {v: resolve_id(cols[s][i]) for v, s in pairs},
                    )
                    if not value.is_ground():
                        break  # a non-ground answer row is dropped
                    args.append(intern(value))
                else:  # _UNBOUND: the row can never be ground
                    break
            else:
                self.rows.append(tuple(args))
