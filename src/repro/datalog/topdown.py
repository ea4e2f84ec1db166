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
  store* (a :class:`~repro.datalog.database.Relation` per adorned
  predicate, indexed on those positions), so joining new bindings
  against accumulated answers is a hash probe, not a scan.  Base
  literals carry the argument positions ground at plan time, registered
  on the EDB relations up front so every database access goes through
  :meth:`Relation.lookup`.
* **Delta-driven rounds.**  Instead of joining every accumulated
  ``(rule, bound_vector)`` pair against every accumulated *answer* each
  global iteration, each round pushes only the deltas: *new subqueries*
  run against the full answer stores, and *new answers* are joined into
  the rules of every affected input via one delta variant per derived
  body occurrence.  This is semi-naive evaluation transplanted to the
  top-down side.  A residual ``Theta(rounds * |Q|)`` term remains --
  delta variants replay the accumulated inputs, though each replay is
  an entry match plus hash probes that mostly miss -- with constants
  small enough to be invisible next to the join work (see the ROADMAP
  open item on reverse-joining deltas to their affected inputs).
* **Plan caching.**  Compiled plans are looked up in the shared
  :class:`~repro.datalog.planner.PlanCache` keyed by program identity,
  so benchmark loops and repeated CLI queries stop recompiling;
  ``QSQResult.plan_cache_hits``/``plan_cache_misses`` report what
  happened.

``iterations`` counts global propagation rounds until the fixpoint;
answers flow as soon as their delta round fires.  Derived steps whose
subquery key is not ground at run time (a maybe-unground ``Struct``
argument) take a generic slow path: no subquery is generated and the
resolved pattern is matched against every stored answer.

Open items noticed while profiling: the round loop is still global (a
true QSQR scheduler would recurse per subquery and could terminate
earlier on stratified call graphs), and answer stores are rebuilt per
evaluation even when the database is unchanged -- a memo keyed by
(program, database version) would make repeated identical queries O(1).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from .ast import Literal, Program
from .catalog import term_catalog
from .database import Database, FactTuple, Relation
from .errors import (
    EvaluationError,
    NonTerminationError,
    UnsupportedProgramError,
)
from .planner import (
    PlanCache,
    SubqueryPlan,
    SubqueryProgram,
    subquery_program_for,
    _batch_keys,
    _scan_batch_step,
    _CONST,
    _EQ,
    _EQC,
    _EVAL,
    _SLOT,
    _STORE,
)
from .terms import Term, Variable
from .unify import (
    Substitution,
    match_into,
    match_sequences,
    resolve,
)

__all__ = ["QSQResult", "qsq_evaluate"]

_CATALOG = term_catalog()


@dataclass
class QSQResult:
    """Queries and facts produced by a QSQ (sip strategy) evaluation.

    ``queries`` maps adorned predicate keys to the set of bound-argument
    vectors for which a subquery was generated (the paper's ``Q``);
    ``answers`` maps adorned predicate keys to full answer tuples (the
    paper's ``F`` restricted to derived predicates).
    """

    queries: Dict[str, Set[FactTuple]] = field(default_factory=dict)
    answers: Dict[str, Set[FactTuple]] = field(default_factory=dict)
    iterations: int = 0
    subqueries_generated: int = 0
    #: plan-cache outcome for this evaluation (compiled path only)
    plan_cache_hits: int = 0
    plan_cache_misses: int = 0

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

    ``meter`` is an optional budget meter (duck-typed, see
    :mod:`repro.core.limits`): ``check_round`` runs at every QSQ round
    and ``check_batch`` at every plan invocation, either free to abort
    by raising.  QSQ stores answers outside the database (the only
    database mutation is physical index registration), so an abort
    leaves the database logically untouched.
    """
    if adorned_program.has_negation():
        raise UnsupportedProgramError(
            "the QSQ evaluator handles positive programs only; use "
            "method='auto' for stratified programs with negation (it "
            "resolves to the bottom-up magic path, which is "
            "query-directed too)"
        )
    derived = adorned_program.derived_predicates()
    query_key = query_literal.pred_key
    if query_key not in derived:
        raise EvaluationError(
            f"query predicate {query_key} is not defined by the program"
        )
    return _qsq_evaluate_compiled(
        adorned_program,
        database,
        query_literal,
        max_iterations,
        max_facts,
        plan_cache,
        meter,
    )


class _QSQExecutor:
    """Mutable evaluation state for one compiled QSQ run.

    ``result.queries`` doubles as the subquery dedup store; answers live
    in per-predicate :class:`Relation` stores indexed on the adornment's
    bound positions, with parallel per-round delta relations.
    """

    __slots__ = ("compiled", "database", "result", "answer_rels",
                 "pending_inputs", "pending_answers", "answer_total",
                 "meter")

    def __init__(self, compiled: SubqueryProgram, database: Database,
                 result: QSQResult, meter=None):
        self.compiled = compiled
        self.database = database
        self.result = result
        self.answer_rels: Dict[str, Relation] = {}
        self.pending_inputs: Dict[str, List[FactTuple]] = {}
        self.pending_answers: Dict[str, Relation] = {}
        self.answer_total = 0
        self.meter = meter

    # ------------------------------------------------------------------
    def execute(
        self,
        plan: SubqueryPlan,
        vectors,
        delta_depth: Optional[int] = None,
        delta_rel: Optional[Relation] = None,
    ) -> None:
        """Push input bound vectors through one plan (one delta choice).

        Entry ops filter each (small, term-level) input vector on a
        scratch frame exactly as the per-frame interpreter did;
        survivors are interned into the plan's entry-slot columns and
        the body runs in batches over term IDs
        (:meth:`_run_batch`).
        """
        if self.meter is not None:
            self.meter.check_batch(self.answer_total)
        frame: List[Optional[Term]] = [None] * plan.n_slots
        entry_ops = plan.entry_ops
        entry_slots = plan.b_entry_slots
        intern = _CATALOG.intern
        cols: Dict[int, List[int]] = {s: [] for s in entry_slots}
        n = 0
        for vector in vectors:
            ok = True
            for pos, tag, payload in entry_ops:
                value = vector[pos]
                if tag == _STORE:
                    frame[payload] = value
                elif tag == _CONST:
                    if payload != value:
                        ok = False
                        break
                elif tag == _EQ:
                    if frame[payload] != value:
                        ok = False
                        break
                else:  # _MATCH
                    pattern, bound_pairs, free_pairs = payload
                    seed: Substitution = {
                        v: frame[s] for v, s in bound_pairs
                    }
                    if not match_into(pattern, value, seed):
                        ok = False
                        break
                    for v, s in free_pairs:
                        frame[s] = seed[v]
            if ok:
                for s in entry_slots:
                    cols[s].append(intern(frame[s]))
                n += 1
        if n:
            self._run_batch(plan, cols, n, delta_depth, delta_rel)

    # ------------------------------------------------------------------
    def _run_batch(self, plan, cols, n, delta_depth, delta_rel) -> None:
        """Batch body execution over ID columns.

        The batch twin of the per-frame :meth:`_run` recursion: partial
        matches travel as parallel columns of term IDs, each step probes
        its store once per *distinct* key in the batch, derived-step
        keys are registered as subqueries once per distinct key, and
        answers are emitted as ID rows -- terms are resolved only when
        ``QSQResult.answers`` is materialized.  Emission happens after
        the whole batch has been joined, so answers produced by one
        input vector reach sibling vectors through the next round's
        delta instead of intra-round: the same fixpoint, ``Q`` and
        ``F``, discovered at worst a round later.  A step whose subquery
        key may be non-ground diverts its frames to the per-frame
        interpreter, which re-checks groundness at run time and handles
        the generic fallback.
        """
        resolve_id = _CATALOG.resolve
        resolve_row = _CATALOG.resolve_row
        id_of = _CATALOG.id_of
        intern = _CATALOG.intern
        for depth, step in enumerate(plan.steps):
            if step.maybe_unground:
                n_slots = plan.n_slots
                for i in range(n):
                    frame: List[Optional[Term]] = [None] * n_slots
                    for s, col in cols.items():
                        frame[s] = resolve_id(col[i])
                    self._run(plan, depth, frame, delta_depth, delta_rel)
                return
            b_key_ops = step.b_key_ops
            if step.is_derived:
                pred = step.pred_key
                # derived keys double as subquery vectors, so _EVAL
                # keys are interned, and each distinct key registers
                # (at most) one new subquery -- before the empty-store
                # check, exactly like the per-frame path
                keys = (
                    _batch_keys(b_key_ops, cols, n, False, intern)
                    if b_key_ops else None
                )
                inputs = self.result.queries.setdefault(pred, set())
                if keys is None:
                    term_keys = [()]
                elif len(b_key_ops) == 1:
                    term_keys = [(resolve_id(k),) for k in set(keys)]
                else:
                    term_keys = [resolve_row(k) for k in set(keys)]
                for term_key in term_keys:
                    if term_key not in inputs:
                        inputs.add(term_key)
                        self.result.subqueries_generated += 1
                        self.pending_inputs.setdefault(
                            pred, []
                        ).append(term_key)
                if delta_depth == depth:
                    relation = delta_rel
                else:
                    relation = self.answer_rels.get(pred)
                if relation is None or len(relation) == 0:
                    return
            else:
                relation = self.database.get(step.pred_key)
                if relation is None or len(relation) == 0:
                    return
                keys = (
                    _batch_keys(b_key_ops, cols, n, False, id_of)
                    if b_key_ops else None
                )
            sel, stores, _probes, _scanned = _scan_batch_step(
                relation, step.lookup_positions, keys,
                step.b_row_ops, len(step.b_store_slots), cols, n,
            )
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
                rows: List[Tuple[int, ...]] = [()] * n
            elif len(head_slots) == 1:
                rows = [(v,) for v in cols[head_slots[0]]]
            else:
                rows = list(zip(*(cols[s] for s in head_slots)))
        else:
            rows = []
            b_head_ops = plan.b_head_ops
            for i in range(n):
                args = []
                ok = True
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
                            # a non-ground answer row is silently
                            # dropped
                            ok = False
                            break
                        args.append(intern(value))
                    else:  # _UNBOUND: the row can never be ground
                        ok = False
                        break
                if ok:
                    rows.append(tuple(args))
        if not rows:
            return
        pred = plan.head_key
        relation = self.answer_rels.get(pred)
        if relation is None:
            relation = self._new_answer_relation(pred)
            self.answer_rels[pred] = relation
        fresh = relation.add_id_rows(rows)
        if fresh:
            self.answer_total += len(fresh)
            delta = self.pending_answers.get(pred)
            if delta is None:
                delta = self._new_answer_relation(pred)
                self.pending_answers[pred] = delta
            delta.add_id_rows(fresh)

    # ------------------------------------------------------------------
    def _build_key(self, key_ops, frame) -> FactTuple:
        key = []
        for tag, payload in key_ops:
            if tag == _SLOT:
                key.append(frame[payload])
            elif tag == _CONST:
                key.append(payload)
            else:  # _EVAL
                term, pairs = payload
                key.append(resolve(term, {v: frame[s] for v, s in pairs}))
        return tuple(key)

    def _run(self, plan, depth, frame, delta_depth, delta_rel) -> None:
        steps = plan.steps
        if depth == len(steps):
            self._emit(plan, frame)
            return
        step = steps[depth]
        if step.is_derived:
            pred = step.pred_key
            key = self._build_key(step.key_ops, frame)
            if step.maybe_unground and not all(
                t.is_ground() for t in key
            ):
                self._run_generic(plan, depth, frame, delta_depth,
                                  delta_rel)
                return
            inputs = self.result.queries.setdefault(pred, set())
            if key not in inputs:
                inputs.add(key)
                self.result.subqueries_generated += 1
                self.pending_inputs.setdefault(pred, []).append(key)
            if delta_depth == depth:
                relation = delta_rel
            else:
                relation = self.answer_rels.get(pred)
            if relation is None or len(relation) == 0:
                return
            rows = relation.lookup(step.lookup_positions, key)
            if step.self_recursive and delta_depth != depth:
                # emission extends the very bucket being probed; snapshot
                # it so the scan sees the store as of probe time (new
                # answers flow through the next round's delta instead)
                rows = list(rows)
        else:
            relation = self.database.get(step.pred_key)
            if relation is None or len(relation) == 0:
                return
            key = self._build_key(step.key_ops, frame)
            rows = relation.lookup(step.lookup_positions, key)
        row_ops = step.row_ops
        next_depth = depth + 1
        for row in rows:
            ok = True
            for pos, tag, payload in row_ops:
                value = row[pos]
                if tag == _STORE:
                    frame[payload] = value
                elif tag == _EQ:
                    if frame[payload] != value:
                        ok = False
                        break
                elif tag == _EQC:
                    if payload != value:
                        ok = False
                        break
                else:  # _MATCH
                    pattern, bound_pairs, free_pairs = payload
                    seed = {v: frame[s] for v, s in bound_pairs}
                    if not match_into(pattern, value, seed):
                        ok = False
                        break
                    for v, s in free_pairs:
                        frame[s] = seed[v]
            if ok:
                self._run(plan, next_depth, frame, delta_depth, delta_rel)

    def _run_generic(self, plan, depth, frame, delta_depth,
                     delta_rel) -> None:
        """Slow path for a derived step whose subquery key is not ground.

        No subquery is generated, and the literal's resolved pattern is matched against every stored
        answer (new bindings written back into the frame).
        """
        step = plan.steps[depth]
        bound_pairs, free_pairs = step.generic_pairs
        subst: Substitution = {v: frame[s] for v, s in bound_pairs}
        resolved = tuple(
            resolve(arg, subst) for arg in step.literal.args
        )
        pred = step.pred_key
        self.result.queries.setdefault(pred, set())
        if delta_depth == depth:
            relation = delta_rel
        else:
            relation = self.answer_rels.get(pred)
        if relation is None or len(relation) == 0:
            return
        next_depth = depth + 1
        for row in list(relation):
            binding = match_sequences(resolved, row)
            if binding is None:
                continue
            for v, s in free_pairs:
                frame[s] = resolve(v, binding)
            self._run(plan, next_depth, frame, delta_depth, delta_rel)

    # ------------------------------------------------------------------
    def _emit(self, plan, frame) -> None:
        args = []
        for tag, payload in plan.head_ops:
            if tag == _SLOT:
                args.append(frame[payload])
            elif tag == _CONST:
                args.append(payload)
            elif tag == _EVAL:
                term, pairs = payload
                value = resolve(term, {v: frame[s] for v, s in pairs})
                if not value.is_ground():
                    return
                args.append(value)
            else:  # _UNBOUND: the row can never be ground; skip it
                return
        row = tuple(args)
        pred = plan.head_key
        relation = self.answer_rels.get(pred)
        if relation is None:
            relation = self._new_answer_relation(pred)
            self.answer_rels[pred] = relation
        if relation.add(row):
            self.answer_total += 1
            delta = self.pending_answers.get(pred)
            if delta is None:
                delta = self._new_answer_relation(pred)
                self.pending_answers[pred] = delta
            delta.add(row)

    def _new_answer_relation(self, pred: str) -> Relation:
        relation = Relation(pred)
        positions = self.compiled.bound_positions.get(pred)
        if positions:
            relation.register_index(positions)
        return relation


def _qsq_evaluate_compiled(
    adorned_program: Program,
    database: Database,
    query_literal: Literal,
    max_iterations: Optional[int],
    max_facts: Optional[int],
    plan_cache: Optional[PlanCache],
    meter=None,
) -> QSQResult:
    compiled, cache_hit = subquery_program_for(adorned_program, plan_cache)
    compiled.register_indexes(database)
    result = QSQResult()
    if cache_hit:
        result.plan_cache_hits = 1
    else:
        result.plan_cache_misses = 1
    executor = _QSQExecutor(compiled, database, result, meter)

    query_key = query_literal.pred_key
    seed = tuple(arg for arg in query_literal.args if arg.is_ground())
    result.queries.setdefault(query_key, set()).add(seed)
    result.subqueries_generated += 1
    executor.pending_inputs = {query_key: [seed]}

    answer_deltas: Dict[str, Relation] = {}
    while executor.pending_inputs or answer_deltas:
        result.iterations += 1
        if max_iterations is not None and result.iterations > max_iterations:
            raise NonTerminationError(
                f"QSQ evaluation exceeded {max_iterations} iterations",
                iterations=result.iterations,
                facts=executor.answer_total,
            )
        if meter is not None:
            meter.check_round(
                executor.answer_total, round_=result.iterations
            )
        new_inputs = executor.pending_inputs
        executor.pending_inputs = {}
        executor.pending_answers = {}

        # variant 1: new subqueries against the full answer stores
        for pred, vectors in new_inputs.items():
            for plan in compiled.plans_by_head.get(pred, ()):
                executor.execute(plan, vectors)

        # variant 2: per derived body occurrence, previous-round answer
        # deltas against every other accumulated input (the new inputs
        # just ran against the full stores, which contain the deltas).
        # Inputs generated while these variants run are complete next
        # round via variant 1, so one snapshot per plan suffices.
        for plan in compiled.plans:
            active = [
                (depth, answer_deltas.get(plan.steps[depth].pred_key))
                for depth in plan.derived_steps
            ]
            active = [(d, rel) for d, rel in active if rel]
            if not active:
                continue
            inputs = result.queries.get(plan.head_key)
            if not inputs:
                continue
            fresh = new_inputs.get(plan.head_key)
            if fresh:
                fresh_set = set(fresh)
                vectors = [v for v in inputs if v not in fresh_set]
            else:
                vectors = list(inputs)
            if not vectors:
                continue
            for depth, delta_rel in active:
                executor.execute(plan, vectors, depth, delta_rel)

        answer_deltas = executor.pending_answers
        if max_facts is not None and executor.answer_total > max_facts:
            raise NonTerminationError(
                f"QSQ evaluation exceeded {max_facts} facts",
                iterations=result.iterations,
                facts=executor.answer_total,
            )
    for pred, relation in executor.answer_rels.items():
        result.answers[pred] = set(relation)
    return result
