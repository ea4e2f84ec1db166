"""Bottom-up evaluation: naive and semi-naive fixpoint computation.

This is the evaluation substrate the paper assumes (Section 1.1): start
with the database relations and empty derived predicates; in each stage
add every tuple implied by a rule given the previous stage; the limit of
the monotonically increasing sequence is the answer.  Completeness is the
classical least-fixed-point result [van Emden & Kowalski; Lloyd 84].

One entry point, :func:`evaluate`, runs either strategy by name:

* ``method="naive"`` -- recompute every rule against the whole
  database each iteration (the paper's strawman in Section 1);
* ``method="seminaive"`` (the default, and what every rewrite is
  evaluated with) -- exact differential evaluation: after its first
  run a rule fires only on body solutions that use at least one derived
  fact it has not joined yet, and finds each of those exactly once.

Both are instrumented (:class:`EvaluationStats`): the paper's claims are
about the *number of facts computed* (Sections 9 and 11), so counting
derivations, firings, and index probes is the measurement apparatus of
the reproduction.

Programs with function symbols need not terminate (Section 1.1 notes the
limit may be infinite); an evaluation is bounded by a budget meter
(:class:`repro.core.limits.EvaluationBudget`, whose ``max_iterations``,
``max_facts`` and other limits raise a
:class:`~repro.datalog.errors.NonTerminationError` subclass on overrun).

Stratified negation
-------------------

Both strategies evaluate programs with negated body literals under the
stratified semantics: the rules are partitioned by
:func:`repro.datalog.analysis.stratify` (raising
:class:`~repro.datalog.errors.StratificationError` on recursion through
negation and :class:`~repro.datalog.errors.UnsafeNegationError` on
negated variables no positive literal binds), and each stratum runs to
its fixpoint before the next starts.  A negated literal is evaluated as
an anti-join against the -- by then complete -- relation of a strictly
lower stratum, so negation-as-failure coincides with set complement.
Positive programs form a single stratum and behave exactly as before.

Execution
---------

Both strategies run on **compiled join plans**
(:mod:`repro.datalog.planner`): each rule is compiled once -- per
delta-literal choice -- into a :class:`~repro.datalog.planner.JoinPlan`
with a greedily reordered body (delta occurrence first, then maximally
bound literals) and precomputed index-position tuples registered on the
:class:`Relation` objects up front.  A rule's head instances come from
:meth:`JoinPlan.execute_batch <repro.datalog.planner.JoinPlan.execute_batch>`
as ID rows that may repeat, each standing for one or more body solutions
(equal frames are merged mid-join and carry a multiplicity); the
multiplicities sum to the exact number of body solutions.  The round
executors therefore count duplicates as ``solutions - fresh``, never
from a row-list length, and ``tuples_scanned`` counts the rows touched
*after* merging.  ``rule_firings`` / ``facts_derived`` /
``duplicate_derivations`` count body solutions, which join order cannot
change; ``join_probes`` and ``tuples_scanned`` measure the work done.

Semi-naive evaluation is exact: each body solution over the final model
is found once, so ``rule_firings`` *equals* the number of body
solutions of every rule over the final model, whatever order the rows
arrived in (serial or on the pool), and ``duplicate_derivations`` is
``rule_firings - facts_derived``.  A plan reads *slot windows* of its
relations for that: a relation only grows by appending slots during a
fixpoint, so "the rows new since the rule last ran" and "the rows it
had seen" are slot ranges, read in place (no delta relation is built),
an index bucket cut by bisection.

The round driver
----------------

Every fixpoint in the package runs on one stratum/round loop,
:func:`fixpoint`, which owns rounds, budgets, termination, the choice
of each round's tasks and, for semi-naive, each rule's slot
watermarks.  Rules run in stratum order and see what earlier rules
installed in the same round (Gauss--Seidel order), which cuts the
round count.  How the tasks execute is passed in as a round executor;
four routes use them:

* **serial** -- ``execute_batch``, then install, task by task
  (:func:`serial_executor`);
* **pool** -- a rule's tasks as sharded batches on a thread pool that
  shares the working database, merged in serial order before the next
  rule's turn (:func:`repro.datalog.parallel.pool_executor`);
* **IVM** -- the serial executor with DRed's insert emitter (exact, from
  slot marks) or its overdelete emitter, which installs nothing and so
  hands its fresh rows to the next round as delta batches
  (:class:`repro.datalog.ivm.MaterializedProgram`);
* **QSQ** -- the serial executor on a
  :class:`~repro.datalog.planner.SubqueryProgram`, which stands in for
  the compiled program: its plans read the subquery (input) and answer
  relations of the adorned predicates, which grow like derived
  relations, and register subqueries as they run
  (:func:`repro.datalog.topdown.qsq_evaluate`).

The executors of :func:`evaluate` and QSQ install through
:func:`_install`, which logs ``(head predicate, slot count after)`` per
install that adds rows (``EvaluationStats.installs``): a derived row's
tick is the number of the install that added it, and a derivation tree
(:mod:`repro.datalog.derivation`) reads its supports below that tick,
with no second evaluation.

:func:`fixpoint` runs with CPython's cyclic collector off: its working
set (ints, ID tuples, lists, dicts, ``array('q')`` columns) holds no
reference cycles, so a collection there reclaims nothing, and refcounting
frees what a round drops.  Nested and concurrent fixpoints (IVM strata,
server threads, pool workers) share one process-wide pause; the last to
leave restores the state the first found, even if another thread
toggled the collector meanwhile.
"""

from __future__ import annotations

import gc
import threading
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from functools import partial
from itertools import chain
from typing import Callable, Dict, Iterable, List, Optional, Set, Tuple, Union

from .ast import Program
from .database import Database, IdTuple
from .planner import (
    CompiledProgram,
    PlanCache,
    SubqueryProgram,
    compiled_program_for,
)

__all__ = [
    "EvaluationStats",
    "EvaluationResult",
    "evaluate",
]


@dataclass
class EvaluationStats:
    """Work counters for one bottom-up evaluation."""

    #: fixpoint rounds, summed over strata
    iterations: int = 0
    #: body solutions found (head instances produced, incl. duplicates);
    #: semi-naive finds each one over the final model exactly once
    rule_firings: int = 0
    #: facts that were new when derived
    facts_derived: int = 0
    #: head instances that had already been derived: ``rule_firings -
    #: facts_derived``, two solutions of one fact or a solution of a
    #: fact the input already held
    duplicate_derivations: int = 0
    #: index lookups performed during joins
    join_probes: int = 0
    #: tuples scanned while extending partial matches
    tuples_scanned: int = 0
    #: plan-cache outcome for this evaluation
    plan_cache_hits: int = 0
    plan_cache_misses: int = 0
    facts_by_predicate: Dict[str, int] = field(default_factory=dict)
    #: effective worker count of the parallel tier (0 = serial run)
    parallel_workers: int = 0
    #: shard/batch work items executed by workers
    parallel_tasks: int = 0
    #: batches merged through the parallel path
    parallel_batches: int = 0
    #: result ID rows the workers handed back to the merge
    parallel_rows_shipped: int = 0
    #: body solutions per worker index (shard-balance instrumentation)
    parallel_worker_rows: Dict[int, int] = field(default_factory=dict)
    #: the install log: ``(head predicate, slot count after)`` per
    #: install that added rows, in install order (see :func:`_install`)
    installs: List[Tuple[str, int]] = field(default_factory=list)

    def record_facts(self, pred_key: str, count: int) -> None:
        """Count ``count`` new facts of ``pred_key``."""
        self.facts_derived += count
        self.facts_by_predicate[pred_key] = (
            self.facts_by_predicate.get(pred_key, 0) + count
        )


@dataclass
class EvaluationResult:
    """Outcome of a bottom-up evaluation.

    ``database`` holds base *and* derived facts, and a query's answer
    is selected from it (``result.database.answers(literal)``, see
    :meth:`Database.answers`); ``derived_keys`` lists the predicate keys
    the program defines (so callers can separate IDB from EDB), and
    ``stats`` the work counters and the install log
    (:mod:`repro.datalog.derivation` stamps each derived row with it).
    """

    database: Database
    derived_keys: Set[str]
    stats: EvaluationStats


# ----------------------------------------------------------------------
# fixpoint strategies
# ----------------------------------------------------------------------

def _install(
    working: Database,
    stats: EvaluationStats,
    head_key: str,
    rows: List[IdTuple],
    solutions: int,
) -> List[IdTuple]:
    """Add one batch's ID rows, standing for ``solutions`` body
    solutions, to ``working``; return the fresh ones.

    An install that adds rows appends ``(head_key, slot count after)``
    to ``stats.installs``: relations only grow by appending slots during
    a fixpoint, so the log dates every derived row."""
    relation = working.relation(head_key)
    fresh = relation.add_id_rows(rows) if rows else []
    n_fresh = len(fresh)
    stats.duplicate_derivations += solutions - n_fresh
    if n_fresh:
        stats.record_facts(head_key, n_fresh)
        stats.installs.append((head_key, len(relation._live)))
    return fresh


class _IdDeltaBatch:
    """A delta given as explicit ID rows, for the batch executor: IVM's
    seeds and overdeletion rounds, and the pool's input shards (a
    semi-naive delta installed in a relation is read there in place).

    Duck-types the slice of the :class:`Relation` interface the batch
    join steps touch (``__len__``, ``lookup_ids``, ``_columns``): the
    rows are a plain list, and the columns / probe index are built in
    one pass at the first probe -- a delta is never probed and extended
    in the same round, so nothing is maintained incrementally and the
    per-row insert cost of a full :class:`Relation` disappears.  A scan
    of the batch hands its column lists on as the frame columns
    themselves, so nothing downstream may mutate a frame column.  It
    has no rowmap: a full-width probe of it takes the ``count`` path.
    """

    __slots__ = ("rows", "_cols", "_indexes")

    def __init__(self, rows: List[IdTuple]) -> None:
        self.rows = rows
        self._cols: Optional[List[List[int]]] = None
        self._indexes: Dict[Tuple[int, ...], Dict[object, List[int]]] = {}

    def __len__(self) -> int:
        return len(self.rows)

    @property
    def _columns(self) -> List[List[int]]:
        cols = self._cols
        if cols is None:
            cols = self._cols = [list(col) for col in zip(*self.rows)]
        return cols

    def probe_index(
        self, positions: Tuple[int, ...]
    ) -> Optional[Dict[object, List[int]]]:
        """The raw key->rows dict for ``positions`` (always exact:
        deltas have no tombstones), or None for empty positions."""
        if not positions:
            return None
        index = self._indexes.get(positions)
        if index is None:
            index = {}
            if len(positions) == 1:
                (p0,) = positions
                for slot, row in enumerate(self.rows):
                    index.setdefault(row[p0], []).append(slot)
            else:
                for slot, row in enumerate(self.rows):
                    index.setdefault(
                        tuple(row[i] for i in positions), []
                    ).append(slot)
            self._indexes[positions] = index
        return index

    def lookup_ids(
        self, positions: Tuple[int, ...], key: object
    ) -> List[int]:
        if not positions:
            return list(range(len(self.rows)))
        return self.probe_index(positions).get(key, [])


# ----------------------------------------------------------------------
# the round driver
# ----------------------------------------------------------------------

#: Slot windows ``{body index: (lo, hi)}`` a task's plan reads
#: (:meth:`~repro.datalog.planner.JoinPlan.execute_batch`).
Windows = Dict[int, Tuple[int, int]]
#: One unit of a round: ``(rule index, delta occurrence, windows,
#: delta batch)`` -- the occurrence None for the rule's full plan, the
#: windows None when the plan reads whole relations, the batch None
#: unless the delta comes as explicit rows.
Task = Tuple[int, Optional[int], Optional[Windows], Optional[_IdDeltaBatch]]
#: Runs one round: pulls the round's task groups, one per rule in
#: stratum order, running and installing each group before pulling the
#: next, and returns the fresh head rows per predicate.
RoundExecutor = Callable[[Iterable[List[Task]]], Dict[str, List[IdTuple]]]


def _slot_counts(
    working: Database, reads: Tuple[Tuple[int, str], ...]
) -> Dict[str, int]:
    """The slot count of each predicate of ``reads`` (0 for a relation
    not created yet)."""
    counts = {}
    for _, pred in reads:
        relation = working.get(pred)
        counts[pred] = 0 if relation is None else len(relation._live)
    return counts


def _delta_tasks(
    ri: int,
    reads: Tuple[Tuple[int, str], ...],
    seen: Dict[str, int],
    now: Dict[str, int],
) -> List[Task]:
    """Rule ``ri``'s exact semi-naive tasks, given its positive body
    occurrences ``(j, predicate)`` of the stratum's heads and their slot
    counts at its previous run (``seen``) and now.

    The plan for occurrence ``j`` reads the rows new since then
    (``[seen, now)``) at ``j``, the old ones (``[0, seen)``) at the
    occurrences before ``j`` and everything (``[0, now)``) after it, so
    a body solution is found by the plan of the first occurrence whose
    row is new -- exactly once.  Other body literals read relations the
    stratum does not change.
    """
    tasks: List[Task] = []
    for j, pred in reads:
        if now[pred] == seen[pred]:
            continue
        windows: Windows = {}
        for k, other in reads:
            if k < j:
                windows[k] = (0, seen[other])
            elif k == j:
                windows[k] = (seen[other], now[other])
            else:
                windows[k] = (0, now[other])
        tasks.append((ri, j, windows, None))
    return tasks


#: the collector pause's holders, and whether the first found it on
_pause_lock = threading.Lock()
_pause_holders = 0
_enabled_at_entry = False


@contextmanager
def _collector_paused():
    """Hold the process-wide collector pause (see the module docstring)."""
    global _pause_holders, _enabled_at_entry
    with _pause_lock:
        if not _pause_holders:
            _enabled_at_entry = gc.isenabled()
            gc.disable()
        _pause_holders += 1
    try:
        yield
    finally:
        with _pause_lock:
            _pause_holders -= 1
            if not _pause_holders:
                (gc.enable if _enabled_at_entry else gc.disable)()


@_collector_paused()
def fixpoint(
    compiled: Union[CompiledProgram, SubqueryProgram],
    working: Database,
    stats: EvaluationStats,
    execute: RoundExecutor,
    seminaive: bool = True,
    meter=None,
    stratum: Optional[int] = None,
    seeds: Optional[Dict[str, List[IdTuple]]] = None,
    marks: Optional[Dict[str, int]] = None,
    first_round: int = 0,
) -> None:
    """Run each stratum, in order, to its fixpoint.

    Of ``compiled`` the driver reads only ``strata`` and
    ``recursive_occurrences``; ``execute`` runs the tasks.

    A stratum's first round runs every rule's full plan, and so does
    every naive round, until one derives nothing.  Semi-naive is exact:
    during a fixpoint a derived relation only grows by appending slots,
    so the driver keeps, per rule, the slot count of each body predicate
    its stratum defines as of the rule's previous run, and a later run
    reads the windows of :func:`_delta_tasks`.  Rules run in stratum order and
    each sees what earlier rules installed in the same round; a
    semi-naive stratum ends when no rule has rows it has not seen.
    ``marks`` (slot counts per predicate) starts every rule there
    instead of with a full round: the rows installed since are the
    delta (IVM insertion).

    ``seeds`` (rows per predicate) is for an executor that installs
    nothing (IVM overdeletion): rounds then run the delta plans the
    previous round's fresh rows feed, as batches, against whole
    relations, until a round emits nothing.

    Every round counts one ``stats.iterations`` (accumulating across
    strata), then reports ``check_round(stats, stratum, round)`` to
    ``meter``, rounds numbered per stratum from ``first_round + 1``.
    ``stratum`` runs only that stratum (IVM).  As it returns, the
    driver checks the meter's fact and tuple limits once more
    (``check_limits``: no round, no fault tick), so rows the last round
    installed cannot overrun them unseen.

    The cyclic collector is paused for the call, however it ends; no
    round builds a cycle, and nested or concurrent calls share a pause.
    """
    strata = range(len(compiled.strata)) if stratum is None else (stratum,)
    for stratum_index in strata:
        members = compiled.strata[stratum_index]
        reads = {ri: compiled.recursive_occurrences(ri) for ri in members}
        #: per rule, the slot counts of what it reads as of its previous
        #: run (None: it has not run, its next run is the full plan)
        seen: Dict[int, Optional[Dict[str, int]]] = dict.fromkeys(members)
        if marks is not None:
            for ri in members:
                now = _slot_counts(working, reads[ri])
                seen[ri] = {pred: marks.get(pred, n) for pred, n in now.items()}

        def windowed_groups():
            # lazily: a rule's windows are fixed at its turn, after the
            # executor installed every earlier rule's rows
            for ri in members:
                occurrences = reads[ri]
                last = seen[ri]
                if not seminaive or last is None:
                    now = _slot_counts(working, occurrences)
                    yield [(ri, None, None, None)]
                elif not occurrences:
                    continue  # it read nothing that grows: done
                else:
                    now = _slot_counts(working, occurrences)
                    if now == last:
                        continue
                    yield _delta_tasks(ri, occurrences, last, now)
                seen[ri] = now

        deltas = seeds
        round_number = first_round
        while True:
            if deltas is not None:
                if not deltas:
                    break
                batches = {
                    pred: _IdDeltaBatch(rows) for pred, rows in deltas.items()
                }
                groups = [
                    [
                        (ri, j, None, batches[pred])
                        for j, pred in reads[ri]
                        if pred in batches
                    ]
                    for ri in members
                ]
            else:
                # a round exists iff some rule has a task: peek at the
                # first group (nothing is installed before it runs)
                groups = windowed_groups()
                first = next(groups, None)
                if first is None:
                    break
                groups = chain((first,), groups)
            stats.iterations += 1
            round_number += 1
            if meter is not None:
                meter.check_round(stats, stratum_index, round_number, working)
            fresh = execute(groups)
            if deltas is not None:
                deltas = fresh
            elif not seminaive and not fresh:
                break
    if meter is not None:
        meter.check_limits(stats)


def serial_executor(
    compiled: Union[CompiledProgram, SubqueryProgram],
    working: Database,
    stats: EvaluationStats,
    meter,
    emit: Callable[[str, List[IdTuple], int], List[IdTuple]],
) -> RoundExecutor:
    """The serial round executor: each task's plan runs through
    ``execute_batch`` and ``emit(head, rows, solutions)`` installs its
    rows, returning the fresh ones, before the next task runs."""
    head_keys = [rule.head.pred_key for rule in compiled.program.rules]

    def execute(groups):
        fresh_by_head: Dict[str, List[IdTuple]] = {}
        for group in groups:
            for ri, j, windows, delta in group:
                head_key = head_keys[ri]
                rows, _, solutions = compiled.plan(ri, j).execute_batch(
                    working, stats, delta, meter, windows
                )
                fresh = emit(head_key, rows, solutions)
                if fresh:
                    fresh_by_head.setdefault(head_key, []).extend(fresh)
        return fresh_by_head

    return execute


def evaluate(
    program: Program,
    database: Database,
    method: str = "seminaive",
    plan_cache: Optional[PlanCache] = None,
    meter=None,
    workers: Optional[int] = None,
) -> EvaluationResult:
    """Bottom-up evaluation by strategy name (``"naive"`` or
    ``"seminaive"``) on a snapshot of ``database``: fetch (or build) the
    program's plans, pick the serial or the pool executor, and run
    :func:`fixpoint`.

    With negation, each stratum's rules run to their joint fixpoint
    before the next stratum starts (``stats.iterations`` accumulates
    rounds across strata).  Evaluation runs on a snapshot of
    ``database`` (base relations shared, derived ones created in the
    snapshot), so an abort installs nothing.

    ``meter`` is an optional budget meter (duck-typed so this module
    never imports :mod:`repro.core.limits`): ``check_round`` runs at
    every fixpoint-round boundary, ``check_batch`` at rule/batch
    boundaries and ``check_limits`` where the fixpoint returns, each
    free to abort by raising.  ``workers`` > 1 runs
    each round's batches on the parallel tier
    (:mod:`repro.datalog.parallel`); fact sets and the solution counters
    (``facts_derived`` / ``rule_firings`` / ``duplicate_derivations`` /
    ``iterations``) are identical to the serial run by construction.
    """
    if method not in ("naive", "seminaive"):
        raise ValueError(f"unknown evaluation method {method!r}")
    working = database.snapshot()
    stats = EvaluationStats()
    compiled, cache_hit = compiled_program_for(program, plan_cache)
    if cache_hit:
        stats.plan_cache_hits += 1
    else:
        stats.plan_cache_misses += 1
    compiled.register_indexes(working)
    if workers is not None and workers > 1:
        from .parallel import pool_executor

        executor = pool_executor(
            program, compiled, working, stats, meter, int(workers)
        )
    else:
        executor = nullcontext(serial_executor(
            compiled, working, stats, meter, partial(_install, working, stats)
        ))
    with executor as execute:
        fixpoint(
            compiled, working, stats, execute, method == "seminaive", meter
        )
    return EvaluationResult(working, program.derived_predicates(), stats)
