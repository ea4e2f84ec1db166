"""Parallel bottom-up evaluation: a sharded thread pool over columns.

The round driver hands a round's work over one rule at a time, in
serial order, and the tasks of one rule are independent: each reads
slot windows (:func:`repro.datalog.engine._delta_tasks`) fixed when the
rule's turn came, so no task sees another's installs.  This module
exploits that by fanning a rule's tasks out, as one group with no
barrier inside it, to a pool of worker threads and merging the derived
ID rows back through the existing dedup/rowmap path before the next
rule's turn -- the fact set and the solution counters
(``facts_derived`` / ``rule_firings`` / ``duplicate_derivations`` /
``iterations``) are identical to the serial engine *by construction*,
because sharding partitions each batch's input rows exactly and
merging replays the serial install order.

The workers share the working database: while a group runs they only
read it, and the parent only writes to it between groups (concurrent
lazy index builds are value-idempotent), so nothing is copied or
shipped to them.  A plan that interns terms at run time (a structured
head such as ``f(X)``) interns into the one process-wide
:class:`~repro.datalog.catalog.TermCatalog`, whose allocation lock
hands each new term one ID.  On a GIL build the threads interleave
rather than overlap, so the pool is slower than serial there: on a
2-vCPU host, 2 and 4 workers ran at 0.56-0.77x of serial speed on a
transitive-closure braid and on the BOM workload, and ``perf/``'s
``parallel.w2_over_serial`` reads ~1.65 (slower) on samegen-fixpoint.
Whether it beats serial on free-threaded CPython is unmeasured: no
free-threaded build has been run.

Work splitting per batch, chosen by the join planner
(:func:`~repro.datalog.planner.partition_columns`):

* **hash**: the input rows are hash-partitioned on the column(s) that
  feed the next step's probe key, so each distinct join key lands on
  exactly one worker and the per-shard probe sets stay disjoint;
* **chunk**: no downstream probe keys on an input column (copy rules,
  pure filters) -- any split is equally good, so rows round-robin;
* **solo**: a downstream step probes on keys the input does not supply
  (partitioning cannot co-locate them) -- the whole batch goes to one
  worker and parallelism comes from running a rule's tasks side by side.

Linear and non-linear rules alike run their tasks without a barrier:
the windows already keep a non-linear rule's delta plans from seeing
each other's rows, so there is one merge per rule and round.

The budget regime stays in the parent: ``meter.check_round`` /
``check_batch`` run at exactly the serial boundaries (one batch check
per batch, before dispatch), the wall-clock deadline is passed to
every shard (a shard that starts after it aborts), and any abort --
budget trip, cancellation, injected fault, worker exception -- unwinds
through a ``finally`` that shuts the pool down while the caller's
database, never touched, stays integral.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from itertools import count
from typing import Dict, List, Optional, Tuple

from .ast import Program
from .database import Database, IdTuple
from .engine import EvaluationStats, _IdDeltaBatch, _install
from .errors import EvaluationError
from .planner import CompiledProgram, JoinPlan, compile_rule, partition_columns

__all__ = ["pool_executor"]

_MIX = 0x9E3779B97F4A7C15
_MASK = (1 << 64) - 1


# ----------------------------------------------------------------------
# sharding
# ----------------------------------------------------------------------

def _shard_index(row: IdTuple, pcols: Tuple[int, ...], workers: int) -> int:
    h = 0
    for p in pcols:
        h = ((h ^ row[p]) * _MIX) & _MASK
    return (h >> 32) % workers


def _hash_shards(rows, pcols, workers: int) -> List[List[IdTuple]]:
    """Hash-partition ``rows`` on the columns ``pcols``: one shard per
    worker.

    Term IDs are small dense ints, so the raw value mod ``workers``
    would stripe structured workloads badly; a Fibonacci-style mix of
    the partition columns spreads them.
    """
    shards: List[List[IdTuple]] = [[] for _ in range(workers)]
    if len(pcols) == 1:
        (p,) = pcols
        for r in rows:
            shards[(((r[p] * _MIX) & _MASK) >> 32) % workers].append(r)
    else:
        for r in rows:
            shards[_shard_index(r, pcols, workers)].append(r)
    return shards


# ----------------------------------------------------------------------
# per-program shard planning
# ----------------------------------------------------------------------

def _shard_mode(plan: JoinPlan) -> Tuple[str, Optional[Tuple[int, ...]]]:
    """How to split this plan's input rows across workers."""
    if not plan.steps or plan.steps[0].negated:
        return ("solo", None)
    pcols = partition_columns(plan)
    if pcols is not None:
        return ("hash", pcols)
    for step in plan.steps[1:]:
        if not step.negated and step.key_ops:
            # a probing step keys on values the input rows do not carry:
            # splitting would re-probe the same keys on every worker
            return ("solo", None)
    return ("chunk", None)


class _ProgramShards:
    """Shard plans and split modes for one compiled program.

    ``shard_plans[rule_index]`` re-compiles the rule with its first
    *positive* body literal (in plan order) as the delta occurrence, so
    a full-relation batch -- round one, and every naive round -- can be
    executed as N disjoint input shards; solution multisets are
    join-order independent, so the per-rule counters stay exact.
    """

    __slots__ = ("shard_plans", "full_pivot", "full_modes", "delta_modes")

    def __init__(self, program: Program, compiled: CompiledProgram):
        self.shard_plans: Dict[int, JoinPlan] = {}
        self.full_pivot: Dict[int, Optional[int]] = {}
        self.full_modes: Dict[int, Tuple[str, Optional[Tuple[int, ...]]]] = {}
        self.delta_modes: Dict[
            Tuple[int, int], Tuple[str, Optional[Tuple[int, ...]]]
        ] = {}
        for rule_index, rule in enumerate(program.rules):
            plan = compiled.plan(rule_index)
            pivot = next(
                (i for i in plan.order if not rule.body[i].negated), None
            )
            self.full_pivot[rule_index] = pivot
            if pivot is None:
                self.full_modes[rule_index] = ("solo", None)
            else:
                try:
                    shard_plan = compiled.plan(rule_index, pivot)
                except KeyError:
                    shard_plan = compile_rule(rule, pivot)
                self.shard_plans[rule_index] = shard_plan
                self.full_modes[rule_index] = _shard_mode(shard_plan)
            for occ in compiled.delta_occurrences(rule_index):
                self.delta_modes[(rule_index, occ)] = _shard_mode(
                    compiled.plan(rule_index, occ)
                )


# ----------------------------------------------------------------------
# work items
# ----------------------------------------------------------------------

class _BatchTask:
    """One batch of one round: a rule (full) or rule/delta work item."""

    __slots__ = ("task_id", "rule_index", "delta_index", "plan", "windows",
                 "head_key", "input_pred", "mode", "pcols", "solo")

    def __init__(self, task_id, rule_index, delta_index, plan, windows,
                 head_key, input_pred, mode, pcols, solo):
        self.task_id = task_id
        self.rule_index = rule_index
        #: None for a full batch (input = the pivot relation), else the
        #: delta occurrence (input = its slot window)
        self.delta_index = delta_index
        #: the plan the shards run (a full solo batch runs it unsharded)
        self.plan = plan
        #: the engine task's slot windows (None for a full batch)
        self.windows = windows
        self.head_key = head_key
        self.input_pred = input_pred
        #: "hash" / "chunk" / "solo" (see module docstring)
        self.mode = mode
        self.pcols = pcols
        #: worker index owning the batch when mode == "solo"
        self.solo = solo


def _batch_task(task_id, rule_index, occ, windows, program, compiled, shards,
                workers):
    """The work item of one engine task: rule ``rule_index``'s full
    plan (``occ`` None) or its delta plan at body position ``occ``."""
    rule = program.rules[rule_index]
    if occ is None:
        mode, pcols = shards.full_modes[rule_index]
        pivot = shards.full_pivot[rule_index]
        input_pred = rule.body[pivot].pred_key if pivot is not None else None
        if mode == "solo":
            plan = compiled.plan(rule_index)
        else:
            plan = shards.shard_plans[rule_index]
    else:
        mode, pcols = shards.delta_modes[(rule_index, occ)]
        input_pred = rule.body[occ].pred_key
        plan = compiled.plan(rule_index, occ)
    return _BatchTask(
        task_id, rule_index, occ, plan, windows, rule.head.pred_key,
        input_pred, mode, pcols, task_id % workers,
    )


def _task_shards(task, working, workers):
    """``(worker, input_rows)`` per non-empty shard of one task.

    ``input_rows`` None runs the plan as a plain full batch (the solo
    path for rules with no shardable pivot).
    """
    relation = working.get(task.input_pred)
    if task.delta_index is not None:
        rows = relation.window_rows(*task.windows[task.delta_index])
    elif task.mode == "solo":
        return [(task.solo, None)]
    else:
        rows = list(relation.id_rows()) if relation is not None else []
    if task.mode == "solo":
        return [(task.solo, rows)]
    if task.mode == "hash":
        per_worker = _hash_shards(rows, task.pcols, workers)
    else:
        per_worker = [rows[w::workers] for w in range(workers)]
    return [(w, shard) for w, shard in enumerate(per_worker) if shard]


def _execute_shard(plan, database, rows, windows, deadline):
    """Run one plan over one input shard, reading ``windows`` at its
    other steps.

    Returns ``(rows, solutions, probes, scanned)``.  ``rows`` may
    repeat and each may stand for several body solutions
    (:meth:`JoinPlan.execute_batch`); the merge needs only the row set
    and the solution count, so the per-row multiplicities stop here.

    ``rows is None`` executes the plan as a plain full batch.  Returns
    None when the deadline already passed -- the caller reports the
    abort and the parent's meter turns it into the structured budget
    error.
    """
    if deadline is not None and time.monotonic() > deadline:
        return None
    lstats = EvaluationStats()
    if rows is None:
        out, _, solutions = plan.execute_batch(database, lstats)
    else:
        if not rows:
            return ([], 0, 0, 0)
        out, _, solutions = plan.execute_batch(
            database, lstats, _IdDeltaBatch(rows), windows=windows
        )
    return (out, solutions, lstats.join_probes, lstats.tuples_scanned)


def _merge_shard(results, stats, task_id, w, rows, solutions, probes,
                 scanned):
    """Fold one shard's result from worker ``w`` into its task's
    ``(solutions, rows)`` entry and the parent's counters."""
    n_emitted, merged = results[task_id]
    merged.extend(rows)
    results[task_id] = (n_emitted + solutions, merged)
    stats.rule_firings += solutions
    stats.join_probes += probes
    stats.tuples_scanned += scanned
    stats.parallel_tasks += 1
    stats.parallel_rows_shipped += len(rows)
    stats.parallel_worker_rows[w] = (
        stats.parallel_worker_rows.get(w, 0) + solutions
    )


# ----------------------------------------------------------------------
# the pool round executor
# ----------------------------------------------------------------------

def _run_group(group, working, stats, meter, pool, workers, fresh_by_head):
    """One rule's batches: submit every shard, merge, install.

    Adds the fresh rows to ``fresh_by_head``, per head predicate.
    """
    deadline = getattr(meter, "deadline", None) if meter is not None else None
    if meter is not None:
        # one check per batch, at the same cadence the serial
        # executor checks inside execute_batch
        for _task in group:
            meter.check_batch(stats.facts_derived, stats.tuples_scanned)
    pending = [
        (task.task_id, w, pool.submit(
            _execute_shard, task.plan, working, rows, task.windows, deadline
        ))
        for task in group
        for w, rows in _task_shards(task, working, workers)
    ]
    results = {task.task_id: (0, []) for task in group}
    aborted = False
    for task_id, w, future in pending:
        out = future.result()
        if out is None:
            aborted = True
            continue
        _merge_shard(results, stats, task_id, w, *out)
    if aborted:
        # workers hit the wall-clock deadline between work items;
        # the meter raises the same structured error the serial
        # path would (the deadline that stopped them has passed)
        if meter is not None:
            meter.check_batch(stats.facts_derived, stats.tuples_scanned)
        raise EvaluationError(
            "parallel workers aborted on a deadline no meter owns"
        )
    stats.parallel_batches += len(group)
    for task in group:
        n_emitted, rows = results[task.task_id]
        if not n_emitted:
            continue
        fresh = _install(working, stats, task.head_key, rows, n_emitted)
        if fresh:
            fresh_by_head.setdefault(task.head_key, []).extend(fresh)


@contextmanager
def pool_executor(
    program: Program,
    compiled: CompiledProgram,
    working: Database,
    stats: EvaluationStats,
    meter,
    workers: int,
):
    """The round executor of ``evaluate*(..., workers=N)``, N >= 2.

    Yields an executor for :func:`repro.datalog.engine.fixpoint` that
    runs each rule's tasks as one group of sharded batches on a pool of
    ``workers`` threads, installing the group's rows before it pulls
    the next rule's.  Fact sets and solution counters match the serial
    executor exactly; the parallel counters (``parallel_*`` on
    :class:`EvaluationStats`) record the pool's shape and traffic.  The
    pool lives for exactly one evaluation, across all its rounds, and
    is shut down on exit so budget trips, cancellations, injected
    faults, and worker exceptions leave only the untouched caller
    database behind.
    """
    shards = _ProgramShards(program, compiled)
    stats.parallel_workers = workers
    pool = ThreadPoolExecutor(
        max_workers=workers, thread_name_prefix="repro-parallel"
    )
    task_ids = count()

    def execute(groups):
        fresh_by_head: Dict[str, List[IdTuple]] = {}
        for group in groups:
            batches = [
                _batch_task(
                    next(task_ids), ri, j, windows, program, compiled,
                    shards, workers,
                )
                for ri, j, windows, _ in group
            ]
            _run_group(
                batches, working, stats, meter, pool, workers, fresh_by_head
            )
        return fresh_by_head

    try:
        yield execute
    finally:
        pool.shutdown(wait=True, cancel_futures=True)
