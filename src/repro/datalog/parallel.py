"""Parallel bottom-up evaluation: a sharded worker pool over columns.

The round driver hands a round's work over one rule at a time, in
serial order, and the tasks of one rule are independent: each reads
slot windows (:func:`repro.datalog.engine._delta_tasks`) fixed when the
rule's turn came, so no task sees another's installs.  This module
exploits that by fanning a rule's tasks out, as one group with no
barrier inside it, to a persistent pool of workers and merging the
derived ID rows back through the existing dedup/rowmap path in the
parent before the next rule's turn -- the fact set and the solution
counters (``facts_derived`` / ``rule_firings`` /
``duplicate_derivations`` / ``iterations``) are identical to the serial
engine *by construction*, because sharding partitions each batch's
input rows exactly and merging replays the serial install order.

Both backends run a round's tasks for the engine's one round driver
(:func:`repro.datalog.engine.fixpoint`), which hands them to
:func:`pool_executor`:

* **fork** (default on CPython with the GIL): worker processes are
  forked *after* the working copy, the compiled plans, and all
  compile-time constants exist, so the EDB columns, the plan objects,
  and the :class:`~repro.datalog.catalog.TermCatalog` prefix reach every
  worker by copy-on-write at zero serialization cost (this subsumes an
  explicit ``shared_memory`` export of the big EDB relations; the
  catalog's pinned prefix is the one-shot export --
  :meth:`TermCatalog.export_state` is the spawn-ready equivalent).  Per
  group, the parent broadcasts only the *fresh* rows of each merge as
  flat ``array('q')`` buffers (pickled as raw bytes) so worker replicas
  stay in lockstep -- in the parent's install order, so a worker reads
  a delta's slot window from what it was sent -- and workers return
  candidate-fresh rows the same way, pre-deduplicated against their
  replica to cut return traffic.
  Workers never intern: plans that allocate term IDs at run time
  (:func:`~repro.datalog.planner.plan_interns_terms`) would grow
  worker-local ID spaces that disagree with the parent, so such
  programs fall back to the thread backend.
* **thread** (auto-selected on free-threaded builds, and the fallback
  wherever fork is unavailable or unsafe): workers execute against the
  *shared* working database between merges -- no replicas, no
  broadcasts; real parallelism arrives when the GIL is off.

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
each other's rows, so there is one merge (and, on fork, one broadcast)
per rule and round.

The budget regime stays in the parent: ``meter.check_round`` /
``check_batch`` run at exactly the serial boundaries (one batch check
per batch, before dispatch), the wall-clock deadline is shipped to
workers with every ``exec`` message (they abort between work items),
and any abort -- budget trip, cancellation, injected fault, worker
death -- unwinds through a ``finally`` that tears the pool down while
the caller's database, never touched, stays integral.
"""

from __future__ import annotations

import multiprocessing
import sys
import time
from contextlib import contextmanager
from itertools import count, islice
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from concurrent.futures import ThreadPoolExecutor

from .ast import Program
from .catalog import term_catalog
from .database import Database, IdTuple
from .engine import EvaluationStats, _IdDeltaBatch, _install
from .errors import EvaluationError
from .planner import (
    CompiledProgram,
    JoinPlan,
    compile_rule,
    partition_columns,
    plan_interns_terms,
)

__all__ = ["pool_executor", "resolve_backend"]

from array import array

_MIX = 0x9E3779B97F4A7C15
_MASK = (1 << 64) - 1


def resolve_backend(backend: str = "auto") -> str:
    """Resolve ``"auto"`` to a concrete pool backend for this build.

    Threads when the GIL is disabled (free-threaded CPython) or fork is
    unavailable; forked processes otherwise.
    """
    if backend in ("fork", "thread"):
        return backend
    if backend != "auto":
        raise ValueError(f"unknown parallel backend {backend!r}")
    gil_enabled = getattr(sys, "_is_gil_enabled", None)
    if gil_enabled is not None and not gil_enabled():
        return "thread"
    if "fork" not in multiprocessing.get_all_start_methods():
        return "thread"
    return "fork"


# ----------------------------------------------------------------------
# row shipping and sharding
# ----------------------------------------------------------------------

def _flatten(rows: List[IdTuple]) -> array:
    buf = array("q")
    for row in rows:
        buf.extend(row)
    return buf


def _unflatten(buf: array, arity: int, count: int) -> List[IdTuple]:
    if arity == 0:
        return [()] * count
    it = iter(buf)
    return list(zip(*([it] * arity)))


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
        if not step.negated and step.b_key_ops:
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
    join-order independent, so the per-rule counters stay exact.  Built
    in the parent before the pool forks: plan compilation interns its
    constant terms, and those IDs must exist in every worker's
    inherited catalog prefix.
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

    def all_plans(self, program: Program, compiled: CompiledProgram):
        for rule_index in range(len(program.rules)):
            yield compiled.plan(rule_index)
            for occ in compiled.delta_occurrences(rule_index):
                yield compiled.plan(rule_index, occ)
        yield from self.shard_plans.values()


def _replica_preds(
    program: Program, compiled: CompiledProgram, shards: _ProgramShards
) -> FrozenSet[str]:
    """Derived predicates fork workers must maintain as real relations.

    A worker replica needs columns/rowmap/indexes only for derived
    predicates some plan *probes* (non-delta steps, anti-joins, or the
    shard pivot a full batch reads its input rows from); everything
    else -- e.g. the closure predicate of a linear recursion -- is only
    needed for result pre-deduplication, which a plain shadow set of
    rows covers at a fraction of the apply cost.
    """
    probed: Set[str] = set()
    for plan in shards.all_plans(program, compiled):
        for step in plan.steps:
            if not step.is_delta:
                probed.add(step.pred_key)
    for rule_index, pivot in shards.full_pivot.items():
        if pivot is not None:
            probed.add(program.rules[rule_index].body[pivot].pred_key)
    return frozenset(probed & compiled.derived_keys)


# ----------------------------------------------------------------------
# work items
# ----------------------------------------------------------------------

class _BatchTask:
    """One batch of one round: a rule (full) or rule/delta work item."""

    __slots__ = ("task_id", "rule_index", "delta_index", "windows",
                 "head_key", "input_pred", "mode", "pcols", "solo")

    def __init__(self, task_id, rule_index, delta_index, windows, head_key,
                 input_pred, mode, pcols, solo):
        self.task_id = task_id
        self.rule_index = rule_index
        #: None for a full batch (input = the pivot relation), else the
        #: delta occurrence (input = its slot window)
        self.delta_index = delta_index
        #: the engine task's slot windows (None for a full batch)
        self.windows = windows
        self.head_key = head_key
        self.input_pred = input_pred
        #: "hash" / "chunk" / "solo" (see module docstring)
        self.mode = mode
        self.pcols = pcols
        #: worker index owning the batch when mode == "solo"
        self.solo = solo

    def descriptor(self):
        return (self.task_id, self.rule_index, self.delta_index,
                self.windows, self.input_pred, self.mode, self.pcols,
                self.solo)


def _batch_task(task_id, rule_index, occ, windows, program, shards,
                workers):
    """The work item of one engine task: rule ``rule_index``'s full
    plan (``occ`` None) or its delta plan at body position ``occ``."""
    rule = program.rules[rule_index]
    if occ is None:
        mode, pcols = shards.full_modes[rule_index]
        pivot = shards.full_pivot[rule_index]
        input_pred = rule.body[pivot].pred_key if pivot is not None else None
    else:
        mode, pcols = shards.delta_modes[(rule_index, occ)]
        input_pred = rule.body[occ].pred_key
    return _BatchTask(
        task_id, rule_index, occ, windows, rule.head.pred_key, input_pred,
        mode, pcols, task_id % workers,
    )


# ----------------------------------------------------------------------
# shard execution (shared by both backends; runs inside workers)
# ----------------------------------------------------------------------

def _execute_shard(plan, database, rows, windows, deadline):
    """Run one plan over one input shard, reading ``windows`` at its
    other steps.

    Returns ``(rows, solutions, probes, scanned)``.  ``rows`` may
    repeat and each may stand for several body solutions
    (:meth:`JoinPlan.execute_batch`); the merge needs only the row set
    and the solution count, so the per-row multiplicities stop here.

    ``rows is None`` executes the plan as a plain full batch (the solo
    path for rules with no shardable pivot).  Returns None when the
    deadline already passed -- the caller reports the abort and the
    parent's meter turns it into the structured budget error.
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
# thread backend
# ----------------------------------------------------------------------

class _ThreadBackend:
    """Workers as threads over the *shared* working database.

    Correct on any build (workers only read while the parent only
    writes between groups; concurrent lazy index builds are
    value-idempotent); actually parallel on free-threaded CPython.
    """

    def __init__(self, working, compiled, shards, workers):
        self.working = working
        self.compiled = compiled
        self.shards = shards
        self.workers = workers
        self.pool = ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="repro-parallel"
        )

    def apply_fresh(self, updates, stats) -> None:
        pass  # shared memory: the parent's merge is already visible

    def _plan_and_rows(self, task):
        relation = self.working.get(task.input_pred)
        if task.delta_index is None:
            if task.mode == "solo":
                return self.compiled.plan(task.rule_index), None
            rows = list(relation.id_rows()) if relation is not None else []
            return self.shards.shard_plans[task.rule_index], rows
        plan = self.compiled.plan(task.rule_index, task.delta_index)
        return plan, relation.window_rows(*task.windows[task.delta_index])

    def run_group(self, group, stats, deadline):
        submit = self.pool.submit
        pending = []
        for task in group:
            plan, rows = self._plan_and_rows(task)
            if rows is None or task.mode == "solo":
                pending.append((task, task.solo, submit(
                    _execute_shard, plan, self.working, rows, task.windows,
                    deadline,
                )))
                continue
            if task.mode == "hash":
                per_worker = _hash_shards(rows, task.pcols, self.workers)
            else:
                per_worker = [
                    rows[w::self.workers] for w in range(self.workers)
                ]
            for w, shard in enumerate(per_worker):
                if shard:
                    pending.append((task, w, submit(
                        _execute_shard, plan, self.working, shard,
                        task.windows, deadline,
                    )))
        results = {task.task_id: (0, []) for task in group}
        aborted = False
        for task, w, future in pending:
            out = future.result()
            if out is None:
                aborted = True
                continue
            _merge_shard(results, stats, task.task_id, w, *out)
        return results, aborted

    def close(self) -> None:
        self.pool.shutdown(wait=True, cancel_futures=True)


# ----------------------------------------------------------------------
# fork backend
# ----------------------------------------------------------------------

class _WorkerState:
    """Everything a forked worker inherits by copy-on-write."""

    __slots__ = ("working", "compiled", "shards", "replica_preds",
                 "workers", "catalog_pin", "bases")

    def __init__(self, working, compiled, shards, replica_preds, workers,
                 catalog_pin):
        self.working = working
        self.compiled = compiled
        self.shards = shards
        self.replica_preds = replica_preds
        self.workers = workers
        #: catalog length at the export point; workers assert their
        #: inherited prefix covers it and never intern past it
        self.catalog_pin = catalog_pin
        #: slot count per derived predicate at the fork: the parent's
        #: later installs reach a worker in slot order from here on
        self.bases = {
            pred: working.get(pred).slot_count()
            for pred in compiled.derived_keys
            if working.get(pred) is not None
        }


def _worker_run_task(descriptor, state, applied, shadow, w):
    (task_id, rule_index, delta_index, windows, input_pred, mode, pcols,
     solo) = descriptor
    working = state.working
    rows_in: Optional[List[IdTuple]]
    if delta_index is None and mode == "solo":
        if w != solo:
            return None
        plan = state.compiled.plan(rule_index)
        rows_in = None
    else:
        if delta_index is None:
            plan = state.shards.shard_plans[rule_index]
            relation = working.get(input_pred)
            all_rows = relation.id_rows() if relation is not None else ()
        else:
            plan = state.compiled.plan(rule_index, delta_index)
            # a delta window starts at or after the rule's first (full)
            # run, which came after the fork
            base = state.bases.get(input_pred, 0)
            lo, hi = windows[delta_index]
            all_rows = applied.get(input_pred, ())[lo - base:hi - base]
        if mode == "solo":
            if w != solo:
                return None
            rows_in = list(all_rows)
        elif mode == "hash":
            rows_in = _hash_shards(all_rows, pcols, state.workers)[w]
        else:
            rows_in = list(islice(iter(all_rows), w, None, state.workers))
        if not rows_in:
            return None
    rows_out, solutions, probes, scanned = _execute_shard(
        plan, working, rows_in, windows, None
    )
    # pre-dedup against the replica's group-start state (plus this
    # task's own emissions) so only candidate-fresh rows cross the
    # pipe; the parent's rowmap merge stays the single source of truth
    # for freshness, so the counters cannot drift
    head_key = plan.rule.head.pred_key
    relation = working.get(head_key)
    if head_key in state.replica_preds and relation is not None:
        known = relation._rowmap
    else:
        known = shadow.get(head_key, ())
    fresh: List[IdTuple] = []
    seen: Set[IdTuple] = set()
    for row in rows_out:
        if row in seen or row in known:
            continue
        seen.add(row)
        fresh.append(row)
    arity = len(fresh[0]) if fresh else 0
    return (task_id, solutions, probes, scanned, len(fresh), arity,
            _flatten(fresh))


def _worker_main(conn, state: _WorkerState, w: int) -> None:
    catalog = term_catalog()
    if len(catalog) < state.catalog_pin:
        conn.send(("error", RuntimeError(
            f"worker {w}: inherited catalog shorter than the export pin"
        )))
        return
    shadow: Dict[str, Set[IdTuple]] = {}
    #: every row applied since the fork, per predicate, in the parent's
    #: install order: slot ``state.bases[pred] + i`` is ``applied[pred][i]``
    applied: Dict[str, List[IdTuple]] = {}
    while True:
        try:
            msg = conn.recv()
        except (EOFError, OSError):
            break
        tag = msg[0]
        if tag == "stop":
            break
        if tag == "apply":
            for pred, count, arity, buf in msg[1]:
                rows = _unflatten(buf, arity, count)
                applied.setdefault(pred, []).extend(rows)
                if pred in state.replica_preds:
                    state.working.relation(pred).add_id_rows(rows)
                else:
                    shadow.setdefault(pred, set()).update(rows)
            continue
        # ("exec", deadline, descriptors)
        _tag, deadline, descriptors = msg
        entries = []
        aborted = False
        try:
            for descriptor in descriptors:
                if deadline is not None and time.monotonic() > deadline:
                    aborted = True
                    break
                entry = _worker_run_task(
                    descriptor, state, applied, shadow, w
                )
                if entry is not None:
                    entries.append(entry)
        except BaseException as exc:
            try:
                conn.send(("error", exc))
            except Exception:
                conn.send(("error", repr(exc)))
            continue
        conn.send(("done", aborted, entries))


class _ForkBackend:
    """Workers as forked processes with copy-on-write replicas."""

    def __init__(self, working, compiled, shards, replica_preds, workers):
        self.workers = workers
        ctx = multiprocessing.get_context("fork")
        state = _WorkerState(
            working, compiled, shards, replica_preds, workers,
            len(term_catalog()),
        )
        self._conns = []
        self._procs = []
        for w in range(workers):
            parent_conn, child_conn = ctx.Pipe(duplex=True)
            proc = ctx.Process(
                target=_worker_main, args=(child_conn, state, w),
                daemon=True, name=f"repro-parallel-{w}",
            )
            proc.start()
            child_conn.close()
            self._conns.append(parent_conn)
            self._procs.append(proc)

    def apply_fresh(self, updates, stats) -> None:
        if not updates:
            return
        t0 = time.perf_counter()
        payload = []
        total = 0
        for pred, rows in updates:
            arity = len(rows[0]) if rows else 0
            payload.append((pred, len(rows), arity, _flatten(rows)))
            total += len(rows)
        msg = ("apply", payload)
        for conn in self._conns:
            conn.send(msg)
        stats.parallel_rows_shipped += total * len(self._conns)
        stats.parallel_ship_seconds += time.perf_counter() - t0

    def run_group(self, group, stats, deadline):
        descriptors = [task.descriptor() for task in group]
        msg = ("exec", deadline, descriptors)
        for conn in self._conns:
            conn.send(msg)
        results = {task.task_id: (0, []) for task in group}
        aborted = False
        for w, conn in enumerate(self._conns):
            try:
                reply = conn.recv()
            except (EOFError, OSError):
                raise EvaluationError(
                    f"parallel worker {w} exited unexpectedly"
                )
            if reply[0] == "error":
                detail = reply[1]
                if isinstance(detail, BaseException):
                    raise detail
                raise EvaluationError(f"parallel worker {w}: {detail}")
            _tag, worker_aborted, entries = reply
            aborted = aborted or worker_aborted
            t0 = time.perf_counter()
            for (task_id, n_emitted, probes, scanned, count, arity,
                 buf) in entries:
                _merge_shard(
                    results, stats, task_id, w,
                    _unflatten(buf, arity, count), n_emitted, probes, scanned,
                )
            stats.parallel_ship_seconds += time.perf_counter() - t0
        return results, aborted

    def close(self) -> None:
        for conn in self._conns:
            try:
                conn.send(("stop",))
            except Exception:
                pass
        deadline = time.monotonic() + 5.0
        for proc in self._procs:
            proc.join(max(0.1, deadline - time.monotonic()))
        for proc in self._procs:
            if proc.is_alive():
                proc.terminate()
                proc.join(1.0)
        for conn in self._conns:
            try:
                conn.close()
            except Exception:
                pass


# ----------------------------------------------------------------------
# the pool round executor
# ----------------------------------------------------------------------

def _run_group(group, working, stats, meter, backend, fresh_by_head):
    """One rule's batches: dispatch, merge, broadcast.

    Adds the fresh rows to ``fresh_by_head``, per head predicate.
    """
    deadline = getattr(meter, "deadline", None) if meter is not None else None
    if meter is not None:
        # one check per batch, at the same cadence the serial
        # executor checks inside execute_batch
        for _task in group:
            meter.check_batch(stats.facts_derived, stats.tuples_scanned)
    results, aborted = backend.run_group(group, stats, deadline)
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
    updates = []
    for task in group:
        n_emitted, rows = results[task.task_id]
        if not n_emitted:
            continue
        fresh = _install(working, stats, task.head_key, rows, n_emitted)
        if fresh:
            fresh_by_head.setdefault(task.head_key, []).extend(fresh)
            updates.append((task.head_key, fresh))
    backend.apply_fresh(updates, stats)


@contextmanager
def pool_executor(
    program: Program,
    compiled: CompiledProgram,
    working: Database,
    stats: EvaluationStats,
    meter,
    workers: int,
    backend: str = "auto",
):
    """The round executor of ``evaluate*(..., workers=N)``, N >= 2.

    Yields an executor for :func:`repro.datalog.engine.fixpoint` that
    runs each rule's tasks as one group of sharded batches on a pool of
    ``workers`` workers, installing the group's rows before it pulls
    the next rule's.  Fact sets and solution counters match the serial executor
    exactly; the parallel counters (``parallel_*`` on
    :class:`EvaluationStats`) record the pool's shape and traffic.  The
    pool lives for exactly one evaluation -- "persistent" across all
    its rounds, torn down on exit so budget trips, cancellations,
    injected faults, and worker crashes leave only the untouched caller
    database behind.
    """
    shards = _ProgramShards(program, compiled)
    resolved = resolve_backend(backend)
    if resolved == "fork" and any(
        plan_interns_terms(plan)
        for plan in shards.all_plans(program, compiled)
    ):
        # run-time interning would grow worker-local ID spaces that
        # disagree with the parent's; threads share one catalog
        resolved = "thread"
        stats.parallel_fallback = "plans intern terms: thread backend"
    stats.parallel_workers = workers
    stats.parallel_backend = resolved
    if resolved == "fork":
        pool = _ForkBackend(
            working, compiled, shards,
            _replica_preds(program, compiled, shards), workers,
        )
    else:
        pool = _ThreadBackend(working, compiled, shards, workers)
    task_ids = count()

    def execute(groups):
        fresh_by_head: Dict[str, List[IdTuple]] = {}
        for group in groups:
            batches = [
                _batch_task(
                    next(task_ids), ri, j, windows, program, shards, workers
                )
                for ri, j, windows, _ in group
            ]
            _run_group(batches, working, stats, meter, pool, fresh_by_head)
        return fresh_by_head

    try:
        yield execute
    finally:
        pool.close()
