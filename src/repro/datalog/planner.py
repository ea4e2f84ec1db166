"""Join-plan compiler and batch executor for the bottom-up engine.

The paper measures rewriting strategies by the *number of facts computed*, so
the substrate executing those strategies should spend its time on facts, not
on rediscovering join structure that is invariant across the whole fixpoint.
This module compiles each rule **once** -- and once more per delta-literal
choice for semi-naive evaluation -- into a :class:`JoinPlan`:

* **Greedy body reordering.**  Body literals are ordered so each step
  maximizes the number of already-bound argument positions, seeded from the
  rule's ground arguments (for a delta plan, the delta occurrence runs first,
  mirroring the sideways information passing the rewrites encode).  On the
  ancestor chain this turns the per-round full scan of ``par`` into a probe
  of the (small) delta.
* **Precomputed index positions.**  Each :class:`JoinStep` carries the tuple
  of argument positions that are ground when the step runs, so the needed
  :class:`Relation` indexes can be registered up front
  (:meth:`CompiledProgram.register_indexes`) instead of discovered per probe.
* **Slot-based variable frames.**  The rule's variables are numbered into
  frame slots, and each step carries tiny precompiled ops (store slot /
  compare slot / match pattern) instead of a dict substitution.  Function
  terms and :class:`~repro.datalog.terms.LinExpr` index expressions fall
  back to the generic one-way matcher for just the affected position.

Plans preserve the semantics of :class:`~repro.datalog.engine.EvaluationStats`
exactly: ``rule_firings``, ``facts_derived`` and ``duplicate_derivations`` are
join-order independent (they count body solutions, which reordering does not
change), while ``join_probes`` / ``tuples_scanned`` measure the work the plan
actually performs -- the quantity the planner is built to shrink.

Plans execute in batches (:meth:`JoinPlan.execute_batch`): partial matches
travel as columns of term IDs, and the executor goes further the
way the paper's supplementary predicates do for a rule prefix: after a
non-final step at which a frame slot goes dead, frames that agree on every
live slot are merged into one frame carrying an integer *multiplicity*, so the
remaining steps probe once per distinct live binding.  Its contract: the head
ID rows it returns may repeat, each comes with the number of body solutions it
stands for, the multiplicities sum to the exact number of body solutions
(which is what ``rule_firings`` gains), and ``tuples_scanned`` counts the rows
touched *after* merging.

Two further layers serve the top-down side and repeated evaluations:

* **Subquery plans** (:class:`SubqueryPlan`, :func:`compile_subquery_rule`)
  compile adorned rules for the QSQ evaluator
  (:mod:`repro.datalog.topdown`): entry ops match an input bound vector
  against the head's bound arguments, body steps stay in sip order (the
  order determines which subqueries exist, so it cannot be rearranged)
  with each derived literal keyed on its adornment's bound positions and
  each base literal keyed on its plan-time-ground positions.
* **The plan cache** (:class:`PlanCache`, :func:`shared_plan_cache`)
  memoizes both compilation kinds by program identity, so benchmark
  loops and repeated CLI queries compile once; ``evaluate*`` and
  ``qsq_evaluate`` report hits/misses through their stats.
"""

from __future__ import annotations

import threading
from collections import Counter, OrderedDict
from functools import partial
from itertools import repeat as _repeat
from typing import Dict, List, Optional, Set, Tuple

from .analysis import stratify_rules
from .ast import Program, Rule
from .catalog import term_catalog
from .database import Database, IdTuple, Relation
from .errors import (
    EvaluationError,
    UnsafeNegationError,
    UnsupportedProgramError,
)
from .terms import Variable
from .unify import match_into, resolve

__all__ = [
    "JoinStep",
    "JoinPlan",
    "CompiledProgram",
    "SubqueryStep",
    "SubqueryPlan",
    "SubqueryProgram",
    "PlanCache",
    "compile_rule",
    "compile_subquery_rule",
    "compiled_program_for",
    "subquery_program_for",
    "shared_plan_cache",
    "order_body",
    "partition_columns",
    "plan_interns_terms",
]

# Op tags.  Key ops build the index-lookup key for a step; row ops process
# the non-indexed positions of each candidate row; head ops emit the derived
# tuple.  Payloads are documented at the construction sites below.
_CONST = 0   # key/head: a ground term known at plan time
_SLOT = 1    # key/head: read a frame slot
_EVAL = 2    # key/head: substitute bound slots into a Struct/LinExpr
_STORE = 3   # row: bind the row value into a frame slot
_EQ = 4      # row: compare the row value against a frame slot
_MATCH = 5   # row: generic one-way match for a partially-bound pattern
_UNBOUND = 6  # head: argument can never be ground (range-restriction error)
_EQC = 7     # row: compare the row value against a ground term
# (_EQC only arises in subquery plans: an adorned literal may carry a
# constant at a position its adornment marks free, so the position is not
# part of the answer-index key and must be checked per row.)
_EQL = 8     # batch row: compare against a value stored earlier in the
#              same step (the batch twin of a within-step _EQ)

_CATALOG = term_catalog()


# ----------------------------------------------------------------------
# batch (ID-level) op compilation
#
# Every term-level op set compiles into a parallel ID-level op set used
# by the batch executors: constants are interned once at compile time,
# _STORE targets become indexes into a per-step local-value buffer (so a
# step's output columns are built by list extension, not per-row frame
# writes), and a liveness pass over the whole plan computes which slots
# each step must carry into the next batch.
# ----------------------------------------------------------------------

def _batch_key_ops(key_ops):
    converted = []
    for tag, payload in key_ops:
        if tag == _CONST:
            converted.append((_CONST, _CATALOG.intern(payload)))
        else:  # _SLOT / _EVAL keep their term-level payloads
            converted.append((tag, payload))
    return tuple(converted)


def _batch_row_ops(row_ops):
    """ID-level row ops plus the frame slots this step stores, in
    local-buffer order.  Within-step references (a repeated variable or
    a _MATCH seeded by a value bound earlier in the same literal) are
    rewritten to read the local buffer (_EQL / local pairs) instead of a
    batch column, which does not exist for them."""
    store_slots: List[int] = []
    local_of: Dict[int, int] = {}
    converted = []
    for pos, tag, payload in row_ops:
        if tag == _STORE:
            local = local_of[payload] = len(store_slots)
            store_slots.append(payload)
            converted.append((pos, _STORE, local))
        elif tag == _EQ:
            if payload in local_of:
                converted.append((pos, _EQL, local_of[payload]))
            else:
                converted.append((pos, _EQ, payload))
        elif tag == _EQC:
            converted.append((pos, _EQC, _CATALOG.intern(payload)))
        else:  # _MATCH
            pattern, bound_pairs, free_pairs = payload
            prior = tuple(
                (v, s) for v, s in bound_pairs if s not in local_of
            )
            local = tuple(
                (v, local_of[s]) for v, s in bound_pairs if s in local_of
            )
            frees = []
            for v, s in free_pairs:
                j = local_of[s] = len(store_slots)
                store_slots.append(s)
                frees.append((v, j))
            converted.append(
                (pos, _MATCH, (pattern, prior, local, tuple(frees)))
            )
    return tuple(converted), tuple(store_slots)


def _batch_reads(b_key_ops, b_row_ops):
    """Prior-batch slots a step's ops read."""
    reads: Set[int] = set()
    for tag, payload in b_key_ops:
        if tag == _SLOT:
            reads.add(payload)
        elif tag == _EVAL:
            reads.update(s for _, s in payload[1])
    for _pos, tag, payload in b_row_ops:
        if tag == _EQ:
            reads.add(payload)
        elif tag == _MATCH:
            reads.update(s for _, s in payload[1])
    return reads


def _attach_batch_ops(steps, head_ops):
    """Compile the ID-level twin of a plan's ops onto its steps.

    Returns ``(b_head_ops, b_head_slots, entry_slots)``: ``b_head_slots``
    is the all-slot fast-path tuple (columns zip straight into head
    rows) or None when the head needs per-row work, and ``entry_slots``
    are the slots that must be live *before* the first step (empty for
    bottom-up plans, the entry-op-bound slots a subquery plan's input
    vectors populate).  Sets, per step: ``b_key_ops`` / ``b_row_ops`` /
    ``b_store_slots`` as above, plus the liveness-pruned batch layout --
    ``b_carry_out`` (prior slots still needed downstream) and
    ``b_store_out`` (``(local, slot)`` stores needed downstream).
    """
    b_head_ops = []
    slots_only = True
    needed: Set[int] = set()
    for tag, payload in head_ops:
        if tag == _CONST:
            b_head_ops.append((_CONST, _CATALOG.intern(payload)))
            slots_only = False
        elif tag == _SLOT:
            b_head_ops.append((_SLOT, payload))
            needed.add(payload)
        else:  # _EVAL / _UNBOUND keep their term-level payloads
            if tag == _EVAL:
                needed.update(s for _, s in payload[1])
            b_head_ops.append((tag, payload))
            slots_only = False
    per_step_reads = []
    for step in steps:
        step.b_key_ops = _batch_key_ops(step.key_ops)
        step.b_row_ops, step.b_store_slots = _batch_row_ops(step.row_ops)
        per_step_reads.append(_batch_reads(step.b_key_ops, step.b_row_ops))
    for step, reads in zip(reversed(steps), reversed(per_step_reads)):
        stores = set(step.b_store_slots)
        step.b_store_out = tuple(
            (j, s) for j, s in enumerate(step.b_store_slots) if s in needed
        )
        step.b_carry_out = tuple(sorted(needed - stores))
        needed = (needed - stores) | reads
    head_slots = (
        tuple(s for _tag, s in b_head_ops) if slots_only else None
    )
    return tuple(b_head_ops), head_slots, tuple(sorted(needed))


def _batch_keys(b_key_ops, cols, n, as_tuple, evaluate):
    """Per-frame lookup keys (bare IDs, or ID tuples when ``as_tuple``).

    ``evaluate`` maps a resolved ``_EVAL`` term to an ID: the catalog's
    ``id_of`` for probe-only keys (an unknown term gets -1, which
    matches nothing), ``intern`` when the key outlives the probe (QSQ
    keys double as subquery vectors).
    """
    resolve_id = _CATALOG.resolve
    if len(b_key_ops) == 1 and not as_tuple:
        tag, payload = b_key_ops[0]
        if tag == _SLOT:
            return cols[payload]
        if tag == _CONST:
            return [payload] * n
        term, pairs = payload  # _EVAL
        return [
            evaluate(resolve(
                term,
                {v: resolve_id(cols[s][i]) for v, s in pairs},
            ))
            for i in range(n)
        ]
    if all(tag != _EVAL for tag, _ in b_key_ops):
        # slots and constants only: the keys are the columns, zipped
        return list(zip(*(
            cols[payload] if tag == _SLOT else _repeat(payload, n)
            for tag, payload in b_key_ops
        )))
    keys = []
    for i in range(n):
        key = []
        for tag, payload in b_key_ops:
            if tag == _SLOT:
                key.append(cols[payload][i])
            elif tag == _CONST:
                key.append(payload)
            else:  # _EVAL
                term, pairs = payload
                key.append(evaluate(resolve(
                    term,
                    {v: resolve_id(cols[s][i]) for v, s in pairs},
                )))
        keys.append(tuple(key))
    return keys


def _scan_batch_step(relation, positions, keys, b_row_ops, n_stores,
                     cols, n, window=None):
    """Run one positive batch join step over ``n`` frames.

    ``keys`` holds one lookup key per frame (None = full scan for every
    frame); ``window``, when given, is the ``(lo, hi)`` slot range of
    ``relation`` the step may match (:meth:`Relation.window_ids`).
    Returns ``(sel, stores, probes, scanned)``: the surviving
    frame indexes in batch order (one per matched row), the per-store
    value columns aligned with ``sel``, and the probe / row-scan counts
    for stats.

    Each branch fuses grouping and probing: the first frame carrying a
    key pays the index probe, every later frame with the same key reuses
    the memoized result, and frames are emitted in batch order -- the
    same solution multiset as per-frame probing, so the
    solution-counting stats are unchanged.
    """
    resolve_id = _CATALOG.resolve
    intern = _CATALOG.intern
    index = None
    lookup_ids = relation.lookup_ids
    row_cols = relation._columns
    if window is None:
        if positions:
            index = relation.probe_index(positions)
    elif keys is None:
        # a keyless scan of a window reads contiguous slots: slice the
        # columns once (C level) and index the slices from 0
        lo, hi = window
        rows = range(hi - lo)
        if relation._dead:
            live = relation._live[lo:hi]
            if 0 in live:
                rows = [i for i in rows if live[i]]
        index = {(): rows}
        row_cols = [column[lo:hi].tolist() for column in row_cols]
    else:
        lookup_ids = partial(relation.window_ids, lo=window[0], hi=window[1])
    stores: List[List[int]] = [[] for _ in range(n_stores)]
    sel: List[int] = []
    probes = 0
    scanned = 0
    if keys is None:
        # no bound positions: one full scan shared by all frames
        keys = _repeat((), n)
    if not b_row_ops:
        # fully keyed step: each frame survives once per match
        nrows_of: Dict[object, int] = {}
        for i, key in enumerate(keys):
            n_rows = nrows_of.get(key)
            if n_rows is None:
                if index is not None:
                    rows = index.get(key, ())
                else:
                    rows = lookup_ids(positions, key)
                probes += 1
                n_rows = nrows_of[key] = len(rows)
            if n_rows:
                scanned += n_rows
                sel.extend(_repeat(i, n_rows))
    elif len(b_row_ops) == 1 and b_row_ops[0][1] == _STORE:
        # the chain-step fast path (e.g. anc(X,Z) := delta probe on X,
        # store Z): hoist the matched column per key
        pos = b_row_ops[0][0]
        row_col = row_cols[pos]
        store = stores[0]
        vals_of: Dict[object, List[int]] = {}
        for i, key in enumerate(keys):
            values = vals_of.get(key)
            if values is None:
                if index is not None:
                    rows = index.get(key, ())
                else:
                    rows = lookup_ids(positions, key)
                probes += 1
                values = vals_of[key] = [row_col[r] for r in rows]
            n_rows = len(values)
            if n_rows == 1:  # chain joins: almost every bucket
                scanned += 1
                sel.append(i)
                store.append(values[0])
            elif n_rows:
                scanned += n_rows
                sel.extend(_repeat(i, n_rows))
                store.extend(values)
    elif all(tag == _STORE for _, tag, _ in b_row_ops):
        # all-stores step (e.g. a delta scan binding every position):
        # matched rows project straight into the store columns, one
        # list comprehension per column
        pairs = [
            (row_cols[pos], stores[payload])
            for pos, _, payload in b_row_ops
        ]
        cols_of: Dict[object, List[List[int]]] = {}
        for i, key in enumerate(keys):
            entry = cols_of.get(key)
            if entry is None:
                if index is not None:
                    rows = index.get(key, ())
                else:
                    rows = lookup_ids(positions, key)
                probes += 1
                entry = cols_of[key] = [
                    [col[r] for r in rows] for col, _ in pairs
                ]
            n_rows = len(entry[0])
            if n_rows:
                scanned += n_rows
                sel.extend(_repeat(i, n_rows))
                for (_, store), values in zip(pairs, entry):
                    store.extend(values)
    else:
        local = [0] * n_stores
        rows_of: Dict[object, object] = {}
        for i, key in enumerate(keys):
            rows = rows_of.get(key)
            if rows is None:
                if index is not None:
                    rows = index.get(key, ())
                else:
                    rows = lookup_ids(positions, key)
                rows_of[key] = rows
                probes += 1
            n_rows = len(rows)
            if not n_rows:
                continue
            scanned += n_rows
            for row in rows:
                ok = True
                for pos, tag, payload in b_row_ops:
                    value = row_cols[pos][row]
                    if tag == _STORE:
                        local[payload] = value
                    elif tag == _EQ:
                        if cols[payload][i] != value:
                            ok = False
                            break
                    elif tag == _EQL:
                        if local[payload] != value:
                            ok = False
                            break
                    elif tag == _EQC:
                        if payload != value:
                            ok = False
                            break
                    else:  # _MATCH
                        pattern, prior, loc, frees = payload
                        seed = {
                            v: resolve_id(cols[s][i]) for v, s in prior
                        }
                        for v, j in loc:
                            seed[v] = resolve_id(local[j])
                        if not match_into(
                            pattern, resolve_id(value), seed
                        ):
                            ok = False
                            break
                        for v, j in frees:
                            local[j] = intern(seed[v])
                if ok:
                    sel.append(i)
                    for j in range(n_stores):
                        stores[j].append(local[j])
    return sel, stores, probes, scanned


def _merge_frames(cols, weights, n):
    """Merge the frames of a batch that agree on every live slot.

    ``cols`` holds the live slots' columns and ``weights`` the frames'
    multiplicities (None = all 1).  Returns the merged ``(cols,
    weights, n)``: one frame per distinct live binding, in first-seen
    order, weighing the sum of the frames it replaces -- so the solution
    multiset downstream is unchanged while every later step touches
    each binding once.  A batch that is already distinct is returned as
    it came.  (A dead column that a skipped anti-join left in ``cols``
    only lets fewer frames coincide; the result is still exact.)
    """
    slots = list(cols)
    if not slots:
        # no live slot left: the frames are indistinguishable
        return cols, [n if weights is None else sum(weights)], 1
    if len(slots) == 1:
        keys = cols[slots[0]]
    else:
        keys = zip(*cols.values())
    if weights is None:
        merged = Counter(keys)  # counts at C level
    else:
        merged = {}
        get = merged.get
        for key, weight in zip(keys, weights):
            merged[key] = get(key, 0) + weight
    if len(merged) == n:
        return cols, weights, n
    if len(slots) == 1:
        cols = {slots[0]: list(merged)}
    else:
        cols = dict(zip(slots, map(list, zip(*merged))))
    return cols, list(merged.values()), len(merged)


def _key_ops_for(literal, slots, bound):
    """Index positions and key ops for the compile-time-ground arguments.

    A position is indexable when its argument is ground at run time:
    ground at plan time, or built only from variables bound by earlier
    steps.  The index lookup then guarantees equality, so indexed
    positions need no per-row check at all.
    """
    index_positions: List[int] = []
    key_ops = []
    for pos, arg in enumerate(literal.args):
        arg_vars = arg.variables()
        if not arg_vars:
            index_positions.append(pos)
            key_ops.append((_CONST, arg))
        elif isinstance(arg, Variable):
            if arg in bound:
                index_positions.append(pos)
                key_ops.append((_SLOT, slots[arg]))
        elif all(v in bound for v in arg_vars):
            index_positions.append(pos)
            key_ops.append(
                (_EVAL, (arg, tuple((v, slots[v]) for v in arg_vars)))
            )
    return index_positions, key_ops


def _row_ops_for(literal, slots, bound, indexed):
    """Row ops for the non-indexed positions of a literal.

    Mutates ``bound``, adding the variables the step newly binds.
    """
    row_ops = []
    for pos, arg in enumerate(literal.args):
        if pos in indexed:
            continue
        arg_vars = arg.variables()
        if not arg_vars:
            row_ops.append((pos, _EQC, arg))
        elif isinstance(arg, Variable):
            if arg in bound:
                # repeated variable within the literal, e.g. p(X, X)
                row_ops.append((pos, _EQ, slots[arg]))
            else:
                row_ops.append((pos, _STORE, slots[arg]))
                bound.add(arg)
        else:
            # Struct / LinExpr with at least one free variable: fall
            # back to the generic matcher for this position only.
            bound_pairs = tuple(
                (v, slots[v]) for v in arg_vars if v in bound
            )
            free_vars = tuple(v for v in arg_vars if v not in bound)
            free_pairs = tuple((v, slots[v]) for v in free_vars)
            row_ops.append((pos, _MATCH, (arg, bound_pairs, free_pairs)))
            bound.update(free_vars)
    return row_ops


def order_body(rule: Rule, delta_index: Optional[int] = None) -> Tuple[int, ...]:
    """Greedy join order for a rule body (indexes into ``rule.body``).

    The delta occurrence, when given, is forced first (its relation is the
    small one).  Each subsequent pick maximizes the number of argument
    positions that are bound -- ground at plan time, or covered by variables
    bound in earlier steps -- breaking ties toward literals sharing more
    bound variables, then toward the original (SIP) order.

    Negated literals are anti-joins: they bind nothing and are only
    *eligible* once every one of their variables is bound by an earlier
    positive step (safe negation guarantees such an order exists); once
    eligible they are fully bound, so the score naturally schedules them
    as early filters.
    """
    body = rule.body
    if delta_index is not None and body[delta_index].negated:
        raise ValueError(
            f"rule {rule}: the delta occurrence cannot be the negated "
            f"literal {body[delta_index]}"
        )
    remaining = list(range(len(body)))
    order: List[int] = []
    bound: Set[Variable] = set()
    if delta_index is not None:
        order.append(delta_index)
        remaining.remove(delta_index)
        bound.update(body[delta_index].variables())
    while remaining:
        eligible = [
            i for i in remaining
            if not body[i].negated
            or all(v in bound for v in body[i].variables())
        ]
        if not eligible:
            rule.check_safe_negation()  # raises with the offending vars
            raise UnsafeNegationError(
                f"rule {rule}: no join order binds every negated "
                "variable before its anti-join runs",
                rule=rule,
            )

        def score(i: int) -> Tuple[int, int, int]:
            literal = body[i]
            bound_positions = 0
            for arg in literal.args:
                arg_vars = arg.variables()
                if not arg_vars or all(v in bound for v in arg_vars):
                    bound_positions += 1
            shared = sum(1 for v in literal.variables() if v in bound)
            return (bound_positions, shared, -i)

        best = max(eligible, key=score)
        order.append(best)
        remaining.remove(best)
        if not body[best].negated:
            bound.update(body[best].variables())
    return tuple(order)


class JoinStep:
    """One body literal of a compiled plan, with precomputed join ops.

    A ``negated`` step is an anti-join: by construction every argument
    position is part of the lookup key (safe negation plus the eligible
    ordering of :func:`order_body` guarantee the whole tuple is ground
    when the step runs), the probe tests membership in the completed
    lower-stratum relation, and the branch survives only on a *miss*.
    """

    __slots__ = ("literal", "pred_key", "is_delta", "negated",
                 "index_positions", "key_ops", "row_ops",
                 "b_key_ops", "b_row_ops", "b_store_slots",
                 "b_carry_out", "b_store_out", "b_merge")

    def __init__(self, literal, pred_key, is_delta, negated,
                 index_positions, key_ops, row_ops):
        self.literal = literal
        self.pred_key = pred_key
        #: the occurrence the delta arrives at: a batch, or a slot window
        #: of the relation itself (see JoinPlan.execute_batch)
        self.is_delta = is_delta
        #: anti-join: emit on miss, bind nothing
        self.negated = negated
        #: argument positions ground at run time (sorted ascending)
        self.index_positions = index_positions
        self.key_ops = key_ops
        self.row_ops = row_ops
        # ID-level twins, filled in by _attach_batch_ops at plan build
        self.b_key_ops = ()
        self.b_row_ops = ()
        self.b_store_slots = ()
        self.b_carry_out = ()
        self.b_store_out = ()
        #: merge equal frames after this step (set at plan build: a
        #: non-final step at which some frame slot goes dead)
        self.b_merge = False

    def __repr__(self):
        flag = " delta" if self.is_delta else ""
        if self.negated:
            flag += " anti"
        return (
            f"JoinStep({self.literal}{flag}, "
            f"indexed on {self.index_positions})"
        )


class JoinPlan:
    """A compiled rule: ordered join steps plus head-emission ops."""

    __slots__ = ("rule", "delta_index", "order", "steps", "head_ops",
                 "n_slots", "b_head_ops", "b_head_slots")

    def __init__(self, rule, delta_index, order, steps, head_ops, n_slots):
        self.rule = rule
        #: body index matched against the delta relation (None = full plan)
        self.delta_index = delta_index
        #: body indexes in execution order
        self.order = order
        self.steps = steps
        self.head_ops = head_ops
        self.n_slots = n_slots
        self.b_head_ops, self.b_head_slots, _ = _attach_batch_ops(
            steps, head_ops
        )
        # merge points of execute_batch: a step's live-out slots are a
        # subset of its live-in slots plus its stores, so a smaller
        # count means a slot died there and frames may now coincide
        live = 0
        for step in steps[:-1]:
            live_out = len(step.b_carry_out) + len(step.b_store_out)
            step.b_merge = live_out < live + len(step.b_store_slots)
            live = live_out

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def execute_batch(
        self,
        database: Database,
        stats,
        delta_relation: Optional[Relation] = None,
        meter=None,
        windows: Optional[Dict[int, Tuple[int, int]]] = None,
    ) -> Tuple[List[IdTuple], Optional[List[int]], int]:
        """The plan's head instances as ``(rows, multiplicities, solutions)``.

        The delta step reads ``delta_relation`` when one is given.  Any
        other step -- and the delta step without one -- reads its
        relation in ``database``, restricted to the slot window
        ``windows[body index]`` when there is one: the semi-naive round
        driver reads a predicate's fresh rows in place this way, and the
        old state of the others as a slot prefix.

        Partial matches travel as parallel columns of term IDs (one list per live frame
        slot), and each step probes its relation's int-ID index once per
        *distinct* key in the batch instead of once per frame, emitting
        the next batch.  After a non-final step at which a frame slot
        goes dead (``step.b_merge``), frames that agree on every live
        slot are merged into one frame carrying an integer multiplicity,
        so the remaining steps run once per distinct live binding rather
        than once per partial match.

        ``rows`` are head ID rows and may repeat (nothing is merged
        after the last step; the head insert deduplicates).
        ``multiplicities`` is aligned with ``rows`` -- how many body
        solutions each row stands for -- or None when every row stands
        for exactly one (no merge happened).  ``solutions`` is their
        sum, the exact number of body solutions, and is what this call
        adds to ``stats.rule_firings``: ``rule_firings`` /
        ``facts_derived`` / ``duplicate_derivations`` are therefore
        join-order independent, while ``join_probes`` counts the deduplicated probes and
        ``tuples_scanned`` the rows touched *after* merging -- the two
        quantities batching and merging shrink.

        ``meter``, when given, is consulted once at entry (a batch
        boundary for the resource governor) and may abort by raising.
        """
        if meter is not None:
            meter.check_batch(stats.facts_derived, stats.tuples_scanned)
        cols: Dict[int, List[int]] = {}
        weights: Optional[List[int]] = None
        n = 1
        rule = self.rule
        resolve_id = _CATALOG.resolve
        id_of = _CATALOG.id_of
        intern = _CATALOG.intern

        for body_index, step in zip(self.order, self.steps):
            window = None
            if step.is_delta and delta_relation is not None:
                relation = delta_relation
            else:
                relation = database.get(step.pred_key)
                if windows is not None and relation is not None:
                    window = windows.get(body_index)
                    if window is not None:
                        if window[0] >= window[1]:
                            return [], None, 0
                        if not window[0] and window[1] >= len(relation._live):
                            window = None  # the whole relation
            if step.negated:
                # anti-join: the key covers every position, so it *is*
                # the candidate ID row; membership is one _rowmap probe
                if relation is None or len(relation) == 0:
                    continue  # nothing to refute: all frames survive
                if not step.index_positions:
                    return [], None, 0  # 0-ary atom holds: negation fails
                keys = _batch_keys(step.b_key_ops, cols, n, True, id_of)
                rowmap = relation._rowmap
                stats.join_probes += n
                sel = [i for i in range(n) if keys[i] not in rowmap]
                if not sel:
                    return [], None, 0
                cols = {
                    s: [cols[s][i] for i in sel] for s in step.b_carry_out
                }
            else:
                if relation is None or len(relation) == 0:
                    return [], None, 0
                b_key_ops = step.b_key_ops
                if b_key_ops:
                    keys = _batch_keys(b_key_ops, cols, n, False, id_of)
                else:
                    keys = None
                sel, stores, probes, scanned = _scan_batch_step(
                    relation, step.index_positions, keys,
                    step.b_row_ops, len(step.b_store_slots), cols, n,
                    window,
                )
                stats.join_probes += probes
                stats.tuples_scanned += scanned
                if not sel:
                    return [], None, 0
                next_cols: Dict[int, List[int]] = {
                    s: [cols[s][i] for i in sel] for s in step.b_carry_out
                }
                for j, s in step.b_store_out:
                    next_cols[s] = stores[j]
                cols = next_cols
            n = len(sel)
            if weights is not None:
                weights = [weights[i] for i in sel]
            if step.b_merge:
                cols, weights, n = _merge_frames(cols, weights, n)

        solutions = n if weights is None else sum(weights)
        stats.rule_firings += solutions
        head_slots = self.b_head_slots
        if head_slots is not None:
            if not head_slots:
                rows = [()] * n
            elif len(head_slots) == 1:
                rows = [(value,) for value in cols[head_slots[0]]]
            else:
                rows = list(zip(*(cols[s] for s in head_slots)))
            return rows, weights, solutions
        produced: List[IdTuple] = []
        b_head_ops = self.b_head_ops
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
                        term, {v: resolve_id(cols[s][i]) for v, s in pairs}
                    )
                    if not value.is_ground():
                        raise EvaluationError(
                            f"rule {rule} produced a non-ground head "
                            f"argument {value}; the rule is not "
                            "range-restricted for this database"
                        )
                    args.append(intern(value))
                else:  # _UNBOUND
                    raise EvaluationError(
                        f"rule {rule} produced a non-ground head argument "
                        f"{payload}; the rule is not range-restricted for "
                        "this database"
                    )
            produced.append(tuple(args))
        return produced, weights, solutions

    # ------------------------------------------------------------------
    # index registration
    # ------------------------------------------------------------------
    def index_requests(self) -> List[Tuple[str, Tuple[int, ...]]]:
        """(pred_key, positions) pairs this plan probes on the database."""
        return [
            (step.pred_key, step.index_positions)
            for step in self.steps
            if not step.is_delta and step.index_positions
        ]

    def register_indexes(self, database: Database) -> None:
        """Register this plan's indexes on the database's relations."""
        for pred_key, positions in self.index_requests():
            relation = database.get(pred_key)
            if relation is not None:
                relation.register_index(positions)

    def __repr__(self):
        return (
            f"JoinPlan({self.rule}, delta={self.delta_index}, "
            f"order={self.order})"
        )


def compile_rule(rule: Rule, delta_index: Optional[int] = None) -> JoinPlan:
    """Compile one rule (for one delta choice) into a :class:`JoinPlan`.

    Negated body literals compile into anti-join steps; unsafe negation
    (a negated variable no positive literal binds) is rejected here with
    :class:`UnsafeNegationError` before any plan exists.
    """
    if delta_index is not None and not (0 <= delta_index < len(rule.body)):
        raise ValueError(
            f"delta index {delta_index} out of range for rule {rule}"
        )
    if rule.has_negation():
        rule.check_safe_negation()
    slots: Dict[Variable, int] = {
        var: i for i, var in enumerate(rule.variables())
    }
    order = order_body(rule, delta_index)
    bound: Set[Variable] = set()
    steps = []
    for body_idx in order:
        literal = rule.body[body_idx]
        index_positions, key_ops = _key_ops_for(literal, slots, bound)
        if literal.negated:
            if len(index_positions) != literal.arity:
                # cannot happen after check_safe_negation + the eligible
                # ordering, but fail loudly rather than mis-evaluate
                raise UnsafeNegationError(
                    f"rule {rule}: anti-join for {literal} would run with "
                    "unbound argument positions",
                    rule=rule,
                )
            steps.append(
                JoinStep(
                    literal,
                    literal.pred_key,
                    False,
                    True,
                    tuple(index_positions),
                    tuple(key_ops),
                    (),
                )
            )
            continue
        row_ops = _row_ops_for(literal, slots, bound, set(index_positions))
        steps.append(
            JoinStep(
                literal,
                literal.pred_key,
                body_idx == delta_index,
                False,
                tuple(index_positions),
                tuple(key_ops),
                tuple(row_ops),
            )
        )
    head_ops = []
    for arg in rule.head.args:
        arg_vars = arg.variables()
        if not arg_vars:
            head_ops.append((_CONST, arg))
        elif isinstance(arg, Variable):
            if arg in bound:
                head_ops.append((_SLOT, slots[arg]))
            else:
                head_ops.append((_UNBOUND, arg))
        elif all(v in bound for v in arg_vars):
            head_ops.append(
                (_EVAL, (arg, tuple((v, slots[v]) for v in arg_vars)))
            )
        else:
            head_ops.append((_UNBOUND, arg))
    return JoinPlan(
        rule, delta_index, order, tuple(steps), tuple(head_ops), len(slots)
    )


def partition_columns(plan: JoinPlan) -> Optional[Tuple[int, ...]]:
    """Input-row positions to hash-partition a sharded execution on.

    The parallel tier splits a plan's first-step input rows (a delta
    batch, or a full relation treated as one) across workers.  Sharding
    is *correct* for any split -- the solution multiset is partitioned
    exactly because every input row is processed by exactly one worker
    -- but probe locality is not free: :func:`_scan_batch_step` probes
    once per distinct key per batch, so scattering equal join keys
    across workers multiplies probes.  This helper finds the input-row
    positions whose values feed the next probing step's key: hashing on
    them keeps each distinct key's rows on one worker, so the per-shard
    probe sets are disjoint and their union equals the serial probe set.

    Returns None when no downstream step keys on an input column (the
    caller falls back to rule-level parallelism, or to arbitrary
    splitting when the plan has no probing step at all).
    """
    steps = plan.steps
    if not steps or steps[0].negated:
        return None
    first = steps[0]
    # frame slot -> input-row position, for the values step 0 stores
    slot_to_pos: Dict[int, int] = {}
    for pos, tag, payload in first.b_row_ops:
        if tag == _STORE:
            slot_to_pos[first.b_store_slots[payload]] = pos
    if not slot_to_pos:
        return None
    for step in steps[1:]:
        if not step.b_key_ops:
            continue
        positions = [
            slot_to_pos[payload]
            for tag, payload in step.b_key_ops
            if tag == _SLOT and payload in slot_to_pos
        ]
        if positions:
            return tuple(dict.fromkeys(positions))
        # the first probing step keys on something the input does not
        # supply (constants, or values bound by an intermediate step):
        # partitioning the input cannot co-locate its keys
        return None
    return None


def plan_interns_terms(plan: JoinPlan) -> bool:
    """Whether executing the plan can intern *new* catalog terms.

    Batch execution allocates term IDs in exactly two places: ``_MATCH``
    row ops (structural patterns bind sub-terms via ``intern``) and
    ``_EVAL`` / ``_UNBOUND`` head ops (constructed head values).  Key
    ops only ever call ``id_of``, which never allocates.  Process-pool
    workers share the parent's :class:`TermCatalog` by copy-on-write
    fork, so a plan that interns at run time would grow worker-local ID
    spaces that disagree with the parent -- such plans must run
    serially (the parallel tier checks this gate per program).
    """
    for step in plan.steps:
        for _pos, tag, _payload in step.b_row_ops:
            if tag == _MATCH:
                return True
    for tag, _payload in plan.b_head_ops:
        if tag in (_EVAL, _UNBOUND):
            return True
    return False


class CompiledProgram:
    """All plans for a program: one full plan per rule, plus one delta
    plan per *positive* body occurrence of a derived predicate.

    ``strata`` is the stratum partition of the rule indexes (a single
    stratum for positive programs): the engines drive each stratum to
    its fixpoint before the next starts, so anti-join steps always probe
    completed relations.  Compilation therefore rejects non-stratified
    programs (:class:`StratificationError`) and unsafe negation
    (:class:`UnsafeNegationError`) up front.
    """

    __slots__ = ("program", "derived_keys", "strata", "_plans",
                 "_delta_occurrences", "_recursive_occurrences")

    def __init__(self, program: Program):
        self.program = program
        self.derived_keys = program.derived_predicates()
        _, self.strata = stratify_rules(program)
        self._plans: Dict[Tuple[int, Optional[int]], JoinPlan] = {}
        self._delta_occurrences: Dict[int, Tuple[int, ...]] = {}
        for rule_index, rule in enumerate(program.rules):
            self._plans[(rule_index, None)] = compile_rule(rule)
            occurrences = tuple(
                i for i, literal in enumerate(rule.body)
                if literal.pred_key in self.derived_keys
                and not literal.negated
            )
            self._delta_occurrences[rule_index] = occurrences
            for i in occurrences:
                self._plans[(rule_index, i)] = compile_rule(rule, i)
        self._recursive_occurrences: Dict[
            int, Tuple[Tuple[int, str], ...]
        ] = {}
        for stratum in self.strata:
            heads = {program.rules[ri].head.pred_key for ri in stratum}
            for ri in stratum:
                body = program.rules[ri].body
                self._recursive_occurrences[ri] = tuple(
                    (i, body[i].pred_key)
                    for i in self._delta_occurrences[ri]
                    if body[i].pred_key in heads
                )

    def plan(
        self, rule_index: int, delta_index: Optional[int] = None
    ) -> JoinPlan:
        return self._plans[(rule_index, delta_index)]

    def delta_occurrences(self, rule_index: int) -> Tuple[int, ...]:
        """Body indexes of derived predicates (candidate delta literals)."""
        return self._delta_occurrences[rule_index]

    def recursive_occurrences(
        self, rule_index: int
    ) -> Tuple[Tuple[int, str], ...]:
        """``(body index, predicate)`` of the positive body literals whose
        predicate a rule of the same stratum defines: the only relations
        that grow while the rule's stratum runs."""
        return self._recursive_occurrences[rule_index]

    def register_indexes(self, database: Database) -> None:
        """Register every plan's index positions on existing relations.

        Relations created later (derived heads) index lazily on first
        probe and stay maintained incrementally thereafter.
        """
        for plan in self._plans.values():
            plan.register_indexes(database)

    def __len__(self):
        return len(self._plans)

    def __repr__(self):
        return (
            f"CompiledProgram({len(self.program)} rules, "
            f"{len(self._plans)} plans)"
        )


# ----------------------------------------------------------------------
# subquery plans (compiled top-down / QSQ execution)
# ----------------------------------------------------------------------

class SubqueryStep:
    """One body literal of a compiled subquery plan.

    Derived steps probe the evaluator's answer store for the literal's
    adorned predicate on its adornment's bound positions (the same key
    the subquery vector is built from); base steps probe the database
    exactly like a :class:`JoinStep`.  Body order is preserved -- the
    sip's total order determines which subqueries exist (the paper's
    ``Q``), so reordering is not sound here.
    """

    __slots__ = ("literal", "pred_key", "is_derived", "self_recursive",
                 "lookup_positions", "key_ops", "row_ops", "maybe_unground",
                 "generic_pairs", "b_key_ops", "b_row_ops", "b_store_slots",
                 "b_carry_out", "b_store_out")

    def __init__(self, literal, pred_key, is_derived, self_recursive,
                 lookup_positions, key_ops, row_ops, maybe_unground,
                 generic_pairs):
        self.literal = literal
        self.pred_key = pred_key
        self.is_derived = is_derived
        #: the step probes the store the plan's own head emits into, so
        #: the executor must snapshot the probed rows (emission would
        #: otherwise extend the index bucket it is iterating)
        self.self_recursive = self_recursive
        #: adornment bound positions (derived) / ground positions (base)
        self.lookup_positions = lookup_positions
        self.key_ops = key_ops
        self.row_ops = row_ops
        #: True when a bound argument's variables are not all guaranteed
        #: bound by earlier steps -- the executor then checks groundness
        #: at run time and falls back to a generic scan when it fails
        self.maybe_unground = maybe_unground
        #: ((var, slot) bound at entry, (var, slot) bound by this step);
        #: only populated for the maybe_unground fallback
        self.generic_pairs = generic_pairs
        # ID-level twins, filled in by _attach_batch_ops at plan build
        self.b_key_ops = ()
        self.b_row_ops = ()
        self.b_store_slots = ()
        self.b_carry_out = ()
        self.b_store_out = ()

    def __repr__(self):
        kind = "derived" if self.is_derived else "base"
        return (
            f"SubqueryStep({self.literal}, {kind}, "
            f"key on {self.lookup_positions})"
        )


class SubqueryPlan:
    """A compiled adorned rule for top-down evaluation.

    ``entry_ops`` match the head's bound arguments against an input
    bound vector (one op per vector position); ``steps`` run the body in
    sip order; ``head_ops`` emit the full head tuple.  Unlike
    :class:`JoinPlan`, non-ground head arguments skip the emission
    instead of raising: the QSQ evaluator silently drops non-ground
    answer rows.
    """

    __slots__ = ("rule", "head_key", "entry_ops", "steps", "derived_steps",
                 "head_ops", "n_slots", "b_head_ops", "b_head_slots",
                 "b_entry_slots")

    def __init__(self, rule, head_key, entry_ops, steps, head_ops, n_slots):
        self.rule = rule
        self.head_key = head_key
        self.entry_ops = entry_ops
        self.steps = steps
        #: step depths holding derived literals (candidate answer deltas)
        self.derived_steps = tuple(
            i for i, step in enumerate(steps) if step.is_derived
        )
        self.head_ops = head_ops
        self.n_slots = n_slots
        #: ID-level twins + the slots the entry ops must populate as
        #: batch columns (the liveness frontier before step 0)
        self.b_head_ops, self.b_head_slots, self.b_entry_slots = (
            _attach_batch_ops(steps, head_ops)
        )

    def __repr__(self):
        return f"SubqueryPlan({self.rule})"


def compile_subquery_rule(rule: Rule, derived_keys: Set[str]) -> SubqueryPlan:
    """Compile one adorned rule into a :class:`SubqueryPlan`."""
    if rule.has_negation():
        raise UnsupportedProgramError(
            f"rule {rule}: the QSQ evaluator handles positive programs "
            "only; use method='auto' for stratified programs (it "
            "resolves to the bottom-up magic path)"
        )
    slots: Dict[Variable, int] = {
        var: i for i, var in enumerate(rule.variables())
    }
    head = rule.head
    bound: Set[Variable] = set()
    entry_ops = []
    for pos, arg in enumerate(head.bound_args()):
        arg_vars = arg.variables()
        if not arg_vars:
            entry_ops.append((pos, _CONST, arg))
        elif isinstance(arg, Variable):
            if arg in bound:
                entry_ops.append((pos, _EQ, slots[arg]))
            else:
                entry_ops.append((pos, _STORE, slots[arg]))
                bound.add(arg)
        else:
            bound_pairs = tuple(
                (v, slots[v]) for v in arg_vars if v in bound
            )
            free_vars = tuple(v for v in arg_vars if v not in bound)
            free_pairs = tuple((v, slots[v]) for v in free_vars)
            entry_ops.append((pos, _MATCH, (arg, bound_pairs, free_pairs)))
            bound.update(free_vars)

    steps = []
    for literal in rule.body:
        if literal.pred_key in derived_keys:
            positions = literal.bound_positions()
            key_ops = []
            maybe_unground = False
            for pos in positions:
                arg = literal.args[pos]
                arg_vars = arg.variables()
                if not arg_vars:
                    key_ops.append((_CONST, arg))
                elif isinstance(arg, Variable) and arg in bound:
                    key_ops.append((_SLOT, slots[arg]))
                elif all(v in bound for v in arg_vars):
                    key_ops.append(
                        (_EVAL,
                         (arg, tuple((v, slots[v]) for v in arg_vars)))
                    )
                else:
                    # a bound position the sip did not actually bind --
                    # cannot happen for adorn_program output, but kept
                    # correct: resolve what is bound, check at run time
                    maybe_unground = True
                    key_ops.append(
                        (_EVAL,
                         (arg,
                          tuple((v, slots[v]) for v in arg_vars
                                if v in bound)))
                    )
            generic_pairs = None
            if maybe_unground:
                lit_vars = literal.variables()
                generic_pairs = (
                    tuple((v, slots[v]) for v in lit_vars if v in bound),
                    tuple((v, slots[v]) for v in lit_vars if v not in bound),
                )
            row_ops = _row_ops_for(literal, slots, bound, set(positions))
            # a successful match grounds every variable of the literal
            bound.update(literal.variables())
            steps.append(
                SubqueryStep(
                    literal, literal.pred_key, True,
                    literal.pred_key == head.pred_key, positions,
                    tuple(key_ops), tuple(row_ops), maybe_unground,
                    generic_pairs,
                )
            )
        else:
            index_positions, key_ops = _key_ops_for(literal, slots, bound)
            row_ops = _row_ops_for(
                literal, slots, bound, set(index_positions)
            )
            steps.append(
                SubqueryStep(
                    literal, literal.pred_key, False, False,
                    tuple(index_positions), tuple(key_ops),
                    tuple(row_ops), False, None,
                )
            )

    head_ops = []
    for arg in head.args:
        arg_vars = arg.variables()
        if not arg_vars:
            head_ops.append((_CONST, arg))
        elif isinstance(arg, Variable):
            if arg in bound:
                head_ops.append((_SLOT, slots[arg]))
            else:
                head_ops.append((_UNBOUND, arg))
        elif all(v in bound for v in arg_vars):
            head_ops.append(
                (_EVAL, (arg, tuple((v, slots[v]) for v in arg_vars)))
            )
        else:
            head_ops.append((_UNBOUND, arg))
    return SubqueryPlan(
        rule, head.pred_key, tuple(entry_ops), tuple(steps),
        tuple(head_ops), len(slots),
    )


class SubqueryProgram:
    """All subquery plans for an adorned program, plus per-predicate
    bound-position tuples for the evaluator's answer-store indexes."""

    __slots__ = ("program", "derived_keys", "plans", "plans_by_head",
                 "bound_positions")

    def __init__(self, program: Program):
        self.program = program
        self.derived_keys = program.derived_predicates()
        plans = []
        by_head: Dict[str, List[SubqueryPlan]] = {}
        bound_positions: Dict[str, Tuple[int, ...]] = {}
        for rule in program.rules:
            plan = compile_subquery_rule(rule, self.derived_keys)
            plans.append(plan)
            by_head.setdefault(plan.head_key, []).append(plan)
            if plan.head_key not in bound_positions:
                bound_positions[plan.head_key] = rule.head.bound_positions()
        self.plans = tuple(plans)
        self.plans_by_head = {
            key: tuple(values) for key, values in by_head.items()
        }
        self.bound_positions = bound_positions

    def register_indexes(self, database: Database) -> None:
        """Register every base step's index positions up front."""
        for plan in self.plans:
            for step in plan.steps:
                if not step.is_derived and step.lookup_positions:
                    relation = database.get(step.pred_key)
                    if relation is not None:
                        relation.register_index(step.lookup_positions)

    def __len__(self):
        return len(self.plans)

    def __repr__(self):
        return (
            f"SubqueryProgram({len(self.program)} rules, "
            f"{len(self.plans)} plans)"
        )


# ----------------------------------------------------------------------
# plan cache
# ----------------------------------------------------------------------

class PlanCache:
    """An LRU cache of what is compiled from a program, keyed by
    ``(kind, program)``.

    Programs hash structurally, so two parses of the same source share
    an entry.  Every stage that depends on the program but not on the
    facts uses this one cache, told apart by ``kind``:

    * ``"bottom-up"`` -- a :class:`CompiledProgram` (``evaluate*``);
    * ``"qsq"`` -- a :class:`SubqueryProgram` (``qsq_evaluate``);
    * ``("query-shape", shape literal, sip builder, method, mode,
      optimize, semijoin)`` -- the adorned and rewritten program of one
      query shape, or the error that rejected it
      (:func:`repro.core.pipeline.answer_query`), whose ``program`` is
      in turn the key of a ``"bottom-up"`` / ``"qsq"`` entry.

    That is what lets benchmark loops, repeated CLI queries and the
    server's cold reads stop re-rewriting and recompiling.
    Every lookup, of any kind, counts in ``hits`` / ``misses``;
    ``evaluate*`` and ``qsq_evaluate`` consult the shared module-level
    cache by default and report their own lookups' hits/misses through
    their stats objects (``EvaluationStats.plan_cache_*`` therefore
    count compiled-plan lookups only).  Entries are immutable once
    published.
    """

    __slots__ = ("maxsize", "hits", "misses", "_entries", "_lock")

    def __init__(self, maxsize: int = 128):
        if maxsize < 1:
            raise ValueError("PlanCache maxsize must be >= 1")
        self.maxsize = maxsize
        self.hits = 0
        self.misses = 0
        self._entries: "OrderedDict[Tuple[object, Program], object]" = (
            OrderedDict()
        )
        # OrderedDict relinking (move_to_end / insert / popitem) is not
        # atomic under concurrent callers; the server's reader pool
        # shares this cache, so bookkeeping takes a lock.  Compilation
        # itself runs outside it -- duplicate compiles race benignly
        # and the first published entry wins.
        self._lock = threading.Lock()

    def get(self, kind, program: Program, factory):
        """The cached compilation for ``(kind, program)``; ``kind`` is
        any hashable.

        Returns ``(compiled, hit)``; on a miss, ``factory(program)``
        builds the entry (evicting the least recently used one past
        ``maxsize``).
        """
        key = (kind, program)
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
                self.hits += 1
                return entry, True
            self.misses += 1
        compiled = factory(program)
        with self._lock:
            entry = self._entries.setdefault(key, compiled)
            self._entries.move_to_end(key)
            while len(self._entries) > self.maxsize:
                self._entries.popitem(last=False)
        return entry, False

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self.hits = 0
            self.misses = 0

    def __len__(self):
        return len(self._entries)

    def __repr__(self):
        return (
            f"PlanCache({len(self._entries)}/{self.maxsize} entries, "
            f"{self.hits} hits, {self.misses} misses)"
        )


_SHARED_PLAN_CACHE = PlanCache()


def shared_plan_cache() -> PlanCache:
    """The process-wide default :class:`PlanCache`."""
    return _SHARED_PLAN_CACHE


def compiled_program_for(
    program: Program, plan_cache: Optional[PlanCache] = None
) -> Tuple[CompiledProgram, bool]:
    """A (possibly cached) :class:`CompiledProgram`, plus the hit flag."""
    cache = plan_cache if plan_cache is not None else _SHARED_PLAN_CACHE
    return cache.get("bottom-up", program, CompiledProgram)


def subquery_program_for(
    program: Program, plan_cache: Optional[PlanCache] = None
) -> Tuple[SubqueryProgram, bool]:
    """A (possibly cached) :class:`SubqueryProgram`, plus the hit flag."""
    cache = plan_cache if plan_cache is not None else _SHARED_PLAN_CACHE
    return cache.get("qsq", program, SubqueryProgram)
