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
* **One ID-level op set.**  The rule's variables are numbered into frame
  slots, and each step carries tiny ops compiled once against term IDs
  (constants interned at compile time): key ops build its lookup key,
  row ops compare each candidate row's values or store them into a
  per-step local buffer, and head ops emit the derived row.  Function
  terms and :class:`~repro.datalog.terms.LinExpr` index expressions fall
  back to the generic one-way matcher for just the affected position.
  A liveness pass at plan build decides which slots each step carries
  into the next batch, and after which steps frames may merge.

Plans preserve the semantics of :class:`~repro.datalog.engine.EvaluationStats`
exactly: ``rule_firings``, ``facts_derived`` and ``duplicate_derivations`` are
join-order independent (they count body solutions, which reordering does not
change), while ``join_probes`` / ``tuples_scanned`` measure the work the plan
actually performs -- the quantity the planner is built to shrink.

**Execution.**  Plans execute in batches (:meth:`JoinPlan.execute_batch`):
partial matches travel as columns of term IDs, one per live slot.  How a
step runs is decided once, at plan build, from its ops and the liveness
pass: it gets one of six kernels and a tuple of operands -- ``scan``
(keyless, stores only: a delta window, the seed relation, a full scan;
a window's column slices, or a delta batch's own columns, are the
batch), ``chain`` (keyed, one live store), ``chain_merge`` (a ``chain``
step after which frames merge: it merges them itself, see below),
``member`` (keyed on every position, no live store: one C-level pass
of rowmap membership tests, ``general`` under a window or on a delta
batch), ``anti`` (a negated literal's membership test) and ``general``
(everything else: per-row checks, ``_EVAL`` keys, a keyed step with no
or several live stores); a QSQ step of any kind but ``member`` first
registers its keys.
A dead store is never built.  Per call the executor only resolves each
step's relation and window
(an exact index is read as a dict, and a window cuts its buckets by
bisection), runs the kernel, and adds the work counters to the stats
once.  It goes further the
way the paper's supplementary predicates do for a rule prefix: after a
non-final step at which a frame slot goes dead, frames that agree on every
live slot are merged into one frame carrying an integer *multiplicity*, so the
remaining steps probe once per distinct live binding.  A ``chain_merge``
step never builds the (frame x row) frames it would merge: it groups
the frames on their carried slots and counts each group's bucket values
at C level into the merged batch.  The executor's contract: the head
ID rows it returns may repeat, each comes with the number of body solutions it
stands for, the multiplicities sum to the exact number of body solutions
(which is what ``rule_firings`` gains), and ``tuples_scanned`` counts the rows
touched *after* merging.

Two further layers serve the top-down side and repeated evaluations:

* **Subquery plans** (:func:`compile_subquery_rule`) compile an adorned
  rule ``h :- body`` for the QSQ evaluator (:mod:`repro.datalog.topdown`)
  into the :class:`JoinPlan` of ``h :- $q:h(b), body``: the first step
  reads the head's input relation (its subqueries, ``b`` its bound
  arguments), and the body stays in sip order (the order determines
  which subqueries exist, so it cannot be rearranged), each derived
  literal keyed on its adornment's bound positions and registering its
  keys as subqueries before it probes (``JoinStep.input_key``).  A
  :class:`SubqueryProgram` answers ``strata``, ``recursive_occurrences``
  and ``plan`` like a :class:`CompiledProgram`, so the bottom-up round
  driver and serial executor run it.
* **The plan cache** (:class:`PlanCache`, :func:`shared_plan_cache`)
  memoizes both compilation kinds by program identity, so benchmark
  loops and repeated CLI queries compile once; ``evaluate`` and
  ``qsq_evaluate`` report hits/misses through their stats.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from collections import Counter, OrderedDict
from functools import partial
from itertools import chain, compress, repeat as _repeat
from typing import Dict, List, Optional, Set, Tuple

from .analysis import stratify
from .ast import Literal, Program, Rule
from .catalog import term_catalog
from .database import Database, IdTuple, Relation
from .errors import (
    EvaluationError,
    UnsafeNegationError,
    UnsupportedProgramError,
)
from .terms import Term, Variable
from .unify import match_into, resolve

__all__ = [
    "JoinStep",
    "JoinPlan",
    "CompiledProgram",
    "SubqueryProgram",
    "PlanCache",
    "compile_rule",
    "compile_subquery_rule",
    "compiled_program_for",
    "subquery_program_for",
    "shared_plan_cache",
    "order_body",
    "partition_columns",
]

# Op tags.  There is one op set, and it is ID-level: a ground term is
# interned once, at compile time, and every run-time value is a term ID.
# A rule's variables are numbered into frame slots, and a batch carries
# one column per live slot.  Key ops build a step's index-lookup key
# from those columns; row ops check and bind the non-indexed positions of
# each candidate row, storing what the step binds into a per-step local
# buffer (``JoinStep.store_slots`` maps buffer entries to slots); head
# ops emit the derived row.
_CONST = 0   # key/head: the ID of a ground term
_SLOT = 1    # key/head: read a slot's column
_EVAL = 2    # key/head: (term, ((var, slot), ...)) -- substitute the
#              resolved slots into a Struct/LinExpr
_STORE = 3   # row: bind the row value into local-buffer entry ``payload``
_EQ = 4      # row: compare the row value against a slot's column
_MATCH = 5   # row: (pattern, prior, local, frees) -- one-way match of a
#              partially-bound Struct/LinExpr; ``prior`` pairs (var, slot)
#              read columns, ``local`` and ``frees`` pairs (var, entry)
#              read and fill the local buffer
_UNBOUND = 6  # head: argument can never be ground (range-restriction error)
_EQC = 7     # row: compare the row value against a ground term's ID
# (_EQC only arises in QSQ plans: the first step reads the head's input
# relation unkeyed, and an adorned literal may carry a constant at a
# position its adornment marks free, outside the answer-index key; both
# are checked per row.)
_EQL = 8     # row: compare against local-buffer entry ``payload``: a
#              variable the same literal stored earlier, e.g. p(X, X)

_CATALOG = term_catalog()


def _slots_read(ops):
    """The slots key or head ops read."""
    reads: Set[int] = set()
    for tag, payload in ops:
        if tag == _SLOT:
            reads.add(payload)
        elif tag == _EVAL:
            reads.update(s for _, s in payload[1])
    return reads


def _step_reads(step):
    """The slots a step's ops read from the batch it receives."""
    reads = _slots_read(step.key_ops)
    for _pos, tag, payload in step.row_ops:
        if tag == _EQ:
            reads.add(payload)
        elif tag == _MATCH:
            reads.update(s for _, s in payload[1])
    return reads


def _key_builder(key_ops, as_tuple, evaluate):
    """The function ``(cols, n) -> keys`` of key ops: one key per frame
    of the batch ``cols`` (a bare ID for one op unless ``as_tuple``, an
    ID tuple otherwise).  ``_CONST`` payloads are IDs and ``_SLOT`` keys
    the columns themselves; only ``_EVAL`` keys are built per frame, and
    ``evaluate`` maps the resolved term to an ID: ``id_of`` for probe
    keys, ``intern`` when the key outlives the probe (QSQ subqueries).
    A term ``id_of`` has never seen gets a negative ID of its own, which
    matches nothing: distinct unseen keys stay distinct probes, so the
    probe count does not depend on what the process interned before."""
    single = len(key_ops) == 1 and not as_tuple
    if any(tag == _EVAL for tag, _ in key_ops):
        resolve_id = _CATALOG.resolve

        def keys(cols, n):
            out = []
            unseen: Dict[Term, int] = {}

            def term_id(term):
                found = evaluate(term)
                if found < 0:
                    found = unseen.setdefault(term, -1 - len(unseen))
                return found

            for i in range(n):
                key = tuple([
                    cols[payload][i] if tag == _SLOT
                    else payload if tag == _CONST
                    else term_id(resolve(payload[0], {
                        v: resolve_id(cols[s][i]) for v, s in payload[1]
                    }))
                    for tag, payload in key_ops
                ])
                out.append(key[0] if single else key)
            return out

        return keys
    if single:
        ((tag, payload),) = key_ops
        if tag == _SLOT:
            return lambda cols, n: cols[payload]
        return lambda cols, n: [payload] * n
    if not key_ops:
        return lambda cols, n: [()] * n
    return lambda cols, n: list(zip(*(
        cols[payload] if tag == _SLOT else _repeat(payload, n)
        for tag, payload in key_ops
    )))


def _head_builder(rule, head_ops):
    """The function ``(cols, n) -> head ID rows`` of a plan's head ops;
    a head argument that is not ground once a body solution reaches it
    raises :class:`EvaluationError`."""

    def not_ground(arg):
        return EvaluationError(
            f"rule {rule} produced a non-ground head argument {arg}; the "
            "rule is not range-restricted for this database"
        )

    unbound = [payload for tag, payload in head_ops if tag == _UNBOUND]
    if unbound:
        def unbound_head(cols, n):
            raise not_ground(unbound[0])

        return unbound_head

    def ground_id(value):
        if not value.is_ground():
            raise not_ground(value)
        return _CATALOG.intern(value)

    return _key_builder(head_ops, True, ground_id)


def _live_slots(relation, window):
    """The live slots of ``relation``'s slot window ``(lo, hi)`` (None:
    the whole relation), ascending: a range for a window that holds no
    tombstone, whatever the relation's other slots hold."""
    if window is None:
        return relation.lookup_ids((), ())
    lo, hi = window
    live = relation._live
    if relation._dead and live.find(0, lo, hi) >= 0:
        return [slot for slot in range(lo, hi) if live[slot]]
    return range(lo, hi)


def _slot_getter(relation, positions, window):
    """``key -> slots`` for one call of a step probing ``relation`` on
    ``positions``: the index dict's own ``get`` while its buckets are
    exact (no tombstone), else the pruning / rowmap lookup, each bucket
    cut to the slot ``window`` by bisection (they list slots ascending).
    A keyless step gets every live slot for its one key ``()``."""
    if not positions:
        slots = _live_slots(relation, window)
        return lambda key: slots
    index = relation.probe_index(positions)
    get = (
        partial(relation.lookup_ids, positions) if index is None
        else index.get
    )
    if window is None:
        return get
    lo, hi = window

    def cut(key):
        slots = get(key)
        if slots and (slots[0] < lo or slots[-1] >= hi):
            return slots[bisect_left(slots, lo):bisect_left(slots, hi)]
        return slots

    return cut


# ----------------------------------------------------------------------
# step kernels
# ----------------------------------------------------------------------
# ``kernel(operands, relation, window, keys, cols, n)`` extends the
# ``n`` frames of the batch ``cols`` by the rows of ``relation`` (its
# slot ``window``, or all of it when None) and returns ``(sel, stores,
# probes, scanned)``: the surviving frame indexes in batch order (one
# per matched row), the step's live store columns (``store_out``
# order) aligned with ``sel``, and its work counts.  A keyed kernel
# probes once per distinct key and reuses the result for every later
# frame with that key -- the solution multiset of per-frame probing.
# ``keys`` is None except for a QSQ step: its registered subqueries,
# the keys its ``keys_of`` would build.  ``_chain_merge`` alone also
# takes the frames' ``weights`` and returns the merged batch instead
# (see its docstring).

def _scan(outs, relation, window, keys, cols, n):
    """A keyless step that only stores (a delta window, the seed
    relation, a full scan); ``outs`` are the row positions of its live
    stores.  A window's column slices are the rows, and a delta batch's
    own column lists are (it is never windowed, and its rows are all
    live)."""
    columns = relation._columns
    if type(relation) is not Relation:  # a delta batch
        values = [columns[p] for p in outs]
        m = len(relation)
    else:
        slots = _live_slots(relation, window)
        if type(slots) is range:  # contiguous: slice the columns (C level)
            values = [
                columns[p][slots.start:slots.stop].tolist() for p in outs
            ]
        else:
            values = [[columns[p][s] for s in slots] for p in outs]
        m = len(slots)
    if n == 1:
        return [0] * m, values, 1, m
    sel = [i for i in range(n) for _ in range(m)]
    return sel, [value * n for value in values], 1, m * n


def _member(operands, relation, window, keys, cols, n):
    """A keyed step on every position of its literal that stores
    nothing (``r(X)`` after ``q(X)``): the key is the candidate ID row,
    and a frame survives iff the relation's rowmap holds it -- one pass
    at C level.  It counts what ``_general`` counts, a probe per
    distinct key and a row per surviving frame, and runs ``_general``
    for a slot window and for a delta batch (which has no rowmap)."""
    row_keys_of, general_operands = operands
    if window is not None or type(relation) is not Relation:
        return _general(general_operands, relation, window, keys, cols, n)
    row_keys = row_keys_of(cols, n)
    sel = list(
        compress(range(n), map(relation._rowmap.__contains__, row_keys))
    )
    return sel, (), len(set(row_keys)), len(sel)


def _chain(operands, relation, window, keys, cols, n):
    """A keyed step with one live store and no check (``par(X, Z)``
    probed on X, storing Z)."""
    positions, keys_of, pos = operands
    get = _slot_getter(relation, positions, window)
    row_col = relation._columns[pos]
    sel: List[int] = []
    store: List[int] = []
    scanned = 0
    vals_of: Dict[object, List[int]] = {}
    for i, key in enumerate(keys or keys_of(cols, n)):
        values = vals_of.get(key)
        if values is None:
            values = vals_of[key] = [row_col[r] for r in get(key) or ()]
        n_rows = len(values)
        if n_rows == 1:  # chain joins: almost every bucket
            scanned += 1
            sel.append(i)
            store.append(values[0])
        elif n_rows:
            scanned += n_rows
            sel.extend(_repeat(i, n_rows))
            store.extend(values)
    return sel, (store,), len(vals_of), scanned


def _chain_merge(operands, relation, window, keys, cols, n, weights):
    """A chain step after which frames merge (a slot dies there): the
    probe and the merge in one pass.  The frames are grouped on their
    carried binding (``carry_out``), and each group's bucket values are
    counted at C level, so no (frame x row) frame, gathered column or
    slot tuple is built; a weighted frame (one an earlier merge left)
    adds its weight per value instead.

    Unlike the other kernels it returns the merged batch ``(cols,
    weights, n)`` and its work counts: the frames and multiplicities
    ``_chain`` followed by ``_merge_frames`` gives, and the same probes
    (one per distinct key) and rows scanned (a bucket's rows per
    frame).  Only the order differs: grouped by carried binding in
    first-seen order, then by stored value in first-seen order.
    ``weights`` stays None when it came None and no two frames
    coincided."""
    positions, keys_of, pos, carry_out, store_slot = operands
    get = _slot_getter(relation, positions, window)
    row_col = relation._columns[pos]
    if len(carry_out) == 1:
        bindings = cols[carry_out[0]]
    elif carry_out:
        bindings = zip(*[cols[s] for s in carry_out])
    else:
        bindings = _repeat((), n)
    vals_of: Dict[object, List[int]] = {}
    # carried binding -> its frames' bucket values (with their weights)
    groups: Dict[object, list] = {}
    scanned = 0
    keys = keys or keys_of(cols, n)
    for i, (key, binding) in enumerate(zip(keys, bindings)):
        values = vals_of.get(key)
        if values is None:
            values = vals_of[key] = [row_col[r] for r in get(key) or ()]
        if values:
            scanned += len(values)
            group = groups.get(binding)
            if group is None:
                group = groups[binding] = []
            group.append(values if weights is None else (values, weights[i]))
    carried: List[List[int]] = [[] for _ in carry_out]
    store: List[int] = []
    counts: List[int] = []
    for binding, group in groups.items():
        if weights is None:
            merged = Counter(chain.from_iterable(group))  # C level
        else:
            merged = {}
            add = merged.get
            for values, weight in group:
                for value in values:
                    merged[value] = add(value, 0) + weight
        m = len(merged)
        store.extend(merged)
        counts.extend(merged.values())
        if len(carry_out) == 1:
            carried[0].extend(_repeat(binding, m))
        else:
            for column, value in zip(carried, binding):
                column.extend(_repeat(value, m))
    merged_cols = dict(zip(carry_out, carried))
    merged_cols[store_slot] = store
    n = len(store)
    if weights is None and n == scanned:
        counts = None  # every frame distinct: nothing merged
    return merged_cols, counts, n, len(vals_of), scanned


def _anti(keys_of, relation, window, keys, cols, n):
    """An anti-join: the key covers every position, so it *is* the
    candidate ID row, and a frame survives iff the (non-empty)
    relation's rowmap misses it.  A 0-ary atom (no ``keys_of``) holds,
    so the negation fails every frame."""
    if not keys_of:
        return [], (), 0, 0
    rowmap = relation._rowmap
    return [
        i for i, key in enumerate(keys_of(cols, n)) if key not in rowmap
    ], (), n, 0


def _general(operands, relation, window, keys, cols, n):
    """Any other step (checks, ``_EVAL`` keys, a keyed step with no or
    several live stores): each candidate row runs the row ops into a
    local buffer, and a row that passes them all appends the buffer's
    live entries."""
    positions, keys_of, row_ops, n_locals, outs = operands
    keys = keys or (keys_of(cols, n) if keys_of else _repeat((), n))
    get = _slot_getter(relation, positions, window)
    resolve_id = _CATALOG.resolve
    intern = _CATALOG.intern
    row_cols = relation._columns
    sel: List[int] = []
    stores = [[] for _ in outs]
    out_pairs = list(zip(outs, stores))
    local = [0] * n_locals
    scanned = 0
    rows_of: Dict[object, object] = {}
    for i, key in enumerate(keys):
        rows = rows_of.get(key)
        if rows is None:
            rows = rows_of[key] = get(key) or ()
        scanned += len(rows)
        for row in rows:
            for pos, tag, payload in row_ops:
                value = row_cols[pos][row]
                if tag == _STORE:
                    local[payload] = value
                elif tag == _EQ:
                    if cols[payload][i] != value:
                        break
                elif tag == _EQL:
                    if local[payload] != value:
                        break
                elif tag == _EQC:
                    if payload != value:
                        break
                else:  # _MATCH
                    pattern, prior, loc, frees = payload
                    seed = {v: resolve_id(cols[s][i]) for v, s in prior}
                    for v, j in loc:
                        seed[v] = resolve_id(local[j])
                    if not match_into(pattern, resolve_id(value), seed):
                        break
                    for v, j in frees:
                        local[j] = intern(seed[v])
            else:
                sel.append(i)
                for j, store in out_pairs:
                    store.append(local[j])
    return sel, stores, len(rows_of), scanned


def _kernel_for(step):
    """The ``(kernel, operands)`` a step runs as, once its liveness
    (``store_out``) is known (see "Execution" in the module docstring);
    ``keys_of`` is empty for a keyless step."""
    key_ops = step.key_ops
    keys_of = key_ops and _key_builder(key_ops, step.negated, _CATALOG.id_of)
    if step.negated:
        return _anti, keys_of
    stores_only = (
        all(tag != _EVAL for tag, _ in key_ops)
        and all(tag == _STORE for _, tag, _ in step.row_ops)
    )
    if stores_only and (not key_ops or len(step.store_out) == 1):
        position_of = {j: pos for pos, _, j in step.row_ops}
        outs = tuple(position_of[j] for j, _ in step.store_out)
        if not key_ops:
            return _scan, outs
        operands = (step.index_positions, keys_of) + outs
        if step.merge:
            return _chain_merge, operands + (
                step.carry_out, step.store_out[0][1],
            )
        return _chain, operands
    general = (
        step.index_positions, keys_of, step.row_ops,
        len(step.store_slots), tuple(j for j, _ in step.store_out),
    )
    if (
        stores_only
        and not step.store_out
        and len(key_ops) == len(step.literal.args)
        and step.input_key is None
    ):
        return _member, (
            _key_builder(key_ops, True, _CATALOG.id_of), general
        )
    return _general, general


def _register_subqueries(input_key, keys_of, single, database, cols, n):
    """Register the keys of a QSQ step's ``n`` frames as subqueries in
    its input relation ``input_key``, and return them as the step's
    probe keys (bare IDs when ``single``, the step keying on one
    position).

    The keys outlive the probe, so ``keys_of`` interns ``_EVAL`` keys;
    a step with no bound position (no ``keys_of``) registers the empty
    key.  Every frame that reaches the step registers, whether or
    not the probe then finds a row -- the paper's ``Q`` holds every
    subquery the sips construct.
    """
    inputs = database.relation(input_key)
    if not keys_of:
        inputs.add_id_rows([()])
        return None
    keys = keys_of(cols, n)
    if single:
        inputs.add_id_rows([(key,) for key in set(keys)])
    else:
        inputs.add_id_rows(set(keys))
    return keys


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
    """Index positions and key ops for the arguments ground at run time.

    A position is indexable when its argument is ground at plan time
    (``_CONST``, its ID interned here) or built only from variables
    bound by earlier steps (``_SLOT`` / ``_EVAL``).  The index lookup
    then guarantees equality, so indexed positions need no per-row
    check at all.
    """
    index_positions: List[int] = []
    key_ops = []
    for pos, arg in enumerate(literal.args):
        arg_vars = arg.variables()
        if not arg_vars:
            index_positions.append(pos)
            key_ops.append((_CONST, _CATALOG.intern(arg)))
        elif isinstance(arg, Variable):
            if arg in bound:
                index_positions.append(pos)
                key_ops.append((_SLOT, slots[arg]))
        elif all(v in bound for v in arg_vars):
            index_positions.append(pos)
            key_ops.append(
                (_EVAL, (arg, tuple((v, slots[v]) for v in arg_vars)))
            )
    return tuple(index_positions), tuple(key_ops)


def _row_ops_for(literal, slots, bound, indexed):
    """Row ops for the non-indexed positions of a literal, and the
    step's ``store_slots``: the slot of each local-buffer entry.

    Each variable the step newly binds gets a local-buffer entry (a
    ``_STORE``, or a free variable of a ``_MATCH``); a later reference
    within the literal reads that entry (``_EQL``, or a ``_MATCH``'s
    local pair), an earlier step's variable its slot's column.  Mutates
    ``bound``, adding the variables the step newly binds.
    """
    row_ops = []
    store_slots: List[int] = []
    local_of: Dict[Variable, int] = {}

    def store(var):
        local_of[var] = len(store_slots)
        store_slots.append(slots[var])
        bound.add(var)
        return local_of[var]

    for pos, arg in enumerate(literal.args):
        if pos in indexed:
            continue
        arg_vars = arg.variables()
        if not arg_vars:
            row_ops.append((pos, _EQC, _CATALOG.intern(arg)))
        elif isinstance(arg, Variable):
            if arg in local_of:
                # repeated variable within the literal, e.g. p(X, X)
                row_ops.append((pos, _EQL, local_of[arg]))
            elif arg in bound:
                row_ops.append((pos, _EQ, slots[arg]))
            else:
                row_ops.append((pos, _STORE, store(arg)))
        else:
            # Struct / LinExpr with at least one free variable: fall
            # back to the generic matcher for this position only.
            prior = tuple(
                (v, slots[v]) for v in arg_vars
                if v in bound and v not in local_of
            )
            local = tuple((v, local_of[v]) for v in arg_vars if v in local_of)
            frees = tuple((v, store(v)) for v in arg_vars if v not in bound)
            row_ops.append((pos, _MATCH, (arg, prior, local, frees)))
    return tuple(row_ops), tuple(store_slots)


def _head_ops_for(head, slots, bound):
    """Head ops: a head argument is emitted from its slot, as a
    constant's ID, or by substituting bound slots (``_EVAL``); one with
    a variable no body literal binds is ``_UNBOUND`` and raises when a
    body solution reaches it."""
    head_ops = []
    for arg in head.args:
        arg_vars = arg.variables()
        if not arg_vars:
            head_ops.append((_CONST, _CATALOG.intern(arg)))
        elif not all(v in bound for v in arg_vars):
            head_ops.append((_UNBOUND, arg))
        elif isinstance(arg, Variable):
            head_ops.append((_SLOT, slots[arg]))
        else:
            head_ops.append(
                (_EVAL, (arg, tuple((v, slots[v]) for v in arg_vars)))
            )
    return tuple(head_ops)


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
                 "index_positions", "key_ops", "row_ops", "store_slots",
                 "input_key", "carry_out", "store_out", "merge", "kernel",
                 "operands")

    def __init__(self, literal, pred_key, is_delta, negated,
                 index_positions, key_ops, row_ops=(), store_slots=(),
                 input_key=None):
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
        #: the slot of each local-buffer entry the row ops store into
        self.store_slots = store_slots
        #: QSQ: the input relation this step's keys are registered in
        #: as subqueries before it probes (None = a plain join step)
        self.input_key = input_key
        # the liveness-pruned batch layout, set at plan build: the
        # slots carried over from the batch the step receives, and the
        # ``(entry, slot)`` stores, that a later step or the head reads
        self.carry_out = ()
        self.store_out = ()
        #: merge equal frames after this step (set at plan build: a
        #: non-final step at which some frame slot goes dead)
        self.merge = False
        #: the step kernel and its operands (set at plan build, once
        #: the liveness is known: see _kernel_for)
        self.kernel = None
        self.operands = None

    @property
    def kind(self) -> str:
        """The kernel the step runs as: ``scan``, ``chain``,
        ``chain_merge`` (a ``chain`` step with ``merge`` set, which
        merges its frames itself), ``member``, ``anti`` or
        ``general``."""
        return self.kernel.__name__[1:]

    def __repr__(self):
        flag = " delta" if self.is_delta else ""
        return (
            f"JoinStep({self.literal}{flag}, {self.kind}, "
            f"indexed on {self.index_positions})"
        )


class JoinPlan:
    """A compiled rule: ordered join steps plus head-emission ops."""

    __slots__ = ("rule", "delta_index", "order", "steps", "head_ops",
                 "_head", "_records")

    def __init__(self, rule, delta_index, order, steps, head_ops):
        self.rule = rule
        #: body index matched against the delta relation (None = full plan)
        self.delta_index = delta_index
        #: body indexes in execution order
        self.order = order
        self.steps = steps
        self.head_ops = head_ops
        # liveness, from the head back: ``needed`` holds the slots read
        # after the step at hand
        needed = _slots_read(head_ops)
        self._head = _head_builder(rule, head_ops)
        for step in reversed(steps):
            stores = set(step.store_slots)
            step.store_out = tuple(
                (j, s) for j, s in enumerate(step.store_slots) if s in needed
            )
            step.carry_out = tuple(sorted(needed - stores))
            needed = (needed - stores) | _step_reads(step)
        # merge points of execute_batch: a step's live-out slots are a
        # subset of its live-in slots plus its stores, so a smaller
        # count means a slot died there and frames may now coincide
        live = 0
        for step in steps[:-1]:
            live_out = len(step.carry_out) + len(step.store_out)
            step.merge = live_out < live + len(step.store_slots)
            live = live_out
        for step in steps:
            step.kernel, step.operands = _kernel_for(step)
        # what execute_batch reads of each step, as one tuple
        self._records = tuple(
            (
                body_index, step.pred_key, step.is_delta,
                step.input_key and partial(
                    _register_subqueries, step.input_key,
                    step.key_ops
                    and _key_builder(step.key_ops, False, _CATALOG.intern),
                    len(step.key_ops) == 1,
                ),
                step.kernel, step.operands, step.carry_out,
                tuple(s for _, s in step.store_out), step.merge,
                step.kernel is _chain_merge,
            )
            for body_index, step in zip(order, steps)
        )

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

        Each step runs its kernel (see "Execution" in the module
        docstring) over the batch of partial matches, emitting the next.
        After a non-final step at which a frame slot goes dead
        (``step.merge``), frames that agree on every live slot are
        merged into one frame carrying an integer multiplicity, so the
        remaining steps run once per distinct live binding.  A
        ``chain_merge`` step returns that merged batch itself (the
        record says so; no gather, no ``_merge_frames``), its frames
        grouped by carried binding and then in first-seen stored-value
        order; after any other step they keep first-seen order.  The
        multiset of frames and multiplicities, and so every counter, is
        the same either way.

        ``rows`` are head ID rows and may repeat (nothing is merged
        after the last step; the head insert deduplicates).
        ``multiplicities`` is aligned with ``rows`` -- how many body
        solutions each row stands for -- or None when every row stands
        for exactly one (no merge happened).  ``solutions`` is their
        sum, the exact number of body solutions, and is what this call
        adds to ``stats.rule_firings``: ``rule_firings`` /
        ``facts_derived`` / ``duplicate_derivations`` are therefore
        join-order independent, while ``join_probes`` counts the
        deduplicated probes and ``tuples_scanned`` the rows touched
        *after* merging -- the two quantities batching and merging
        shrink.  Both are added to ``stats`` once, as the call ends.

        A step with an ``input_key`` (a QSQ plan's derived step) first
        registers its frames' keys there as subqueries, before any
        emptiness check can end the run.

        ``meter``, when given, is consulted once at entry (a batch
        boundary for the resource governor) and may abort by raising.
        """
        if meter is not None:
            meter.check_batch(stats)
        cols: Dict[int, List[int]] = {}
        weights: Optional[List[int]] = None
        n = 1
        probes = scanned = 0
        try:
            for (
                body_index, pred_key, is_delta, register, kernel, operands,
                carry_out, out_slots, merge, merges_itself,
            ) in self._records:
                keys = None
                if register is not None:
                    keys = register(database, cols, n)
                window = None
                if is_delta and delta_relation is not None:
                    relation = delta_relation
                else:
                    relation = database.get(pred_key)
                    if windows is not None and relation is not None:
                        window = windows.get(body_index)
                        if window is not None:
                            if window[0] >= window[1]:
                                return [], None, 0
                            if (
                                not window[0]
                                and window[1] >= len(relation._live)
                            ):
                                window = None  # the whole relation
                if relation is None or not len(relation):
                    if kernel is _anti:
                        continue  # nothing to refute: all frames survive
                    return [], None, 0
                if merges_itself:
                    cols, weights, n, step_probes, step_scanned = kernel(
                        operands, relation, window, keys, cols, n, weights
                    )
                    probes += step_probes
                    scanned += step_scanned
                    if not n:
                        return [], None, 0
                    continue
                sel, stores, step_probes, step_scanned = kernel(
                    operands, relation, window, keys, cols, n
                )
                probes += step_probes
                scanned += step_scanned
                if not sel:
                    return [], None, 0
                next_cols = {
                    s: list(map(cols[s].__getitem__, sel)) for s in carry_out
                }
                next_cols.update(zip(out_slots, stores))
                cols = next_cols
                n = len(sel)
                if weights is not None:
                    weights = list(map(weights.__getitem__, sel))
                if merge:
                    cols, weights, n = _merge_frames(cols, weights, n)
        finally:
            stats.join_probes += probes
            stats.tuples_scanned += scanned

        solutions = n if weights is None else sum(weights)
        stats.rule_firings += solutions
        return self._head(cols, n), weights, solutions

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
            steps.append(JoinStep(
                literal, literal.pred_key, False, True,
                index_positions, key_ops,
            ))
            continue
        row_ops, store_slots = _row_ops_for(
            literal, slots, bound, set(index_positions)
        )
        steps.append(JoinStep(
            literal, literal.pred_key, body_idx == delta_index, False,
            index_positions, key_ops, row_ops, store_slots,
        ))
    return JoinPlan(
        rule, delta_index, order, tuple(steps),
        _head_ops_for(rule.head, slots, bound),
    )


def partition_columns(plan: JoinPlan) -> Optional[Tuple[int, ...]]:
    """Input-row positions to hash-partition a sharded execution on.

    The thread pool splits a plan's first-step input rows (a delta
    batch, or a full relation treated as one) across its workers.  Sharding
    is *correct* for any split -- the solution multiset is partitioned
    exactly because every input row is processed by exactly one worker
    -- but probe locality is not free: a keyed step probes once per
    distinct key per batch, so scattering equal join keys
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
    for pos, tag, payload in first.row_ops:
        if tag == _STORE:
            slot_to_pos[first.store_slots[payload]] = pos
    if not slot_to_pos:
        return None
    for step in steps[1:]:
        if not step.key_ops:
            continue
        positions = [
            slot_to_pos[payload]
            for tag, payload in step.key_ops
            if tag == _SLOT and payload in slot_to_pos
        ]
        if positions:
            return tuple(dict.fromkeys(positions))
        # the first probing step keys on something the input does not
        # supply (constants, or values bound by an intermediate step):
        # partitioning the input cannot co-locate its keys
        return None
    return None


class CompiledProgram:
    """All plans for a program: one full plan per rule, plus one delta
    plan per *positive* body occurrence of a derived predicate.

    ``strata`` is the stratum partition of the rule indexes (a single
    stratum for positive programs): the engines drive each stratum to
    its fixpoint before the next starts, so anti-join steps always probe
    completed relations.  Compilation therefore rejects non-stratified
    programs (:class:`StratificationError`) and unsafe negation
    (:class:`UnsafeNegationError`) up front.  ``stratum_heads`` holds
    each stratum's head predicates, and ``flat[s]`` is True when no rule
    of stratum ``s`` has a recursive occurrence (a negated literal never
    names a head of its own stratum, so no rule reads one at all).
    """

    __slots__ = ("program", "derived_keys", "strata", "stratum_heads",
                 "flat", "_plans", "_delta_occurrences",
                 "_recursive_occurrences")

    def __init__(self, program: Program):
        self.program = program
        self.derived_keys = program.derived_predicates()
        self.strata = stratify(program).rule_strata
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
        self.stratum_heads = tuple(
            frozenset(program.rules[ri].head.pred_key for ri in stratum)
            for stratum in self.strata
        )
        for stratum, heads in zip(self.strata, self.stratum_heads):
            for ri in stratum:
                body = program.rules[ri].body
                self._recursive_occurrences[ri] = tuple(
                    (i, body[i].pred_key)
                    for i in self._delta_occurrences[ri]
                    if body[i].pred_key in heads
                )
        self.flat = tuple(
            not any(self._recursive_occurrences[ri] for ri in stratum)
            for stratum in self.strata
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

def subquery_relation(pred_key: str) -> str:
    """The name of the relation holding ``pred_key``'s subqueries (the
    paper's ``Q``); no program can spell it, so it never meets a base or
    derived relation."""
    return "$q:" + pred_key


def compile_subquery_rule(rule: Rule, derived_keys: Set[str]) -> JoinPlan:
    """Compile one adorned rule for the QSQ evaluator.

    The result is the :class:`JoinPlan` of ``h :- $q:h(b), body``, where
    ``b`` are the head's bound arguments and ``$q:h`` its input relation
    (:func:`subquery_relation`): the first step reads the head's
    subqueries, and the body follows in sip order -- the order decides
    which subqueries exist, so it is never rearranged.  A derived
    literal's step is keyed on its adornment's bound positions and
    registers its keys in the literal's own input relation
    (``JoinStep.input_key``) before it probes the answer relation; a
    base literal's step is keyed like a :func:`compile_rule` step.

    Every bound position of a derived body literal must be bound by the
    head's bound arguments or an earlier literal, so that its subquery
    is ground (Section 3's adornment guarantees it); a rule where one is
    not raises :class:`UnsupportedProgramError`, and so does negation.
    """
    if rule.has_negation():
        raise UnsupportedProgramError(
            f"rule {rule}: the QSQ evaluator handles positive programs "
            "only; use method='auto' for stratified programs (it "
            "resolves to the bottom-up magic path)"
        )
    head = rule.head
    entry = Literal(subquery_relation(head.pred_key), head.bound_args())
    guarded = Rule(head, (entry,) + rule.body)
    slots: Dict[Variable, int] = {
        var: i for i, var in enumerate(guarded.variables())
    }
    bound: Set[Variable] = set()
    steps = [JoinStep(
        entry, entry.pred_key, False, False, (), (),
        *_row_ops_for(entry, slots, bound, set()),
    )]
    for literal in rule.body:
        positions, key_ops = _key_ops_for(literal, slots, bound)
        input_key = None
        if literal.pred_key in derived_keys:
            input_key = subquery_relation(literal.pred_key)
            key_of = dict(zip(positions, key_ops))
            positions = literal.bound_positions()
            for pos in positions:
                if pos not in key_of:
                    # a bound position the sip did not bind: its
                    # subquery would not be ground (never so for
                    # adorn_program output)
                    raise UnsupportedProgramError(
                        f"rule {rule}: bound position {pos} of {literal} "
                        "is bound neither by the head's bound arguments "
                        "nor by an earlier literal"
                    )
            key_ops = tuple(key_of[pos] for pos in positions)
        row_ops, store_slots = _row_ops_for(
            literal, slots, bound, set(positions)
        )
        steps.append(JoinStep(
            literal, literal.pred_key, False, False, positions,
            key_ops, row_ops, store_slots, input_key,
        ))
    return JoinPlan(
        guarded, None, tuple(range(len(steps))), tuple(steps),
        _head_ops_for(head, slots, bound),
    )


class SubqueryProgram:
    """The QSQ plans of an adorned program (one per rule, from
    :func:`compile_subquery_rule`), plus per-predicate bound-position
    tuples for the evaluator's answer-relation indexes.

    Answers what :func:`repro.datalog.engine.fixpoint` and
    :func:`repro.datalog.engine.serial_executor` ask of a
    :class:`CompiledProgram`: ``strata`` (one stratum of every plan: QSQ
    runs positive programs only), :meth:`recursive_occurrences` and
    :meth:`plan`.
    """

    __slots__ = ("program", "derived_keys", "plans", "strata",
                 "bound_positions", "_occurrences")

    def __init__(self, program: Program):
        self.program = program
        self.derived_keys = program.derived_predicates()
        self.plans = tuple(
            compile_subquery_rule(rule, self.derived_keys)
            for rule in program.rules
        )
        self.strata = (tuple(range(len(self.plans))),)
        self.bound_positions: Dict[str, Tuple[int, ...]] = {}
        for rule in program.rules:
            self.bound_positions.setdefault(
                rule.head.pred_key, rule.head.bound_positions()
            )
        self._occurrences = tuple(
            tuple(
                (i, step.pred_key)
                for i, step in enumerate(plan.steps)
                if i == 0 or step.input_key is not None
            )
            for plan in self.plans
        )

    def plan(
        self, rule_index: int, delta_index: Optional[int] = None
    ) -> JoinPlan:
        """Rule ``rule_index``'s one plan, for any ``delta_index``: the
        driver's slot windows carry the delta."""
        return self.plans[rule_index]

    def recursive_occurrences(
        self, rule_index: int
    ) -> Tuple[Tuple[int, str], ...]:
        """``(body index, relation)`` of what plan ``rule_index`` reads
        that grows while QSQ runs: its head's input relation at body
        index 0, and the answer relation of each derived step."""
        return self._occurrences[rule_index]

    def register_indexes(self, database: Database) -> None:
        """Register every plan's index positions on existing relations."""
        for plan in self.plans:
            plan.register_indexes(database)

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

    * ``"bottom-up"`` -- a :class:`CompiledProgram` (``evaluate``);
    * ``"qsq"`` -- a :class:`SubqueryProgram` (``qsq_evaluate``);
    * ``("query-shape", shape literal, sip builder, method, optimize,
      semijoin)`` -- the adorned and rewritten program of one
      query shape, or the error that rejected it
      (:func:`repro.core.pipeline.answer_query`), whose ``program`` is
      in turn the key of a ``"bottom-up"`` / ``"qsq"`` entry.

    That is what lets benchmark loops, repeated CLI queries and the
    server's cold reads stop re-rewriting and recompiling.
    Every lookup, of any kind, counts in ``hits`` / ``misses``;
    ``evaluate`` and ``qsq_evaluate`` consult the shared module-level
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
