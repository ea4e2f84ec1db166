"""Incremental view maintenance: delta-propagated materialized programs.

The Session memo makes a *repeated* query cheap, but any intersecting
mutation drops the entry and the next query pays a full cold fixpoint.
This module keeps the derived relations of a stratified program
**materialized** and repairs them in place after mutations, so the
post-mutation cost is proportional to the delta, not the database.

:class:`MaterializedProgram` compiles the program once (the same
:class:`~repro.datalog.planner.CompiledProgram` plans the semi-naive
engine uses), evaluates it once into a private ``working`` database, and
attaches a mutation log to the source database
(:meth:`Database.start_mutation_log`).  Each :meth:`maintain` call
drains the log into a net per-relation delta and repairs the strata in
order:

* **Insertions** propagate through the existing semi-naive delta
  machinery: the added rows seed an
  :class:`~repro.datalog.engine._IdDeltaBatch` and the compiled
  ``JoinPlan`` delta plans run columnar batch rounds against ``working``
  (base-relation delta occurrences, which the semi-naive engine never
  needs, are compiled on demand via
  :func:`~repro.datalog.planner.compile_rule`).
* **Deletions** from *flat* strata (no rule reads a same-stratum head:
  the non-recursive case) use **counting**: a per-derived-row derivation
  count is maintained by exact finite differencing -- for the rule body
  ``B1 .. Bn`` and a delta at position ``j``, positions before ``j``
  join the new state and positions after ``j`` the old state, so every
  (dis)appearing body solution is counted exactly once.  A row is
  removed exactly when its count reaches zero.
* **Deletions** from recursive strata use **DRed** (delete and
  rederive): overdelete every derivation that *may* have depended on a
  deleted fact (joining old states, reconstructed from the recorded
  deltas), remove the overdeleted rows, rederive the ones that are still
  base facts or still one-step derivable (bound-head derivability
  checks, not a stratum re-evaluation), and feed the survivors into the
  insertion rounds, which restore any row they transitively support.
* **Negation** is handled stratum by stratum: an *addition* to a negated
  relation deletes downstream (the anti-join loses solutions) and a
  *removal* inserts downstream, with the negated relation complete --
  its stratum is strictly lower, so it has already been repaired -- by
  the time the dependent stratum runs.

The delta-side joins the compiled plans cannot run (old-state
reconstruction, bound-head derivability) are interpreted over interned
term IDs: bindings map variables to ints, relations are probed through
their int-keyed hash indexes, and no :class:`~repro.datalog.terms.Term`
object is touched until answers are read back out.

Maintenance runs under an optional budget meter; any abort (budget trip,
cancellation, injected fault) leaves the *source* database untouched --
only the private ``working`` copy may hold a half-applied delta, so the
program is marked ``stale`` and the next access rebuilds it cold.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from itertools import repeat
from typing import Dict, Iterable, List, Optional, Set, Tuple

from .analysis import stratify_rules
from .ast import Literal, Program
from .catalog import term_catalog
from .database import Database, FactTuple, IdTuple, Relation
from .engine import EvaluationStats, _IdDeltaBatch, evaluate_seminaive
from .errors import EvaluationError
from .planner import (
    JoinPlan,
    PlanCache,
    compile_rule,
    compiled_program_for,
)
from .terms import Variable

__all__ = ["MaterializedProgram", "MaintenanceResult"]

_CATALOG = term_catalog()


@dataclass
class MaintenanceResult:
    """Outcome of one :meth:`MaterializedProgram.maintain` call.

    ``action`` is ``"noop"`` (no pending mutations), ``"maintained"``
    (incremental repair), or ``"rebuilt"`` (the view was stale and was
    re-evaluated cold).  ``facts_added``/``facts_removed`` count derived
    rows the repair actually changed in the materialization;
    ``strata_skipped`` counts strata whose inputs the delta never
    touched (the delta-proportionality win).
    """

    action: str
    facts_added: int = 0
    facts_removed: int = 0
    strata_maintained: int = 0
    strata_skipped: int = 0
    rounds: int = 0
    elapsed: float = 0.0
    stats: EvaluationStats = field(default_factory=EvaluationStats)


class _Delta:
    """Net change of one relation during a maintenance pass.

    ``added``/``removed`` are disjoint sets of ID rows: a row
    overdeleted and then rederived within a pass cancels to a net no-op
    before downstream strata see the delta.
    """

    __slots__ = ("added", "removed")

    def __init__(self) -> None:
        self.added: Set[IdTuple] = set()
        self.removed: Set[IdTuple] = set()

    @property
    def empty(self) -> bool:
        return not (self.added or self.removed)


class _LitSpec:
    """One literal lowered to ID-level ops.

    ``ops`` holds one ``(position, is_var, slot_or_id)`` triple per
    argument: constants are pre-interned to their catalog IDs, variables
    mapped to integer slots of the rule's binding list.  Everything the
    maintenance joins do with a literal -- seed matching, index probes,
    head construction, negated membership -- runs on these triples and
    plain ints; a binding is a list indexed by slot, ``None`` = unbound.
    """

    __slots__ = ("pred", "negated", "ops", "nvars")

    def __init__(
        self, literal: Literal, var_slots: Dict[Variable, int]
    ) -> None:
        self.pred = literal.pred_key
        self.negated = literal.negated
        self.nvars = len(var_slots)
        intern = _CATALOG.intern
        self.ops = tuple(
            (pos, True, var_slots[arg])
            if isinstance(arg, Variable)
            else (pos, False, intern(arg))
            for pos, arg in enumerate(literal.args)
        )

    def match(
        self, idrow: IdTuple, subst: Optional[List] = None
    ) -> Optional[List]:
        """Bind this literal against a ground ID row (seed matching)."""
        out = [None] * self.nvars if subst is None else list(subst)
        for pos, is_var, key in self.ops:
            value = idrow[pos]
            if is_var:
                bound = out[key]
                if bound is None:
                    out[key] = value
                elif bound != value:
                    return None
            elif key != value:
                return None
        return out

    def ground(self, subst: List) -> Optional[IdTuple]:
        """The literal's ID row under ``subst`` (None if not ground)."""
        row = []
        for _, is_var, key in self.ops:
            value = subst[key] if is_var else key
            if value is None:
                return None
            row.append(value)
        return tuple(row)

    def probe_parts(self, subst: List):
        """Split the args by ``subst``: (positions, key, unbound pairs).

        ``positions``/``key`` feed :meth:`Relation.lookup_ids`
        (positions arrive sorted by construction); ``unbound`` lists the
        ``(position, slot)`` pairs a matching row must bind.
        """
        positions: List[int] = []
        key: List[int] = []
        unbound: List[Tuple[int, int]] = []
        for pos, is_var, k in self.ops:
            if is_var:
                value = subst[k]
                if value is None:
                    unbound.append((pos, k))
                    continue
                positions.append(pos)
                key.append(value)
            else:
                positions.append(pos)
                key.append(k)
        return tuple(positions), tuple(key), unbound


def _rel_rows(rel: Relation, positions, key) -> List[IdTuple]:
    """ID rows of ``rel`` matching an ID key (index-probed)."""
    if not positions:
        return list(rel.id_rows())
    id_key = key[0] if len(key) == 1 else key
    cols = rel._columns
    return [
        tuple(col[slot] for col in cols)
        for slot in rel.lookup_ids(positions, id_key)
    ]


class _NewView:
    """The current state of one relation (possibly absent)."""

    __slots__ = ("rel",)

    def __init__(self, rel: Optional[Relation]) -> None:
        self.rel = rel

    def rows(
        self, positions, key, stats: EvaluationStats
    ) -> List[IdTuple]:
        rel = self.rel
        if rel is None or not len(rel):
            return []
        stats.join_probes += 1
        return _rel_rows(rel, positions, key)

    def contains(self, idrow: IdTuple) -> bool:
        rel = self.rel
        return rel is not None and rel.has_id_row(idrow)


class _OldView:
    """A relation's *pre-delta* state, reconstructed on the fly.

    The working database already holds the new state; the old state is
    (new minus added) union removed, applied per probe -- the deltas are
    small, so this costs O(|bucket| + |delta|) per probe.
    """

    __slots__ = ("rel", "delta")

    def __init__(self, rel: Optional[Relation], delta: _Delta) -> None:
        self.rel = rel
        self.delta = delta

    def rows(
        self, positions, key, stats: EvaluationStats
    ) -> List[IdTuple]:
        stats.join_probes += 1
        rel = self.rel
        delta = self.delta
        out = (
            _rel_rows(rel, positions, key)
            if rel is not None and len(rel)
            else []
        )
        if delta.added and out:
            added = delta.added
            out = [idrow for idrow in out if idrow not in added]
        for idrow in delta.removed:
            if all(idrow[p] == key[i] for i, p in enumerate(positions)):
                out.append(idrow)
        return out

    def contains(self, idrow: IdTuple) -> bool:
        delta = self.delta
        if idrow in delta.removed:
            return True
        if idrow in delta.added:
            return False
        rel = self.rel
        return rel is not None and rel.has_id_row(idrow)


def _safe_order(
    rule, skip: Optional[int], initial_bound: Iterable
) -> Tuple[int, ...]:
    """Join order over the body positions excluding ``skip``.

    Positive literals keep source order; negated literals defer until
    their variables are bound (by ``initial_bound`` -- the delta or head
    bindings -- or the positive prefix).
    """
    body = rule.body
    order: List[int] = []
    bound = set(initial_bound)
    pending = [
        i for i, lit in enumerate(body) if lit.negated and i != skip
    ]

    def flush() -> None:
        kept = []
        for i in pending:
            if all(v in bound for v in body[i].variables()):
                order.append(i)
            else:
                kept.append(i)
        pending[:] = kept

    flush()
    for i, literal in enumerate(body):
        if i == skip or literal.negated:
            continue
        order.append(i)
        bound.update(literal.variables())
        flush()
    if pending:
        raise EvaluationError(
            f"rule {rule}: no maintenance join order binds every negated "
            "variable (the rule is not safely negated)"
        )
    return tuple(order)


class MaterializedProgram:
    """A stratified program kept materialized against a live database.

    Construction evaluates the program once (compiled semi-naive) into a
    private ``working`` database and attaches a mutation log to the
    source ``database``; :meth:`maintain` then repairs ``working`` in
    place from the logged net delta.  The source database is never
    mutated by maintenance -- an aborted pass can only leave the private
    copy inconsistent, in which case the program marks itself ``stale``
    and the next :meth:`maintain`/:meth:`rebuild` re-evaluates cold.
    """

    def __init__(
        self,
        program: Program,
        database: Database,
        plan_cache: Optional[PlanCache] = None,
        meter=None,
    ):
        self.program = program
        self.base = database
        self._plan_cache = plan_cache
        self.derived_keys = program.derived_predicates()
        self.predicate_stratum, self.rule_strata = stratify_rules(program)
        self.compiled, _ = compiled_program_for(program, plan_cache)
        #: per-rule ID-level literal specs: (head_spec, body_specs);
        #: each rule's variables map to slots of one binding list
        self._specs: List[Tuple[_LitSpec, Tuple[_LitSpec, ...]]] = []
        for rule in program.rules:
            var_slots: Dict[Variable, int] = {}
            for literal in (rule.head, *rule.body):
                for var in literal.variables():
                    if var not in var_slots:
                        var_slots[var] = len(var_slots)
            self._specs.append(
                (
                    _LitSpec(rule.head, var_slots),
                    tuple(
                        _LitSpec(lit, var_slots) for lit in rule.body
                    ),
                )
            )
        #: per-stratum head predicates and body inputs
        self._stratum_heads: List[frozenset] = []
        self._stratum_inputs: List[frozenset] = []
        #: True for strata no rule of which reads a same-stratum head
        #: (the non-recursive case: counting deletion applies)
        self._flat: List[bool] = []
        for stratum in self.rule_strata:
            heads = frozenset(
                program.rules[ri].head.pred_key for ri in stratum
            )
            inputs = frozenset(
                lit.pred_key
                for ri in stratum
                for lit in program.rules[ri].body
            )
            self._stratum_heads.append(heads)
            self._stratum_inputs.append(inputs)
            self._flat.append(not (heads & inputs))
        self._rules_by_head: Dict[str, Tuple[int, ...]] = {}
        for ri, rule in enumerate(program.rules):
            key = rule.head.pred_key
            self._rules_by_head[key] = self._rules_by_head.get(key, ()) + (
                ri,
            )
        #: join orders for the interpreted delta joins, keyed by
        #: (rule_index, delta position or None-for-derivability)
        self._orders: Dict[Tuple[int, Optional[int]], Tuple[int, ...]] = {}
        #: delta plans for base-relation occurrences (the semi-naive
        #: engine never compiles those; insertion propagation needs them)
        self._extra_plans: Dict[Tuple[int, int], JoinPlan] = {}
        #: per-stratum view cache for the interpreted joins
        self._views: Dict[Tuple[str, bool], object] = {}
        #: per-head-predicate (head_spec, body_specs, order, n) rows for
        #: the rederive derivability walk
        self._derive_cache: Dict[str, list] = {}
        #: derivation counts for flat-stratum heads (counting deletion);
        #: a row's count is its number of body solutions across the
        #: stratum's rules, plus one if it is also a base fact
        self._counts: Dict[str, Dict[IdTuple, int]] = {}

        self.stale = False
        self.passes = 0
        self.rebuilds = 0
        self.last_elapsed = 0.0
        self.synced_version = database.version
        #: capture starts *before* the initial evaluation: the
        #: evaluation works on a snapshot (whose own log tuple is empty,
        #: so nothing internal is captured), and no mutation can slip
        #: between log start and materialization
        self.log = database.start_mutation_log()
        result = evaluate_seminaive(
            program,
            database,
            plan_cache=plan_cache,
            meter=meter,
        )
        self.working = result.database
        self.stats = result.stats
        self._init_counts()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @property
    def pending(self) -> bool:
        """True when mutations are logged but not yet applied."""
        return bool(self.log)

    @property
    def fresh(self) -> bool:
        """True when ``working`` reflects the database exactly."""
        return not self.stale and not self.log

    def close(self) -> None:
        """Detach the mutation log from the source database."""
        self.base.stop_mutation_log(self.log)

    def tuples(self, pred_key: str) -> Set[FactTuple]:
        """The materialized tuples of one predicate."""
        return self.working.tuples(pred_key)

    # ------------------------------------------------------------------
    # maintenance driver
    # ------------------------------------------------------------------
    def maintain(self, meter=None) -> MaintenanceResult:
        """Bring ``working`` up to date with the logged mutations.

        Incremental when possible; a stale program (previous pass
        aborted) rebuilds cold instead.  Any exception out of the
        incremental path (budget trip, cancellation, injected fault)
        marks the program stale before propagating -- the source
        database is untouched either way.
        """
        if self.stale:
            return self.rebuild(meter)
        started = time.perf_counter()
        if not self.log:
            return MaintenanceResult(
                action="noop", elapsed=time.perf_counter() - started
            )
        try:
            result = self._maintain_inner(meter)
        except BaseException:
            # the working copy may hold a half-applied delta; poison it
            # (the log is moot -- a rebuild reads the source database)
            self.stale = True
            del self.log[:]
            raise
        self.passes += 1
        result.elapsed = time.perf_counter() - started
        self.last_elapsed = result.elapsed
        self.synced_version = self.base.version
        return result

    def rebuild(self, meter=None) -> MaintenanceResult:
        """Re-evaluate the program cold and swap the result in.

        On failure (e.g. the meter trips mid-evaluation) the current
        state -- working copy, counts, log, staleness -- is untouched,
        so a later retry still sees a consistent picture.
        """
        started = time.perf_counter()
        result = evaluate_seminaive(
            self.program,
            self.base,
            plan_cache=self._plan_cache,
            meter=meter,
        )
        self.working = result.database
        for plan in self._extra_plans.values():
            plan.register_indexes(self.working)
        del self.log[:]
        self._counts = {}
        self._init_counts()
        self.stale = False
        self.rebuilds += 1
        elapsed = time.perf_counter() - started
        self.last_elapsed = elapsed
        self.synced_version = self.base.version
        return MaintenanceResult(
            action="rebuilt", elapsed=elapsed, stats=result.stats
        )

    # ------------------------------------------------------------------
    # initial derivation counts (counting deletion)
    # ------------------------------------------------------------------
    def _init_counts(self) -> None:
        stats = EvaluationStats()
        for s, stratum in enumerate(self.rule_strata):
            if not self._flat[s]:
                continue
            for ri in stratum:
                rule = self.program.rules[ri]
                # execute_batch returns head ID rows (which may repeat)
                # with the number of body solutions each stands for:
                # summed per row, exactly the multiset the counts need
                rows, mults, _ = self.compiled.plan(ri).execute_batch(
                    self.working, stats
                )
                counts = self._counts.setdefault(rule.head.pred_key, {})
                for idrow, mult in zip(rows, mults or repeat(1)):
                    counts[idrow] = counts.get(idrow, 0) + mult
            for pred in self._stratum_heads[s]:
                base_rel = self.base.get(pred)
                if base_rel is not None and len(base_rel):
                    counts = self._counts.setdefault(pred, {})
                    for idrow in base_rel.id_rows():
                        counts[idrow] = counts.get(idrow, 0) + 1

    # ------------------------------------------------------------------
    # the incremental pass
    # ------------------------------------------------------------------
    def _maintain_inner(self, meter) -> MaintenanceResult:
        result = MaintenanceResult(action="maintained")
        stats = result.stats
        # net delta per (pred, idrow): capture only logs actual set
        # changes, so entries for one row alternate sign and the net is
        # always -1, 0, or +1
        net: Dict[Tuple[str, IdTuple], int] = {}
        for pred, idrow, sign in self.log:
            key = (pred, idrow)
            net[key] = net.get(key, 0) + sign
        del self.log[:]

        changed: Dict[str, _Delta] = {}
        external: Dict[str, _Delta] = {}
        for (pred, idrow), sign in net.items():
            if not sign:
                continue
            # asserted/retracted facts under *derived* names are
            # external support, routed through the predicate's stratum;
            # base-relation deltas apply to working directly
            target = external if pred in self.derived_keys else changed
            delta = target.get(pred)
            if delta is None:
                delta = target[pred] = _Delta()
            if sign > 0:
                delta.added.add(idrow)
            else:
                delta.removed.add(idrow)

        for pred, delta in changed.items():
            rel = self.working.relation(pred)
            if delta.added:
                rel.add_id_rows(delta.added)
            if delta.removed:
                rel.discard_id_rows(delta.removed)

        for s, stratum in enumerate(self.rule_strata):
            heads = self._stratum_heads[s]
            ext = {
                pred: external[pred] for pred in heads if pred in external
            }
            inputs_changed = any(
                pred in changed and not changed[pred].empty
                for pred in self._stratum_inputs[s]
            )
            if not ext and not inputs_changed:
                result.strata_skipped += 1
                continue
            result.strata_maintained += 1
            self._views.clear()
            if meter is not None:
                result.rounds += 1
                meter.check_round(
                    stats.facts_derived,
                    stats.tuples_scanned,
                    s,
                    result.rounds,
                    self.working,
                )
            if self._flat[s]:
                added, removed = self._maintain_flat(
                    stratum, changed, ext, stats, meter
                )
            else:
                added, removed, rounds = self._maintain_dred(
                    s, stratum, heads, changed, ext, stats, meter, result
                )
                result.rounds += rounds
            result.facts_added += added
            result.facts_removed += removed
        return result

    # ------------------------------------------------------------------
    # interpreted ID-level delta joins
    # ------------------------------------------------------------------
    def _order(self, ri: int, skip: Optional[int]) -> Tuple[int, ...]:
        key = (ri, skip)
        order = self._orders.get(key)
        if order is None:
            rule = self.program.rules[ri]
            initial = (
                rule.head.variables()
                if skip is None
                else rule.body[skip].variables()
            )
            order = self._orders[key] = _safe_order(rule, skip, initial)
        return order

    def _view_of(self, pred: str, changed, old: bool):
        key = (pred, old)
        view = self._views.get(key)
        if view is not None:
            return view
        rel = self.working.get(pred)
        if old and changed is not None:
            delta = changed.get(pred)
            if delta is not None and not delta.empty:
                view = _OldView(rel, delta)
            else:
                view = _NewView(rel)
        else:
            view = _NewView(rel)
        if rel is not None:
            # a missing relation may spring into existence mid-stratum
            # (first derived row of a predicate); don't cache absence
            self._views[key] = view
        return view

    def _delta_solutions(
        self,
        ri: int,
        skip: Optional[int],
        subst: List,
        changed: Optional[Dict[str, _Delta]],
        stats: EvaluationStats,
        discipline: str,
    ):
        """Complete a body match with position ``skip`` pre-bound.

        ``discipline`` picks the state each remaining position reads:
        ``"counting"`` (positions before the delta read the new state,
        positions after it the old -- the exact finite-differencing
        rule) or ``"new"`` (insertion and derivability).  Negated
        positions become membership checks against the same state.
        Bindings are slot lists of term IDs.
        """
        specs = self._specs[ri][1]
        order = self._order(ri, skip)
        n = len(order)
        counting = discipline == "counting"

        def extend(pos: int, subst: List):
            if pos == n:
                yield subst
                return
            k = order[pos]
            spec = specs[k]
            view = self._view_of(
                spec.pred, changed, counting and k > skip
            )
            if spec.negated:
                idrow = spec.ground(subst)
                if idrow is None or not view.contains(idrow):
                    yield from extend(pos + 1, subst)
                return
            positions, key, unbound = spec.probe_parts(subst)
            if not unbound:
                # fully bound: membership, not enumeration
                stats.join_probes += 1
                if view.contains(tuple(key)):
                    yield from extend(pos + 1, subst)
                return
            for idrow in view.rows(positions, key, stats):
                stats.tuples_scanned += 1
                out = list(subst)
                for p, slot in unbound:
                    value = idrow[p]
                    bound = out[slot]
                    if bound is None:
                        out[slot] = value
                    elif bound != value:
                        out = None
                        break
                if out is not None:
                    yield from extend(pos + 1, out)

        yield from extend(0, subst)

    def _derivable(
        self, pred: str, idrow: IdTuple, stats: EvaluationStats
    ) -> bool:
        """Does any rule derive ``idrow`` one-step from current state?

        The rederive inner loop: same join as :meth:`_delta_solutions`
        with the head pre-bound and all-new views, but returning on the
        first solution without generator machinery.
        """
        working = self.working
        for head_spec, specs, order, n in self._derive_info(pred):
            subst = head_spec.match(idrow)
            if subst is not None and self._derive_rec(
                specs, order, n, 0, subst, working, stats
            ):
                return True
        return False

    def _derive_info(self, pred: str):
        info = self._derive_cache.get(pred)
        if info is None:
            info = [
                (
                    self._specs[ri][0],
                    self._specs[ri][1],
                    self._order(ri, None),
                    len(self._specs[ri][1]),
                )
                for ri in self._rules_by_head.get(pred, ())
            ]
            self._derive_cache[pred] = info
        return info

    def _derive_rec(
        self, specs, order, n, pos, subst, working, stats
    ) -> bool:
        if pos == n:
            return True
        spec = specs[order[pos]]
        rel = working.get(spec.pred)
        if spec.negated:
            if rel is not None and rel.has_id_row(spec.ground(subst)):
                return False
            return self._derive_rec(
                specs, order, n, pos + 1, subst, working, stats
            )
        if rel is None:
            return False
        positions, key, unbound = spec.probe_parts(subst)
        if not unbound:
            stats.join_probes += 1
            return rel.has_id_row(tuple(key)) and self._derive_rec(
                specs, order, n, pos + 1, subst, working, stats
            )
        for row in _rel_rows(rel, positions, key):
            stats.tuples_scanned += 1
            out = list(subst)
            for p, slot in unbound:
                value = row[p]
                bound = out[slot]
                if bound is None:
                    out[slot] = value
                elif bound != value:
                    out = None
                    break
            if out is not None and self._derive_rec(
                specs, order, n, pos + 1, out, working, stats
            ):
                return True
        return False

    # ------------------------------------------------------------------
    # counting maintenance (flat strata)
    # ------------------------------------------------------------------
    def _maintain_flat(
        self, stratum, changed, ext, stats, meter
    ) -> Tuple[int, int]:
        """Exact count maintenance for a non-recursive stratum.

        For every rule and every body position whose relation changed,
        the signed delta solutions adjust the head row's derivation
        count; rows cross zero exactly when they (dis)appear.  Negated
        positions flip the sign: an added fact under a negated literal
        *removes* solutions, a removed one adds them.
        """
        program = self.program
        deltas: Dict[str, Dict[IdTuple, int]] = {}
        for ri in stratum:
            rule = program.rules[ri]
            head_spec, body_specs = self._specs[ri]
            for j, literal in enumerate(rule.body):
                delta = changed.get(literal.pred_key)
                if delta is None or delta.empty:
                    continue
                if meter is not None:
                    meter.check_batch(
                        stats.facts_derived, stats.tuples_scanned
                    )
                spec = body_specs[j]
                if literal.negated:
                    pairs = ((delta.added, -1), (delta.removed, 1))
                else:
                    pairs = ((delta.added, 1), (delta.removed, -1))
                head_deltas = deltas.setdefault(rule.head.pred_key, {})
                for idrows, sign in pairs:
                    for idrow in idrows:
                        subst = spec.match(idrow)
                        if subst is None:
                            continue
                        for final in self._delta_solutions(
                            ri, j, subst, changed, stats, "counting"
                        ):
                            stats.rule_firings += 1
                            hid = head_spec.ground(final)
                            head_deltas[hid] = (
                                head_deltas.get(hid, 0) + sign
                            )
        for pred, delta in ext.items():
            head_deltas = deltas.setdefault(pred, {})
            for idrow in delta.added:
                head_deltas[idrow] = head_deltas.get(idrow, 0) + 1
            for idrow in delta.removed:
                head_deltas[idrow] = head_deltas.get(idrow, 0) - 1

        added = removed = 0
        for pred, head_deltas in deltas.items():
            counts = self._counts.setdefault(pred, {})
            rel = self.working.relation(pred)
            out = changed.get(pred)
            if out is None:
                out = changed[pred] = _Delta()
            for idrow, dc in head_deltas.items():
                if not dc:
                    continue
                old = counts.get(idrow, 0)
                new = old + dc
                if new > 0:
                    counts[idrow] = new
                else:
                    counts.pop(idrow, None)
                if old <= 0 < new:
                    rel.add_id_row(idrow)
                    out.added.add(idrow)
                    stats.record_facts(pred, 1)
                    added += 1
                elif new <= 0 < old:
                    rel.discard_id_row(idrow)
                    out.removed.add(idrow)
                    removed += 1
        return added, removed

    # ------------------------------------------------------------------
    # DRed maintenance (recursive strata)
    # ------------------------------------------------------------------
    def _insert_plan(self, ri: int, j: int) -> JoinPlan:
        """The delta plan for body position ``j`` of rule ``ri``.

        Derived occurrences come precompiled with the program; base
        occurrences (which semi-naive evaluation never deltas) are
        compiled on first use and cached.
        """
        literal = self.program.rules[ri].body[j]
        if literal.pred_key in self.derived_keys:
            return self.compiled.plan(ri, j)
        plan = self._extra_plans.get((ri, j))
        if plan is None:
            plan = compile_rule(self.program.rules[ri], j)
            plan.register_indexes(self.working)
            self._extra_plans[(ri, j)] = plan
        return plan

    def _flip(self, changed: Dict[str, _Delta], to_old: bool) -> None:
        """Roll ``working`` to the pre-delta state of every changed
        relation (or back).

        Overdeletion must join *old* states everywhere.  Rather than
        wrapping every probe, the recorded deltas are physically undone
        for the duration of phase 1 -- O(|delta|) row flips each way --
        so the compiled batch plans can run against ``working``
        directly.  Same-stratum relations are untouched until phase 2,
        hence already old.
        """
        for pred, delta in changed.items():
            if delta.empty:
                continue
            rel = self.working.relation(pred)
            if to_old:
                if delta.added:
                    rel.discard_id_rows(delta.added)
                if delta.removed:
                    rel.add_id_rows(delta.removed)
            else:
                if delta.removed:
                    rel.discard_id_rows(delta.removed)
                if delta.added:
                    rel.add_id_rows(delta.added)

    def _maintain_dred(
        self, s, stratum, heads, changed, ext, stats, meter, result
    ) -> Tuple[int, int, int]:
        program = self.program
        working = self.working
        rounds = 0

        # ---- phase 1: overdelete.  Every join reads *old* state:
        # working is flipped back to the pre-delta picture (same-stratum
        # relations are untouched until phase 2, so they are already
        # old), which lets the compiled batch delta plans collect every
        # derivation that may have used a deleted fact -- including
        # through several recursive steps.
        od: Dict[str, Set[IdTuple]] = {}
        batches: Dict[str, _IdDeltaBatch] = {}

        def od_push(pred: str, idrows) -> None:
            bucket = od.setdefault(pred, set())
            rel = working.get(pred)
            if rel is None:
                return
            has = rel.has_id_row
            fresh = []
            for idrow in idrows:
                if idrow not in bucket and has(idrow):
                    bucket.add(idrow)
                    fresh.append(idrow)
            if not fresh:
                return
            batch = batches.get(pred)
            if batch is None:
                batch = batches[pred] = _IdDeltaBatch()
            batch.extend(fresh)

        self._flip(changed, True)
        self._views.clear()
        try:
            for pred, delta in ext.items():
                od_push(pred, delta.removed)

            for ri in stratum:
                rule = program.rules[ri]
                head_spec, body_specs = self._specs[ri]
                relation_name = head_spec.pred
                for j, literal in enumerate(rule.body):
                    delta = changed.get(literal.pred_key)
                    if delta is None:
                        continue
                    if meter is not None:
                        meter.check_batch(
                            stats.facts_derived, stats.tuples_scanned
                        )
                    if literal.negated:
                        # an *addition* under a negated literal kills
                        # solutions; interpreted join against the
                        # flipped (old) state
                        if not delta.added:
                            continue
                        spec = body_specs[j]
                        produced = []
                        for idrow in delta.added:
                            subst = spec.match(idrow)
                            if subst is None:
                                continue
                            for final in self._delta_solutions(
                                ri, j, subst, changed, stats, "new"
                            ):
                                produced.append(head_spec.ground(final))
                        od_push(relation_name, produced)
                        continue
                    if not delta.removed:
                        continue
                    seed = _IdDeltaBatch()
                    seed.extend(list(delta.removed))
                    rows, _, _ = self._insert_plan(ri, j).execute_batch(
                        working, stats, seed, meter=meter
                    )
                    od_push(relation_name, rows)

            while batches:
                rounds += 1
                if meter is not None:
                    meter.check_round(
                        stats.facts_derived,
                        stats.tuples_scanned,
                        s,
                        result.rounds + rounds,
                        working,
                    )
                previous, batches = batches, {}
                for ri in stratum:
                    rule = program.rules[ri]
                    head_key = rule.head.pred_key
                    for j in self.compiled.delta_occurrences(ri):
                        batch = previous.get(rule.body[j].pred_key)
                        if batch is None:
                            continue
                        rows, _, _ = self.compiled.plan(ri, j).execute_batch(
                            working, stats, batch, meter=meter
                        )
                        od_push(head_key, rows)
        finally:
            self._flip(changed, False)
            self._views.clear()

        # ---- phase 2: remove the overdeleted rows
        for pred, bucket in od.items():
            working.relation(pred).discard_id_rows(bucket)

        removed_final: Dict[str, Set[IdTuple]] = {
            pred: set(bucket) for pred, bucket in od.items()
        }
        added_net: Dict[str, Set[IdTuple]] = {}

        def record_fresh(pred: str, fresh) -> None:
            stats.record_facts(pred, len(fresh))
            out_removed = removed_final.get(pred)
            out_added = added_net.setdefault(pred, set())
            for idrow in fresh:
                if out_removed and idrow in out_removed:
                    out_removed.discard(idrow)
                else:
                    out_added.add(idrow)

        batches: Dict[str, _IdDeltaBatch] = {}

        def push(pred: str, fresh) -> None:
            if not fresh:
                return
            record_fresh(pred, fresh)
            batch = batches.get(pred)
            if batch is None:
                batch = batches[pred] = _IdDeltaBatch()
            batch.extend(fresh)

        # ---- phase 3: rederive.  One sweep of bound-head one-step
        # derivability checks against the deleted state; survivors are
        # pushed into the insertion batches, so anything they (or later
        # insertions) transitively support is restored by the compiled
        # rounds below rather than by repeated sweeps.
        self._views.clear()
        for pred, bucket in od.items():
            if meter is not None:
                meter.check_batch(
                    stats.facts_derived, stats.tuples_scanned
                )
            rel = working.relation(pred)
            base_rel = self.base.get(pred)
            survivors = []
            for idrow in bucket:
                if (
                    base_rel is not None and base_rel.has_id_row(idrow)
                ) or self._derivable(pred, idrow, stats):
                    survivors.append(idrow)
            if survivors:
                for idrow in survivors:
                    rel.add_id_row(idrow)
                push(pred, survivors)

        # ---- phase 4: insertion propagation through the compiled
        # columnar delta plans (the semi-naive batch machinery)
        for pred, delta in ext.items():
            rel = working.relation(pred)
            fresh = [
                idrow for idrow in delta.added if rel.add_id_row(idrow)
            ]
            push(pred, fresh)

        for ri in stratum:
            rule = program.rules[ri]
            head_spec, body_specs = self._specs[ri]
            for j, literal in enumerate(rule.body):
                delta = changed.get(literal.pred_key)
                if delta is None:
                    continue
                if meter is not None:
                    meter.check_batch(
                        stats.facts_derived, stats.tuples_scanned
                    )
                # fetched per delta, not per rule: relation() clones a
                # relation a published snapshot shares, and a head no
                # delta reaches must stay shared
                relation = working.relation(head_spec.pred)
                if literal.negated:
                    # a removal under a negated literal enables
                    # solutions; interpreted join, everything-new
                    if not delta.removed:
                        continue
                    spec = body_specs[j]
                    produced: List[IdTuple] = []
                    for idrow in delta.removed:
                        subst = spec.match(idrow)
                        if subst is None:
                            continue
                        for final in self._delta_solutions(
                            ri, j, subst, changed, stats, "new"
                        ):
                            stats.rule_firings += 1
                            produced.append(head_spec.ground(final))
                    if produced:
                        fresh = relation.add_id_rows(produced)
                        stats.duplicate_derivations += len(produced) - len(
                            fresh
                        )
                        push(head_spec.pred, fresh)
                    continue
                if not delta.added:
                    continue
                seed = _IdDeltaBatch()
                seed.extend(list(delta.added))
                rows, _, solutions = self._insert_plan(ri, j).execute_batch(
                    working, stats, seed, meter=meter
                )
                if rows:
                    fresh = relation.add_id_rows(rows)
                    stats.duplicate_derivations += solutions - len(fresh)
                    push(head_spec.pred, fresh)

        while batches:
            rounds += 1
            if meter is not None:
                meter.check_round(
                    stats.facts_derived,
                    stats.tuples_scanned,
                    s,
                    result.rounds + rounds,
                    working,
                )
            previous_batches, batches = batches, {}
            for ri in stratum:
                rule = program.rules[ri]
                head_key = rule.head.pred_key
                for j in self.compiled.delta_occurrences(ri):
                    batch = previous_batches.get(rule.body[j].pred_key)
                    if batch is None:
                        continue
                    rows, _, solutions = self.compiled.plan(
                        ri, j
                    ).execute_batch(working, stats, batch, meter=meter)
                    if not rows:
                        continue
                    fresh = working.relation(head_key).add_id_rows(rows)
                    stats.duplicate_derivations += solutions - len(fresh)
                    if fresh:
                        record_fresh(head_key, fresh)
                        nxt = batches.get(head_key)
                        if nxt is None:
                            nxt = batches[head_key] = _IdDeltaBatch()
                        nxt.extend(fresh)

        added = removed = 0
        for pred in heads:
            net_removed = removed_final.get(pred) or set()
            net_added = added_net.get(pred) or set()
            if not net_removed and not net_added:
                continue
            out = changed.get(pred)
            if out is None:
                out = changed[pred] = _Delta()
            out.added |= net_added
            out.removed |= net_removed
            added += len(net_added)
            removed += len(net_removed)
        return added, removed, rounds

    # ------------------------------------------------------------------
    # diagnostics
    # ------------------------------------------------------------------
    def check_consistency(self) -> bool:
        """Compare the materialization against a cold evaluation.

        The testing oracle: recompute the program from the source
        database and verify every derived relation matches, and that the
        flat-stratum counts agree with membership.  Raises AssertionError
        on mismatch; returns True (pending mutations are applied first).
        """
        if self.stale or self.log:
            self.maintain()
        cold = evaluate_seminaive(
            self.program, self.base, plan_cache=self._plan_cache
        )
        for pred in self.derived_keys:
            expected = cold.database.tuples(pred)
            actual = self.working.tuples(pred)
            assert actual == expected, (
                f"materialized {pred} diverged: "
                f"{len(actual)} rows vs {len(expected)} cold "
                f"(missing={sorted(map(str, expected - actual))[:5]}, "
                f"extra={sorted(map(str, actual - expected))[:5]})"
            )
        for pred, counts in self._counts.items():
            rel = self.working.get(pred)
            members = set(rel.id_rows()) if rel is not None else set()
            assert set(counts) == members, (
                f"derivation counts for {pred} diverged from membership"
            )
            assert all(c > 0 for c in counts.values()), (
                f"non-positive derivation count recorded for {pred}"
            )
        return True

    def __repr__(self):
        state = (
            "stale"
            if self.stale
            else ("pending" if self.log else "fresh")
        )
        return (
            f"MaterializedProgram({len(self.program.rules)} rules, "
            f"{len(self.rule_strata)} strata, {state}, "
            f"passes={self.passes}, rebuilds={self.rebuilds})"
        )
