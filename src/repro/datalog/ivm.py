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

* **Insertions** propagate through the semi-naive delta machinery: the
  added rows seed the engine's round driver
  (:func:`~repro.datalog.engine.fixpoint`), whose rounds run the
  compiled ``JoinPlan`` delta plans as columnar batches against
  ``working``.
* **Deletions** from *flat* strata (no rule reads a same-stratum head:
  the non-recursive case) use **counting**: a per-derived-row derivation
  count is maintained by exact finite differencing, one changed input
  *relation* at a time.  While relation R's delta runs, the relations
  ordered before R are in their new state and those after it in their
  old state, so every (dis)appearing body solution is counted exactly
  once.  A row is removed exactly when its count reaches zero.
* **Deletions** from recursive strata use **DRed** (delete and
  rederive): overdelete every derivation that *may* have depended on a
  deleted fact (joining old states), remove the overdeleted rows,
  rederive the ones that are still base facts or still one-step
  derivable, and feed the survivors into the insertion rounds, which
  restore any row they transitively support.
* **Negation** is handled stratum by stratum: an *addition* to a negated
  relation deletes downstream (the anti-join loses solutions) and a
  *removal* inserts downstream, with the negated relation complete --
  its stratum is strictly lower, so it has already been repaired -- by
  the time the dependent stratum runs.

One join mechanism serves all of it.  Every join is "the plan of rule
*r* seeded at body position *j*" (:meth:`MaterializedProgram._plan`), a
compiled ``JoinPlan`` run through ``execute_batch`` with the delta's ID
rows as its seed, so bindings travel as sets, the way the paper's magic
sets do, and never one row at a time:

* *Old state* is obtained by physically undoing a relation's recorded
  delta in ``working`` for as long as it is needed (O(|delta|) row
  flips, :meth:`MaterializedProgram._flip`), so plans probe the real
  indexes.  DRed's overdeletion flips every changed relation; counting
  orders the changed relations largest delta first, so the largest is
  never flipped, and flips each of the others back as its turn comes.
* *A delta under a negated literal* is the same plan compiled from the
  rule with that literal taken positive; the caller owns the sign.
* *A predicate occurring k >= 2 times in one counting rule* sits between
  its two deltas during its turn (old minus removed = new minus added)
  and runs one plan per non-empty subset of its occurrences, the further
  seeded occurrences renamed to a reserved key that :class:`_Seeded`
  resolves to the same batch.  Exact, and proportional to the delta.
* *Rederive* is, per rule of the overdeleted predicate, the plan of
  ``h :- seed(h's args), body`` seeded with the overdeleted rows:
  Section 4's magic-guarded rule with the overdeleted set as the magic
  set of the all-bound adornment.  Its output rows are the survivors;
  it enumerates each row's one-step derivations rather than stopping at
  the first, the same order of work as the overdeletion behind the row.

Maintenance runs under an optional budget meter; any abort (budget trip,
cancellation, injected fault) leaves the *source* database untouched --
only the private ``working`` copy may hold a half-applied delta, so the
program is marked ``stale`` and the next access rebuilds it cold.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from itertools import combinations, repeat
from typing import Dict, Iterable, List, Optional, Set, Tuple

from .ast import Literal, Program, Rule
from .database import Database, FactTuple, IdTuple
from .engine import (
    EvaluationStats,
    _IdDeltaBatch,
    evaluate,
    fixpoint,
    serial_executor,
)
from .planner import (
    JoinPlan,
    PlanCache,
    compile_rule,
    compiled_program_for,
)

__all__ = ["MaterializedProgram", "MaintenanceResult"]


@dataclass
class MaintenanceResult:
    """Outcome of one :meth:`MaterializedProgram.maintain` call.

    ``action`` is ``"noop"`` (no pending mutations), ``"maintained"``
    (incremental repair), or ``"rebuilt"`` (the view was stale and was
    re-evaluated cold).  ``facts_added``/``facts_removed`` count derived
    rows the repair actually changed in the materialization;
    ``strata_skipped`` counts strata whose inputs the delta never
    touched (the delta-proportionality win).  ``stats.iterations``
    counts the propagation rounds, with or without a meter.
    """

    action: str
    facts_added: int = 0
    facts_removed: int = 0
    strata_maintained: int = 0
    strata_skipped: int = 0
    elapsed: float = 0.0
    stats: EvaluationStats = field(default_factory=EvaluationStats)

    @property
    def rounds(self) -> int:
        """``stats.iterations``, under the name ``perf/layers.py`` reads."""
        return self.stats.iterations


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


#: The predicate key of the literals a seeded plan adds or renames: the
#: head-shaped seed of a rederive plan, and every seeded position after
#: the first.  No program can name it: the grammar's predicate names
#: start with a lowercase letter.
_SEED = "$seed"


class _Seeded:
    """``working`` with :data:`_SEED` resolved to the running batch.

    ``execute_batch`` only ever calls ``database.get``, so this is all a
    plan seeded at several body positions needs to read one delta at
    each of them.
    """

    __slots__ = ("working", "seed")

    def __init__(self, working: Database, seed: _IdDeltaBatch) -> None:
        self.working = working
        self.seed = seed

    def get(self, pred_key: str):
        if pred_key == _SEED:
            return self.seed
        return self.working.get(pred_key)


def _collect(
    seeds: Dict[str, List[IdTuple]], pred: str, fresh: List[IdTuple]
) -> None:
    """Append ``fresh`` rows of ``pred`` to the seeds of a round."""
    if fresh:
        seeds.setdefault(pred, []).extend(fresh)


def _tally(
    counts: Dict[IdTuple, int],
    idrows: Iterable[IdTuple],
    multiplicities: Optional[List[int]],
    sign: int,
) -> None:
    """Add ``sign`` times each row's multiplicity (None = all 1) to
    ``counts``."""
    get = counts.get
    for idrow, mult in zip(idrows, multiplicities or repeat(1)):
        counts[idrow] = get(idrow, 0) + sign * mult


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
        self.compiled, _ = compiled_program_for(program, plan_cache)
        self.rule_strata = self.compiled.strata
        self._stratum_heads = self.compiled.stratum_heads
        #: the non-recursive strata, where counting deletion applies
        self._flat = self.compiled.flat
        #: per stratum, input predicate -> ``(rule index, the body
        #: positions it occupies in that rule)`` pairs: what a delta of
        #: the predicate seeds when the stratum is maintained by counting
        self._occurrences: List[
            Dict[str, List[Tuple[int, Tuple[int, ...]]]]
        ] = []
        for stratum in self.rule_strata:
            occurrences: Dict[str, List[Tuple[int, Tuple[int, ...]]]] = {}
            for ri in stratum:
                positions: Dict[str, Tuple[int, ...]] = {}
                for j, literal in enumerate(program.rules[ri].body):
                    key = literal.pred_key
                    positions[key] = positions.get(key, ()) + (j,)
                for key, occupied in positions.items():
                    occurrences.setdefault(key, []).append((ri, occupied))
            self._occurrences.append(occurrences)
        self._rules_by_head: Dict[str, Tuple[int, ...]] = {}
        for ri, rule in enumerate(program.rules):
            key = rule.head.pred_key
            self._rules_by_head[key] = self._rules_by_head.get(key, ()) + (
                ri,
            )
        #: seeded plans compiled on demand, keyed as :meth:`_plan` is called
        self._plans: Dict[
            Tuple[int, Optional[Tuple[int, ...]]], JoinPlan
        ] = {}
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
        result = evaluate(
            program,
            database,
            plan_cache=plan_cache,
            meter=meter,
        )
        self.working = result.database
        self.stats = result.stats
        #: derivation counts for flat-stratum heads (counting deletion)
        self._counts = self._flat_counts(self.working)

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
        result = evaluate(
            self.program,
            self.base,
            plan_cache=self._plan_cache,
            meter=meter,
        )
        self.working = result.database
        for plan in self._plans.values():
            plan.register_indexes(self.working)
        del self.log[:]
        self._counts = self._flat_counts(self.working)
        self.stale = False
        self.rebuilds += 1
        elapsed = time.perf_counter() - started
        self.last_elapsed = elapsed
        self.synced_version = self.base.version
        return MaintenanceResult(
            action="rebuilt", elapsed=elapsed, stats=result.stats
        )

    # ------------------------------------------------------------------
    # derivation counts (counting deletion)
    # ------------------------------------------------------------------
    def _flat_counts(
        self, database: Database
    ) -> Dict[str, Dict[IdTuple, int]]:
        """The derivation counts of the flat-stratum heads over an
        evaluated ``database``: a row's count is its number of body
        solutions across its predicate's rules, plus one if it is also
        a base fact.  Predicates without rows are left out."""
        stats = EvaluationStats()
        counts: Dict[str, Dict[IdTuple, int]] = {}
        for s, stratum in enumerate(self.rule_strata):
            if not self._flat[s]:
                continue
            for ri in stratum:
                # execute_batch returns head ID rows (which may repeat)
                # with the number of body solutions each stands for:
                # summed per row, exactly the multiset the counts need
                rows, mults, _ = self.compiled.plan(ri).execute_batch(
                    database, stats
                )
                if rows:
                    _tally(
                        counts.setdefault(
                            self.program.rules[ri].head.pred_key, {}
                        ),
                        rows,
                        mults,
                        1,
                    )
            for pred in self._stratum_heads[s]:
                base_rel = self.base.get(pred)
                if base_rel is not None and len(base_rel):
                    _tally(
                        counts.setdefault(pred, {}),
                        base_rel.id_rows(),
                        None,
                        1,
                    )
        return counts

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

        for s, heads in enumerate(self._stratum_heads):
            ext = {
                pred: external[pred] for pred in heads if pred in external
            }
            if not ext and not self._changed_inputs(s, changed):
                result.strata_skipped += 1
                continue
            result.strata_maintained += 1
            if meter is not None:
                # a stratum boundary, numbered with the propagation
                # rounds in one sequence across the pass
                meter.check_round(
                    stats,
                    s,
                    result.strata_maintained + stats.iterations,
                    self.working,
                )
            if self._flat[s]:
                added, removed = self._maintain_flat(
                    s, changed, ext, stats, meter
                )
            else:
                added, removed = self._maintain_dred(
                    s, heads, changed, ext, stats, meter, result
                )
            result.facts_added += added
            result.facts_removed += removed
        return result

    def _changed_inputs(self, s: int, changed) -> List[str]:
        """The predicates stratum ``s`` reads whose delta is not empty."""
        return [
            pred
            for pred in self._occurrences[s]
            if pred in changed and not changed[pred].empty
        ]

    # ------------------------------------------------------------------
    # seeded plans: the one join mechanism of every phase
    # ------------------------------------------------------------------
    def _plan(
        self, ri: int, seeded: Optional[Tuple[int, ...]]
    ) -> JoinPlan:
        """The plan of rule ``ri`` seeded at body positions ``seeded``.

        The seeded literals are taken positive -- a delta under a
        negated literal runs the same join, and the caller owns its
        sign.  The first is the plan's delta occurrence; any further
        ones (one predicate occurring several times in a counting rule)
        are renamed to :data:`_SEED`, which :class:`_Seeded` resolves
        to the same batch.  ``seeded=None`` is the rederive plan
        ``h :- seed(h's args), body``: Section 4's magic-guarded rule
        with the seed as the magic set of the all-bound adornment, so
        its output is the seed rows the rule still derives.

        A single positive derived occurrence comes precompiled with the
        program; every other plan is compiled on first use and cached.
        """
        rule = self.program.rules[ri]
        if seeded is not None and len(seeded) == 1:
            literal = rule.body[seeded[0]]
            if (
                not literal.negated
                and literal.pred_key in self.derived_keys
            ):
                return self.compiled.plan(ri, seeded[0])
        plan = self._plans.get((ri, seeded))
        if plan is None:
            body = list(rule.body)
            if seeded is None:
                first = 0
                body.insert(0, Literal(_SEED, rule.head.args))
            else:
                first = seeded[0]
                body[first] = body[first].as_positive()
                for j in seeded[1:]:
                    body[j] = Literal(_SEED, body[j].args)
            plan = compile_rule(Rule(rule.head, body), first)
            plan.register_indexes(self.working)
            self._plans[(ri, seeded)] = plan
        return plan

    def _run(
        self,
        ri: int,
        seeded: Optional[Tuple[int, ...]],
        seed: _IdDeltaBatch,
        stats: EvaluationStats,
        meter,
    ) -> Tuple[List[IdTuple], Optional[List[int]], int]:
        """``execute_batch`` of :meth:`_plan` over ``working``: head ID
        rows, their multiplicities, the number of body solutions."""
        database = self.working
        if seeded is not None and len(seeded) > 1:
            database = _Seeded(database, seed)
        return self._plan(ri, seeded).execute_batch(
            database, stats, seed, meter=meter
        )

    def _flip(self, pred: str, delta: _Delta, to_old: bool) -> None:
        """Roll one relation of ``working`` to its pre-delta state (or
        back): the recorded delta is physically undone, O(|delta|) row
        flips, so the compiled plans read an old state straight from
        ``working`` rather than through a wrapper on every probe."""
        rel = self.working.relation(pred)
        gone, back = (
            (delta.added, delta.removed)
            if to_old
            else (delta.removed, delta.added)
        )
        if gone:
            rel.discard_id_rows(gone)
        if back:
            rel.add_id_rows(back)

    # ------------------------------------------------------------------
    # counting maintenance (flat strata)
    # ------------------------------------------------------------------
    def _maintain_flat(
        self, s: int, changed, ext, stats, meter
    ) -> Tuple[int, int]:
        """Exact count maintenance for a non-recursive stratum.

        Finite differencing, one changed input *relation* at a time:
        while relation R's added and removed batches run through the
        plans seeded at R's occurrences, the relations ordered before R
        are in their new state and those after it in their old state,
        so every (dis)appearing body solution is counted exactly once.
        The largest delta goes first and is never flipped.  Each plan's
        rows and multiplicities are signed count changes -- negative
        for removed rows, and once more for each negated seeded
        literal: an added fact under ``not`` *removes* solutions.

        R's own state only matters to a rule R occurs in more than
        once.  R then sits *between* its deltas (old minus removed =
        new minus added = M) and one plan runs per non-empty subset T
        of the occurrences: those in T read the batch, the others M.
        With R = M + batch on either side, the subsets partition the
        solutions that touch the batch, so the sum is exact and
        delta-proportional.

        Head rows whose count crosses zero (dis)appear.
        """
        working = self.working
        rules = self.program.rules
        occurrences = self._occurrences[s]
        order = sorted(
            self._changed_inputs(s, changed),
            key=lambda pred: len(changed[pred].added)
            + len(changed[pred].removed),
            reverse=True,
        )
        for pred in order[1:]:
            self._flip(pred, changed[pred], True)
        deltas: Dict[str, Dict[IdTuple, int]] = {}
        for turn, pred in enumerate(order):
            delta = changed[pred]
            uses = occurrences[pred]
            between = turn > 0 or any(
                [len(positions) > 1 for _, positions in uses]
            )
            if between:
                working.relation(pred).discard_id_rows(
                    delta.removed if turn else delta.added
                )
            seeds = [
                (_IdDeltaBatch(list(idrows)), sign)
                for idrows, sign in ((delta.added, 1), (delta.removed, -1))
                if idrows
            ]
            for ri, positions in uses:
                body = rules[ri].body
                head_deltas = deltas.setdefault(rules[ri].head.pred_key, {})
                for size in range(1, len(positions) + 1):
                    for seeded in combinations(positions, size):
                        negations = sum([body[j].negated for j in seeded])
                        parity = -1 if negations % 2 else 1
                        for seed, sign in seeds:
                            rows, mults, _ = self._run(
                                ri, seeded, seed, stats, meter
                            )
                            if rows:
                                _tally(head_deltas, rows, mults, sign * parity)
            if between:
                working.relation(pred).add_id_rows(delta.added)
        for pred, delta in ext.items():
            head_deltas = deltas.setdefault(pred, {})
            _tally(head_deltas, delta.added, None, 1)
            _tally(head_deltas, delta.removed, None, -1)

        added = removed = 0
        for pred, head_deltas in deltas.items():
            counts = self._counts.setdefault(pred, {})
            appear: List[IdTuple] = []
            vanish: List[IdTuple] = []
            for idrow, change in head_deltas.items():
                if not change:
                    continue
                old = counts.get(idrow, 0)
                new = old + change
                if new > 0:
                    counts[idrow] = new
                else:
                    counts.pop(idrow, None)
                if old <= 0 < new:
                    appear.append(idrow)
                elif new <= 0 < old:
                    vanish.append(idrow)
            if not (appear or vanish):
                continue
            # fetched only now: relation() clones a relation a published
            # snapshot shares, and a head nothing reaches stays shared
            rel = working.relation(pred)
            out = changed.setdefault(pred, _Delta())
            if appear:
                rel.add_id_rows(appear)
                out.added.update(appear)
                stats.record_facts(pred, len(appear))
                added += len(appear)
            if vanish:
                rel.discard_id_rows(vanish)
                out.removed.update(vanish)
                removed += len(vanish)
        return added, removed

    # ------------------------------------------------------------------
    # DRed maintenance (recursive strata)
    # ------------------------------------------------------------------
    def _repair(
        self, s, changed, dying: bool, emit, start, stats, meter, result
    ) -> None:
        """One DRed phase of stratum ``s``: run every changed body
        occurrence of its rules through its seeded plan, hand ``emit``
        the head rows, and propagate from there through the stratum's
        semi-naive rounds on the engine's round driver.

        ``dying`` picks the side of each delta under which solutions
        disappear (removed rows under a positive literal, added rows
        under a negated one) rather than the side under which they
        appear.  The dying phase installs nothing: ``start`` holds the
        emitted rows per predicate, and the rows ``emit`` returns join
        them.  The other phase installs: ``start`` holds each head's
        slot count before the phase's first install, and every row
        installed since is the delta the rounds start from.
        """
        for ri in self.rule_strata[s]:
            rule = self.program.rules[ri]
            for j, literal in enumerate(rule.body):
                delta = changed.get(literal.pred_key)
                if delta is None:
                    continue
                idrows = (
                    delta.removed
                    if dying != literal.negated
                    else delta.added
                )
                if idrows:
                    rows, _, solutions = self._run(
                        ri, (j,), _IdDeltaBatch(list(idrows)), stats, meter
                    )
                    fresh = emit(rule.head.pred_key, rows, solutions)
                    if dying:
                        _collect(start, rule.head.pred_key, fresh)
        fixpoint(
            self.compiled,
            self.working,
            stats,
            serial_executor(self.compiled, self.working, stats, meter, emit),
            meter=meter,
            stratum=s,
            seeds=start if dying else None,
            marks=None if dying else start,
            first_round=result.strata_maintained + stats.iterations,
        )

    def _maintain_dred(
        self, s, heads, changed, ext, stats, meter, result
    ) -> Tuple[int, int]:
        working = self.working
        seeds: Dict[str, List[IdTuple]] = {}

        # ---- phase 1: overdelete.  Every join reads *old* state:
        # working is flipped back to the pre-delta picture (same-stratum
        # relations are untouched until phase 2, so they are already
        # old), which lets the compiled batch delta plans collect every
        # derivation that may have used a deleted fact -- including
        # through several recursive steps.
        od: Dict[str, Set[IdTuple]] = {}

        def overdelete(pred: str, idrows, _solutions=0) -> List[IdTuple]:
            rel = working.get(pred)
            if rel is None or not idrows:
                return []
            bucket = od.get(pred, ())
            rowmap = rel._rowmap
            fresh = {
                idrow
                for idrow in idrows
                if idrow in rowmap and idrow not in bucket
            }
            if fresh:
                od.setdefault(pred, set()).update(fresh)
            return list(fresh)

        flipped = self._changed_inputs(s, changed)
        for pred in flipped:
            self._flip(pred, changed[pred], True)
        try:
            for pred, delta in ext.items():
                _collect(seeds, pred, overdelete(pred, delta.removed))
            self._repair(
                s, changed, True, overdelete, seeds, stats, meter, result
            )
        finally:
            for pred in flipped:
                self._flip(pred, changed[pred], False)

        # ---- phase 2: remove the overdeleted rows.  From here on
        # ``od`` is the net removal: a row rederived or inserted again
        # below leaves it.  Only appends follow, so every row the
        # stratum's heads gain from here lies past these slot counts
        for pred, bucket in od.items():
            working.relation(pred).discard_id_rows(bucket)
        marks = {}
        for pred in heads:
            rel = working.get(pred)
            marks[pred] = 0 if rel is None else rel.slot_count()

        added_net: Dict[str, Set[IdTuple]] = {}

        def push(pred: str, fresh: List[IdTuple]) -> List[IdTuple]:
            if not fresh:
                return fresh
            stats.record_facts(pred, len(fresh))
            out_removed = od.get(pred)
            out_added = added_net.setdefault(pred, set())
            for idrow in fresh:
                if out_removed and idrow in out_removed:
                    out_removed.discard(idrow)
                else:
                    out_added.add(idrow)
            return fresh

        def insert(pred: str, rows, solutions: int) -> List[IdTuple]:
            # the head is fetched only when there are rows to write:
            # relation() clones a relation a published snapshot shares,
            # and a head no delta reaches must stay shared
            if not rows:
                return []
            fresh = working.relation(pred).add_id_rows(rows)
            stats.duplicate_derivations += solutions - len(fresh)
            return push(pred, fresh)

        # ---- phase 3: rederive.  The overdeleted rows that are still
        # base facts survive as they are; the others seed, per rule of
        # their predicate, the plan ``h :- seed(h's args), body`` over
        # the deleted state, whose output is the rows still one-step
        # derivable.  It enumerates each such derivation rather than
        # stopping at the first -- the same order of work as the
        # overdeletion that produced the row.  Survivors are installed
        # and so seed the insertion rounds, which restore anything they
        # (or later insertions) transitively support rather than
        # repeated sweeps.
        for pred, bucket in od.items():
            base_rel = self.base.get(pred)
            base_rows = () if base_rel is None else base_rel._rowmap
            survivors = [row for row in bucket if row in base_rows]
            lost = [row for row in bucket if row not in base_rows]
            if lost:
                seed = _IdDeltaBatch(lost)
                for ri in self._rules_by_head[pred]:
                    survivors += self._run(ri, None, seed, stats, meter)[0]
            if survivors:
                push(pred, working.relation(pred).add_id_rows(survivors))

        # ---- phase 4: insertion propagation through the compiled
        # columnar delta plans (the semi-naive batch machinery)
        for pred, delta in ext.items():
            if delta.added:
                push(pred, working.relation(pred).add_id_rows(delta.added))
        self._repair(s, changed, False, insert, marks, stats, meter, result)

        added = removed = 0
        for pred in heads:
            net_removed = od.get(pred) or set()
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
        return added, removed

    # ------------------------------------------------------------------
    # diagnostics
    # ------------------------------------------------------------------
    def check_consistency(self) -> bool:
        """Compare the materialization against a cold evaluation.

        The testing oracle: recompute the program from the source
        database and verify every derived relation matches, and that the
        flat-stratum derivation counts equal the ones recomputed over
        that cold result.  Raises AssertionError on mismatch; returns
        True (pending mutations are applied first).
        """
        if self.stale or self.log:
            self.maintain()
        cold = evaluate(
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
        recount = self._flat_counts(cold.database)
        for pred in set(self._counts) | set(recount):
            assert self._counts.get(pred, {}) == recount.get(pred, {}), (
                f"derivation counts for {pred} diverged from a recount"
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
