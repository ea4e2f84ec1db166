"""Extensional/intensional fact storage: columnar, ID-interned relations.

Columnar layout
---------------

A :class:`Relation` no longer stores Python tuples of
:class:`~repro.datalog.terms.Term`.  Ground terms are interned once into
dense integer IDs by the process-wide
:class:`~repro.datalog.catalog.TermCatalog`, and a relation is stored
column-oriented: one ``array('q')`` of term IDs per argument position,
indexed by *row slot*.  Alongside the columns live

* ``_rowmap`` -- dict mapping each live ID-row (tuple of ints) to its
  slot; this is the dedup set, the membership test, and the anti-join
  probe in one structure;
* ``_live`` -- a bytearray of liveness flags (retraction tombstones a
  slot in O(1) instead of splicing every index bucket);
* hash indexes -- ``dict[int-key, array('q') of slots]`` keyed by the
  projection of the ID-row on a sorted tuple of positions (a bare int,
  not a 1-tuple, for single-position indexes).  Buckets are pruned of
  tombstoned slots lazily at probe time, and the whole relation is
  compacted when dead slots outnumber live ones, so retraction stays
  O(1) expected.

The row-view boundary
---------------------

A relation holds each row once, as IDs.  The row-level API
(``__iter__``, ``__contains__``, :meth:`Relation.select`,
``add``/``add_many``/``discard``/...) is a thin boundary over that
store: ``add``/``add_many`` intern their rows and insert them through
:meth:`Relation.add_id_rows`, ``discard``/``discard_many`` look their
IDs up and retract them through :meth:`Relation.discard_id_rows` (the
one insert path and the one retract path), and ``__iter__`` /
``select`` resolve IDs back to canonical ``Term`` objects on every
call -- nothing is cached.  The batch join executor
(:mod:`repro.datalog.planner`) and QSQ work on ID batches directly via
``lookup_ids``/``window_rows``/``add_id_rows``/``id_rows``;
evaluation results are resolved back to terms only when answers are
materialized: in :meth:`Relation.select` for every answer (through
:meth:`Database.answers` on the evaluation's database for the
baselines and QSQ, ``extract_answers`` for the rewrites, view reads in
the session and the server), which resolves only the distinct answer
rows, so a read costs its answer and not the relation; derivation and
provenance reconstruction resolve their own rows.

Index ownership
---------------

Indexes are a cache owned by the relation: an index on a position set
is built on first request by *any* reader (the bottom-up planner's
``register_indexes``, QSQ's, incremental maintenance, answer selection
through :meth:`Relation.select`, or any other lazy
:meth:`Relation.lookup_ids` probe), kept current by every write,
shared by every snapshot that shares the relation, and carried over by
:meth:`Relation.copy`: the index dicts are copied, their buckets are
shared by both sides until one of them appends to a bucket, which
copies that bucket first (see "Copy-on-write snapshots").  Building an
index never changes a relation's facts or version, so a reader may
register one on a relation it only reads (a materialized view thereby
keeps the index for each query shape it has served).  Never
full-width: a key that covers every column is the ID row itself, so
``lookup_ids`` answers it with one ``_rowmap`` probe, ``probe_index``
and ``register_index`` build nothing for it, and ``check_invariants``
rejects such an index.  Nothing evicts the others: a relation carries
at most one index per distinct proper position set the plans and
queries probe (bounded by 2^arity, in practice one or two), and
:meth:`Relation.estimated_bytes` charges each to the memory budget.

Copy-on-write snapshots
-----------------------

:meth:`Database.snapshot` produces a relation-sharing view of the
database in O(#relations): the snapshot's relation dict references the
*same* :class:`Relation` objects and registers the snapshot, weakly,
as a *holder* of each.  A relation is mutated in place only by the
database that owns it (the one that created or cloned it) and only
while it has no live holder; otherwise the first mutation **through
the database's methods** (``relation()``, ``retract_fact``, ...)
hands the mutating side another version of it first (a clone, or a
recycled spare: below), so no other side ever observes the change.
Every evaluation runs on such a snapshot
(``evaluate``, ``seeded_database``): base
relations are shared, never copied, and only seed and derived
relations are created in it.  Maintained views are published to the
query server the same way (``Session.materialized_relations`` is a
snapshot of the materializer's derived relations), so the next
maintenance pass hands off only the views it touches.

What a handoff costs.  An owned relation handed off keeps the version
it was split from as its *spare*, and from then on journals every
batch :meth:`Relation.add_id_rows` and :meth:`Relation.discard_id_rows`
apply to it.  At the next handoff, if no snapshot holds the spare any
more, the database replays the journal onto the spare and hands that
out instead of a clone: the two versions trade places, as in
Left-Right (Ramalhete & Correia, 2015).  That is the query server's
steady state -- the writer's pass writes the version the current
snapshot holds, and the version before it was released when that
snapshot was published -- so a served write costs its delta, not a
clone of every relation it touches (``serve-mixed`` ``write_p50_s``
6.3 -> 5.2 ms, CPython 3.11, 2-vCPU x86 host).  While the spare is
still held (a pinned reader) the handoff clones, and the clone keeps
the held relation as its spare; a borrowed relation (one a snapshot
writes that another database owns) is cloned and keeps no spare.  Once a journal holds more rows than its relation has live
rows, the spare and the journal go: a clone is cheaper by then, and a
relation handed off once would otherwise journal forever.  The price
is memory: a spare stays alive between handoffs (+1.7 % peak RSS on
``serve-mixed``).

What a clone costs: :meth:`Relation.copy` copies the columns, the
liveness flags, the rowmap and each index's dict (C level, O(rows);
no ``Term`` is touched) but no bucket -- a write copies exactly the
buckets it appends to, so in index storage a published version costs
its delta.  The dicts are cloned with ``dict.copy()``, not the
``dict`` constructor: once a dict has lost a key -- every rowmap a
retraction or maintenance pass has touched -- CPython 3.9-3.12 builds
``dict(d)`` by re-inserting every entry, while ``d.copy()`` copies the
hash table as one block as long as deleted entries are at most a third
of it.  On ``serve-mixed``'s data (CPython 3.11, 2-vCPU x86 host) that
is 61 us instead of 449 us for ``component``'s rowmap (8,194 rows) and
57 us instead of 254 us for ``clean``'s (7,007 rows); a whole clone of
either is ~95 us.  The clone keeps the source's table
size, deleted entries included, so it can hold a little more memory
than a rebuilt dict would.  Weighed and not taken: immutable tuple
buckets (O(bucket) per append; a one-constant magic seed keeps all of
``anc^bf`` in one bucket: quadratic); owned-key sets per index
(per-key state the slot watermark of :meth:`Relation.copy` makes
unnecessary); row-versioned MVCC (a second read path under
``probe_index``); publishing only the requested views (a served
workload's hot reads would turn cold); replaying a journal's *net*
delta, and compacting tombstones when a clone is made.  Both renumber
slots, and a handoff can happen in the middle of a pass, after
semi-naive windows, IVM marks and ``EvaluationStats.installs`` stamps
were taken as slot counts (every point read clones its borrowed magic
seed on its first install): the version handed out must be
slot-identical to the one it replaces.  A netted replay broke the
maintained ``tainted`` on the 13th served request of a depth-6 BOM.

A snapshot is as free to drop as it is to take.  Nothing references a
database strongly except its callers (a relation's ``owner`` is a
small cell, not the database), so the snapshot is released by
reference count the moment the last caller lets go, its holder
registrations vanish with it, and the owner is back to writing in
place.  The one trade a caller can observe: holding a whole
``QueryResult`` (its ``result.evaluation.database``, not just
``rows``) across a write makes that write hand the touched relation
off once.  Direct ``Relation`` method calls on objects obtained *before*
a snapshot bypass the guard; ``Session``/``Database`` methods honor it.
A ``Relation`` read through a snapshot is frozen only while that
snapshot is alive: once no snapshot holds it, the owner may recycle it.

This is also the MVCC substrate of the query server
(:mod:`repro.server`), and what keeps it lock-free: readers only ever
snapshot a *published* snapshot.  The holder sets of its relations
were created by the writer's ``publish``, and the manager's current
snapshot (or the reader's own pin) keeps them non-empty for as long as
a reader can reach those relations, so the writer's "no holder" test
never races a first registration -- it hands off exactly the
relations a mutation touches, once per publish, and recycles only a
spare no reader can reach.

Versioning
----------

Every relation carries a monotone :attr:`Relation.version` counter that
is bumped exactly when the stored tuple set actually changes (a new
tuple inserted, an existing tuple retracted); no-op mutations -- adding
a duplicate, retracting an absent tuple -- leave it untouched.  A
database's :attr:`Database.version` is the sum of its relations'
counters, maintained as an O(1) cached counter: relations created by a
:class:`Database` carry an ``owner`` backreference -- to the small
cell holding the database's counter and mutation logs, not to the
database, so there is no reference cycle -- and bump the database
counter in the same mutation, so *any* mutation path (the ``Database``
convenience methods as well as direct ``database.relation(key).add(...)``
calls) advances it without re-summing all relations per check.  The
counter is what makes cross-evaluation answer memoization
(:mod:`repro.session`) cheap: a memoized answer is valid exactly while
the version it was computed at is still current.
"""

from __future__ import annotations

from array import array
from itertools import compress
from operator import itemgetter
from typing import (
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)
from weakref import WeakSet

from .ast import Literal
from .catalog import term_catalog
from .errors import IntegrityError
from .terms import Constant, Term, Variable
from .unify import match_sequences

__all__ = [
    "Relation",
    "Database",
    "FactTuple",
    "IdTuple",
    "MutationEntry",
    "FactRow",
]

FactTuple = Tuple[Term, ...]
IdTuple = Tuple[int, ...]

#: Index key: a bare term ID for single-position indexes, an ID tuple
#: otherwise.
IndexKey = Union[int, IdTuple]

_CATALOG = term_catalog()

_EMPTY_SLOTS: Tuple[int, ...] = ()

#: Compact only when the dead-slot count both dominates the live count
#: and is large enough to amortize the rebuild.
_COMPACT_MIN_DEAD = 16


class _OwnerCell:
    """What a relation reaches of its owning database on every mutation:
    the database's version counter and its active mutation logs.

    A cell rather than the database itself, so that ``Database ->
    Relation -> owner`` is not a reference cycle and a dropped database
    (every evaluation's snapshot) is freed by reference count.
    """

    __slots__ = ("version", "logs")

    def __init__(self):
        self.version = 0
        self.logs: Tuple[List["MutationEntry"], ...] = ()


class Relation:
    """A set of ground tuples stored as ID columns with hash indexes.

    Indexes are keyed by a sorted tuple of positions; each maps the
    ID projection of a row on those positions to an ``array('q')`` of
    row slots with that projection.

    :attr:`version` counts the mutations that changed the tuple set
    (inserts of new tuples, retractions of present ones); it is monotone
    and feeds :attr:`Database.version` through the ``owner``
    backreference.  ``_holders`` is the weak set of live databases that
    share this relation without owning it (see "Copy-on-write
    snapshots" in the module docstring), None until first snapshotted.
    ``_spare`` is the version this relation was split from, and
    ``_journal`` the ``(sign, rows)`` batches written here since the
    split, in order: what :meth:`Database._writable` replays onto the
    spare once no snapshot holds it.  Both are None on a relation that
    was never handed off.
    """

    __slots__ = (
        "name",
        "arity",
        "version",
        "owner",
        "_holders",
        "_spare",
        "_journal",
        "_columns",
        "_rowmap",
        "_live",
        "_dead",
        "_indexes",
        "_copied_at",
    )

    def __init__(self, name: str, arity: Optional[int] = None):
        self.name = name
        self.arity = arity
        self.version = 0
        self.owner: Optional[_OwnerCell] = None
        self._holders: Optional["WeakSet[Database]"] = None
        self._spare: Optional[Relation] = None
        self._journal: Optional[List[Tuple[int, Sequence[IdTuple]]]] = None
        self._columns: Optional[List[array]] = (
            None if arity is None else [array("q") for _ in range(arity)]
        )
        self._rowmap: Dict[IdTuple, int] = {}
        self._live = bytearray()
        self._dead = 0
        self._indexes: Dict[Tuple[int, ...], Dict[IndexKey, array]] = {}
        #: slot count at the last :meth:`copy` (0: never copied, or
        #: compacted since): a bucket ending below it may be shared
        self._copied_at = 0

    def __len__(self) -> int:
        return len(self._rowmap)

    def __iter__(self) -> Iterator[FactTuple]:
        resolve_row = _CATALOG.resolve_row
        return iter([resolve_row(idrow) for idrow in self._rowmap])

    def __contains__(self, row: FactTuple) -> bool:
        id_of = _CATALOG.id_of
        ids = tuple(id_of(term) for term in row)
        return -1 not in ids and ids in self._rowmap

    # ------------------------------------------------------------------
    # version bookkeeping
    # ------------------------------------------------------------------
    def _bump(self, count: int) -> None:
        self.version += count
        owner = self.owner
        if owner is not None:
            owner.version += count

    def _capture(self, idrows: Iterable[IdTuple], sign: int) -> None:
        """Append actual set changes to the owner's active mutation logs.

        Called only for mutations that changed the tuple set (the same
        condition that bumps :attr:`version`), so a log replays to the
        exact net delta: no-op inserts and absent retracts never appear.
        """
        owner = self.owner
        if owner is None:
            return
        logs = owner.logs
        if not logs:
            return
        name = self.name
        entries = [(name, idrow, sign) for idrow in idrows]
        for log in logs:
            log.extend(entries)

    def _note(self, sign: int, rows: Sequence[IdTuple]) -> None:
        """Append one applied batch to the journal, or drop the spare
        and the journal once they hold more rows than the relation has
        live rows: a clone is cheaper than such a replay.  Every
        journaled row bumped :attr:`version` once, so the journal's row
        count is the version gap to the spare."""
        if self.version - self._spare.version > len(self._rowmap):
            self._spare = self._journal = None
        else:
            self._journal.append((sign, rows))

    # ------------------------------------------------------------------
    # insertion
    # ------------------------------------------------------------------
    def add(self, row: Iterable[Term]) -> bool:
        """Insert a tuple; returns True when it was new."""
        return self.add_many((row,)) == 1

    def add_many(self, rows: Iterable[Iterable[Term]]) -> int:
        """Insert many tuples; returns the number that were new.

        Rows are validated and interned up front (so a bad row leaves
        the relation untouched, unlike repeated :meth:`add` calls which
        keep the prefix), then inserted by :meth:`add_id_rows`.
        """
        arity = self.arity
        intern_row = _CATALOG.intern_row
        idrows: List[IdTuple] = []
        append_id = idrows.append
        for row in rows:
            row = tuple(row)
            if len(row) != arity:
                if arity is None:
                    arity = len(row)
                else:
                    raise ValueError(
                        f"relation {self.name}: arity mismatch, expected "
                        f"{arity}, got tuple of length {len(row)}"
                    )
            try:
                append_id(intern_row(row))
            except ValueError:
                raise ValueError(
                    f"relation {self.name}: tuple {row} is not ground"
                ) from None
        return len(self.add_id_rows(idrows))

    def add_id_row(self, idrow: IdTuple) -> bool:
        """Insert an already-interned ID row; returns True when new."""
        return bool(self.add_id_rows((idrow,)))

    def add_id_rows(self, idrows: Iterable[IdTuple]) -> List[IdTuple]:
        """Insert ID rows; returns the rows that were new.

        The one insert path: duplicates cost one ``_rowmap`` membership
        check, fresh rows are appended to the columns in one pass, and
        each registered index is brought up to date in a single batch
        pass over the fresh slots.  A row of the wrong arity raises with
        the relation untouched, and so does a first row that an index
        registered while the arity was unknown reaches past.
        """
        arity = self.arity
        rowmap = self._rowmap
        live = self._live
        base = len(live)
        fresh_rows: List[IdTuple] = []
        for idrow in idrows:
            if idrow in rowmap:
                continue
            if len(idrow) != arity:
                if arity is None:
                    # the first row: nothing is claimed yet
                    arity = len(idrow)
                    for positions in self._indexes:
                        self._check_positions(positions, arity)
                else:
                    # earlier rows of the batch already claimed rowmap
                    # slots nothing else backs yet: give them back
                    for claimed in fresh_rows:
                        del rowmap[claimed]
                    raise ValueError(
                        f"relation {self.name}: arity mismatch, expected "
                        f"{arity}, got tuple of length {len(idrow)}"
                    )
            # claiming the rowmap slot immediately also dedups within
            # the batch itself
            rowmap[idrow] = base + len(fresh_rows)
            fresh_rows.append(idrow)
        n_fresh = len(fresh_rows)
        if not n_fresh:
            return fresh_rows
        self.arity = arity
        columns = self._columns
        if columns is None:
            columns = self._first_columns(arity)
        for p, column in enumerate(columns):
            column.extend([row[p] for row in fresh_rows])
        live.extend(b"\x01" * n_fresh)
        self.version += n_fresh
        owner = self.owner
        if owner is not None:
            owner.version += n_fresh
            if owner.logs:
                self._capture(fresh_rows, 1)
        if self._journal is not None:
            # a copy: the caller gets fresh_rows back and may change it
            self._note(1, tuple(fresh_rows))
        # enter the fresh slots into every index.  A bucket that ends
        # below the copy watermark is borrowed (see copy()): it is
        # copied before the first append, which puts its end above the
        # watermark for good
        copied_at = self._copied_at
        for positions, index in self._indexes.items():
            keys = map(itemgetter(*positions), fresh_rows)
            for slot, key in enumerate(keys, base):
                bucket = index.get(key)
                if bucket is None:
                    index[key] = array("q", (slot,))
                else:
                    if bucket[-1] < copied_at:
                        bucket = index[key] = bucket[:]
                    bucket.append(slot)
        return fresh_rows

    def _first_columns(self, arity: int) -> List[array]:
        """The columns of a relation created without an arity, as its
        first row arrives.  An index registered on every position while
        the arity was unknown goes: the rowmap serves those probes."""
        self._indexes.pop(tuple(range(arity)), None)
        columns = self._columns = [array("q") for _ in range(arity)]
        return columns

    def id_rows(self) -> Iterable[IdTuple]:
        """The live ID rows (insertion order)."""
        return self._rowmap.keys()

    def all_slots(self) -> List[int]:
        """The live slots (insertion order)."""
        return list(self._rowmap.values())

    def slot_count(self) -> int:
        """Slots handed out so far, live or tombstoned.  Inserts only
        append, so until the next retraction every earlier state of the
        relation is a slot prefix ``[0, n)`` of it."""
        return len(self._live)

    def window_rows(self, lo: int, hi: int) -> List[IdTuple]:
        """The live ID rows stored in slots ``[lo, hi)``, in slot order."""
        columns = self._columns
        if columns is None or lo >= hi:
            return []
        if columns:
            rows = list(zip(*[column[lo:hi] for column in columns]))
        else:  # 0-ary: one empty row per slot
            rows = [()] * (hi - lo)
        if self._dead:
            live = self._live
            rows = [row for slot, row in enumerate(rows, lo) if live[slot]]
        return rows

    def term_row(self, slot: int) -> FactTuple:
        """The terms of the row stored at ``slot``: its IDs resolved,
        on every call (nothing is cached)."""
        resolve = _CATALOG.resolve
        return tuple([resolve(column[slot]) for column in self._columns])

    def lookup_ids(
        self, positions: Tuple[int, ...], key: IndexKey
    ) -> Sequence[int]:
        """Slots of rows whose ID projection on ``positions`` is ``key``.

        ``positions`` must already be normalized (sorted, unique);
        ``key`` is a bare int for a single position, an ID tuple
        otherwise.  A key covering every column is the ID row itself:
        one ``_rowmap`` probe, no index.  Tombstoned slots are pruned
        from the probed bucket in place, so a bucket is paid for at
        most once per retraction.
        """
        if not positions:
            return self.all_slots()
        if len(positions) == self.arity:
            slot = self._rowmap.get(key if self.arity > 1 else (key,))
            return _EMPTY_SLOTS if slot is None else (slot,)
        index = self._indexes.get(positions)
        if index is None:
            index = self._build_index(positions)
        bucket = index.get(key)
        if bucket is None:
            return _EMPTY_SLOTS
        if not self._dead:
            return bucket
        live = self._live
        pruned = [slot for slot in bucket if live[slot]]
        if len(pruned) != len(bucket):
            if pruned:
                index[key] = array("q", pruned)
            else:
                # pop, not del: concurrent readers of a shared snapshot
                # relation may both prune the same exhausted bucket
                index.pop(key, None)
        return pruned

    def probe_index(
        self, positions: Tuple[int, ...]
    ) -> Optional[Dict[IndexKey, array]]:
        """The raw key->slots dict for ``positions``, when exact.

        The batch executor's bulk-probe fast path: when no slot is
        tombstoned every bucket is exact, so the executor can hash keys
        straight into the dict without a :meth:`lookup_ids` call per
        distinct key.  Returns None for empty positions, for positions
        covering every column (no such index exists) or while
        tombstones exist (callers then fall back to :meth:`lookup_ids`,
        which probes the rowmap, or prunes lazily).
        """
        if not positions or self._dead or len(positions) == self.arity:
            return None
        index = self._indexes.get(positions)
        if index is None:
            index = self._build_index(positions)
        return index

    # ------------------------------------------------------------------
    # indexes
    # ------------------------------------------------------------------
    def register_index(self, positions: Tuple[int, ...]) -> None:
        """Build (or reuse) the hash index on ``positions`` eagerly.

        The join planner calls this up front for every index position
        tuple its plans will probe, so fixpoint rounds never pay the
        one-off O(n) lazy build mid-join.  Registered indexes are kept
        current incrementally by :meth:`add`.  Positions covering every
        column are served by the rowmap and never indexed.
        """
        positions = tuple(sorted(set(self._normalize_positions(positions))))
        if (
            positions
            and len(positions) != self.arity
            and positions not in self._indexes
        ):
            self._build_index(positions)

    def _normalize_positions(
        self, positions: Tuple[int, ...]
    ) -> Tuple[int, ...]:
        positions = tuple(positions)
        self._check_positions(positions, self.arity)
        return positions

    def _check_positions(
        self, positions: Tuple[int, ...], arity: Optional[int]
    ) -> None:
        if any(p < 0 for p in positions) or (
            arity is not None and any(p >= arity for p in positions)
        ):
            raise ValueError(
                f"relation {self.name}: index positions {positions} out of "
                f"range for arity {arity}"
            )

    def _build_index(
        self, positions: Tuple[int, ...]
    ) -> Dict[IndexKey, array]:
        index: Dict[IndexKey, array] = {}
        if len(positions) == 1:
            (p0,) = positions
            for idrow, slot in self._rowmap.items():
                key: IndexKey = idrow[p0]
                bucket = index.get(key)
                if bucket is None:
                    index[key] = array("q", (slot,))
                else:
                    bucket.append(slot)
        else:
            for idrow, slot in self._rowmap.items():
                key = tuple(idrow[i] for i in positions)
                bucket = index.get(key)
                if bucket is None:
                    index[key] = array("q", (slot,))
                else:
                    bucket.append(slot)
        self._indexes[positions] = index
        return index

    def select(
        self,
        bound: Union[Dict[int, Term], Iterable[Tuple[int, Term]]],
        project: Sequence[int],
    ) -> Set[FactTuple]:
        """The distinct projections on ``project`` of the rows holding
        the ground term ``bound[p]`` at every bound position ``p``.

        The one place a (relation, selection, projection) becomes
        answers.  Constants are looked up, never interned (a read must
        not grow the catalog): a never-seen constant, or one position
        constrained to two constants, answers empty without touching a
        row.  Rows come from the hash index on the bound positions (the
        rowmap when every position is bound) and are projected and
        deduplicated as ID rows; only the distinct ones are resolved to
        terms, unmemoized.  Positions out of range raise ``ValueError``.
        """
        pairs = tuple(bound.items() if isinstance(bound, dict) else bound)
        project = self._normalize_positions(project)
        self._normalize_positions([position for position, _ in pairs])
        id_of = _CATALOG.id_of
        wanted: Dict[int, int] = {}
        for position, term in pairs:
            term_id = id_of(term)
            if term_id < 0 or wanted.setdefault(position, term_id) != term_id:
                return set()
        columns = self._columns
        if columns is None:
            return set()
        positions = tuple(sorted(wanted))
        ids = tuple(wanted[position] for position in positions)
        slots = self.lookup_ids(positions, ids[0] if len(ids) == 1 else ids)
        picked = [columns[position] for position in project]
        id_rows = {tuple([column[slot] for column in picked]) for slot in slots}
        resolve = _CATALOG.resolve
        return {tuple(map(resolve, id_row)) for id_row in id_rows}

    def matching(
        self,
        bound: Union[Dict[int, Term], Iterable[Tuple[int, Term]]],
        project: Sequence[int],
        patterns: Sequence[Term],
    ) -> Set[FactTuple]:
        """:meth:`select`, keeping the rows that ``patterns`` (one per
        projected position) match.

        Distinct variables match anything; a repeated variable or a
        ``Struct``/``LinExpr`` pattern is a residual filter, by
        ``match_sequences``, over the rows the index already narrowed.
        """
        rows = self.select(bound, project)
        if len(set(patterns)) == len(patterns) and all(
            isinstance(pattern, Variable) for pattern in patterns
        ):
            return rows
        return {
            row for row in rows if match_sequences(patterns, row) is not None
        }

    def answers(self, literal: Literal) -> Set[FactTuple]:
        """The bindings of ``literal``'s non-ground positions that make
        it true over this relation (the *answer* of Section 1.1).

        Ground arguments become the selection of :meth:`matching`, the
        other positions its projection and their terms its patterns.
        A literal of another arity has no answers.
        """
        args = literal.args
        if len(args) != self.arity:
            return set()
        bound = {i: arg for i, arg in enumerate(args) if arg.is_ground()}
        free = [i for i in range(len(args)) if i not in bound]
        return self.matching(bound, free, [args[i] for i in free])

    # ------------------------------------------------------------------
    # retraction
    # ------------------------------------------------------------------
    def discard(self, row: Iterable[Term]) -> bool:
        """Retract a tuple; returns True when it was present."""
        return self.discard_many((row,)) == 1

    def discard_many(self, rows: Iterable[Iterable[Term]]) -> int:
        """Retract many tuples; returns the number that were present.

        A row holding a term the catalog has never seen gets a ``-1``
        ID, which no stored row holds."""
        id_of = _CATALOG.id_of
        return self.discard_id_rows([tuple(map(id_of, row)) for row in rows])

    def discard_id_row(self, idrow: IdTuple) -> bool:
        """Retract an already-interned ID row; returns True when it was
        present."""
        return self.discard_id_rows((idrow,)) == 1

    def discard_id_rows(self, idrows: Iterable[IdTuple]) -> int:
        """Retract ID rows; returns the number that were present.

        The one retract path, with one version bump and one capture per
        call.  O(1) expected per row: the slot is tombstoned (``_live``
        flag cleared) rather than spliced out of every index bucket;
        buckets shed dead slots lazily at probe time, and the relation
        compacts itself when dead slots outnumber live ones.
        """
        rowmap = self._rowmap
        live = self._live
        gone = []
        for idrow in idrows:
            slot = rowmap.pop(idrow, None)
            if slot is None:
                continue
            live[slot] = 0
            gone.append(idrow)
        if not gone:
            return 0
        self._dead += len(gone)
        self._bump(len(gone))
        self._capture(gone, -1)
        if self._journal is not None:
            self._note(-1, gone)
        if (
            self._dead >= _COMPACT_MIN_DEAD
            and self._dead > len(self._rowmap)
        ):
            self._compact()
        return len(gone)

    def _compact(self) -> None:
        """Drop tombstoned slots and rebuild columns and indexes, at C
        level: the rowmap iterates its slots ascending (an invariant
        :meth:`check_invariants` enforces), so its ``k``-th row is the
        ``k``-th live slot and moves to slot ``k``."""
        live = self._live
        n_live = len(self._rowmap)
        columns = self._columns
        if columns is not None:
            self._columns = [
                array("q", compress(column, live)) for column in columns
            ]
        self._live = bytearray(b"\x01" * n_live)
        self._rowmap = dict(zip(self._rowmap, range(n_live)))
        self._dead = 0
        for positions in list(self._indexes):
            self._build_index(positions)
        self._copied_at = 0  # every bucket is freshly built: none shared

    # ------------------------------------------------------------------
    # copying
    # ------------------------------------------------------------------
    def copy(self) -> "Relation":
        """An independent copy that shares this relation's index buckets.

        The copy is slot-identical: the same columns, liveness flags,
        tombstone count and rowmap order, so every slot count taken on
        this relation -- a semi-naive window, an IVM mark, an
        ``installs`` stamp -- means the same rows on the copy.  That is
        what makes a clone inside a fixpoint safe.  It carries no spare
        and no journal.

        Columns, rowmap and liveness flags are copied (C level -- no
        Term is touched) and each index dict shallowly:
        no bucket is copied here and neither side pays an O(n) index
        rebuild afterwards.  The copy has no owner and no holders until
        a database adopts it.

        Both sides borrow the buckets they have now: neither may append
        to one in place, whichever writes first (``Database.copy()``
        leaves both mutable).  Slots are handed out in ascending order
        and every bucket lists its slots ascending (an append adds the
        highest slot so far, a prune keeps the order, a rebuild walks
        the rowmap in slot order), so a bucket's last slot dates it:
        both sides set ``_copied_at`` to the current slot count, an
        append copies the bucket first iff its last slot is below that
        watermark, and the appended slot lies above it -- copied once,
        appended to in place from then on, no per-key ownership state.
        Every other bucket write replaces the bucket (the prune in
        :meth:`lookup_ids`, :meth:`_build_index`); :meth:`_compact`
        rebuilds them all and resets the watermark.

        The rowmap and the index dicts are cloned with ``dict.copy()``,
        which copies the hash table as one block, deletion holes and
        all, while they are at most a third of its entries.  The
        ``dict`` constructor would re-insert entry by entry as soon as
        the dict has one hole (CPython 3.9-3.12), and every rowmap a
        retraction has touched has some: 4-7x slower on a 7k-row
        rowmap (see "What a clone costs" in the module docstring).

        Safe on a snapshot-shared relation while reader threads prune
        or build indexes on it: ``index.copy()`` is one C call, atomic
        under the GIL, and ``list()`` materializes the outer dict
        before iteration.
        """
        duplicate = Relation.__new__(Relation)
        duplicate.name = self.name
        duplicate.arity = self.arity
        duplicate.version = self.version
        duplicate.owner = None
        duplicate._holders = None
        duplicate._spare = duplicate._journal = None
        columns = self._columns
        duplicate._columns = (
            None if columns is None else [column[:] for column in columns]
        )
        duplicate._rowmap = self._rowmap.copy()
        duplicate._live = bytearray(self._live)
        duplicate._dead = self._dead
        duplicate._indexes = {
            positions: index.copy()
            for positions, index in list(self._indexes.items())
        }
        self._copied_at = duplicate._copied_at = len(self._live)
        return duplicate

    def _catch_up(
        self,
        current: "Relation",
        journal: List[Tuple[int, Sequence[IdTuple]]],
    ) -> None:
        """Bring this spare of ``current`` to ``current``'s state by
        replaying ``current``'s ``journal``, batch by batch, with no
        owner attached: no database version bump and no mutation-log
        entry comes from the replay, and ``version`` ends equal to
        ``current.version``.

        The journal is replayed as it was applied, never netted: the
        spare starts slot-identical to ``current`` (it is what
        ``current`` was copied from, or caught up to), so the same
        batches hand out the same slots, tombstone the same ones and
        compact at the same points.  Slot counts taken on ``current``
        -- semi-naive windows, IVM marks, ``installs`` stamps -- stay
        valid on the spare, which is what lets a handoff happen in the
        middle of a pass.  An index only ``current`` carries (one a
        reader built on it) is carried over as :meth:`copy` does.
        """
        owner, self.owner = self.owner, None
        for sign, rows in journal:
            if sign > 0:
                self.add_id_rows(rows)
            else:
                self.discard_id_rows(rows)
        self.owner = owner
        indexes, carried = self._indexes, False
        for positions, index in list(current._indexes.items()):
            if positions not in indexes:
                indexes[positions] = index.copy()
                carried = True
        if carried:  # both sides now borrow its buckets
            current._copied_at = self._copied_at = len(self._live)

    # ------------------------------------------------------------------
    # accounting / integrity
    # ------------------------------------------------------------------
    def estimated_bytes(self) -> int:
        """Coarse storage estimate for the memory budget.

        Counts 8 bytes per column cell, then per index: 8 bytes per
        bucket slot (every stored row appears in every index exactly
        once) *plus* a flat per-bucket charge -- each distinct key owns
        an ``array('q')`` object (~64 bytes of header) and a dict entry
        (~50 bytes amortized), which dominates on indexes with small
        buckets and used to be dropped entirely, letting
        ``max_memory_bytes`` budgets undercount index-heavy workloads
        by several x.  ``len(index)`` is the bucket count, so this stays
        O(#indexes) and never walks buckets -- cheap enough for a
        per-round check.  A flat per-row charge covers the rowmap entry
        (key tuple + dict slot).  A bucket shared between copies is
        charged to every relation that references it: conservative on
        purpose, any of them may outlive the others.
        """
        n = len(self._live)
        arity = self.arity or 0
        total = 8 * arity * n + 96 * len(self._rowmap)
        for index in self._indexes.values():
            total += 8 * n + 114 * len(index)
        return total

    def check_invariants(self) -> bool:
        """Verify the columnar storage invariants; raises IntegrityError.

        The oracle behind ``Database.check_integrity`` and the
        fault-injection atomicity property: columns equal-length,
        rowmap and columns agree, liveness flags match the tombstone
        count, no index covers every column, every index bucket references in-range
        slots whose live members project to the bucket key and covers
        every live row, and the version counter has kept pace with the
        live tuple count.  It also checks the two orderings the
        copy-on-write watermark and the join executor's window reads
        rely on: the rowmap iterates its slots strictly ascending, and so
        does every index bucket (its last slot dates it against
        ``_copied_at``; a keyed window bisects it).  Returns True so
        ``assert rel.check_invariants()`` reads naturally.
        """

        def fail(invariant: str, detail: str):
            raise IntegrityError(
                f"relation {self.name}: {invariant}: {detail}",
                relation=self.name,
                invariant=invariant,
            )

        n = len(self._live)
        columns = self._columns
        if columns is None:
            if n or self._rowmap:
                fail("columns", "no columns but rows recorded")
        else:
            if self.arity is None or len(columns) != self.arity:
                fail(
                    "columns",
                    f"{len(columns)} columns for arity {self.arity}",
                )
            for p, column in enumerate(columns):
                if len(column) != n:
                    fail(
                        "columns",
                        f"column {p} holds {len(column)} cells, "
                        f"expected {n}",
                    )
        dead = n - sum(self._live)
        if dead != self._dead:
            fail(
                "tombstones",
                f"counter says {self._dead} dead slots, flags say {dead}",
            )
        if len(self._rowmap) != n - dead:
            fail(
                "rowmap",
                f"{len(self._rowmap)} mapped rows for {n - dead} live slots",
            )
        seen_slots = set()
        last = -1
        for idrow, slot in self._rowmap.items():
            if not 0 <= slot < n:
                fail("rowmap", f"slot {slot} out of range for {n} rows")
            if not self._live[slot]:
                fail("rowmap", f"row {idrow} maps to tombstoned slot {slot}")
            if slot <= last:
                fail("rowmap", f"slot {slot} iterates after slot {last}")
            last = slot
            seen_slots.add(slot)
            if columns is not None:
                stored = tuple(column[slot] for column in columns)
                if stored != idrow:
                    fail(
                        "rowmap",
                        f"slot {slot} stores {stored}, rowmap says {idrow}",
                    )
        for positions, index in self._indexes.items():
            if len(positions) == self.arity:
                fail("index", f"index {positions} covers every column")
            covered = set()
            for key, bucket in index.items():
                last = -1
                for slot in bucket:
                    if not 0 <= slot < n:
                        fail(
                            "index",
                            f"index {positions} bucket {key} references "
                            f"slot {slot} beyond {n} rows",
                        )
                    if slot <= last:
                        fail(
                            "index",
                            f"index {positions} bucket {key} lists slot "
                            f"{slot} after slot {last}",
                        )
                    last = slot
                    if not self._live[slot]:
                        continue  # stale entries are pruned lazily
                    if columns is not None:
                        projection = (
                            columns[positions[0]][slot]
                            if len(positions) == 1
                            else tuple(columns[p][slot] for p in positions)
                        )
                        if projection != key:
                            fail(
                                "index",
                                f"index {positions} bucket {key} holds live "
                                f"slot {slot} projecting to {projection}",
                            )
                    if slot in covered:
                        fail(
                            "index",
                            f"index {positions} lists live slot {slot} twice",
                        )
                    covered.add(slot)
            if covered != seen_slots:
                missing = sorted(seen_slots - covered)
                fail(
                    "index",
                    f"index {positions} misses live slots {missing[:5]}",
                )
        if self.version < len(self._rowmap):
            fail(
                "version",
                f"version {self.version} below live count "
                f"{len(self._rowmap)}",
            )
        return True

    def __repr__(self):
        return f"Relation({self.name!r}, {len(self)} tuples)"


#: One captured mutation: ``(pred_key, id_row, +1 | -1)``.
MutationEntry = Tuple[str, IdTuple, int]

#: One interned ground fact, as the parser hands them over:
#: ``(pred_key, id_row)``.
FactRow = Tuple[str, IdTuple]


class Database:
    """A named collection of relations, keyed by predicate key."""

    __slots__ = ("_relations", "_cell", "__weakref__")

    def __init__(self):
        self._relations: Dict[str, Relation] = {}
        #: the version counter and the active mutation logs (incremental-
        #: view-maintenance capture: every actual set change on an owned
        #: relation appends a ``(pred_key, idrow, sign)`` entry to each),
        #: in the cell this database's relations point back at
        self._cell = _OwnerCell()

    # ------------------------------------------------------------------
    # copy-on-write snapshots (the MVCC substrate of repro.server)
    # ------------------------------------------------------------------
    def snapshot(self, keys: Optional[Iterable[str]] = None) -> "Database":
        """A relation-sharing snapshot of this database (of the relations
        under ``keys`` only, when given).

        O(#relations): no tuple is copied.  The snapshot references the
        same :class:`Relation` objects and registers itself, weakly, as
        a holder of each; while it is alive, the first mutation of such
        a relation *through either database's methods* clones it for
        the mutating side before touching it, so the other side keeps
        observing the state at snapshot time.  Dropping the snapshot
        unregisters it (by reference count, no collector involved), and
        this database mutates in place again.  Indexes built through
        either side land on the shared relation and serve both.
        """
        snap = Database()
        if keys is None:
            snap._relations = dict(self._relations)
            snap._cell.version = self._cell.version
        else:
            snap._relations = {
                key: self._relations[key]
                for key in keys
                if key in self._relations
            }
            snap._cell.version = sum(
                rel.version for rel in snap._relations.values()
            )
        for rel in snap._relations.values():
            holders = rel._holders
            if holders is None:
                holders = rel._holders = WeakSet()
            holders.add(snap)
        return snap

    def _writable(self, pred_key: str) -> Optional[Relation]:
        """The relation for a mutation path: handed out as is when this
        database owns it and no snapshot holds it.  Otherwise another
        version takes its place: for an owned relation, the spare it
        was split from, caught up by its journal, when no snapshot
        holds that one either, else a clone (indexes preserved) that
        keeps the held relation as its spare; a borrowed relation is
        cloned and keeps no spare."""
        rel = self._relations.get(pred_key)
        if rel is None:
            return None
        if rel.owner is not self._cell:
            clone = rel.copy()
            clone.owner = self._cell
            self._relations[pred_key] = clone
            rel._holders.discard(self)
            return clone
        if not rel._holders:
            return rel
        # detached first, so a replay that raises leaves no half-caught-up
        # spare behind; and a spare holds no spare: versions never chain
        spare, journal = rel._spare, rel._journal
        rel._spare = rel._journal = None
        if spare is not None and not spare._holders:
            spare._catch_up(rel, journal)
            fresh = spare
        else:
            fresh = rel.copy()
            fresh.owner = self._cell
        fresh._spare, fresh._journal = rel, []
        self._relations[pred_key] = fresh
        return fresh

    # ------------------------------------------------------------------
    # mutation capture (incremental view maintenance)
    # ------------------------------------------------------------------
    def start_mutation_log(self) -> List[MutationEntry]:
        """Begin capturing this database's mutations into a fresh log.

        Returns the log: a plain list of ``(pred_key, idrow, sign)``
        entries, appended to by every mutation that actually changes a
        relation's tuple set (through *any* path -- the ``Database``
        convenience methods, bulk relation inserts, or the ID-level
        executor API).  No-op mutations are never recorded, so replaying
        a log yields the exact net delta.  The caller owns the list (it
        may drain it in place); call :meth:`stop_mutation_log` with the
        same list to detach it.  Multiple concurrent logs are allowed.
        """
        log: List[MutationEntry] = []
        self._cell.logs = self._cell.logs + (log,)
        return log

    def stop_mutation_log(self, log: List[MutationEntry]) -> None:
        """Detach a log returned by :meth:`start_mutation_log`."""
        self._cell.logs = tuple(
            active for active in self._cell.logs if active is not log
        )

    @property
    def _mutation_logs(self) -> Tuple[List[MutationEntry], ...]:
        """The logs currently attached (read-only introspection)."""
        return self._cell.logs

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def relation(self, pred_key: str) -> Relation:
        """Get (or create) the relation for a predicate key.

        This is a mutation entry point: a relation shared with a live
        snapshot is cloned for this database first (copy-on-write), so
        callers may freely mutate the returned object.
        """
        rel = self._writable(pred_key)
        if rel is None:
            rel = Relation(pred_key)
            rel.owner = self._cell
            self._relations[pred_key] = rel
        return rel

    def get(self, pred_key: str) -> Optional[Relation]:
        return self._relations.get(pred_key)

    def add_fact(self, literal: Literal) -> bool:
        """Insert a ground literal as a tuple of its relation."""
        if not literal.is_ground():
            raise ValueError(f"fact {literal} is not ground")
        return self.relation(literal.pred_key).add(literal.args)

    def add_facts(self, literals: Iterable[Literal]) -> int:
        return sum(1 for lit in literals if self.add_fact(lit))

    def add_fact_rows(self, fact_rows: Iterable[FactRow]) -> int:
        """Bulk-load interned facts -- ``(pred_key, id_row)`` pairs, the
        form :func:`~repro.datalog.parser.parse_program` produces as
        ``ParsedSource.fact_rows``; returns the number that were new.

        The rows of each predicate go through one
        :meth:`Relation.add_id_rows` call, in the order given, so
        deduplication, the arity check (a ``ValueError`` naming the
        relation, which is left as it was; predicates loaded before it
        stay loaded), index maintenance, the version bump and
        mutation-log capture are that method's.  The result equals
        ``add_facts`` over the decoded literals, except that log entries
        arrive grouped by predicate.
        """
        grouped: Dict[str, List[IdTuple]] = {}
        for pred_key, id_row in fact_rows:
            rows = grouped.get(pred_key)
            if rows is None:
                rows = grouped[pred_key] = []
            rows.append(id_row)
        return sum(
            len(self.relation(pred_key).add_id_rows(rows))
            for pred_key, rows in grouped.items()
        )

    def add_values(self, pred_key: str, rows: Iterable[Iterable[object]]) -> int:
        """Insert rows of raw Python values, wrapping them in Constants."""
        wrapped = (tuple(Constant(v) for v in row) for row in rows)
        return self.relation(pred_key).add_many(wrapped)

    # ------------------------------------------------------------------
    # retraction
    # ------------------------------------------------------------------
    def retract_fact(self, literal: Literal) -> bool:
        """Retract a ground literal; returns True when it was present."""
        if not literal.is_ground():
            raise ValueError(f"fact {literal} is not ground")
        rel = self._writable(literal.pred_key)
        if rel is None:
            return False
        return rel.discard(literal.args)

    def retract_facts(self, literals: Iterable[Literal]) -> int:
        return sum(1 for lit in literals if self.retract_fact(lit))

    def retract_tuples(
        self, pred_key: str, rows: Iterable[Iterable[Term]]
    ) -> int:
        rel = self._writable(pred_key)
        if rel is None:
            return 0
        return rel.discard_many(rows)

    def retract_values(
        self, pred_key: str, rows: Iterable[Iterable[object]]
    ) -> int:
        """Retract rows of raw Python values, wrapping them in Constants."""
        wrapped = (tuple(Constant(v) for v in row) for row in rows)
        return self.retract_tuples(pred_key, wrapped)

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    @property
    def version(self) -> int:
        """Monotone mutation counter over all relations, O(1).

        Equal to the sum of the relations' counters, but maintained
        incrementally: every owned relation bumps this counter in the
        same mutation that bumps its own, whichever path performed it
        (``Database`` methods or direct :class:`Relation` calls).
        Relations are created but never removed, so the counter only
        grows; no-op mutations (duplicate insert, absent retract) do
        not bump it, which is exactly the invariant the answer memo in
        :mod:`repro.session` relies on.
        """
        return self._cell.version

    def predicate_keys(self) -> Set[str]:
        return set(self._relations)

    def has_fact(self, literal: Literal) -> bool:
        rel = self._relations.get(literal.pred_key)
        return rel is not None and tuple(literal.args) in rel

    def tuples(self, pred_key: str) -> Set[FactTuple]:
        rel = self._relations.get(pred_key)
        if rel is None:
            return set()
        return set(rel)

    def answers(self, literal: Literal) -> Set[FactTuple]:
        """:meth:`Relation.answers` over the literal's relation."""
        rel = self._relations.get(literal.pred_key)
        return set() if rel is None else rel.answers(literal)

    def total_facts(self) -> int:
        return sum(len(rel) for rel in self._relations.values())

    def fact_counts(self) -> Dict[str, int]:
        return {key: len(rel) for key, rel in self._relations.items()}

    def copy(self) -> "Database":
        duplicate = Database()
        cell = duplicate._cell
        for key, rel in self._relations.items():
            dup_rel = rel.copy()
            dup_rel.owner = cell
            duplicate._relations[key] = dup_rel
        cell.version = self._cell.version
        return duplicate

    def estimated_bytes(self) -> int:
        """Coarse storage estimate over all relations (memory budget)."""
        return sum(
            128 + rel.estimated_bytes() for rel in self._relations.values()
        )

    def check_integrity(self) -> bool:
        """Verify every relation's invariants and the version counter.

        Raises :class:`IntegrityError` on the first violation; returns
        True otherwise.  This is the oracle the fault-injection
        atomicity property asserts after every aborted evaluation.
        """
        total = 0
        cell = self._cell
        for key, rel in self._relations.items():
            rel.check_invariants()
            if rel.owner is not cell and (
                rel._holders is None or self not in rel._holders
            ):
                raise IntegrityError(
                    f"relation {key}: neither owned by this database "
                    f"nor shared with it by a snapshot",
                    relation=key,
                    invariant="owner",
                )
            total += rel.version
        if total != cell.version:
            raise IntegrityError(
                f"database version {cell.version} != sum of relation "
                f"versions {total}",
                invariant="version",
            )
        return True

    def __contains__(self, pred_key: str) -> bool:
        return pred_key in self._relations

    def __repr__(self):
        parts = ", ".join(
            f"{key}:{len(rel)}" for key, rel in sorted(self._relations.items())
        )
        return f"Database({parts})"
