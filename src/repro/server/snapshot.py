"""MVCC snapshot management over relation-level copy-on-write.

The server's concurrency model is single-writer / multi-reader over
*versions*: readers never look at the live database.  They acquire the
current :class:`Snapshot` -- a frozen ``Database.snapshot()`` (O(#
relations), no tuple copied) plus a second such snapshot holding the
materialized-view relations that were fresh at publish time -- and
read it (a view by selection on the event loop, a cold evaluation in a
worker thread) while the writer mutates the live database and, when a
mutation batch commits, publishes the next version.

Snapshots are refcounted: the manager holds one reference on the
current version, every in-flight read holds one more, and a version
retires (drops out of ``live_count``) when its last reference is
released.  Memory behaves like the write rate, not the read rate: a
writer touching k of n relations between publishes hands off k
relations -- base relations and views alike: a view the maintenance
pass did not touch is the same ``Relation`` object in consecutive
versions, and an index a reader built on it serves every later
version.  A handoff costs the write's delta while no reader pins the
version before the current one: the writer replays the rows written
since onto that released version and writes it, so consecutive
versions alternate between two objects per relation
(``Database._writable``).  Only a pinned older version makes it a
clone, which shares every index bucket with the version it was cloned
from and copies only the buckets the write appends to
(``Relation.copy``; the rows themselves are copied).  A retired
snapshot's relations free with it, except the one version per
relation the writer keeps to recycle.
"""

from __future__ import annotations

import threading
from typing import Optional

from ..datalog.database import Database

__all__ = ["Snapshot", "SnapshotManager"]


class Snapshot:
    """One published, immutable version of the served database.

    ``db`` is a copy-on-write ``Database.snapshot()`` of the live
    database at publish time; ``views`` is the copy-on-write snapshot
    ``Session.materialized_relations`` took of the maintained derived
    relations, holding them *iff* they were fresh when this version
    was published (an aborted maintenance pass publishes with no views
    -- stale answers are never served).  The snapshot keeps ``views``
    alive, and with it the holder registration that makes the writer
    clone a view before maintaining it, for exactly as long as a reader
    can reach the relations.  Reads must hold a reference (``acquire``
    / ``release``) for as long as they use either.
    """

    __slots__ = ("version", "db", "views", "_refs", "_manager", "_lock")

    def __init__(
        self,
        version: int,
        db: Database,
        views: Database,
        manager: "SnapshotManager",
    ):
        self.version = version
        self.db = db
        self.views = views
        self._refs = 1  # the manager's own reference
        self._manager = manager
        self._lock = threading.Lock()

    def acquire(self) -> "Snapshot":
        with self._lock:
            if self._refs <= 0:
                raise RuntimeError(
                    f"snapshot v{self.version} is already retired"
                )
            self._refs += 1
        return self

    def release(self) -> None:
        with self._lock:
            self._refs -= 1
            refs = self._refs
        if refs == 0:
            self._manager._retired(self)

    @property
    def refs(self) -> int:
        return self._refs

    def __repr__(self) -> str:
        return (
            f"Snapshot(v{self.version}, {len(self.db.predicate_keys())} "
            f"relations, {len(self.views.predicate_keys())} views, "
            f"refs={self._refs})"
        )


class SnapshotManager:
    """Publishes and hands out refcounted snapshots of one database.

    ``publish`` is called by the writer after each committed mutation
    batch (and once at startup); ``current`` is called per read.  Both
    take the manager lock only for pointer swaps and counter updates --
    the O(#relations) ``Database.snapshot()`` itself runs under the
    lock too, but copies no tuples, so writers never hold readers up
    for longer than a dict copy.
    """

    def __init__(self, database: Database):
        self._database = database
        self._lock = threading.Lock()
        self._current: Optional[Snapshot] = None
        self._live = 0
        #: versions published over the manager's lifetime
        self.published = 0

    def publish(self, views: Optional[Database] = None) -> Snapshot:
        """Freeze the live database as the new current snapshot."""
        with self._lock:
            snap = Snapshot(
                self._database.version,
                self._database.snapshot(),
                Database() if views is None else views,
                self,
            )
            previous = self._current
            self._current = snap
            self._live += 1
            self.published += 1
        if previous is not None:
            previous.release()  # drop the manager's reference
        return snap

    def current(self) -> Snapshot:
        """Acquire the current snapshot (caller must ``release`` it)."""
        with self._lock:
            snap = self._current
            if snap is None:
                raise RuntimeError("no snapshot published yet")
            return snap.acquire()

    def _retired(self, snap: Snapshot) -> None:
        with self._lock:
            self._live -= 1

    @property
    def live_count(self) -> int:
        """Snapshots still referenced (including the current one)."""
        return self._live

    @property
    def current_version(self) -> int:
        with self._lock:
            return -1 if self._current is None else self._current.version

    def __repr__(self) -> str:
        return (
            f"SnapshotManager(v{self.current_version}, "
            f"{self._live} live, {self.published} published)"
        )
