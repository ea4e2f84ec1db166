"""Interning of ground terms into dense integer IDs.

The columnar storage layer (:mod:`repro.datalog.database`) does not
store :class:`~repro.datalog.terms.Term` objects in its relations.  It
stores *term IDs*: small integers handed out by a process-wide
:class:`TermCatalog`.  Interning a ground term hashes it exactly once
for its whole lifetime; afterwards every insert, probe, and join over
that term is integer arithmetic on ``array('q')`` columns instead of
re-hashing a tuple of Python objects per touch.

The catalog is append-only and process-wide: IDs are dense (0, 1, 2,
...), never reused, and identical terms always intern to the same ID,
so equality of ground rows is equality of their int tuples and a hash
index keyed by ints is exactly as selective as one keyed by terms.
``resolve`` returns the canonical stored term object, so resolving is a
list indexing operation and resolved rows share structure.
"""

from __future__ import annotations

import threading
from typing import Dict, Iterable, List, Tuple

from .terms import Term

__all__ = ["TermCatalog", "term_catalog"]


class TermCatalog:
    """A bidirectional, append-only mapping ground ``Term`` <-> int ID.

    Thread-safe: reads (``id_of``/``resolve``) are lock-free -- they
    only see fully published entries because allocation appends to
    ``_terms`` *before* publishing the ID in ``_ids`` -- and allocation
    takes a lock so two threads interning distinct new terms can never
    be handed the same ID.  The hit path stays a single dict probe.
    """

    __slots__ = ("_ids", "_terms", "_alloc_lock")

    def __init__(self) -> None:
        self._ids: Dict[Term, int] = {}
        self._terms: List[Term] = []
        self._alloc_lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._terms)

    def intern(self, term: Term) -> int:
        """Return the ID for ``term``, assigning a fresh one if needed.

        Only ground terms may be interned: IDs stand for database
        values, and a variable is not a value.
        """
        term_id = self._ids.get(term)
        if term_id is None:
            if not term.is_ground():
                raise ValueError(f"cannot intern non-ground term {term}")
            with self._alloc_lock:
                term_id = self._ids.get(term)
                if term_id is None:
                    term_id = len(self._terms)
                    self._terms.append(term)
                    self._ids[term] = term_id
        return term_id

    def id_of(self, term: Term) -> int:
        """The ID of an already-interned term, or ``-1`` if never seen.

        Unlike :meth:`intern` this never allocates: it is the read-only
        probe used by lookups, where an unknown term simply cannot match
        any stored row.
        """
        return self._ids.get(term, -1)

    def resolve(self, term_id: int) -> Term:
        """The canonical term for an ID (list indexing; shares structure)."""
        return self._terms[term_id]

    def intern_row(self, row: Iterable[Term]) -> Tuple[int, ...]:
        """Bulk :meth:`intern` over one tuple of terms."""
        ids = self._ids
        out = []
        for term in row:
            term_id = ids.get(term)
            if term_id is None:
                term_id = self.intern(term)
            out.append(term_id)
        return tuple(out)

    def resolve_row(self, ids: Iterable[int]) -> Tuple[Term, ...]:
        """Bulk :meth:`resolve` over one tuple of IDs."""
        terms = self._terms
        return tuple(terms[i] for i in ids)

    def export_state(self) -> Tuple[Term, ...]:
        """A snapshot of the ID space: the tuple's index *is* the term's
        ID.

        The catalog only appends, so the snapshot stays a valid prefix
        of it; it lets a caller see exactly which terms were interned
        after some point (``export_state()[before:]``).
        """
        with self._alloc_lock:
            return tuple(self._terms)

    def __repr__(self) -> str:
        return f"TermCatalog({len(self._terms)} terms)"


#: The process-wide catalog all relations share.  A single catalog keeps
#: IDs comparable across databases, sessions, plan caches, and copies --
#: which is what lets Database.copy() duplicate raw int columns without
#: ever touching a Term.
_CATALOG = TermCatalog()


def term_catalog() -> TermCatalog:
    """The process-wide :class:`TermCatalog` singleton."""
    return _CATALOG
