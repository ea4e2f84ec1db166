"""Predicate-name mangling for the rewriting algorithms.

The rewrites introduce auxiliary predicates (magic, supplementary,
counting, indexed, labels).  Generated names fold the adornment in
(``magic_sg_bf`` for the paper's ``magic_sg^bf``), so each adorned
version gets its own relation.  Keeping the scheme in one place makes the
appendix-comparison tests readable.  The names are not made fresh: a
program or database that already uses one would mix its rows into the
rewrite's, so :func:`repro.core.pipeline.answer_query` rejects the
rewrite for such a query (``auto`` then answers semi-naive).
"""

from __future__ import annotations

__all__ = [
    "magic_name",
    "supplementary_name",
    "counting_name",
    "indexed_name",
    "supplementary_counting_name",
    "label_name",
    "is_generated_name",
    "is_indexed_name",
]

_MAGIC_PREFIX = "magic_"
_COUNTING_PREFIX = "cnt_"
_INDEXED_MARK = "_ix_"
_SUP_PREFIX = "supmagic"
_SUPCNT_PREFIX = "supcnt"
_LABEL_PREFIX = "label_"


def magic_name(pred: str, adornment: str) -> str:
    """Name of the magic predicate for ``pred^adornment`` (Section 4)."""
    return f"{_MAGIC_PREFIX}{pred}_{adornment}"


def supplementary_name(rule_index: int, position: int) -> str:
    """Name of a supplementary magic predicate (Section 5).

    ``rule_index`` is the 1-based index of the adorned rule; ``position``
    the 1-based body position the predicate feeds: ``supmagicR_J`` is the
    join of the head bindings with body literals ``1 .. J-1``.
    """
    return f"{_SUP_PREFIX}{rule_index}_{position}"


def counting_name(pred: str, adornment: str) -> str:
    """Name of the counting predicate for ``pred^adornment`` (Section 6)."""
    return f"{_COUNTING_PREFIX}{pred}_{adornment}"


def indexed_name(pred: str, adornment: str) -> str:
    """Name of the indexed version ``p_ind`` of an adorned predicate."""
    return f"{pred}{_INDEXED_MARK}{adornment}"


def supplementary_counting_name(rule_index: int, position: int) -> str:
    """Name of a supplementary counting predicate (Section 7)."""
    return f"{_SUPCNT_PREFIX}{rule_index}_{position}"


def label_name(pred: str, rule_index: int, position: int, arc_index: int) -> str:
    """Name of a label predicate (Section 4, multiple arcs per target)."""
    return f"{_LABEL_PREFIX}{pred}_{rule_index}_{position}_{arc_index}"


def is_generated_name(pred: str) -> bool:
    """True when a predicate name looks like one of our generated names."""
    return (
        pred.startswith(_MAGIC_PREFIX)
        or pred.startswith(_COUNTING_PREFIX)
        or pred.startswith(_SUP_PREFIX)
        or pred.startswith(_SUPCNT_PREFIX)
        or pred.startswith(_LABEL_PREFIX)
        or _INDEXED_MARK in pred
    )


def is_indexed_name(pred: str) -> bool:
    """True for indexed (``p_ind``) predicate names."""
    return _INDEXED_MARK in pred and not (
        pred.startswith(_COUNTING_PREFIX) or pred.startswith(_MAGIC_PREFIX)
    )
