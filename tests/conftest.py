"""Shared test helpers: canonical rule strings for appendix comparisons,
a collector-off context for the snapshot release tests, and the
reference scan that answer selection is compared against.

The appendix-comparison tests check that our rewriters regenerate the
paper's rule sets *structurally*: rules are compared after renaming
variables to ``A, B, C, ...`` in first-occurrence order (head first),
so tests are robust to the generator's variable names.
"""

from __future__ import annotations

import contextlib
import gc
import string
from typing import Iterable, List

import pytest

from repro import Constant, Program, Rule, Struct, Variable
from repro.core.provenance import RewrittenProgram
from repro.datalog.ast import ShapeSlot
from repro.datalog.unify import match_sequences


def canonical_rule(rule: Rule) -> str:
    """The rule with variables renamed A, B, C, ... by first occurrence."""
    names = list(string.ascii_uppercase) + [
        f"V{i}" for i in range(100)
    ]
    mapping = {}
    for var in rule.variables():
        mapping[var] = Variable(names[len(mapping)])
    return str(rule.substitute(mapping))


def canonical_rules(program) -> List[str]:
    """Sorted canonical strings of a Program or RewrittenProgram."""
    if isinstance(program, RewrittenProgram):
        rules = [rr.rule for rr in program.rules]
    elif isinstance(program, Program):
        rules = list(program.rules)
    else:
        rules = [ar.rule for ar in program.rules]  # AdornedProgram
    return sorted(canonical_rule(rule) for rule in rules)


def assert_rules_equal(actual, expected: Iterable[str]) -> None:
    """Assert a rewrite's rules equal the expected canonical strings."""
    got = canonical_rules(actual)
    want = sorted(expected)
    assert got == want, (
        "rule sets differ\n--- got ---\n"
        + "\n".join(got)
        + "\n--- want ---\n"
        + "\n".join(want)
    )


def mentions_placeholder(term) -> bool:
    """True when a shape placeholder (``Query.shape``) occurs in ``term``."""
    if isinstance(term, Constant):
        return isinstance(term.value, ShapeSlot)
    return isinstance(term, Struct) and any(
        mentions_placeholder(arg) for arg in term.args
    )


@pytest.fixture
def canon():
    return canonical_rule


@contextlib.contextmanager
def refcount_only():
    """Run a block with the cyclic collector off.

    The snapshot-sharing contract promises that a dropped snapshot is
    released by reference count alone; a test that passes in here
    proves no collector pass was needed.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def reference_scan(relation, literal):
    """The answers of ``literal`` over ``relation`` by definition: decode
    every row, keep those the literal matches, project the non-ground
    positions.  The oracle for ``Relation.select`` / ``answers``."""
    free = [i for i, arg in enumerate(literal.args) if not arg.is_ground()]
    return {
        tuple(row[i] for i in free)
        for row in relation
        if match_sequences(literal.args, row) is not None
    }


def solution_counters(stats):
    """The counters every execution path must agree on exactly: they
    count body solutions and fixpoint rounds, not the work spent."""
    return (
        stats.facts_derived,
        stats.rule_firings,
        stats.duplicate_derivations,
        stats.iterations,
        dict(stats.facts_by_predicate),
    )
