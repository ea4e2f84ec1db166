"""Shared test helpers: canonical rule strings for appendix comparisons,
a collector-off context for the snapshot release tests, the reference
scan that answer selection is compared against, the body-solution count
exact semi-naive is checked against, the count of query front-end
calls (:func:`front_end_calls`), and the reference evaluator
(:func:`oracle_facts`) every bottom-up and top-down path is checked
against.

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
from repro.core import pipeline
from repro.core.provenance import RewrittenProgram
from repro.datalog.ast import ShapeSlot
from repro.datalog.engine import EvaluationStats
from repro.datalog.planner import compiled_program_for
from repro.datalog.unify import match_sequences, resolve


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


@pytest.fixture
def front_end_calls(monkeypatch):
    """Count the calls ``answer_query`` makes to ``adorn_program`` /
    ``pipeline.rewrite`` (the names ``repro.core.pipeline`` builds a
    shape with)."""
    calls = {"adorn": 0, "rewrite": 0}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(
        pipeline, "adorn_program", counting("adorn", pipeline.adorn_program)
    )
    monkeypatch.setattr(
        pipeline, "rewrite", counting("rewrite", pipeline.rewrite)
    )
    return calls


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


def body_solutions(program, database):
    """The body solutions of every rule of ``program`` over ``database``
    (each rule's full plan run once): what exact semi-naive evaluation
    reports as ``rule_firings`` when ``database`` is its final model."""
    compiled, _ = compiled_program_for(program)
    stats = EvaluationStats()
    return sum(
        compiled.plan(ri).execute_batch(database, stats)[2]
        for ri in range(len(program.rules))
    )


# ----------------------------------------------------------------------
# reference evaluator
# ----------------------------------------------------------------------

def oracle_facts(program, database):
    """The stratified model of ``program`` over ``database``, by definition.

    Naive rounds stratum by stratum: every rule is re-joined against
    full scans of every relation with the one-way matcher
    (``resolve`` / ``match_sequences``, so structs, lists and
    ``LinExpr`` arguments need no special case), and negated literals
    are anti-joins against the lower strata, which are complete by
    then.  Returns ``{pred_key: set of term tuples}`` for every base
    and derived predicate.  No planning, indexing, IDs or deltas: slow
    and obviously right.
    """
    facts = {key: database.tuples(key) for key in database.predicate_keys()}
    for key in program.derived_predicates():
        facts.setdefault(key, set())
    for rules in _oracle_strata(program):
        changed = True
        while changed:
            derived = [
                (rule.head.pred_key, row)
                for rule in rules
                for row in _oracle_heads(rule, facts)
            ]
            changed = False
            for key, row in derived:
                if row not in facts[key]:
                    facts[key].add(row)
                    changed = True
    return facts


def _oracle_strata(program):
    """The rules grouped by predicate level, lowest level first.

    Levels come by relaxation: a positive dependency gives ``>=``, a
    negative one ``>``.  They need not be the least levels -- every
    stratification has the same perfect model.
    """
    level = {}
    changed = True
    while changed:
        changed = False
        for rule in program.rules:
            head = rule.head.pred_key
            for literal in rule.body:
                least = level.get(literal.pred_key, 0) + literal.negated
                if level.get(head, 0) < least:
                    assert least <= len(program.rules), "not stratified"
                    level[head] = least
                    changed = True
    strata = {}
    for rule in program.rules:
        strata.setdefault(level.get(rule.head.pred_key, 0), []).append(rule)
    return [strata[number] for number in sorted(strata)]


def _oracle_heads(rule, facts):
    """Every head instance of ``rule`` over ``facts`` (one naive round)."""
    substs = [{}]
    # safe negation: every negated variable is bound by some positive
    # literal, so running the anti-joins last sees them ground
    for literal in sorted(rule.body, key=lambda lit: lit.negated):
        rows = facts.get(literal.pred_key, set())
        extended = []
        for subst in substs:
            args = tuple(resolve(arg, subst) for arg in literal.args)
            if literal.negated:
                if args not in rows:
                    extended.append(subst)
                continue
            for row in rows:
                match = match_sequences(args, row, subst)
                if match is not None:
                    extended.append(match)
        substs = extended
    return [tuple(resolve(arg, s) for arg in rule.head.args) for s in substs]


def oracle_answers(program, database, query):
    """The oracle's answers to ``query`` (free positions projected)."""
    facts = oracle_facts(program, database)[query.literal.pred_key]
    return reference_scan(facts, query.literal)


def assert_matches_oracle(result, program, database):
    """Every derived relation of an evaluation equals the oracle's."""
    expected = oracle_facts(program, database)
    for key in program.derived_predicates():
        assert result.database.tuples(key) == expected[key], key
