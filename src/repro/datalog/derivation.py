"""Derivation trees: how a derived fact follows from base facts.

Section 1.1 of the paper: "for each fact that belongs to a derived
predicate, there exists a finite derivation tree … the tree has p(c) at
its root, the leaves are base facts, and each internal node is labeled
by a fact and by a rule that generates this fact from the facts labeling
its children."  The equivalence proofs (Theorems 3.1/4.1/5.1/6.1/7.1)
are inductions over these trees, and the counting indices of Section 6
are precisely encodings of derivation paths.

This module reconstructs one derivation tree per fact *after* an
evaluation, from that evaluation alone.  Its install log
(``EvaluationStats.installs``) stamps every derived row with a *tick*,
the number of the install that added it (rows the evaluation started
with, e.g. magic seeds, have tick 0); every row that install's plan
read was there before it, so a fact has a derivation over facts of
strictly smaller ticks.  A node's children are the first solution of
one compiled plan per rule, ``$w(rule variables) :- $seed(head),
body``, run by the one join executor with the fact's ID row as its
delta and each positive derived body literal reading only the slots
installed before the fact's tick.  Reconstruction is deterministic
(rules are tried in program order).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, List, Optional, Tuple

from .ast import Literal, Program, Rule
from .catalog import term_catalog
from .database import Database, FactTuple, IdTuple
from .engine import EvaluationResult, EvaluationStats, _IdDeltaBatch, evaluate
from .errors import EvaluationError
from .planner import JoinPlan, PlanCache, compile_rule
from .terms import Variable

__all__ = ["DerivationNode", "explain", "explain_answers", "fact_stages"]


@dataclass
class DerivationNode:
    """One node of a derivation tree.

    ``rule`` is None for leaves (base facts / seeds).
    """

    literal: Literal
    rule: Optional[Rule] = None
    children: Tuple["DerivationNode", ...] = ()

    def is_leaf(self) -> bool:
        return self.rule is None

    def height(self) -> int:
        if not self.children:
            return 1
        return 1 + max(child.height() for child in self.children)

    def size(self) -> int:
        return 1 + sum(child.size() for child in self.children)

    def leaves(self) -> List[Literal]:
        if not self.children:
            return [self.literal]
        out: List[Literal] = []
        for child in self.children:
            out.extend(child.leaves())
        return out

    def render(self, indent: str = "") -> str:
        """A human-readable tree rendering."""
        label = str(self.literal)
        if self.rule is not None:
            label += f"   [by {self.rule}]"
        lines = [indent + label]
        for child in self.children:
            lines.append(child.render(indent + "  "))
        return "\n".join(lines)

    def __str__(self):
        return self.render()


class _Stamps:
    """The ticks of one evaluation's rows, decoded from its install log.

    Per derived predicate, ``counts`` holds the slot count at the start
    (the rows of ``base``) and after each of its installs, ``ticks`` the
    number of each install (0 for the start), both ascending.
    """

    def __init__(self, base: Database, result: EvaluationResult):
        self.marks: Dict[str, Tuple[List[int], List[int]]] = {}
        for key in result.derived_keys:
            relation = base.get(key)
            start = 0 if relation is None else relation.slot_count()
            self.marks[key] = ([start], [0])
        for tick, (key, count) in enumerate(result.stats.installs, 1):
            counts, ticks = self.marks[key]
            counts.append(count)
            ticks.append(tick)

    def tick(self, key: str, slot: int) -> int:
        """The tick of the row of ``key`` stored at ``slot``."""
        counts, ticks = self.marks[key]
        return ticks[bisect_right(counts, slot)]

    def watermark(self, key: str, tick: int) -> int:
        """The slot count of ``key`` before install ``tick``."""
        counts, ticks = self.marks[key]
        return counts[bisect_left(ticks, tick) - 1]


def fact_stages(
    base: Database, result: EvaluationResult
) -> Dict[str, Dict[FactTuple, int]]:
    """The tick of every derived fact: the number of the install that
    added it, in install order from 1.

    Rows already in ``base`` (the database the evaluation started from,
    e.g. with magic seeds) have tick 0.  A pure decode of ``result``'s
    install log: nothing is evaluated again.
    """
    stamps = _Stamps(base, result)
    resolve_row = term_catalog().resolve_row
    stages: Dict[str, Dict[FactTuple, int]] = {}
    for key in result.derived_keys:
        relation = result.database.get(key)
        rowmap = {} if relation is None else relation._rowmap
        stages[key] = {
            resolve_row(idrow): stamps.tick(key, slot)
            for idrow, slot in rowmap.items()
        }
    return stages


@lru_cache(maxsize=256)
def _support_plan(rule: Rule) -> Tuple[JoinPlan, Tuple[Variable, ...]]:
    """The plan of ``$w(variables) :- $seed(head args), body`` with the
    seed as its delta: a fact's ID row in, the rule's body solutions
    that derive it out, one value per variable."""
    variables = rule.variables()
    seeded = Rule(
        Literal("$w", variables),
        (Literal("$seed", rule.head.args),) + rule.body,
    )
    return compile_rule(seeded, 0), variables


def explain(
    program: Program,
    base: Database,
    result: EvaluationResult,
    fact: Literal,
) -> DerivationNode:
    """Reconstruct one derivation tree for a derived fact.

    ``base`` must be the database the evaluation started from (base
    relations plus any seeds); ``result`` the finished evaluation.
    Raises :class:`EvaluationError` when the fact does not hold.
    """
    if not fact.is_ground():
        raise EvaluationError(f"cannot explain non-ground fact {fact}")
    key = fact.pred_key
    if key not in result.derived_keys:
        if result.database.has_fact(fact):
            return DerivationNode(fact)
        raise EvaluationError(f"base fact {fact} does not hold")
    relation = result.database.get(key)
    id_of = term_catalog().id_of
    idrow = tuple(id_of(arg) for arg in fact.args)
    if relation is None or idrow not in relation._rowmap:
        raise EvaluationError(f"fact {fact} was not derived")
    return _Search(program, result, _Stamps(base, result)).tree(fact, idrow)


class _Search:
    """The tree search over one evaluation (see the module docstring)."""

    def __init__(self, program, result, stamps):
        self.program = program
        self.database = result.database
        self.derived = result.derived_keys
        self.stamps = stamps
        self.stats = EvaluationStats()

    def tree(self, fact: Literal, idrow: IdTuple) -> DerivationNode:
        key = fact.pred_key
        tick = self.stamps.tick(key, self.database.get(key)._rowmap[idrow])
        if tick == 0:
            # a row the evaluation started with: a leaf from the
            # caller's perspective
            return DerivationNode(fact)
        resolve_row = term_catalog().resolve_row
        for rule in self.program.rules_for(key):
            plan, variables = _support_plan(rule)
            windows = {
                i: (0, self.stamps.watermark(literal.pred_key, tick))
                for i, literal in enumerate(rule.body, 1)
                if not literal.negated and literal.pred_key in self.derived
            }
            rows, _, _ = plan.execute_batch(
                self.database, self.stats, _IdDeltaBatch([idrow]), None,
                windows,
            )
            if rows:
                binding = dict(zip(variables, resolve_row(rows[0])))
                return DerivationNode(fact, rule, tuple(
                    self.child(literal.substitute(binding))
                    for literal in rule.body
                ))
        raise EvaluationError(
            f"no rule instance re-derives {fact}; the result database does "
            "not match the program"
        )

    def child(self, literal: Literal) -> DerivationNode:
        # a negated literal is a negation-as-failure leaf: its absence
        # from the (complete, lower-stratum) relation is the witness
        if literal.negated or literal.pred_key not in self.derived:
            return DerivationNode(literal)
        return self.tree(literal, term_catalog().intern_row(literal.args))


def explain_answers(
    program: Program,
    base: Database,
    query: Literal,
    limit: Optional[int] = None,
    plan_cache: Optional[PlanCache] = None,
) -> Tuple[int, List[DerivationNode]]:
    """Evaluate ``program`` over ``base`` once and explain the answers
    of ``query`` in sorted order (so the output is deterministic), up
    to ``limit`` of them.  Returns the number of answers and the
    trees."""
    result = evaluate(program, base, plan_cache=plan_cache)
    answers = sorted(result.database.answers(query), key=str)
    free = [i for i, arg in enumerate(query.args) if not arg.is_ground()]
    trees = []
    for row in answers[: None if limit is None else max(limit, 0)]:
        binding = dict(zip(free, row))
        args = tuple(binding.get(i, arg) for i, arg in enumerate(query.args))
        trees.append(explain(program, base, result, Literal(query.pred, args)))
    return len(answers), trees
