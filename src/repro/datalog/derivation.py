"""Derivation trees: how a derived fact follows from base facts.

Section 1.1 of the paper: "for each fact that belongs to a derived
predicate, there exists a finite derivation tree … the tree has p(c) at
its root, the leaves are base facts, and each internal node is labeled
by a fact and by a rule that generates this fact from the facts labeling
its children."  The equivalence proofs (Theorems 3.1/4.1/5.1/6.1/7.1)
are inductions over these trees, and the counting indices of Section 6
are precisely encodings of derivation paths.

This module reconstructs one derivation tree per fact *after* an
evaluation, by replaying rules against the fixpoint: a fact's
derivation uses only facts derivable in strictly earlier rounds, which
we witness by recomputing the stage (round number) of every derived
fact and then searching for a rule instance whose body facts all have
smaller stages.  Reconstruction is deterministic (rules and matches are
tried in order).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from .ast import Literal, Program, Rule
from .catalog import term_catalog
from .database import Database, FactTuple, IdTuple
from .engine import EvaluationResult, EvaluationStats, fixpoint
from .errors import EvaluationError, UnsafeNegationError
from .planner import compiled_program_for
from .unify import match_sequences, resolve

__all__ = ["DerivationNode", "explain", "fact_stages"]


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


def fact_stages(
    program: Program,
    base: Database,
    result: EvaluationResult,
) -> Dict[str, Dict[FactTuple, int]]:
    """The round at which each derived fact first becomes derivable.

    Base facts (and seeded facts present in ``base``) have stage 0.
    Replays a naive fixpoint over the (already computed) result, which
    terminates in at most as many rounds as the original evaluation.
    The replay runs on the engine's round driver with a simultaneous
    round executor, stratum-wise (round numbers keep increasing across
    strata), so anti-joins of negated literals probe lower-stratum
    relations only after those are complete -- exactly like the engines.
    """
    derived_keys = result.derived_keys
    stages: Dict[str, Dict[FactTuple, int]] = {
        key: {} for key in derived_keys
    }
    # facts the caller supplied (e.g. magic seeds) are stage 0
    for key in derived_keys:
        base_relation = base.get(key)
        if base_relation is None:
            continue
        for row in base_relation:
            stages[key][row] = 0

    working = base.snapshot()
    stats = EvaluationStats()
    compiled, _ = compiled_program_for(program)
    compiled.register_indexes(working)
    resolve_row = term_catalog().resolve_row

    def simultaneous(groups):
        # evaluate the whole round against the previous round's facts so
        # that stages are simultaneous (a fact's supporters always have
        # a strictly smaller stage): nothing is added to ``working``
        # until every rule's rows are collected
        pending = [
            (
                program.rules[rule_index].head.pred_key,
                compiled.plan(rule_index).execute_batch(working, stats)[0],
            )
            for group in groups
            for rule_index, _, _, _ in group
        ]
        fresh_by_head: Dict[str, List[IdTuple]] = {}
        for head_key, rows in pending:
            if not rows:
                continue
            fresh = working.relation(head_key).add_id_rows(rows)
            if fresh:
                stage_map = stages.setdefault(head_key, {})
                for idrow in fresh:
                    stage_map[resolve_row(idrow)] = stats.iterations
                fresh_by_head.setdefault(head_key, []).extend(fresh)
        return fresh_by_head

    fixpoint(compiled, working, stats, simultaneous, seminaive=False)
    return stages


def explain(
    program: Program,
    base: Database,
    result: EvaluationResult,
    fact: Literal,
    _stages: Optional[Dict[str, Dict[FactTuple, int]]] = None,
) -> DerivationNode:
    """Reconstruct one derivation tree for a derived fact.

    ``base`` must be the database the evaluation started from (base
    relations plus any seeds); ``result`` the finished evaluation.
    Raises :class:`EvaluationError` when the fact does not hold.
    """
    if not fact.is_ground():
        raise EvaluationError(f"cannot explain non-ground fact {fact}")
    key = fact.pred_key
    row = tuple(fact.args)
    if key not in result.derived_keys:
        if result.database.has_fact(fact):
            return DerivationNode(fact)
        raise EvaluationError(f"base fact {fact} does not hold")
    if row not in result.database.tuples(key):
        raise EvaluationError(f"fact {fact} was not derived")

    stages = _stages if _stages is not None else fact_stages(
        program, base, result
    )
    return _explain_rec(program, base, result, fact, stages, set())


def _explain_rec(
    program: Program,
    base: Database,
    result: EvaluationResult,
    fact: Literal,
    stages: Dict[str, Dict[FactTuple, int]],
    in_progress: Set[Tuple[str, FactTuple]],
) -> DerivationNode:
    if fact.negated:
        # negation-as-failure support: the absence of the fact is the
        # witness, so it renders as a leaf (stratification guarantees
        # the probed relation was complete)
        return DerivationNode(fact)
    key = fact.pred_key
    row = tuple(fact.args)
    if key not in result.derived_keys:
        return DerivationNode(fact)
    stage = stages.get(key, {}).get(row)
    if stage == 0:
        # seeded fact: a leaf from the caller's perspective
        return DerivationNode(fact)
    if stage is None:
        raise EvaluationError(f"fact {fact} has no recorded stage")
    marker = (key, row)
    if marker in in_progress:
        raise EvaluationError(
            f"cyclic reconstruction for {fact}; stages are inconsistent"
        )
    in_progress.add(marker)
    try:
        for rule in program.rules_for(key):
            instance = _find_supporting_instance(
                rule, fact, result.database, stages, stage
            )
            if instance is None:
                continue
            children = []
            for body_literal in instance:
                children.append(
                    _explain_rec(
                        program, base, result, body_literal, stages,
                        in_progress,
                    )
                )
            return DerivationNode(fact, rule, tuple(children))
    finally:
        in_progress.discard(marker)
    raise EvaluationError(
        f"no rule instance re-derives {fact}; the result database does "
        "not match the program"
    )


def _negation_sequence(rule: Rule) -> Tuple[int, ...]:
    """Body indexes in source order, each negated literal deferred.

    Positive literals keep their source order; each negated literal is
    deferred to the earliest point where the positive prefix has bound
    all its variables (safe negation guarantees that point exists).
    """
    body = rule.body
    order: List[int] = []
    bound: Set = set()
    pending = [i for i, lit in enumerate(body) if lit.negated]

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
        if literal.negated:
            continue
        order.append(i)
        bound.update(literal.variables())
        flush()
    if pending:
        rule.check_safe_negation()  # raises with the offending variables
        raise UnsafeNegationError(
            f"rule {rule}: no join order binds every negated variable "
            "before its anti-join runs",
            rule=rule,
        )
    return tuple(order)


def _find_supporting_instance(
    rule: Rule,
    fact: Literal,
    database: Database,
    stages: Dict[str, Dict[FactTuple, int]],
    stage: int,
) -> Optional[List[Literal]]:
    """A ground body instance deriving ``fact`` from earlier-stage facts.

    Negated literals succeed on *absence* from the (complete, lower-
    stratum) relation and contribute their ground negated form to the
    instance, which :func:`_explain_rec` renders as a leaf.
    """
    head_binding = match_sequences(rule.head.args, fact.args)
    if head_binding is None:
        return None

    body = rule.body
    if rule.has_negation():
        sequence = _negation_sequence(rule)
    else:
        sequence = range(len(body))

    def extend(position: int, subst) -> Optional[List[Literal]]:
        if position == len(body):
            return []
        literal = body[sequence[position]]
        resolved = tuple(resolve(arg, subst) for arg in literal.args)
        key = literal.pred_key
        relation = database.get(key)
        if literal.negated:
            # the sequence defers anti-joins until resolved is ground
            if relation is not None and relation.lookup(
                tuple(range(len(resolved))), resolved
            ):
                return None
            rest = extend(position + 1, subst)
            if rest is not None:
                return [
                    Literal(
                        literal.pred, resolved, literal.adornment, True
                    )
                ] + rest
            return None
        if relation is None:
            return None
        bound_positions = tuple(
            i for i, arg in enumerate(resolved) if arg.is_ground()
        )
        lookup_key = tuple(resolved[i] for i in bound_positions)
        for row in relation.lookup(bound_positions, lookup_key):
            row_stage = stages.get(key, {}).get(row)
            if row_stage is not None and row_stage >= stage:
                continue  # would not be available strictly earlier
            extended = match_sequences(resolved, row, subst)
            if extended is None:
                continue
            rest = extend(position + 1, extended)
            if rest is not None:
                ground_literal = Literal(
                    literal.pred, row, literal.adornment
                )
                return [ground_literal] + rest
        return None

    return extend(0, head_binding)
