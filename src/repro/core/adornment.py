"""The adorned rule set ``P^ad`` -- Section 3.

Given a program, a query, and a sip builder, construct the adorned
program: every derived predicate is specialized by the binding patterns
(adornments) in which it can be invoked, starting from the query's
pattern and propagating through the chosen sips.

Key paper rules implemented here:

* an argument of a body occurrence is bound in its adornment iff *all*
  its variables appear in the union ``chi_i`` of incoming arc labels
  (a constant argument is vacuously bound -- unless the occurrence has
  no incoming arc at all, in which case the adornment is all-free);
* one adorned version of a rule per adorned head predicate, with the sip
  chosen at "compile time" (no dynamic sip selection);
* the construction terminates because there are finitely many adornments.

The body of each adorned rule is reordered by the sip's total order
(condition 3'), which is the "canonical" form the appendix uses, and the
sip is remapped onto the reordered body so downstream transforms can
assume arcs only point right.

Stratified negation (conservative extension, Balbin et al. / Kemp
style): the paper's construction is defined for positive programs, but
safe stratified programs are accepted here with the standard
conservative treatment.  A negated body literal is a pure *consumer*:
at evaluation time every one of its variables is bound by the positive
part of the rule (the safe-negation rule guarantees a binder exists,
and the adorned body places negated literals after all positive ones),
so the anti-join always runs fully bound.  For *specialization*,
however, bindings are never pushed through negation: a negated derived
occurrence is adorned all-free, so its definition is reached at the
all-free adornment and computed **completely** -- an anti-join that
probed a magic-restricted (hence possibly incomplete) relation would
treat "not derived yet" as "false" and be unsound.  The rewrites then
carry negated literals unchanged and never emit magic rules for them.
Programs whose dependency graph cycles through negation are rejected
up front (:class:`~repro.datalog.errors.StratificationError`), as are
unsafe rules (:class:`~repro.datalog.errors.UnsafeNegationError`).
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, List, Optional, Set, Tuple

from ..datalog.analysis import stratify
from ..datalog.ast import ALL_FREE, Literal, Program, Query, Rule
from ..datalog.errors import AdornmentError
from .sips import Sip, SipBuilder, build_full_sip

__all__ = ["AdornedRule", "AdornedProgram", "adorn_program"]


@dataclass(frozen=True)
class AdornedRule:
    """One adorned rule: head/body literals adorned, body in sip order.

    ``sip`` refers to positions of the *reordered* body.  ``source`` is
    the original rule (before adornment/reordering).
    """

    rule: Rule
    sip: Sip
    source: Rule

    @property
    def head(self) -> Literal:
        return self.rule.head

    @property
    def body(self) -> Tuple[Literal, ...]:
        return self.rule.body

    def __str__(self):
        return str(self.rule)


@dataclass
class AdornedProgram:
    """The adorned program ``P^ad`` with its query and sips."""

    rules: Tuple[AdornedRule, ...]
    query: Query
    query_literal: Literal  # the adorned query literal
    original: Program

    @cached_property
    def program(self) -> Program:
        return Program(tuple(ar.rule for ar in self.rules))

    def bind(self, query: Query) -> "AdornedProgram":
        """This adorned program, asked ``query`` instead.

        ``query`` must have the shape this program was adorned for (same
        predicate, the same arguments ground): the rules and their sips
        depend on nothing else, so the copy shares them -- and the one
        :attr:`program` object, which keeps plan-cache lookups an
        identity hit -- and only the query literal carries constants.
        """
        bound = copy.copy(self)
        bound.query = query
        bound.query_literal = query.literal.with_adornment(
            self.query_literal.adornment
        )
        return bound

    def adorned_predicates(self) -> Set[str]:
        return {ar.head.pred_key for ar in self.rules}

    def rules_for(self, pred_key: str) -> Tuple[AdornedRule, ...]:
        return tuple(ar for ar in self.rules if ar.head.pred_key == pred_key)

    def max_body_length(self) -> int:
        """The paper's ``t``: the largest number of body literals."""
        if not self.rules:
            return 0
        return max(len(ar.body) for ar in self.rules)

    def __len__(self):
        return len(self.rules)

    def __str__(self):
        lines = [str(ar.rule) for ar in self.rules]
        lines.append(f"% query: {self.query_literal}?")
        return "\n".join(lines)


def adorn_program(
    program: Program,
    query: Query,
    sip_builder: SipBuilder = build_full_sip,
    require_connected: bool = True,
) -> AdornedProgram:
    """Construct the adorned program for a query (Section 3).

    Worklist over adorned predicates: start from the query's adornment;
    for each unmarked adorned predicate and each rule defining it, choose
    a sip (via ``sip_builder``), derive the body adornments from the
    incoming labels, and enqueue any new adorned predicates.

    Theorem 3.1 / Corollary 3.2 guarantee ``(P, q)`` and
    ``(P^ad, q^a)`` are equivalent; the integration tests check this on
    random databases.  Stratified programs are adorned conservatively
    (see the module docstring): unsafe or unstratifiable negation is
    rejected here, before any rewrite work happens.
    """
    if program.has_negation():
        for rule in program.rules:
            rule.check_safe_negation()
        stratify(program)
    program.validate(
        require_connected=require_connected, require_well_formed=False
    )
    derived_names = {rule.head.pred for rule in program.rules}

    def is_derived(literal: Literal) -> bool:
        return literal.pred in derived_names

    query_adornment = query.adornment
    if query.pred not in derived_names:
        raise AdornmentError(
            f"query predicate {query.pred} is not defined by the program"
        )

    adorned_rules: List[AdornedRule] = []
    worklist: List[Tuple[str, str]] = [(query.pred, query_adornment)]
    processed: Set[Tuple[str, str]] = set()

    while worklist:
        pred, adornment = worklist.pop(0)
        if (pred, adornment) in processed:
            continue
        processed.add((pred, adornment))
        for rule in program.rules_for_pred_name(pred):
            adorned_rule = _adorn_rule(rule, adornment, sip_builder, is_derived)
            adorned_rules.append(adorned_rule)
            for literal in adorned_rule.body:
                if literal.adornment is not None:
                    key = (literal.pred, literal.adornment)
                    if key not in processed:
                        worklist.append(key)

    query_literal = query.literal.with_adornment(query_adornment)
    return AdornedProgram(
        rules=tuple(adorned_rules),
        query=query,
        query_literal=query_literal,
        original=program,
    )


def _adorn_rule(
    rule: Rule,
    adornment: str,
    sip_builder: SipBuilder,
    is_derived: Callable[[Literal], bool],
) -> AdornedRule:
    """Produce the adorned version of one rule for one head adornment."""
    sip = sip_builder(rule, adornment, is_derived)
    order = sip.total_order()
    if rule.has_negation():
        # negated literals go last (after every positive literal, in
        # their sip order among themselves): they are consumers whose
        # anti-join needs the positive prefix to have bound all their
        # variables, and the rewrites read the adorned body as
        # "positive prefix, then carried-along negated literals"
        order = tuple(
            p for p in order if not rule.body[p].negated
        ) + tuple(p for p in order if rule.body[p].negated)
    position_map = {old: new for new, old in enumerate(order)}

    adorned_body: List[Optional[Literal]] = [None] * len(rule.body)
    for old_position, literal in enumerate(rule.body):
        if is_derived(literal):
            if literal.negated:
                # conservative restriction: never specialize through
                # negation -- the occurrence's definition is reached
                # all-free and computed completely, so the anti-join
                # probes the full relation (at probe time all its
                # variables are nevertheless bound by the positive
                # prefix; safe negation guarantees the binders exist)
                adorned_body[position_map[old_position]] = (
                    literal.with_adornment(ALL_FREE(literal.arity))
                )
                continue
            incoming = sip.incoming_label(old_position)
            if sip.arcs_into(old_position):
                bound_vars = set(incoming)
                letters = []
                for argument in literal.args:
                    arg_vars = set(argument.variables())
                    if arg_vars <= bound_vars:
                        letters.append("b")
                    else:
                        letters.append("f")
                body_adornment = "".join(letters)
            else:
                # no incoming arc: all-free (Section 3)
                body_adornment = "f" * literal.arity
            adorned_body[position_map[old_position]] = literal.with_adornment(
                body_adornment
            )
        else:
            adorned_body[position_map[old_position]] = literal

    adorned_head = rule.head.with_adornment(adornment)
    adorned = Rule(adorned_head, tuple(adorned_body))
    remapped_sip = sip.remapped(position_map, adorned)
    return AdornedRule(rule=adorned, sip=remapped_sip, source=rule)
