"""The semijoin optimization of the counting methods -- Section 8.

Counting indices encode the derivation path of every fact, so joins on
*data* columns can often be replaced by joins on *index* columns:

* **Lemma 8.1** -- in a counting or modified rule, the literals of an arc
  tail ``N`` (with their counting predicates) may be deleted when their
  variables reach the rest of the rule only through the bound arguments
  of the indexed target ``q_ind``: the counting rule for ``q`` already
  performed that join, and the index fields identify its results.
* **Lemma 8.2** -- a bound argument of an indexed occurrence whose
  variables appear nowhere else is a don't-care: the indices alone
  select the right tuples.
* **Theorem 8.3** -- when, over a whole block of mutually recursive
  indexed predicates, every bound argument is supported only circularly
  (bound arguments feeding bound arguments), the bound argument
  *positions* can be dropped program-wide, shrinking both the number of
  joins and the width of every fact.

:func:`semijoin_optimize` implements the Theorem 8.3 fixpoint (which
subsumes applications of the two lemmas); :func:`lemma_8_1_prune` and
:func:`lemma_8_2_anonymize` are the standalone lemma-level passes, kept
for the ablation benchmarks.

The analysis runs over the provenance metadata the counting rewriters
attach to every rule (``repro.core.provenance``): for each body literal
we know which adorned-rule position it came from, hence which sip arc
tail ``N`` feeds each indexed occurrence.
"""

from __future__ import annotations

import itertools
from dataclasses import replace
from typing import Dict, List, Optional, Set, Tuple

from ..datalog.ast import Literal, Rule
from ..datalog.errors import RewriteError
from ..datalog.terms import Variable
from .adornment import AdornedProgram
from .provenance import BodyOrigin, RewrittenProgram, RewrittenRule
from .rewrites import unbound_head_variables
from .sips import HEAD

__all__ = ["semijoin_optimize", "lemma_8_1_prune", "lemma_8_2_anonymize"]


# ----------------------------------------------------------------------
# shape helpers
# ----------------------------------------------------------------------

class _Shape:
    """Registry-driven classification of rewritten-program literals."""

    def __init__(self, rewritten: RewrittenProgram):
        if not rewritten.method.startswith(
            ("counting", "supplementary_counting")
        ):
            raise RewriteError(
                "the semijoin optimization applies to the counting methods "
                f"only (got method {rewritten.method!r}); see Section 8"
            )
        self.registry = rewritten.registry
        self.index_arity = rewritten.index_arity
        self.adorned: AdornedProgram = rewritten.adorned

    def kind(self, literal: Literal) -> Optional[str]:
        entry = self.registry.get(literal.pred)
        if entry is None:
            return None
        return entry[0]

    def adornment_of(self, literal: Literal) -> Optional[str]:
        entry = self.registry.get(literal.pred)
        if entry is None:
            return None
        return entry[2]

    def is_indexed(self, literal: Literal) -> bool:
        return self.kind(literal) == "indexed"

    def is_sup(self, literal: Literal) -> bool:
        return self.kind(literal) == "sup"

    def has_index_fields(self, literal: Literal) -> bool:
        return self.kind(literal) in ("indexed", "counting", "sup")

    def bound_positions(self, literal: Literal) -> Tuple[int, ...]:
        """Absolute positions of bound non-index arguments."""
        adornment = self.adornment_of(literal)
        if adornment is None or self.kind(literal) != "indexed":
            return ()
        return tuple(
            self.index_arity + i
            for i, letter in enumerate(adornment)
            if letter == "b"
        )

    def nonindex_positions(self, literal: Literal) -> Tuple[int, ...]:
        start = self.index_arity if self.has_index_fields(literal) else 0
        return tuple(range(start, len(literal.args)))

    def nonindex_variables(self, literal: Literal) -> Set[Variable]:
        out: Set[Variable] = set()
        for position in self.nonindex_positions(literal):
            out.update(literal.args[position].variables())
        return out


# variable occurrence: (body index or -1 for head, argument position)
_Occurrence = Tuple[int, int]


def _variable_occurrences(rule: Rule) -> Dict[Variable, List[_Occurrence]]:
    """Every (literal, argument-position) occurrence of every variable."""
    occurrences: Dict[Variable, List[_Occurrence]] = {}
    for arg_position, argument in enumerate(rule.head.args):
        for var in argument.variables():
            occurrences.setdefault(var, []).append((-1, arg_position))
    for body_index, literal in enumerate(rule.body):
        for arg_position, argument in enumerate(literal.args):
            for var in argument.variables():
                occurrences.setdefault(var, []).append(
                    (body_index, arg_position)
                )
    return occurrences


# ----------------------------------------------------------------------
# the Theorem 8.3 fixpoint
# ----------------------------------------------------------------------

class _Analysis:
    """Joint fixpoint state: which indexed predicates can drop their
    bound argument positions, and which supplementary positions are dead."""

    def __init__(self, rewritten: RewrittenProgram):
        self.rewritten = rewritten
        self.shape = _Shape(rewritten)
        # optimistic start: every indexed predicate drops, every sup
        # non-index position is dead; violations shrink the sets
        self.dropping: Set[str] = set()
        self.dead_sup: Set[Tuple[str, int]] = set()
        for rr in rewritten.rules:
            for literal in (rr.rule.head, *rr.rule.body):
                if self.shape.is_indexed(literal):
                    if self.shape.bound_positions(literal):
                        self.dropping.add(literal.pred)
                elif self.shape.is_sup(literal):
                    for position in self.shape.nonindex_positions(literal):
                        self.dead_sup.add((literal.pred, position))

    # ------------------------------------------------------------------
    def run(self) -> None:
        changed = True
        while changed:
            changed = False
            for rr in self.rewritten.rules:
                if self._analyze_rule(rr):
                    changed = True

    # ------------------------------------------------------------------
    def deletable_tails(self, rr: RewrittenRule) -> Set[int]:
        """Body indices deletable by Lemma 8.1 under the current state."""
        deleted: Set[int] = set()
        for occ_index, target_position in self._indexed_occurrences(rr):
            tail = self._tail_indices(rr, occ_index, target_position)
            if tail is None:
                continue
            if self._tail_vars_confined(rr, occ_index, tail):
                deleted |= tail
        return deleted

    def _indexed_occurrences(self, rr: RewrittenRule):
        """(body index, source adorned position) of indexed occurrences."""
        out = []
        for body_index, (literal, origin) in enumerate(
            zip(rr.rule.body, rr.provenance.body_origins)
        ):
            if origin.kind == "literal" and self.shape.is_indexed(literal):
                out.append((body_index, origin.position))
        return out

    def _tail_indices(
        self, rr: RewrittenRule, occ_index: int, target_position: int
    ) -> Optional[Set[int]]:
        """Body indices of the rule covering the occurrence's arc tail N.

        Returns None when the tail is not fully represented in the rule
        (so Lemma 8.1 cannot fire for this occurrence).
        """
        source_rule = rr.provenance.source_rule
        if source_rule is None or target_position is None:
            return None
        adorned_rule = self.shape.adorned.rules[source_rule]
        arcs = adorned_rule.sip.arcs_into(target_position)
        if len(arcs) != 1:
            return None
        arc = arcs[0]
        tail_nodes: Set = set(arc.tail)
        covered: Set = set()
        indices: Set[int] = set()
        for body_index, origin in enumerate(rr.provenance.body_origins):
            if body_index == occ_index:
                continue
            if origin.kind == "guard" and HEAD in tail_nodes:
                indices.add(body_index)
                covered.add(HEAD)
            elif origin.kind in ("literal", "magic") and (
                origin.position in tail_nodes
            ):
                indices.add(body_index)
                covered.add(origin.position)
            elif origin.kind == "supplementary":
                # a supplementary literal materializes the join of the
                # head bindings with all positions before origin.position
                sup_covers = {HEAD} | set(range(origin.position))
                if tail_nodes <= sup_covers:
                    indices.add(body_index)
                    covered |= tail_nodes
        if covered >= tail_nodes:
            return indices
        return None

    # ------------------------------------------------------------------
    # the two variable-confinement conditions of Theorem 8.3
    # ------------------------------------------------------------------
    def _allowed(
        self,
        rr: RewrittenRule,
        occurrence: _Occurrence,
        deleted: Set[int],
        home: Set[int],
    ) -> bool:
        """Is a variable occurrence in an 'allowed' place?

        Allowed places (Theorem 8.3): inside the literals scheduled for
        deletion; bound arguments of dropping indexed literals (head or
        body); dead supplementary positions; the home literals
        themselves.
        """
        body_index, arg_position = occurrence
        if body_index in home:
            return True
        if body_index >= 0 and body_index in deleted:
            return True
        literal = (
            rr.rule.head if body_index == -1 else rr.rule.body[body_index]
        )
        if self.shape.is_indexed(literal) and literal.pred in self.dropping:
            if arg_position in self.shape.bound_positions(literal):
                return True
        if self.shape.is_sup(literal):
            if (literal.pred, arg_position) in self.dead_sup:
                return True
        if self.shape.has_index_fields(literal) and (
            arg_position < self.shape.index_arity
        ):
            return True
        return False

    def _tail_vars_confined(
        self, rr: RewrittenRule, occ_index: int, tail: Set[int]
    ) -> bool:
        """Lemma 8.1 condition: tail variables reach the rest of the rule
        only through allowed places or the target's bound arguments."""
        occurrences = _variable_occurrences(rr.rule)
        target = rr.rule.body[occ_index]
        target_bound = set(self.shape.bound_positions(target))
        tail_vars: Set[Variable] = set()
        for body_index in tail:
            tail_vars |= self.shape.nonindex_variables(rr.rule.body[body_index])
        for var in tail_vars:
            for occurrence in occurrences.get(var, ()):
                body_index, arg_position = occurrence
                if body_index in tail:
                    continue
                if body_index == occ_index and arg_position in target_bound:
                    continue
                if not self._allowed(rr, occurrence, tail, home=set()):
                    return False
        return True

    # ------------------------------------------------------------------
    def _analyze_rule(self, rr: RewrittenRule) -> bool:
        """Check conditions in one rule; shrink the state on violations."""
        changed = False
        deleted = self.deletable_tails(rr)
        occurrences = _variable_occurrences(rr.rule)

        # condition (1): bound-argument variables of dropping occurrences
        for occ_index, _ in self._indexed_occurrences(rr):
            if occ_index in deleted:
                continue
            literal = rr.rule.body[occ_index]
            if literal.pred not in self.dropping:
                continue
            bound_positions = set(self.shape.bound_positions(literal))
            bound_vars: Set[Variable] = set()
            for position in bound_positions:
                bound_vars.update(literal.args[position].variables())
            for var in bound_vars:
                for occurrence in occurrences.get(var, ()):
                    body_index, arg_position = occurrence
                    if body_index == occ_index and arg_position in bound_positions:
                        continue
                    if not self._allowed(rr, occurrence, deleted, set()):
                        self.dropping.discard(literal.pred)
                        changed = True
                        break
                if literal.pred not in self.dropping:
                    break

        # dead supplementary positions: consumers must not use them
        for body_index, literal in enumerate(rr.rule.body):
            if body_index in deleted or not self.shape.is_sup(literal):
                continue
            for position in self.shape.nonindex_positions(literal):
                if (literal.pred, position) not in self.dead_sup:
                    continue
                for var in literal.args[position].variables():
                    for occurrence in occurrences.get(var, ()):
                        occ_body, occ_arg = occurrence
                        if occ_body == body_index and occ_arg == position:
                            continue
                        if not self._allowed(rr, occurrence, deleted, set()):
                            self.dead_sup.discard((literal.pred, position))
                            changed = True
                            break
                    if (literal.pred, position) not in self.dead_sup:
                        break
        return changed


def semijoin_optimize(rewritten: RewrittenProgram) -> RewrittenProgram:
    """Apply the full semijoin optimization (Theorem 8.3).

    Runs the joint fixpoint deciding which indexed predicates drop their
    bound argument positions and which supplementary positions die, then
    rebuilds every rule: deletable arc tails are removed (Lemma 8.1),
    dropped/dead positions disappear program-wide, and the answer
    extraction metadata is rewritten to select on the seed's index fields
    instead of the dropped bound arguments.
    """
    analysis = _Analysis(rewritten)
    analysis.run()
    return _rebuild(rewritten, analysis)


def _rebuild(
    rewritten: RewrittenProgram, analysis: _Analysis, suffix: str = "_semijoin"
) -> RewrittenProgram:
    shape = analysis.shape

    def transform(literal: Literal) -> Literal:
        if shape.is_indexed(literal) and literal.pred in analysis.dropping:
            drop = set(shape.bound_positions(literal))
            args = tuple(
                arg
                for position, arg in enumerate(literal.args)
                if position not in drop
            )
            return Literal(literal.pred, args, literal.adornment)
        if shape.is_sup(literal):
            args = tuple(
                arg
                for position, arg in enumerate(literal.args)
                if (literal.pred, position) not in analysis.dead_sup
            )
            return Literal(literal.pred, args, literal.adornment)
        return literal

    new_rules: List[RewrittenRule] = []
    for rr in rewritten.rules:
        deleted = analysis.deletable_tails(rr)
        new_body: List[Literal] = []
        new_origins: List[BodyOrigin] = []
        for body_index, (literal, origin) in enumerate(
            zip(rr.rule.body, rr.provenance.body_origins)
        ):
            if body_index in deleted:
                continue
            new_body.append(transform(literal))
            new_origins.append(origin)
        new_head = transform(rr.rule.head)
        candidate = Rule(new_head, tuple(new_body))
        if new_body and not unbound_head_variables(candidate):
            new_rules.append(rr.with_rule(candidate, new_origins))
        else:
            # deletion would break range restriction; keep the tails and
            # only apply the argument drops
            kept_body = tuple(transform(lit) for lit in rr.rule.body)
            new_rules.append(
                rr.with_rule(Rule(new_head, kept_body), rr.provenance.body_origins)
            )

    # answer metadata: when the query predicate dropped its bound
    # arguments, select on the seed's index fields instead
    answer_key = rewritten.answer_pred_key
    selection = rewritten.answer_selection
    projection = rewritten.answer_projection
    if answer_key in analysis.dropping and rewritten.seed_facts:
        seed = rewritten.seed_facts[0]
        index_args = seed.args[: rewritten.index_arity]
        selection = tuple(
            (position, value) for position, value in enumerate(index_args)
        )
        free_rank = 0
        new_projection: List[int] = []
        query_literal = rewritten.adorned.query_literal
        for arg in query_literal.args:
            if not arg.is_ground():
                new_projection.append(rewritten.index_arity + free_rank)
                free_rank += 1
        projection = tuple(new_projection)

    return RewrittenProgram(
        method=rewritten.method + suffix,
        rules=new_rules,
        seed_facts=rewritten.seed_facts,
        query=rewritten.query,
        answer_pred_key=answer_key,
        answer_selection=selection,
        answer_projection=projection,
        adorned=rewritten.adorned,
        index_arity=rewritten.index_arity,
        registry=dict(rewritten.registry),
    )


# ----------------------------------------------------------------------
# standalone lemma passes (for ablations)
# ----------------------------------------------------------------------

def lemma_8_1_prune(rewritten: RewrittenProgram) -> RewrittenProgram:
    """Apply only Lemma 8.1: delete confined arc tails, keep all columns."""
    analysis = _Analysis(rewritten)
    # disable dropping and dead positions: pure Lemma 8.1
    analysis.dropping = set()
    analysis.dead_sup = set()
    return _rebuild(rewritten, analysis, "_lemma81")


def lemma_8_2_anonymize(rewritten: RewrittenProgram) -> RewrittenProgram:
    """Apply only Lemma 8.2: anonymize don't-care bound arguments.

    A bound argument of an indexed body occurrence whose variables appear
    nowhere else in the rule is replaced by a fresh anonymous variable.
    (The relation keeps its width; only the join disappears.)
    """
    shape = _Shape(rewritten)
    counter = itertools.count()
    new_rules: List[RewrittenRule] = []
    for rr in rewritten.rules:
        occurrences = _variable_occurrences(rr.rule)
        new_body: List[Literal] = []
        for body_index, literal in enumerate(rr.rule.body):
            if not shape.is_indexed(literal):
                new_body.append(literal)
                continue
            bound_positions = set(shape.bound_positions(literal))
            new_args = list(literal.args)
            for position in bound_positions:
                argument = literal.args[position]
                lonely = all(
                    occ == (body_index, position)
                    or (occ[0] == body_index and occ[1] in bound_positions)
                    for var in argument.variables()
                    for occ in occurrences.get(var, ())
                )
                if argument.variables() and lonely:
                    new_args[position] = Variable(f"_sj{next(counter)}")
            new_body.append(
                Literal(literal.pred, tuple(new_args), literal.adornment)
            )
        new_rules.append(
            rr.with_rule(
                Rule(rr.rule.head, tuple(new_body)),
                rr.provenance.body_origins,
            )
        )
    return replace(
        rewritten,
        method=rewritten.method + "_lemma82",
        rules=new_rules,
        registry=dict(rewritten.registry),
    )
