"""Stratified negation: dependency strata for negation-as-failure.

The paper's programs are positive Horn clauses, but the scenarios magic
sets are routinely applied to -- bill-of-materials with exception lists,
reachability avoiding a node set, set-difference views -- need negated
body literals.  This module supplies the classic *stratified* semantics
[Apt, Blair & Walden; Van Gelder]:

* build the predicate dependency graph with polarity labels (an edge is
  *negative* when the body occurrence is negated);
* reject programs whose dependency graph has a cycle through negation
  (:class:`~repro.datalog.errors.StratificationError` -- such programs
  have no stratified model);
* otherwise emit a stratum numbering: base predicates at stratum 0,
  every positive dependency within a stratum, every negative dependency
  pointing strictly downward.

The bottom-up engines (:mod:`repro.datalog.engine`) consume the rule
partition directly: each stratum is evaluated to its fixpoint before any
higher stratum runs, so a negated literal always probes a *completed*
relation and negation-as-failure coincides with set complement.  The
planner compiles negated literals as anti-joins against those completed
relations.

Safe negation (every variable of a negated literal bound by a positive
literal of the same rule) is checked separately -- see
:func:`repro.core.safety.check_safe_negation`.

The magic/supplementary rewrites accept stratified programs through the
conservative extension (Balbin et al. / Kemp style) implemented in
:mod:`repro.core.adornment`: bindings are never pushed through
negation, negated occurrences are carried into the rewritten rules
unchanged, and the rewrite pipeline re-stratifies its output via
:func:`stratify_or_raise` (the conservative rewrite preserves
stratifiability; a failure there is an internal invariant violation).
The counting rewrites and the QSQ evaluator remain positive-only.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from ..datalog.analysis import polarity_edges, stratify_rules
from ..datalog.ast import Program
from ..datalog.errors import StratificationError

__all__ = [
    "Stratification",
    "stratify",
    "stratify_or_raise",
    "is_stratified",
    "check_stratified",
]


@dataclass(frozen=True)
class Stratification:
    """A stratum ordering for a program.

    ``predicate_stratum`` maps every predicate key (base and derived) to
    its stratum number; ``rule_strata`` partitions the program's rule
    indexes by head stratum, lowest stratum first, original rule order
    preserved within a stratum.
    """

    program: Program
    predicate_stratum: Dict[str, int]
    rule_strata: Tuple[Tuple[int, ...], ...]

    def __len__(self) -> int:
        """The number of (non-empty) rule strata."""
        return len(self.rule_strata)

    def stratum_of(self, pred_key: str) -> int:
        """The stratum of a predicate (base predicates sit at 0)."""
        return self.predicate_stratum.get(pred_key, 0)

    def stratum_programs(self) -> Tuple[Program, ...]:
        """One subprogram per stratum, in evaluation order."""
        return tuple(
            Program(tuple(self.program.rules[i] for i in indexes))
            for indexes in self.rule_strata
        )

    def negative_edges(self) -> Tuple[Tuple[str, str], ...]:
        """The (head, dependency) pairs linked through negation."""
        return tuple(
            (head, dep)
            for head, dep, negative in polarity_edges(self.program)
            if negative
        )

    def __str__(self) -> str:
        lines: List[str] = []
        for number, indexes in enumerate(self.rule_strata):
            heads = sorted(
                {self.program.rules[i].head.pred_key for i in indexes}
            )
            lines.append(
                f"stratum {number}: {', '.join(heads)} "
                f"({len(indexes)} rules)"
            )
        return "\n".join(lines)


def stratify(program: Program) -> Stratification:
    """Stratify a program, rejecting recursion through negation.

    Raises :class:`StratificationError` when the dependency graph has a
    cycle containing a negative edge.  A positive program stratifies
    into a single stratum, so the engines can stratify unconditionally.
    """
    predicate_stratum, rule_strata = stratify_rules(program)
    return Stratification(
        program=program,
        predicate_stratum=predicate_stratum,
        rule_strata=rule_strata,
    )


def stratify_or_raise(program: Program, context: str = "") -> Stratification:
    """:func:`stratify`, prefixing failures with a caller context.

    The rewrite pipeline calls this on rewrite *output*: the
    conservative magic rewrites preserve stratifiability, so a failure
    with a ``context`` names the rewrite invariant that broke rather
    than blaming the input program.
    """
    try:
        predicate_stratum, rule_strata = stratify_rules(program)
    except StratificationError as exc:
        if not context:
            raise
        raise StratificationError(
            f"{context}: {exc}", cycle=exc.cycle
        ) from exc
    return Stratification(
        program=program,
        predicate_stratum=predicate_stratum,
        rule_strata=rule_strata,
    )


def is_stratified(program: Program) -> bool:
    """True when the program admits a stratification."""
    try:
        stratify_rules(program)
    except StratificationError:
        return False
    return True


def check_stratified(program: Program) -> None:
    """Raise :class:`StratificationError` unless stratified."""
    stratify_rules(program)
