"""One-way matching over the term language.

:func:`match` binds the variables of a possibly non-ground pattern to
the parts of a ground term.  It serves the join planner's
structured-term fallback (the ``_MATCH`` row op),
:meth:`Relation.matching`, the top-down evaluator's answer selection,
derivation-tree replay and the reference evaluator in the tests;
:func:`resolve` walks a term through the substitution a match builds.

Matching understands :class:`~repro.datalog.terms.LinExpr` index
expressions: an expression ``c*V + d`` matched against an integer
constant ``n`` solves for ``V`` (failing when ``(n - d)`` is not
divisible by ``c``), which is what lets the index fields of the
generalized counting method (Section 6) run under ordinary bottom-up
evaluation.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from .terms import Constant, LinExpr, Struct, Term, Variable

__all__ = [
    "Substitution",
    "match",
    "match_into",
    "match_sequences",
    "resolve",
]

#: A substitution maps variables to terms.
Substitution = Dict[Variable, Term]


def resolve(term: Term, subst: Substitution) -> Term:
    """Walk a term through a substitution until a fixed point.

    Unlike :meth:`Term.substitute` this follows chains
    (``X -> Y, Y -> c`` resolves ``X`` to ``c``), and it evaluates a
    :class:`LinExpr` whose variable is bound to an integer.
    """
    while isinstance(term, Variable) and term in subst:
        term = subst[term]
    if isinstance(term, Struct) and term.variables():
        return Struct(term.functor, tuple(resolve(a, subst) for a in term.args))
    if isinstance(term, LinExpr):
        inner = resolve(term.var, subst)
        if inner is not term.var:
            return term.apply_to(inner) if not isinstance(inner, Struct) else term
    return term


def match(
    pattern: Term,
    ground: Term,
    subst: Optional[Substitution] = None,
) -> Optional[Substitution]:
    """One-way match: bind the pattern's variables to parts of a ground term.

    The ground side must not gain bindings; used for joining body literals
    against stored facts.
    """
    if subst is None:
        subst = {}
    result = dict(subst)
    if _match_into(pattern, ground, result):
        return result
    return None


def match_into(
    pattern: Term,
    ground: Term,
    subst: Substitution,
) -> bool:
    """Mutating variant of :func:`match` for callers that own ``subst``.

    Extends ``subst`` in place with the pattern's bindings and reports
    success; on failure ``subst`` may hold partial bindings.  The join
    planner's structured-term fallback uses this to avoid a second dict
    copy per candidate row.
    """
    return _match_into(pattern, ground, subst)


def match_sequences(
    patterns: Sequence[Term],
    grounds: Sequence[Term],
    subst: Optional[Substitution] = None,
) -> Optional[Substitution]:
    """Match a sequence of patterns against a ground tuple."""
    if len(patterns) != len(grounds):
        return None
    if subst is None:
        subst = {}
    result = dict(subst)
    for pattern, ground in zip(patterns, grounds):
        if not _match_into(pattern, ground, result):
            return None
    return result


def _match_into(pattern: Term, ground: Term, subst: Substitution) -> bool:
    pattern = resolve(pattern, subst)
    if isinstance(pattern, Variable):
        subst[pattern] = ground
        return True
    if isinstance(pattern, Constant):
        return pattern == ground
    if isinstance(pattern, LinExpr):
        if not isinstance(ground, Constant) or not isinstance(ground.value, int):
            return False
        solution = pattern.solve(ground.value)
        if solution is None:
            return False
        return _match_into(pattern.var, Constant(solution), subst)
    if isinstance(pattern, Struct):
        if (
            not isinstance(ground, Struct)
            or ground.functor != pattern.functor
            or ground.arity != pattern.arity
        ):
            return False
        for parg, garg in zip(pattern.args, ground.args):
            if not _match_into(parg, garg, subst):
                return False
        return True
    return False
