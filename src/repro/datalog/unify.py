"""Unification and one-way matching over the term language.

Two operations drive the whole system:

* :func:`unify` -- full two-way unification with occurs check, used by the
  top-down (QSQ) evaluator;
* :func:`match` -- one-way matching of a possibly non-ground pattern
  against a ground tuple, used by the bottom-up engine's joins.

Both understand :class:`~repro.datalog.terms.LinExpr` index expressions:
an expression ``c*V + d`` matched against an integer constant ``n`` solves
for ``V`` (failing when ``(n - d)`` is not divisible by ``c``), which is
what lets the index fields of the generalized counting method (Section 6)
run under ordinary bottom-up evaluation.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from .terms import Constant, LinExpr, Struct, Term, Variable

__all__ = [
    "Substitution",
    "unify",
    "unify_sequences",
    "match",
    "match_into",
    "match_sequences",
    "resolve",
    "compose",
]

#: A substitution maps variables to terms.
Substitution = Dict[Variable, Term]


def resolve(term: Term, subst: Substitution) -> Term:
    """Walk a term through a substitution until a fixed point.

    Unlike :meth:`Term.substitute` this follows chains
    (``X -> Y, Y -> c`` resolves ``X`` to ``c``), which is what the
    incremental unifier needs.
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


def _occurs(var: Variable, term: Term, subst: Substitution) -> bool:
    term = resolve(term, subst)
    if isinstance(term, Variable):
        return term == var
    if isinstance(term, Struct):
        return any(_occurs(var, a, subst) for a in term.args)
    if isinstance(term, LinExpr):
        return _occurs(var, term.var, subst)
    return False


def unify(
    left: Term,
    right: Term,
    subst: Optional[Substitution] = None,
    occurs_check: bool = True,
) -> Optional[Substitution]:
    """Unify two terms; return the extended substitution or None.

    The input substitution is *not* mutated.
    """
    if subst is None:
        subst = {}
    result = dict(subst)
    if _unify_into(left, right, result, occurs_check):
        return result
    return None


def unify_sequences(
    lefts: Sequence[Term],
    rights: Sequence[Term],
    subst: Optional[Substitution] = None,
    occurs_check: bool = True,
) -> Optional[Substitution]:
    """Unify two equal-length sequences of terms."""
    if len(lefts) != len(rights):
        return None
    if subst is None:
        subst = {}
    result = dict(subst)
    for left, right in zip(lefts, rights):
        if not _unify_into(left, right, result, occurs_check):
            return None
    return result


def _unify_into(
    left: Term, right: Term, subst: Substitution, occurs_check: bool
) -> bool:
    left = resolve(left, subst)
    right = resolve(right, subst)
    if left == right:
        return True
    if isinstance(left, Variable):
        if occurs_check and _occurs(left, right, subst):
            return False
        subst[left] = right
        return True
    if isinstance(right, Variable):
        if occurs_check and _occurs(right, left, subst):
            return False
        subst[right] = left
        return True
    if isinstance(left, LinExpr):
        return _unify_linexpr(left, right, subst)
    if isinstance(right, LinExpr):
        return _unify_linexpr(right, left, subst)
    if isinstance(left, Struct) and isinstance(right, Struct):
        if left.functor != right.functor or left.arity != right.arity:
            return False
        for la, ra in zip(left.args, right.args):
            if not _unify_into(la, ra, subst, occurs_check):
                return False
        return True
    return False


def _unify_linexpr(expr: LinExpr, other: Term, subst: Substitution) -> bool:
    """Unify ``c*V + d`` with another (already resolved) term."""
    if isinstance(other, Constant):
        if not isinstance(other.value, int):
            return False
        solution = expr.solve(other.value)
        if solution is None:
            return False
        return _unify_into(expr.var, Constant(solution), subst, False)
    if isinstance(other, LinExpr):
        if other.coeff == expr.coeff and other.offset == expr.offset:
            return _unify_into(expr.var, other.var, subst, False)
        return False
    return False


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


def compose(outer: Substitution, inner: Substitution) -> Substitution:
    """Compose substitutions: apply ``outer`` after ``inner``."""
    result: Substitution = {}
    for var, term in inner.items():
        result[var] = term.substitute(outer)
    for var, term in outer.items():
        if var not in result:
            result[var] = term
    return result
