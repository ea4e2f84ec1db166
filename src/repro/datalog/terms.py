"""The term language of Horn clauses: variables, constants, function terms.

This module implements the ``term`` notion of Section 1.1 of the paper: an
argument of a predicate occurrence is a *term*, i.e. a constant, a variable,
or an n-ary function symbol applied to n terms.  Lists (needed for the
paper's *list reverse* running example, Appendix A.1 problem 4) are encoded
in the usual Prolog way with the binary functor ``'.'`` and the empty-list
constant ``[]``.

In addition to the paper's term language we provide :class:`LinExpr`, a
*linear index expression* ``coeff * var + offset`` over integers.  These are
the index expressions (``I + 1``, ``K x m + i``, ``H x t + j``) that the
generalized counting method of Section 6 writes into rule heads and bodies.
They are invertible, so the matcher (``repro.datalog.unify``) can both
evaluate them when the variable is bound and solve them when matched
against an integer constant.

All term classes are immutable and hashable; ground terms can be used
directly as relation tuple entries.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Iterator, Optional, Tuple

__all__ = [
    "Term",
    "Variable",
    "Constant",
    "Struct",
    "LinExpr",
    "EMPTY_LIST",
    "LIST_FUNCTOR",
    "make_list",
    "list_elements",
    "is_list_term",
    "term_variables",
    "term_is_ground",
    "substitute_term",
    "ground_term_length",
    "fresh_variable_factory",
]

#: Functor used for list cells, as in Prolog.
LIST_FUNCTOR = "."


class Term:
    """Abstract base class for all terms."""

    __slots__ = ()

    def variables(self) -> Tuple["Variable", ...]:
        """Return the variables of this term, in first-occurrence order."""
        raise NotImplementedError

    def is_ground(self) -> bool:
        """True when the term contains no variables."""
        raise NotImplementedError

    def substitute(self, subst) -> "Term":
        """Apply a substitution (mapping Variable -> Term) to this term."""
        raise NotImplementedError


class Variable(Term):
    """A logic variable.  Identity is by name."""

    __slots__ = ("name",)

    def __init__(self, name: str):
        if not name:
            raise ValueError("variable name must be non-empty")
        object.__setattr__(self, "name", name)

    def __setattr__(self, key, value):  # immutability
        raise AttributeError("Variable is immutable")

    def variables(self) -> Tuple["Variable", ...]:
        return (self,)

    def is_ground(self) -> bool:
        return False

    def substitute(self, subst) -> Term:
        return subst.get(self, self)

    def is_anonymous(self) -> bool:
        """True for don't-care variables (Lemma 8.2 anonymization)."""
        return self.name.startswith("_")

    def __eq__(self, other):
        return isinstance(other, Variable) and other.name == self.name

    def __hash__(self):
        return hash(("var", self.name))

    def __repr__(self):
        return f"Variable({self.name!r})"

    def __str__(self):
        return self.name


class Constant(Term):
    """A constant: an interned Python value (string, int, ...)."""

    __slots__ = ("value",)

    def __init__(self, value):
        object.__setattr__(self, "value", value)

    def __setattr__(self, key, value):
        raise AttributeError("Constant is immutable")

    def variables(self) -> Tuple[Variable, ...]:
        return ()

    def is_ground(self) -> bool:
        return True

    def substitute(self, subst) -> Term:
        return self

    def __eq__(self, other):
        return (
            isinstance(other, Constant)
            and type(other.value) is type(self.value)
            and other.value == self.value
        )

    def __hash__(self):
        return hash(("const", type(self.value).__name__, self.value))

    def __repr__(self):
        return f"Constant({self.value!r})"

    def __str__(self):
        return str(self.value)


#: The empty list constant, ``[]``.
EMPTY_LIST = Constant("[]")


class Struct(Term):
    """A function term: an n-ary function symbol applied to n terms."""

    __slots__ = ("functor", "args", "_vars")

    def __init__(self, functor: str, args: Iterable[Term]):
        args = tuple(args)
        if not functor:
            raise ValueError("functor must be non-empty")
        if not args:
            raise ValueError(
                "Struct requires at least one argument; use Constant for "
                "0-ary symbols"
            )
        for arg in args:
            if not isinstance(arg, Term):
                raise TypeError(f"Struct argument {arg!r} is not a Term")
        object.__setattr__(self, "functor", functor)
        object.__setattr__(self, "args", args)
        object.__setattr__(self, "_vars", None)

    def __setattr__(self, key, value):
        raise AttributeError("Struct is immutable")

    @property
    def arity(self) -> int:
        return len(self.args)

    def variables(self) -> Tuple[Variable, ...]:
        cached = self._vars
        if cached is None:
            seen = []
            for arg in self.args:
                for var in arg.variables():
                    if var not in seen:
                        seen.append(var)
            cached = tuple(seen)
            object.__setattr__(self, "_vars", cached)
        return cached

    def is_ground(self) -> bool:
        return not self.variables()

    def substitute(self, subst) -> Term:
        if not self.variables():
            return self
        return Struct(self.functor, tuple(a.substitute(subst) for a in self.args))

    def __eq__(self, other):
        return (
            isinstance(other, Struct)
            and other.functor == self.functor
            and other.args == self.args
        )

    def __hash__(self):
        return hash(("struct", self.functor, self.args))

    def __repr__(self):
        return f"Struct({self.functor!r}, {self.args!r})"

    def __str__(self):
        if self.functor == LIST_FUNCTOR and len(self.args) == 2:
            return _format_list(self)
        inner = ", ".join(str(a) for a in self.args)
        return f"{self.functor}({inner})"


class LinExpr(Term):
    """A linear integer expression ``coeff * var + offset``.

    Used by the index fields of the generalized counting method
    (Section 6): the index fields of counting predicates are written as
    ``I + 1``, ``K x m + i`` and ``H x t + j``, all of which have this
    shape.  The matcher evaluates a :class:`LinExpr` once its variable is
    bound to an integer, and *inverts* it when matching against an integer
    constant ``c`` (the match succeeds iff ``(c - offset) % coeff == 0``,
    binding ``var = (c - offset) // coeff``).
    """

    __slots__ = ("var", "coeff", "offset")

    def __init__(self, var: Variable, coeff: int = 1, offset: int = 0):
        if not isinstance(var, Variable):
            raise TypeError("LinExpr variable must be a Variable")
        if not isinstance(coeff, int) or not isinstance(offset, int):
            raise TypeError("LinExpr coefficients must be integers")
        if coeff == 0:
            raise ValueError("LinExpr coefficient must be non-zero")
        object.__setattr__(self, "var", var)
        object.__setattr__(self, "coeff", coeff)
        object.__setattr__(self, "offset", offset)

    def __setattr__(self, key, value):
        raise AttributeError("LinExpr is immutable")

    def variables(self) -> Tuple[Variable, ...]:
        return (self.var,)

    def is_ground(self) -> bool:
        return False

    def substitute(self, subst) -> Term:
        replacement = subst.get(self.var)
        if replacement is None:
            return self
        return self.apply_to(replacement)

    def apply_to(self, replacement: Term) -> Term:
        """Compose this expression with a replacement for its variable."""
        if isinstance(replacement, Constant):
            if not isinstance(replacement.value, int):
                raise TypeError(
                    f"LinExpr variable bound to non-integer {replacement!r}"
                )
            return Constant(self.coeff * replacement.value + self.offset)
        if isinstance(replacement, Variable):
            return LinExpr(replacement, self.coeff, self.offset)
        if isinstance(replacement, LinExpr):
            return LinExpr(
                replacement.var,
                self.coeff * replacement.coeff,
                self.coeff * replacement.offset + self.offset,
            )
        raise TypeError(f"cannot substitute {replacement!r} into LinExpr")

    def solve(self, value: int) -> Optional[int]:
        """Solve ``coeff * x + offset == value``; None when unsolvable.

        Solutions are restricted to the naturals: counting indices start
        at 0 and only grow, so a negative solution denotes a level
        "before the seed", which no derivation can have.  (Without this
        restriction the semijoin-optimized index-walk rules, e.g.
        ``anc_ind(I,K,H,Y) :- anc_ind(I+1, 2K+2, 2H+2, Y)``, would
        derive spurious facts at negative levels.)
        """
        delta = value - self.offset
        if delta % self.coeff != 0:
            return None
        solution = delta // self.coeff
        if solution < 0:
            return None
        return solution

    def __eq__(self, other):
        return (
            isinstance(other, LinExpr)
            and other.var == self.var
            and other.coeff == self.coeff
            and other.offset == self.offset
        )

    def __hash__(self):
        return hash(("linexpr", self.var, self.coeff, self.offset))

    def __repr__(self):
        return f"LinExpr({self.var!r}, {self.coeff}, {self.offset})"

    def __str__(self):
        parts = []
        if self.coeff == 1:
            parts.append(self.var.name)
        else:
            parts.append(f"{self.coeff}*{self.var.name}")
        if self.offset > 0:
            parts.append(f"+{self.offset}")
        elif self.offset < 0:
            parts.append(str(self.offset))
        return "".join(parts)


def _format_list(term: Struct) -> str:
    """Pretty-print a list cell, using ``[a, b | T]`` notation."""
    elements = []
    cursor: Term = term
    while (
        isinstance(cursor, Struct)
        and cursor.functor == LIST_FUNCTOR
        and len(cursor.args) == 2
    ):
        elements.append(str(cursor.args[0]))
        cursor = cursor.args[1]
    if cursor == EMPTY_LIST:
        return "[" + ", ".join(elements) + "]"
    return "[" + ", ".join(elements) + " | " + str(cursor) + "]"


def make_list(items: Iterable[Term], tail: Term = EMPTY_LIST) -> Term:
    """Build the term ``[i1, ..., in | tail]`` from Python iterables."""
    result = tail
    for item in reversed(list(items)):
        result = Struct(LIST_FUNCTOR, (item, result))
    return result


def is_list_term(term: Term) -> bool:
    """True when ``term`` is a proper (nil-terminated) ground-spine list."""
    cursor = term
    while (
        isinstance(cursor, Struct)
        and cursor.functor == LIST_FUNCTOR
        and len(cursor.args) == 2
    ):
        cursor = cursor.args[1]
    return cursor == EMPTY_LIST


def list_elements(term: Term) -> Tuple[Term, ...]:
    """Return the elements of a proper list term."""
    elements = []
    cursor = term
    while (
        isinstance(cursor, Struct)
        and cursor.functor == LIST_FUNCTOR
        and len(cursor.args) == 2
    ):
        elements.append(cursor.args[0])
        cursor = cursor.args[1]
    if cursor != EMPTY_LIST:
        raise ValueError(f"{term} is not a proper list")
    return tuple(elements)


def term_variables(terms: Iterable[Term]) -> Tuple[Variable, ...]:
    """Variables of a sequence of terms, in first-occurrence order."""
    seen = []
    for term in terms:
        for var in term.variables():
            if var not in seen:
                seen.append(var)
    return tuple(seen)


def term_is_ground(terms: Iterable[Term]) -> bool:
    """True when every term in the sequence is ground."""
    return all(t.is_ground() for t in terms)


def substitute_term(term: Term, subst) -> Term:
    """Functional form of :meth:`Term.substitute`."""
    return term.substitute(subst)


def ground_term_length(term: Term) -> int:
    """The length ``|t|`` of a ground term (Section 10).

    ``|t| = 1`` for a constant; ``|f(t1..tn)| = 1 + sum |ti|``.
    """
    if isinstance(term, Constant):
        return 1
    if isinstance(term, Struct):
        return 1 + sum(ground_term_length(a) for a in term.args)
    raise ValueError(f"term {term} is not ground")


def fresh_variable_factory(prefix: str = "V") -> Iterator[Variable]:
    """An infinite stream of fresh variables ``prefix0, prefix1, ...``."""
    return (Variable(f"{prefix}{i}") for i in itertools.count())
