"""Horn-clause abstract syntax: literals, rules, programs, queries.

Terminology follows Section 1.1 of the paper:

* a *rule* is ``p(x) :- p1(x1), ..., pn(xn)`` (head, body);
* a *program* is a finite set of rules containing no facts -- all facts
  live in the database (``repro.datalog.database``);
* *base* predicates name database relations, all others are *derived*;
* a *query* is a single predicate occurrence, some arguments bound to
  constants (written ``q(c, X)?``).

Adornments (Section 3) are first-class here: a :class:`Literal` optionally
carries an adornment string over ``{'b', 'f'}``, and the pair
``(pred, adornment)`` -- exposed as :attr:`Literal.pred_key` -- is the
predicate identity used by the evaluation engine.  The magic / counting /
supplementary predicates introduced by the rewriting algorithms are plain
literals with generated names (see ``repro.core.naming``).
"""

from __future__ import annotations

from typing import (
    Dict,
    FrozenSet,
    Iterable,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from .errors import (
    AdornmentError,
    ConnectivityError,
    UnsafeNegationError,
    WellFormednessError,
)
from .terms import Constant, LinExpr, Struct, Term, Variable, term_variables

__all__ = [
    "Literal",
    "Rule",
    "Program",
    "Query",
    "ShapeSlot",
    "ALL_FREE",
    "adornment_for_args",
    "validate_adornment",
]


def validate_adornment(adornment: str, arity: int) -> None:
    """Check that an adornment string matches an arity.

    Raises :class:`AdornmentError` when it does not.
    """
    if len(adornment) != arity:
        raise AdornmentError(
            f"adornment {adornment!r} has length {len(adornment)}, "
            f"expected {arity}"
        )
    bad = set(adornment) - {"b", "f"}
    if bad:
        raise AdornmentError(
            f"adornment {adornment!r} contains characters {sorted(bad)}; "
            "only 'b' and 'f' are allowed"
        )


def ALL_FREE(arity: int) -> str:
    """The all-free adornment of a given arity."""
    return "f" * arity


def adornment_for_args(args: Sequence[Term], bound_vars: Iterable[Variable]) -> str:
    """Compute an adornment from a set of bound variables.

    Following Section 3: an argument is *bound* only if **all** the
    variables appearing in it are bound (a constant argument, having no
    variables, is vacuously bound).
    """
    bound = set(bound_vars)
    letters = []
    for arg in args:
        arg_vars = arg.variables()
        if all(v in bound for v in arg_vars):
            letters.append("b")
        else:
            letters.append("f")
    return "".join(letters)


class Literal:
    """A predicate occurrence: name, argument terms, optional adornment.

    ``negated`` marks a negation-as-failure body occurrence (written
    ``not p(X)`` or ``\\+ p(X)`` in the surface syntax).  Negation is a
    *body* annotation: rule heads and queries must be positive, and the
    predicate identity (:attr:`pred_key`) is unaffected -- ``p`` and
    ``not p`` refer to the same relation.
    """

    __slots__ = ("pred", "args", "adornment", "negated", "_vars")

    def __init__(
        self,
        pred: str,
        args: Iterable[Term] = (),
        adornment: Optional[str] = None,
        negated: bool = False,
    ):
        args = tuple(args)
        if not pred:
            raise ValueError("predicate name must be non-empty")
        for arg in args:
            if not isinstance(arg, Term):
                raise TypeError(f"literal argument {arg!r} is not a Term")
        if adornment is not None:
            validate_adornment(adornment, len(args))
        object.__setattr__(self, "pred", pred)
        object.__setattr__(self, "args", args)
        object.__setattr__(self, "adornment", adornment)
        object.__setattr__(self, "negated", bool(negated))
        object.__setattr__(self, "_vars", None)

    def __setattr__(self, key, value):
        raise AttributeError("Literal is immutable")

    # ------------------------------------------------------------------
    # identity
    # ------------------------------------------------------------------
    @property
    def arity(self) -> int:
        return len(self.args)

    @property
    def pred_key(self) -> str:
        """The predicate identity used by the engine: ``name^adornment``."""
        if self.adornment is None:
            return self.pred
        return f"{self.pred}^{self.adornment}"

    # ------------------------------------------------------------------
    # structure
    # ------------------------------------------------------------------
    def variables(self) -> Tuple[Variable, ...]:
        cached = self._vars
        if cached is None:
            cached = term_variables(self.args)
            object.__setattr__(self, "_vars", cached)
        return cached

    def is_ground(self) -> bool:
        return not self.variables()

    def substitute(self, subst) -> "Literal":
        if not self.variables():
            return self
        return Literal(
            self.pred,
            tuple(a.substitute(subst) for a in self.args),
            self.adornment,
            self.negated,
        )

    # ------------------------------------------------------------------
    # polarity helpers
    # ------------------------------------------------------------------
    def negate(self) -> "Literal":
        """The negation-as-failure version of this literal."""
        if self.negated:
            return self
        return Literal(self.pred, self.args, self.adornment, True)

    def as_positive(self) -> "Literal":
        """This literal with the negation stripped."""
        if not self.negated:
            return self
        return Literal(self.pred, self.args, self.adornment, False)

    # ------------------------------------------------------------------
    # adornment helpers
    # ------------------------------------------------------------------
    def with_adornment(self, adornment: Optional[str]) -> "Literal":
        return Literal(self.pred, self.args, adornment, self.negated)

    def bound_args(self) -> Tuple[Term, ...]:
        """Arguments at positions marked 'b' (the paper's ``x^b``)."""
        if self.adornment is None:
            return ()
        return tuple(
            arg for arg, a in zip(self.args, self.adornment) if a == "b"
        )

    def free_args(self) -> Tuple[Term, ...]:
        """Arguments at positions marked 'f' (the paper's ``x^f``)."""
        if self.adornment is None:
            return self.args
        return tuple(
            arg for arg, a in zip(self.args, self.adornment) if a == "f"
        )

    def bound_positions(self) -> Tuple[int, ...]:
        if self.adornment is None:
            return ()
        return tuple(i for i, a in enumerate(self.adornment) if a == "b")

    def free_positions(self) -> Tuple[int, ...]:
        if self.adornment is None:
            return tuple(range(len(self.args)))
        return tuple(i for i, a in enumerate(self.adornment) if a == "f")

    def bound_variables(self) -> Tuple[Variable, ...]:
        """Variables appearing in bound argument positions."""
        return term_variables(self.bound_args())

    # ------------------------------------------------------------------
    # dunder protocol
    # ------------------------------------------------------------------
    def __eq__(self, other):
        return (
            isinstance(other, Literal)
            and other.pred == self.pred
            and other.args == self.args
            and other.adornment == self.adornment
            and other.negated == self.negated
        )

    def __hash__(self):
        return hash((self.pred, self.args, self.adornment, self.negated))

    def __repr__(self):
        prefix = "not " if self.negated else ""
        return f"Literal({prefix}{self.pred_key}, {self.args!r})"

    def __str__(self):
        name = self.pred_key
        prefix = "not " if self.negated else ""
        if not self.args:
            return f"{prefix}{name}"
        inner = ", ".join(str(a) for a in self.args)
        return f"{prefix}{name}({inner})"


class Rule:
    """A Horn clause ``head :- body``.

    An empty body denotes a fact (Section 1.1); programs built through
    :class:`Program` reject facts -- facts belong in the database.
    """

    __slots__ = ("head", "body", "_vars")

    def __init__(self, head: Literal, body: Iterable[Literal] = ()):
        body = tuple(body)
        if not isinstance(head, Literal):
            raise TypeError("rule head must be a Literal")
        if head.negated:
            raise ValueError(
                f"rule head {head} is negated; negation is only allowed "
                "in rule bodies"
            )
        for lit in body:
            if not isinstance(lit, Literal):
                raise TypeError(f"rule body element {lit!r} is not a Literal")
        object.__setattr__(self, "head", head)
        object.__setattr__(self, "body", body)
        object.__setattr__(self, "_vars", None)

    def __setattr__(self, key, value):
        raise AttributeError("Rule is immutable")

    def is_fact(self) -> bool:
        return not self.body

    # ------------------------------------------------------------------
    # negation helpers
    # ------------------------------------------------------------------
    def has_negation(self) -> bool:
        return any(lit.negated for lit in self.body)

    def negated_body(self) -> Tuple[Literal, ...]:
        return tuple(lit for lit in self.body if lit.negated)

    def unsafe_negated_variables(self) -> Tuple[Variable, ...]:
        """Variables of negated body literals not bound positively.

        Safe negation (the range-restriction rule for negation-as-
        failure) requires every variable appearing in a negated body
        literal to also appear in some *positive* body literal; the
        returned tuple is empty exactly when the rule is safe.
        """
        positive_vars: Set[Variable] = set()
        for lit in self.body:
            if not lit.negated:
                positive_vars.update(lit.variables())
        unsafe: List[Variable] = []
        for lit in self.body:
            if not lit.negated:
                continue
            for var in lit.variables():
                if var not in positive_vars and var not in unsafe:
                    unsafe.append(var)
        return tuple(unsafe)

    def check_safe_negation(self) -> None:
        """Raise :class:`UnsafeNegationError` unless negation is safe.

        Safe negation: every variable of a negated body literal also
        appears in a positive body literal (otherwise ``not p(X)``
        ranges over the infinite complement of ``p``).
        """
        unsafe = self.unsafe_negated_variables()
        if unsafe:
            names = ", ".join(v.name for v in unsafe)
            offenders = ", ".join(
                str(lit)
                for lit in self.negated_body()
                if any(v in unsafe for v in lit.variables())
            )
            raise UnsafeNegationError(
                f"rule {self}: unsafe negation -- variable(s) {{{names}}} "
                f"of {offenders} are not bound by any positive body "
                "literal; add a positive literal (e.g. a domain "
                "predicate) that binds them first",
                rule=self,
                variables=unsafe,
            )

    def variables(self) -> Tuple[Variable, ...]:
        cached = self._vars
        if cached is None:
            seen = list(self.head.variables())
            for lit in self.body:
                for var in lit.variables():
                    if var not in seen:
                        seen.append(var)
            cached = tuple(seen)
            object.__setattr__(self, "_vars", cached)
        return cached

    def substitute(self, subst) -> "Rule":
        return Rule(
            self.head.substitute(subst),
            tuple(lit.substitute(subst) for lit in self.body),
        )

    def rename_apart(self, suffix: str) -> "Rule":
        """Rename every variable by appending ``suffix`` (standardize apart)."""
        mapping = {v: Variable(v.name + suffix) for v in self.variables()}
        return self.substitute(mapping)

    # ------------------------------------------------------------------
    # well-formedness conditions of Section 1.1
    # ------------------------------------------------------------------
    def check_well_formed(self) -> None:
        """Condition (WF): head variables must appear in the body.

        Unit rules (empty body) are exempt: the paper's own list-reverse
        example (Appendix A.1) uses the non-ground unit rule
        ``append(V, [], [V])``, which the rewrites guard with magic
        literals.  Plain bottom-up evaluation of an unguarded non-ground
        unit rule fails at run time instead (it is not range-restricted).
        """
        if not self.body:
            return
        # only positive literals bind values; a variable occurring solely
        # under negation never receives a binding
        body_vars = set()
        for lit in self.body:
            if not lit.negated:
                body_vars.update(lit.variables())
        missing = [v for v in self.head.variables() if v not in body_vars]
        if missing:
            names = ", ".join(v.name for v in missing)
            raise WellFormednessError(
                f"rule {self}: head variables {{{names}}} do not appear in "
                "the body (condition WF)"
            )

    def connected_components(self) -> List[FrozenSet[int]]:
        """Connected components of body literal positions (Section 1.1).

        Two body occurrences are connected when they are linked through a
        chain of shared variables.  Literals without variables form
        singleton components.
        """
        n = len(self.body)
        parent = list(range(n))

        def find(i: int) -> int:
            while parent[i] != i:
                parent[i] = parent[parent[i]]
                i = parent[i]
            return i

        def union(i: int, j: int) -> None:
            ri, rj = find(i), find(j)
            if ri != rj:
                parent[rj] = ri

        by_var: Dict[Variable, int] = {}
        for idx, lit in enumerate(self.body):
            for var in lit.variables():
                if var in by_var:
                    union(by_var[var], idx)
                else:
                    by_var[var] = idx
        groups: Dict[int, Set[int]] = {}
        for idx in range(n):
            groups.setdefault(find(idx), set()).add(idx)
        return [frozenset(g) for g in groups.values()]

    def check_connected(self) -> None:
        """Condition (C): the body must form a single connected component.

        The component containing the head (through head variables) must
        cover every body literal.  Rules whose body is empty or a single
        literal are trivially connected.
        """
        components = self.connected_components()
        if len(components) <= 1:
            return
        head_vars = set(self.head.variables())
        head_component: Set[int] = set()
        for component in components:
            for idx in component:
                if head_vars & set(self.body[idx].variables()):
                    head_component |= set(component)
        outside = [
            str(self.body[i])
            for comp in components
            for i in comp
            if i not in head_component
        ]
        if not outside:
            # several variable-components, but each one touches the head
            # (e.g. linked only through constants): information can flow
            return
        raise ConnectivityError(
            f"rule {self}: body literals {outside} are not connected to the "
            "head (condition C); solve such existential subqueries "
            "separately before rewriting"
        )

    def __eq__(self, other):
        return (
            isinstance(other, Rule)
            and other.head == self.head
            and other.body == self.body
        )

    def __hash__(self):
        return hash((self.head, self.body))

    def __repr__(self):
        return f"Rule({self.head!r}, {self.body!r})"

    def __str__(self):
        if not self.body:
            return f"{self.head}."
        inner = ", ".join(str(lit) for lit in self.body)
        return f"{self.head} :- {inner}."


class Program:
    """A finite set (ordered list) of rules.

    Rule order is preserved because the counting transformations number
    rules.  Ground facts belong in the database (Section 1.1: "without
    loss of generality, P contains no facts"), but *unit rules* -- empty
    bodies, possibly with variables, like the paper's
    ``append(V, [], [V])`` -- are permitted: the rewrites turn them into
    guarded rules.
    """

    __slots__ = ("rules", "_hash")

    def __init__(self, rules: Iterable[Rule]):
        rules = tuple(rules)
        for rule in rules:
            if not isinstance(rule, Rule):
                raise TypeError(f"{rule!r} is not a Rule")
        object.__setattr__(self, "rules", rules)
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, key, value):
        raise AttributeError("Program is immutable")

    def has_negation(self) -> bool:
        """True when any rule body contains a negated literal."""
        return any(rule.has_negation() for rule in self.rules)

    # ------------------------------------------------------------------
    # predicate classification
    # ------------------------------------------------------------------
    def derived_predicates(self) -> Set[str]:
        """Predicate keys appearing as rule heads."""
        return {rule.head.pred_key for rule in self.rules}

    def base_predicates(self) -> Set[str]:
        """Predicate keys appearing only in bodies."""
        derived = self.derived_predicates()
        base = set()
        for rule in self.rules:
            for lit in rule.body:
                if lit.pred_key not in derived:
                    base.add(lit.pred_key)
        return base

    def predicates(self) -> Set[str]:
        return self.derived_predicates() | self.base_predicates()

    def is_derived(self, literal: Literal) -> bool:
        return literal.pred_key in self.derived_predicates()

    def rules_for(self, pred_key: str) -> Tuple[Rule, ...]:
        return tuple(r for r in self.rules if r.head.pred_key == pred_key)

    def rules_for_pred_name(self, pred: str) -> Tuple[Rule, ...]:
        """All rules whose head has the given *unadorned* name."""
        return tuple(r for r in self.rules if r.head.pred == pred)

    # ------------------------------------------------------------------
    # validation and classification
    # ------------------------------------------------------------------
    def validate(
        self,
        require_connected: bool = False,
        require_well_formed: bool = True,
    ) -> None:
        """Check conditions (WF) and optionally (C) on every rule.

        (WF) can be waived: the paper's list-reverse example has a head
        variable (``W`` in ``append(V, [W|X], [W|Y]) :- append(V, X, Y)``)
        that appears only in bound head arguments, where unification with
        the call supplies its value; the rewrites guard such rules.
        """
        for rule in self.rules:
            if require_well_formed:
                rule.check_well_formed()
            if require_connected:
                rule.check_connected()

    def is_datalog(self) -> bool:
        """True when no rule uses function terms (Section 9/10 distinction)."""
        for rule in self.rules:
            for lit in (rule.head, *rule.body):
                for arg in lit.args:
                    if _contains_struct(arg):
                        return False
        return True

    # ------------------------------------------------------------------
    # dunder protocol
    # ------------------------------------------------------------------
    def __iter__(self):
        return iter(self.rules)

    def __len__(self):
        return len(self.rules)

    def __eq__(self, other):
        return isinstance(other, Program) and other.rules == self.rules

    def __hash__(self):
        # Programs are immutable, so the structural hash is computed once
        # and cached: PlanCache keys every lookup on the Program, and
        # re-walking hundreds of rewritten rules per query would dominate
        # the hit path.
        cached = self._hash
        if cached is None:
            cached = hash(self.rules)
            object.__setattr__(self, "_hash", cached)
        return cached

    def __repr__(self):
        return f"Program({list(self.rules)!r})"

    def __str__(self):
        return "\n".join(str(rule) for rule in self.rules)


def _contains_struct(term: Term) -> bool:
    if isinstance(term, Struct):
        return True
    if isinstance(term, LinExpr):
        return True
    return False


class ShapeSlot(NamedTuple):
    """The value of a shape placeholder: "whatever ground term the
    query holds at argument ``position``" (:meth:`Query.shape`).

    Neither a string nor a number, so no parsed constant equals a
    placeholder; placeholders never reach a database or the term
    catalog.
    """

    position: int

    def __str__(self):
        return f"${self.position}"


class Query:
    """A query ``q(c, X)?``: one predicate occurrence, constants = bound.

    The adornment of the query (Section 3: "precisely the positions bound
    in the query are designated as bound") is derived from the arguments:
    a position is bound iff its term is ground.
    """

    __slots__ = ("literal",)

    def __init__(self, literal: Literal):
        if not isinstance(literal, Literal):
            raise TypeError("query must wrap a Literal")
        if literal.negated:
            raise ValueError(
                f"query {literal} is negated; ask the positive query and "
                "test for emptiness instead"
            )
        seen: Set[Variable] = set()
        for arg in literal.args:
            for var in arg.variables():
                if var in seen:
                    raise ValueError(
                        f"query {literal} repeats variable {var}; free "
                        "positions must use distinct variables"
                    )
                seen.add(var)
        object.__setattr__(self, "literal", literal)

    def __setattr__(self, key, value):
        raise AttributeError("Query is immutable")

    @property
    def pred(self) -> str:
        return self.literal.pred

    @property
    def args(self) -> Tuple[Term, ...]:
        return self.literal.args

    @property
    def adornment(self) -> str:
        """Bound where the argument is ground, free otherwise."""
        return "".join(
            "b" if arg.is_ground() else "f" for arg in self.literal.args
        )

    def bound_constants(self) -> Tuple[Term, ...]:
        return tuple(arg for arg in self.literal.args if arg.is_ground())

    def free_variables(self) -> Tuple[Variable, ...]:
        return term_variables(
            arg for arg in self.literal.args if not arg.is_ground()
        )

    def adorned_literal(self) -> Literal:
        return self.literal.with_adornment(self.adornment)

    def shape(self) -> "Query":
        """This query with a placeholder for each ground argument.

        Everything adornment and rewriting make of a query depends on
        its predicate and on which arguments are ground (Section 4: the
        constants enter ``P^mg`` only as the seed *fact*), so all
        queries of one shape share one adorned and one rewritten
        program.  Arguments that are not ground -- variables, partially
        ground terms like ``f(a, X)`` -- belong to the shape as they
        are.
        """
        args = self.literal.args
        if not any(arg.is_ground() for arg in args):
            return self
        return Query(
            Literal(
                self.literal.pred,
                tuple(
                    Constant(ShapeSlot(i)) if arg.is_ground() else arg
                    for i, arg in enumerate(args)
                ),
            )
        )

    def fill(self, term: Term) -> Term:
        """``term``, or the argument of this query it stands for when
        it is a placeholder of :meth:`shape`."""
        if isinstance(term, Constant) and isinstance(term.value, ShapeSlot):
            return self.literal.args[term.value.position]
        return term

    def __eq__(self, other):
        return isinstance(other, Query) and other.literal == self.literal

    def __hash__(self):
        return hash(("query", self.literal))

    def __repr__(self):
        return f"Query({self.literal!r})"

    def __str__(self):
        return f"{self.literal}?"
