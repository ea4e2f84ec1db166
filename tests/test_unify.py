"""Unit tests for one-way matching (repro.datalog.unify)."""


from repro import Constant, LinExpr, Struct, Variable
from repro.datalog.unify import match, match_sequences, resolve

X, Y, Z = Variable("X"), Variable("Y"), Variable("Z")
a, b = Constant("a"), Constant("b")


class TestLinExprUnification:
    """A ``LinExpr`` under one-way matching: solved, or evaluated once bound."""

    def test_solve_on_match(self):
        expr = LinExpr(X, 2, 2)
        assert match(expr, Constant(6)) == {X: Constant(2)}

    def test_unsolvable(self):
        expr = LinExpr(X, 2, 2)
        assert match(expr, Constant(5)) is None

    def test_against_non_integer(self):
        assert match(LinExpr(X, 2, 0), Constant("a")) is None

    def test_evaluates_when_var_bound(self):
        subst = {X: Constant(3)}
        assert resolve(LinExpr(X, 2, 1), subst) == Constant(7)
        # a bound expression matches only the value it evaluates to
        assert match(LinExpr(X, 2, 1), Constant(7), subst) == subst
        assert match(LinExpr(X, 2, 1), Constant(9), subst) is None


class TestMatch:
    def test_one_way(self):
        subst = match(Struct("f", (X,)), Struct("f", (a,)))
        assert subst == {X: a}

    def test_ground_mismatch(self):
        assert match(a, b) is None

    def test_sequences_with_seed(self):
        subst = match_sequences((X, Y), (a, b), {Z: a})
        assert subst == {Z: a, X: a, Y: b}

    def test_repeated_variable(self):
        assert match_sequences((X, X), (a, b)) is None
        assert match_sequences((X, X), (a, a)) == {X: a}

    def test_linexpr_inversion(self):
        subst = match(LinExpr(X, 5, 4), Constant(14))
        assert subst == {X: Constant(2)}
        assert match(LinExpr(X, 5, 4), Constant(13)) is None
