"""Unit tests for the Horn-clause AST (repro.datalog.ast)."""

import pytest

from repro import (
    ConnectivityError,
    Constant,
    Literal,
    Program,
    Query,
    Rule,
    Struct,
    Variable,
    WellFormednessError,
    parse_rule,
)
from repro.datalog.ast import ALL_FREE, adornment_for_args, validate_adornment
from repro.datalog.errors import AdornmentError
from repro.datalog.terms import term_variables

X, Y, Z = Variable("X"), Variable("Y"), Variable("Z")


class TestAdornmentHelpers:
    def test_validate_adornment(self):
        validate_adornment("bf", 2)
        with pytest.raises(AdornmentError):
            validate_adornment("bf", 3)
        with pytest.raises(AdornmentError):
            validate_adornment("bx", 2)

    def test_all_free(self):
        assert ALL_FREE(3) == "fff"

    def test_adornment_for_args(self):
        args = (X, Constant(1), Struct("f", (X, Y)))
        assert adornment_for_args(args, {X}) == "bbf"
        assert adornment_for_args(args, {X, Y}) == "bbb"
        # constants are vacuously bound
        assert adornment_for_args(args, set()) == "fbf"


class TestLiteral:
    def test_pred_key(self):
        plain = Literal("sg", (X, Y))
        adorned = Literal("sg", (X, Y), "bf")
        assert plain.pred_key == "sg"
        assert adorned.pred_key == "sg^bf"

    def test_adornment_arity_checked(self):
        with pytest.raises(AdornmentError):
            Literal("sg", (X, Y), "b")

    def test_bound_free_args(self):
        lit = Literal("sg", (X, Y), "bf")
        assert lit.bound_args() == (X,)
        assert lit.bound_positions() == (0,)

    def test_unadorned_bound_args_empty(self):
        lit = Literal("sg", (X, Y))
        assert lit.bound_args() == ()

    def test_bound_variables_through_struct(self):
        lit = Literal("app", (Struct(".", (X, Y)), Z), "bf")
        assert set(term_variables(lit.bound_args())) == {X, Y}

    def test_substitute(self):
        lit = Literal("sg", (X, Y), "bf")
        out = lit.substitute({X: Constant("a")})
        assert out.args == (Constant("a"), Y)
        assert out.adornment == "bf"

    def test_with_adornment(self):
        lit = Literal("sg", (X, Y))
        assert lit.with_adornment("bf").pred_key == "sg^bf"
        assert lit.with_adornment("bf").with_adornment(None).pred_key == "sg"

    def test_str(self):
        assert str(Literal("sg", (X, Y), "bf")) == "sg^bf(X, Y)"
        assert str(Literal("seed", ())) == "seed"


class TestRule:
    def test_well_formed_ok(self):
        parse_rule("anc(X, Y) :- par(X, Y).").check_well_formed()

    def test_well_formed_violation(self):
        rule = Rule(Literal("p", (X, Y)), (Literal("q", (X,)),))
        with pytest.raises(WellFormednessError):
            rule.check_well_formed()

    def test_unit_rules_exempt_from_wf(self):
        # the paper's own append(V, [], [V]) unit rule
        Rule(
            Literal(
                "append",
                (X, Constant("[]"), Struct(".", (X, Constant("[]")))),
            )
        ).check_well_formed()

    def test_connected_ok(self):
        parse_rule("p(X, Y) :- q(X, Z), r(Z, Y).").check_connected()

    def test_connected_violation(self):
        rule = parse_rule("p(X, Y) :- q(X, Y), r(Z, W).")
        with pytest.raises(ConnectivityError):
            rule.check_connected()

    def test_connected_components(self):
        rule = parse_rule("p(X, Y) :- q(X, Y), r(Z, W), s(W, U).")
        components = rule.connected_components()
        assert len(components) == 2
        assert frozenset({0}) in components
        assert frozenset({1, 2}) in components

    def test_variables_order(self):
        rule = parse_rule("p(X, Y) :- q(Y, Z), r(Z, X).")
        assert rule.variables() == (X, Y, Z)

    def test_rename_apart(self):
        rule = parse_rule("p(X, Y) :- q(X, Y).")
        renamed = rule.substitute({X: Variable("X_1"), Y: Variable("Y_1")})
        assert renamed.head.args == (Variable("X_1"), Variable("Y_1"))

    def test_str(self):
        rule = parse_rule("p(X) :- q(X).")
        assert str(rule) == "p(X) :- q(X)."


class TestProgram:
    def test_base_and_derived(self):
        program = Program([
            parse_rule("anc(X, Y) :- par(X, Y)."),
            parse_rule("anc(X, Y) :- par(X, Z), anc(Z, Y)."),
        ])
        assert program.derived_predicates() == {"anc"}
        assert program.base_predicates() == {"par"}

    def test_rules_for(self):
        program = Program([
            parse_rule("p(X) :- q(X)."),
            parse_rule("r(X) :- p(X)."),
        ])
        assert len(program.rules_for("p")) == 1
        assert len(program.rules_for_pred_name("r")) == 1

    def test_is_datalog(self):
        datalog = Program([parse_rule("p(X) :- q(X).")])
        assert datalog.is_datalog()
        functional = Program([parse_rule("p(X) :- q([X | T], T).")])
        assert not functional.is_datalog()

    def test_unit_rules_allowed(self):
        program = Program([Rule(Literal("p", (X,)))])
        assert program.derived_predicates() == {"p"}

    def test_validate_waivable_wf(self):
        bad = Program([Rule(Literal("p", (X, Y)), (Literal("q", (X,)),))])
        with pytest.raises(WellFormednessError):
            bad.validate()
        bad.validate(require_well_formed=False)  # no raise


class TestQuery:
    def test_adornment_from_groundness(self):
        query = Query(Literal("anc", (Constant("john"), Y)))
        assert query.adornment == "bf"
        assert query.free_variables() == (Y,)

    def test_repeated_variable_rejected(self):
        with pytest.raises(ValueError):
            Query(Literal("p", (X, X)))

    def test_struct_argument_is_bound_when_ground(self):
        lst = Struct(".", (Constant(1), Constant("[]")))
        query = Query(Literal("reverse", (lst, Y)))
        assert query.adornment == "bf"

    def test_adorned_literal(self):
        query = Query(Literal("anc", (Constant("john"), Y)))
        adorned = query.literal.with_adornment(query.adornment)
        assert adorned.pred_key == "anc^bf"
