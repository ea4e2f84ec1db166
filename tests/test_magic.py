"""Generalized magic sets -- Section 4 and Appendix A.3 (experiment E2)."""

import pytest

from repro import (
    Literal,
    RewriteError,
    Variable,
    build_chain_sip,
    magic_rewrite,
    parse_program,
    parse_query,
    rewrite,
)
from repro.core.magic import magic_literal_for
from repro.workloads import (
    ancestor_program,
    ancestor_query,
    integer_list,
    list_reverse_program,
    nested_samegen_program,
    nested_samegen_query,
    nonlinear_ancestor_program,
    nonlinear_samegen_program,
    reverse_query,
    samegen_query,
)

from conftest import assert_rules_equal, canonical_rules


def gms(program, query, **kwargs):
    return rewrite(program, query, method="magic", **kwargs)


class TestAppendixA3:
    """The four GMS rewrites of Appendix A.3."""

    def test_ancestor(self):
        rewritten = gms(ancestor_program(), ancestor_query("john"))
        assert_rules_equal(
            rewritten,
            [
                "anc^bf(A, B) :- magic_anc_bf(A), par(A, B).",
                "anc^bf(A, B) :- magic_anc_bf(A), par(A, C), anc^bf(C, B).",
                "magic_anc_bf(A) :- magic_anc_bf(B), par(B, A).",
            ],
        )
        assert [str(s) for s in rewritten.seed_facts] == ["magic_anc_bf(john)"]

    def test_nonlinear_ancestor(self):
        rewritten = gms(nonlinear_ancestor_program(), ancestor_query("john"))
        # the tautological rule magic(X) :- magic(X) is deleted (A.3.2
        # marks it "can be deleted")
        assert_rules_equal(
            rewritten,
            [
                "anc^bf(A, B) :- magic_anc_bf(A), anc^bf(A, C), anc^bf(C, B).",
                "anc^bf(A, B) :- magic_anc_bf(A), par(A, B).",
                "magic_anc_bf(A) :- magic_anc_bf(B), anc^bf(B, A).",
            ],
        )

    def test_nested_samegen(self):
        rewritten = gms(
            nested_samegen_program(), nested_samegen_query("john")
        )
        assert_rules_equal(
            rewritten,
            [
                "magic_p_bf(A) :- magic_p_bf(B), sg^bf(B, A).",
                "magic_sg_bf(A) :- magic_p_bf(A).",
                "magic_sg_bf(A) :- magic_sg_bf(B), up(B, A).",
                "p^bf(A, B) :- magic_p_bf(A), b1(A, B).",
                "p^bf(A, B) :- magic_p_bf(A), sg^bf(A, C), p^bf(C, D), b2(D, B).",
                "sg^bf(A, B) :- magic_sg_bf(A), flat(A, B).",
                "sg^bf(A, B) :- magic_sg_bf(A), up(A, C), sg^bf(C, D), down(D, B).",
            ],
        )

    def test_list_reverse(self):
        rewritten = gms(
            list_reverse_program(), reverse_query(integer_list(2))
        )
        assert_rules_equal(
            rewritten,
            [
                "append^bbf(A, [B | C], [B | D]) :- "
                "magic_append_bbf(A, [B | C]), append^bbf(A, C, D).",
                "append^bbf(A, [], [A]) :- magic_append_bbf(A, []).",
                "magic_append_bbf(A, B) :- magic_append_bbf(A, [C | B]).",
                "magic_append_bbf(A, B) :- magic_reverse_bf([A | C]), "
                "reverse^bf(C, B).",
                "magic_reverse_bf(A) :- magic_reverse_bf([B | A]).",
                "reverse^bf([A | B], C) :- magic_reverse_bf([A | B]), "
                "reverse^bf(B, D), append^bbf(A, D, C).",
                "reverse^bf([], []) :- magic_reverse_bf([]).",
            ],
        )
        assert [str(s) for s in rewritten.seed_facts] == [
            "magic_reverse_bf([0, 1])"
        ]


class TestExample4:
    """Example 4: the nonlinear same-generation rewrite, both sips."""

    def test_full_sip(self):
        rewritten = gms(nonlinear_samegen_program(), samegen_query("john"))
        assert_rules_equal(
            rewritten,
            [
                "magic_sg_bf(A) :- magic_sg_bf(B), up(B, A).",
                "magic_sg_bf(A) :- magic_sg_bf(B), up(B, C), sg^bf(C, D), "
                "flat(D, A).",
                "sg^bf(A, B) :- magic_sg_bf(A), flat(A, B).",
                "sg^bf(A, B) :- magic_sg_bf(A), up(A, C), sg^bf(C, D), "
                "flat(D, E), sg^bf(E, F), down(F, B).",
            ],
        )

    def test_partial_sip(self):
        """The partial (no-memory) sip (V): the second magic rule starts
        from magic_sg(Z1) instead of re-joining from the head."""
        rewritten = gms(
            nonlinear_samegen_program(),
            samegen_query("john"),
            sip_builder=build_chain_sip,
        )
        assert_rules_equal(
            rewritten,
            [
                "magic_sg_bf(A) :- magic_sg_bf(B), sg^bf(B, C), flat(C, A).",
                "magic_sg_bf(A) :- magic_sg_bf(B), up(B, A).",
                "sg^bf(A, B) :- magic_sg_bf(A), flat(A, B).",
                "sg^bf(A, B) :- magic_sg_bf(A), up(A, C), sg^bf(C, D), "
                "flat(D, E), sg^bf(E, F), down(F, B).",
            ],
        )


class TestProposition42:
    """The redundant-magic-literal deletions."""

    def test_unoptimized_keeps_all_magic_literals(self):
        rewritten = gms(
            nonlinear_samegen_program(), samegen_query("john"), optimize=False
        )
        rules = canonical_rules(rewritten)
        # the unoptimized modified rule guards every derived occurrence
        assert (
            "sg^bf(A, B) :- magic_sg_bf(A), up(A, C), magic_sg_bf(C), "
            "sg^bf(C, D), flat(D, E), magic_sg_bf(E), sg^bf(E, F), "
            "down(F, B)." in rules
        )

    def test_optimized_subset_of_unoptimized_bodies(self):
        optimized = gms(nonlinear_samegen_program(), samegen_query("john"))
        unoptimized = gms(
            nonlinear_samegen_program(), samegen_query("john"), optimize=False
        )
        # same number of rules minus tautologies; each optimized body is
        # a subsequence of the corresponding unoptimized body
        assert len(optimized.rules) <= len(unoptimized.rules)


class TestMagicLiteral:
    def test_shape(self):
        lit = Literal("sg", (Variable("X"), Variable("Y")), "bf")
        magic = magic_literal_for(lit)
        assert magic.pred == "magic_sg_bf"
        assert magic.args == (Variable("X"),)

    def test_requires_adornment(self):
        with pytest.raises(RewriteError):
            magic_literal_for(Literal("sg", (Variable("X"),)))

    def test_rejects_all_free(self):
        with pytest.raises(RewriteError):
            magic_literal_for(Literal("sg", (Variable("X"),), "f"))


class TestAllFreeQuery:
    def test_no_seed(self):
        rewritten = gms(ancestor_program(), parse_query("?- anc(X, Y)."))
        assert rewritten.seed_facts == ()

    def test_empty_sip_degenerates_to_original(self):
        from repro import build_empty_sip

        rewritten = gms(
            ancestor_program(),
            parse_query("?- anc(X, Y)."),
            sip_builder=build_empty_sip,
        )
        assert rewritten.seed_facts == ()
        # nothing to restrict: the rewrite degenerates to the original
        assert_rules_equal(
            rewritten,
            [
                "anc^ff(A, B) :- par(A, B).",
                "anc^ff(A, B) :- par(A, C), anc^ff(C, B).",
            ],
        )

    def test_full_sip_still_correct_on_all_free_query(self):
        from repro import QueryOptions, answer_query, bottom_up_answer
        from repro.workloads import chain_database

        program = ancestor_program()
        query = parse_query("?- anc(X, Y).")
        db = chain_database(6)
        baseline = bottom_up_answer(program, db, query)
        answer = answer_query(program, db, query, QueryOptions(method="magic"))
        assert answer.answers == baseline.answers


class TestMultipleArcs:
    def test_label_rules_generated(self):
        """A custom sip with two arcs into one occurrence produces label
        rules joined by the magic rule (Section 4, multi-arc case)."""
        from repro.core.adornment import adorn_program as adorn
        from repro.core.sips import HEAD, Sip, SipArc, build_full_sip

        program = parse_program(
            """
            r(X, Y) :- e(X, Y).
            q(X, Y, Z) :- a(X, U), b(Y, V), r(W, Z), c(U, W), d(V, W).
            """
        ).program

        def two_arc_builder(rule, adornment, is_derived):
            if rule.head.pred != "q":
                return build_full_sip(rule, adornment, is_derived)
            U, V, W = Variable("U"), Variable("V"), Variable("W")
            X, Y = Variable("X"), Variable("Y")
            return Sip(
                rule,
                adornment,
                (
                    SipArc({HEAD}, 0, {X}),
                    SipArc({HEAD}, 1, {Y}),
                    SipArc({0, 3}, 2, {W}),
                    SipArc({1, 4}, 2, {W}),
                ),
            )

        adorned = adorn(
            program, parse_query("q(a, b, Z)?"), sip_builder=two_arc_builder
        )
        rewritten = magic_rewrite(adorned)
        label_rules = [
            rr for rr in rewritten.rules if rr.provenance.role == "label"
        ]
        assert len(label_rules) == 2
        magic_rules = [
            rr
            for rr in rewritten.rules
            if rr.provenance.role == "magic"
            and rr.rule.head.pred.startswith("magic_r")
        ]
        assert len(magic_rules) == 1
        assert len(magic_rules[0].rule.body) == 2  # joins the two labels
