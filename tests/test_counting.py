"""Generalized counting -- Section 6, Appendix A.5 (experiment E4)."""

import pytest

from repro import (
    EvaluationBudget,
    NonTerminationError,
    RewriteError,
    adorn_program,
    evaluate,
    parse_program,
    parse_query,
    rewrite,
)
from repro.workloads import (
    ancestor_program,
    ancestor_query,
    chain_database,
    cycle_database,
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


def gc(program, query, **kwargs):
    return rewrite(program, query, method="counting", **kwargs)


class TestAppendixA5:
    def test_ancestor(self):
        rewritten = gc(ancestor_program(), ancestor_query("john"))
        assert_rules_equal(
            rewritten,
            [
                "anc_ix_bf(A, B, C, D, E) :- cnt_anc_bf(A, B, C, D), "
                "par(D, E).",
                "anc_ix_bf(A, B, C, D, E) :- cnt_anc_bf(A, B, C, D), "
                "par(D, F), anc_ix_bf(A+1, 2*B+2, 2*C+2, F, E).",
                "cnt_anc_bf(A+1, 2*B+2, 2*C+2, D) :- "
                "cnt_anc_bf(A, B, C, E), par(E, D).",
            ],
        )
        assert [str(s) for s in rewritten.seed_facts] == [
            "cnt_anc_bf(0, 0, 0, john)"
        ]

    def test_nonlinear_samegen_example_6(self):
        rewritten = gc(nonlinear_samegen_program(), samegen_query("john"))
        assert_rules_equal(
            rewritten,
            [
                "cnt_sg_bf(A+1, 2*B+2, 5*C+2, D) :- "
                "cnt_sg_bf(A, B, C, E), up(E, D).",
                "cnt_sg_bf(A+1, 2*B+2, 5*C+4, D) :- "
                "cnt_sg_bf(A, B, C, E), up(E, F), "
                "sg_ix_bf(A+1, 2*B+2, 5*C+2, F, G), flat(G, D).",
                "sg_ix_bf(A, B, C, D, E) :- cnt_sg_bf(A, B, C, D), "
                "flat(D, E).",
                "sg_ix_bf(A, B, C, D, E) :- cnt_sg_bf(A, B, C, D), "
                "up(D, F), sg_ix_bf(A+1, 2*B+2, 5*C+2, F, G), flat(G, H), "
                "sg_ix_bf(A+1, 2*B+2, 5*C+4, H, I), down(I, E).",
            ],
        )

    def test_nested_samegen(self):
        rewritten = gc(
            nested_samegen_program(), nested_samegen_query("john")
        )
        rules = canonical_rules(rewritten)
        # the cnt chain p -> sg and the recursion use distinct codes
        assert (
            "cnt_sg_bf(A+1, 4*B+2, 3*C+1, D) :- cnt_p_bf(A, B, C, D)."
            in rules
        )
        assert (
            "cnt_sg_bf(A+1, 4*B+4, 3*C+2, D) :- cnt_sg_bf(A, B, C, E), "
            "up(E, D)." in rules
        )

    def test_list_reverse(self):
        rewritten = gc(
            list_reverse_program(), reverse_query(integer_list(2))
        )
        rules = canonical_rules(rewritten)
        # the bound argument shrinks along the recursion ([E|D] -> D)
        assert (
            "cnt_reverse_bf(A+1, 4*B+2, 2*C+1, D) :- "
            "cnt_reverse_bf(A, B, C, [E | D])." in rules
        )
        # append's counting rule is seeded from reverse's sip arc
        assert any(r.startswith("cnt_append_bbf(") for r in rules)


class TestIndexSemantics:
    """The indices buy no selectivity: projecting them out recovers the
    magic-sets facts (Section 6's explicit remark)."""

    def test_projection_equals_magic(self):
        program = ancestor_program()
        query = ancestor_query("n0")
        db = chain_database(7)

        magic = rewrite(program, query, method="magic")
        magic_result = evaluate(magic.program, magic.seeded_database(db))
        magic_facts = magic_result.database.tuples("anc^bf")

        counting = gc(program, query)
        counting_result = evaluate(
            counting.program, counting.seeded_database(db)
        )
        indexed = counting_result.database.tuples("anc_ix_bf")
        projected = {row[3:] for row in indexed}
        assert projected == magic_facts


class TestDivergence:
    """Theorem 10.3 behaviour: counting diverges where magic does not."""

    def test_nonlinear_ancestor_diverges_even_on_chains(self):
        rewritten = gc(nonlinear_ancestor_program(), ancestor_query("n0"))
        db = chain_database(4)
        with pytest.raises(NonTerminationError):
            evaluate(
                rewritten.program,
                rewritten.seeded_database(db),
                meter=EvaluationBudget(max_facts=3000).start(),
            )

    def test_linear_ancestor_diverges_on_cyclic_data(self):
        rewritten = gc(ancestor_program(), ancestor_query("n0"))
        db = cycle_database(4)
        with pytest.raises(NonTerminationError):
            evaluate(
                rewritten.program,
                rewritten.seeded_database(db),
                meter=EvaluationBudget(max_iterations=120).start(),
            )

    def test_magic_terminates_on_both(self):
        magic = rewrite(
            nonlinear_ancestor_program(), ancestor_query("n0"), method="magic"
        )
        evaluate(magic.program, magic.seeded_database(chain_database(4)))
        magic2 = rewrite(
            ancestor_program(), ancestor_query("n0"), method="magic"
        )
        evaluate(magic2.program, magic2.seeded_database(cycle_database(4)))


class TestRangeRestriction:
    def test_unindexable_partial_sip_rejected(self):
        """A sip passing bindings through an all-base tail with the head
        excluded cannot carry indices (Section 6 footnote territory)."""
        from repro.core.sips import HEAD, Sip, SipArc, build_full_sip
        from repro import Variable

        program = parse_program(
            """
            r(X, Y) :- e(X, Y).
            r(X, Y) :- f(X, W), g(W, Z), r(Z, Y).
            """
        ).program

        def builder(rule, adornment, is_derived):
            if len(rule.body) != 3:
                return build_full_sip(rule, adornment, is_derived)
            W, X, Z = Variable("W"), Variable("X"), Variable("Z")
            return Sip(
                rule,
                adornment,
                (
                    SipArc({HEAD}, 0, {X}),
                    SipArc({0}, 1, {W}),
                    SipArc({1}, 2, {Z}),  # tail {g}: base only, no index
                ),
            )

        query = parse_query("r(a, Y)?")
        adorned = adorn_program(program, query, sip_builder=builder)
        with pytest.raises(RewriteError):
            gc(program, query, adorned=adorned)
