"""Generalized supplementary counting -- Section 7, Appendix A.6 (E5)."""


from repro import EvaluationBudget, evaluate, rewrite
from repro.workloads import (
    ancestor_program,
    ancestor_query,
    chain_database,
    integer_list,
    list_reverse_program,
    nested_samegen_program,
    nested_samegen_query,
    nonlinear_samegen_program,
    reverse_query,
    samegen_query,
)

from conftest import assert_rules_equal, canonical_rules


def gsc(program, query, **kwargs):
    return rewrite(program, query, method="supplementary_counting", **kwargs)


class TestAppendixA6:
    def test_ancestor(self):
        rewritten = gsc(ancestor_program(), ancestor_query("john"))
        assert_rules_equal(
            rewritten,
            [
                "anc_ix_bf(A, B, C, D, E) :- cnt_anc_bf(A, B, C, D), "
                "par(D, E).",
                "anc_ix_bf(A, B, C, D, E) :- supcnt2_2(A, B, C, D, F), "
                "anc_ix_bf(A+1, 2*B+2, 2*C+2, F, E).",
                "cnt_anc_bf(A+1, 2*B+2, 2*C+2, D) :- "
                "supcnt2_2(A, B, C, E, D).",
                "supcnt2_2(A, B, C, D, E) :- cnt_anc_bf(A, B, C, D), "
                "par(D, E).",
            ],
        )

    def test_nonlinear_samegen_example_7(self):
        rewritten = gsc(nonlinear_samegen_program(), samegen_query("john"))
        assert_rules_equal(
            rewritten,
            [
                "cnt_sg_bf(A+1, 2*B+2, 5*C+2, D) :- "
                "supcnt2_2(A, B, C, E, D).",
                "cnt_sg_bf(A+1, 2*B+2, 5*C+4, D) :- "
                "supcnt2_4(A, B, C, E, D).",
                "sg_ix_bf(A, B, C, D, E) :- cnt_sg_bf(A, B, C, D), "
                "flat(D, E).",
                "sg_ix_bf(A, B, C, D, E) :- supcnt2_4(A, B, C, D, F), "
                "sg_ix_bf(A+1, 2*B+2, 5*C+4, F, G), down(G, E).",
                "supcnt2_2(A, B, C, D, E) :- cnt_sg_bf(A, B, C, D), "
                "up(D, E).",
                "supcnt2_3(A, B, C, D, E) :- supcnt2_2(A, B, C, D, F), "
                "sg_ix_bf(A+1, 2*B+2, 5*C+2, F, E).",
                "supcnt2_4(A, B, C, D, E) :- supcnt2_3(A, B, C, D, F), "
                "flat(F, E).",
            ],
        )

    def test_nested_samegen(self):
        rewritten = gsc(
            nested_samegen_program(), nested_samegen_query("john")
        )
        rules = canonical_rules(rewritten)
        assert (
            "supcnt2_2(A, B, C, D, E) :- cnt_p_bf(A, B, C, D), "
            "sg_ix_bf(A+1, 4*B+2, 3*C+1, D, E)." in rules
        )
        assert (
            "cnt_p_bf(A+1, 4*B+2, 3*C+2, D) :- supcnt2_2(A, B, C, E, D)."
            in rules
        )

    def test_list_reverse(self):
        rewritten = gsc(
            list_reverse_program(), reverse_query(integer_list(2))
        )
        rules = canonical_rules(rewritten)
        assert (
            "supcnt2_2(A, B, C, D, E, F) :- "
            "cnt_reverse_bf(A, B, C, [D | E]), "
            "reverse_ix_bf(A+1, 4*B+2, 2*C+1, E, F)." in rules
        )


class TestCorrectness:
    def test_same_answers_as_counting(self):
        program = ancestor_program()
        query = ancestor_query("n0")
        db = chain_database(7)
        results = {}
        for method in ("counting", "supplementary_counting"):
            rw = rewrite(program, query, method=method)
            res = evaluate(rw.program, rw.seeded_database(db))
            results[method] = rw.extract_answers(res)
        assert results["counting"] == results["supplementary_counting"]

    def test_fewer_rule_firings_than_counting_on_nonlinear(self):
        """GSC stores prefix joins, avoiding GMS/GC's duplicate work
        (the motivation of Sections 5 and 7)."""
        from repro.workloads import samegen_database

        program = nonlinear_samegen_program()
        query = samegen_query("l0_0")
        db = samegen_database(3, 4, flat_edges=6)
        work = {}
        for method in ("counting", "supplementary_counting"):
            rw = rewrite(program, query, method=method)
            res = evaluate(
                rw.program,
                rw.seeded_database(db),
                meter=EvaluationBudget(max_iterations=400).start(),
            )
            work[method] = res.stats.tuples_scanned
        assert work["supplementary_counting"] <= work["counting"]
