"""Sip-optimality -- Section 9 (experiments E7 and E8)."""

import pytest

from repro import (
    CompiledProgram,
    EvaluationBudget,
    EvaluationStats,
    build_chain_sip,
    check_optimality,
    compare_sips,
    evaluate,
    parse_query,
    rewrite,
)
from repro.workloads import (
    ancestor_program,
    ancestor_query,
    chain_database,
    nested_samegen_database,
    nested_samegen_program,
    nested_samegen_query,
    nonlinear_samegen_program,
    random_dag_database,
    samegen_database,
    samegen_query,
    tree_database,
)


def _samegen_firings_are_sip_optimal(query):
    """Check Theorem 9.1 for magic and supplementary magic on layered
    same-generation data, and that semi-naive evaluation of the
    supplementary rewrite fires every body solution of its final model
    exactly once; return that number of solutions."""
    db = samegen_database(layers=10, width=3, flat_edges=2)
    for method in ("magic", "supplementary_magic"):
        rewritten = rewrite(nonlinear_samegen_program(), query, method)
        report = check_optimality(rewritten, db)
        assert report.sip_optimal, (method, report.mismatches)
    sg = rewrite(nonlinear_samegen_program(), query, "supplementary_magic")
    seeded = sg.seeded_database(samegen_database(layers=6, width=4))
    result = evaluate(sg.program, seeded)
    compiled = CompiledProgram(sg.program)
    solutions = sum(
        compiled.plan(ri).execute_batch(result.database, EvaluationStats())[2]
        for ri in range(len(sg.program.rules))
    )
    assert result.stats.rule_firings == solutions
    return solutions


class TestTheorem91:
    """Bottom-up on P^mg is sip-optimal: magic facts = the sip strategy's
    queries Q, adorned facts = its answers F."""

    @pytest.mark.parametrize(
        "db_maker,root",
        [
            (lambda: chain_database(10), "n0"),
            (lambda: tree_database(4), "r"),
            (lambda: random_dag_database(25, 0.15, seed=3), "n0"),
        ],
    )
    def test_ancestor(self, db_maker, root):
        rewritten = rewrite(
            ancestor_program(), ancestor_query(root), method="magic"
        )
        report = check_optimality(rewritten, db_maker())
        assert report.sip_optimal, report.mismatches

    def test_nonlinear_samegen(self):
        rewritten = rewrite(
            nonlinear_samegen_program(), samegen_query("l0_0"), method="magic"
        )
        db = samegen_database(3, 4, flat_edges=6)
        report = check_optimality(
            rewritten,
            db,
            meter=EvaluationBudget(max_iterations=500).start(),
        )
        assert report.sip_optimal, report.mismatches

    def test_samegen_bound_query(self):
        # the Section 9 case: sg^bf, its magic sets seeded by one constant
        query = samegen_query("l0_0")
        assert query == parse_query("sg(l0_0, Y)?")
        assert _samegen_firings_are_sip_optimal(query) == 720

    def test_samegen_all_free_query(self):
        # sg^ff: the magic sets are seeded by up's every node, not one
        # constant
        query = parse_query("sg(X, Y)?")
        assert not any(arg.is_ground() for arg in query.literal.args)
        assert _samegen_firings_are_sip_optimal(query) == 2060

    def test_nested_samegen(self):
        rewritten = rewrite(
            nested_samegen_program(),
            nested_samegen_query("l0_0"),
            method="magic",
        )
        db = nested_samegen_database(3, 4)
        report = check_optimality(
            rewritten,
            db,
            meter=EvaluationBudget(max_iterations=500).start(),
        )
        assert report.sip_optimal, report.mismatches

    def test_report_counts(self):
        rewritten = rewrite(
            ancestor_program(), ancestor_query("n0"), method="magic"
        )
        report = check_optimality(rewritten, chain_database(6))
        # queries: one magic fact per reachable node (n0..n6)
        assert report.total_magic_facts() == 7
        # answers: all (x, y) ancestor pairs with x reachable
        assert report.total_adorned_facts() == 6 + 5 + 4 + 3 + 2 + 1

    def test_supplementary_magic_also_optimal_in_facts(self):
        """GSMS computes the same magic/adorned fact sets (it only adds
        supplementary predicates)."""
        db = chain_database(8)
        gms = rewrite(ancestor_program(), ancestor_query("n0"), method="magic")
        gsms = rewrite(
            ancestor_program(),
            ancestor_query("n0"),
            method="supplementary_magic",
        )
        gms_res = evaluate(gms.program, gms.seeded_database(db))
        gsms_res = evaluate(gsms.program, gsms.seeded_database(db))
        for key in ("anc^bf", "magic_anc_bf"):
            assert gms_res.database.tuples(key) == gsms_res.database.tuples(
                key
            )


class TestLemma93:
    """Fuller sips compute a subset of the partial sip's facts."""

    def test_full_contained_in_partial_nonlinear_samegen(self):
        program = nonlinear_samegen_program()
        query = samegen_query("l0_0")
        full = rewrite(program, query, method="magic")
        partial = rewrite(
            program, query, method="magic", sip_builder=build_chain_sip
        )
        db = samegen_database(3, 5, flat_edges=8, seed=2)
        comparison = compare_sips(
            full,
            partial,
            db,
            meter=EvaluationBudget(max_iterations=500).start(),
        )
        assert comparison.contained
        assert comparison.fuller_facts <= comparison.partial_facts

    def test_identical_sips_compare_equal(self):
        program = ancestor_program()
        query = ancestor_query("n0")
        full = rewrite(program, query, method="magic")
        again = rewrite(program, query, method="magic")
        comparison = compare_sips(full, again, chain_database(6))
        assert comparison.contained
        assert comparison.fuller_facts == comparison.partial_facts
