"""The semijoin optimization -- Section 8 (experiment E12, plus the
optimized appendix rule sets of A.5/A.6 and Example 8)."""

import pytest

from repro import (
    EvaluationBudget,
    RewriteError,
    evaluate,
    lemma_8_1_prune,
    lemma_8_2_anonymize,
    rewrite,
    semijoin_optimize,
)
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
    samegen_database,
    samegen_query,
    tree_database,
)

from conftest import assert_rules_equal, canonical_rules


class TestOptimizedAppendixSets:
    def test_ancestor_counting(self):
        """A.5.1 optimized: the recursive modified rule becomes a pure
        index walk."""
        rewritten = semijoin_optimize(
            rewrite(ancestor_program(), ancestor_query("john"), method="counting")
        )
        assert_rules_equal(
            rewritten,
            [
                "anc_ix_bf(A, B, C, D) :- anc_ix_bf(A+1, 2*B+2, 2*C+2, D).",
                "anc_ix_bf(A, B, C, D) :- cnt_anc_bf(A, B, C, E), par(E, D).",
                "cnt_anc_bf(A+1, 2*B+2, 2*C+2, D) :- "
                "cnt_anc_bf(A, B, C, E), par(E, D).",
            ],
        )

    def test_ancestor_supplementary_counting(self):
        """A.6.1 optimized, including the dropped supcnt argument."""
        rewritten = semijoin_optimize(
            rewrite(
                ancestor_program(),
                ancestor_query("john"),
                method="supplementary_counting",
            )
        )
        assert_rules_equal(
            rewritten,
            [
                "anc_ix_bf(A, B, C, D) :- anc_ix_bf(A+1, 2*B+2, 2*C+2, D).",
                "anc_ix_bf(A, B, C, D) :- cnt_anc_bf(A, B, C, E), par(E, D).",
                "cnt_anc_bf(A+1, 2*B+2, 2*C+2, D) :- supcnt2_2(A, B, C, D).",
                "supcnt2_2(A, B, C, D) :- cnt_anc_bf(A, B, C, E), par(E, D).",
            ],
        )

    def test_nonlinear_samegen_example_8(self):
        rewritten = semijoin_optimize(
            rewrite(
                nonlinear_samegen_program(),
                samegen_query("john"),
                method="counting",
            )
        )
        assert_rules_equal(
            rewritten,
            [
                "cnt_sg_bf(A+1, 2*B+2, 5*C+2, D) :- "
                "cnt_sg_bf(A, B, C, E), up(E, D).",
                "cnt_sg_bf(A+1, 2*B+2, 5*C+4, D) :- "
                "sg_ix_bf(A+1, 2*B+2, 5*C+2, E), flat(E, D).",
                "sg_ix_bf(A, B, C, D) :- cnt_sg_bf(A, B, C, E), flat(E, D).",
                "sg_ix_bf(A, B, C, D) :- sg_ix_bf(A+1, 2*B+2, 5*C+4, E), "
                "down(E, D).",
            ],
        )

    def test_nested_samegen_counting(self):
        """A.5.3 optimized."""
        rewritten = semijoin_optimize(
            rewrite(
                nested_samegen_program(),
                nested_samegen_query("john"),
                method="counting",
            )
        )
        assert_rules_equal(
            rewritten,
            [
                "cnt_p_bf(A+1, 4*B+2, 3*C+2, D) :- "
                "sg_ix_bf(A+1, 4*B+2, 3*C+1, D).",
                "cnt_sg_bf(A+1, 4*B+2, 3*C+1, D) :- cnt_p_bf(A, B, C, D).",
                "cnt_sg_bf(A+1, 4*B+4, 3*C+2, D) :- "
                "cnt_sg_bf(A, B, C, E), up(E, D).",
                "p_ix_bf(A, B, C, D) :- cnt_p_bf(A, B, C, E), b1(E, D).",
                "p_ix_bf(A, B, C, D) :- p_ix_bf(A+1, 4*B+2, 3*C+2, E), "
                "b2(E, D).",
                "sg_ix_bf(A, B, C, D) :- cnt_sg_bf(A, B, C, E), flat(E, D).",
                "sg_ix_bf(A, B, C, D) :- sg_ix_bf(A+1, 4*B+4, 3*C+2, E), "
                "down(E, D).",
            ],
        )

    def test_nested_samegen_supplementary_counting(self):
        """A.6.3 optimized, with the dead supcnt position dropped."""
        rewritten = semijoin_optimize(
            rewrite(
                nested_samegen_program(),
                nested_samegen_query("john"),
                method="supplementary_counting",
            )
        )
        rules = canonical_rules(rewritten)
        assert (
            "supcnt2_2(A, B, C, D) :- sg_ix_bf(A+1, 4*B+2, 3*C+1, D)."
            in rules
        )
        assert (
            "p_ix_bf(A, B, C, D) :- p_ix_bf(A+1, 4*B+2, 3*C+2, E), "
            "b2(E, D)." in rules
        )

    def test_list_reverse_unchanged(self):
        """Reverse's bound arguments support real joins (V rides through
        append's third argument); the optimization must not fire."""
        rewritten = rewrite(
            list_reverse_program(),
            reverse_query(integer_list(2)),
            method="counting",
        )
        optimized = semijoin_optimize(rewritten)
        assert canonical_rules(optimized) == canonical_rules(rewritten)


class TestCorrectness:
    @pytest.mark.parametrize("method", ["counting", "supplementary_counting"])
    @pytest.mark.parametrize(
        "db_maker,root",
        [(lambda: chain_database(9), "n0"), (lambda: tree_database(4), "r")],
    )
    def test_answers_preserved_on_ancestor(self, method, db_maker, root):
        program = ancestor_program()
        db = db_maker()
        query = ancestor_query(root)
        plain = rewrite(program, query, method=method)
        optimized = semijoin_optimize(plain)
        plain_res = evaluate(plain.program, plain.seeded_database(db))
        opt_res = evaluate(optimized.program, optimized.seeded_database(db))
        assert plain.extract_answers(plain_res) == optimized.extract_answers(
            opt_res
        )

    def test_answers_preserved_on_nonlinear_samegen(self):
        program = nonlinear_samegen_program()
        query = samegen_query("l0_0")
        db = samegen_database(3, 4, flat_edges=6)
        plain = rewrite(program, query, method="counting")
        optimized = semijoin_optimize(plain)
        plain_res = evaluate(
            plain.program,
            plain.seeded_database(db),
            meter=EvaluationBudget(max_iterations=400).start(),
        )
        opt_res = evaluate(
            optimized.program,
            optimized.seeded_database(db),
            meter=EvaluationBudget(max_iterations=400).start(),
        )
        assert plain.extract_answers(plain_res) == optimized.extract_answers(
            opt_res
        )

    def test_narrower_facts_and_fewer_scans(self):
        """The optimization shrinks fact width and join work (Section 11:
        'reduces the number of joins ... and the width')."""
        program = ancestor_program()
        query = ancestor_query("n0")
        db = chain_database(30)
        plain = rewrite(program, query, method="counting")
        optimized = semijoin_optimize(plain)
        plain_res = evaluate(plain.program, plain.seeded_database(db))
        opt_res = evaluate(optimized.program, optimized.seeded_database(db))
        assert (
            opt_res.stats.tuples_scanned < plain_res.stats.tuples_scanned
        )
        plain_width = len(next(iter(plain_res.database.tuples("anc_ix_bf"))))
        opt_width = len(next(iter(opt_res.database.tuples("anc_ix_bf"))))
        assert opt_width == plain_width - 1


class TestLemmaLevelPasses:
    def test_lemma_8_1_deletes_tails_keeps_width(self):
        rewritten = rewrite(
            nonlinear_samegen_program(),
            samegen_query("john"),
            method="counting",
        )
        pruned = lemma_8_1_prune(rewritten)
        rules = canonical_rules(pruned)
        # the second counting rule loses its cnt/up prefix (the paper's
        # first illustration in Section 8) ...
        assert (
            "cnt_sg_bf(A+1, 2*B+2, 5*C+4, D) :- "
            "sg_ix_bf(A+1, 2*B+2, 5*C+2, E, F), flat(F, D)." in rules
        )
        # ... but relations keep their bound columns
        assert any("sg_ix_bf(A, B, C, D, E)" in r for r in rules)

    def test_lemma_8_2_anonymizes_dont_care_arguments(self):
        rewritten = rewrite(
            nonlinear_samegen_program(),
            samegen_query("john"),
            method="counting",
        )
        pruned = lemma_8_1_prune(rewritten)
        anonymized = lemma_8_2_anonymize(pruned)
        # after the Lemma 8.1 pruning, the bound argument of sg_ix in the
        # second counting rule is a don't-care and gets anonymized
        variables = {
            var.name
            for rr in anonymized.rules
            for var in rr.rule.variables()
        }
        assert any(name.startswith("_sj") for name in variables)

    def test_lemma_passes_preserve_answers(self):
        program = nonlinear_samegen_program()
        query = samegen_query("l0_0")
        db = samegen_database(3, 4, flat_edges=6)
        plain = rewrite(program, query, method="counting")
        for transform in (lemma_8_1_prune, lemma_8_2_anonymize):
            optimized = transform(plain)
            plain_res = evaluate(
                plain.program,
                plain.seeded_database(db),
                meter=EvaluationBudget(max_iterations=400).start(),
            )
            opt_res = evaluate(
                optimized.program,
                optimized.seeded_database(db),
                meter=EvaluationBudget(max_iterations=400).start(),
            )
            assert plain.extract_answers(
                plain_res
            ) == optimized.extract_answers(opt_res)


class TestGuards:
    def test_rejects_magic_methods(self):
        rewritten = rewrite(
            ancestor_program(), ancestor_query("a"), method="magic"
        )
        with pytest.raises(RewriteError):
            semijoin_optimize(rewritten)

    def test_pipeline_flag(self):
        optimized = rewrite(
            ancestor_program(),
            ancestor_query("a"),
            method="counting",
            semijoin=True,
        )
        assert optimized.method == "counting_semijoin"
        with pytest.raises(RewriteError):
            rewrite(
                ancestor_program(),
                ancestor_query("a"),
                method="magic",
                semijoin=True,
            )
