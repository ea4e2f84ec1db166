"""E6 -- the Section 1 claim: bottom-up computes the complete relation,
the rewritten programs compute only the query's cone.

Regenerates a fact-count table over chain / tree / random-DAG parenthood
relations.  Shape assertions: every method agrees with the baseline, and
on a selective query the magic methods derive strictly fewer facts than
full bottom-up evaluation.
"""

import pytest

from repro import Session
from repro.workloads import (
    ancestor_program,
    ancestor_query,
    chain_database,
    random_dag_database,
    tree_database,
)

from .conftest import claim, print_table

WORKLOADS = {
    "chain_60": (lambda: chain_database(60), "n30"),
    "tree_d6": (lambda: tree_database(6), "r_0_0"),
    "dag_60": (lambda: random_dag_database(60, 0.08, seed=13), "n20"),
}

METHODS = ("naive", "seminaive", "magic", "supplementary_magic", "qsq")


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_fact_counts(benchmark, workload):
    db_maker, root = WORKLOADS[workload]
    query = ancestor_query(root)
    session = Session(program=ancestor_program(), database=db_maker())

    baseline = session.query(query, method="naive")
    rows = [["naive", len(baseline.rows), baseline.stats.facts_derived]]
    results = {"naive": baseline}
    for method in ("seminaive", "magic", "supplementary_magic", "qsq"):
        answer = session.query(query, method=method)
        results[method] = answer
        facts = answer.stats.facts_derived if answer.stats else "-"
        rows.append([method, len(answer.rows), facts])
        assert answer.rows == baseline.rows, method

    # the headline shape: magic derives fewer facts than full bottom-up
    claim(
        f"E6.{workload}", "Sec. 1",
        f"facts derived, magic vs naive, root {root}",
        "<", baseline.stats.facts_derived,
        results["magic"].stats.facts_derived,
    )
    print_table(
        f"E6 fact counts: ancestor on {workload}, query root={root}",
        ["strategy", "answers", "facts derived"],
        rows,
    )

    # bypass the answer memo: the benchmark measures evaluation
    benchmark(
        lambda: Session(
            program=session.program, database=session.database
        ).query(query, method="magic")
    )


def test_magic_scales_with_cone_not_graph(benchmark):
    """On a fixed tree, a deeper query root means a smaller cone and
    proportionally less magic work -- while naive work stays constant."""
    session = Session(program=ancestor_program(), database=tree_database(7))
    naive_facts = session.query(
        ancestor_query("r"), method="seminaive"
    ).stats.facts_derived

    rows = []
    previous = None
    for root in ("r", "r_0", "r_0_0", "r_0_0_0"):
        answer = session.query(ancestor_query(root), method="magic")
        rows.append([root, len(answer.rows), answer.stats.facts_derived])
        if previous is not None:
            claim(
                f"E6.tree_d7.{root}", "Sec. 1",
                f"magic facts derived, root {root} vs {previous[0]}",
                "<", previous[1], answer.stats.facts_derived,
            )
        previous = (root, answer.stats.facts_derived)
    print_table(
        f"E6b magic work tracks the cone (naive would derive {naive_facts})",
        ["query root", "answers", "facts derived"],
        rows,
    )
    benchmark(
        lambda: Session(
            program=session.program, database=session.database
        ).query(ancestor_query("r_0_0"), method="magic")
    )
