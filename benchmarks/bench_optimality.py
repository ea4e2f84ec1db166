"""E7 -- Theorem 9.1: bottom-up on P^mg is sip-optimal.

For each workload, evaluate the magic rewrite bottom-up and the QSQ
oracle (the least sip-strategy sets Q and F), and assert exact relation-
by-relation equality: magic facts = Q, adorned facts = F.
"""

import pytest

from repro import check_optimality, rewrite
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

from .conftest import claim, print_table

CASES = {
    "ancestor_chain": (
        ancestor_program,
        lambda: ancestor_query("n0"),
        lambda: chain_database(40),
    ),
    "ancestor_tree": (
        ancestor_program,
        lambda: ancestor_query("r"),
        lambda: tree_database(5),
    ),
    "ancestor_dag": (
        ancestor_program,
        lambda: ancestor_query("n5"),
        lambda: random_dag_database(40, 0.1, seed=2),
    ),
    "nonlinear_samegen": (
        nonlinear_samegen_program,
        lambda: samegen_query("l0_0"),
        lambda: samegen_database(3, 5, flat_edges=8),
    ),
    "nested_samegen": (
        nested_samegen_program,
        lambda: nested_samegen_query("l0_0"),
        lambda: nested_samegen_database(3, 4),
    ),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_sip_optimality(benchmark, name):
    program_maker, query_maker, db_maker = CASES[name]
    rewritten = rewrite(program_maker(), query_maker(), method="magic")
    db = db_maker()
    report = benchmark(
        lambda: check_optimality(rewritten, db, max_iterations=2000)
    )
    claim(
        f"E7.{name}", "Thm. 9.1",
        "relations where bottom-up P^mg differs from the sip strategy's Q, F",
        "=", [], list(report.mismatches),
    )
    oracle_size = sum(
        size
        for counts in (report.query_counts, report.fact_counts)
        for _, size in counts.values()
    )
    claim(
        f"E7.{name}.facts", "Thm. 9.1", "magic + adorned facts vs |Q| + |F|",
        "=", oracle_size,
        report.total_magic_facts() + report.total_adorned_facts(),
    )
    rows = []
    for key, (magic_facts, queries) in sorted(report.query_counts.items()):
        rows.append([key, "queries Q", magic_facts, queries])
    for key, (facts, answers) in sorted(report.fact_counts.items()):
        rows.append([key, "answers F", facts, answers])
    print_table(
        f"E7 sip-optimality: {name} (bottom-up P^mg vs sip-strategy oracle)",
        ["adorned predicate", "set", "bottom-up facts", "oracle size"],
        rows,
    )
