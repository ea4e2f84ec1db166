"""E10 -- the Section 9 discussion (after [5]): the number of magic
facts is, in general, a small fraction of the generated facts.

Measures the magic/total derived-fact ratio across workloads and query
selectivities; asserts it stays at or below one magic fact per answer
fact plus seed (the paper's "small fraction" holds whenever each
subquery yields at least one answer on average).
"""

import pytest

from repro import QueryOptions, answer_query
from repro.workloads import (
    ancestor_program,
    ancestor_query,
    chain_database,
    nonlinear_samegen_program,
    random_dag_database,
    samegen_database,
    samegen_query,
    tree_database,
)

from .conftest import claim, print_table

CASES = {
    "ancestor_chain_80": (
        ancestor_program,
        lambda: ancestor_query("n0"),
        lambda: chain_database(80),
    ),
    "ancestor_tree_d7": (
        ancestor_program,
        lambda: ancestor_query("r_0"),
        lambda: tree_database(7),
    ),
    "ancestor_dag_80": (
        ancestor_program,
        lambda: ancestor_query("n2"),
        lambda: random_dag_database(80, 0.06, seed=21),
    ),
    "nonlinear_samegen": (
        nonlinear_samegen_program,
        lambda: samegen_query("l0_0"),
        lambda: samegen_database(4, 6, flat_edges=10),
    ),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_magic_fact_fraction(benchmark, name):
    program_maker, query_maker, db_maker = CASES[name]
    program, query, db = program_maker(), query_maker(), db_maker()
    answer = benchmark(
        lambda: answer_query(
            program,
            db,
            query,
            QueryOptions(method="magic", max_iterations=2000),
        )
    )
    breakdown = answer.rewritten.fact_breakdown(answer.evaluation)
    fraction = breakdown["magic"] / max(breakdown["total"], 1)
    print_table(
        f"E10 magic-fact overhead: {name}",
        ["adorned facts", "magic facts", "total", "magic fraction"],
        [
            [
                breakdown["adorned"],
                breakdown["magic"],
                breakdown["total"],
                f"{fraction:.2%}",
            ]
        ],
    )
    # the shape claim: magic facts never dominate
    claim(
        f"E10.{name}", "Sec. 9", "magic facts vs half the derived facts",
        "≤", breakdown["total"] / 2, breakdown["magic"],
    )
