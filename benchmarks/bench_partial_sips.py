"""E8 -- Lemma 9.3: fuller sips compute a subset of the facts of the
partial sips they contain.

Compares the full left-to-right compressed sip against the no-memory
chain sip (Example 1 (I) vs (II)) on the nonlinear same-generation
program, asserting per-predicate containment and reporting counts.
"""

import pytest

from repro import build_chain_sip, compare_sips, rewrite
from repro.workloads import (
    nonlinear_samegen_program,
    samegen_database,
    samegen_query,
)

from .conftest import claim, print_table

PARAMS = [(3, 4, 6), (3, 6, 12), (4, 5, 10)]


@pytest.mark.parametrize("layers,width,flat", PARAMS)
def test_full_sip_contained_in_partial(benchmark, layers, width, flat):
    program = nonlinear_samegen_program()
    query = samegen_query("l0_0")
    full = rewrite(program, query, method="magic")
    partial = rewrite(
        program, query, method="magic", sip_builder=build_chain_sip
    )
    db = samegen_database(layers, width, flat_edges=flat, seed=1)
    comparison = benchmark(
        lambda: compare_sips(full, partial, db, max_iterations=2000)
    )
    case = f"E8.{layers}x{width}x{flat}"
    claim(
        case, "Lemma 9.3", "full-sip facts ⊆ partial-sip facts, per predicate",
        "=", True, comparison.contained,
    )
    claim(
        f"{case}.facts", "Lemma 9.3", "facts derived, full vs partial sip",
        "≤", comparison.partial_facts, comparison.fuller_facts,
    )
    rows = [
        [key, fuller, partial_count]
        for key, (fuller, partial_count) in sorted(
            comparison.per_predicate.items()
        )
    ]
    rows.append(["TOTAL", comparison.fuller_facts, comparison.partial_facts])
    print_table(
        f"E8 full vs partial sip facts (layers={layers}, width={width}, "
        f"flat={flat})",
        ["predicate", "full sip", "partial sip"],
        rows,
    )
