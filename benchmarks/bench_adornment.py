"""E1 -- Appendix A.2: regenerate the adorned rule sets.

The artifact is the adorned program itself; the benchmark times the
adornment construction and asserts the rule sets match the paper
(structurally, via the same canonical comparison the tests use).
"""

import pytest

from repro import adorn_program
from repro.workloads import (
    ancestor_program,
    ancestor_query,
    integer_list,
    list_reverse_program,
    nested_samegen_program,
    nested_samegen_query,
    nonlinear_ancestor_program,
    reverse_query,
)

from .conftest import canonical_rules, claim, print_table

CASES = {
    "ancestor": (
        ancestor_program,
        lambda: ancestor_query("john"),
        [
            "anc^bf(A, B) :- par(A, B).",
            "anc^bf(A, B) :- par(A, C), anc^bf(C, B).",
        ],
    ),
    "nonlinear_ancestor": (
        nonlinear_ancestor_program,
        lambda: ancestor_query("john"),
        [
            "anc^bf(A, B) :- anc^bf(A, C), anc^bf(C, B).",
            "anc^bf(A, B) :- par(A, B).",
        ],
    ),
    "nested_samegen": (
        nested_samegen_program,
        lambda: nested_samegen_query("john"),
        [
            "p^bf(A, B) :- b1(A, B).",
            "p^bf(A, B) :- sg^bf(A, C), p^bf(C, D), b2(D, B).",
            "sg^bf(A, B) :- flat(A, B).",
            "sg^bf(A, B) :- up(A, C), sg^bf(C, D), down(D, B).",
        ],
    ),
    "list_reverse": (
        list_reverse_program,
        lambda: reverse_query(integer_list(2)),
        [
            "append^bbf(A, [B | C], [B | D]) :- append^bbf(A, C, D).",
            "append^bbf(A, [], [A]).",
            "reverse^bf([A | B], C) :- reverse^bf(B, D), append^bbf(A, D, C).",
            "reverse^bf([], []).",
        ],
    ),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_adornment_matches_paper(benchmark, name):
    program_maker, query_maker, expected = CASES[name]
    program, query = program_maker(), query_maker()
    adorned = benchmark(lambda: adorn_program(program, query))
    claim(
        f"E1.{name}", "App. A.2", "adorned rules", "=",
        sorted(expected), canonical_rules(adorned),
    )
    print_table(
        f"A.2 adorned rules: {name}",
        ["rule"],
        [[rule] for rule in canonical_rules(adorned)],
    )
