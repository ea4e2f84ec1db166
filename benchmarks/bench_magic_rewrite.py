"""E2 -- Appendix A.3: regenerate the four GMS rewrites.

Times the generalized magic-sets rewrite and asserts the outputs equal
the paper's rule sets (canonical comparison, as in the tests).
"""

import pytest

from repro import rewrite
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

EXPECTED = {
    "ancestor": [
        "anc^bf(A, B) :- magic_anc_bf(A), par(A, B).",
        "anc^bf(A, B) :- magic_anc_bf(A), par(A, C), anc^bf(C, B).",
        "magic_anc_bf(A) :- magic_anc_bf(B), par(B, A).",
    ],
    "nonlinear_ancestor": [
        "anc^bf(A, B) :- magic_anc_bf(A), anc^bf(A, C), anc^bf(C, B).",
        "anc^bf(A, B) :- magic_anc_bf(A), par(A, B).",
        "magic_anc_bf(A) :- magic_anc_bf(B), anc^bf(B, A).",
    ],
    "nested_samegen": [
        "magic_p_bf(A) :- magic_p_bf(B), sg^bf(B, A).",
        "magic_sg_bf(A) :- magic_p_bf(A).",
        "magic_sg_bf(A) :- magic_sg_bf(B), up(B, A).",
        "p^bf(A, B) :- magic_p_bf(A), b1(A, B).",
        "p^bf(A, B) :- magic_p_bf(A), sg^bf(A, C), p^bf(C, D), b2(D, B).",
        "sg^bf(A, B) :- magic_sg_bf(A), flat(A, B).",
        "sg^bf(A, B) :- magic_sg_bf(A), up(A, C), sg^bf(C, D), down(D, B).",
    ],
    "list_reverse": [
        "append^bbf(A, [B | C], [B | D]) :- magic_append_bbf(A, [B | C]), "
        "append^bbf(A, C, D).",
        "append^bbf(A, [], [A]) :- magic_append_bbf(A, []).",
        "magic_append_bbf(A, B) :- magic_append_bbf(A, [C | B]).",
        "magic_append_bbf(A, B) :- magic_reverse_bf([A | C]), reverse^bf(C, B).",
        "magic_reverse_bf(A) :- magic_reverse_bf([B | A]).",
        "reverse^bf([A | B], C) :- magic_reverse_bf([A | B]), "
        "reverse^bf(B, D), append^bbf(A, D, C).",
        "reverse^bf([], []) :- magic_reverse_bf([]).",
    ],
}

CASES = {
    "ancestor": (ancestor_program, lambda: ancestor_query("john")),
    "nonlinear_ancestor": (
        nonlinear_ancestor_program,
        lambda: ancestor_query("john"),
    ),
    "nested_samegen": (
        nested_samegen_program,
        lambda: nested_samegen_query("john"),
    ),
    "list_reverse": (
        list_reverse_program,
        lambda: reverse_query(integer_list(2)),
    ),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_gms_rewrite_matches_paper(benchmark, name):
    program_maker, query_maker = CASES[name]
    program, query = program_maker(), query_maker()
    rewritten = benchmark(lambda: rewrite(program, query, method="magic"))
    claim(
        f"E2.{name}", "App. A.3", "GMS rules", "=",
        sorted(EXPECTED[name]), canonical_rules(rewritten),
    )
    print_table(
        f"A.3 GMS rewrite: {name}",
        ["rule"],
        [[rule] for rule in canonical_rules(rewritten)],
    )
