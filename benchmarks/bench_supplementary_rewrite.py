"""E3 -- Appendix A.4: regenerate the four GSMS rewrites."""

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
        "anc^bf(A, B) :- supmagic2_2(A, C), anc^bf(C, B).",
        "magic_anc_bf(A) :- supmagic2_2(B, A).",
        "supmagic2_2(A, B) :- magic_anc_bf(A), par(A, B).",
    ],
    "nonlinear_ancestor": [
        "anc^bf(A, B) :- magic_anc_bf(A), par(A, B).",
        "anc^bf(A, B) :- supmagic2_2(A, C), anc^bf(C, B).",
        "magic_anc_bf(A) :- supmagic2_2(B, A).",
        "supmagic2_2(A, B) :- magic_anc_bf(A), anc^bf(A, B).",
    ],
    "nested_samegen": [
        "magic_p_bf(A) :- supmagic2_2(B, A).",
        "magic_sg_bf(A) :- magic_p_bf(A).",
        "magic_sg_bf(A) :- supmagic4_2(B, A).",
        "p^bf(A, B) :- magic_p_bf(A), b1(A, B).",
        "p^bf(A, B) :- supmagic2_2(A, C), p^bf(C, D), b2(D, B).",
        "sg^bf(A, B) :- magic_sg_bf(A), flat(A, B).",
        "sg^bf(A, B) :- supmagic4_2(A, C), sg^bf(C, D), down(D, B).",
        "supmagic2_2(A, B) :- magic_p_bf(A), sg^bf(A, B).",
        "supmagic4_2(A, B) :- magic_sg_bf(A), up(A, B).",
    ],
    "list_reverse": [
        "append^bbf(A, [B | C], [B | D]) :- magic_append_bbf(A, [B | C]), "
        "append^bbf(A, C, D).",
        "append^bbf(A, [], [A]) :- magic_append_bbf(A, []).",
        "magic_append_bbf(A, B) :- magic_append_bbf(A, [C | B]).",
        "magic_append_bbf(A, B) :- supmagic2_2(A, C, B).",
        "magic_reverse_bf(A) :- magic_reverse_bf([B | A]).",
        "reverse^bf([A | B], C) :- supmagic2_2(A, B, D), append^bbf(A, D, C).",
        "reverse^bf([], []) :- magic_reverse_bf([]).",
        "supmagic2_2(A, B, C) :- magic_reverse_bf([A | B]), reverse^bf(B, C).",
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
def test_gsms_rewrite_matches_paper(benchmark, name):
    program_maker, query_maker = CASES[name]
    program, query = program_maker(), query_maker()
    rewritten = benchmark(
        lambda: rewrite(program, query, method="supplementary_magic")
    )
    claim(
        f"E3.{name}", "App. A.4", "GSMS rules", "=",
        sorted(EXPECTED[name]), canonical_rules(rewritten),
    )
    print_table(
        f"A.4 GSMS rewrite: {name}",
        ["rule"],
        [[rule] for rule in canonical_rules(rewritten)],
    )
