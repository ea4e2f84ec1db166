"""E5 -- Appendix A.6: regenerate the GSC rewrites (+ semijoin forms)."""

import pytest

from repro import rewrite, semijoin_optimize
from repro.workloads import (
    ancestor_program,
    ancestor_query,
    integer_list,
    list_reverse_program,
    nested_samegen_program,
    nested_samegen_query,
    nonlinear_samegen_program,
    reverse_query,
    samegen_query,
)

from .conftest import canonical_rules, claim, print_table

EXPECTED = {
    "ancestor": [
        "anc_ix_bf(A, B, C, D, E) :- cnt_anc_bf(A, B, C, D), par(D, E).",
        "anc_ix_bf(A, B, C, D, E) :- supcnt2_2(A, B, C, D, F), "
        "anc_ix_bf(A+1, 2*B+2, 2*C+2, F, E).",
        "cnt_anc_bf(A+1, 2*B+2, 2*C+2, D) :- supcnt2_2(A, B, C, E, D).",
        "supcnt2_2(A, B, C, D, E) :- cnt_anc_bf(A, B, C, D), par(D, E).",
    ],
    "nonlinear_samegen": [
        "cnt_sg_bf(A+1, 2*B+2, 5*C+2, D) :- supcnt2_2(A, B, C, E, D).",
        "cnt_sg_bf(A+1, 2*B+2, 5*C+4, D) :- supcnt2_4(A, B, C, E, D).",
        "sg_ix_bf(A, B, C, D, E) :- cnt_sg_bf(A, B, C, D), flat(D, E).",
        "sg_ix_bf(A, B, C, D, E) :- supcnt2_4(A, B, C, D, F), "
        "sg_ix_bf(A+1, 2*B+2, 5*C+4, F, G), down(G, E).",
        "supcnt2_2(A, B, C, D, E) :- cnt_sg_bf(A, B, C, D), up(D, E).",
        "supcnt2_3(A, B, C, D, E) :- supcnt2_2(A, B, C, D, F), "
        "sg_ix_bf(A+1, 2*B+2, 5*C+2, F, E).",
        "supcnt2_4(A, B, C, D, E) :- supcnt2_3(A, B, C, D, F), flat(F, E).",
    ],
}

EXPECTED_SEMIJOIN = {
    "ancestor": [
        "anc_ix_bf(A, B, C, D) :- anc_ix_bf(A+1, 2*B+2, 2*C+2, D).",
        "anc_ix_bf(A, B, C, D) :- cnt_anc_bf(A, B, C, E), par(E, D).",
        "cnt_anc_bf(A+1, 2*B+2, 2*C+2, D) :- supcnt2_2(A, B, C, D).",
        "supcnt2_2(A, B, C, D) :- cnt_anc_bf(A, B, C, E), par(E, D).",
    ],
    "nonlinear_samegen": [
        "cnt_sg_bf(A+1, 2*B+2, 5*C+2, D) :- supcnt2_2(A, B, C, D).",
        "cnt_sg_bf(A+1, 2*B+2, 5*C+4, D) :- supcnt2_4(A, B, C, D).",
        "sg_ix_bf(A, B, C, D) :- cnt_sg_bf(A, B, C, E), flat(E, D).",
        "sg_ix_bf(A, B, C, D) :- sg_ix_bf(A+1, 2*B+2, 5*C+4, E), down(E, D).",
        "supcnt2_2(A, B, C, D) :- cnt_sg_bf(A, B, C, E), up(E, D).",
        "supcnt2_3(A, B, C, D) :- sg_ix_bf(A+1, 2*B+2, 5*C+2, D).",
        "supcnt2_4(A, B, C, D) :- supcnt2_3(A, B, C, E), flat(E, D).",
    ],
}

CASES = {
    "ancestor": (ancestor_program, lambda: ancestor_query("john")),
    "nonlinear_samegen": (
        nonlinear_samegen_program,
        lambda: samegen_query("john"),
    ),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_gsc_rewrite_matches_paper(benchmark, name):
    program_maker, query_maker = CASES[name]
    program, query = program_maker(), query_maker()
    rewritten = benchmark(
        lambda: rewrite(program, query, method="supplementary_counting")
    )
    claim(
        f"E5.{name}", "App. A.6", "GSC rules", "=",
        sorted(EXPECTED[name]), canonical_rules(rewritten),
    )


@pytest.mark.parametrize("name", sorted(CASES))
def test_gsc_semijoin_matches_paper(benchmark, name):
    program_maker, query_maker = CASES[name]
    program, query = program_maker(), query_maker()
    plain = rewrite(program, query, method="supplementary_counting")
    optimized = benchmark(lambda: semijoin_optimize(plain))
    claim(
        f"E5.{name}.semijoin", "App. A.6", "GSC + semijoin rules", "=",
        sorted(EXPECTED_SEMIJOIN[name]), canonical_rules(optimized),
    )
    print_table(
        f"A.6 GSC + semijoin: {name}",
        ["rule"],
        [[rule] for rule in canonical_rules(optimized)],
    )


def test_gsc_rewrites_nested_and_reverse(benchmark):
    def run():
        nested = rewrite(
            nested_samegen_program(),
            nested_samegen_query("john"),
            method="supplementary_counting",
        )
        reverse = rewrite(
            list_reverse_program(),
            reverse_query(integer_list(2)),
            method="supplementary_counting",
        )
        return nested, reverse

    nested, reverse = benchmark(run)
    for name, rewritten, count in (
        ("nested", nested, 9),
        ("reverse", reverse, 8),
    ):
        claim(
            f"E5.{name}", "App. A.6", "GSC rule count", "=",
            count, len(rewritten.rules),
        )
