"""E4 -- Appendix A.5: regenerate the GC rewrites and their
semijoin-optimized forms; statically flag nonlinear ancestor
(A.5.2: "the counting strategy does not terminate in this example").
"""

import pytest

from repro import (
    adorn_program,
    counting_safety,
    rewrite,
    semijoin_optimize,
)
from repro.workloads import (
    ancestor_program,
    ancestor_query,
    integer_list,
    list_reverse_program,
    nested_samegen_program,
    nested_samegen_query,
    nonlinear_ancestor_program,
    nonlinear_samegen_program,
    reverse_query,
    samegen_query,
)

from .conftest import canonical_rules, claim, print_table

EXPECTED_PLAIN = {
    "ancestor": [
        "anc_ix_bf(A, B, C, D, E) :- cnt_anc_bf(A, B, C, D), par(D, E).",
        "anc_ix_bf(A, B, C, D, E) :- cnt_anc_bf(A, B, C, D), par(D, F), "
        "anc_ix_bf(A+1, 2*B+2, 2*C+2, F, E).",
        "cnt_anc_bf(A+1, 2*B+2, 2*C+2, D) :- cnt_anc_bf(A, B, C, E), "
        "par(E, D).",
    ],
    "nonlinear_samegen": [
        "cnt_sg_bf(A+1, 2*B+2, 5*C+2, D) :- cnt_sg_bf(A, B, C, E), up(E, D).",
        "cnt_sg_bf(A+1, 2*B+2, 5*C+4, D) :- cnt_sg_bf(A, B, C, E), "
        "up(E, F), sg_ix_bf(A+1, 2*B+2, 5*C+2, F, G), flat(G, D).",
        "sg_ix_bf(A, B, C, D, E) :- cnt_sg_bf(A, B, C, D), flat(D, E).",
        "sg_ix_bf(A, B, C, D, E) :- cnt_sg_bf(A, B, C, D), up(D, F), "
        "sg_ix_bf(A+1, 2*B+2, 5*C+2, F, G), flat(G, H), "
        "sg_ix_bf(A+1, 2*B+2, 5*C+4, H, I), down(I, E).",
    ],
}

EXPECTED_SEMIJOIN = {
    "ancestor": [
        "anc_ix_bf(A, B, C, D) :- anc_ix_bf(A+1, 2*B+2, 2*C+2, D).",
        "anc_ix_bf(A, B, C, D) :- cnt_anc_bf(A, B, C, E), par(E, D).",
        "cnt_anc_bf(A+1, 2*B+2, 2*C+2, D) :- cnt_anc_bf(A, B, C, E), "
        "par(E, D).",
    ],
    "nonlinear_samegen": [
        "cnt_sg_bf(A+1, 2*B+2, 5*C+2, D) :- cnt_sg_bf(A, B, C, E), up(E, D).",
        "cnt_sg_bf(A+1, 2*B+2, 5*C+4, D) :- "
        "sg_ix_bf(A+1, 2*B+2, 5*C+2, E), flat(E, D).",
        "sg_ix_bf(A, B, C, D) :- cnt_sg_bf(A, B, C, E), flat(E, D).",
        "sg_ix_bf(A, B, C, D) :- sg_ix_bf(A+1, 2*B+2, 5*C+4, E), down(E, D).",
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
def test_gc_rewrite_matches_paper(benchmark, name):
    program_maker, query_maker = CASES[name]
    program, query = program_maker(), query_maker()
    rewritten = benchmark(lambda: rewrite(program, query, method="counting"))
    claim(
        f"E4.{name}", "App. A.5", "GC rules", "=",
        sorted(EXPECTED_PLAIN[name]), canonical_rules(rewritten),
    )


@pytest.mark.parametrize("name", sorted(CASES))
def test_gc_semijoin_matches_paper(benchmark, name):
    program_maker, query_maker = CASES[name]
    program, query = program_maker(), query_maker()
    plain = rewrite(program, query, method="counting")
    optimized = benchmark(lambda: semijoin_optimize(plain))
    claim(
        f"E4.{name}.semijoin", "App. A.5", "GC + semijoin rules", "=",
        sorted(EXPECTED_SEMIJOIN[name]), canonical_rules(optimized),
    )
    print_table(
        f"A.5 GC + semijoin: {name}",
        ["rule"],
        [[rule] for rule in canonical_rules(optimized)],
    )


def test_gc_rewrites_the_remaining_appendix_problems(benchmark):
    """Nested same-generation and list reverse also rewrite cleanly."""

    def run():
        out = {}
        out["nested"] = rewrite(
            nested_samegen_program(),
            nested_samegen_query("john"),
            method="counting",
        )
        out["reverse"] = rewrite(
            list_reverse_program(),
            reverse_query(integer_list(2)),
            method="counting",
        )
        return out

    results = benchmark(run)
    for name in ("nested", "reverse"):
        claim(
            f"E4.{name}", "App. A.5", "GC rule count", "=",
            7, len(results[name].rules),
        )


def test_nonlinear_ancestor_flagged_nonterminating(benchmark):
    """A.5.2: counting does not terminate; Theorem 10.3 certifies it
    statically (cyclic reachable argument graph)."""
    adorned = adorn_program(
        nonlinear_ancestor_program(), ancestor_query("john")
    )
    report = benchmark(lambda: counting_safety(adorned))
    claim(
        "E4.nonlinear_ancestor.verdict", "App. A.5.2",
        "counting safety (safe, theorem)", "=",
        [False, "10.3"], [report.safe, report.theorem],
    )
    print_table(
        "A.5.2 verdict",
        ["program", "safe", "theorem"],
        [["nonlinear ancestor + counting", report.safe, report.theorem]],
    )
