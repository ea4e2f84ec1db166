"""E9 -- Section 10: the safety decision table, statically and
dynamically confirmed.

Static: Theorem 10.2 (magic safe on Datalog), Theorem 10.1 (positive
binding-graph cycles certify list reverse), Theorem 10.3 (cyclic
argument graph: counting diverges on nonlinear ancestor).
Dynamic: the certified-diverging cases actually overrun a fact budget;
the certified-safe cases terminate.
"""


from repro import (
    EvaluationBudget,
    NonTerminationError,
    adorn_program,
    counting_safety,
    evaluate,
    magic_safety,
    rewrite,
)
from repro.workloads import (
    ancestor_program,
    ancestor_query,
    chain_database,
    cycle_database,
    integer_list,
    list_reverse_program,
    nested_samegen_program,
    nested_samegen_query,
    nonlinear_ancestor_program,
    reverse_query,
)

from .conftest import claim, print_table

CASES = {
    "ancestor": (ancestor_program, lambda: ancestor_query("n0")),
    "nonlinear_ancestor": (
        nonlinear_ancestor_program,
        lambda: ancestor_query("n0"),
    ),
    "nested_samegen": (
        nested_samegen_program,
        lambda: nested_samegen_query("a"),
    ),
    "list_reverse": (
        list_reverse_program,
        lambda: reverse_query(integer_list(3)),
    ),
}

EXPECTED = {
    #                     magic.safe  counting.safe
    "ancestor": (True, None),
    "nonlinear_ancestor": (True, False),
    "nested_samegen": (True, None),
    "list_reverse": (True, True),
}


def test_static_safety_table(benchmark):
    def build():
        rows = []
        for name, (program_maker, query_maker) in sorted(CASES.items()):
            adorned = adorn_program(program_maker(), query_maker())
            magic = magic_safety(adorned)
            counting = counting_safety(adorned)
            rows.append(
                [
                    name,
                    f"{magic.safe} (Thm {magic.theorem})",
                    f"{counting.safe} (Thm {counting.theorem})",
                ]
            )
        return rows

    rows = benchmark(build)
    for name, (program_maker, query_maker) in sorted(CASES.items()):
        adorned = adorn_program(program_maker(), query_maker())
        expected_magic, expected_counting = EXPECTED[name]
        claim(
            f"E9.{name}.magic", "Sec. 10", "magic methods safe",
            "=", expected_magic, magic_safety(adorned).safe,
        )
        claim(
            f"E9.{name}.counting", "Sec. 10", "counting methods safe",
            "=", expected_counting, counting_safety(adorned).safe,
        )
    print_table(
        "E9 static safety verdicts (True=safe, False=diverges, None=no "
        "certificate)",
        ["program", "magic methods", "counting methods"],
        rows,
    )


def test_dynamic_confirmation_magic_safe(benchmark):
    """Certified-safe combinations terminate, including on cycles."""

    def run():
        outcomes = []
        magic = rewrite(ancestor_program(), ancestor_query("n0"), "magic")
        evaluate(magic.program, magic.seeded_database(cycle_database(6)))
        outcomes.append("magic/cyclic-data terminated")
        reverse = rewrite(
            list_reverse_program(),
            reverse_query(integer_list(6)),
            method="counting",
        )
        evaluate(reverse.program, reverse.seeded_database(_empty()))
        outcomes.append("counting/list-reverse terminated")
        return outcomes

    outcomes = benchmark(run)
    claim(
        "E9.terminates", "Thm. 10.1, 10.2", "certified-safe evaluations",
        "=", ["magic/cyclic-data terminated", "counting/list-reverse terminated"],
        outcomes,
    )


def test_dynamic_confirmation_counting_diverges(benchmark):
    """Certified-diverging combinations overrun any fact budget."""

    def run():
        rewritten = rewrite(
            nonlinear_ancestor_program(), ancestor_query("n0"), "counting"
        )
        try:
            evaluate(
                rewritten.program,
                rewritten.seeded_database(chain_database(4)),
                meter=EvaluationBudget(max_facts=2000).start(),
            )
        except NonTerminationError as exc:
            return exc
        return None

    exc = benchmark(run)
    claim(
        "E9.diverges", "Thm. 10.3",
        "counting on nonlinear ancestor, chain 4, max_facts 2000",
        "=", "diverges",
        "diverges" if isinstance(exc, NonTerminationError) else "terminates",
    )
    print_table(
        "E9b dynamic confirmation",
        ["combination", "outcome"],
        [
            [
                "counting on nonlinear ancestor (chain data)",
                f"diverged after {exc.iterations} iterations / "
                f"{exc.facts} facts",
            ]
        ],
    )


def _empty():
    from repro.datalog.database import Database

    return Database()
