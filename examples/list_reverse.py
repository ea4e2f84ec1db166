"""List reverse: magic sets over function symbols (Appendix A.1(4)).

Plain bottom-up evaluation cannot run this program at all: the exit rule
``append(V, [], [V])`` is a non-ground unit rule, and the recursion
builds ever-larger lists.  The magic rewrite makes it terminate -- the
binding graph's cycles all have positive length (Theorem 10.1): every
recursive call strips one cons cell off the bound argument.

This example stays on the module-level pipeline (``adorn_program`` /
``rewrite`` / ``answer_query``), the stages :class:`repro.Session` runs
a cold query through (see the other examples for the session-first
style); ``answer_query`` takes its options as one ``QueryOptions``.

Run::

    python examples/list_reverse.py
"""

from repro import (
    EvaluationBudget,
    EvaluationError,
    QueryOptions,
    adorn_program,
    answer_query,
    counting_safety,
    evaluate,
    magic_safety,
    rewrite,
)
from repro.datalog.database import Database
from repro.workloads import constant_list, list_reverse_program, reverse_query


def main() -> None:
    program = list_reverse_program()
    print("the program (Appendix A.1, problem 4):")
    for rule in program.rules:
        print("   ", rule)
    print()

    query = reverse_query(constant_list(["a", "b", "c", "d"]))
    print("query:", query)
    print()

    # plain bottom-up fails: the program is not range-restricted
    try:
        evaluate(
            program,
            Database(),
            meter=EvaluationBudget(max_iterations=5).start(),
        )
    except EvaluationError as exc:
        print("plain bottom-up evaluation fails, as expected:")
        print("   ", type(exc).__name__, "-", str(exc)[:72], "...")
    print()

    # the safety analyses certify the magic rewrite (Section 10)
    adorned = adorn_program(program, query)
    for name, report in (
        ("magic   ", magic_safety(adorned)),
        ("counting", counting_safety(adorned)),
    ):
        print(
            f"safety[{name}]: safe={report.safe} "
            f"(Theorem {report.theorem})"
        )
    print()

    # the rewrite and its bottom-up evaluation
    rewritten = rewrite(program, query, method="supplementary_magic")
    print("the supplementary-magic rewrite:")
    for line in str(rewritten).splitlines():
        print("   ", line)
    print()

    for method in ("magic", "counting", "qsq"):
        answer = answer_query(
            program,
            Database(),
            query,
            QueryOptions(method=method),
            meter=EvaluationBudget(max_iterations=300).start(),
        )
        value = next(iter(answer.rows))[0]
        print(f"{method:<10} reverse([a, b, c, d]) = {value}")


if __name__ == "__main__":
    main()
