"""Same-generation queries over an organization chart.

Scenario: ``up(E, M)`` says M is E's manager; ``flat(A, B)`` says A and
B sit on the same cross-team committee; ``down`` mirrors ``up``.  Two
employees are "peers" when they are connected by climbing up the
management chain, moving across a committee, and descending the same
number of levels -- the paper's nonlinear same-generation program
(Example 1).

The script drives all four rewriting strategies plus the top-down
baseline through one :class:`repro.Session` and compares fact counts
and rule firings, illustrating the Section 11 discussion (GSMS trades
memory for fewer duplicate joins; counting adds indices that pay off
with the semijoin optimization).

Run::

    python examples/same_generation_org_chart.py
"""

from repro import EvaluationBudget, Session
from repro.workloads import samegen_database


def main() -> None:
    # a 4-level org with 6 employees per level
    session = Session(
        """
        peer(X, Y) :- flat(X, Y).
        peer(X, Y) :- up(X, Z1), peer(Z1, Z2), flat(Z2, Z3),
                      peer(Z3, Z4), down(Z4, Y).
        """,
        database=samegen_database(layers=4, width=6, flat_edges=10, seed=11),
    )
    query = "peer(l0_0, Y)?"

    print("query:", query)
    baseline = session.query(query, method="seminaive")
    print(
        f"semi-naive baseline: {len(baseline.rows)} answers, "
        f"{baseline.stats.facts_derived} facts derived"
    )
    print()

    header = f"{'strategy':<26}{'answers':>8}{'facts':>8}{'firings':>9}{'probes':>9}"
    print(header)
    print("-" * len(header))
    for method in (
        "magic",
        "supplementary_magic",
        "counting",
        "supplementary_counting",
        "qsq",
    ):
        answer = session.query(
            query, method=method, budget=EvaluationBudget(max_iterations=1000)
        )
        assert answer.rows == baseline.rows
        stats = answer.stats
        print(
            f"{method:<26}{len(answer.rows):>8}"
            f"{stats.facts_derived:>8}{stats.rule_firings:>9}"
            f"{stats.join_probes:>9}"
        )

    print()
    print(
        "All strategies agree with the baseline.  Note the Section 11 "
        "trade-offs: supplementary magic stores extra (supplementary) "
        "facts to avoid re-joining prefixes (fewer firings than magic); "
        "the counting methods store even more facts -- one per "
        "derivation path -- which only pays off where the semijoin "
        "optimization applies and derivations are unique."
    )


if __name__ == "__main__":
    main()
