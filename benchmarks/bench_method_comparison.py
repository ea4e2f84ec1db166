"""E11 -- the Section 11 discussion: relative merits of GMS/GSMS/GC/GSC.

Three regenerated claims:

1. GMS duplicates the joins of its magic rules inside the modified
   rules; GSMS stores them, so GSMS scans fewer tuples (at the price of
   extra supplementary facts).
2. When every fact has a unique derivation (tree data, linear rules),
   counting matches magic sets fact-for-fact after projecting the index
   fields, and the semijoin-optimized counting program does strictly
   less join work than magic sets.
3. On cyclic data the counting methods diverge while the magic methods
   terminate (also covered by E9; repeated here as part of the
   comparison table).

Plus the cross-strategy timing table: with the QSQ evaluator now
compiled (subquery plans on the semi-naive round driver), top-down and
bottom-up numbers compare compiled-vs-compiled -- the gap measures the
strategies, not interpreter overhead.  The ledger records which
strategies agree, never the seconds.
"""

import time


from repro import (
    NonTerminationError,
    Session,
    evaluate,
    rewrite,
    semijoin_optimize,
)
from repro.workloads import (
    ancestor_program,
    ancestor_query,
    chain_database,
    cycle_database,
    nonlinear_samegen_program,
    samegen_database,
    samegen_query,
    tree_database,
)

from .conftest import claim, print_table


def test_gsms_does_less_join_work_than_gms(benchmark):
    query = samegen_query("l0_0")
    session = Session(
        program=nonlinear_samegen_program(),
        database=samegen_database(4, 6, flat_edges=10),
    )

    stats = {}
    for method in ("magic", "supplementary_magic"):
        answer = session.query(query, method=method, max_iterations=2000)
        stats[method] = answer.stats
    claim(
        "E11.gsms.scans", "Sec. 11", "tuples scanned, GSMS vs GMS",
        "<", stats["magic"].tuples_scanned,
        stats["supplementary_magic"].tuples_scanned,
    )
    # GSMS trades memory (supplementary facts) for join work
    claim(
        "E11.gsms.facts", "Sec. 11", "facts derived, GSMS vs GMS",
        ">", stats["magic"].facts_derived,
        stats["supplementary_magic"].facts_derived,
    )
    rows = [
        [m, s.facts_derived, s.rule_firings, s.tuples_scanned]
        for m, s in stats.items()
    ]
    print_table(
        "E11a GMS vs GSMS on nonlinear same-generation",
        ["method", "facts", "firings", "tuples scanned"],
        rows,
    )
    benchmark(
        lambda: Session(
            program=session.program, database=session.database
        ).query(query, method="supplementary_magic", max_iterations=2000)
    )


def test_counting_on_unique_derivations(benchmark):
    """Tree data + linear rules: unique derivations, counting applies;
    the semijoin-optimized program beats magic sets on join work."""
    program = ancestor_program()
    query = ancestor_query("r_0")
    db = tree_database(7)

    magic = rewrite(program, query, method="magic")
    magic_result = evaluate(magic.program, magic.seeded_database(db))

    optimized = semijoin_optimize(rewrite(program, query, method="counting"))
    counting_result = evaluate(
        optimized.program, optimized.seeded_database(db)
    )
    assert optimized.extract_answers(counting_result) == magic.extract_answers(
        magic_result
    )
    rows = [
        [
            "magic",
            magic_result.stats.facts_derived,
            magic_result.stats.tuples_scanned,
        ],
        [
            "counting+semijoin",
            counting_result.stats.facts_derived,
            counting_result.stats.tuples_scanned,
        ],
    ]
    print_table(
        "E11b magic vs semijoin-optimized counting (tree, unique "
        "derivations)",
        ["method", "facts", "tuples scanned"],
        rows,
    )
    claim(
        "E11.counting.scans", "Sec. 11",
        "tuples scanned, GC + semijoin vs GMS (tree, unique derivations)",
        "<", magic_result.stats.tuples_scanned,
        counting_result.stats.tuples_scanned,
    )
    benchmark(
        lambda: evaluate(optimized.program, optimized.seeded_database(db))
    )


def test_cross_strategy_compiled_vs_compiled(benchmark):
    """Theorem 9.1's substrate check, timed: QSQ (top-down, compiled
    subquery plans) vs the rewrites (bottom-up, compiled join plans) vs
    plain semi-naive, all answering the same query identically, and
    the naive baseline agrees so CI catches divergence."""
    depth = 80
    query = ancestor_query("n0")
    session = Session(
        program=ancestor_program(), database=chain_database(depth)
    )

    timings = {}
    answers = {}
    for method in ("qsq", "magic", "supplementary_magic", "seminaive"):
        t0 = time.perf_counter()
        result = session.query(query, method=method)
        timings[method] = time.perf_counter() - t0
        answers[method] = result.rows
    answers["naive"] = session.query(query, method="naive").rows
    claim(
        "E11.strategies", "Sec. 11",
        f"strategies answering as QSQ, chain {depth}",
        "=", sorted(answers),
        sorted(m for m, rows in answers.items() if rows == answers["qsq"]),
    )
    print_table(
        f"cross-strategy, compiled-vs-compiled (ancestor, chain {depth})",
        ["strategy", "answers", "seconds"],
        [
            [m, len(answers[m]), f"{timings[m]:.4f}"]
            for m in timings
        ],
    )
    # fresh session per iteration: the memo would otherwise turn the
    # benchmark into a dictionary-lookup measurement
    benchmark(
        lambda: Session(
            program=session.program, database=session.database
        ).query(query, method="qsq")
    )


def test_counting_diverges_where_magic_terminates(benchmark):
    program = ancestor_program()
    query = ancestor_query("n0")
    db = cycle_database(5)

    def run():
        magic = rewrite(program, query, method="magic")
        evaluate(magic.program, magic.seeded_database(db))
        counting = rewrite(program, query, method="counting")
        try:
            evaluate(
                counting.program,
                counting.seeded_database(db),
                max_iterations=150,
            )
        except NonTerminationError:
            return "diverged"
        return "terminated"

    outcome = benchmark(run)
    claim(
        "E11.cyclic", "Sec. 11", "counting on cyclic data (magic terminates)",
        "=", "diverged", outcome,
    )
    print_table(
        "E11c cyclic data",
        ["method", "outcome"],
        [["magic", "terminated"], ["counting", outcome]],
    )
