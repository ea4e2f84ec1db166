"""QSQ work report: compiled subquery plans against bottom-up magic.

Not a paper artifact on its own: Theorem 9.1 says QSQ's sets ``Q`` and
``F`` equal the magic rewrite's magic and adorned relations under the
same sips, and that equality is asserted here (``check_optimality``) on
deep workloads.  The compiled evaluator runs its adorned rules as
``JoinPlan``s on the engine's batch executor, over answer relations
indexed on the adornment's bound positions, in the bottom-up round
driver's semi-naive rounds; its queries, answers, rounds and wall
clock are reported next to the magic program's bottom-up evaluation, so
``bench_method_comparison.py`` compares strategies, not interpreter
overhead.

``QSQ_BENCH_DEPTH`` / ``QSQ_BENCH_LAYERS`` shrink the workloads for CI
smoke runs.
"""

import os
import time

from repro import adorn_program, check_optimality, evaluate, qsq_evaluate
from repro import rewrite
from repro.workloads import (
    ancestor_program,
    ancestor_query,
    chain_database,
    nonlinear_samegen_program,
    samegen_database,
    samegen_query,
)

from conftest import print_table, record_bench

DEPTH = int(os.environ.get("QSQ_BENCH_DEPTH", "120"))
LAYERS = int(os.environ.get("QSQ_BENCH_LAYERS", "100"))


def run_both(program, query, db):
    """Compiled QSQ and the magic rewrite's bottom-up run, timed, with
    Theorem 9.1 checked between them."""
    adorned = adorn_program(program, query)
    rewritten = rewrite(program, query, method="magic", adorned=adorned)
    report = check_optimality(rewritten, db)
    assert report.sip_optimal, report.mismatches
    t0 = time.perf_counter()
    qsq = qsq_evaluate(adorned.program, db, adorned.query_literal)
    t1 = time.perf_counter()
    magic = evaluate(rewritten.program, rewritten.seeded_database(db))
    t2 = time.perf_counter()
    assert qsq.query_answers(adorned.query_literal) == (
        rewritten.extract_answers(magic)
    )
    return adorned, qsq, magic, t1 - t0, t2 - t1


def report(title, qsq, magic, qsq_s, magic_s):
    print_table(
        title,
        ["strategy", "queries", "facts", "rounds", "seconds"],
        [
            ["qsq", qsq.query_count(), qsq.answer_count(),
             qsq.stats.iterations, f"{qsq_s:.3f}"],
            ["magic", "", magic.stats.facts_derived,
             magic.stats.iterations, f"{magic_s:.3f}"],
        ],
    )
    record_bench({
        "workload": title,
        "qsq_s": qsq_s,
        "magic_s": magic_s,
        "queries": qsq.query_count(),
        "answers": qsq.answer_count(),
    })


def test_ancestor_chain_qsq_planning(benchmark):
    """Linear ancestor on a chain."""
    program = ancestor_program()
    query = ancestor_query("n0")
    db = chain_database(DEPTH)
    adorned, qsq, magic, qsq_s, magic_s = run_both(program, query, db)
    report(
        f"qsq planning: ancestor on chain {DEPTH}", qsq, magic, qsq_s,
        magic_s,
    )
    benchmark(
        lambda: qsq_evaluate(adorned.program, db, adorned.query_literal)
    )


def test_samegen_qsq_planning(benchmark):
    """Nonlinear same-generation on layered data."""
    program = nonlinear_samegen_program()
    query = samegen_query("l0_0")
    db = samegen_database(layers=LAYERS, width=3, flat_edges=2)
    adorned, qsq, magic, qsq_s, magic_s = run_both(program, query, db)
    report(
        f"qsq planning: same-generation, {LAYERS} layers", qsq, magic,
        qsq_s, magic_s,
    )
    benchmark(
        lambda: qsq_evaluate(adorned.program, db, adorned.query_literal)
    )


def test_plan_cache_across_repeats(benchmark):
    """Benchmark-loop shape: repeated evaluation of one program should
    compile once and hit the shared cache afterwards."""
    from repro import PlanCache

    cache = PlanCache()
    program = ancestor_program()
    query = ancestor_query("n0")
    db = chain_database(min(DEPTH, 60))
    adorned = adorn_program(program, query)
    first = qsq_evaluate(
        adorned.program, db, adorned.query_literal, plan_cache=cache
    )
    assert first.stats.plan_cache_misses == 1
    for _ in range(3):
        again = qsq_evaluate(
            adorned.program, db, adorned.query_literal, plan_cache=cache
        )
        assert again.stats.plan_cache_hits == 1
        assert again.stats.plan_cache_misses == 0
    assert cache.hits == 3 and cache.misses == 1
    benchmark(
        lambda: qsq_evaluate(
            adorned.program, db, adorned.query_literal, plan_cache=cache
        )
    )
