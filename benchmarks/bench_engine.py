"""Substrate ablation: naive vs semi-naive vs magic across data sizes.

Not a paper artifact by itself, but the paper's Section 1 discussion
presumes the bottom-up substrate: semi-naive evaluation avoids naive's
re-derivations, and the rewrites then shrink what is derived at all.
This bench quantifies both steps so the E6/E11 numbers have a baseline.
"""

import pytest

from repro import answer_query, bottom_up_answer
from repro.workloads import ancestor_program, ancestor_query, chain_database

from conftest import print_table, record_bench

SIZES = [20, 40, 80]


@pytest.mark.parametrize("size", SIZES)
def test_engine_scaling(benchmark, size):
    program = ancestor_program()
    db = chain_database(size)
    query = ancestor_query("n0")

    rows = []
    firings = {}
    for method in ("naive", "seminaive", "magic"):
        answer = answer_query(program, db, query, method=method)
        firings[method] = answer.stats.rule_firings
        rows.append(
            [
                method,
                answer.stats.facts_derived,
                answer.stats.rule_firings,
                answer.stats.duplicate_derivations,
            ]
        )
    # semi-naive fires each derivation once; naive re-fires every round
    assert firings["seminaive"] < firings["naive"]
    print_table(
        f"engine ablation: ancestor on chain {size}",
        ["strategy", "facts", "firings", "duplicates"],
        rows,
    )
    benchmark(lambda: bottom_up_answer(program, db, query))


def test_qsq_vs_magic_same_work_shape(benchmark):
    """QSQ (tuple-at-a-time top-down) and magic (set-at-a-time bottom-up)
    implement the same sips: their answers coincide, and magic's derived
    facts equal QSQ's queries+answers (Theorem 9.1, timed here)."""
    from repro import adorn_program, qsq_evaluate, rewrite
    from repro.datalog.engine import evaluate

    program = ancestor_program()
    query = ancestor_query("n0")
    db = chain_database(60)

    adorned = adorn_program(program, query)
    rewritten = rewrite(program, query, method="magic", adorned=adorned)

    def run_qsq():
        return qsq_evaluate(adorned.program, db, adorned.query_literal)

    qsq = benchmark(run_qsq)
    magic_result = evaluate(
        rewritten.program, rewritten.seeded_database(db)
    )
    magic_facts = magic_result.database.tuples("anc^bf")
    assert magic_facts == qsq.answers["anc^bf"]
    magic_queries = magic_result.database.tuples("magic_anc_bf")
    assert magic_queries == qsq.queries["anc^bf"]


def test_columnar_batch_fixpoint(benchmark):
    """The semi-naive fixpoint on columns of interned term IDs, timed
    best-of-3 and recorded for the trajectory; its facts equal the
    naive strategy's."""
    import time

    from repro import evaluate_naive, evaluate_seminaive

    program = ancestor_program()
    db = chain_database(120)

    def best_of(fn, reps=3):
        fn()
        best = float("inf")
        result = None
        for _ in range(reps):
            t0 = time.perf_counter()
            result = fn()
            best = min(best, time.perf_counter() - t0)
        return result, best

    result, seconds = best_of(lambda: evaluate_seminaive(program, db))
    baseline = evaluate_naive(program, db)
    assert result.derived_tuples("anc") == baseline.derived_tuples("anc")
    assert result.stats.facts_derived == baseline.stats.facts_derived
    record_bench(
        {"workload": "columnar batch, ancestor chain 120",
         "path": "columnar batch", "seconds": seconds,
         "facts": result.stats.facts_derived}
    )
    print_table(
        "columnar batch: ancestor on chain 120",
        ["path", "facts", "seconds"],
        [["columnar batch", result.stats.facts_derived, f"{seconds:.3f}"]],
    )
    benchmark(lambda: evaluate_seminaive(program, db))


def test_add_many_bulk_load_beats_per_row_adds(benchmark):
    """Bulk EDB loads: ``Relation.add_many`` validates the batch up
    front, deduplicates with one set difference, and maintains each
    registered index in a batch pass with specialized key construction,
    instead of paying the per-row ``add`` call with per-index upkeep.
    Timed head-to-head (interleaved, best of 5) on a relation with the
    planner's typical index shapes; both paths must agree on contents."""
    import time

    from repro import Constant, Relation

    rows = [(Constant(i), Constant(i % 997)) for i in range(30000)]
    indexes = ((0,), (1,), (0, 1))

    def load_per_row():
        rel = Relation("edge")
        for positions in indexes:
            rel.register_index(positions)
        for row in rows:
            rel.add(row)
        return rel

    def load_bulk():
        rel = Relation("edge")
        for positions in indexes:
            rel.register_index(positions)
        rel.add_many(rows)
        return rel

    per_row_s = bulk_s = float("inf")
    for _ in range(5):
        t0 = time.perf_counter()
        per_row = load_per_row()
        per_row_s = min(per_row_s, time.perf_counter() - t0)
        t0 = time.perf_counter()
        bulk = load_bulk()
        bulk_s = min(bulk_s, time.perf_counter() - t0)
    assert set(bulk) == set(per_row)
    assert bulk.lookup((1,), (Constant(5),)) and (
        sorted(map(str, bulk.lookup((1,), (Constant(5),))))
        == sorted(map(str, per_row.lookup((1,), (Constant(5),))))
    )
    print_table(
        "bulk EDB load, 30k rows, 3 registered indexes",
        ["path", "seconds"],
        [["per-row add", f"{per_row_s:.3f}"], ["add_many", f"{bulk_s:.3f}"]],
    )
    # ~1.3x locally; BENCH_TIMING_STRICT=0 disarms the wall-clock gate
    # on noisy shared runners (CI), where two ~100ms timings cannot be
    # compared reliably -- content equality above is always asserted
    import os

    if os.environ.get("BENCH_TIMING_STRICT", "1") != "0":
        assert bulk_s < per_row_s * 1.05, (
            f"bulk load ({bulk_s:.3f}s) did not beat per-row adds "
            f"({per_row_s:.3f}s)"
        )
    benchmark(load_bulk)
