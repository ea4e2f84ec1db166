"""Join-execution work report: what the compiled batch executor touches
per fact, semi-naive against naive, on deep recursive workloads.

Not a paper artifact: the paper measures rewriting strategies by facts
computed, and both strategies derive the *same* facts (asserted here).
What the delta-first plans change is the substrate cost per fact -- the
ROADMAP's "fast as the hardware allows" axis.  Every rule runs as a
compiled :class:`JoinPlan` over columns of interned term IDs, one index
probe per *distinct* key in the batch; frames that agree on every live
slot are merged before the next probe.

``tuples_scanned`` and ``join_probes`` are the machine-independent
proxies (rows touched while extending partial matches, index lookups);
the gates are on them, so they hold on any host.  Wall clock is timed
via pytest-benchmark on the semi-naive run and recorded per workload.
"""

import time

import pytest

from repro import evaluate_naive, evaluate_seminaive, rewrite
from repro.datalog.planner import compiled_program_for
from repro.workloads import (
    ancestor_program,
    chain_database,
    nonlinear_samegen_program,
    samegen_database,
    samegen_query,
)

from conftest import print_table, record_bench

DEPTHS = [100, 200]


def _best_of(fn, reps=5):
    fn()  # warm-up: term interning, indexes, allocator steady state
    best = float("inf")
    result = None
    for _ in range(reps):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return result, best


def run_both(program, db):
    """One naive run (the baseline), best-of-5 for semi-naive."""
    t0 = time.perf_counter()
    naive = evaluate_naive(program, db)
    naive_s = time.perf_counter() - t0
    semi, semi_s = _best_of(lambda: evaluate_seminaive(program, db))
    return naive, semi, naive_s, semi_s


def assert_equivalent_but_cheaper(naive, semi, pred_key):
    assert semi.derived_tuples(pred_key) == naive.derived_tuples(pred_key)
    assert semi.stats.facts_derived == naive.stats.facts_derived
    # delta-first plans: strictly fewer rows touched and probes issued
    assert semi.stats.tuples_scanned < naive.stats.tuples_scanned
    assert semi.stats.join_probes < naive.stats.join_probes


def report(title, depth, naive, semi, naive_s, semi_s):
    print_table(
        title,
        ["strategy", "facts", "tuples_scanned", "join_probes", "seconds"],
        [
            [label, r.stats.facts_derived, r.stats.tuples_scanned,
             r.stats.join_probes, f"{seconds:.3f}"]
            for label, r, seconds in (
                ("naive", naive, naive_s), ("seminaive", semi, semi_s),
            )
        ],
    )
    record_bench({
        "workload": title,
        "depth": depth,
        "naive_s": naive_s,
        "seminaive_s": semi_s,
        "facts": semi.stats.facts_derived,
        "tuples_scanned": semi.stats.tuples_scanned,
        "join_probes": semi.stats.join_probes,
    })


@pytest.mark.parametrize("depth", DEPTHS)
def test_ancestor_chain_planning(benchmark, depth):
    """Linear ancestor on a chain: naive re-joins the whole of ``anc``
    every round; the delta-first plan probes ``par`` per delta row."""
    program = ancestor_program()
    db = chain_database(depth)
    naive, semi, naive_s, semi_s = run_both(program, db)
    assert_equivalent_but_cheaper(naive, semi, "anc")
    report(
        f"join execution: ancestor on chain {depth}", depth,
        naive, semi, naive_s, semi_s,
    )
    benchmark(lambda: evaluate_seminaive(program, db))


@pytest.mark.parametrize("layers", [100])
def test_samegen_layers_planning(benchmark, layers):
    """Nonlinear same-generation on layered data at depth >= 100."""
    program = nonlinear_samegen_program()
    db = samegen_database(layers=layers, width=3, flat_edges=2)
    naive, semi, naive_s, semi_s = run_both(program, db)
    assert_equivalent_but_cheaper(naive, semi, "sg")
    report(
        f"join execution: same-generation, {layers} layers", layers,
        naive, semi, naive_s, semi_s,
    )
    benchmark(lambda: evaluate_seminaive(program, db))


def test_samegen_supplementary_magic_merges_frames(benchmark):
    """The rewritten recursive rule ``sg^bf(X, Y) :- supmagic(X, Z3),
    sg^bf(Z3, Z4), down(Z4, Y)`` drops ``Z3`` before it probes ``down``:
    the batch executor merges the ``(X, Z4)`` frames that coincide and
    carries their multiplicity, so ``down`` is probed once per distinct
    live binding.  Gated structurally: some compiled step merges."""
    rewritten = rewrite(
        nonlinear_samegen_program(), samegen_query("l0_0"),
        method="supplementary_magic",
    )
    program = rewritten.program
    db = rewritten.seeded_database(
        samegen_database(layers=5, width=12, flat_edges=12)
    )
    compiled, _ = compiled_program_for(program)
    assert any(
        step.merge
        for index in range(len(program.rules))
        for delta in (None,) + compiled.delta_occurrences(index)
        for step in compiled.plan(index, delta).steps
    )
    naive, semi, naive_s, semi_s = run_both(program, db)
    assert_equivalent_but_cheaper(naive, semi, "sg^bf")
    report(
        "join execution: same-generation under supplementary magic", 5,
        naive, semi, naive_s, semi_s,
    )
    benchmark(lambda: evaluate_seminaive(program, db))


def test_naive_timed(benchmark):
    """Naive evaluation reuses the same full plans each round; timed
    for the trajectory, checked against semi-naive's facts."""
    program = ancestor_program()
    db = chain_database(60)
    naive = evaluate_naive(program, db)
    semi = evaluate_seminaive(program, db)
    assert naive.derived_tuples("anc") == semi.derived_tuples("anc")
    benchmark(lambda: evaluate_naive(program, db))
