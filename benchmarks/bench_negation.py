"""Stratified negation on the bill-of-materials workload family.

Not a paper artifact: the paper's programs are positive.  This bench
pins down the stratified-negation subsystem instead -- the BOM program
(4 strata, 3 negations, recursive explosion below the negations) runs
through both bottom-up strategies:

* naive      -- the stratum-wise baseline: each stratum to its fixpoint
  in full rounds, anti-joins against the completed lower strata;
* semi-naive -- per-stratum deltas, the default production path.

Both must derive identical relations for every stratum; the bench
asserts that and reports per-engine work counters and wall clocks.
``BOM_BENCH_DEPTH`` / ``BOM_BENCH_FANOUT`` / ``BOM_BENCH_RATE`` shrink
or grow the part tree; the gate (semi-naive scans at least 1.5x fewer
tuples than naive) arms at depth >= 8 and, being a counter, holds on
any host.
"""

import os
import time

from repro import evaluate
from repro.workloads import bom_database, bom_program

from conftest import print_table, record_bench

DEPTH = int(os.environ.get("BOM_BENCH_DEPTH", "9"))
FANOUT = int(os.environ.get("BOM_BENCH_FANOUT", "2"))
RATE = float(os.environ.get("BOM_BENCH_RATE", "0.08"))
SEED = int(os.environ.get("BOM_BENCH_SEED", "0"))
MIN_SCAN_RATIO = 1.5

DERIVED = ("component", "tainted", "clean", "blocked", "buildable")

ENGINES = ("naive", "seminaive")


def run_all(database, program):
    """Evaluate every engine; return per-engine results."""
    out = []
    for method in ENGINES:
        start = time.perf_counter()
        result = evaluate(program, database, method=method)
        seconds = time.perf_counter() - start
        out.append((method, result, seconds))
    return out


def assert_oracle_agreement(runs):
    """Semi-naive must match the stratum-wise naive baseline."""
    oracle_label, oracle, _ = runs[0]
    assert oracle_label == "naive"
    for label, result, _ in runs[1:]:
        for pred in DERIVED:
            assert result.database.tuples(pred) == oracle.database.tuples(
                pred
            ), f"{label} disagrees with {oracle_label} on {pred}"


def test_bom_engines_agree(benchmark):
    """Two strategies, one answer; semi-naive scans less."""
    program = bom_program()
    database = bom_database(DEPTH, FANOUT, RATE, SEED)
    runs = run_all(database, program)
    assert_oracle_agreement(runs)

    oracle = runs[0][1]
    counts = {pred: len(oracle.database.tuples(pred)) for pred in DERIVED}
    assert counts["component"] > 0
    # the negation actually bites: clean is a strict subset on any
    # seed that produced at least one exception
    if len(oracle.database.tuples("exception")) > 0:
        assert counts["clean"] < counts["component"]

    seconds = {label: s for label, _, s in runs}
    record_bench(
        {
            "workload": {
                "family": "bom",
                "depth": DEPTH,
                "fanout": FANOUT,
                "exception_rate": RATE,
                "seed": SEED,
            },
            "tuple_counts": dict(
                counts,
                subpart=len(database.tuples("subpart")),
                exception=len(database.tuples("exception")),
            ),
            "wall_clock_seconds": {
                label: round(s, 6) for label, s in seconds.items()
            },
        }
    )
    print_table(
        f"stratified BOM: depth={DEPTH} fanout={FANOUT} rate={RATE}",
        ["engine", "facts", "iterations", "probes", "seconds"],
        [
            [
                label,
                result.stats.facts_derived,
                result.stats.iterations,
                result.stats.join_probes,
                f"{s:.3f}",
            ]
            for label, result, s in runs
        ],
    )

    if DEPTH >= 8:
        scans = {label: r.stats.tuples_scanned for label, r, _ in runs}
        ratio = scans["naive"] / max(scans["seminaive"], 1)
        assert ratio >= MIN_SCAN_RATIO, (
            f"semi-naive scanned only {ratio:.1f}x fewer tuples than "
            f"naive at depth {DEPTH}"
        )
    benchmark(lambda: evaluate(program, database, method="seminaive"))


def test_exception_rate_monotonicity(benchmark):
    """More exceptions: tainted grows, clean and buildable shrink.

    With one seed the RNG draws are identical across rates, so a higher
    threshold yields a superset of exceptions -- making the derived
    relations provably monotone in the rate.  This is a pure-semantics
    check on the anti-joins; timing is incidental.
    """
    program = bom_program()
    depth = min(DEPTH, 6)
    rows = []
    previous = None
    for rate in (0.0, 0.1, 0.3):
        database = bom_database(depth, FANOUT, rate, SEED)
        result = evaluate(program, database, method="seminaive")
        counts = {
            pred: len(result.database.tuples(pred)) for pred in DERIVED
        }
        counts["exception"] = len(database.tuples("exception"))
        rows.append(
            [rate, counts["exception"], counts["tainted"],
             counts["clean"], counts["buildable"]]
        )
        if rate == 0.0:
            # negation-free baseline: nothing tainted, nothing blocked
            assert counts["tainted"] == 0
            assert counts["clean"] == counts["component"]
            assert counts["blocked"] == 0
            assert counts["buildable"] == len(database.tuples("part"))
        if previous is not None:
            assert counts["tainted"] >= previous["tainted"]
            assert counts["clean"] <= previous["clean"]
            assert counts["buildable"] <= previous["buildable"]
        previous = counts
    print_table(
        f"exception-rate sweep: depth={depth} fanout={FANOUT}",
        ["rate", "exceptions", "tainted", "clean", "buildable"],
        rows,
    )
    database = bom_database(depth, FANOUT, 0.1, SEED)
    benchmark(lambda: evaluate(program, database, method="seminaive"))
