"""Magic sets under stratified negation: query-directed BOM queries.

PR 5 extended the magic/supplementary rewrites to stratified programs
(conservative Balbin/Kemp-style treatment: bindings never cross a
negation, negated cones are computed completely).  This bench pins down
the payoff on the BOM-with-exceptions family: a selective point query
``clean(part, S)?`` ("which sub-components of this one part are
usable?") only needs the part's own explosion, so the rewrite descends
one subtree while full bottom-up explodes every part.

Grid: point queries at tree levels 2 and 3, supplementary-magic vs the
compiled semi-naive baseline, answers checked against the stratum-wise
naive baseline (``method="naive"``).  The gate is on *tuples
scanned* -- deterministic work, not wall clock -- and arms at
depth >= 9: the rewrite must scan at least 2x fewer tuples than full
bottom-up on every point query in the grid.

An all-free ``buildable(P)?`` and a fully-bound ``buildable(part)?``
are measured too, without a gate: ``buildable``'s negated cone
(``blocked`` over ``clean`` over ``component``) IS the full workload,
so the conservative rewrite cannot skip work there and honestly pays
its magic overhead -- the recorded numbers document that boundary
rather than hide it.

``MAGIC_NEG_DEPTH`` / ``MAGIC_NEG_FANOUT`` / ``MAGIC_NEG_RATE`` /
``MAGIC_NEG_SEED`` scale the part tree (CI smoke shrinks the depth
below the gate threshold).
"""

import os
import time

from repro import Session, parse_query
from repro.workloads import bom_database, bom_program

from conftest import print_table, record_bench

DEPTH = int(os.environ.get("MAGIC_NEG_DEPTH", "9"))
FANOUT = int(os.environ.get("MAGIC_NEG_FANOUT", "2"))
RATE = float(os.environ.get("MAGIC_NEG_RATE", "0.08"))
SEED = int(os.environ.get("MAGIC_NEG_SEED", "0"))
MIN_SCAN_RATIO = 2.0


def _child(index, k=0, fanout=FANOUT):
    return fanout * index + 1 + k


def point_query_roots():
    """Heap indexes of the grid's query roots (tree levels 2 and 3)."""
    level2 = _child(_child(0))
    level3 = _child(level2)
    return (f"p{level2}", f"p{level3}")


def run(database, query, method):
    """One cold evaluation on a fresh session (no memo interference)."""
    session = Session(program=bom_program(), database=database)
    start = time.perf_counter()
    result = session.query(query, method=method)
    return result, time.perf_counter() - start


def test_point_queries_scan_less(benchmark):
    """Selective clean(part, S)? point queries: >= 2x fewer scans."""
    database = bom_database(DEPTH, FANOUT, RATE, SEED)
    rows = []
    gate_armed = DEPTH >= 9
    for root in point_query_roots():
        query = parse_query(f"clean({root}, S)?")
        magic, magic_s = run(database, query, "supplementary_magic")
        base, base_s = run(database, query, "seminaive")
        oracle, _ = run(database, query, "naive")
        assert magic.rows == oracle.rows, f"magic wrong on {query}"
        assert base.rows == oracle.rows, f"baseline wrong on {query}"
        # auto must route the stratified point query to the rewrite
        auto, _ = run(database, query, "auto")
        assert auto.method == "supplementary_magic"
        assert auto.rows == oracle.rows
        ratio = base.stats.tuples_scanned / max(
            magic.stats.tuples_scanned, 1
        )
        rows.append(
            [
                str(query),
                len(oracle.rows),
                magic.stats.tuples_scanned,
                base.stats.tuples_scanned,
                f"{ratio:.2f}",
                f"{magic_s:.3f}",
                f"{base_s:.3f}",
            ]
        )
        record_bench(
            {
                "workload": {
                    "family": "bom",
                    "depth": DEPTH,
                    "fanout": FANOUT,
                    "exception_rate": RATE,
                    "seed": SEED,
                },
                "query": str(query),
                "answers": len(oracle.rows),
                "tuples_scanned": {
                    "supplementary_magic": magic.stats.tuples_scanned,
                    "seminaive": base.stats.tuples_scanned,
                },
                "scan_ratio": round(ratio, 3),
                "wall_clock_seconds": {
                    "supplementary_magic": round(magic_s, 6),
                    "seminaive": round(base_s, 6),
                },
            }
        )
        if gate_armed:
            assert ratio >= MIN_SCAN_RATIO, (
                f"supplementary magic scanned only {ratio:.2f}x fewer "
                f"tuples than full bottom-up on {query} at depth "
                f"{DEPTH} (gate: >= {MIN_SCAN_RATIO}x)"
            )
    print_table(
        f"magic under negation: depth={DEPTH} fanout={FANOUT} "
        f"rate={RATE} seed={SEED}",
        ["query", "answers", "magic scans", "seminaive scans",
         "ratio", "magic s", "seminaive s"],
        rows,
    )
    query = parse_query(f"clean({point_query_roots()[0]}, S)?")
    benchmark(
        lambda: run(database, query, "supplementary_magic")
    )


def test_buildable_queries_agree_without_gate(benchmark):
    """buildable queries: correct through the rewrite, no scan gate.

    ``buildable``'s negated cone is the whole workload (``blocked``
    needs every part's ``clean`` view), so the conservative rewrite
    computes at least as much as bottom-up here; the point of the grid
    row is exact agreement plus an honest record of the overhead.
    """
    database = bom_database(DEPTH, FANOUT, RATE, SEED)
    rows = []
    point = point_query_roots()[0]
    for text in ("buildable(P)?", f"buildable({point})?"):
        query = parse_query(text)
        magic, magic_s = run(database, query, "supplementary_magic")
        oracle, _ = run(database, query, "naive")
        base, base_s = run(database, query, "seminaive")
        assert magic.rows == oracle.rows
        assert base.rows == oracle.rows
        rows.append(
            [
                text,
                len(oracle.rows),
                magic.stats.tuples_scanned,
                base.stats.tuples_scanned,
                f"{magic_s:.3f}",
                f"{base_s:.3f}",
            ]
        )
        record_bench(
            {
                "query": text,
                "answers": len(oracle.rows),
                "tuples_scanned": {
                    "supplementary_magic": magic.stats.tuples_scanned,
                    "seminaive": base.stats.tuples_scanned,
                },
            }
        )
    print_table(
        f"buildable through the conservative rewrite: depth={DEPTH}",
        ["query", "answers", "magic scans", "seminaive scans",
         "magic s", "seminaive s"],
        rows,
    )
    query = parse_query(f"buildable({point})?")
    benchmark(lambda: run(database, query, "seminaive"))
