"""Golden work counters of the join executor, one program per step kind.

``JoinPlan.execute_batch`` runs every evaluation route, and the paper's
metrics -- facts derived, rule firings, duplicate derivations -- plus
the executor's own work (index probes, tuples scanned, rounds) are
deterministic.  Each case below pins all of them, with literal values,
and together they run every step kind (``JoinStep.kind``): keyless
scans and keyed chain steps (the ancestor and same-generation point
queries, and QSQ's, whose steps register their keys as subqueries
first), anti-joins, full-width member steps (BOM, cold and through
IVM's overdelete / rederive / insert phases, and a second IVM pass
over the tombstones the first one left), chain steps that merge their
frames themselves (``chain_merge``: the same-generation query, a rule
with two merge points whose second gets weighted frames, and a
maintained flat stratum whose derivation counts come from the merged
multiplicities), and general steps -- keyed steps with no or several
live stores (BOM's, and the keyed multi-store case), counting's
``LinExpr`` arguments (matched with ``semijoin=True``, probed as
``_EVAL`` keys without it) and the per-row ops (``Struct`` matching, a
repeated variable, a constant outside the key).

A change to how steps execute must keep every number here; a change
that moves one on purpose states the old and new value.
"""

import pytest

from repro import (
    Database,
    MaterializedProgram,
    QueryOptions,
    answer_query,
    parse_program,
    parse_query,
)
from repro.workloads import (
    ancestor_program,
    ancestor_query,
    bom_database,
    bom_program,
    bom_query,
    chain_database,
    nonlinear_samegen_program,
    samegen_database,
    samegen_query,
    tree_database,
)

COUNTERS = (
    "rule_firings", "facts_derived", "duplicate_derivations",
    "join_probes", "tuples_scanned", "iterations",
)


def counters(stats):
    return (
        tuple(getattr(stats, name) for name in COUNTERS),
        stats.facts_by_predicate,
    )


def query_stats(program, db, query, **options):
    return answer_query(program, db, query, QueryOptions(**options)).stats


def ancestor_point_query():
    return query_stats(
        ancestor_program(), tree_database(9), ancestor_query("r_0_1"),
        method="supplementary_magic",
    )


def samegen_bound_query():
    return query_stats(
        nonlinear_samegen_program(), samegen_database(6, 8, 2),
        samegen_query("l0_0"), method="supplementary_magic",
    )


def bom_cold_clean():
    return query_stats(
        bom_program(), bom_database(6, 2, 0.1, 3), bom_query("p1")
    )


def bom_ivm_move():
    database = bom_database(6, 2, 0.1, 3)
    view = MaterializedProgram(bom_program(), database)
    try:
        database.retract_values("subpart", [("p3", "p8")])
        database.add_values("subpart", [("p5", "p8")])
        result = view.maintain()
        assert result.facts_added and result.facts_removed
        assert view.check_consistency()
        return result.stats
    finally:
        view.close()


def bom_ivm_second_move():
    # the second pass runs on relations the first left tombstoned:
    # pruned probes, dirty slot windows, full-width probes of a
    # ``component`` with dead slots
    database = bom_database(6, 2, 0.1, 3)
    view = MaterializedProgram(bom_program(), database)
    try:
        database.retract_values("subpart", [("p3", "p8")])
        database.add_values("subpart", [("p5", "p8")])
        view.maintain()
        assert view.working.get("component")._dead
        database.retract_values("subpart", [("p1", "p4")])
        database.add_values("subpart", [("p6", "p4")])
        result = view.maintain()
        assert result.facts_added and result.facts_removed
        assert view.check_consistency()
        return result.stats
    finally:
        view.close()


def qsq_ancestor():
    return query_stats(
        ancestor_program(), tree_database(6), ancestor_query("r_1"),
        method="qsq",
    )


def counting_semijoin():
    return query_stats(
        ancestor_program(), chain_database(12), ancestor_query("n2"),
        method="counting", semijoin=True,
    )


def counting_eval_keys():
    # read in a fresh process and after the full suite alike: a probe
    # key the catalog never interned is a probe of its own
    return query_stats(
        nonlinear_samegen_program(), samegen_database(4, 4, 2),
        samegen_query("l0_0"), method="counting",
    )


def parsed(source):
    result = parse_program(source)
    db = Database()
    db.add_fact_rows(result.fact_rows)
    return result.program, db


def struct_match():
    program, db = parsed(
        "p(X, Y) :- r(X), q(Y, s(X, Y)). r(a). r(b). "
        "q(c, s(a, c)). q(c, s(a, d)). q(d, s(b, d)). q(e, s(e, e))."
    )
    return query_stats(
        program, db, parse_query("p(X, Y)?"), method="seminaive"
    )


def keyed_stores():
    program, db = parsed(
        "hop(X, Y, W) :- src(X), e(X, Y, W). "
        "hop(X, Z, V) :- hop(X, Y, W), e(Y, Z, V). "
        "src(a). src(b). e(a, b, 1). e(a, c, 2). e(b, c, 3). e(c, d, 4). "
        "e(b, d, 5). e(d, a, 6)."
    )
    return query_stats(
        program, db, parse_query("hop(X, Y, W)?"), method="seminaive"
    )


def repeated_variable():
    program, db = parsed(
        "p(X) :- q(X, X). t(X) :- p(X), q(X, Y), p(Y). "
        "q(a, a). q(a, b). q(b, b). q(c, a). q(c, c)."
    )
    return query_stats(
        program, db, parse_query("t(X)?"), method="seminaive"
    )


def qsq_constant_outside_key():
    program, db = parsed(
        "p(a, Y) :- f(Y). p(X, Y) :- e(X, Y), p(Y, Z), f(Z). "
        "e(a, b). e(b, a). e(b, c). e(c, a). f(1). f(2). f(a)."
    )
    return query_stats(program, db, parse_query("p(b, Y)?"), method="qsq")


def two_merge_points():
    # Y dies at the second step and Z at the third: the third step
    # receives merged, weighted frames (the diamonds a-b-d / a-c-d
    # collapse at the first merge)
    program, db = parsed(
        "r(X, V) :- s(X), e(X, Y), e(Y, Z), e(Z, V), t(V). "
        "s(a). s(b). e(a, b). e(a, c). e(b, d). e(c, d). e(b, e). "
        "e(c, e). e(d, f). e(e, f). e(d, g). e(e, a). e(a, g). t(f). "
        "t(g). t(a). t(d)."
    )
    return query_stats(
        program, db, parse_query("r(X, V)?"), method="seminaive"
    )


def ivm_merged_counts():
    # a flat stratum whose rule merges at the second ``e`` step (Y
    # dies there): retracting e(a, b) removes one of hop2(a, d)'s two
    # derivations and keeps the row, so its count comes from the merged
    # multiplicities; e(d, b) takes hop2(d, d) / hop2(b, b) with it
    program, database = parsed(
        "hop2(X, Z) :- e(X, Y), e(Y, Z), ok(Z). "
        "e(a, b). e(a, c). e(b, d). e(c, d). e(c, f). e(b, f). e(d, b). "
        "ok(d). ok(f). ok(b)."
    )
    view = MaterializedProgram(program, database)
    try:
        database.retract_values("e", [("a", "b"), ("d", "b")])
        database.add_values("e", [("f", "d")])
        result = view.maintain()
        assert result.facts_added and result.facts_removed
        assert view.check_consistency()
        return result.stats
    finally:
        view.close()


#: case -> (run, its COUNTERS, its facts_by_predicate), measured before
#: the step kernels existed ("bom ivm second move": before ``member``)
GOLDEN = {
    "ancestor point query": (
        ancestor_point_query,
        (2046, 2046, 0, 1052, 4346, 13),
        {"anc^bf": 1538, "magic_anc_bf": 254, "supmagic2_2": 254},
    ),
    "samegen bound query": (
        samegen_bound_query,
        (109, 90, 19, 152, 237, 7),
        {
            "magic_sg_bf": 27, "sg^bf": 8, "supmagic2_2": 42,
            "supmagic2_3": 10, "supmagic2_4": 3,
        },
    ),
    "bom cold clean": (
        bom_cold_clean,
        (907, 756, 151, 799, 1951, 10),
        {
            "clean^bf": 36, "component^bf": 258, "magic_component_bf": 63,
            "magic_tainted_b": 126, "supmagic3_2": 62, "supmagic7_2": 124,
            "tainted^b": 43, "tainted^f": 44,
        },
    ),
    "bom ivm move": (
        bom_ivm_move,
        (195, 66, 3, 332, 549, 6),
        {"clean": 18, "component": 45, "tainted": 3},
    ),
    "bom ivm second move": (
        bom_ivm_second_move,
        (330, 133, 2, 444, 829, 5),
        {"clean": 38, "component": 93, "tainted": 2},
    ),
    "qsq ancestor": (
        qsq_ancestor,
        (258, 258, 0, 754, 992, 9),
        {"anc^bf": 258},
    ),
    "counting semijoin": (
        counting_semijoin,
        (65, 65, 0, 63, 97, 19),
        {"anc_ix_bf": 55, "cnt_anc_bf": 10},
    ),
    "counting eval keys": (
        counting_eval_keys,
        (690, 233, 457, 1008, 4123, 18),
        {"cnt_sg_bf": 77, "sg_ix_bf": 156},
    ),
    "struct match": (
        struct_match,
        (2, 2, 0, 2, 10, 1),
        {"p": 2},
    ),
    "keyed stores": (
        keyed_stores,
        (20, 12, 8, 15, 33, 3),
        {"hop": 12},
    ),
    "repeated variable": (
        repeated_variable,
        (8, 6, 2, 8, 18, 1),
        {"p": 3, "t": 3},
    ),
    "qsq constant outside key": (
        qsq_constant_outside_key,
        (11, 7, 4, 37, 49, 4),
        {"p^bf": 7},
    ),
    # measured before ``chain_merge``: ``chain`` then ``_merge_frames``
    "two merge points": (
        two_merge_points,
        (9, 4, 5, 18, 26, 1),
        {"r": 4},
    ),
    "ivm merged counts": (
        ivm_merged_counts,
        (8, 2, 0, 17, 25, 0),
        {"hop2": 2},
    ),
}


@pytest.mark.parametrize("case", list(GOLDEN))
def test_work_counters_are_pinned(case):
    run, expected, by_predicate = GOLDEN[case]
    assert counters(run()) == (expected, by_predicate)


if __name__ == "__main__":
    # print the current values, to restate a table row on purpose
    for name, (run, _, _) in GOLDEN.items():
        print(f"{name!r}: {counters(run())}")
