"""Unit + property tests for the join-plan compiler (repro.datalog.planner).

Covers plan structure (ordering, precomputed index positions, ID-level
ops), fact-for-fact agreement of every strategy with the reference
evaluator in ``conftest``, pinned work counters, the delta handling for rules with two occurrences of the
same recursive predicate, and the function-symbol / LinExpr fallbacks.
"""

from collections import Counter

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import (
    CompiledProgram,
    Constant,
    Database,
    EvaluationError,
    EvaluationStats,
    Literal,
    Program,
    QueryOptions,
    Rule,
    SubqueryProgram,
    Variable,
    adorn_program,
    answer_query,
    build_empty_sip,
    build_full_sip,
    compile_rule,
    compile_subquery_rule,
    evaluate,
    order_body,
    parse_program,
    parse_query,
    parse_rule,
    rewrite,
)
from repro.datalog.catalog import term_catalog
from repro.datalog.engine import _IdDeltaBatch
from repro.datalog.planner import (
    _CONST, _EQ, _EQC, _EQL, _EVAL, _MATCH, _chain, _general, _merge_frames,
)
from repro.workloads import (
    BOM,
    ancestor_program,
    ancestor_query,
    bom_database,
    chain_database,
    cycle_database,
    integer_list,
    list_reverse_program,
    nonlinear_ancestor_program,
    nonlinear_samegen_program,
    random_dag_database,
    reverse_query,
    samegen_database,
    samegen_query,
)

from conftest import (
    assert_matches_oracle,
    oracle_answers,
    oracle_facts,
    solution_counters,
)


def c(value):
    return Constant(value)


def tally(cols, weights, n):
    """A batch as ``{live binding: summed weight}`` (slots ascending)."""
    slots = sorted(cols)
    counts = Counter()
    for binding, weight in zip(
        zip(*(cols[s] for s in slots)), weights or [1] * n
    ):
        counts[binding] += weight
    return slots, dict(counts)


#: the probed relation of the ``chain_merge`` equivalence tests: keys
#: b0..b3 with overlapping value sets (b4 probes an empty bucket)
R_ROWS = [(f"b{i % 4}", f"c{i % 6}") for i in range(12)] + [
    ("b1", "c0"), ("b3", "c9"),
]


def merge_frames_for(step):
    """Frames for a one-key ``chain_merge`` step: the key slot runs
    over b0..b4, each carried slot over a0..a2 at its own period, and
    the first four frames repeat."""
    (_, key_slot), = step.key_ops
    intern = term_catalog().intern
    cols = {key_slot: [intern(c(f"b{i % 5}")) for i in range(15)]}
    for j, slot in enumerate(step.operands[3]):
        cols[slot] = [intern(c(f"a{i // (j + 1) % 3}")) for i in range(15)]
    return {s: col + col[:4] for s, col in cols.items()}, 15 + 4


def chain_merge_tally(step, relation, window, keys, cols, n, weights):
    """The fused kernel's merged batch, tallied, and its work counts."""
    merged, merged_weights, m, probes, scanned = step.kernel(
        step.operands, relation, window, keys, cols, n, weights
    )
    distinct = len(set(zip(*merged.values())))
    assert m == distinct == len(merged[step.operands[4]])
    return (
        tally(merged, merged_weights, m), merged_weights is None,
        probes, scanned,
    )


def chain_then_merge_tally(step, relation, window, keys, cols, n, weights):
    """``_chain``, the gather of ``execute_batch`` and ``_merge_frames``:
    what a merging chain step ran as before it had a kernel of its own."""
    positions, keys_of, pos, carry_out, store_slot = step.operands
    sel, (store,), probes, scanned = _chain(
        (positions, keys_of, pos), relation, window, keys, cols, n
    )
    gathered = {s: [cols[s][i] for i in sel] for s in carry_out}
    gathered[store_slot] = store
    if weights is not None:
        weights = [weights[i] for i in sel]
    merged, merged_weights, m = _merge_frames(gathered, weights, len(sel))
    return (
        tally(merged, merged_weights, m), merged_weights is None,
        probes, scanned,
    )


def ancestor():
    return ancestor_program()


# ----------------------------------------------------------------------
# plan structure
# ----------------------------------------------------------------------

class TestPlanStructure:
    def test_delta_occurrence_runs_first(self):
        rule = parse_rule("anc(X, Y) :- par(X, Z), anc(Z, Y).")
        plan = compile_rule(rule, delta_index=1)
        assert plan.order == (1, 0)
        assert plan.steps[0].is_delta
        assert not plan.steps[1].is_delta

    def test_index_positions_follow_bindings(self):
        rule = parse_rule("anc(X, Y) :- par(X, Z), anc(Z, Y).")
        delta_plan = compile_rule(rule, delta_index=1)
        # delta anc(Z, Y) scans fully, then par(X, Z) probes on Z (pos 1)
        assert delta_plan.steps[0].index_positions == ()
        assert delta_plan.steps[1].index_positions == (1,)
        full_plan = compile_rule(rule)
        # left-to-right: par(X, Z) scans, anc(Z, Y) probes on Z (pos 0)
        assert full_plan.order == (0, 1)
        assert full_plan.steps[1].index_positions == (0,)

    def test_constants_attract_the_first_step(self):
        rule = parse_rule("p(X) :- q(X, Y), r(a, Y).")
        plan = compile_rule(rule)
        # r(a, Y) has a bound (constant) position, so it runs first
        assert plan.order == (1, 0)
        assert plan.steps[0].index_positions == (0,)

    def test_compiled_program_enumerates_delta_choices(self):
        program = nonlinear_ancestor_program()
        compiled = CompiledProgram(program)
        # rule 1 (anc :- anc, anc) has two delta occurrences
        assert compiled.delta_occurrences(1) == (0, 1)
        assert compiled.plan(1, 0).steps[0].is_delta
        # 2 full plans + 2 delta plans
        assert len(compiled) == 4

    def test_delta_index_out_of_range(self):
        rule = parse_rule("anc(X, Y) :- par(X, Y).")
        with pytest.raises(ValueError):
            compile_rule(rule, delta_index=3)

    def test_order_body_exposed(self):
        rule = parse_rule("anc(X, Y) :- par(X, Z), anc(Z, Y).")
        assert order_body(rule) == (0, 1)
        assert order_body(rule, delta_index=1) == (1, 0)

    @pytest.mark.parametrize("source, kinds", [
        ("p(X, Y) :- q(X), r(X, Y).", ["scan", "chain"]),
        ("p(X, Y, Z) :- q(X), r(X, Y, Z).", ["scan", "general"]),
        # Y is dead after r: its store is never built
        ("p(X) :- q(X), r(X, Y).", ["scan", "general"]),
        ("p(X) :- q(X), not r(X).", ["scan", "anti"]),
        ("p(X) :- q(X, X).", ["general"]),
        ("p(X) :- q(X), r(s(X)).", ["scan", "general"]),
        # keyed on every position: a rowmap membership test
        ("p(X) :- q(X), r(X).", ["scan", "member"]),
        ("p(X, Y) :- q(X, Y), r(Y, X).", ["scan", "member"]),
        # Y dies at r, a non-final step: the probe and the frame merge
        # are one kernel
        ("p(X, Z) :- q(X, Y), r(Y, Z), s(Z).",
         ["scan", "chain_merge", "member"]),
    ])
    def test_step_kinds(self, source, kinds):
        plan = compile_rule(parse_rule(source))
        assert [step.kind for step in plan.steps] == kinds
        assert all(
            f", {step.kind}, " in repr(step) for step in plan.steps
        )

    def test_member_steps_count_as_count_steps(self):
        # a full-width step keeps the frames, probes and rows scanned of
        # the general path: on a relation with tombstones, under a slot
        # window, and on a delta batch, which has no rowmap (IVM seeds
        # a self-join's second occurrence with one)
        step = compile_rule(
            parse_rule("p(X, Y) :- q(X, Y), r(Y, X).")
        ).steps[1]
        assert step.kind == "member"
        db = Database()
        db.add_values("r", [(f"a{i}", f"b{i % 3}") for i in range(12)])
        r = db.get("r")
        rows = list(r.id_rows())
        r.discard_id_rows(rows[1:5])
        assert r._dead and r.check_invariants()
        frames = rows + rows[:6] + [rows[0][::-1]]
        (_, y), (_, x) = step.key_ops
        cols = {y: [row[0] for row in frames], x: [row[1] for row in frames]}
        n = len(frames)
        for relation, window in (
            (r, None), (r, (2, 9)), (_IdDeltaBatch(rows[3:8]), None),
        ):
            sel, stores, probes, scanned = step.kernel(
                step.operands, relation, window, None, cols, n
            )
            assert (sel, list(stores), probes, scanned) == _general(
                step.operands[1], relation, window, None, cols, n
            )
        live = set(r.id_rows())
        sel, stores, probes, scanned = step.kernel(
            step.operands, r, None, None, cols, n
        )
        assert sel == [i for i, row in enumerate(frames) if row in live]
        assert (stores, probes, scanned) == ((), 13, len(sel))

    @pytest.mark.parametrize("source", [
        "p(X, Z) :- q(X, Y), r(Y, Z), s(Z).",
        "p(Z) :- q(Y), r(Y, Z), s(Z).",
        "p(X, W, Z) :- q(X, W, Y), r(Y, Z), s(Z).",
    ])
    def test_chain_merge_steps_count_as_chain_then_merge(self, source):
        # the fused kernel gives the live bindings and summed weights,
        # probes and rows scanned of ``_chain`` followed by the gather
        # and ``_merge_frames``, carrying one, no or two slots: on an
        # untouched relation, one with tombstones, under a slot window,
        # on a delta batch, and for weighted frames (an earlier merge's)
        step = compile_rule(parse_rule(source)).steps[1]
        assert step.kind == "chain_merge" and step.merge
        db = Database()
        db.add_values("r", R_ROWS)
        r = db.get("r")
        rows = list(r.id_rows())
        tombstoned = r.copy()
        tombstoned.discard_id_rows(rows[1:5])
        assert tombstoned._dead and tombstoned.check_invariants()
        cols, n = merge_frames_for(step)
        weighted = [1 + i % 3 for i in range(n)]
        for relation, window, weights in (
            (r, None, None), (tombstoned, None, None), (r, (2, 9), None),
            (_IdDeltaBatch(rows[3:10]), None, None), (r, None, weighted),
            (tombstoned, (1, 12), weighted),
        ):
            assert chain_merge_tally(
                step, relation, window, None, cols, n, weights
            ) == chain_then_merge_tally(
                step, relation, window, None, cols, n, weights
            )

    def test_qsq_chain_merge_steps_count_as_chain_then_merge(self):
        # a QSQ step probes the keys ``_register_subqueries`` returns
        x, y, z, w = (Variable(v) for v in "XYZW")
        plan = compile_subquery_rule(Rule(
            Literal("p", (x, y), "bf"),
            [Literal("e", (x, z)), Literal("p", (z, w), "bf"),
             Literal("f", (w, y))],
        ), {"p^bf"})
        step = plan.steps[2]
        assert step.kind == "chain_merge" and step.input_key
        db = Database()
        db.add_values("p^bf", R_ROWS)
        cols, n = merge_frames_for(step)
        register = plan._records[2][3]
        keys = register(db, cols, n)
        assert len(db.get(step.input_key)) == 5
        for weights in (None, [1 + i % 3 for i in range(n)]):
            assert chain_merge_tally(
                step, db.get("p^bf"), None, keys, cols, n, weights
            ) == chain_then_merge_tally(
                step, db.get("p^bf"), None, keys, cols, n, weights
            )

    @pytest.mark.parametrize("make_program, query, kinds", [
        (ancestor, ancestor_query("n0"), {
            (0, None): "scan chain", (0, 0): "scan chain",
            (1, None): "scan chain", (1, 0): "scan chain",
            (2, None): "scan", (2, 0): "scan",
            (3, None): "scan chain", (3, 0): "scan chain",
            (3, 1): "scan chain",
        }),
        (nonlinear_samegen_program, samegen_query("l0_0"), {
            (0, None): "scan chain", (0, 0): "scan chain",
            (1, None): "scan chain", (1, 0): "scan chain",
            (2, None): "scan chain", (2, 0): "scan chain",
            (2, 1): "scan chain",
            (3, None): "scan chain", (3, 0): "scan chain",
            (4, None): "scan", (4, 0): "scan",
            (5, None): "scan", (5, 0): "scan",
            # Z3 dies at sg^bf(Z3, Z4): its frames merge in the kernel
            (6, None): "scan chain_merge chain",
            (6, 0): "scan chain_merge chain",
            (6, 1): "scan chain_merge chain",
        }),
    ])
    def test_supplementary_magic_plans_scan_and_chain(
        self, make_program, query, kinds
    ):
        # every plan of the point queries' rewrites: a keyless scan of
        # a magic / supplementary relation, then one-key one-store probes
        program = rewrite(
            make_program(), query, method="supplementary_magic"
        ).program
        compiled = CompiledProgram(program)
        assert {
            (ri, delta): " ".join(
                step.kind for step in compiled.plan(ri, delta).steps
            )
            for ri in range(len(program.rules))
            for delta in (None,) + compiled.delta_occurrences(ri)
        } == kinds

    def test_register_indexes_up_front(self):
        program = ancestor()
        db = chain_database(3)
        working = db.copy()
        compiled = CompiledProgram(program)
        compiled.register_indexes(working)
        # the delta plan for the recursive rule probes par on position 1
        # (Z bound by the delta); that index must exist before any round
        assert (1,) in working.get("par")._indexes


# ----------------------------------------------------------------------
# agreement with the reference evaluator
# ----------------------------------------------------------------------

def all_paths(program, db, strategy):
    """One program serially and on a 2-thread pool."""
    return {
        "serial": evaluate(program, db, strategy),
        "threads": evaluate(program, db, strategy, workers=2),
    }


#: BOM plus a rule whose full plan merges frames (``M`` dies at the
#: second ``component`` step) *before* its anti-join, so a multiplicity
#: has to survive the filter
BOM_VIA = BOM + "via(P, S) :- component(P, M), component(M, S), not tainted(S).\n"

MAGIC = ("magic", "supplementary_magic")
REWRITES = MAGIC + ("counting", "supplementary_counting")

#: (name, program, database, query, rewrites the pair admits; None =
#: the program as written)
PROGRAMS = [
    ("chain", ancestor, lambda: chain_database(8), None, (None,)),
    ("cycle", ancestor, lambda: cycle_database(6), None, (None,)),
    (
        "dag", ancestor, lambda: random_dag_database(12, 0.3, seed=7),
        None, (None,),
    ),
    (
        "samegen", nonlinear_samegen_program,
        lambda: samegen_database(3, 4), lambda: samegen_query("l0_0"),
        (None,) + REWRITES,
    ),
    (  # counting does not terminate on cyclic data
        "nonlinear-cycle", nonlinear_ancestor_program,
        lambda: cycle_database(6), lambda: ancestor_query("n0"),
        (None,) + MAGIC,
    ),
    (
        "bom", lambda: parse_program(BOM_VIA).program,
        lambda: bom_database(3, 2, 0.3, seed=1),
        lambda: parse_query("via(p0, S)?"), (None,) + MAGIC,
    ),
    (  # _MATCH row ops and an _EVAL head; unsafe bottom-up as written
        "reverse", list_reverse_program, Database,
        lambda: reverse_query(integer_list(5)), REWRITES,
    ),
]

CASES = [
    pytest.param(
        make_program, make_db, make_query, method,
        id=name if method is None else f"{name}-{method}",
    )
    for name, make_program, make_db, make_query, methods in PROGRAMS
    for method in methods
]


def build_case(make_program, make_db, make_query, method):
    program, db = make_program(), make_db()
    if method is None:
        return program, db
    rewritten = rewrite(program, make_query(), method=method)
    return rewritten.program, rewritten.seeded_database(db)


class TestOracleEquivalence:
    @pytest.mark.parametrize("strategy", ["naive", "seminaive"])
    @pytest.mark.parametrize(
        "make_program,make_db,make_query,method", CASES
    )
    def test_identical_facts_and_solution_counters(
        self, strategy, make_program, make_db, make_query, method
    ):
        program, db = build_case(make_program, make_db, make_query, method)
        paths = all_paths(program, db, strategy)
        for result in paths.values():
            assert_matches_oracle(result, program, db)
        # solution counters are join-order independent (and batch rows
        # carry multiplicities), so the pool must agree exactly
        assert solution_counters(paths["threads"].stats) == (
            solution_counters(paths["serial"].stats)
        )

    def test_mutual_recursion(self):
        program = parse_program(
            """
            even(X, Y) :- edge(X, Y).
            even(X, Y) :- odd(X, Z), edge(Z, Y).
            odd(X, Y) :- even(X, Z), edge(Z, Y).
            """
        ).program
        from repro.workloads import chain_edges, load_edges

        db = load_edges(chain_edges(6), relation="edge")
        assert_matches_oracle(evaluate(program, db), program, db)

    def test_samegen(self):
        program = nonlinear_samegen_program()
        db = samegen_database(layers=3, width=4)
        planned = evaluate(program, db)
        assert_matches_oracle(planned, program, db)
        assert planned.stats.facts_derived == len(
            oracle_facts(program, db)["sg"]
        )

    def test_planner_scan_work_is_pinned(self):
        # ancestor over a 40-chain: the delta-first plan probes par per
        # delta row instead of scanning it every round, and exact
        # semi-naive derives each of the 820 facts once
        stats = evaluate(ancestor(), chain_database(40)).stats
        assert (stats.tuples_scanned, stats.join_probes) == (1640, 861)
        assert (stats.rule_firings, stats.facts_derived) == (820, 820)
        assert stats.duplicate_derivations == 0

    def test_merged_frames_scan_work_is_pinned(self):
        # frames merged before the last probes: 260 rows touched for
        # 128 body solutions (extending every partial match on its own
        # would touch 263)
        program, db = build_case(
            nonlinear_samegen_program,
            lambda: samegen_database(3, 4),
            lambda: samegen_query("l0_0"),
            "supplementary_magic",
        )
        stats = evaluate(program, db).stats
        assert stats.tuples_scanned == 260
        assert stats.rule_firings == 128
        assert stats.duplicate_derivations == 49


class TestBatchMultiplicities:
    """``execute_batch`` merges frames that agree on every live slot and
    returns head rows with the number of body solutions each stands
    for."""

    RULE = "p(X, W) :- e(X, Y), f(Y, Z), not bad(Z), h(Z, W)."

    def database(self):
        db = Database()
        db.add_values("e", [("a", "b1"), ("a", "b2")])
        db.add_values("f", [("b1", "c"), ("b2", "c"), ("b1", "d")])
        db.add_values("bad", [("d",)])
        db.add_values("h", [("c", "w1"), ("c", "w2")])
        return db

    def test_merge_flag_marks_dropping_nonfinal_steps(self):
        plan = compile_rule(parse_rule(self.RULE))
        assert [str(step.literal) for step in plan.steps] == [
            "e(X, Y)", "f(Y, Z)", "not bad(Z)", "h(Z, W)",
        ]
        # Y dies at f; Z dies at h, but h is the last step
        assert [step.merge for step in plan.steps] == [
            False, True, False, False,
        ]
        chain = compile_rule(parse_rule("anc(X, Y) :- par(X, Z), anc(Z, Y)."))
        assert not any(step.merge for step in chain.steps)

    def test_rows_carry_solution_multiplicities(self):
        plan = compile_rule(parse_rule(self.RULE))
        db = self.database()
        stats = EvaluationStats()
        rows, mults, solutions = plan.execute_batch(db, stats)
        # (a, c) is reached through b1 and b2; (a, d) is refuted
        assert len(rows) == 2 and mults == [2, 2]
        assert solutions == stats.rule_firings == 4
        resolve = term_catalog().resolve
        decoded = [tuple(resolve(i) for i in row) for row in rows]
        assert dict(zip(decoded, mults)) == {
            (c("a"), c("w1")): 2, (c("a"), c("w2")): 2,
        }
        # h is probed for one merged frame instead of two: 2 e rows +
        # 3 f rows + 2 h rows (9 without the merge)
        assert stats.tuples_scanned == 7

    def test_plan_without_a_merge_reports_no_multiplicities(self):
        plan = compile_rule(parse_rule("p(X) :- e(X, Y)."))
        rows, mults, solutions = plan.execute_batch(
            self.database(), EvaluationStats()
        )
        assert mults is None and solutions == len(rows) == 2

    def test_all_slots_dead_merges_to_one_frame(self):
        # a cross product: nothing of e(X, Y) is read again
        plan = compile_rule(parse_rule("q(W) :- e(X, Y), h(Z, W)."))
        assert plan.steps[0].merge
        stats = EvaluationStats()
        rows, mults, solutions = plan.execute_batch(self.database(), stats)
        assert len(rows) == 2 and mults == [2, 2] and solutions == 4
        assert stats.tuples_scanned == 2 + 2  # h scanned once, not per e row


class TestDeltaStats:
    """Semi-naive delta handling for a rule with TWO occurrences of the
    same recursive predicate (nonlinear ancestor)."""

    def test_duplicates_and_probes_match_the_oracle(self):
        program = nonlinear_ancestor_program()
        db = chain_database(6)
        planned = evaluate(program, db)
        assert_matches_oracle(planned, program, db)
        # both delta variants re-derive overlapping facts
        assert planned.stats.duplicate_derivations > 0
        # each variant probes at least once per round per step
        assert planned.stats.join_probes > 0

    def test_both_delta_variants_contribute(self):
        # a chain needs the second delta occurrence to close long pairs
        program = nonlinear_ancestor_program()
        db = chain_database(5)
        planned = evaluate(program, db)
        assert len(planned.database.tuples("anc")) == 15  # C(6, 2)

    def test_naive_and_seminaive_planner_agree(self):
        program = nonlinear_ancestor_program()
        db = chain_database(6)
        naive = evaluate(program, db, method="naive")
        semi = evaluate(program, db)
        assert naive.database.tuples("anc") == semi.database.tuples("anc")


def deep_workload(name):
    """(program, database, derived predicate) of a deep recursive
    workload."""
    if name.startswith("chain"):
        return ancestor_program(), chain_database(int(name[5:])), "anc"
    if name == "samegen 100 layers":
        db = samegen_database(layers=100, width=3, flat_edges=2)
        return nonlinear_samegen_program(), db, "sg"
    rewritten = rewrite(
        nonlinear_samegen_program(), samegen_query("l0_0"),
        method="supplementary_magic",
    )
    db = samegen_database(layers=5, width=12, flat_edges=12)
    return rewritten.program, rewritten.seeded_database(db), "sg^bf"


class TestDeltaFirstWork:
    """On deep recursive workloads semi-naive derives naive's facts
    and touches strictly fewer rows with strictly fewer probes: its
    delta-first plans probe per delta row where naive re-joins whole
    relations every round."""

    @pytest.mark.parametrize(
        "name",
        ["chain100", "chain200", "samegen 100 layers", "samegen supmagic"],
    )
    def test_seminaive_scans_and_probes_less_than_naive(self, name):
        program, db, pred_key = deep_workload(name)
        naive = evaluate(program, db, method="naive")
        semi = evaluate(program, db)
        assert semi.database.tuples(pred_key) == naive.database.tuples(pred_key)
        assert semi.stats.facts_derived == naive.stats.facts_derived
        assert semi.stats.tuples_scanned < naive.stats.tuples_scanned
        assert semi.stats.join_probes < naive.stats.join_probes

    def test_supplementary_magic_samegen_merges_frames(self):
        # sg^bf(X, Y) :- supmagic(X, Z3), sg^bf(Z3, Z4), down(Z4, Y)
        # drops Z3 before it probes down
        program, _, _ = deep_workload("samegen supmagic")
        compiled = CompiledProgram(program)
        assert any(
            step.merge
            for index in range(len(program.rules))
            for delta in (None,) + compiled.delta_occurrences(index)
            for step in compiled.plan(index, delta).steps
        )


# ----------------------------------------------------------------------
# function symbols, LinExpr, and edge cases
# ----------------------------------------------------------------------

#: (program and facts, query, sip builder, an op its plans must hold):
#: rules whose ops read the step's local buffer or a prior column
OP_FORMS = {
    "repeated variable": (
        "p(X) :- q(X, X). q(a, a). q(a, b). q(b, b).",
        "p(X)?", build_full_sip, _EQL,
    ),
    "match local pair": (
        "p(X) :- q(X, s(X)). q(a, s(a)). q(a, s(b)). q(b, t(b)). q(c, s(c)).",
        "p(X)?", build_full_sip, _MATCH,
    ),
    "match free variable, then stored": (
        "p(X) :- q(s(X), X). q(s(a), a). q(s(a), b). q(s(s(b)), s(b)). q(c, c).",
        "p(X)?", build_full_sip, _EQL,
    ),
    "two match free variables": (
        "p(X, Y) :- q(f(X, Y), Y). q(f(a, b), b). q(f(a, b), a). "
        "q(f(c, c), c). q(g(a, b), b).",
        "p(X, Y)?", build_full_sip, _EQL,
    ),
    "eval key on a prior column": (
        "p(X) :- r(X, a), q(X, s(X)). r(a, a). r(b, a). r(c, a). r(d, b). "
        "q(a, s(a)). q(b, s(a)). q(c, s(c)). q(c, t(c)).",
        "p(X)?", build_full_sip, _EVAL,
    ),
    "match prior pair": (
        "p(X, Y) :- r(X), q(Y, s(X, Y)). r(a). r(b). "
        "q(c, s(a, c)). q(c, s(a, d)). q(d, s(b, d)). q(e, s(e, e)).",
        "p(X, Y)?", build_full_sip, _MATCH,
    ),
    "qsq head constant at a bound position": (
        "p(a, Y) :- f(Y). p(X, Y) :- e(X, Z), p(Z, Y). "
        "e(a, b). e(b, a). e(b, c). e(c, d). f(1). f(2).",
        "p(b, Y)?", build_full_sip, _EQC,
    ),
    "qsq bound variable at a free position": (
        "anc(X, Y) :- par(X, Y). anc(X, Y) :- par(X, Z), anc(Z, Y). "
        "par(a, b). par(b, c). par(c, a). par(d, e).",
        "anc(a, Y)?", build_empty_sip, _EQ,
    ),
}


def plan_ops(plan):
    """``(tag, payload, term)`` for every key, row and head op of a
    plan; ``term`` is the argument the op compiles."""
    for step in plan.steps:
        args = step.literal.args
        for pos, (tag, payload) in zip(step.index_positions, step.key_ops):
            yield tag, payload, args[pos]
        for pos, tag, payload in step.row_ops:
            yield tag, payload, args[pos]
    for arg, (tag, payload) in zip(plan.rule.head.args, plan.head_ops):
        yield tag, payload, arg


def op_forms_case(name):
    source, query, sip_builder, form = OP_FORMS[name]
    parsed = parse_program(source)
    db = Database()
    db.add_fact_rows(parsed.fact_rows)
    return parsed.program, db, parse_query(query), sip_builder, form


def every_plan(program, query, sip_builder):
    """The bottom-up plans of ``program`` (full and delta) and its QSQ
    plans for ``query``."""
    compiled = CompiledProgram(program)
    bottom_up = [
        compiled.plan(ri, delta)
        for ri in range(len(program.rules))
        for delta in (None,) + compiled.delta_occurrences(ri)
    ]
    adorned = adorn_program(program, query, sip_builder).program
    return bottom_up + list(SubqueryProgram(adorned).plans)


class TestStructuredTerms:
    @pytest.mark.parametrize("name", sorted(OP_FORMS))
    def test_op_forms_answer_as_the_oracle(self, name):
        # rules whose ops read the step's local buffer (_EQL, a _MATCH's
        # local or free variables) or a prior column (_EQ, _EVAL, a
        # _MATCH's prior pairs), under the three routes that run plans
        program, db, query, sip_builder, _ = op_forms_case(name)
        for method in ("naive", "seminaive"):
            assert_matches_oracle(
                evaluate(program, db, method), program, db
            )
        qsq = answer_query(
            program, db, query, QueryOptions(method="qsq"),
            sip_builder=sip_builder,
        )
        expected = oracle_answers(program, db, query)
        assert expected and qsq.rows == expected

    def test_plans_hold_one_id_level_op_set(self):
        resolve = term_catalog().resolve
        n_constants = 0
        for name in OP_FORMS:
            program, _, query, sip_builder, form = op_forms_case(name)
            ops = [
                op
                for plan in every_plan(program, query, sip_builder)
                for op in plan_ops(plan)
            ]
            assert any(tag == form for tag, _, _ in ops), name
            for tag, payload, term in ops:
                if tag in (_CONST, _EQC):
                    assert type(payload) is int and resolve(payload) == term
                    n_constants += 1
        assert n_constants

    def test_list_reverse_via_magic_matches_the_oracle(self):
        rewritten = rewrite(
            list_reverse_program(),
            reverse_query(integer_list(5)),
            method="magic",
        )
        db = rewritten.seeded_database(Database())
        result = evaluate(rewritten.program, db)
        assert_matches_oracle(result, rewritten.program, db)
        assert len(rewritten.extract_answers(result)) == 1

    def test_counting_linexpr_matches_the_oracle(self):
        rewritten = rewrite(
            ancestor(), ancestor_query("n0"), method="counting"
        )
        db = rewritten.seeded_database(chain_database(8))
        result = evaluate(rewritten.program, db)
        assert_matches_oracle(result, rewritten.program, db)
        assert len(rewritten.extract_answers(result)) == 8

    def test_repeated_variable_in_literal(self):
        program = parse_program("loop(X) :- par(X, X).").program
        db = Database()
        db.add_values("par", [("a", "a"), ("a", "b"), ("c", "c")])
        planned = evaluate(program, db)
        assert planned.database.tuples("loop") == {(c("a"),), (c("c"),)}

    def test_constant_in_head(self):
        program = parse_program("flag(yes, X) :- par(X, Y).").program
        db = Database()
        db.add_values("par", [("a", "b")])
        planned = evaluate(program, db)
        assert planned.database.tuples("flag") == {(c("yes"), c("a"))}

    def test_range_restriction_error_preserved(self):
        program = Program([Rule(Literal("p", (Variable("X"),)))])
        with pytest.raises(EvaluationError):
            evaluate(program, Database(), method="naive")

    def test_struct_head_argument(self):
        # head wraps a bound variable in a function term
        program = parse_program("wrapped(f(X)) :- par(X, Y).").program
        db = Database()
        db.add_values("par", [("a", "b")])
        planned = evaluate(program, db)
        assert planned.database.tuples("wrapped") == {
            (parse_query("w(f(a))?").literal.args[0],)
        }


# ----------------------------------------------------------------------
# property tests
# ----------------------------------------------------------------------

NODES = [f"v{i}" for i in range(8)]

edges_strategy = st.lists(
    st.tuples(st.sampled_from(NODES), st.sampled_from(NODES)),
    min_size=0,
    max_size=24,
)

SETTINGS = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def edge_db(edges, relation="par"):
    db = Database()
    db.add_values(relation, set(edges))
    return db


class TestPlannerProperty:
    @given(edges=edges_strategy)
    @SETTINGS
    def test_planner_equals_oracle_linear(self, edges):
        program = ancestor()
        db = edge_db(edges)
        planned = evaluate(program, db)
        assert_matches_oracle(planned, program, db)
        assert planned.stats.facts_derived == len(planned.database.tuples("anc"))

    @given(edges=edges_strategy)
    @SETTINGS
    def test_planner_equals_oracle_nonlinear(self, edges):
        program = nonlinear_ancestor_program()
        db = edge_db(edges)
        assert_matches_oracle(evaluate(program, db), program, db)

    @given(edges=edges_strategy, root=st.sampled_from(NODES))
    @SETTINGS
    def test_planner_preserves_magic_answers(self, edges, root):
        program = ancestor()
        db = edge_db(edges)
        planned = answer_query(
            program, db, ancestor_query(root), QueryOptions(method="magic")
        )
        assert planned.rows == {
            (y,) for x, y in oracle_facts(program, db)["anc"] if x == c(root)
        }


class TestProgramHashCache:
    """The structural hash is cached on the immutable Program, so
    PlanCache lookups stop re-hashing every rule per call (ROADMAP
    "Plan-cache identity")."""

    def test_hash_computed_once(self, monkeypatch):
        calls = {"n": 0}
        original = Rule.__hash__

        def counting(self):
            calls["n"] += 1
            return original(self)

        monkeypatch.setattr(Rule, "__hash__", counting)
        program = ancestor_program()
        first = hash(program)
        after_first = calls["n"]
        assert after_first >= len(program.rules)  # the one real pass
        for _ in range(10):
            assert hash(program) == first
        assert calls["n"] == after_first  # hit path never re-hashes

    def test_plan_cache_hit_path_skips_rule_hashing(self, monkeypatch):
        from repro import PlanCache, compiled_program_for

        cache = PlanCache()
        program = ancestor_program()
        compiled, hit = compiled_program_for(program, cache)
        assert not hit

        def forbidden(self):
            raise AssertionError(
                "PlanCache hit re-hashed a Rule; Program._hash cache "
                "is broken"
            )

        monkeypatch.setattr(Rule, "__hash__", forbidden)
        for _ in range(3):
            again, hit = compiled_program_for(program, cache)
            assert hit and again is compiled

    def test_equal_programs_share_cache_entry(self):
        from repro import PlanCache, compiled_program_for

        cache = PlanCache()
        first = ancestor_program()
        second = ancestor_program()
        assert first is not second and first == second
        compiled_a, hit_a = compiled_program_for(first, cache)
        compiled_b, hit_b = compiled_program_for(second, cache)
        assert not hit_a and hit_b
        assert compiled_a is compiled_b
