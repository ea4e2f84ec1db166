"""Incremental view maintenance (repro.datalog.ivm + the Session API).

Four layers of guarantees:

* **Delta correctness.**  ``MaterializedProgram`` agrees with cold
  re-evaluation after asserts and retracts on recursive strata (DRed:
  overdelete + rederive), non-recursive strata (exact counting), and
  across stratified negation -- including mutations of facts stored
  under *derived* names.  ``check_consistency()`` is the oracle: it
  compares every derived relation against a cold run and audits the
  counting bookkeeping.
* **Atomicity.**  An aborted maintenance pass (injected fault, budget
  trip) leaves the materialized state stale-but-consistent: the source
  database passes ``check_integrity()``, cold evaluation still answers
  correctly, and a rebuild (or the next successful pass) heals the
  view.
* **The Session surface.**  ``materialize()`` / ``MaterializedView`` /
  ``batch()`` / the ``query()`` fast path, with ``QueryResult`` as the
  single answer type (``maintained`` / ``maintenance_elapsed``).
* **Interleaving property.**  On random safe stratified programs and
  random assert/retract sequences -- with faults injected into some
  maintenance passes -- the maintained state, cold compiled semi-naive,
  and the reference evaluator in ``conftest`` agree after every step.

Every maintenance join is a compiled plan on the batch executor, which
three more groups pin: rules with ``Struct`` / list arguments maintain
(``TestStructuredTerms``), derivation counts stay *exact* where one
predicate occurs several times in a rule in both polarities
(``test_counts_stay_exact_...``, with ``check_consistency`` comparing
count values), and the Python-level work of a pass does not grow with
the delta (``TestWorkGate``).
"""

import os
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    Database,
    EvaluationBudget,
    FaultPlan,
    InjectedFault,
    MaterializedProgram,
    Program,
    ReproError,
    Session,
    evaluate,
    parse_program,
    parse_rule,
)
from repro.core.limits import BudgetExceeded
from repro.datalog import engine, ivm
from repro.server import ServerHandle
from repro.workloads import (
    bom_database,
    bom_program,
    bom_source,
    chain_database,
)

from conftest import oracle_facts

ANCESTOR = """
    anc(X, Y) :- par(X, Y).
    anc(X, Z) :- par(X, Y), anc(Y, Z).
"""

STRATIFIED = """
    comp(P, Q) :- sub(P, Q).
    comp(P, Q) :- sub(P, R), comp(R, Q).
    tainted(P) :- comp(P, Q), recalled(Q).
    buildable(P) :- part(P), not tainted(P).
"""


def ancestor_mp(depth=6):
    program = parse_program(ANCESTOR).program
    database = chain_database(depth)
    return program, database, MaterializedProgram(program, database)


def stratified_mp():
    parsed = parse_program(
        STRATIFIED
        + """
        part(drone). part(frame). part(motor). part(cell).
        sub(drone, frame). sub(drone, motor). sub(motor, cell).
        """
    )
    database = Database()
    database.add_facts(parsed.facts)
    return parsed.program, database, MaterializedProgram(
        parsed.program, database
    )


class TestDeltaPropagation:
    def test_initial_state_matches_cold(self):
        program, database, mp = ancestor_mp()
        cold = evaluate(program, database.copy())
        assert mp.tuples("anc") == set(cold.database.tuples("anc"))
        assert mp.check_consistency()

    def test_assert_propagates_recursive(self):
        program, database, mp = ancestor_mp()
        database.add_values("par", [("m0", "n0")])  # new chain root
        result = mp.maintain()
        assert result.action == "maintained"
        assert result.facts_added > 0 and result.facts_removed == 0
        assert mp.check_consistency()

    @pytest.mark.parametrize("edge", [("n0", "n1"), ("n2", "n3"), ("n4", "n5")])
    def test_retract_dred_recursive(self, edge):
        # root, middle, and leaf edges: every overdelete shape
        program, database, mp = ancestor_mp()
        database.retract_values("par", [edge])
        result = mp.maintain()
        assert result.action == "maintained"
        assert result.facts_removed > 0
        assert mp.check_consistency()

    def test_rederivation_survives_alternative_support(self):
        # two paths a->b; deleting one must keep anc(a, b) and its cone
        program = parse_program(ANCESTOR).program
        database = Database()
        database.add_values(
            "par", [("a", "b"), ("a", "m"), ("m", "b"), ("b", "c")]
        )
        mp = MaterializedProgram(program, database)
        database.retract_values("par", [("a", "b")])
        mp.maintain()
        assert ("a", "b") in {
            tuple(t.value for t in row) for row in mp.tuples("anc")
        }
        assert mp.check_consistency()

    def test_counting_stratum_and_negation(self):
        program, database, mp = stratified_mp()
        database.add_values("recalled", [("cell",)])
        result = mp.maintain()
        assert result.action == "maintained"
        buildable = {t[0].value for t in mp.tuples("buildable")}
        assert buildable == {"cell", "frame"}
        assert mp.check_consistency()
        database.retract_values("recalled", [("cell",)])
        mp.maintain()
        assert {t[0].value for t in mp.tuples("buildable")} == {
            "cell", "frame", "motor", "drone",
        }
        assert mp.check_consistency()

    def test_counts_come_from_batch_multiplicities(self):
        # both rules drop Y and Z mid-join.  p's plan ends there, so its
        # rows simply repeat; q's goes on to g(X), so the batch executor
        # merges the frames of each X and hands the counts one row with
        # the number of (Y, Z) solutions behind it
        parsed = parse_program(
            """
            p(X) :- e(X, Y), f(Y, Z).
            q(X) :- e(X, Y), f(Y, Z), g(X).
            e(a, y1). e(a, y2). e(b, y1).
            f(y1, z1). f(y1, z2). f(y2, z1).
            g(a). g(b).
            """
        )
        database = Database()
        database.add_facts(parsed.facts)
        mp = MaterializedProgram(parsed.program, database)
        assert any(step.merge for step in mp.compiled.plan(1).steps)

        def counts(pred):
            return sorted(mp._counts[pred].values())

        assert counts("p") == counts("q") == [2, 3]
        database.retract_values("f", [("y1", "z2")])
        mp.maintain()
        assert counts("p") == counts("q") == [1, 2]
        assert mp.check_consistency()
        database.retract_values("f", [("y1", "z1")])
        result = mp.maintain()
        assert result.facts_removed == 2  # p(b) and q(b) lose their support
        assert counts("p") == counts("q") == [1]
        assert mp.check_consistency()

    def test_mutation_under_derived_name(self):
        # facts asserted/retracted under a derived predicate route
        # through its stratum as external deltas
        program, database, mp = stratified_mp()
        database.add_values("tainted", [("frame",)])
        mp.maintain()
        assert {t[0].value for t in mp.tuples("buildable")} == {
            "cell", "motor", "drone",
        }
        assert mp.check_consistency()
        database.retract_values("tainted", [("frame",)])
        mp.maintain()
        assert mp.check_consistency()

    def test_batched_mutations_one_pass(self):
        program, database, mp = ancestor_mp()
        passes = mp.passes
        database.add_values("par", [("m0", "n0"), ("m1", "m0")])
        database.retract_values("par", [("n0", "n1")])
        database.add_values("par", [("n0", "n1")])  # net no-op pair
        result = mp.maintain()
        assert mp.passes == passes + 1
        assert result.action == "maintained"
        assert mp.check_consistency()

    def test_noop_maintain(self):
        _, _, mp = ancestor_mp()
        result = mp.maintain()
        assert result.action == "noop"
        assert not mp.pending

    def test_strata_untouched_by_delta_are_skipped(self):
        program, database, mp = stratified_mp()
        database.add_values("recalled", [("never_used",)])
        result = mp.maintain()
        assert result.strata_skipped > 0
        assert mp.check_consistency()


class TestStructuredTerms:
    """Regression: constructing a ``MaterializedProgram`` -- hence
    ``session.materialize()`` and ``repro serve --materialize`` --
    raised ``ValueError: cannot intern non-ground term s(X)`` for any
    program with a ``Struct`` or list argument in a rule; the compiled
    plans match and build such terms (``_MATCH`` / ``_EVAL`` ops)."""

    @staticmethod
    def _texts(view):
        return {tuple(map(str, row)) for row in view.tuples()}

    def test_successor_program(self):
        session = Session(
            """
            nat(s(X)) :- nat(X), small(X).
            nat(z). small(z). small(s(z)).
            """
        )
        view = session.materialize("nat")
        assert self._texts(view) == {("z",), ("s(z)",), ("s(s(z))",)}
        session.assert_("small(s(s(z)))")
        assert self._texts(view) == {
            ("z",), ("s(z)",), ("s(s(z))",), ("s(s(s(z)))",),
        }
        session.retract("small(z)")  # DRed through the Struct head
        assert self._texts(view) == {("z",)}
        materializer = session._materializer
        assert materializer.check_consistency()
        assert materializer.rebuilds == 0

    def test_list_program(self):
        session = Session(
            """
            suffix(L, L) :- lst(L).
            suffix(L, T) :- suffix(L, [H | T]).
            lst([a, b, c]).
            """
        )
        view = session.materialize("suffix")
        whole = "[a, b, c]"
        assert self._texts(view) == {
            (whole, whole), (whole, "[b, c]"), (whole, "[c]"), (whole, "[]"),
        }
        session.assert_("lst([b, c])")
        assert ("[b, c]", "[c]") in self._texts(view)
        session.retract("lst([a, b, c])")
        assert self._texts(view) == {
            ("[b, c]", "[b, c]"), ("[b, c]", "[c]"), ("[b, c]", "[]"),
        }
        materializer = session._materializer
        assert materializer.check_consistency()
        assert materializer.rebuilds == 0

    def test_struct_head_counted_over_a_recursive_relation(self):
        parsed = parse_program(
            """
            r(X, Y) :- e(X, Y).
            r(X, Y) :- e(X, Z), r(Z, Y).
            w(pair(X, Y)) :- r(X, Y), not e(X, Y).
            e(a, b). e(b, c). e(c, d).
            """
        )
        database = Database()
        database.add_facts(parsed.facts)
        mp = MaterializedProgram(parsed.program, database)

        def pairs():
            return {str(row[0]) for row in mp.tuples("w")}

        assert pairs() == {"pair(a, c)", "pair(a, d)", "pair(b, d)"}
        database.add_values("e", [("a", "c")])  # an addition under ``not``
        mp.maintain()
        assert pairs() == {"pair(a, d)", "pair(b, d)"}
        database.retract_values("e", [("b", "c")])
        mp.maintain()
        assert pairs() == {"pair(a, d)"}
        assert mp.check_consistency()
        assert mp.rebuilds == 0


class TestCountValues:
    def test_check_consistency_compares_the_counts_themselves(self):
        """An off-by-one count keeps membership intact and used to pass;
        it surfaces passes later as a row that will not disappear."""
        parsed = parse_program(
            "p(X) :- e(X, Y). e(a, b). e(a, c). e(d, b)."
        )
        database = Database()
        database.add_facts(parsed.facts)
        mp = MaterializedProgram(parsed.program, database)
        assert mp.check_consistency()
        (row,) = [r for r, n in mp._counts["p"].items() if n == 2]
        mp._counts["p"][row] = 3
        with pytest.raises(AssertionError, match="derivation counts for p"):
            mp.check_consistency()
        mp._counts["p"][row] = 2
        assert mp.check_consistency()


SELF_JOINS = """
    p(X, Z) :- e(X, Y), e(Y, Z).
    t(X, W) :- e(X, Y), e(Y, Z), e(Z, W).
    q(X) :- e(X, Y), not e(Y, X).
    r(X) :- e(X, Y), f(Y), not e(Y, X), not g(X).
    u(X) :- p(X, Y), not t(Y, X), e(Y, Y).
"""

DOMAIN = ("c0", "c1", "c2", "c3")
_NODE = st.sampled_from(DOMAIN)
_MUTATION = st.tuples(
    st.booleans(),  # assert (else retract)
    st.one_of(
        st.tuples(st.just("e"), _NODE, _NODE),
        st.tuples(st.sampled_from(["f", "g"]), _NODE),
    ),
)


def _nonempty(counts):
    return {pred: rows for pred, rows in counts.items() if rows}


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.tuples(_NODE, _NODE), max_size=6),
    st.lists(st.lists(_MUTATION, min_size=1, max_size=4), min_size=1, max_size=8),
)
def test_counts_stay_exact_under_self_joins_and_mixed_polarity(edges, batches):
    """A predicate occurring two or three times in one counting rule, in
    both polarities: after every batch the maintained derivation counts
    equal those of a program materialized from scratch."""
    program = parse_program(SELF_JOINS).program
    database = Database()
    database.add_values("e", edges)
    mp = MaterializedProgram(program, database)
    for batch in batches:
        for positive, (pred, *row) in batch:
            if positive:
                database.add_values(pred, [row])
            else:
                database.retract_values(pred, [row])
        mp.maintain()
        fresh = MaterializedProgram(program, database)
        assert _nonempty(mp._counts) == _nonempty(fresh._counts)
        fresh.close()
    assert mp.rebuilds == 0 and mp.check_consistency()
    mp.close()


class TestWorkGate:
    """Maintenance work in ``ivm.py`` and in the engine's round driver
    (``engine.py``), which runs its propagation rounds, is per batch,
    not per fact (the deterministic, host-independent twin of the
    ``write_p50_s`` claim, after ``test_select.py``'s
    ``TestWorkGate``)."""

    @staticmethod
    def _move(depth, rate):
        database = bom_database(depth, 2, rate, 3)
        mp = MaterializedProgram(bom_program(), database)
        database.retract_values("subpart", [("p3", "p8")])
        database.add_values("subpart", [("p5", "p8")])
        calls = 0
        counted = {ivm.__file__, engine.__file__}

        def count(frame, event, _arg):
            nonlocal calls
            if event == "call" and frame.f_code.co_filename in counted:
                calls += 1

        sys.setprofile(count)
        try:
            result = mp.maintain()
        finally:
            sys.setprofile(None)
        assert mp.check_consistency()
        mp.close()
        return calls, result

    @pytest.mark.parametrize(
        "rate, changed", [(0, [28, 124, 508]), (0.1, [22, 112, 434])]
    )
    def test_calls_do_not_grow_with_the_delta(self, rate, changed):
        runs = [self._move(depth, rate) for depth in (5, 7, 9)]
        # p8's subtree leaves three ancestors and joins three others:
        # that many component / clean / blocked / buildable rows each way
        assert [result.facts_added for _, result in runs] == changed
        assert [result.facts_removed for _, result in runs] == changed
        assert [result.stats.iterations for _, result in runs] == [6, 6, 6]
        calls = [n for n, _ in runs]
        # measured: 295 calls at rate 0, 342 at rate 0.1, at every depth
        # (the round driver's per-rule slot bookkeeping: 285 / 337 before
        # semi-naive was exact)
        assert calls[0] == calls[1] == calls[2] < 400, calls


class TestAtomicity:
    def test_injected_fault_marks_stale_and_rebuild_heals(self):
        program, database, mp = ancestor_mp()
        database.add_values("par", [("m0", "n0")])
        meter = EvaluationBudget(fault_plan=FaultPlan("any", 1)).start()
        with pytest.raises(InjectedFault):
            mp.maintain(meter=meter)
        assert mp.stale and not mp.pending  # partial pass discarded
        assert database.check_integrity()
        # cold evaluation of the source database is unaffected
        cold = evaluate(program, database.copy())
        assert len(cold.database.tuples("anc")) > 0
        result = mp.maintain()  # stale -> rebuild
        assert result.action == "rebuilt"
        assert not mp.stale
        assert mp.check_consistency()

    def test_budget_trip_marks_stale(self):
        program, database, mp = ancestor_mp(depth=12)
        database.add_values("par", [("m0", "n0")])
        meter = EvaluationBudget(max_facts=1).start()
        with pytest.raises(BudgetExceeded):
            mp.maintain(meter=meter)
        assert mp.stale
        assert database.check_integrity()
        assert mp.maintain().action == "rebuilt"
        assert mp.check_consistency()

    def test_every_fault_boundary_leaves_state_consistent(self):
        for after in range(1, 6):
            program, database, mp = ancestor_mp()
            database.retract_values("par", [("n1", "n2")])
            meter = EvaluationBudget(
                fault_plan=FaultPlan("any", after)
            ).start()
            try:
                mp.maintain(meter=meter)
            except InjectedFault:
                assert mp.stale
                mp.maintain()  # heals
            assert database.check_integrity()
            assert mp.check_consistency()
            mp.close()


class TestSessionViews:
    def test_materialize_and_query_fast_path(self):
        session = Session(
            ANCESTOR + "par(a, b). par(b, c). par(c, d)."
        )
        view = session.materialize("anc(a, X)?")
        result = session.query("anc(a, X)?")
        assert result.maintained and result.method == "materialized"
        assert result.values() == {("b",), ("c",), ("d",)}
        # view.rows is the same QueryResult shape as any other answer
        rows = view.rows
        assert rows.maintained and rows.values() == result.values()
        assert rows.maintenance_elapsed == 0.0  # was already fresh

    def test_mutation_maintains_and_version_tracks(self):
        session = Session(ANCESTOR + "par(a, b).")
        view = session.materialize("anc(a, X)?")
        v0 = view.version
        session.assert_("par", "b", "c")
        assert view.version == session.version > v0
        assert not view.stale
        assert ("c",) in view.rows.values()
        session.retract("par", "b", "c")
        assert ("c",) not in view.rows.values()

    def test_batch_coalesces_maintenance(self):
        session = Session(ANCESTOR + "par(a, b).")
        session.materialize("anc(a, X)?")
        passes = session._materializer.passes
        with session.batch():
            for i in range(10):
                session.assert_("par", f"x{i}", f"x{i + 1}")
            # inside the batch the view is pending, queries answer cold
            mid = session.query("anc(x0, X)?")
            assert not mid.maintained
        assert session._materializer.passes == passes + 1
        after = session.query("anc(x0, X)?")
        assert after.maintained and len(after.rows) == 10

    def test_subtree_moves_on_a_generated_source(self):
        # 20 seeded moves of a depth-7 BOM's level-4 parts, each one batch
        # of one retract and one assert: every pass leaves counts and views
        # equal to a cold evaluation, and none falls back to a rebuild
        session = Session(bom_source(7, 2, 0.1, 1))
        session.materialize()
        materializer = session._materializer
        rng = random.Random(1)
        parent = {part: (part - 1) // 2 for part in range(1, 255)}
        for _ in range(20):
            part = rng.randrange(15, 31)
            new = rng.choice([p for p in range(7, 15) if p != parent[part]])
            with session.batch():
                session.retract(f"subpart(p{parent[part]}, p{part})")
                session.assert_(f"subpart(p{new}, p{part})")
            parent[part] = new
            assert materializer.check_consistency()
        assert materializer.passes == 20 and materializer.rebuilds == 0

    def test_fault_during_maintenance_degrades_to_stale(self):
        session = Session(ANCESTOR + "par(a, b).")
        view = session.materialize("anc(a, X)?")
        os.environ["REPRO_FAULT_INJECT"] = "any:1"
        try:
            session.assert_("par", "b", "c")  # abort swallowed
        finally:
            del os.environ["REPRO_FAULT_INJECT"]
        assert view.stale
        assert session.database.check_integrity()
        cold = session.query("anc(a, X)?")  # falls back cold
        assert not cold.maintained
        assert cold.values() == {("b",), ("c",)}
        result = view.refresh()
        assert result.action == "rebuilt" and not view.stale
        assert session.query("anc(a, X)?").maintained

    def test_query_method_materialized_requires_view(self):
        session = Session(ANCESTOR + "par(a, b).")
        with pytest.raises(ReproError):
            session.query("anc(a, X)?", method="materialized")

    def test_view_results_are_not_memoized(self):
        session = Session(ANCESTOR + "par(a, b).")
        session.materialize("anc(a, X)?")
        session.query("anc(a, X)?")
        session.query("anc(a, X)?")
        assert len(session._memo) == 0
        assert session.memo_hits == 0

    def test_base_predicate_query_uses_normal_path(self):
        session = Session(
            ANCESTOR + "other(X) :- par(X, Y). par(a, b)."
        )
        session.materialize("anc(a, X)?")
        result = session.query("par(a, X)?")
        assert not result.maintained
        assert result.values() == {("b",)}
        with pytest.raises(ReproError, match="covering view"):
            session.query("par(a, X)?", method="materialized")

    @pytest.mark.parametrize("method", ("auto", "materialized"))
    def test_unmaterialized_derived_predicate_is_served_maintained(
        self, method
    ):
        # the query server's rule: every derived predicate of the live
        # materializer is served from it, whichever view was asked for
        source = bom_source(5, 2, 0.05, 1)
        session = Session(source)
        session.materialize("clean")
        result = session.query("component(p1, S)?", method=method)
        assert result.maintained
        cold = session.query("component(p1, S)?", method="seminaive")
        assert not cold.maintained and result.rows == cold.rows
        with ServerHandle.start(
            source, materialize=["clean"], listen=False
        ) as handle:
            served = handle.request({
                "op": "query", "query": "component(p1, S)?",
                "options": {"method": method},
            })
        assert served["served"] == "view"
        assert served["row_count"] == len(cold.rows)

    def test_drop_closes_materializer(self):
        session = Session(ANCESTOR + "par(a, b).")
        view = session.materialize("anc(a, X)?")
        view.drop()
        assert session._materializer is None
        assert not session.query("anc(a, X)?").maintained
        with pytest.raises(ReproError):
            view.rows  # noqa: B018 -- the access itself must raise
        view.drop()  # idempotent

    def test_materialize_predicates_and_tuples(self):
        session = Session(ANCESTOR + "par(a, b). par(b, c).")
        view = session.materialize("anc")
        assert {tuple(t.value for t in row) for row in view.tuples()} == {
            ("a", "b"), ("b", "c"), ("a", "c"),
        }
        assert view.rows.values() == {
            ("a", "b"), ("b", "c"), ("a", "c"),
        }

    def test_materialize_unknown_predicate_rejected(self):
        session = Session(ANCESTOR + "par(a, b).")
        with pytest.raises(ReproError):
            session.materialize("no_such_pred")


# ----------------------------------------------------------------------
# interleaving property: maintained == cold == reference oracle
# ----------------------------------------------------------------------

@st.composite
def ivm_case(draw):
    """A random safe stratified program plus a mutation script.

    The program shape mirrors the magic-negation property suite: a
    recursive closure stratum, a unary helper, a negating stratum on
    top.  The script interleaves asserts and retracts of base rows
    (plus rows under the *derived* ``t``), with occasional injected
    faults during the maintenance pass that follows.
    """
    rules = [
        parse_rule("t(X, Y) :- e(X, Y)."),
        parse_rule(
            draw(
                st.sampled_from(
                    [
                        "t(X, Y) :- e(X, Z), t(Z, Y).",
                        "t(X, Y) :- t(X, Z), t(Z, Y).",
                    ]
                )
            )
        ),
        parse_rule(
            draw(st.sampled_from(["u(X) :- m(X).", "u(X) :- e(X, Y), m(Y)."]))
        ),
        parse_rule(
            "s(X, Y) :- "
            + draw(st.sampled_from(["t(X, Y)", "e(X, Y)"]))
            + ", not "
            + draw(st.sampled_from(["u(X)", "u(Y)", "t(Y, X)"]))
            + "."
        ),
    ]
    program = Program(tuple(rules))
    pairs = st.tuples(st.sampled_from(DOMAIN), st.sampled_from(DOMAIN))
    initial_e = draw(st.lists(pairs, max_size=6))
    initial_m = draw(st.lists(st.sampled_from(DOMAIN), max_size=3))
    ops = draw(
        st.lists(
            st.tuples(
                st.sampled_from(["assert", "retract"]),
                st.sampled_from(["e", "m", "t"]),
                pairs,
                st.booleans(),  # inject a fault into this step's pass?
            ),
            min_size=1,
            max_size=8,
        )
    )
    return program, initial_e, initial_m, ops


def _derived_state(program, database):
    """Cold compiled semi-naive state of every derived predicate."""
    result = evaluate(program, database.copy())
    return {
        pred: set(result.database.tuples(pred))
        for pred in program.derived_predicates()
    }


def _oracle_state(program, database):
    """The reference evaluator's state of every derived predicate."""
    facts = oracle_facts(program, database)
    return {pred: facts[pred] for pred in program.derived_predicates()}


@settings(max_examples=40, deadline=None)
@given(ivm_case())
def test_maintained_view_agrees_with_oracles(case):
    program, initial_e, initial_m, ops = case
    database = Database()
    database.add_values("e", initial_e)
    database.add_values("m", [(value,) for value in initial_m])
    mp = MaterializedProgram(program, database)
    fault_counter = 0
    for op, pred, row, inject in ops:
        rows = [row] if pred != "m" else [(row[0],)]
        if op == "assert":
            database.add_values(pred, rows)
        else:
            database.retract_values(pred, rows)
        if inject:
            fault_counter += 1
            meter = EvaluationBudget(
                fault_plan=FaultPlan("any", 1 + fault_counter % 3)
            ).start()
            try:
                mp.maintain(meter=meter)
            except (InjectedFault, BudgetExceeded):
                assert mp.stale
                assert database.check_integrity()
                mp.maintain()  # heal: stale pass rebuilds cold
        else:
            mp.maintain()
        cold = _derived_state(program, database)
        for pred_key, expected in cold.items():
            assert mp.tuples(pred_key) == expected, (
                f"maintained {pred_key} diverged after {op} {row}"
            )
        assert _oracle_state(program, database) == cold
    assert mp.check_consistency()
    assert database.check_integrity()
    mp.close()
