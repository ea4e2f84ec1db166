"""Property-based equivalence tests (hypothesis).

The paper's central correctness results -- Theorems 3.1/4.1/5.1/6.1/7.1:
each transformation preserves the query's answers on *every* database.
We approximate "every database" with randomized graphs and queries, and
check every method against the naive bottom-up baseline.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import (
    EvaluationBudget,
    QueryOptions,
    answer_query,
)
from repro.datalog.database import Database
from repro.workloads import (
    ancestor_program,
    ancestor_query,
    nonlinear_ancestor_program,
    nonlinear_samegen_program,
    samegen_query,
)

from conftest import assert_matches_oracle, body_solutions, solution_counters

# small node universe so that random graphs are dense enough to recurse
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


class TestAncestorEquivalence:
    @given(edges=edges_strategy, root=st.sampled_from(NODES))
    @SETTINGS
    def test_all_methods_agree_with_naive(self, edges, root):
        program = ancestor_program()
        query = ancestor_query(root)
        db = edge_db(edges)
        baseline = answer_query(program, db, query, QueryOptions(method="seminaive"))
        for method in ("magic", "supplementary_magic", "qsq"):
            answer = answer_query(
                program, db, query, QueryOptions(method=method)
            )
            assert answer.rows == baseline.rows, method

    @given(edges=edges_strategy, root=st.sampled_from(NODES))
    @SETTINGS
    def test_nonlinear_ancestor(self, edges, root):
        program = nonlinear_ancestor_program()
        query = ancestor_query(root)
        db = edge_db(edges)
        baseline = answer_query(program, db, query, QueryOptions(method="seminaive"))
        for method in ("magic", "supplementary_magic"):
            answer = answer_query(
                program, db, query, QueryOptions(method=method)
            )
            assert answer.rows == baseline.rows, method

    @given(edges=edges_strategy, root=st.sampled_from(NODES))
    @SETTINGS
    def test_counting_on_acyclic_data(self, edges, root):
        """Counting is only safe on acyclic data: orient the random
        edges by node index so cycles cannot arise, then it must agree."""
        acyclic = {(a, b) for a, b in edges if a < b}
        program = ancestor_program()
        query = ancestor_query(root)
        db = edge_db(acyclic)
        baseline = answer_query(program, db, query, QueryOptions(method="seminaive"))
        for method in ("counting", "supplementary_counting"):
            answer = answer_query(
                program,
                db,
                query,
                QueryOptions(method=method),
                meter=EvaluationBudget(max_iterations=200).start(),
            )
            assert answer.rows == baseline.rows, method


class TestSameGenerationEquivalence:
    three_relations = st.tuples(
        st.lists(
            st.tuples(st.sampled_from(NODES), st.sampled_from(NODES)),
            max_size=12,
        ),
        st.lists(
            st.tuples(st.sampled_from(NODES), st.sampled_from(NODES)),
            max_size=12,
        ),
        st.lists(
            st.tuples(st.sampled_from(NODES), st.sampled_from(NODES)),
            max_size=12,
        ),
    )

    @given(data=three_relations, root=st.sampled_from(NODES))
    @SETTINGS
    def test_magic_methods_agree(self, data, root):
        up, flat, down = data
        db = Database()
        db.add_values("up", set(up))
        db.add_values("flat", set(flat))
        db.add_values("down", set(down))
        program = nonlinear_samegen_program()
        query = samegen_query(root)
        baseline = answer_query(program, db, query, QueryOptions(method="seminaive"))
        for method in ("magic", "supplementary_magic"):
            answer = answer_query(
                program,
                db,
                query,
                QueryOptions(method=method),
                meter=EvaluationBudget(max_iterations=400).start(),
            )
            assert answer.rows == baseline.rows, method


class TestEngineAgreementProperty:
    @given(edges=edges_strategy)
    @SETTINGS
    def test_naive_equals_seminaive(self, edges):
        from repro import evaluate

        program = ancestor_program()
        db = edge_db(edges)
        naive = evaluate(program, db, method="naive")
        semi = evaluate(program, db)
        assert naive.database.tuples("anc") == semi.database.tuples("anc")

    @given(edges=edges_strategy, root=st.sampled_from(NODES))
    @SETTINGS
    def test_semijoin_preserves_answers_on_acyclic_data(self, edges, root):
        from repro import evaluate, rewrite, semijoin_optimize

        acyclic = {(a, b) for a, b in edges if a < b}
        program = ancestor_program()
        query = ancestor_query(root)
        db = edge_db(acyclic)
        plain = rewrite(program, query, method="counting")
        optimized = semijoin_optimize(plain)
        plain_res = evaluate(
            plain.program,
            plain.seeded_database(db),
            meter=EvaluationBudget(max_iterations=200).start(),
        )
        opt_res = evaluate(
            optimized.program,
            optimized.seeded_database(db),
            meter=EvaluationBudget(max_iterations=200).start(),
        )
        assert plain.extract_answers(plain_res) == optimized.extract_answers(
            opt_res
        )


# ----------------------------------------------------------------------
# columnar / batch execution layer
# ----------------------------------------------------------------------

# Safe stratified rule groups over a single edge relation ``e``.  A
# random program is a dependency-closed subset of these, so every
# sampled program is safe and stratified by construction while still
# exercising recursion, negation, multi-literal joins, struct and list
# terms, and counting-style ``LinExpr`` index arguments.
RULE_GROUPS = {
    "node": ("node(X) :- e(X, Y).", "node(Y) :- e(X, Y)."),
    "tc": ("tc(X, Y) :- e(X, Y).", "tc(X, Z) :- e(X, Y), tc(Y, Z)."),
    "sym": ("sym(X, Y) :- e(X, Y), e(Y, X).",),
    "selfloop": ("selfloop(X) :- tc(X, X).",),
    "acyc": ("acyc(X) :- node(X), not selfloop(X).",),
    "nontc": ("nontc(X, Y) :- node(X), node(Y), not tc(X, Y).",),
    "far": ("far(X, Y) :- tc(X, Y), not e(X, Y).",),
    "wrap": (
        "wrap(f(X), [X | Y]) :- tc(X, Y).",
        "bare(X) :- wrap(f(X), L), not selfloop(X).",
    ),
    "hops": ("hop(X, Y, 0) :- e(X, Y).",),
}
GROUP_DEPS = {
    "selfloop": ("tc",),
    "acyc": ("node", "selfloop", "tc"),
    "nontc": ("node", "tc"),
    "far": ("tc",),
    "wrap": ("tc", "selfloop"),
}


def _hop_rules():
    """``hop2(X, Z, I+1) :- hop(X, Y, I), e(Y, Z).`` and
    ``odd(X, J) :- hop2(X, Z, 2*J+1).``: a counting-style index in a
    head and an inverted one in a body (the parser has no syntax for
    ``LinExpr``)."""
    from repro import Literal, Rule, Variable
    from repro.datalog.terms import LinExpr

    x, y, z, i, j = (Variable(name) for name in "XYZIJ")
    return [
        Rule(
            Literal("hop2", (x, z, LinExpr(i, 1, 1))),
            [Literal("hop", (x, y, i)), Literal("e", (y, z))],
        ),
        Rule(
            Literal("odd", (x, j)),
            [Literal("hop2", (x, z, LinExpr(j, 2, 1)))],
        ),
    ]


def _closed_program(picks):
    from repro import Program, parse_program

    names = set(picks) | {"tc"}  # recursion always present
    for name in picks:
        names.update(GROUP_DEPS.get(name, ()))
    rules = [
        rule for name in sorted(names) for rule in RULE_GROUPS[name]
    ]
    program = parse_program("\n".join(rules)).program
    if "hops" in names:
        program = Program(list(program.rules) + _hop_rules())
    return program


class TestOracleEquivalence:
    """Every engine config -- naive, semi-naive, and semi-naive on a
    2-thread pool -- derives exactly what the reference evaluator in
    ``conftest`` derives, on random safe stratified programs."""

    @given(
        edges=edges_strategy,
        picks=st.sets(st.sampled_from(sorted(RULE_GROUPS))),
    )
    @SETTINGS
    def test_every_engine_matches_the_oracle(self, edges, picks):
        from repro import evaluate

        program = _closed_program(picks)
        database = edge_db(edges, relation="e")
        for result in (
            evaluate(program, database, method="naive"),
            evaluate(program, database),
            evaluate(program, database, workers=2),
        ):
            assert_matches_oracle(result, program, database)


# ----------------------------------------------------------------------
# parallel execution tier
# ----------------------------------------------------------------------

class TestParallelEquivalenceProperty:
    """The worker pool is invisible: on random safe stratified programs,
    ``workers=4`` derives exactly the same relations *and the same work
    counters* as serial evaluation, for both engines, and an injected
    fault at a random boundary aborts atomically."""

    @given(
        edges=edges_strategy,
        picks=st.sets(st.sampled_from(sorted(RULE_GROUPS))),
    )
    @SETTINGS
    def test_workers_agree_with_serial_thread(self, edges, picks):
        from repro import evaluate

        program = _closed_program(picks)
        database = edge_db(edges, relation="e")
        derived = program.derived_predicates()
        for method in ("naive", "seminaive"):
            serial = evaluate(program, database, method=method)
            parallel = evaluate(program, database, method=method, workers=4)
            for pred in derived:
                assert parallel.database.tuples(
                    pred
                ) == serial.database.tuples(pred), (method, pred)
            # stats determinism: the shard merge replays the serial
            # derivation order, so the counters match exactly
            assert solution_counters(parallel.stats) == solution_counters(
                serial.stats
            ), method
            assert database.check_integrity()

    @given(
        edges=edges_strategy,
        picks=st.sets(st.sampled_from(sorted(RULE_GROUPS))),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @SETTINGS
    def test_fault_injection_is_atomic_under_workers(
        self, edges, picks, seed
    ):
        from repro import EvaluationBudget, EvaluationCancelled, FaultPlan
        from repro import evaluate
        from repro.core.limits import InjectedFault

        program = _closed_program(picks)
        database = edge_db(edges, relation="e")
        before = {
            pred: database.tuples(pred)
            for pred in database.predicate_keys()
        }
        oracle = evaluate(program, database, method="seminaive")
        meter = EvaluationBudget(
            fault_plan=FaultPlan.randomized(seed)
        ).start()
        try:
            result = evaluate(
                program,
                database,
                method="seminaive",
                workers=4,
                meter=meter,
            )
        except (InjectedFault, EvaluationCancelled):
            result = None
        # the source database is untouched whether or not the fault hit
        assert {
            pred: database.tuples(pred)
            for pred in database.predicate_keys()
        } == before
        assert database.check_integrity()
        if result is not None:
            for pred in program.derived_predicates():
                assert result.database.tuples(
                    pred
                ) == oracle.database.tuples(pred), pred


# ----------------------------------------------------------------------
# exact semi-naive
# ----------------------------------------------------------------------


def _assert_exact(program, database, **kwargs):
    from repro import evaluate

    stats = evaluate(program, database, **kwargs).stats
    final = evaluate(program, database).database
    assert stats.rule_firings == body_solutions(program, final), kwargs
    assert stats.duplicate_derivations == (
        stats.rule_firings - stats.facts_derived
    ), kwargs
    return stats


class TestExactSeminaive:
    """Semi-naive finds every body solution exactly once: on random safe
    stratified programs ``rule_firings`` is the number of body solutions
    over the final model, whatever the order rows arrived in, serially
    and on the thread pool, and every firing beyond the new facts is a
    duplicate."""

    @given(
        edges=edges_strategy,
        picks=st.sets(st.sampled_from(sorted(RULE_GROUPS))),
    )
    @SETTINGS
    def test_firings_are_the_body_solutions(self, edges, picks):
        program = _closed_program(picks)
        database = edge_db(edges, relation="e")
        _assert_exact(program, database)
        _assert_exact(program, database, workers=2)

    def test_ancestor_chain_derives_each_fact_once(self):
        # a 40-chain: the full round-1 plan of the recursive rule already
        # joins the base rule's rows, so re-reading them as delta (859
        # firings, 39 duplicates) is exactly what exactness removes
        from repro.workloads import chain_database

        stats = _assert_exact(ancestor_program(), chain_database(40))
        assert (stats.rule_firings, stats.facts_derived) == (820, 820)
        assert stats.duplicate_derivations == 0

    def test_nonlinear_samegen_under_supplementary_magic(self):
        # two derived sg occurrences in one rule: the delta x delta
        # solutions are found by the first occurrence's plan only
        from repro import rewrite
        from repro.workloads import samegen_database

        rewritten = rewrite(
            nonlinear_samegen_program(), samegen_query("l0_0"),
            method="supplementary_magic",
        )
        _assert_exact(
            rewritten.program,
            rewritten.seeded_database(samegen_database(4, 5)),
        )
