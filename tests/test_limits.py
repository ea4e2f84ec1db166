"""Budgets, cancellation, degradation, and fault-injection atomicity.

The contract under test: a governed evaluation either completes within
its :class:`~repro.core.limits.EvaluationBudget` or aborts with a
structured exception -- and an abort, however it arrives (limit trip,
cancellation, injected fault), leaves the database, its indexes, the
version counters, and the Session memo exactly as they were.
"""

import inspect
import threading

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import oracle_answers, oracle_facts, refcount_only
from repro import (
    BudgetExceeded,
    CancellationToken,
    Database,
    EvaluationBudget,
    EvaluationCancelled,
    EvaluationStats,
    FaultPlan,
    InjectedFault,
    Literal,
    Session,
    Variable,
    adorn_program,
    evaluate,
    qsq_evaluate,
)
from repro.cli import main as cli_main
from repro.core.limits import FAULT_ENV_VAR, governing_meter
from repro.datalog.ast import Program, Rule
from repro.datalog.terms import Constant, Struct
from repro.workloads import ancestor_program, ancestor_query, chain_database

# every bottom-up strategy
ENGINE_METHODS = ("naive", "seminaive")

SETTINGS = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

NODES = [f"v{i}" for i in range(8)]

edges_strategy = st.lists(
    st.tuples(st.sampled_from(NODES), st.sampled_from(NODES)),
    min_size=0,
    max_size=24,
)


def edge_db(edges, relation="par"):
    db = Database()
    db.add_values(relation, set(edges))
    return db


def growing_program():
    """A non-terminating workload with ms-scale rounds.

    grow(s(X)) :- grow(X) derives one fresh fact per round, forever --
    only a deadline or a cancellation can stop it.  The work rule is
    ballast: each round's fresh grow fact re-joins the dense ``e``
    relation, so rounds are slow enough for timers to land between
    them and term nesting stays far from the recursion limit.
    """
    x, y, z, w = (Variable(n) for n in "XYZW")
    return Program(
        (
            Rule(
                Literal("grow", (Struct("s", (x,)),)),
                (Literal("grow", (x,)),),
            ),
            Rule(
                Literal("work", (x, z)),
                (
                    Literal("grow", (w,)),
                    Literal("e", (x, y)),
                    Literal("e", (y, z)),
                ),
            ),
        )
    )


def growing_db():
    db = Database()
    db.add_fact(Literal("grow", (Constant("zero"),)))
    db.add_values(
        "e", [(f"n{i}", f"n{j}") for i in range(20) for j in range(20)]
    )
    return db


# ----------------------------------------------------------------------
# meter units
# ----------------------------------------------------------------------


def _stats(facts=0, tuples=0, iterations=0):
    """The counters a meter reads at a boundary."""
    return EvaluationStats(
        iterations=iterations, facts_derived=facts, tuples_scanned=tuples
    )


class TestBudgetMeter:
    def test_unbounded_budget_checks_are_noops(self):
        meter = EvaluationBudget().start()
        meter.check_round(_stats(10**9, 10**9, 10**9), stratum=3, round_=99)
        meter.check_batch(_stats(10**9, 10**9))
        meter.tick_install()

    def test_max_iterations_trips_first_with_structured_progress(self):
        meter = EvaluationBudget(max_iterations=3, max_facts=1).start()
        with pytest.raises(BudgetExceeded) as info:
            meter.check_round(_stats(9, iterations=4), stratum=1, round_=2)
        exc = info.value
        assert exc.limit == "max_iterations"
        assert (exc.iterations, exc.facts) == (4, 9)
        assert exc.stratum == 1 and exc.round == 2

    def test_max_facts_trips_with_structured_progress(self):
        meter = EvaluationBudget(max_facts=10).start()
        meter.check_round(_stats(10), stratum=0, round_=1)  # at the cap: fine
        with pytest.raises(BudgetExceeded) as info:
            meter.check_round(_stats(11), stratum=2, round_=5)
        exc = info.value
        assert exc.limit == "max_facts"
        assert exc.facts == 11
        assert exc.stratum == 2 and exc.round == 5
        assert exc.elapsed is not None
        assert str(exc) == "budget exceeded: max_facts after 11 facts, stratum 2 round 5"

    def test_max_tuples_scanned_trips(self):
        meter = EvaluationBudget(max_tuples_scanned=100).start()
        meter.check_batch(_stats(0, 100))
        with pytest.raises(BudgetExceeded) as info:
            meter.check_batch(_stats(0, 101))
        assert info.value.limit == "max_tuples_scanned"

    def test_wall_clock_trips(self):
        meter = EvaluationBudget(timeout=0.0).start()
        with pytest.raises(BudgetExceeded) as info:
            meter.check_round(_stats())
        assert info.value.limit == "wall_clock"

    def test_max_memory_trips_only_with_database(self):
        db = chain_database(50)
        budget = EvaluationBudget(max_memory_bytes=64)
        meter = budget.start()
        meter.check_round(_stats(), database=None)  # no estimate available
        with pytest.raises(BudgetExceeded) as info:
            meter.check_round(_stats(), database=db)
        assert info.value.limit == "max_memory"
        assert db.estimated_bytes() > 64

    def test_batch_trip_reports_enclosing_round_position(self):
        meter = EvaluationBudget(max_facts=3).start()
        meter.check_round(_stats(), stratum=1, round_=4)
        with pytest.raises(BudgetExceeded) as info:
            meter.check_batch(_stats(7))
        assert info.value.stratum == 1 and info.value.round == 4

    def test_spent_snapshot(self):
        meter = EvaluationBudget(max_facts=100).start()
        meter.check_round(_stats(7, 42), stratum=1, round_=2)
        spent = meter.spent()
        assert spent["facts"] == 7
        assert spent["tuples_scanned"] == 42
        assert spent["stratum"] == 1 and spent["round"] == 2
        assert spent["elapsed"] >= 0.0

    def test_budget_exceeded_is_a_nontermination_error(self):
        from repro.datalog.errors import NonTerminationError

        assert issubclass(BudgetExceeded, NonTerminationError)
        assert not issubclass(EvaluationCancelled, BudgetExceeded)


# ----------------------------------------------------------------------
# engine-level budget trips, on every execution path
# ----------------------------------------------------------------------


class TestEngineBudgets:
    @pytest.mark.parametrize("method", ENGINE_METHODS)
    def test_max_facts_trips(self, method):
        meter = EvaluationBudget(max_facts=5).start()
        with pytest.raises(BudgetExceeded) as info:
            evaluate(
                ancestor_program(),
                chain_database(30),
                method=method,
                meter=meter,
            )
        exc = info.value
        assert exc.limit == "max_facts" and exc.facts > 5
        assert str(exc).startswith("budget exceeded: max_facts after ")

    @pytest.mark.parametrize(
        "limit", ["max_facts", "max_tuples_scanned"]
    )
    def test_a_limit_crossed_by_the_last_round_trips(self, limit):
        """Semi-naive derives all 10 facts, scanning 10 rows, in one
        round, and no boundary follows it: the limit still trips, where
        the fixpoint returns, with no extra round counted."""
        program = Program(
            [Rule(
                Literal("q", (Variable("X"), Variable("Y"))),
                [Literal("e", (Variable("X"), Variable("Y")))],
            )]
        )
        db = Database()
        db.add_values("e", [(i, i + 1) for i in range(10)])
        meter = EvaluationBudget(**{limit: 5}).start()
        with pytest.raises(BudgetExceeded) as info:
            evaluate(program, db, meter=meter)
        exc = info.value
        assert exc.limit == limit and exc.facts == 10
        assert (exc.stratum, exc.round, exc.iterations) == (0, 1, 1)
        assert db.total_facts() == 10

    @pytest.mark.parametrize("method", ENGINE_METHODS)
    def test_wall_clock_trips_on_nonterminating_program(self, method):
        meter = EvaluationBudget(timeout=0.05).start()
        with pytest.raises(BudgetExceeded) as info:
            evaluate(
                growing_program(),
                growing_db(),
                method=method,
                meter=meter,
            )
        assert info.value.limit == "wall_clock"

    def test_max_memory_trips(self):
        meter = EvaluationBudget(max_memory_bytes=1024).start()
        with pytest.raises(BudgetExceeded) as info:
            evaluate(ancestor_program(), chain_database(60), meter=meter)
        assert info.value.limit == "max_memory"

    def test_generous_budget_changes_nothing(self):
        db = chain_database(20)
        ungoverned = evaluate(ancestor_program(), db)
        meter = EvaluationBudget(timeout=60.0, max_facts=10**9).start()
        governed = evaluate(ancestor_program(), db, meter=meter)
        assert governed.database.tuples("anc") == ungoverned.database.tuples(
            "anc"
        )
        assert meter.spent()["facts"] == governed.stats.facts_derived

    @pytest.mark.parametrize(
        "budget,limit",
        [
            ({"max_facts": 3}, "max_facts"),
            ({"max_tuples_scanned": 10}, "max_tuples_scanned"),
            ({"max_memory_bytes": 1024}, "max_memory"),
            ({"max_iterations": 3}, "max_iterations"),
        ],
        ids=[
            "max_facts",
            "max_tuples_scanned",
            "max_memory_bytes",
            "max_iterations",
        ],
    )
    def test_qsq_trips_max_facts(self, budget, limit):
        """QSQ runs on the bottom-up round driver, so every budget that
        trips semi-naive on this chain trips QSQ too."""
        adorned = adorn_program(ancestor_program(), ancestor_query("n0"))
        meter = EvaluationBudget(**budget).start()
        with pytest.raises(BudgetExceeded) as info:
            qsq_evaluate(
                adorned.program,
                chain_database(60),
                adorned.query_literal,
                meter=meter,
            )
        assert info.value.limit == limit


# ----------------------------------------------------------------------
# cooperative cancellation
# ----------------------------------------------------------------------


class TestCancellation:
    def test_token_flips_once(self):
        token = CancellationToken()
        assert not token.cancelled
        token.cancel()
        assert token.cancelled
        token.cancel()  # idempotent
        assert token.cancelled
        assert "cancelled" in repr(token)

    @pytest.mark.parametrize("method", ENGINE_METHODS)
    def test_precancelled_token_aborts_every_engine(self, method):
        token = CancellationToken()
        token.cancel()
        meter = EvaluationBudget(token=token).start()
        with pytest.raises(EvaluationCancelled):
            evaluate(
                ancestor_program(),
                chain_database(10),
                method=method,
                meter=meter,
            )

    def test_precancelled_token_aborts_qsq(self):
        token = CancellationToken()
        token.cancel()
        adorned = adorn_program(ancestor_program(), ancestor_query("n0"))
        meter = EvaluationBudget(token=token).start()
        with pytest.raises(EvaluationCancelled):
            qsq_evaluate(
                adorned.program,
                chain_database(10),
                adorned.query_literal,
                meter=meter,
            )

    def test_cancel_from_another_thread(self):
        """A non-terminating evaluation stops when another thread flips
        the token -- the abort carries the progress made so far."""
        token = CancellationToken()
        timer = threading.Timer(0.05, token.cancel)
        timer.start()
        meter = EvaluationBudget(token=token).start()
        try:
            with pytest.raises(EvaluationCancelled) as info:
                evaluate(growing_program(), growing_db(), meter=meter)
        finally:
            timer.cancel()
        assert info.value.facts > 0

    def test_session_cancellation_never_degrades(self):
        token = CancellationToken()
        token.cancel()
        session = Session(
            program=ancestor_program(), database=chain_database(10)
        )
        with pytest.raises(EvaluationCancelled):
            session.query(
                "anc(n0, Y)?",
                budget=EvaluationBudget(token=token),
            )
        assert session.counters()["memo_entries"] == 0


# ----------------------------------------------------------------------
# fault plan units
# ----------------------------------------------------------------------


class TestFaultPlan:
    def test_fires_once_at_the_chosen_boundary(self):
        plan = FaultPlan("round", after=2)
        plan.tick("batch")  # wrong kind: ignored
        plan.tick("round")
        with pytest.raises(InjectedFault) as info:
            plan.tick("round")
        assert info.value.boundary == "round" and info.value.count == 2
        assert plan.fired
        plan.tick("round")  # disarmed after firing
        assert plan.counts == {"round": 3, "batch": 1, "install": 0}

    def test_any_boundary_counts_everything(self):
        plan = FaultPlan("any", after=3)
        plan.tick("round")
        plan.tick("batch")
        with pytest.raises(InjectedFault):
            plan.tick("install")

    def test_rejects_bad_plans(self):
        with pytest.raises(ValueError):
            FaultPlan("fsync")
        with pytest.raises(ValueError):
            FaultPlan("round", after=0)

    def test_randomized_is_deterministic_in_the_seed(self):
        a, b = FaultPlan.randomized(7), FaultPlan.randomized(7)
        assert (a.boundary, a.after) == (b.boundary, b.after)

    def test_from_env_parsing(self):
        assert FaultPlan.from_env({}) is None
        assert FaultPlan.from_env({FAULT_ENV_VAR: ""}) is None
        plan = FaultPlan.from_env({FAULT_ENV_VAR: "round:3"})
        assert (plan.boundary, plan.after) == ("round", 3)
        plan = FaultPlan.from_env({FAULT_ENV_VAR: "any:5"})
        assert (plan.boundary, plan.after) == ("any", 5)
        plan = FaultPlan.from_env({FAULT_ENV_VAR: "install"})
        assert (plan.boundary, plan.after) == ("install", 1)
        a = FaultPlan.from_env({FAULT_ENV_VAR: "random:42"})
        b = FaultPlan.from_env({FAULT_ENV_VAR: "random:42"})
        assert (a.boundary, a.after) == (b.boundary, b.after)


# ----------------------------------------------------------------------
# session: budgets, degradation, memo hygiene
# ----------------------------------------------------------------------


def chain_session(length=12):
    return Session(program=ancestor_program(), database=chain_database(length))


class TestSessionBudgets:
    # on a 12-chain with a bound root, supplementary magic derives more
    # facts (magic + supplementary overhead: 102) than plain semi-naive
    # (78), so a cap between the two trips the rewrite but lets the
    # fallback finish -- exactly the graceful-degradation scenario
    CAP_BETWEEN = 90

    def test_the_budget_is_the_only_limit_argument(self):
        parameters = list(inspect.signature(Session.query).parameters)
        assert parameters == [
            "self", "query", "method", "optimize", "semijoin", "workers",
            "budget",
        ]

    def test_auto_degrades_to_seminaive(self):
        session = chain_session()
        result = session.query(
            "anc(n0, Y)?", budget=EvaluationBudget(max_facts=self.CAP_BETWEEN)
        )
        assert result.degraded
        assert result.method == "seminaive"
        assert len(result.rows) == 12
        assert result.budget_spent is not None
        # degraded answers are exact, just computed the expensive way
        ungoverned = chain_session().query("anc(n0, Y)?", method="seminaive")
        assert result.rows == ungoverned.rows

    def test_degraded_results_are_never_memoized(self):
        session = chain_session()
        cap = EvaluationBudget(max_facts=self.CAP_BETWEEN)
        degraded = session.query("anc(n0, Y)?", budget=cap)
        assert degraded.degraded
        assert session.counters()["memo_entries"] == 0
        again = session.query("anc(n0, Y)?", budget=cap)
        assert again.degraded and not again.from_memo

    def test_explicit_rewrite_method_raises_by_default(self):
        session = chain_session()
        with pytest.raises(BudgetExceeded) as info:
            session.query(
                "anc(n0, Y)?",
                method="supplementary_magic",
                budget=EvaluationBudget(max_facts=self.CAP_BETWEEN),
            )
        assert info.value.method == "supplementary_magic"
        assert session.counters()["memo_entries"] == 0

    def test_tripped_baseline_never_degrades(self):
        session = chain_session()
        with pytest.raises(BudgetExceeded):
            session.query(
                "anc(n0, Y)?",
                method="seminaive",
                budget=EvaluationBudget(max_facts=5),
            )

    def test_memo_hit_is_served_regardless_of_budget(self):
        session = chain_session()
        first = session.query("anc(n0, Y)?")
        assert not first.from_memo
        # a cap that would trip any evaluation is irrelevant on a hit
        hit = session.query(
            "anc(n0, Y)?", budget=EvaluationBudget(max_facts=1)
        )
        assert hit.from_memo and hit.rows == first.rows
        assert hit.budget_spent is not None

    def test_budget_spent_reported_on_success(self):
        session = chain_session()
        result = session.query(
            "anc(n0, Y)?", budget=EvaluationBudget(timeout=60.0)
        )
        assert not result.degraded and len(result.rows) == 12
        assert result.budget_spent["elapsed"] >= 0.0
        assert result.budget_spent["facts"] > 0
        ungoverned = session.query("anc(n1, Y)?")
        assert ungoverned.budget_spent is None


# ----------------------------------------------------------------------
# fault-injection atomicity
# ----------------------------------------------------------------------

RULE_GROUPS = {
    "node": ("node(X) :- e(X, Y).", "node(Y) :- e(X, Y)."),
    "tc": ("tc(X, Y) :- e(X, Y).", "tc(X, Z) :- e(X, Y), tc(Y, Z)."),
    "sym": ("sym(X, Y) :- e(X, Y), e(Y, X).",),
    "selfloop": ("selfloop(X) :- tc(X, X).",),
    "acyc": ("acyc(X) :- node(X), not selfloop(X).",),
    "nontc": ("nontc(X, Y) :- node(X), node(Y), not tc(X, Y).",),
    "far": ("far(X, Y) :- tc(X, Y), not e(X, Y).",),
}
GROUP_DEPS = {
    "selfloop": ("tc",),
    "acyc": ("node", "selfloop", "tc"),
    "nontc": ("node", "tc"),
    "far": ("tc",),
}


def _closed_program(picks):
    from repro import parse_program

    names = set(picks) | {"tc"}
    for name in picks:
        names.update(GROUP_DEPS.get(name, ()))
    rules = [rule for name in sorted(names) for rule in RULE_GROUPS[name]]
    return parse_program("\n".join(rules)).program


def _snapshot(db):
    return {key: db.tuples(key) for key in db.predicate_keys()}


class TestFaultInjectionAtomicity:
    @given(edges=edges_strategy, seed=st.integers(0, 10_000))
    @SETTINGS
    def test_engine_abort_installs_nothing(self, edges, seed):
        """After an injected abort on ANY execution path, the source
        database passes its integrity oracle, its version is unmoved,
        its facts are untouched, and a clean re-run agrees with the
        reference oracle."""
        program = ancestor_program()
        db = edge_db(edges)
        before = _snapshot(db)
        version = db.version
        oracle = oracle_facts(program, db)["anc"]
        for method in ENGINE_METHODS:
            plan = FaultPlan.randomized(seed)
            meter = EvaluationBudget(fault_plan=plan).start()
            try:
                evaluate(program, db, method=method, meter=meter)
            except InjectedFault:
                pass
            assert db.check_integrity()
            assert db.version == version
            assert _snapshot(db) == before
            retry = evaluate(program, db, method=method)
            assert retry.database.tuples("anc") == oracle, method

    @given(edges=edges_strategy, seed=st.integers(0, 10_000))
    @SETTINGS
    def test_qsq_abort_installs_nothing(self, edges, seed):
        program = ancestor_program()
        query = ancestor_query("v0")
        adorned = adorn_program(program, query)
        db = edge_db(edges)
        before = _snapshot(db)
        version = db.version
        oracle = oracle_answers(program, db, query)
        plan = FaultPlan.randomized(seed)
        meter = EvaluationBudget(fault_plan=plan).start()
        try:
            qsq_evaluate(
                adorned.program, db, adorned.query_literal, meter=meter
            )
        except InjectedFault:
            pass
        assert db.check_integrity()
        assert db.version == version
        assert _snapshot(db) == before
        clean = qsq_evaluate(adorned.program, db, adorned.query_literal)
        assert clean.database.answers(adorned.query_literal) == oracle

    @given(
        edges=edges_strategy,
        picks=st.sets(st.sampled_from(sorted(RULE_GROUPS))),
        seed=st.integers(0, 10_000),
    )
    @SETTINGS
    def test_session_abort_leaves_no_trace(self, edges, picks, seed):
        """The whole stack, on random safe stratified programs (with
        negation): an aborted query corrupts nothing, memoizes nothing,
        and a clean re-query agrees with the stratum-wise reference
        oracle."""
        program = _closed_program(picks)
        db = edge_db(edges, relation="e")
        session = Session(program=program, database=db)
        version = db.version
        plan = FaultPlan.randomized(seed)
        try:
            session.query(
                "tc(X, Y)?", budget=EvaluationBudget(fault_plan=plan)
            )
            aborted = False
        except InjectedFault:
            aborted = True
        assert db.check_integrity()
        assert db.version == version
        if aborted:
            assert session.counters()["memo_entries"] == 0
        clean = session.query("tc(X, Y)?")
        oracle = oracle_answers(program, db, session._as_query("tc(X, Y)?"))
        assert clean.rows == oracle

    @given(edges=edges_strategy, seed=st.integers(0, 10_000))
    @SETTINGS
    def test_abort_leaks_no_holder(self, edges, seed):
        """With the cyclic collector off: after every injected abort the
        source database still holds the very same Relation objects with
        the same facts and version, and its next write is in place --
        the exception path left no evaluation snapshot registered as a
        holder of the caller's relations."""
        program = ancestor_program()
        db = edge_db(edges)
        session = Session(program=program, database=db)

        def engine_run(method):
            return lambda plan: evaluate(
                program,
                db,
                method=method,
                meter=EvaluationBudget(fault_plan=plan).start(),
            )

        def session_run(method):
            return lambda plan: session.query(
                "anc(v0, Y)?",
                method=method,
                budget=EvaluationBudget(fault_plan=plan),
            )

        def relations():
            return {key: db.get(key) for key in db.predicate_keys()}

        runs = [engine_run(method) for method in ENGINE_METHODS]
        runs += [session_run(m) for m in ("auto", "magic", "qsq")]
        with refcount_only():
            for i, run in enumerate(runs):
                held, before, version = relations(), _snapshot(db), db.version
                try:
                    run(FaultPlan.randomized(seed))
                except InjectedFault:
                    pass
                assert relations() == held
                assert _snapshot(db) == before
                assert db.version == version
                assert db.check_integrity()
                db.add_values("par", [("w", f"w{i}")])
                assert db.get("par") is held["par"]

    @pytest.mark.parametrize("plan", ["round:1", "round:2"])
    def test_env_knob_reaches_the_session(self, monkeypatch, plan):
        """REPRO_FAULT_INJECT plants a fault without touching call sites."""
        monkeypatch.setenv(FAULT_ENV_VAR, plan)
        session = chain_session()
        version = session.database.version
        with pytest.raises(InjectedFault):
            session.query("anc(n0, Y)?")
        assert session.counters()["memo_entries"] == 0
        assert session.database.check_integrity()
        assert session.database.version == version
        monkeypatch.delenv(FAULT_ENV_VAR)
        result = session.query("anc(n0, Y)?")
        assert len(result.rows) == 12

    def test_env_knob_reaches_a_budgeted_query_and_a_refresh(
        self, monkeypatch
    ):
        """The environment's plan joins a passed budget that has none,
        and a forced refresh runs under it as the implicit passes do."""
        monkeypatch.setenv(FAULT_ENV_VAR, "any:1")
        session = chain_session()
        with pytest.raises(InjectedFault):
            session.query(
                "anc(n0, Y)?", budget=EvaluationBudget(timeout=60.0)
            )
        assert session.counters()["memo_entries"] == 0
        view = session.materialize("anc")
        session.assert_("par(n12, n13)")  # the implicit pass aborts
        assert view.stale
        with pytest.raises(InjectedFault):
            view.refresh()
        assert view.stale and session.database.check_integrity()
        monkeypatch.delenv(FAULT_ENV_VAR)
        assert view.refresh().action == "rebuilt" and not view.stale
        assert len(session.query("anc(n0, Y)?").rows) == 13

    def test_governing_meter_adds_the_env_plan_only_where_none_is(
        self, monkeypatch
    ):
        monkeypatch.delenv(FAULT_ENV_VAR, raising=False)
        assert governing_meter() is None
        budget = EvaluationBudget(max_facts=5)
        assert governing_meter(budget).budget is budget
        monkeypatch.setenv(FAULT_ENV_VAR, "round:2")
        plan = governing_meter().budget.fault_plan
        assert (plan.boundary, plan.after) == ("round", 2)
        governed = governing_meter(budget).budget
        assert governed.max_facts == 5
        assert governed.fault_plan.boundary == "round"
        own = EvaluationBudget(fault_plan=FaultPlan("batch", 1))
        assert governing_meter(own).budget is own

    def test_install_fault_aborts_before_memoization(self):
        session = chain_session()
        plan = FaultPlan("install", after=1)
        with pytest.raises(InjectedFault):
            session.query(
                "anc(n0, Y)?", budget=EvaluationBudget(fault_plan=plan)
            )
        assert session.counters()["memo_entries"] == 0


# ----------------------------------------------------------------------
# CLI surface
# ----------------------------------------------------------------------


ANCESTOR_SOURCE = """\
anc(X, Y) :- par(X, Y).
anc(X, Y) :- par(X, Z), anc(Z, Y).
par(a, b).
par(b, c).
par(c, d).
"""


class TestCliBudgets:
    def write_program(self, tmp_path):
        path = tmp_path / "anc.dl"
        path.write_text(ANCESTOR_SOURCE)
        return str(path)

    def test_tripped_budget_exits_4_with_one_line(self, tmp_path, capsys):
        code = cli_main(
            [
                "query",
                self.write_program(tmp_path),
                "--query",
                "anc(a, Y)?",
                "--max-facts",
                "1",
            ]
        )
        captured = capsys.readouterr()
        assert code == 4
        err_lines = captured.err.strip().splitlines()
        assert len(err_lines) == 1
        assert err_lines[0].startswith("budget exceeded: max_facts after ")
        assert "Traceback" not in captured.err

    def test_round_cap_exits_4_with_one_line(self, tmp_path, capsys):
        code = cli_main(
            [
                "query",
                self.write_program(tmp_path),
                "--query",
                "anc(a, Y)?",
                "--max-iterations",
                "1",
            ]
        )
        captured = capsys.readouterr()
        assert code == 4
        err_lines = captured.err.strip().splitlines()
        assert len(err_lines) == 1
        assert err_lines[0].startswith("budget exceeded: max_iterations ")

    def test_generous_budget_exits_0(self, tmp_path, capsys):
        code = cli_main(
            [
                "query",
                self.write_program(tmp_path),
                "--query",
                "anc(a, Y)?",
                "--timeout",
                "60",
                "--max-facts",
                "100000",
            ]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert "b" in captured.out and "d" in captured.out
