"""Tests for the stateful Session API (repro.session).

Covers the tentpole guarantees: auto-dispatch choosing the same answers
as every explicit method, the cross-evaluation answer memo (hits,
invalidation on every mutation path, eviction), incremental assertion
and retraction with correct re-query answers across all four bottom-up
engine configurations, and the one-shot ``answer_query`` staying
answer-identical.
"""

import os
import weakref

import pytest

from repro import (
    Database,
    EvaluationBudget,
    PlanCache,
    QueryOptions,
    QueryResult,
    ReproError,
    Session,
    UnsupportedProgramError,
    answer_query,
    build_full_sip,
    parse_program,
    parse_query,
)
from repro.core import pipeline
from repro.workloads import bom_source

from conftest import mentions_placeholder, refcount_only

ANCESTOR = """
    anc(X, Y) :- par(X, Y).
    anc(X, Y) :- par(X, Z), anc(Z, Y).
    par(john, mary). par(mary, sue). par(sue, ann).
    anc(john, X)?
"""

STRATIFIED = """
    comp(P, Q) :- sub(P, Q).
    comp(P, Q) :- sub(P, R), comp(R, Q).
    tainted(P) :- comp(P, Q), recalled(Q).
    ok(P) :- part(P), not tainted(P).
    part(a). part(b). part(c).
    sub(a, b). sub(b, c).
    recalled(c).
    ok(P)?
"""

#: the four bottom-up engine configurations (method x execution path)
#: (bottom-up engine, workers): serial and on the worker pool
ENGINE_CONFIGS = [
    ("naive", 1),
    ("naive", 2),
    ("seminaive", 1),
    ("seminaive", 2),
]

#: every way to answer a positive query
POSITIVE_METHODS = (
    "auto",
    "magic",
    "supplementary_magic",
    "counting",
    "supplementary_counting",
    "qsq",
    "naive",
    "seminaive",
)


def ancestor_session(**kwargs):
    return Session(ANCESTOR, **kwargs)


class TestConstruction:
    def test_from_source_loads_facts_and_queries(self):
        session = ancestor_session()
        assert session.database.total_facts() == 3
        assert len(session.queries) == 1
        assert session.version == 3  # fact loading is a mutation

    def test_from_program_and_database(self):
        parsed = parse_program("anc(X, Y) :- par(X, Y).")
        db = Database()
        db.add_values("par", [("a", "b")])
        session = Session(program=parsed.program, database=db)
        assert session.query("anc(a, Y)?").values() == {("b",)}

    def test_source_and_program_conflict(self):
        parsed = parse_program("anc(X, Y) :- par(X, Y).")
        with pytest.raises(ValueError):
            Session("anc(X, Y) :- par(X, Y).", program=parsed.program)

    def test_neither_source_nor_program(self):
        with pytest.raises(ValueError):
            Session()

    def test_default_query_from_source(self):
        session = ancestor_session()
        assert session.query().values() == {("mary",), ("sue",), ("ann",)}

    def test_no_default_query(self):
        session = Session("anc(X, Y) :- par(X, Y).")
        with pytest.raises(ReproError):
            session.query()

    def test_unknown_method_rejected(self):
        session = ancestor_session()
        with pytest.raises(ValueError):
            session.query("anc(john, X)?", method="sideways")


class TestAutoDispatch:
    def test_positive_program_uses_magic_family(self):
        session = ancestor_session()
        result = session.query("anc(john, X)?")
        assert result.method == "supplementary_magic"

    def test_negated_program_gets_the_rewrite_too(self):
        # the conservative magic extension: auto no longer falls back
        # to plain bottom-up just because the program negates
        session = Session(STRATIFIED)
        result = session.query()
        assert result.method == "supplementary_magic"
        assert result.values() == {("c",)}

    def test_explicit_magic_on_negated_program_works(self):
        session = Session(STRATIFIED)
        for method in ("magic", "supplementary_magic"):
            result = session.query(method=method)
            assert result.method == method
            assert result.values() == {("c",)}

    def test_counting_and_qsq_on_negated_program_still_raise(self):
        session = Session(STRATIFIED)
        with pytest.raises(UnsupportedProgramError):
            session.query(method="counting")
        with pytest.raises(UnsupportedProgramError) as exc:
            session.query(method="qsq")
        assert "auto" in str(exc.value)

    @pytest.mark.parametrize("method", POSITIVE_METHODS)
    def test_auto_identical_to_every_method_positive(self, method):
        session = ancestor_session()
        auto = session.query("anc(john, X)?", method="auto")
        explicit = session.query("anc(john, X)?", method=method)
        assert explicit.rows == auto.rows

    @pytest.mark.parametrize("engine,workers", ENGINE_CONFIGS)
    def test_auto_identical_to_bottom_up_stratified(self, engine, workers):
        source = bom_source(depth=4, fanout=2, exception_rate=0.25, seed=3)
        session = Session(source)
        auto = session.query()
        explicit = session.query(method=engine, workers=workers)
        assert auto.rows == explicit.rows

    def test_auto_decision_is_cached_per_signature(self):
        session = ancestor_session(plan_cache=PlanCache())

        def shape_kinds():
            return [
                kind for kind, _ in session.plan_cache._entries
                if kind[0] == "query-shape"
            ]

        session.query("anc(john, X)?")
        # kind: shape literal, sip builder, method, optimize, semijoin
        assert shape_kinds() == [
            (
                "query-shape",
                parse_query("anc(john, X)?").shape().literal,
                build_full_sip,
                "supplementary_magic",
                True,
                False,
            )
        ]
        assert verdict(session, "anc(john, X)?") is None
        # a different binding pattern is a fresh decision
        session.query("anc(X, ann)?")
        assert len(shape_kinds()) == 2
        assert verdict(session, "anc(X, ann)?") is None

    def test_a_rejected_shape_publishes_its_verdict(self):
        # a query on a base predicate: adornment rejects the shape once,
        # auto answers it semi-naive, an explicit rewrite raises afresh
        session = ancestor_session(plan_cache=PlanCache())
        assert session.query("par(john, X)?").method == "seminaive"
        error_class, message = verdict(session, "par(john, X)?")
        errors = []
        for _ in range(2):
            with pytest.raises(error_class) as info:
                session.query("par(mary, X)?", method="supplementary_magic")
            assert str(info.value) == message
            errors.append(info.value)
        assert errors[0] is not errors[1]
        assert session.query("par(mary, X)?").values() == {("sue",)}

    def test_option_level_rewrite_error_does_not_poison_dispatch(self):
        # semijoin=True is incompatible with the magic family, so auto
        # answers that call via the bottom-up fallback -- but a later
        # default-option query must still get the rewrite
        session = ancestor_session()
        with_semijoin = session.query("anc(john, X)?", semijoin=True)
        assert with_semijoin.method == "seminaive"
        plain = session.query("anc(john, X)?")
        assert plain.method == "supplementary_magic"
        assert plain.rows == with_semijoin.rows


class TestMemo:
    def test_repeat_query_is_memo_hit(self):
        session = ancestor_session()
        first = session.query("anc(john, X)?")
        second = session.query("anc(john, X)?")
        assert not first.from_memo
        assert second.from_memo
        assert second.rows == first.rows
        assert session.memo_hits == 1
        assert session.memo_misses == 1

    def test_memo_hit_preserves_method_and_stats(self):
        session = ancestor_session()
        first = session.query("anc(john, X)?")
        second = session.query("anc(john, X)?")
        assert second.method == first.method
        assert second.stats is first.stats

    def test_different_method_is_a_fresh_entry(self):
        session = ancestor_session()
        session.query("anc(john, X)?", method="magic")
        result = session.query("anc(john, X)?", method="qsq")
        assert not result.from_memo
        assert session.memo_misses == 2

    def test_different_options_are_fresh_entries(self):
        session = ancestor_session()
        session.query("anc(john, X)?", method="seminaive")
        miss = session.query("anc(john, X)?", method="seminaive", workers=2)
        assert not miss.from_memo

    def test_a_round_cap_shares_the_entry(self):
        # max_iterations is a budget limit, and budgets never key the memo
        session = ancestor_session()
        session.query("anc(john, X)?")
        hit = session.query(
            "anc(john, X)?", budget=EvaluationBudget(max_iterations=50)
        )
        assert hit.from_memo

    def test_equal_query_text_hits(self):
        # memoization keys on the parsed Query (structural equality),
        # not on object identity or source text
        session = ancestor_session()
        session.query(parse_query("anc(john, X)?"))
        again = session.query("anc( john , X )?")
        assert again.from_memo

    def test_eviction_keeps_memo_bounded(self):
        session = ancestor_session(memo_size=2)
        session.query("anc(john, X)?")
        session.query("anc(mary, X)?")
        session.query("anc(sue, X)?")  # evicts the oldest entry
        assert len(session._memo) == 2
        assert not session.query("anc(john, X)?").from_memo
        assert session.query("anc(sue, X)?").from_memo

    def test_memo_hit_counters_on_result(self):
        session = ancestor_session()
        session.query("anc(john, X)?")
        hit = session.query("anc(john, X)?")
        assert hit.from_memo
        assert session.memo_hits == 1 and session.memo_misses == 1

    def test_every_method_memoizes_its_own_entry(self):
        session = ancestor_session()
        methods = ("auto", "supplementary_magic", "magic", "qsq", "seminaive")
        for method in methods:
            cold = session.query("anc(john, X)?", method=method)
            repeat = session.query("anc(john, X)?", method=method)
            assert not cold.from_memo and repeat.from_memo
            assert cold.values() == {("mary",), ("sue",), ("ann",)}
        assert session.memo_misses == session.memo_hits == len(methods)

    def test_a_stratified_program_memoizes_through_its_rewrite(self):
        session = Session(
            bom_source(depth=6, fanout=2, exception_rate=0.15, seed=7)
        )
        cold = session.query()
        assert cold.method == "supplementary_magic"
        warm = session.query()
        assert warm.from_memo and warm.rows == cold.rows

    def test_caller_mutating_rows_cannot_corrupt_the_memo(self):
        session = ancestor_session()
        cold = session.query("anc(john, X)?")
        cold.rows.clear()  # hostile caller mutation of the returned set
        hit = session.query("anc(john, X)?")
        assert hit.from_memo
        assert hit.values() == {("mary",), ("sue",), ("ann",)}
        assert isinstance(hit.rows, frozenset)

    @pytest.mark.parametrize("method", ("supplementary_magic", "qsq"))
    def test_memo_entries_do_not_retain_evaluation_artifacts(self, method):
        # the memo stores answers and counters; pinning a full derived
        # database (or QSQ's working snapshot, Q/F relations included)
        # per entry would grow memory by one database copy per
        # memoized query
        session = ancestor_session()
        cold = session.query("anc(john, X)?", method=method)
        hit = session.query("anc(john, X)?", method=method)
        assert hit.from_memo
        assert hit.evaluation is None
        if method == "qsq":
            assert cold.qsq.answers  # cold result keeps Q/F
            assert cold.qsq.database is not None
            assert hit.qsq.database is None
            assert not hit.qsq.answers
            assert not hit.qsq.queries
            assert (
                hit.qsq.subqueries_generated
                == cold.qsq.subqueries_generated
            )
        else:
            assert cold.evaluation is not None
        assert hit.rows == cold.rows and hit.stats is cold.stats


class TestInvalidation:
    #: every call shape of the unified assert_/retract surface
    MUTATIONS = {
        "assert_fact": lambda s: s.assert_("par(ann, zoe)"),
        "assert_literal": lambda s: s.assert_(
            parse_query("par(ann, zoe)?").literal
        ),
        "assert_iterable": lambda s: s.assert_(["par(ann, zoe)"]),
        "assert_row": lambda s: s.assert_("par", "ann", "zoe"),
        "retract_fact": lambda s: s.retract("par(sue, ann)"),
        "retract_iterable": lambda s: s.retract(["par(sue, ann)"]),
        "retract_row": lambda s: s.retract("par", "sue", "ann"),
    }

    @pytest.mark.parametrize("mutation", sorted(MUTATIONS))
    def test_every_mutation_path_bumps_and_drops_memo(self, mutation):
        session = ancestor_session()
        session.query("anc(john, X)?")
        assert len(session._memo) == 1
        before = session.version
        changed = self.MUTATIONS[mutation](session)
        assert changed in (True, 1)
        assert session.version > before
        assert len(session._memo) == 0
        assert session.memo_invalidations == 1
        result = session.query("anc(john, X)?")
        assert not result.from_memo

    @pytest.mark.parametrize("mutation", sorted(MUTATIONS))
    def test_repeated_mutation_is_a_no_op(self, mutation):
        session = ancestor_session()
        assert self.MUTATIONS[mutation](session) in (True, 1)
        session.query("anc(john, X)?")
        before = session.version
        assert self.MUTATIONS[mutation](session) in (False, 0)
        assert session.version == before
        assert session.query("anc(john, X)?").from_memo

    def test_pre_ivm_mutation_names_are_gone(self):
        for name in (
            "add", "add_facts", "add_values", "add_many",
            "retract_facts", "retract_values", "retract_many",
        ):
            assert not hasattr(Session, name), name

    def test_bad_mutation_shapes_are_rejected(self):
        session = ancestor_session()
        with pytest.raises(ValueError):
            session.assert_()
        with pytest.raises(ValueError):
            session.retract(parse_query("par(a, b)?").literal, "extra")

    def test_noop_mutation_keeps_memo(self):
        session = ancestor_session()
        first = session.query("anc(john, X)?")
        assert not session.assert_("par(john, mary)")  # already present
        assert not session.retract("par(zeus, ares)")  # never present
        again = session.query("anc(john, X)?")
        assert again.from_memo and again.rows == first.rows

    def test_noop_mutation_keeps_version_and_footprint_entries(self):
        # regression for the memo/version interaction: a retract of an
        # absent fact or a re-assert of a present one must not bump
        # Database.version nor invalidate footprint-matching entries
        session = ancestor_session()
        session.query("anc(john, X)?")
        version = session.version
        invalidations = session.memo_invalidations
        assert not session.assert_("par", "john", "mary")  # present
        assert not session.retract("par", "zeus", "ares")  # absent
        assert not session.retract("anc(zeus, ares)")      # absent
        assert session.version == version
        assert len(session._memo) == 1
        assert session.memo_invalidations == invalidations
        assert session.query("anc(john, X)?").from_memo

    def test_out_of_band_database_mutation_is_detected(self):
        # mutations that bypass the Session entirely (direct Relation
        # access) are caught by the version check on the next query
        session = ancestor_session()
        session.query("anc(john, X)?")
        session.database.add_values("par", [("ann", "zoe")])
        result = session.query("anc(john, X)?")
        assert not result.from_memo
        assert ("zoe",) in result.values()

    def test_invalidated_entry_is_memoized_again(self):
        session = ancestor_session()
        first = session.query("anc(john, X)?")
        session.assert_("par", "ann", "zoe")
        after_add = session.query("anc(john, X)?")
        assert not after_add.from_memo
        assert session.memo_invalidations >= 1
        assert len(after_add.rows) == len(first.rows) + 1
        assert session.query("anc(john, X)?").from_memo
        session.retract("par", "ann", "zoe")
        after_retract = session.query("anc(john, X)?")
        assert not after_retract.from_memo
        assert after_retract.rows == first.rows

    @pytest.mark.parametrize("engine,workers", ENGINE_CONFIGS)
    def test_retract_then_requery_bottom_up(self, engine, workers):
        session = ancestor_session()
        full = session.query(
            "anc(john, X)?", method=engine, workers=workers
        )
        assert full.values() == {("mary",), ("sue",), ("ann",)}
        assert session.retract("par(sue, ann)")
        trimmed = session.query(
            "anc(john, X)?", method=engine, workers=workers
        )
        assert trimmed.values() == {("mary",), ("sue",)}
        assert session.assert_("par(sue, ann)")
        restored = session.query(
            "anc(john, X)?", method=engine, workers=workers
        )
        assert restored.values() == full.values()

    @pytest.mark.parametrize(
        "method", ("auto", "supplementary_magic", "qsq")
    )
    def test_retract_then_requery_query_directed(self, method):
        session = ancestor_session()
        full = session.query("anc(john, X)?", method=method)
        session.retract("par(sue, ann)")
        trimmed = session.query("anc(john, X)?", method=method)
        assert trimmed.values() == {("mary",), ("sue",)}
        assert not trimmed.from_memo
        assert full.values() - trimmed.values() == {("ann",)}

    @pytest.mark.parametrize("engine,workers", ENGINE_CONFIGS)
    def test_retract_then_requery_stratified_bottom_up(
        self, engine, workers
    ):
        session = Session(STRATIFIED)
        before = session.query(method=engine, workers=workers)
        assert before.values() == {("c",)}
        # lift the recall: everything is ok again
        session.retract("recalled(c)")
        after = session.query(method=engine, workers=workers)
        assert after.values() == {("a",), ("b",), ("c",)}

    @pytest.mark.parametrize("method", ("auto", "magic"))
    def test_retract_then_requery_stratified_rewrites(self, method):
        session = Session(STRATIFIED)
        before = session.query(method=method)
        assert before.values() == {("c",)}
        session.retract("recalled(c)")
        after = session.query(method=method)
        assert after.values() == {("a",), ("b",), ("c",)}


#: two independent cones: the memo holds answers for one database
#: version, so a write to either cone drops the other's entries too
TWO_CONES = """
    anc(X, Y) :- par(X, Y).
    anc(X, Y) :- par(X, Z), anc(Z, Y).
    friend(X, Y) :- knows(X, Y).
    par(john, mary). par(mary, sue).
    knows(a, b).
"""


class TestFootprintInvalidation:
    @pytest.mark.parametrize(
        "method", ("auto", "supplementary_magic", "qsq", "seminaive")
    )
    def test_disjoint_mutation_drops_entry(self, method):
        session = Session(TWO_CONES)
        cold = session.query("anc(john, X)?", method=method)
        session.assert_("knows(a, c)")  # outside the anc cone
        assert session.memo_invalidations == 1
        again = session.query("anc(john, X)?", method=method)
        assert not again.from_memo
        assert again.rows == cold.rows
        assert again.db_version == session.version

    def test_intersecting_mutation_drops_entry(self):
        session = Session(TWO_CONES)
        session.query("anc(john, X)?")
        session.assert_("par(sue, ann)")  # inside the anc footprint
        result = session.query("anc(john, X)?")
        assert not result.from_memo
        assert ("ann",) in result.values()
        assert session.memo_invalidations == 1

    def test_out_of_band_mutation_still_flushes_everything(self):
        session = Session(TWO_CONES)
        session.query("anc(john, X)?")
        session.query("friend(a, Y)?")
        session.database.add_values("knows", [("a", "z")])
        assert not session.query("anc(john, X)?").from_memo

    def test_stratified_footprint_covers_negated_cone(self):
        # the negated predicate's relations are part of the footprint:
        # mutating them must invalidate even though the rewrite carries
        # the literal conservatively
        session = Session(STRATIFIED)
        session.query()  # auto -> supplementary_magic
        session.retract("recalled(c)")
        result = session.query()
        assert not result.from_memo
        assert result.values() == {("a",), ("b",), ("c",)}


class TestQueryResult:
    def test_container_protocol(self):
        session = ancestor_session()
        result = session.query("anc(john, X)?")
        assert len(result) == 3
        assert set(result) == result.rows
        for row in result.rows:
            assert row in result

    def test_plan_cache_counters_surface(self):
        session = ancestor_session(plan_cache=PlanCache())
        result = session.query("anc(john, X)?", method="seminaive")
        assert result.stats.plan_cache_misses == 1
        again = Session(
            program=session.program,
            database=session.database,
            plan_cache=session.plan_cache,
        ).query("anc(john, X)?", method="seminaive")
        assert again.stats.plan_cache_hits == 1

    def test_qsq_reports_its_join_work(self):
        # QSQ's counters come from the round driver, as every other
        # method's: answers are facts_derived, and the scans and probes
        # that found them are counted, not reported as zero
        stats = ancestor_session().query("anc(john, X)?", method="qsq").stats
        assert stats.tuples_scanned > 0 and stats.join_probes > 0
        assert stats.rule_firings >= stats.facts_derived > 0

    def test_counters_dict(self):
        session = ancestor_session(plan_cache=PlanCache())
        session.query("anc(john, X)?")
        session.query("anc(john, X)?")
        counters = session.counters()
        assert counters["memo_hits"] == 1
        assert counters["memo_misses"] == 1
        assert counters["memo_entries"] == 1
        assert counters["db_version"] == session.version

    def test_underlying_answer_is_exposed(self):
        session = ancestor_session()
        result = session.query("anc(john, X)?")
        assert type(result) is QueryResult
        assert result.rewritten is not None
        assert result.evaluation is not None

    def test_explain_returns_derivation_trees(self):
        session = ancestor_session()
        result = session.query("anc(john, X)?")
        trees = session.explain(result.query, limit=2)
        assert len(trees) == 2
        rendered = trees[0].render()
        assert "anc(john" in rendered

    def test_explain_on_memo_hit(self):
        session = ancestor_session()
        session.query("anc(john, X)?")
        hit = session.query("anc(john, X)?")
        assert hit.from_memo
        assert len(session.explain(hit.query)) == 3

    def test_explain_stratified(self):
        session = Session(STRATIFIED)
        result = session.query()
        trees = session.explain(result.query)
        assert len(trees) == 1
        assert "ok(c)" in trees[0].render()


def verdict(session, text):
    """``auto``'s verdict on a query's shape, read from the plan cache."""
    return pipeline._shape_for(
        session.program,
        parse_query(text),
        "supplementary_magic",
        QueryOptions(),
        build_full_sip,
        session.plan_cache,
    ).rejection


class TestAnswerQuery:
    def test_answer_query_matches_session(self):
        parsed = parse_program(ANCESTOR)
        db = Database()
        db.add_facts(parsed.facts)
        query = parsed.queries[0]
        legacy = answer_query(parsed.program, db, query)
        session = Session(program=parsed.program, database=db)
        assert legacy.rows == session.query(query).rows

    def test_answer_query_accepts_auto(self):
        parsed = parse_program(ANCESTOR)
        db = Database()
        db.add_facts(parsed.facts)
        answer = answer_query(
            parsed.program, db, parsed.queries[0], QueryOptions(method="auto")
        )
        assert answer.method == "supplementary_magic"
        assert answer.values() == {("mary",), ("sue",), ("ann",)}

    def test_answer_query_auto_stratified(self):
        parsed = parse_program(STRATIFIED)
        db = Database()
        db.add_facts(parsed.facts)
        answer = answer_query(
            parsed.program, db, parsed.queries[0], QueryOptions(method="auto")
        )
        assert answer.method == "supplementary_magic"
        assert answer.values() == {("c",)}


CHAIN = 60
CHAIN_SOURCE = (
    "anc(X, Y) :- par(X, Y).\nanc(X, Y) :- par(X, Z), anc(Z, Y).\n"
    + "".join(f"par(n{i}, n{i + 1}).\n" for i in range(CHAIN))
)


def _chain_answer(k):
    return {(f"n{j}",) for j in range(k + 1, CHAIN + 1)}


class TestShapeCacheWorkGate:
    """The query front end runs once per query *shape*, not per
    constant: a deterministic gate on calls, no wall clock."""

    def test_fifty_constants_adorn_and_rewrite_once_per_shape_and_method(
        self, front_end_calls
    ):
        session = Session(CHAIN_SOURCE, plan_cache=PlanCache())
        expected = {"adorn": 0, "rewrite": 0}
        for method, rewrites in (
            ("supplementary_magic", 1),
            ("counting", 1),
            ("qsq", 0),
        ):
            expected["adorn"] += 1
            expected["rewrite"] += rewrites
            for k in range(50):
                result = session.query(f"anc(n{k}, Y)?", method=method)
                assert not result.from_memo
                assert result.values() == _chain_answer(k)
            assert front_end_calls == expected, method
        # the other argument order is another shape
        session.query(f"anc(X, n{CHAIN})?", method="supplementary_magic")
        assert front_end_calls == {"adorn": 4, "rewrite": 3}

    def test_per_request_sessions_share_one_entry(self, front_end_calls):
        """As ``QueryScheduler._evaluate`` answers cold reads: one
        ``answer_query`` per request on a snapshot, over one program and
        one PlanCache."""
        parsed = parse_program(CHAIN_SOURCE)
        db = Database()
        db.add_fact_rows(parsed.fact_rows)
        cache = PlanCache()
        options = QueryOptions(method="supplementary_magic")
        programs, tables = set(), []
        for k in range(50):
            answer = answer_query(
                parsed.program,
                db.snapshot(),
                parse_query(f"anc(n{k}, Y)?"),
                options,
                plan_cache=cache,
            )
            assert answer.values() == _chain_answer(k)
            assert answer.rewritten.query == parse_query(f"anc(n{k}, Y)?")
            programs.add(id(answer.rewritten.program))
            tables.append(answer.rewritten.mirror_targets)
            keep = answer.rewritten.program  # ids stay comparable
        assert front_end_calls == {"adorn": 1, "rewrite": 1}
        assert programs == {id(keep)}
        # ... and the one mirror table, built before publication
        assert all(table is tables[0] for table in tables)
        # one shape entry + its one compiled program
        assert len(cache) == 2 and cache.misses == 2

    def test_reads_intern_no_placeholder(self):
        from repro.datalog.catalog import term_catalog

        session = Session(CHAIN_SOURCE, plan_cache=PlanCache())
        catalog = term_catalog()
        before = len(catalog)
        for k in range(50):
            for method in ("supplementary_magic", "magic", "qsq"):
                session.query(f"anc(n{k}, Y)?", method=method)
        # every constant asked about is in the database already, so --
        # as before the shape cache -- 150 cold reads intern nothing
        assert len(catalog) == before
        # the counting rewrites intern the index values they compute
        # (plain integers), and nothing else
        for k in range(50):
            session.query(f"anc(n{k}, Y)?", method="counting")
        assert all(
            type(term.value) is int
            for term in catalog.export_state()[before:]
        )
        before = len(catalog)
        # a constant nobody has seen is interned by its seed fact: that
        # one term, not a placeholder
        session.query("anc(nobody_knows_me, Y)?", method="magic")
        grown = catalog.export_state()[before:]
        assert [str(term) for term in grown] == ["nobody_knows_me"]
        assert not any(
            mentions_placeholder(term) for term in catalog.export_state()
        )

    def test_a_mutation_between_reads_keeps_the_entry(self, front_end_calls):
        session = Session(CHAIN_SOURCE, plan_cache=PlanCache())
        first = session.query("anc(n3, Y)?", method="supplementary_magic")
        program = first.rewritten.program
        session.assert_(f"par(n{CHAIN}, zoe)")  # drops the memo, not the rewrite
        second = session.query("anc(n3, Y)?", method="supplementary_magic")
        assert not second.from_memo
        assert ("zoe",) in second.values()
        assert second.rewritten.program is program
        assert front_end_calls == {"adorn": 1, "rewrite": 1}
        # QSQ's adorned program lives in the same cache
        session.query("anc(n3, Y)?", method="qsq")
        session.retract(f"par(n{CHAIN}, zoe)")
        result = session.query("anc(n3, Y)?", method="qsq")
        assert ("zoe",) not in result.values()
        assert front_end_calls == {"adorn": 2, "rewrite": 1}


class TestLifecycle:
    """close() / context manager (the server's session-recycling hook)."""

    def test_context_manager_closes(self):
        with ancestor_session() as session:
            view = session.materialize("anc")
            # seminaive bypasses the view fast path, so it memoizes
            session.query("anc(john, X)?", method="seminaive")
            assert session._memo
            assert session._materializer is not None
        assert session._materializer is None
        assert not session._memo
        assert view.dropped
        # the mutation log is detached from the database
        assert session.database._mutation_logs == ()

    def test_unclosed_session_is_freed_by_refcount(self):
        # the memo holds the session's results, and explaining one
        # must not leave a cycle back to the session
        with refcount_only():
            session = ancestor_session()
            result = session.query("anc(john, X)?")
            assert session._memo
            assert session.explain(result.query)
            ref = weakref.ref(session)
            del session
            assert ref() is None

    def test_close_is_idempotent_and_session_stays_usable(self):
        session = ancestor_session()
        session.materialize("anc")
        session.query("anc(john, X)?")
        session.close()
        session.close()
        result = session.query("anc(john, X)?")
        assert result.values() == {("mary",), ("sue",), ("ann",)}
        assert not result.maintained

    def test_close_keeps_the_shape_entries(self, front_end_calls):
        """The shape entries and their ``auto`` verdicts belong to the
        (shared) plan cache, so close() leaves them."""
        cache = PlanCache()
        session = ancestor_session(plan_cache=cache)
        session.query("anc(john, X)?")
        assert verdict(session, "anc(john, X)?") is None
        entries = len(cache)
        session.close()
        assert len(cache) == entries
        assert verdict(session, "anc(john, X)?") is None
        other = ancestor_session(plan_cache=cache)
        for each in (session, other):
            assert each.query("anc(mary, X)?").values() == {
                ("sue",),
                ("ann",),
            }
        assert front_end_calls == {"adorn": 1, "rewrite": 1}

    def test_materialized_relations_publishes_isolated_views(self):
        session = ancestor_session()
        session.materialize("anc")
        published = session.materialized_relations()
        assert published.predicate_keys() == {"anc"}
        frozen = published.get("anc")
        session.assert_("par(ann, zoe)")
        # the published view is frozen; the maintained state moved on
        assert len(frozen) == 6
        assert len(session.materialized_relations().get("anc")) == 10

    def test_materialized_relations_empty_when_stale_or_absent(self):
        session = ancestor_session()
        assert session.materialized_relations().predicate_keys() == set()
        session.materialize("anc")
        os.environ["REPRO_FAULT_INJECT"] = "any:1"
        try:
            session.assert_("par(ann, zoe)")
        finally:
            del os.environ["REPRO_FAULT_INJECT"]
        # the maintenance pass aborted: stale state is never published
        assert session.materialized_relations().predicate_keys() == set()
