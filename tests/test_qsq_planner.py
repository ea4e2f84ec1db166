"""The compiled QSQ evaluator: equivalence, plan cache, delta probes.

Three layers of guarantees:

* per Theorem 9.1, the compiled ``qsq_evaluate`` (on the semi-naive
  round driver, each body solution found once) computes exactly the
  ``Q``/``F`` sets of bottom-up magic evaluation under the same sip
  builder (``check_optimality``), across workloads, sip families, and
  random databases (hypothesis);
* its answers equal the reference evaluator's (``conftest``);
* the infrastructure rides along: the shared :class:`PlanCache` stops
  recompilation (visible through evaluation stats), semi-naive delta
  batches answer constant-carrying delta literals, and
  :meth:`Relation.add_many` keeps indexes consistent on its bulk path.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import (
    Constant,
    Database,
    EvaluationBudget,
    Literal,
    PlanCache,
    Relation,
    Variable,
    adorn_program,
    build_chain_sip,
    build_empty_sip,
    build_full_sip,
    check_optimality,
    compile_subquery_rule,
    evaluate,
    order_body,
    parse_program,
    parse_query,
    qsq_evaluate,
    rewrite,
    subquery_program_for,
    term_catalog,
    UnsupportedProgramError,
)
from repro.datalog.ast import Program, Rule
from repro.datalog.planner import subquery_relation
from repro.workloads import (
    ancestor_program,
    ancestor_query,
    chain_database,
    constant_list,
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

from conftest import body_solutions, oracle_facts, reference_scan


def c(value):
    return Constant(value)


def run_qsq(program, query, db, sip_builder=build_full_sip, **kwargs):
    adorned = adorn_program(program, query, sip_builder)
    result = qsq_evaluate(
        adorned.program, db, adorned.query_literal, **kwargs
    )
    return adorned, result


def assert_sound_qf(program, query, db, sip_builder=build_full_sip,
                    bottom_up_safe=True):
    """``Q``/``F`` equal magic's under the same sips (Theorem 9.1), and
    the answers equal the oracle's on the program as written (when its
    unrestricted bottom-up evaluation terminates)."""
    adorned, result = run_qsq(program, query, db, sip_builder)
    for method in ("magic", "supplementary_magic"):
        rewritten = rewrite(program, query, method, sip_builder)
        report = check_optimality(rewritten, db)
        assert report.sip_optimal, (method, report.mismatches)
    answers = result.database.answers(adorned.query_literal)
    if bottom_up_safe:
        expected = oracle_facts(program, db)[query.literal.pred_key]
        assert answers == reference_scan(expected, query.literal)
    return adorned, result


# ----------------------------------------------------------------------
# Theorem 9.1 and the oracle
# ----------------------------------------------------------------------

WORKLOADS = [
    ("anc-chain", ancestor_program, lambda: ancestor_query("n0"),
     lambda: chain_database(12)),
    ("anc-cycle", ancestor_program, lambda: ancestor_query("n0"),
     lambda: cycle_database(7)),
    ("nl-anc-dag", nonlinear_ancestor_program, lambda: ancestor_query("n0"),
     lambda: random_dag_database(14, 0.25, seed=11)),
    ("samegen", nonlinear_samegen_program, lambda: samegen_query("l0_0"),
     lambda: samegen_database(3, 4, flat_edges=5)),
]


class TestCompiledEquivalence:
    @pytest.mark.parametrize(
        "name,make_program,make_query,make_db", WORKLOADS,
        ids=[w[0] for w in WORKLOADS],
    )
    def test_workloads(self, name, make_program, make_query, make_db):
        assert_sound_qf(make_program(), make_query(), make_db())

    @pytest.mark.parametrize(
        "sip_builder", [build_full_sip, build_chain_sip, build_empty_sip],
        ids=["full", "chain", "empty"],
    )
    def test_sip_families(self, sip_builder):
        assert_sound_qf(
            nonlinear_samegen_program(),
            samegen_query("l0_0"),
            samegen_database(3, 3, flat_edges=4),
            sip_builder=sip_builder,
        )

    def test_function_symbols_list_reverse(self):
        # unsafe bottom-up as written: checked against magic only
        adorned, result = assert_sound_qf(
            list_reverse_program(), reverse_query(integer_list(5)),
            Database(), bottom_up_safe=False,
        )
        answers = result.database.answers(adorned.query_literal)
        assert answers == {(constant_list([4, 3, 2, 1, 0]),)}

    def test_constant_in_rule_body(self):
        # a derived body literal carrying a constant at a free position
        # exercises the _EQC row op (the answer index only covers the
        # adornment's bound positions)
        program = parse_program(
            """
            p(X, Y) :- e(X, Y).
            p(X, Y) :- p(X, two), e(two, Y).
            """
        ).program
        db = Database()
        db.add_values("e", [("one", "two"), ("two", "three")])
        from repro import parse_query

        adorned, result = assert_sound_qf(
            program, parse_query("p(one, Y)?"), db
        )
        assert result.database.answers(adorned.query_literal) == {
            (c("two"),), (c("three"),),
        }

    def test_budgets_preserved(self):
        from repro import NonTerminationError, parse_query

        program = parse_program(
            """
            s(X, Y) :- base(X, Y).
            s(X, [a | Y]) :- s(X, Y).
            """
        ).program
        db = Database()
        db.add_values("base", [("q", "nil")])
        adorned = adorn_program(program, parse_query("s(q, Y)?"))
        with pytest.raises(NonTerminationError):
            qsq_evaluate(
                adorned.program, db, adorned.query_literal,
                meter=EvaluationBudget(max_iterations=25).start(),
            )
        with pytest.raises(NonTerminationError):
            qsq_evaluate(
                adorned.program,
                db,
                adorned.query_literal,
                meter=EvaluationBudget(max_facts=10).start(),
            )

    def test_unbound_bound_position_is_rejected(self):
        # hand-built adorned rule whose bound position the sip never
        # binds: no ground subquery for q^b could ever be issued, so
        # compiling the rule fails, naming the rule and the position
        x, y = Variable("X"), Variable("Y")
        program = Program([
            Rule(Literal("p", (x,), "f"),
                 [Literal("q", (y,), "b"), Literal("e", (x,))]),
            Rule(Literal("q", (y,), "b"), [Literal("f", (y,))]),
        ])
        db = Database()
        db.add_values("e", [("a",)])
        db.add_values("f", [("b",)])
        query = Literal("p", (Variable("Z"),), "f")
        with pytest.raises(
            UnsupportedProgramError, match=r"bound position 0 of q\^b\(Y\)"
        ) as info:
            qsq_evaluate(program, db, query, plan_cache=PlanCache())
        assert str(program.rules[0]) in str(info.value)


class TestQSQPlanShape:
    """A QSQ plan is the ``JoinPlan`` of ``h :- $q:h(b), body`` in sip
    order: the order decides which subqueries exist."""

    def test_first_step_reads_the_subqueries_and_derived_steps_register(
        self,
    ):
        adorned = adorn_program(
            nonlinear_samegen_program(), samegen_query("l0_0")
        )
        compiled, _ = subquery_program_for(adorned.program, PlanCache())
        for rule, plan in zip(adorned.program.rules, compiled.plans):
            entry, *body = plan.steps
            assert entry.pred_key == subquery_relation(rule.head.pred_key)
            assert entry.input_key is None
            assert [step.literal for step in body] == list(rule.body)
            for step in body:
                if step.pred_key in compiled.derived_keys:
                    assert step.input_key == subquery_relation(step.pred_key)
                    assert step.index_positions == (
                        step.literal.bound_positions()
                    )
                else:
                    assert step.input_key is None

    def test_body_keeps_the_sip_order(self):
        # the greedy join order would run f(X, Z) before e(Z, Y); a QSQ
        # plan never reorders
        x, y, z = Variable("X"), Variable("Y"), Variable("Z")
        rule = Rule(
            Literal("p", (x, y), "bf"),
            [Literal("e", (z, y)), Literal("f", (x, z))],
        )
        plan = compile_subquery_rule(rule, {"p^bf"})
        assert plan.order == (0, 1, 2)
        assert order_body(plan.rule) != plan.order


class TestTheorem91:
    @pytest.mark.parametrize("method", ["magic", "supplementary_magic"])
    def test_ancestor(self, method):
        program = ancestor_program()
        query = ancestor_query("n0")
        db = chain_database(10)
        rewritten = rewrite(program, query, method=method)
        report = check_optimality(rewritten, db)
        assert report.sip_optimal, report.mismatches

    @pytest.mark.parametrize("method", ["magic", "supplementary_magic"])
    def test_samegen(self, method):
        program = nonlinear_samegen_program()
        query = samegen_query("l0_0")
        db = samegen_database(3, 3, flat_edges=4)
        rewritten = rewrite(program, query, method=method)
        report = check_optimality(rewritten, db)
        assert report.sip_optimal, report.mismatches

    @pytest.mark.parametrize(
        "program,query,db",
        [
            (ancestor_program, lambda: ancestor_query("n0"),
             lambda: chain_database(120)),
            (nonlinear_samegen_program, lambda: samegen_query("l0_0"),
             lambda: samegen_database(layers=100, width=3, flat_edges=2)),
        ],
        ids=["chain 120", "samegen 100 layers"],
    )
    def test_deep_workloads(self, program, query, db):
        """Q and F equal magic's relations on a deep workload, and
        QSQ answers as the magic rewrite does."""
        program, query, db = program(), query(), db()
        adorned = adorn_program(program, query)
        rewritten = rewrite(program, query, method="magic", adorned=adorned)
        report = check_optimality(rewritten, db)
        assert report.sip_optimal, report.mismatches
        qsq = qsq_evaluate(adorned.program, db, adorned.query_literal)
        magic = evaluate(
            rewritten.program, rewritten.seeded_database(db)
        )
        assert qsq.database.answers(adorned.query_literal) == (
            rewritten.extract_answers(magic)
        )


class TestExactRounds:
    """QSQ rounds run on the semi-naive round driver, whose windows meet
    each combination of input and answer rows once: ``rule_firings`` is
    the body solutions of the adorned rules, each guarded by its head's
    subqueries, over the final ``Q`` and ``F``."""

    @pytest.mark.parametrize(
        "name,make_program,make_query,make_db", WORKLOADS,
        ids=[w[0] for w in WORKLOADS],
    )
    def test_firings_are_body_solutions(self, name, make_program,
                                        make_query, make_db):
        db = make_db()
        adorned, result = run_qsq(make_program(), make_query(), db)
        final = db.snapshot()
        guarded = []
        for rule in adorned.program.rules:
            guard = "q_" + rule.head.pred_key.replace("^", "_")
            guarded.append(Rule(
                rule.head,
                (Literal(guard, rule.head.bound_args()),) + tuple(rule.body),
            ))
            final.relation(guard).add_many(
                result.queries.get(rule.head.pred_key, ())
            )
        for pred, rows in result.answers.items():
            final.relation(pred).add_many(rows)
        assert result.stats.rule_firings == body_solutions(
            Program(guarded), final
        )
        answers = result.answers.values()
        assert result.stats.facts_derived == sum(map(len, answers))


# ----------------------------------------------------------------------
# property tests: QSQ == bottom-up magic, answers == oracle
# ----------------------------------------------------------------------

NODES = [f"v{i}" for i in range(7)]

edges_strategy = st.lists(
    st.tuples(st.sampled_from(NODES), st.sampled_from(NODES)),
    min_size=0,
    max_size=20,
)

SETTINGS = settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def edge_db(edges, relation="par"):
    db = Database()
    db.add_values(relation, set(edges))
    return db


class TestQSQProperty:
    @given(edges=edges_strategy, root=st.sampled_from(NODES))
    @SETTINGS
    def test_linear_ancestor(self, edges, root):
        assert_sound_qf(
            ancestor_program(), ancestor_query(root), edge_db(edges)
        )

    @given(edges=edges_strategy, root=st.sampled_from(NODES))
    @SETTINGS
    def test_nonlinear_ancestor(self, edges, root):
        assert_sound_qf(
            nonlinear_ancestor_program(), ancestor_query(root),
            edge_db(edges),
        )

    @given(edges=edges_strategy, root=st.sampled_from(NODES))
    @SETTINGS
    def test_matches_bottom_up_magic(self, edges, root):
        program = ancestor_program()
        query = ancestor_query(root)
        db = edge_db(edges)
        rewritten = rewrite(program, query, "magic", build_chain_sip)
        report = check_optimality(rewritten, db)
        assert report.sip_optimal, report.mismatches


# ----------------------------------------------------------------------
# plan cache
# ----------------------------------------------------------------------

class TestPlanCache:
    def test_bottom_up_reuses_plans(self):
        cache = PlanCache()
        program = ancestor_program()
        db = chain_database(6)
        first = evaluate(program, db, plan_cache=cache)
        second = evaluate(program, db, plan_cache=cache)
        assert first.stats.plan_cache_misses == 1
        assert first.stats.plan_cache_hits == 0
        assert second.stats.plan_cache_hits == 1
        assert second.stats.plan_cache_misses == 0
        assert second.database.tuples("anc") == first.database.tuples("anc")

    def test_qsq_reuses_plans(self):
        cache = PlanCache()
        adorned = adorn_program(ancestor_program(), ancestor_query("n0"))
        db = chain_database(6)
        first = qsq_evaluate(
            adorned.program, db, adorned.query_literal, plan_cache=cache
        )
        second = qsq_evaluate(
            adorned.program, db, adorned.query_literal, plan_cache=cache
        )
        assert first.stats.plan_cache_misses == 1
        assert second.stats.plan_cache_hits == 1
        assert cache.hits == 1 and cache.misses == 1
        assert second.answers == first.answers

    def test_structural_identity_shares_entries(self):
        # two parses of the same source hash equal -> one compilation
        cache = PlanCache()
        source = "anc(X, Y) :- par(X, Y). anc(X, Y) :- par(X, Z), anc(Z, Y)."
        p1 = parse_program(source).program
        p2 = parse_program(source).program
        assert p1 is not p2
        db = chain_database(4)
        evaluate(p1, db, plan_cache=cache)
        second = evaluate(p2, db, plan_cache=cache)
        assert second.stats.plan_cache_hits == 1

    def test_kinds_do_not_collide(self):
        cache = PlanCache()
        adorned = adorn_program(ancestor_program(), ancestor_query("n0"))
        db = chain_database(4)
        qsq_evaluate(
            adorned.program, db, adorned.query_literal, plan_cache=cache
        )
        result = evaluate(
            adorned.program, db, plan_cache=cache
        )
        # same program, different compilation kind: a miss, not a hit
        assert result.stats.plan_cache_misses == 1
        assert len(cache) == 2

    def test_eviction_bound(self):
        cache = PlanCache(maxsize=2)
        programs = [
            parse_program(f"p{i}(X) :- e(X).").program for i in range(4)
        ]
        for program in programs:
            subquery_program_for(program, cache)
        assert len(cache) == 2
        # least recently used entries were evicted: recompiling the
        # first program misses again
        _, hit = subquery_program_for(programs[0], cache)
        assert not hit

    def test_shared_cache_is_default(self):
        from repro import shared_plan_cache

        program = parse_program("zz_unique(X) :- e(X).").program
        db = Database()
        db.add_values("e", [("a",)])
        cache = shared_plan_cache()
        first = evaluate(program, db)
        second = evaluate(program, db)
        assert first.stats.plan_cache_hits + first.stats.plan_cache_misses == 1
        assert second.stats.plan_cache_hits == 1


# ----------------------------------------------------------------------
# semi-naive delta probes
# ----------------------------------------------------------------------

class TestDeltaProbes:
    def test_constant_carrying_delta_literal(self):
        program = parse_program(
            """
            r(X) :- s(X).
            r(X) :- r(a), t(X).
            """
        ).program
        db = Database()
        db.add_values("s", [("a",), ("b",)])
        db.add_values("t", [("c",), ("d",)])
        planned = evaluate(program, db)
        assert planned.database.tuples("r") == oracle_facts(program, db)["r"]
        assert planned.database.tuples("r") == {
            (c("a"),), (c("b",),), (c("c"),), (c("d"),),
        }

    def test_variable_only_delta_literals(self):
        # anc(X,Z) :- anc(X,Y), anc(Y,Z): both body literals take the
        # delta in turn, and neither carries a constant to probe on
        program = nonlinear_ancestor_program()
        db = cycle_database(6)
        planned = evaluate(program, db)
        assert planned.database.tuples("anc") == oracle_facts(program, db)["anc"]
        assert len(planned.database.tuples("anc")) == 36


# ----------------------------------------------------------------------
# Relation.add_many bulk path
# ----------------------------------------------------------------------

class TestAddManyBulk:
    @staticmethod
    def bucket(rel, position, value):
        """The rows the index bucket of ``value`` lists, repeats kept."""
        key = term_catalog().id_of(value)
        return [rel.term_row(s) for s in rel.lookup_ids((position,), key)]

    def rows(self, n, offset=0):
        return [(c(i + offset), c(i + offset + 1)) for i in range(n)]

    def test_counts_and_dedup(self):
        rel = Relation("e")
        assert rel.add_many(self.rows(10)) == 10
        # 5 duplicates, 5 new
        assert rel.add_many(self.rows(10, offset=5)) == 5
        assert len(rel) == 15

    def test_intra_batch_duplicates(self):
        rel = Relation("e")
        assert rel.add_many(self.rows(3) + self.rows(3)) == 3

    def test_validation_before_mutation(self):
        rel = Relation("e")
        rel.add_many(self.rows(3))
        bad = self.rows(2) + [(c(99),)]  # arity mismatch at the end
        with pytest.raises(ValueError):
            rel.add_many(bad)
        # the bulk path validates up front: nothing from the batch landed
        assert len(rel) == 3
        with pytest.raises(ValueError):
            rel.add_many([(Variable("X"), c(1))])
        assert len(rel) == 3

    def test_index_consistency_small_batch(self):
        rel = Relation("e")
        rel.add_many(self.rows(40))
        rel.register_index((0,))
        rel.add_many(self.rows(5, offset=100))
        assert self.bucket(rel, 0, c(100)) == [(c(100), c(101))]
        assert self.bucket(rel, 0, c(3)) == [(c(3), c(4))]

    def test_index_consistency_dominating_batch(self):
        rel = Relation("e")
        rel.add_many(self.rows(3))
        rel.register_index((1,))
        rel.add_many(self.rows(50, offset=200))
        assert self.bucket(rel, 1, c(201)) == [(c(200), c(201))]
        assert self.bucket(rel, 1, c(1)) == [(c(0), c(1))]
        # no duplicated bucket entries for pre-existing rows
        assert sum(len(self.bucket(rel, 1, c(i + 1))) for i in range(3)) == 3
        # overlapping re-insert leaves buckets duplicate-free
        rel.add_many(self.rows(50, offset=200))
        assert self.bucket(rel, 1, c(201)) == [(c(200), c(201))]

    def test_empty_batch(self):
        rel = Relation("e")
        assert rel.add_many([]) == 0


# ----------------------------------------------------------------------
# QSQ answers: Database.answers over the result's F relation
# ----------------------------------------------------------------------

class TestQueryAnswers:
    def test_indexed_filter_matches_generic(self):
        program, query = ancestor_program(), ancestor_query("n0")
        db = chain_database(8)
        adorned, result = run_qsq(program, query, db)
        answers = result.database.answers(adorned.query_literal)
        generic = reference_scan(
            result.answers["anc^bf"], adorned.query_literal
        )
        assert answers == generic
        assert answers == reference_scan(
            oracle_facts(program, db)["anc"], query.literal
        )

    def test_repeated_variable_falls_back(self):
        # Query rejects a repeated variable, so the literal is built by
        # hand; Relation.matching filters the index's rows residually
        program = ancestor_program()
        db = cycle_database(3)
        adorned, result = run_qsq(program, parse_query("anc(X, Y)?"), db)
        x = Variable("X")
        literal = Literal("anc", (x, x), "ff")
        assert literal.pred_key == adorned.query_literal.pred_key
        nodes = [c(f"n{i}") for i in range(3)]
        assert result.database.answers(literal) == {(n, n) for n in nodes}

    def test_no_answers(self):
        db = chain_database(3)
        adorned, result = run_qsq(ancestor_program(), ancestor_query("n3"), db)
        assert result.database.answers(adorned.query_literal) == set()
        assert result.answers == {}
        assert result.queries["anc^bf"] == {(c("n3"),)}
        literal = Literal("p", (Variable("X"),), "f")
        assert result.database.answers(literal) == set()
