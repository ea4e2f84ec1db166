"""Unit tests for bottom-up evaluation (repro.datalog.engine)."""

import pytest

from repro import (
    Constant,
    Database,
    EvaluationError,
    Literal,
    NonTerminationError,
    Program,
    QueryOptions,
    Rule,
    Variable,
    answer_query,
    answer_tuples,
    evaluate,
    evaluate_naive,
    evaluate_seminaive,
    parse_program,
    parse_query,
)
from repro.workloads import chain_database, cycle_database


def ancestor():
    return parse_program(
        """
        anc(X, Y) :- par(X, Y).
        anc(X, Y) :- par(X, Z), anc(Z, Y).
        """
    ).program


def c(value):
    return Constant(value)


class TestNaive:
    def test_transitive_closure_on_chain(self):
        result = evaluate_naive(ancestor(), chain_database(4))
        # 4-edge chain: C(5,2) = 10 ancestor pairs
        assert len(result.derived_tuples("anc")) == 10

    def test_cycle_terminates_for_datalog(self):
        result = evaluate_naive(ancestor(), cycle_database(4))
        assert len(result.derived_tuples("anc")) == 16

    def test_stats_counted(self):
        result = evaluate_naive(ancestor(), chain_database(4))
        assert result.stats.facts_derived == 10
        assert result.stats.rule_firings >= 10
        assert result.stats.iterations >= 2
        assert result.stats.facts_by_predicate == {"anc": 10}

    def test_original_database_untouched(self):
        db = chain_database(3)
        evaluate_naive(ancestor(), db)
        assert "anc" not in db.predicate_keys()


class TestSemiNaive:
    @pytest.mark.parametrize("length", [6, 25])
    def test_agrees_with_naive_on_chain(self, length):
        db = chain_database(length)
        naive = evaluate_naive(ancestor(), db)
        semi = evaluate_seminaive(ancestor(), db)
        assert naive.derived_tuples("anc") == semi.derived_tuples("anc")
        assert naive.stats.facts_derived == semi.stats.facts_derived

    def test_agrees_with_naive_under_negation(self):
        program = parse_program(
            """
            anc(X, Y) :- par(X, Y).
            anc(X, Y) :- par(X, Z), anc(Z, Y).
            lonely(X) :- par(X, Y), not anc(Y, Y).
            """
        ).program
        naive = evaluate_naive(program, chain_database(12))
        semi = evaluate_seminaive(program, chain_database(12))
        assert semi.derived_tuples("lonely") == naive.derived_tuples("lonely")

    def test_agrees_with_naive_on_cycle(self):
        db = cycle_database(5)
        naive = evaluate_naive(ancestor(), db)
        semi = evaluate_seminaive(ancestor(), db)
        assert naive.derived_tuples("anc") == semi.derived_tuples("anc")

    def test_less_duplicate_work_than_naive(self):
        db = chain_database(12)
        naive = evaluate_naive(ancestor(), db)
        semi = evaluate_seminaive(ancestor(), db)
        assert semi.stats.rule_firings < naive.stats.rule_firings

    @pytest.mark.parametrize("length", [20, 40, 80])
    def test_fewer_firings_than_naive_through_answer_query(self, length):
        # naive re-fires every derivation each round; semi-naive once
        db = chain_database(length)
        query = parse_query("anc(n0, Y)?")
        firings = {
            method: answer_query(
                ancestor(), db, query, QueryOptions(method=method)
            ).stats.rule_firings
            for method in ("naive", "seminaive")
        }
        assert firings["seminaive"] < firings["naive"]

    def test_nonlinear_rules(self):
        program = parse_program(
            """
            anc(X, Y) :- par(X, Y).
            anc(X, Y) :- anc(X, Z), anc(Z, Y).
            """
        ).program
        db = chain_database(6)
        semi = evaluate_seminaive(program, db)
        naive = evaluate_naive(program, db)
        assert semi.derived_tuples("anc") == naive.derived_tuples("anc")

    def test_mutually_recursive_predicates(self):
        program = parse_program(
            """
            even(X, Y) :- edge(X, Y).
            even(X, Y) :- odd(X, Z), edge(Z, Y).
            odd(X, Y) :- even(X, Z), edge(Z, Y).
            """
        ).program
        from repro.workloads import chain_edges, load_edges

        db = load_edges(chain_edges(5), relation="edge")
        semi = evaluate_seminaive(program, db)
        naive = evaluate_naive(program, db)
        assert semi.derived_tuples("even") == naive.derived_tuples("even")
        assert semi.derived_tuples("odd") == naive.derived_tuples("odd")


class TestBudgets:
    def infinite_program(self):
        # s(X) grows a list forever: s([a]) -> s([a,a]) -> ...
        return parse_program(
            """
            s(X) :- seed(X).
            s([a | X]) :- s(X).
            """
        ).program

    def seed_db(self):
        db = Database()
        db.add_fact(Literal("seed", (Constant("[]"),)))
        return db

    def test_max_iterations(self):
        with pytest.raises(NonTerminationError) as excinfo:
            evaluate_seminaive(
                self.infinite_program(), self.seed_db(), max_iterations=10
            )
        assert excinfo.value.iterations is not None

    def test_max_facts(self):
        with pytest.raises(NonTerminationError):
            evaluate_seminaive(
                self.infinite_program(), self.seed_db(), max_facts=20
            )

    def test_naive_budgets_too(self):
        with pytest.raises(NonTerminationError):
            evaluate_naive(
                self.infinite_program(), self.seed_db(), max_iterations=10
            )


class TestRangeRestriction:
    def test_non_ground_head_raises(self):
        program = Program([Rule(Literal("p", (Variable("X"),)))])
        with pytest.raises(EvaluationError):
            evaluate_naive(program, Database())


class TestAnswerExtraction:
    def test_answer_tuples_select_and_project(self):
        db = chain_database(4)
        result = evaluate_seminaive(ancestor(), db)
        query = parse_query("anc(n0, Y)?")
        answers = answer_tuples(result, query.literal)
        assert answers == {(c(f"n{i}"),) for i in range(1, 5)}

    def test_fully_bound_query(self):
        db = chain_database(4)
        result = evaluate_seminaive(ancestor(), db)
        query = parse_query("anc(n0, n3)?")
        assert answer_tuples(result, query.literal) == {()}
        missing = parse_query("anc(n3, n0)?")
        assert answer_tuples(result, missing.literal) == set()


class TestDispatch:
    def test_evaluate_dispatch(self):
        db = chain_database(3)
        assert evaluate(ancestor(), db, method="naive").derived_fact_count() == 6
        assert evaluate(ancestor(), db, method="seminaive").derived_fact_count() == 6
        with pytest.raises(ValueError):
            evaluate(ancestor(), db, method="bogus")
