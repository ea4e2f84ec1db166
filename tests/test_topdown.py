"""The QSQ evaluator -- the reference sip strategy (Section 9's oracle)."""

import pytest

from repro import (
    EvaluationBudget,
    EvaluationError,
    NonTerminationError,
    Program,
    QueryOptions,
    adorn_program,
    answer_query,
    build_chain_sip,
    build_full_sip,
    parse_query,
    qsq_evaluate,
)
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
from repro.datalog.database import Database, Relation
from repro.datalog.planner import subquery_relation


def run_qsq(program, query, db, **kwargs):
    adorned = adorn_program(program, query)
    result = qsq_evaluate(
        adorned.program, db, adorned.query_literal, **kwargs
    )
    return adorned, result


def seminaive_answers(program, db, query):
    options = QueryOptions(method="seminaive")
    return answer_query(program, db, query, options).rows


class TestAnswers:
    def test_ancestor_chain(self):
        db = chain_database(8)
        adorned, result = run_qsq(ancestor_program(), ancestor_query("n0"), db)
        expected = seminaive_answers(ancestor_program(), db, ancestor_query("n0"))
        assert result.database.answers(adorned.query_literal) == expected

    def test_ancestor_cycle_terminates(self):
        db = cycle_database(5)
        adorned, result = run_qsq(ancestor_program(), ancestor_query("n0"), db)
        assert len(result.database.answers(adorned.query_literal)) == 5

    def test_nonlinear_ancestor(self):
        db = random_dag_database(20, 0.15, seed=1)
        q = ancestor_query("n0")
        adorned, result = run_qsq(nonlinear_ancestor_program(), q, db)
        expected = seminaive_answers(nonlinear_ancestor_program(), db, q)
        assert result.database.answers(adorned.query_literal) == expected

    def test_nonlinear_samegen(self):
        db = samegen_database(3, 4, flat_edges=6)
        q = samegen_query("l0_0")
        adorned, result = run_qsq(nonlinear_samegen_program(), q, db)
        expected = seminaive_answers(nonlinear_samegen_program(), db, q)
        assert result.database.answers(adorned.query_literal) == expected

    def test_list_reverse(self):
        q = reverse_query(integer_list(4))
        adorned, result = run_qsq(list_reverse_program(), q, Database())
        answers = result.database.answers(adorned.query_literal)
        assert len(answers) == 1
        assert str(next(iter(answers))[0]) == "[3, 2, 1, 0]"


def _append_program():
    """The two ``append`` rules of list reverse, on their own."""
    return Program(list_reverse_program().rules[:2])


class TestNonGroundAnswers:
    """An answer row with an unbound head variable raises, under QSQ as
    under every bottom-up route -- it is never dropped in silence."""

    CASES = [
        pytest.param(
            list_reverse_program, lambda: reverse_query(
                constant_list([1, 2, 3])
            ), build_chain_sip, id="reverse-chain-sip",
        ),
        pytest.param(
            _append_program, lambda: parse_query("append(X, Y, Z)?"),
            build_full_sip, id="append-fff",
        ),
        pytest.param(
            _append_program, lambda: parse_query("append(a, Y, Z)?"),
            build_full_sip, id="append-bff",
        ),
    ]

    @pytest.mark.parametrize("method", ["qsq", "magic"])
    @pytest.mark.parametrize("make_program,make_query,sip_builder", CASES)
    def test_raises(self, method, make_program, make_query, sip_builder):
        with pytest.raises(EvaluationError, match="non-ground head"):
            answer_query(
                make_program(), Database(), make_query(),
                QueryOptions(method=method), sip_builder=sip_builder,
            )


class TestQueriesGenerated:
    def test_magic_set_shape_on_chain(self):
        """Q for anc^bf on a chain from n0 is exactly the reachable
        nodes -- the magic set."""
        db = chain_database(6)
        adorned, result = run_qsq(ancestor_program(), ancestor_query("n0"), db)
        queries = result.queries["anc^bf"]
        names = {str(row[0]) for row in queries}
        assert names == {f"n{i}" for i in range(7)}

    def test_subquery_counter(self):
        db = chain_database(4)
        _, result = run_qsq(ancestor_program(), ancestor_query("n0"), db)
        queries = result.queries.values()
        assert result.subqueries_generated == sum(map(len, queries))

    def test_q_and_f_are_relations_of_the_result_database(self):
        db = chain_database(4)
        adorned, result = run_qsq(ancestor_program(), ancestor_query("n0"), db)
        key = adorned.query_literal.pred_key
        assert key in result.predicates
        inputs = result.database.get(subquery_relation(key))
        answers = result.database.get(key)
        assert isinstance(inputs, Relation) and isinstance(answers, Relation)
        assert set(inputs) == result.queries[key]
        assert set(answers) == result.answers[key]
        assert result.subqueries_generated == sum(
            len(result.database.get(subquery_relation(pred)))
            for pred in result.predicates
        )
        # Q and F live in the evaluation's snapshot, not the caller's db
        assert db.get(key) is None


class TestBudgets:
    def test_iteration_budget(self):
        from repro import parse_program, parse_query

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
                adorned.program,
                db,
                adorned.query_literal,
                meter=EvaluationBudget(max_iterations=20).start(),
            )

    def test_unknown_query_predicate(self):
        from repro import Literal, Constant

        adorned = adorn_program(ancestor_program(), ancestor_query("a"))
        with pytest.raises(EvaluationError):
            qsq_evaluate(
                adorned.program,
                Database(),
                Literal("nope", (Constant("a"),), "b"),
            )
