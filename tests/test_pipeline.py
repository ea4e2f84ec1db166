"""End-to-end pipeline tests: every method on every example program
(integration layer for experiments E6 and E10)."""

import pytest

from repro import (
    Database,
    QueryOptions,
    Session,
    answer_query,
    bottom_up_answer,
)
from repro.workloads import (
    ancestor_program,
    ancestor_query,
    chain_database,
    cycle_database,
    integer_list,
    list_reverse_program,
    nested_samegen_database,
    nested_samegen_program,
    nested_samegen_query,
    nonlinear_ancestor_program,
    nonlinear_samegen_program,
    random_dag_database,
    reverse_query,
    samegen_database,
    samegen_query,
    tree_database,
)

ALL_METHODS = (
    "magic",
    "supplementary_magic",
    "counting",
    "supplementary_counting",
    "qsq",
)
MAGIC_METHODS = ("magic", "supplementary_magic", "qsq")


class TestAncestor:
    @pytest.mark.parametrize("method", ALL_METHODS)
    @pytest.mark.parametrize(
        "db_maker,root",
        [
            (lambda: chain_database(12), "n0"),
            (lambda: tree_database(4), "r"),
            (lambda: random_dag_database(30, 0.12, seed=7), "n3"),
        ],
    )
    def test_matches_naive(self, method, db_maker, root):
        program = ancestor_program()
        query = ancestor_query(root)
        db = db_maker()
        baseline = bottom_up_answer(program, db, query)
        answer = answer_query(program, db, query, QueryOptions(method=method))
        assert answer.answers == baseline.answers

    @pytest.mark.parametrize("method", MAGIC_METHODS)
    def test_cyclic_data(self, method):
        program = ancestor_program()
        query = ancestor_query("n0")
        db = cycle_database(6)
        baseline = bottom_up_answer(program, db, query)
        answer = answer_query(program, db, query, QueryOptions(method=method))
        assert answer.answers == baseline.answers

    def test_unreachable_root_empty(self):
        program = ancestor_program()
        db = chain_database(5)
        answer = answer_query(program, db, ancestor_query("zzz"))
        assert answer.answers == set()

    def test_fully_bound_query(self):
        from repro import parse_query

        program = ancestor_program()
        db = chain_database(5)
        yes = answer_query(program, db, parse_query("anc(n0, n4)?"))
        no = answer_query(program, db, parse_query("anc(n4, n0)?"))
        assert yes.answers == {()}
        assert no.answers == set()


class TestNonlinearAncestor:
    @pytest.mark.parametrize("method", MAGIC_METHODS)
    def test_matches_naive(self, method):
        program = nonlinear_ancestor_program()
        query = ancestor_query("n0")
        db = random_dag_database(20, 0.15, seed=5)
        baseline = bottom_up_answer(program, db, query)
        answer = answer_query(program, db, query, QueryOptions(method=method))
        assert answer.answers == baseline.answers


class TestSameGeneration:
    @pytest.mark.parametrize("method", ALL_METHODS)
    def test_nonlinear(self, method):
        program = nonlinear_samegen_program()
        query = samegen_query("L0_1")
        db = samegen_database(3, 5, flat_edges=8, seed=4)
        baseline = bottom_up_answer(program, db, query)
        answer = answer_query(
            program, db, query, QueryOptions(method=method, max_iterations=800)
        )
        assert answer.answers == baseline.answers

    @pytest.mark.parametrize("method", MAGIC_METHODS)
    def test_nested(self, method):
        program = nested_samegen_program()
        query = nested_samegen_query("L0_0")
        db = nested_samegen_database(3, 4)
        baseline = bottom_up_answer(program, db, query)
        answer = answer_query(program, db, query, QueryOptions(method=method))
        assert answer.answers == baseline.answers


class TestListReverse:
    @pytest.mark.parametrize(
        "method",
        (
            "magic",
            "supplementary_magic",
            "counting",
            "supplementary_counting",
            "qsq",
        ),
    )
    @pytest.mark.parametrize("length", [0, 1, 5])
    def test_reverses(self, method, length):
        program = list_reverse_program()
        query = reverse_query(integer_list(length))
        answer = answer_query(
            program,
            Database(),
            query,
            QueryOptions(method=method, max_iterations=300),
        )
        assert len(answer.answers) == 1
        reversed_term = next(iter(answer.answers))[0]
        expected = "[" + ", ".join(
            str(i) for i in reversed(range(length))
        ) + "]"
        assert str(reversed_term) == expected


class TestFactCounts:
    def test_magic_restricts_computation(self):
        """The Section 1 claim: bottom-up computes the whole relation,
        magic only the reachable part."""
        program = ancestor_program()
        db = tree_database(5)  # 63 internal/leaf nodes
        query = ancestor_query("r.0.0")  # a grandchild of the root
        naive = bottom_up_answer(program, db, query, engine="naive")
        magic = answer_query(program, db, query, QueryOptions(method="magic"))
        assert magic.answers == naive.answers
        assert (
            magic.stats.facts_derived < naive.stats.facts_derived
        ), "magic must derive strictly fewer facts on a selective query"

    def test_magic_fact_overhead_is_modest(self):
        """Section 9's discussion: magic facts are a small fraction of
        the generated facts."""
        program = ancestor_program()
        db = chain_database(40)
        query = ancestor_query("n0")
        answer = answer_query(program, db, query, QueryOptions(method="magic"))
        breakdown = answer.rewritten.fact_breakdown(answer.evaluation)
        assert breakdown["magic"] <= breakdown["adorned"] + 1

    def test_values_helper(self):
        program = ancestor_program()
        db = chain_database(3)
        answer = answer_query(program, db, ancestor_query("n0"))
        assert answer.values() == {("n1",), ("n2",), ("n3",)}

    def test_stats_attached(self):
        program = ancestor_program()
        db = chain_database(3)
        answer = answer_query(program, db, ancestor_query("n0"))
        assert answer.stats is not None
        assert answer.rewritten is not None
        assert len(answer) == 3


class TestDispatch:
    def test_unknown_method(self):
        with pytest.raises(ValueError):
            answer_query(
                ancestor_program(),
                chain_database(2),
                ancestor_query("n0"),
                QueryOptions(method="sorcery"),
            )

    def test_naive_and_seminaive_baselines(self):
        program = ancestor_program()
        db = chain_database(6)
        query = ancestor_query("n0")
        naive = answer_query(program, db, query, QueryOptions(method="naive"))
        semi = answer_query(
            program, db, query, QueryOptions(method="seminaive")
        )
        assert naive.answers == semi.answers


class TestPartiallyBoundStructuredArgument:
    """``has(p(a,N), I)?``: the argument ``p(a,N)`` is not ground, so it
    is free for adornment and selects nothing -- the answer relation
    holds every ``has`` fact the cone reaches, and extraction has to
    match the pattern itself."""

    SOURCE = """
        owns(p(a,1), x). owns(p(b,1), z).
        has(P, I) :- owns(P, I).
    """

    @pytest.mark.parametrize(
        "method,semijoin",
        [(method, False) for method in ("auto", "seminaive") + ALL_METHODS]
        + [("counting", True), ("supplementary_counting", True)],
    )
    def test_every_method_matches_the_pattern(self, method, semijoin):
        session = Session(self.SOURCE)
        result = session.query(
            "has(p(a,N), I)?", method=method, semijoin=semijoin
        )
        assert {tuple(map(str, row)) for row in result.rows} == {
            ("p(a, 1)", "x")
        }

    def test_a_materialized_view_agrees(self):
        session = Session(self.SOURCE)
        session.materialize("has")
        result = session.query("has(p(a,N), I)?")
        assert result.maintained
        assert {tuple(map(str, row)) for row in result.rows} == {
            ("p(a, 1)", "x")
        }

    def test_repeated_variable_inside_the_pattern(self):
        session = Session(
            "owns(p(a,a), x). owns(p(a,b), y). has(P, I) :- owns(P, I)."
        )
        for method in ("auto", "counting", "seminaive", "qsq"):
            result = session.query("has(p(N,N), I)?", method=method)
            assert {tuple(map(str, row)) for row in result.rows} == {
                ("p(a, a)", "x")
            }, method
