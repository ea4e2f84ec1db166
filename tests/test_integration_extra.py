"""Additional cross-module integration tests.

Covers combinations the per-module suites leave out: counting on
multi-predicate programs with acyclic data, structural-mode semijoin,
reverse-direction queries through greedy sips, and GSC + semijoin
evaluated dynamically.
"""

import pytest

from repro import (
    Database,
    QueryOptions,
    answer_query,
    bottom_up_answer,
    evaluate,
    parse_program,
    parse_query,
    rewrite,
    semijoin_optimize,
)
from repro.core.sips import build_full_sip, greedy_order, sip_builder_with_order
from repro.workloads import (
    ancestor_program,
    chain_database,
    load_edges,
    nested_samegen_program,
    nonlinear_samegen_program,
    samegen_database,
    samegen_query,
    tree_edges,
)


def acyclic_nested_database(width=6):
    """Nested same-generation data whose derived relations are acyclic.

    ``up``/``down`` connect layer 0 to layer 1 index-preserving; ``flat``
    edges move strictly rightward inside layer 1, so every derived
    ``sg``/``p`` pair strictly increases the index: no cycles, and the
    counting methods terminate.
    """
    db = Database()
    up = [(f"a{i}", f"b{i}") for i in range(width)]
    down = [(f"b{i}", f"a{i}") for i in range(width)]
    flat = [
        (f"b{i}", f"b{j}")
        for i in range(width)
        for j in range(i + 1, min(i + 3, width))
    ]
    b1 = [(f"a{i}", f"a{i + 1}") for i in range(width - 1)]
    b2 = [(f"a{i}", f"a{min(i + 1, width - 1)}") for i in range(width)]
    db.add_values("up", up)
    db.add_values("down", down)
    db.add_values("flat", flat)
    db.add_values("b1", b1)
    db.add_values("b2", b2)
    return db


class TestCountingOnMultiPredicatePrograms:
    @pytest.mark.parametrize(
        "method", ["counting", "supplementary_counting"]
    )
    @pytest.mark.parametrize("mode", ["numeric", "structural"])
    def test_nested_samegen_acyclic_data(self, method, mode):
        program = nested_samegen_program()
        query = parse_query('p("a0", Y)?')
        db = acyclic_nested_database()
        baseline = bottom_up_answer(program, db, query)
        answer = answer_query(
            program,
            db,
            query,
            QueryOptions(method=method, mode=mode, max_iterations=500),
        )
        assert answer.answers == baseline.answers

    @pytest.mark.parametrize("mode", ["numeric", "structural"])
    def test_semijoin_on_nested_acyclic_data(self, mode):
        program = nested_samegen_program()
        query = parse_query('p("a0", Y)?')
        db = acyclic_nested_database()
        plain = rewrite(program, query, method="counting", mode=mode)
        optimized = semijoin_optimize(plain)
        plain_res = evaluate(
            plain.program, plain.seeded_database(db), max_iterations=500
        )
        opt_res = evaluate(
            optimized.program,
            optimized.seeded_database(db),
            max_iterations=500,
        )
        assert plain.extract_answers(plain_res) == optimized.extract_answers(
            opt_res
        )


class TestStructuralSemijoin:
    def test_structural_indices_drop_bound_columns_too(self):
        program = ancestor_program()
        query = parse_query("anc(n0, Y)?")
        plain = rewrite(program, query, method="counting", mode="structural")
        optimized = semijoin_optimize(plain)
        db = chain_database(10)
        plain_res = evaluate(plain.program, plain.seeded_database(db))
        opt_res = evaluate(optimized.program, optimized.seeded_database(db))
        assert plain.extract_answers(plain_res) == optimized.extract_answers(
            opt_res
        )
        plain_width = len(next(iter(plain_res.database.tuples("anc_ix_bf"))))
        opt_width = len(next(iter(opt_res.database.tuples("anc_ix_bf"))))
        assert opt_width == plain_width - 1  # the bound column is gone

    def test_gsc_semijoin_on_nonlinear_samegen(self):
        program = nonlinear_samegen_program()
        query = samegen_query("L0_0")
        db = samegen_database(3, 4, flat_edges=6)
        plain = rewrite(program, query, method="supplementary_counting")
        optimized = semijoin_optimize(plain)
        plain_res = evaluate(
            plain.program, plain.seeded_database(db), max_iterations=500
        )
        opt_res = evaluate(
            optimized.program,
            optimized.seeded_database(db),
            max_iterations=500,
        )
        assert plain.extract_answers(plain_res) == optimized.extract_answers(
            opt_res
        )


class TestReverseDirectionQueries:
    def test_fb_query_with_greedy_sip(self):
        """anc(X, constant)? answered by inverting the join order."""
        program = ancestor_program()
        db = load_edges(tree_edges(5, fanout=2))
        query = parse_query('anc(X, "r.0.0.0.0")?')
        baseline = bottom_up_answer(program, db, query)
        builder = sip_builder_with_order(build_full_sip, greedy_order)
        answer = answer_query(
            program,
            db,
            query,
            QueryOptions(method="magic"),
            sip_builder=builder,
        )
        assert answer.answers == baseline.answers
        # the inverted traversal touches only the ancestors of the leaf
        assert answer.stats.facts_derived < baseline.stats.facts_derived

    @pytest.mark.parametrize("method", ["magic", "supplementary_magic"])
    def test_fb_query_magic_methods(self, method):
        program = ancestor_program()
        db = load_edges(tree_edges(4, fanout=2))
        query = parse_query('anc(X, "r.0.0.0")?')
        baseline = bottom_up_answer(program, db, query)
        builder = sip_builder_with_order(build_full_sip, greedy_order)
        answer = answer_query(
            program,
            db,
            query,
            QueryOptions(method=method, max_iterations=300),
            sip_builder=builder,
        )
        assert answer.answers == baseline.answers

    def test_fb_query_counting_diverges_as_certified(self):
        """Under the inverted sip the recursive call re-passes the SAME
        bound constant: the argument graph has a self-loop, so counting
        diverges (Theorem 10.3) -- and the static analysis says so."""
        from repro import NonTerminationError, adorn_program, counting_safety

        program = ancestor_program()
        db = load_edges(tree_edges(4, fanout=2))
        query = parse_query('anc(X, "r.0.0.0")?')
        builder = sip_builder_with_order(build_full_sip, greedy_order)
        adorned = adorn_program(program, query, sip_builder=builder)
        assert counting_safety(adorned).safe is False
        with pytest.raises(NonTerminationError):
            answer_query(
                program,
                db,
                query,
                QueryOptions(method="counting", max_iterations=200),
                sip_builder=builder,
            )


class TestMutualRecursionThroughRewrites:
    PROGRAM = """
    reach_even(X, Y) :- edge(X, Y), edge(Y, Y2), eq2(Y, Y2).
    reach_even(X, Y) :- reach_odd(X, Z), edge(Z, Y).
    reach_odd(X, Y) :- edge(X, Y).
    reach_odd(X, Y) :- reach_even(X, Z), edge(Z, Y).
    """

    def database(self):
        db = Database()
        edges = [(f"m{i}", f"m{i + 1}") for i in range(8)]
        db.add_values("edge", edges)
        db.add_values("eq2", [(b, b) for _, b in edges])
        return db

    @pytest.mark.parametrize("method", ["magic", "supplementary_magic"])
    def test_mutually_recursive_predicates(self, method):
        program = parse_program(self.PROGRAM).program
        db = self.database()
        query = parse_query('reach_odd("m0", Y)?')
        baseline = bottom_up_answer(program, db, query)
        answer = answer_query(program, db, query, QueryOptions(method=method))
        assert answer.answers == baseline.answers
        # odd reachability from m0 on a chain: m1, m3, m5, m7
        names = {str(row[0]) for row in answer.answers}
        assert names == {"m1", "m3", "m5", "m7"}


class TestThreeAryAdornments:
    PROGRAM = """
    path(X, Y, L) :- edge(X, Y, L).
    path(X, Y, L) :- edge(X, Z, L), path(Z, Y, L).
    """

    def database(self):
        db = Database()
        db.add_values(
            "edge",
            [
                ("a", "b", "rail"),
                ("b", "c", "rail"),
                ("a", "c", "road"),
                ("c", "d", "road"),
            ],
        )
        return db

    @pytest.mark.parametrize(
        "query_text,expected",
        [
            ('path(a, Y, rail)?', {"b", "c"}),
            ('path(a, Y, road)?', {"c", "d"}),
        ],
    )
    @pytest.mark.parametrize("method", ["magic", "supplementary_magic"])
    def test_bfb_pattern(self, query_text, expected, method):
        program = parse_program(self.PROGRAM).program
        db = self.database()
        query = parse_query(query_text)
        answer = answer_query(program, db, query, QueryOptions(method=method))
        assert {str(row[0]) for row in answer.answers} == expected

    def test_bfb_adornment_created(self):
        from repro import adorn_program

        program = parse_program(self.PROGRAM).program
        adorned = adorn_program(program, parse_query("path(a, Y, rail)?"))
        assert "path^bfb" in adorned.adorned_predicates()
