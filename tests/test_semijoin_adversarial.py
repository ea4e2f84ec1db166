"""Adversarial semijoin cases: programs where the optimization must NOT
fire (or must fire only partially), because bound arguments do real work.

Theorem 8.3's conditions are easy to satisfy accidentally; these tests
pin down the refusal cases and check answers stay correct either way.
"""

import pytest

from repro import (
    Database,
    EvaluationBudget,
    QueryOptions,
    answer_query,
    evaluate,
    parse_program,
    parse_query,
    rewrite,
    semijoin_optimize,
)

from conftest import canonical_rules


def run_both(program, query, db, max_iterations=400):
    plain = rewrite(program, query, method="counting")
    optimized = semijoin_optimize(plain)
    plain_res = evaluate(
        plain.program,
        plain.seeded_database(db),
        meter=EvaluationBudget(max_iterations=max_iterations).start(),
    )
    opt_res = evaluate(
        optimized.program,
        optimized.seeded_database(db),
        meter=EvaluationBudget(max_iterations=max_iterations).start(),
    )
    return plain, optimized, plain_res, opt_res


class TestBoundArgumentDoesRealWork:
    def test_bound_arg_joined_with_base_literal_not_dropped(self):
        """The recursive call's bound argument is re-used by a later base
        literal (a filter): dropping it would change answers."""
        program = parse_program(
            """
            t(X, Y) :- e(X, Y).
            t(X, Y) :- e(X, Z), t(Z, Y), ok(Z).
            """
        ).program
        query = parse_query("t(a, Y)?")
        db = Database()
        db.add_values("e", [("a", "b"), ("b", "c"), ("c", "d")])
        db.add_values("ok", [("b",), ("c",)])
        plain, optimized, plain_res, opt_res = run_both(program, query, db)

        # the occurrence t(Z, Y) has Z also in ok(Z), which is NOT in the
        # arc tail feeding t -- the bound column must survive
        t_rules = [
            r for r in canonical_rules(optimized) if r.startswith("t_ix_bf")
        ]
        assert any("ok(" in r for r in t_rules)
        assert plain.extract_answers(plain_res) == optimized.extract_answers(
            opt_res
        )
        baseline = answer_query(program, db, query, QueryOptions(method="seminaive"))
        assert optimized.extract_answers(opt_res) == baseline.rows

    def test_bound_arg_in_head_free_position_not_dropped(self):
        """The recursive call's bound variable also feeds a FREE position
        of the head: dropping the column would lose the value."""
        program = parse_program(
            """
            walk(X, Y, T) :- e(X, Y), tag(X, T).
            walk(X, Y, T) :- e(X, Z), walk(Z, Y, T2), combine(T2, T).
            """
        ).program
        query = parse_query("walk(a, Y, T)?")
        db = Database()
        db.add_values("e", [("a", "b"), ("b", "c")])
        db.add_values("tag", [("a", "t0"), ("b", "t1"), ("c", "t2")])
        db.add_values(
            "combine", [("t1", "u1"), ("t2", "u2"), ("u2", "v2")]
        )
        plain, optimized, plain_res, opt_res = run_both(program, query, db)
        assert plain.extract_answers(plain_res) == optimized.extract_answers(
            opt_res
        )
        baseline = answer_query(program, db, query, QueryOptions(method="seminaive"))
        assert optimized.extract_answers(opt_res) == baseline.rows

    def test_shared_bound_variable_across_two_recursive_calls(self):
        """Two recursive occurrences share a bound variable: neither side
        may drop it unilaterally; the optimizer must stay sound."""
        program = parse_program(
            """
            s(X, Y) :- base(X, Y).
            s(X, Y) :- e(X, Z), s(Z, W), s(Z, Y), small(W).
            """
        ).program
        query = parse_query("s(a, Y)?")
        db = Database()
        db.add_values("base", [("b", "y1"), ("c", "y2")])
        db.add_values("e", [("a", "b"), ("b", "c")])
        db.add_values("small", [("y1",), ("y2",)])
        plain, optimized, plain_res, opt_res = run_both(program, query, db)
        assert plain.extract_answers(plain_res) == optimized.extract_answers(
            opt_res
        )


class TestListReverseStaysIntact:
    def test_no_rule_changes(self):
        """V rides from the magic set through append's data columns:
        every bound argument supports a real join, nothing may fire."""
        from repro.workloads import (
            integer_list,
            list_reverse_program,
            reverse_query,
        )

        plain = rewrite(
            list_reverse_program(),
            reverse_query(integer_list(3)),
            method="counting",
        )
        optimized = semijoin_optimize(plain)
        assert canonical_rules(optimized) == canonical_rules(plain)


class TestPartialFiring:
    def test_one_predicate_drops_the_other_keeps(self):
        """Two recursive predicates, only one satisfies Theorem 8.3:
        the optimizer drops columns for it alone."""
        program = parse_program(
            """
            clean(X, Y) :- e(X, Y).
            clean(X, Y) :- e(X, Z), clean(Z, Y).
            dirty(X, Y) :- e(X, Y).
            dirty(X, Y) :- e(X, Z), dirty(Z, Y), mark(Z).
            top(X, Y) :- clean(X, W), dirty(W, Y).
            """
        ).program
        query = parse_query("top(a, Y)?")
        db = Database()
        db.add_values(
            "e", [("a", "b"), ("b", "c"), ("c", "d"), ("d", "e1")]
        )
        db.add_values("mark", [("b",), ("c",), ("d",)])
        plain = rewrite(program, query, method="counting")
        optimized = semijoin_optimize(plain)

        widths = {}
        for rr in optimized.rules:
            head = rr.rule.head
            if head.pred.endswith("_ix_bf"):
                widths[head.pred] = len(head.args)
        # clean keeps no bound column (index walk), dirty keeps its
        # bound column (mark(Z) uses it)
        assert widths["clean_ix_bf"] < widths["dirty_ix_bf"]

        plain_res = evaluate(
            plain.program,
            plain.seeded_database(db),
            meter=EvaluationBudget(max_iterations=400).start(),
        )
        opt_res = evaluate(
            optimized.program,
            optimized.seeded_database(db),
            meter=EvaluationBudget(max_iterations=400).start(),
        )
        assert plain.extract_answers(plain_res) == optimized.extract_answers(
            opt_res
        )
        baseline = answer_query(program, db, query, QueryOptions(method="seminaive"))
        assert optimized.extract_answers(opt_res) == baseline.rows


class TestSemijoinPreservesDivergenceBehaviour:
    def test_optimized_program_still_diverges_on_cycles(self):
        """The optimization must not accidentally 'fix' counting's
        divergence on cyclic data (the indices still grow)."""
        from repro import NonTerminationError
        from repro.workloads import (
            ancestor_program,
            ancestor_query,
            cycle_database,
        )

        optimized = semijoin_optimize(
            rewrite(ancestor_program(), ancestor_query("n0"), "counting")
        )
        with pytest.raises(NonTerminationError):
            evaluate(
                optimized.program,
                optimized.seeded_database(cycle_database(4)),
                meter=EvaluationBudget(max_iterations=150).start(),
            )
