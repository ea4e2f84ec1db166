"""Stratified negation: parser, safety, engines, pipeline, CLI, property.

The correctness oracle throughout is the stratum-wise naive reference
evaluator in ``conftest`` (:func:`oracle_facts`): every engine
configuration must derive exactly the same relations.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    Database,
    Literal,
    Program,
    Query,
    QueryOptions,
    Rule,
    StratificationError,
    UnsafeNegationError,
    UnsupportedProgramError,
    Variable,
    adorn_program,
    answer_query,
    evaluate,
    parse_program,
    parse_query,
    parse_rule,
    qsq_evaluate,
    rewrite,
    unwrap_values,
)
from repro.cli import main
from repro.core.safety import check_safe_negation, negation_safety
from repro.workloads import bom_database, bom_program, bom_source

from conftest import assert_matches_oracle

#: (method, workers): serial and on a 2-thread pool
ENGINES = (
    ("naive", None),
    ("naive", 2),
    ("seminaive", None),
    ("seminaive", 2),
)


def run_engine(program, database, method, workers):
    return evaluate(program, database, method=method, workers=workers)


def prog(text: str) -> Program:
    return parse_program(text).program


def db(**relations) -> Database:
    database = Database()
    for name, rows in relations.items():
        database.add_values(
            name, [row if isinstance(row, tuple) else (row,) for row in rows]
        )
    return database


def all_engines_agree(program, database):
    """Evaluate on every engine config; assert each equals the oracle;
    return the first result."""
    results = [
        run_engine(program, database, method, workers)
        for method, workers in ENGINES
    ]
    for result in results:
        assert_matches_oracle(result, program, database)
    return results[0]


def values(result, pred):
    return unwrap_values(result.database.tuples(pred))


# ----------------------------------------------------------------------
# parser
# ----------------------------------------------------------------------

class TestParser:
    def test_not_keyword(self):
        rule = parse_rule("p(X) :- q(X), not r(X).")
        assert not rule.body[0].negated
        assert rule.body[1].negated
        assert rule.body[1].pred == "r"

    def test_prolog_naf_operator(self):
        rule = parse_rule("p(X) :- q(X), \\+ r(X).")
        assert rule.body[1].negated

    def test_str_roundtrip(self):
        rule = parse_rule("p(X) :- q(X), not r(X).")
        assert str(rule) == "p(X) :- q(X), not r(X)."
        assert parse_rule(str(rule)) == rule

    def test_not_as_predicate_name_with_args(self):
        # not(X) is a literal of the predicate `not`, not a negation
        rule = parse_rule("p(X) :- not(X).")
        assert rule.body[0].pred == "not"
        assert not rule.body[0].negated

    def test_double_not_is_predicate_then_negation(self):
        # `not not(X)` negates the predicate named `not`
        rule = parse_rule("p(X) :- e(X), not not(X).")
        assert rule.body[1].pred == "not"
        assert rule.body[1].negated

    def test_negated_head_rejected(self):
        with pytest.raises(ValueError):
            Rule(Literal("p", (Variable("X"),), negated=True), ())

    def test_negated_query_rejected(self):
        with pytest.raises(ValueError):
            Query(Literal("p", (Variable("X"),), negated=True))

    def test_negation_survives_substitution_and_adornment(self):
        literal = Literal("p", (Variable("X"),), negated=True)
        assert literal.substitute({Variable("X"): Variable("Y")}).negated
        assert literal.with_adornment("b").negated
        assert literal.as_positive() == Literal("p", (Variable("X"),))
        assert literal.as_positive().negate() == literal

    def test_program_has_negation(self):
        assert prog("p(X) :- e(X), not q(X).").has_negation()
        assert not prog("p(X) :- e(X), q(X).").has_negation()


# ----------------------------------------------------------------------
# safe negation
# ----------------------------------------------------------------------

class TestSafeNegation:
    def test_unbound_negated_variable_rejected(self):
        rule = parse_rule("p(X, Y) :- e(X), not r(X, Y).")
        with pytest.raises(UnsafeNegationError) as exc:
            check_safe_negation(rule)
        message = str(exc.value)
        assert "Y" in message
        assert "not r(X, Y)" in message
        assert "positive" in message  # the actionable hint
        assert exc.value.variables == (Variable("Y"),)

    def test_variable_only_under_negation_rejected(self):
        rule = parse_rule("p(X) :- e(X), not q(Z).")
        with pytest.raises(UnsafeNegationError):
            check_safe_negation(rule)

    def test_safe_rule_passes(self):
        check_safe_negation(parse_rule("p(X) :- e(X), not q(X)."))
        check_safe_negation(parse_rule("p :- e(X), not q(X)."))

    def test_negation_safety_report(self):
        good = negation_safety(prog("p(X) :- e(X), not q(X)."))
        assert good.safe is True
        bad = negation_safety(prog("p(X) :- e(X), not q(X, Y)."))
        assert bad.safe is False
        assert "Y" in bad.reason

    def test_engines_reject_unsafe_negation(self):
        program = prog("p(X, Y) :- e(X), not r(X, Y).")
        database = db(e=["a"])
        for method, workers in ENGINES:
            with pytest.raises(UnsafeNegationError):
                run_engine(program, database, method, workers)

    def test_engines_reject_unstratified(self):
        program = prog("win(X) :- move(X, Y), not win(Y).")
        database = db(move=[("a", "b")])
        for method, workers in ENGINES:
            with pytest.raises(StratificationError):
                run_engine(program, database, method, workers)


# ----------------------------------------------------------------------
# engine semantics
# ----------------------------------------------------------------------

class TestEngineSemantics:
    def test_set_difference_view(self):
        program = prog("only_s(X) :- s(X), not t(X).")
        database = db(s=["a", "b", "c"], t=["b"])
        oracle = all_engines_agree(program, database)
        assert values(oracle, "only_s") == {("a",), ("c",)}

    def test_missing_negated_relation_means_complement_of_empty(self):
        program = prog("p(X) :- s(X), not ghost(X).")
        database = db(s=["a", "b"])
        oracle = all_engines_agree(program, database)
        assert values(oracle, "p") == {("a",), ("b",)}

    def test_reachability_avoiding_nodes(self):
        program = prog(
            "safe_reach(X, Y) :- edge(X, Y), not bad(Y).\n"
            "safe_reach(X, Y) :- safe_reach(X, Z), edge(Z, Y), "
            "not bad(Y).\n"
        )
        database = db(
            edge=[("a", "b"), ("b", "c"), ("c", "d"), ("a", "x"),
                  ("x", "d")],
            bad=["x"],
        )
        oracle = all_engines_agree(program, database)
        reach = values(oracle, "safe_reach")
        assert ("a", "d") in reach  # via b, c
        assert ("a", "x") not in reach
        assert ("x", "d") in reach  # x may be a source, not a target

    def test_negation_over_derived_recursive_predicate(self):
        program = prog(
            "reach(X, Y) :- edge(X, Y).\n"
            "reach(X, Y) :- reach(X, Z), edge(Z, Y).\n"
            "unreached(X, Y) :- node(X), node(Y), not reach(X, Y).\n"
        )
        database = db(
            edge=[("a", "b"), ("b", "c")], node=["a", "b", "c"]
        )
        oracle = all_engines_agree(program, database)
        unreached = values(oracle, "unreached")
        assert ("a", "c") not in unreached
        assert ("c", "a") in unreached

    def test_negated_literal_before_binder_in_source_order(self):
        # the planner must defer the anti-join until X is bound
        program = prog("p(X) :- not q(X), e(X).")
        database = db(e=["a", "b"], q=["a"])
        oracle = all_engines_agree(program, database)
        assert values(oracle, "p") == {("b",)}

    def test_negated_literal_with_constant(self):
        program = prog("p(X) :- e(X), not q(X, forbidden).")
        database = db(
            e=["a", "b"], q=[("a", "forbidden"), ("b", "allowed")]
        )
        oracle = all_engines_agree(program, database)
        assert values(oracle, "p") == {("b",)}

    def test_negated_literal_with_repeated_variable(self):
        program = prog("p(X) :- e(X), not q(X, X).")
        database = db(e=["a", "b"], q=[("a", "a"), ("b", "c")])
        oracle = all_engines_agree(program, database)
        assert values(oracle, "p") == {("b",)}

    def test_zero_arity_negated_literal(self):
        program = prog(
            "go(X) :- e(X), not halted.\nhalted :- stop_flag(Y)."
        )
        empty = db(e=["a"])
        oracle = all_engines_agree(program, empty)
        assert values(oracle, "go") == {("a",)}
        flagged = db(e=["a"], stop_flag=["now"])
        oracle = all_engines_agree(program, flagged)
        assert values(oracle, "go") == set()

    def test_two_negations_in_one_rule(self):
        program = prog("p(X) :- e(X), not q(X), not r(X).")
        database = db(e=["a", "b", "c", "d"], q=["b"], r=["c"])
        oracle = all_engines_agree(program, database)
        assert values(oracle, "p") == {("a",), ("d",)}

    def test_bom_hand_checked(self):
        program = bom_program()
        database = db(
            subpart=[("a", "b"), ("a", "c"), ("b", "d"), ("c", "e")],
            part=["a", "b", "c", "d", "e"],
            exception=["e"],
        )
        oracle = all_engines_agree(program, database)
        assert values(oracle, "tainted") == {("a",), ("c",), ("e",)}
        assert values(oracle, "clean") == {
            ("a", "b"), ("a", "d"), ("b", "d")
        }
        assert values(oracle, "blocked") == {("a",), ("c",)}
        assert values(oracle, "buildable") == {("b",), ("d",), ("e",)}

    def test_bom_generator_engines_agree(self):
        program = bom_program()
        database = bom_database(
            depth=4, fanout=2, exception_rate=0.25, seed=11
        )
        oracle = all_engines_agree(program, database)
        # the acceptance scenario: >= 2 strata and the negation bites
        assert len(values(oracle, "clean")) < len(
            values(oracle, "component")
        )

    def test_stats_sane_under_negation(self):
        program = prog("p(X) :- e(X), not q(X).")
        database = db(e=["a", "b"], q=["a"])
        result = evaluate(program, database, method="seminaive")
        assert result.stats.facts_derived == 1
        assert result.stats.rule_firings == 1  # the anti-join pruned 'a'
        assert result.stats.join_probes > 0


BOM_DERIVED = ("component", "tainted", "clean", "blocked", "buildable")


class TestBomWork:
    """The BOM workload (4 strata, 3 negations, recursion below the
    negations) at depth 9, fanout 2, exception rate 0.08, seed 0."""

    def test_seminaive_scans_at_least_1_5x_fewer_tuples_than_naive(self):
        program = bom_program()
        database = bom_database(9, 2, 0.08, 0)
        naive = evaluate(program, database, method="naive")
        semi = evaluate(program, database, method="seminaive")
        for pred in BOM_DERIVED:
            assert values(semi, pred) == values(naive, pred), pred
        # the negation bites: this seed draws exceptions
        assert database.tuples("exception")
        assert 0 < len(values(naive, "clean")) < len(
            values(naive, "component")
        )
        assert naive.stats.tuples_scanned >= 1.5 * max(
            semi.stats.tuples_scanned, 1
        )

    def test_exception_rate_is_monotone(self):
        """One seed draws the same random numbers at every rate, so a
        higher rate yields a superset of exceptions: ``tainted`` grows,
        ``clean`` and ``buildable`` shrink."""
        program = bom_program()
        previous = None
        for rate in (0.0, 0.1, 0.3):
            database = bom_database(6, 2, rate, 0)
            result = evaluate(program, database, method="seminaive")
            counts = {
                pred: len(values(result, pred)) for pred in BOM_DERIVED
            }
            if rate == 0.0:
                # negation-free baseline: nothing tainted, nothing blocked
                assert counts["tainted"] == counts["blocked"] == 0
                assert counts["clean"] == counts["component"]
                assert counts["buildable"] == len(database.tuples("part"))
            else:
                assert counts["tainted"] >= previous["tainted"]
                assert counts["clean"] <= previous["clean"]
                assert counts["buildable"] <= previous["buildable"]
            previous = counts


# ----------------------------------------------------------------------
# which stages accept negation: magic family yes, counting/qsq no
# ----------------------------------------------------------------------

class TestStageSupport:
    def test_adorn_program_accepts_stratified(self):
        program = prog("p(X) :- e(X), not q(X).\nq(X) :- bad(X).")
        adorned = adorn_program(program, parse_query("p(a)?"))
        (rule,) = [
            ar for ar in adorned.rules if ar.head.pred == "p"
        ]
        negated = [lit for lit in rule.body if lit.negated]
        assert len(negated) == 1
        # conservative: all-free adornment, never specialized
        assert negated[0].adornment == "f"
        # consumers come last: the positive binder precedes the anti-join
        assert rule.body[-1].negated

    def test_adorn_program_orders_negated_last(self):
        program = prog("p(X) :- not q(X), e(X).\nq(X) :- bad(X).")
        adorned = adorn_program(program, parse_query("p(a)?"))
        (rule,) = [
            ar for ar in adorned.rules if ar.head.pred == "p"
        ]
        assert [lit.pred for lit in rule.body] == ["e", "q"]
        assert rule.body[1].negated

    def test_adorn_program_rejects_unsafe_negation(self):
        program = prog("p(X) :- e(X), not q(X, Y).")
        with pytest.raises(UnsafeNegationError):
            adorn_program(program, parse_query("p(a)?"))

    def test_adorn_program_rejects_unstratified(self):
        program = prog("win(X) :- move(X, Y), not win(Y).")
        with pytest.raises(StratificationError):
            adorn_program(program, parse_query("win(a)?"))

    def test_magic_rewrites_answer_stratified(self):
        program = prog("p(X) :- e(X), not q(X).")
        database = db(e=["a", "b"], q=["a"])
        for method in ("magic", "supplementary_magic"):
            answer = answer_query(
                program,
                database,
                parse_query("p(X)?"),
                QueryOptions(method=method),
            )
            assert answer.values() == {("b",)}
            assert answer.strategy == method

    def test_counting_rewrites_reject_negation(self):
        program = prog("p(X) :- e(X), not q(X).")
        for method in ("counting", "supplementary_counting"):
            with pytest.raises(UnsupportedProgramError) as exc:
                rewrite(program, parse_query("p(a)?"), method=method)
            message = str(exc.value)
            assert "not q(X)" in message
            assert "auto" in message  # points at the supported path

    def test_qsq_rejects_negation(self):
        program = prog("p(X) :- e(X), not q(X).")
        query_literal = Literal(
            "p", (Variable("X"),), adornment="f"
        )
        with pytest.raises(UnsupportedProgramError) as exc:
            qsq_evaluate(program, db(e=["a"]), query_literal)
        assert "auto" in str(exc.value)  # the recommended path

    def test_answer_query_baselines_work(self):
        program = prog("p(X) :- e(X), not q(X).")
        database = db(e=["a", "b"], q=["a"])
        query = parse_query("p(X)?")
        for method in ("naive", "seminaive"):
            answer = answer_query(
                program, database, query, QueryOptions(method=method)
            )
            assert answer.values() == {("b",)}

    def test_answer_query_default_method_works(self):
        program = prog("p(X) :- e(X), not q(X).")
        answer = answer_query(
            program, db(e=["a", "b"], q=["a"]), parse_query("p(X)?")
        )
        assert answer.strategy == "supplementary_magic"
        assert answer.values() == {("b",)}


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------

class TestCli:
    def test_workload_bom_roundtrip(self, tmp_path, capsys):
        assert main(
            ["workload", "bom", "--depth", "3", "--fanout", "2",
             "--exception-rate", "0.3", "--seed", "5"]
        ) == 0
        source = capsys.readouterr().out
        path = tmp_path / "bom.dl"
        path.write_text(source)
        assert main(
            ["query", str(path), "--method", "seminaive", "--stats"]
        ) == 0
        out = capsys.readouterr()
        assert "bindings for (P)" in out.out
        assert "facts=" in out.err

    def test_workload_deterministic_per_seed(self, capsys):
        assert main(["workload", "bom", "--seed", "9"]) == 0
        first = capsys.readouterr().out
        assert main(["workload", "bom", "--seed", "9"]) == 0
        assert capsys.readouterr().out == first

    def test_query_default_method_rewrites_stratified(
        self, tmp_path, capsys
    ):
        # the default --method supplementary_magic now handles the
        # stratified BOM source through the conservative rewrite
        path = tmp_path / "bom.dl"
        path.write_text(bom_source(depth=2))
        assert main(["query", str(path), "--stats"]) == 0
        out = capsys.readouterr()
        assert "bindings for (P)" in out.out
        assert "method=supplementary_magic" in out.err

    def test_query_counting_method_fails_loudly(self, tmp_path, capsys):
        path = tmp_path / "bom.dl"
        path.write_text(bom_source(depth=2))
        assert main(["query", str(path), "--method", "counting"]) == 1
        err = capsys.readouterr().err
        assert "positive programs only" in err
        assert "auto" in err  # points at the supported path

    def test_rewrite_command_prints_stratified_magic(
        self, tmp_path, capsys
    ):
        path = tmp_path / "bom.dl"
        path.write_text(bom_source(depth=2))
        assert main(
            ["rewrite", str(path), "--method", "magic"]
        ) == 0
        out = capsys.readouterr().out
        assert "not tainted^f(" in out  # carried unchanged, all-free
        # the negated occurrence never seeds magic (its all-free
        # version has no magic predicate); positive occurrences inside
        # tainted's own cone may still be magic-restricted
        assert "magic_tainted_f" not in out

    def test_safety_reports_strata(self, tmp_path, capsys):
        path = tmp_path / "bom.dl"
        path.write_text(bom_source(depth=2))
        assert main(["safety", str(path)]) == 0
        out = capsys.readouterr().out
        assert "safe negation" in out
        assert "stratification" in out
        assert "4 strata" in out

    def test_workload_rejects_bad_rate(self, capsys):
        assert main(
            ["workload", "bom", "--exception-rate", "1.5"]
        ) == 1
        assert "exception_rate" in capsys.readouterr().err


# ----------------------------------------------------------------------
# property: stratified evaluation == stratum-wise naive reference
# ----------------------------------------------------------------------

DOMAIN = ("c0", "c1", "c2", "c3")
X, Y, Z = Variable("X"), Variable("Y"), Variable("Z")


def _pairs():
    return st.lists(
        st.tuples(st.sampled_from(DOMAIN), st.sampled_from(DOMAIN)),
        max_size=10,
    )


def _units():
    return st.lists(st.sampled_from(DOMAIN), max_size=4)


@st.composite
def stratified_case(draw):
    """A random safe stratified program plus a random database.

    Stratum 0: ``t`` = transitive closure of ``e`` (optionally
    nonlinear), plus a unary ``u``.  Stratum 1: ``s`` joins positive
    stratum-0 literals with one negated literal whose variables the
    positives bind.  Stratum 2 (sometimes): ``w`` negates ``s``.
    """
    rules = [
        parse_rule("t(X, Y) :- e(X, Y)."),
        parse_rule(
            draw(
                st.sampled_from(
                    [
                        "t(X, Y) :- e(X, Z), t(Z, Y).",
                        "t(X, Y) :- t(X, Z), t(Z, Y).",
                        "t(X, Y) :- t(X, Z), e(Z, Y).",
                    ]
                )
            )
        ),
        parse_rule(
            draw(
                st.sampled_from(
                    ["u(X) :- m(X).", "u(X) :- e(X, Y), m(Y)."]
                )
            )
        ),
    ]
    positive = draw(st.sampled_from(["t(X, Y)", "e(X, Y)"]))
    negated = draw(
        st.sampled_from(
            ["u(X)", "u(Y)", "t(Y, X)", "t(X, X)", "m(X)"]
        )
    )
    rules.append(parse_rule(f"s(X, Y) :- {positive}, not {negated}."))
    if draw(st.booleans()):
        w_negated = draw(st.sampled_from(["s(X, Y)", "s(Y, X)"]))
        rules.append(
            parse_rule(f"w(X, Y) :- t(X, Y), not {w_negated}.")
        )
    program = Program(tuple(rules))
    database = db(e=draw(_pairs()), m=draw(_units()))
    return program, database


@settings(max_examples=60, deadline=None)
@given(stratified_case())
def test_stratified_evaluation_matches_naive_reference(case):
    program, database = case
    all_engines_agree(program, database)


# ----------------------------------------------------------------------
# derivation trees (explain) under negation
# ----------------------------------------------------------------------

class TestExplainWithNegation:
    def test_explain_renders_negation_as_failure_leaf(self):
        from repro import explain, fact_stages

        program = bom_program()
        database = db(
            subpart=[("a", "b")], part=["a", "b"], exception=[],
        )
        result = evaluate(program, database)
        stages = fact_stages(program, database, result)
        from repro import Constant

        tree = explain(
            program, database, result,
            Literal("buildable", (Constant("a"),)),
            _stages=stages,
        )
        rendered = tree.render()
        assert "buildable(a)" in rendered
        assert "not blocked(a)" in rendered  # the anti-join leaf
        assert tree.height() >= 2

    def test_explain_cli_on_bom(self, tmp_path, capsys):
        path = tmp_path / "bom.dl"
        path.write_text(bom_source(depth=2, seed=3))
        assert main(["explain", str(path), "--limit", "1"]) == 0
        out = capsys.readouterr().out
        assert "[by buildable(P) :- part(P), not blocked(P).]" in out
        assert "not blocked(" in out

    def test_fact_stages_respect_strata(self):
        from repro import fact_stages

        program = prog(
            "t(X, Y) :- e(X, Y).\n"
            "t(X, Y) :- e(X, Z), t(Z, Y).\n"
            "s(X, Y) :- t(X, Y), not m(X).\n"
        )
        database = db(e=[("a", "b"), ("b", "c")], m=["z"])
        result = evaluate(program, database)
        stages = fact_stages(program, database, result)
        # every s-fact's stage is strictly later than its t-support
        for row, stage in stages["s"].items():
            assert stage > stages["t"][row]
