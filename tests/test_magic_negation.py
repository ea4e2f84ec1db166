"""Magic sets under stratified negation (the conservative extension).

Three guarantees are pinned down here:

* **Answer equivalence.**  On random safe stratified programs, the
  supplementary-magic and magic rewrites agree exactly with the
  stratum-wise naive reference evaluator in ``conftest`` -- for bound
  and free query patterns alike.
* **Re-stratifiability.**  The conservative rewrite never turns a
  stratified program into an unstratifiable one:
  ``pipeline.rewrite`` re-stratifies its output through
  ``stratify``, and the property test asserts the invariant
  on random inputs (plus the BOM program explicitly).
* **Dispatch.**  ``method="auto"`` on stratified input executes the
  query-directed path and reports it via ``QueryResult.method``.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    Database,
    Program,
    QueryOptions,
    Session,
    StratificationError,
    answer_query,
    parse_program,
    parse_query,
    parse_rule,
    rewrite,
    stratify,
)
from repro.workloads import bom_database, bom_program

from conftest import oracle_answers

DOMAIN = ("c0", "c1", "c2", "c3")


def db(**relations) -> Database:
    database = Database()
    for name, rows in relations.items():
        database.add_values(
            name,
            [row if isinstance(row, tuple) else (row,) for row in rows],
        )
    return database


# ----------------------------------------------------------------------
# random safe stratified programs + selective queries
# ----------------------------------------------------------------------


def _pairs():
    return st.lists(
        st.tuples(st.sampled_from(DOMAIN), st.sampled_from(DOMAIN)),
        max_size=10,
    )


def _units():
    return st.lists(st.sampled_from(DOMAIN), max_size=4)


@st.composite
def stratified_query_case(draw):
    """A random safe stratified program, database, and query.

    Stratum 0: ``t`` = transitive closure of ``e`` (linear or
    nonlinear), plus a unary ``u``.  Stratum 1: ``s`` joins positive
    stratum-0 literals with a negated literal the positives bind.
    Stratum 2 (sometimes): ``w`` negates ``s``.  The query targets the
    topmost stratified predicate with a random binding pattern, so the
    rewrite has to push bindings *around* (never through) negation.
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
    query_pred = "s"
    if draw(st.booleans()):
        w_negated = draw(st.sampled_from(["s(X, Y)", "s(Y, X)"]))
        rules.append(
            parse_rule(f"w(X, Y) :- t(X, Y), not {w_negated}.")
        )
        query_pred = draw(st.sampled_from(["s", "w"]))
    program = Program(tuple(rules))
    database = db(e=draw(_pairs()), m=draw(_units()))
    constant = draw(st.sampled_from(DOMAIN))
    query_text = draw(
        st.sampled_from(
            [
                f"{query_pred}(X, Y)?",
                f"{query_pred}({constant}, Y)?",
                f"{query_pred}(X, {constant})?",
            ]
        )
    )
    return program, database, parse_query(query_text)


@settings(max_examples=60, deadline=None)
@given(stratified_query_case())
def test_rewrites_match_stratumwise_naive_oracle(case):
    program, database, query = case
    oracle = oracle_answers(program, database, query)
    for method in ("supplementary_magic", "magic"):
        answer = answer_query(
            program, database, query, QueryOptions(method=method)
        )
        assert answer.rows == oracle, (
            f"{method} disagrees with the stratum-wise naive oracle "
            f"on {query} over {program}"
        )


@settings(max_examples=60, deadline=None)
@given(stratified_query_case())
def test_rewrite_output_always_restratifies(case):
    program, _, query = case
    for method in ("supplementary_magic", "magic"):
        rewritten = rewrite(program, query, method=method)
        # must not raise: the conservative treatment never creates a
        # cycle through negation
        strat = stratify(rewritten.program)
        assert len(strat) >= 1


# ----------------------------------------------------------------------
# the BOM workload: explicit re-stratification + dispatch
# ----------------------------------------------------------------------


class TestBomRewrites:
    @pytest.mark.parametrize(
        "query_text", ("buildable(P)?", "clean(p1, S)?", "buildable(p3)?")
    )
    @pytest.mark.parametrize(
        "method", ("supplementary_magic", "magic")
    )
    def test_rewritten_bom_restratifies(self, method, query_text):
        rewritten = rewrite(
            bom_program(), parse_query(query_text), method=method
        )
        assert rewritten.program.has_negation()
        strat = stratify(rewritten.program)
        # the negation layering survives the rewrite: strictly more
        # than one stratum, anti-joins always probe completed relations
        assert len(strat) > 1

    @pytest.mark.parametrize(
        "query_text", ("buildable(P)?", "clean(p1, S)?")
    )
    def test_auto_reports_query_directed_method(self, query_text):
        session = Session(
            program=bom_program(),
            database=bom_database(4, 2, 0.25, seed=3),
        )
        result = session.query(query_text)
        assert result.method == "supplementary_magic"

    @pytest.mark.parametrize(
        "query_text", ("buildable(P)?", "clean(p1, S)?", "buildable(p3)?")
    )
    def test_bom_rewrites_match_oracle(self, query_text):
        database = bom_database(4, 2, 0.25, seed=11)
        program = bom_program()
        query = parse_query(query_text)
        oracle = oracle_answers(program, database, query)
        for method in ("supplementary_magic", "magic", "auto"):
            answer = answer_query(
                program, database, query, QueryOptions(method=method)
            )
            assert answer.rows == oracle

    def test_negated_occurrences_probe_complete_relations(self):
        # the all-free tainted cone inside the rewritten program must
        # equal the full tainted relation of the original program
        from repro import evaluate

        database = bom_database(4, 2, 0.25, seed=7)
        program = bom_program()
        rewritten = rewrite(
            program, parse_query("clean(p1, S)?"),
            method="supplementary_magic",
        )
        full = evaluate(program, database)
        seeded = rewritten.seeded_database(database)
        partial = evaluate(rewritten.program, seeded)
        assert partial.database.tuples(
            "tainted^f"
        ) == full.database.tuples("tainted")


class TestPointQueryWork:
    """BOM at depth 9 (fanout 2, rate 0.08, seed 0): a selective
    ``clean(part, S)?`` only needs the part's own explosion, so the
    rewrite descends one subtree while full bottom-up explodes every
    part."""

    @staticmethod
    def run(query_text, method):
        """One cold evaluation on a fresh session."""
        session = Session(
            program=bom_program(), database=bom_database(9, 2, 0.08, 0)
        )
        return session.query(query_text, method=method)

    # p3 and p7 are the first parts at tree levels 2 and 3
    @pytest.mark.parametrize("root", ["p3", "p7"])
    def test_point_query_scans_at_least_2x_fewer_tuples(self, root):
        query_text = f"clean({root}, S)?"
        oracle = self.run(query_text, "naive")
        magic = self.run(query_text, "supplementary_magic")
        base = self.run(query_text, "seminaive")
        auto = self.run(query_text, "auto")
        assert magic.rows == base.rows == auto.rows == oracle.rows
        assert auto.method == "supplementary_magic"
        assert base.stats.tuples_scanned >= 2 * max(
            magic.stats.tuples_scanned, 1
        )

    @pytest.mark.parametrize("query_text", ["buildable(P)?", "buildable(p3)?"])
    def test_buildable_queries_agree(self, query_text):
        # buildable's negated cone is the whole workload: no scan gate
        oracle = self.run(query_text, "naive")
        assert self.run(query_text, "supplementary_magic").rows == oracle.rows
        assert self.run(query_text, "seminaive").rows == oracle.rows


# ----------------------------------------------------------------------
# facts asserted under derived predicate names
# ----------------------------------------------------------------------


class TestDerivedNameFacts:
    """``seeded_database`` mirrors derived-name facts into the adorned
    relations: the rewrites must honor them exactly like the bottom-up
    baselines do (under negation a dropped fact flips answers)."""

    def test_negated_derived_fact_agrees_with_baselines(self):
        parsed = parse_program(
            "p(X) :- e(X), not q(X).\nq(X) :- g(X).\nq(b).\n"
        )
        database = db(e=["a", "b"], g=["a"])
        database.add_facts(parsed.facts)
        query = parse_query("p(X)?")
        oracle = oracle_answers(parsed.program, database, query)
        assert oracle == set()  # q(b) blocks p(b)
        for method in ("supplementary_magic", "magic", "auto"):
            answer = answer_query(
                parsed.program, database, query, QueryOptions(method=method)
            )
            assert answer.rows == oracle, method

    def test_positive_derived_fact_reaches_the_rewrite(self):
        parsed = parse_program(
            "anc(X, Y) :- par(X, Y).\n"
            "anc(X, Y) :- par(X, Z), anc(Z, Y).\n"
            "anc(zeus, ares).\npar(a, b).\n"
        )
        database = Database()
        database.add_facts(parsed.facts)
        for method in ("supplementary_magic", "magic", "seminaive"):
            answer = answer_query(
                parsed.program,
                database,
                parse_query("anc(zeus, Y)?"),
                QueryOptions(method=method),
            )
            assert answer.values() == {("ares",)}, method

    def test_memo_invalidated_by_derived_name_mutation(self):
        # the footprint covers original derived names: retracting the
        # q(b) fact must re-evaluate the rewritten entry
        parsed = parse_program(
            "p(X) :- e(X), not q(X).\nq(X) :- g(X).\nq(b).\n"
        )
        database = db(e=["a", "b"], g=["a"])
        database.add_facts(parsed.facts)
        session = Session(program=parsed.program, database=database)
        first = session.query("p(X)?")
        assert first.method == "supplementary_magic"
        assert first.values() == set()
        session.retract("q(b)")
        second = session.query("p(X)?")
        assert not second.from_memo
        assert second.values() == {("b",)}


# ----------------------------------------------------------------------
# the stratify entry point
# ----------------------------------------------------------------------


class TestStratifyOrRaise:
    def test_returns_stratification(self):
        program = parse_program(
            "p(X) :- e(X), not q(X).\nq(X) :- bad(X).\n"
        ).program
        strat = stratify(program)
        assert strat.stratum_of("p") > strat.stratum_of("q")

    def test_context_prefixes_the_error(self):
        program = parse_program(
            "win(X) :- move(X, Y), not win(Y).\n"
        ).program
        with pytest.raises(StratificationError) as exc:
            stratify(program, context="invariant check")
        assert str(exc.value).startswith("invariant check: ")
        assert exc.value.cycle  # the offending SCC survives wrapping

    def test_strata_of_predicates_and_rules(self):
        program = parse_program(
            "p(X) :- e(X), not q(X).\nq(X) :- bad(X).\n"
        ).program
        strat = stratify(program)
        assert strat.predicate_stratum["p"] == 1
        assert len(strat.rule_strata) == 2

    def test_no_context_raises_unwrapped(self):
        program = parse_program(
            "win(X) :- move(X, Y), not win(Y).\n"
        ).program
        with pytest.raises(StratificationError) as exc:
            stratify(program)
        assert "invariant" not in str(exc.value)
