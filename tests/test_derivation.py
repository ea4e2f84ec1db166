"""Derivation-tree reconstruction (repro.datalog.derivation).

Section 1.1: every derived fact has a finite derivation tree with the
fact at the root and base facts at the leaves.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import Constant, Database, EvaluationError, Literal, parse_program
from repro.datalog.derivation import explain, fact_stages
from repro.datalog.engine import evaluate
from repro.workloads import ancestor_program, chain_database


def c(value):
    return Constant(value)


@pytest.fixture
def chain_setup():
    program = ancestor_program()
    db = chain_database(5)
    result = evaluate(program, db)
    return program, db, result


class TestStages:
    def test_base_facts_not_staged(self, chain_setup):
        program, db, result = chain_setup
        stages = fact_stages(db, result)
        assert "par" not in stages or not stages.get("par")

    def test_children_are_stamped_before_their_parent(self, chain_setup):
        """Stamps are install numbers: the rows the evaluation started
        with have stamp 0, and every internal node of a tree has a
        larger stamp than each of its derived children."""
        program, db, result = chain_setup
        stages = fact_stages(db, result)
        assert set(stages["anc"]) == result.database.tuples("anc")
        assert min(stages["anc"].values()) >= 1

        def check(node):
            if node.rule is None:
                assert node.literal.pred_key not in result.derived_keys
                return
            stage = stages["anc"][tuple(node.literal.args)]
            for child in node.children:
                if not child.is_leaf():
                    assert stages["anc"][tuple(child.literal.args)] < stage
                check(child)

        for row in result.database.tuples("anc"):
            check(explain(program, db, result, Literal("anc", row)))

    def test_seeded_facts_stage_zero(self):
        from repro import rewrite
        from repro.workloads import ancestor_query

        program = ancestor_program()
        query = ancestor_query("n0")
        rewritten = rewrite(program, query, method="magic")
        db = chain_database(4)
        seeded = rewritten.seeded_database(db)
        result = evaluate(rewritten.program, seeded)
        stages = fact_stages(seeded, result)
        seed_row = (c("n0"),)
        assert stages["magic_anc_bf"][seed_row] == 0


class TestExplain:
    def test_direct_fact(self, chain_setup):
        program, db, result = chain_setup
        tree = explain(
            program, db, result, Literal("anc", (c("n0"), c("n1")))
        )
        assert tree.rule is not None
        assert tree.height() == 2
        assert [str(leaf) for leaf in tree.leaves()] == ["par(n0, n1)"]

    def test_deep_fact_has_chain_of_rules(self, chain_setup):
        program, db, result = chain_setup
        tree = explain(
            program, db, result, Literal("anc", (c("n0"), c("n5")))
        )
        # the linear rule gives a left-deep tree of height 6 (5 anc
        # nodes + the base fact)
        assert tree.height() == 6
        leaves = [str(leaf) for leaf in tree.leaves()]
        assert leaves == [f"par(n{i}, n{i + 1})" for i in range(5)]

    def test_size_counts_nodes(self, chain_setup):
        program, db, result = chain_setup
        tree = explain(
            program, db, result, Literal("anc", (c("n0"), c("n2")))
        )
        assert tree.size() == tree.render().count("\n") + 1

    def test_underivable_fact_rejected(self, chain_setup):
        program, db, result = chain_setup
        with pytest.raises(EvaluationError):
            explain(program, db, result, Literal("anc", (c("n5"), c("n0"))))

    def test_non_ground_rejected(self, chain_setup):
        from repro import Variable

        program, db, result = chain_setup
        with pytest.raises(EvaluationError):
            explain(
                program, db, result, Literal("anc", (c("n0"), Variable("Y")))
            )

    def test_base_fact_is_leaf(self, chain_setup):
        program, db, result = chain_setup
        tree = explain(
            program, db, result, Literal("par", (c("n0"), c("n1")))
        )
        assert tree.is_leaf()

    def test_nonlinear_rules(self):
        program = parse_program(
            """
            anc(X, Y) :- par(X, Y).
            anc(X, Y) :- anc(X, Z), anc(Z, Y).
            """
        ).program
        db = chain_database(4)
        result = evaluate(program, db)
        tree = explain(
            program, db, result, Literal("anc", (c("n0"), c("n4")))
        )
        assert tree.rule is not None
        leaves = {str(leaf) for leaf in tree.leaves()}
        assert leaves <= {f"par(n{i}, n{i + 1})" for i in range(4)}

    def test_explains_rewritten_program_facts(self):
        """Derivations work on magic-rewritten programs too (seeds are
        leaves)."""
        from repro import rewrite
        from repro.workloads import ancestor_query

        program = ancestor_program()
        query = ancestor_query("n0")
        rewritten = rewrite(program, query, method="magic")
        db = chain_database(4)
        seeded = rewritten.seeded_database(db)
        result = evaluate(rewritten.program, seeded)
        magic_fact = Literal("magic_anc_bf", (c("n2"),))
        tree = explain(rewritten.program, seeded, result, magic_fact)
        leaves = [str(leaf) for leaf in tree.leaves()]
        # the magic set's derivation bottoms out at the seed
        assert "magic_anc_bf(n0)" in leaves

    def test_session_explain_runs_one_fixpoint(self, monkeypatch):
        """The trees reuse the evaluation they explain: no replay."""
        from repro import Session
        from repro.datalog import derivation, engine

        fixpoints = []
        real = engine.fixpoint

        def counted(*args, **kwargs):
            fixpoints.append(args[0])
            return real(*args, **kwargs)

        monkeypatch.setattr(engine, "fixpoint", counted)
        # a replay that imported the driver by name counts too
        monkeypatch.setattr(derivation, "fixpoint", counted, raising=False)
        session = Session(program=ancestor_program(), database=chain_database(5))
        trees = session.explain("anc(n0, Y)?")
        assert len(trees) == 5 and len(fixpoints) == 1

    def test_render_contains_rules(self, chain_setup):
        program, db, result = chain_setup
        tree = explain(
            program, db, result, Literal("anc", (c("n0"), c("n2")))
        )
        text = tree.render()
        assert "[by anc(X, Y) :- par(X, Z), anc(Z, Y).]" in text


# ----------------------------------------------------------------------
# property: every reconstructed tree is a derivation
# ----------------------------------------------------------------------

NODES = [f"v{i}" for i in range(6)]

STRATIFIED = """
anc(X, Y) :- par(X, Y).
anc(X, Y) :- anc(X, Z), anc(Z, Y).
node(X) :- par(X, Y).
node(Y) :- par(X, Y).
apart(X, Y) :- node(X), node(Y), not anc(X, Y).
"""


def assert_derivation(node, program, database, result, stages):
    """Each internal node is a rule instance over strictly earlier
    facts; each leaf is a base fact or a negated fact that is absent."""
    fact = node.literal
    if node.rule is None:
        if fact.negated:
            assert not result.database.has_fact(fact.as_positive())
        else:
            assert database.has_fact(fact)
        return
    stage = stages[fact.pred_key][tuple(fact.args)]
    assert node.rule.head.pred_key == fact.pred_key
    assert len(node.children) == len(node.rule.body)
    for child in node.children:
        child_stage = stages.get(child.literal.pred_key, {}).get(
            tuple(child.literal.args)
        )
        if child_stage is not None and not child.literal.negated:
            assert child_stage < stage
        assert_derivation(child, program, database, result, stages)


@settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    edges=st.lists(
        st.tuples(st.sampled_from(NODES), st.sampled_from(NODES)),
        max_size=12,
    )
)
@pytest.mark.parametrize("rewritten", [False, True], ids=["plain", "magic"])
def test_every_derived_fact_has_a_well_founded_tree(rewritten, edges):
    program = parse_program(STRATIFIED).program
    database = Database()
    database.add_values("par", set(edges))
    if rewritten:
        from repro import parse_query, rewrite

        magic = rewrite(program, parse_query("apart(v0, Y)?"), "magic")
        program, database = magic.program, magic.seeded_database(database)
    result = evaluate(program, database)
    stages = fact_stages(database, result)
    for key in result.derived_keys:
        assert set(stages[key]) == result.database.tuples(key)
        for row in result.database.tuples(key):
            tree = explain(program, database, result, Literal(key, row))
            assert_derivation(tree, program, database, result, stages)
