"""Extra sip-builder coverage: right-to-left sips and the synthetic
workload generator."""


import pytest

from repro import (
    QueryOptions,
    answer_query,
    bottom_up_answer,
    evaluate,
    parse_query,
    rewrite,
)
from repro.core.sips import build_right_to_left_sip
from repro.workloads import (
    ancestor_program,
    load_edges,
    synthetic_chain_database,
    synthetic_chain_program,
    tree_edges,
)


def is_derived_anc(literal):
    return literal.pred == "anc"


class TestRightToLeftSip:
    def test_reversed_order(self):
        from repro.datalog.parser import parse_rule

        rule = parse_rule("anc(X, Y) :- par(X, Z), anc(Z, Y).")
        sip = build_right_to_left_sip(rule, "fb", is_derived_anc)
        assert sip.total_order() == (1, 0)
        # the recursive occurrence receives Y from the head
        arc = sip.arcs_into(1)[0]
        assert arc.has_head()

    def test_answers_fb_query(self):
        program = ancestor_program()
        db = load_edges(tree_edges(4, fanout=2))
        query = parse_query("anc(X, r_0_0_0)?")
        baseline = bottom_up_answer(program, db, query)
        answer = answer_query(
            program,
            db,
            query,
            QueryOptions(method="magic"),
            sip_builder=build_right_to_left_sip,
        )
        assert answer.answers == baseline.answers
        assert answer.stats.facts_derived < baseline.stats.facts_derived

    def test_bf_query_degrades_gracefully(self):
        """For a bf query, right-to-left passes nothing until the last
        literal: answers still correct, just less selective."""
        program = ancestor_program()
        db = load_edges(tree_edges(4, fanout=2))
        query = parse_query('anc("r", Y)?')
        baseline = bottom_up_answer(program, db, query)
        answer = answer_query(
            program,
            db,
            query,
            QueryOptions(method="magic"),
            sip_builder=build_right_to_left_sip,
        )
        assert answer.answers == baseline.answers


class TestSyntheticWorkload:
    def test_program_shape(self):
        program = synthetic_chain_program(5)
        assert len(program) == 10
        assert program.derived_predicates() == {f"p{i}" for i in range(5)}

    def test_database_shape(self):
        db = synthetic_chain_database(3, length=4)
        assert len(db.tuples("e0")) == 4
        assert len(db.tuples("e2")) == 4

    def test_all_layers_adorned(self):
        from repro import adorn_program
        from repro.datalog.ast import Literal, Query
        from repro.datalog.terms import Constant, Variable

        program = synthetic_chain_program(4)
        query = Query(Literal("p0", (Constant("n0"), Variable("Y"))))
        adorned = adorn_program(program, query)
        assert {f"p{i}^bf" for i in range(4)} <= adorned.adorned_predicates()

    @pytest.mark.parametrize("depth", [4, 16])
    def test_supplementary_magic_answers_as_bottom_up(self, depth):
        program = synthetic_chain_program(depth)
        query = parse_query("p0(n0, Y)?")
        db = synthetic_chain_database(depth, length=12)
        rewritten = rewrite(program, query, method="supplementary_magic")
        result = evaluate(rewritten.program, rewritten.seeded_database(db))
        assert rewritten.extract_answers(result) == (
            bottom_up_answer(program, db, query).answers
        )
