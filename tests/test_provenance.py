"""Provenance and RewrittenProgram behaviour (repro.core.provenance)."""

import pytest

from repro import evaluate, rewrite
from repro.workloads import (
    ancestor_program,
    ancestor_query,
    chain_database,
    nonlinear_samegen_program,
    samegen_query,
)


class TestRuleProvenance:
    def test_roles_assigned(self):
        rewritten = rewrite(
            nonlinear_samegen_program(), samegen_query("a"), method="magic"
        )
        roles = {rr.provenance.role for rr in rewritten.rules}
        assert roles == {"magic", "modified"}

    def test_supplementary_roles(self):
        rewritten = rewrite(
            nonlinear_samegen_program(),
            samegen_query("a"),
            method="supplementary_magic",
        )
        roles = {rr.provenance.role for rr in rewritten.rules}
        assert "supplementary" in roles

    def test_body_origins_parallel_bodies(self):
        for method in (
            "magic",
            "supplementary_magic",
            "counting",
            "supplementary_counting",
        ):
            rewritten = rewrite(
                nonlinear_samegen_program(), samegen_query("a"), method=method
            )
            for rr in rewritten.rules:
                assert len(rr.provenance.body_origins) == len(rr.rule.body), (
                    method,
                    str(rr.rule),
                )

    def test_origin_kinds(self):
        rewritten = rewrite(
            ancestor_program(), ancestor_query("a"), method="magic"
        )
        kinds = {
            origin.kind
            for rr in rewritten.rules
            for origin in rr.provenance.body_origins
        }
        assert kinds == {"guard", "literal"}


class TestRewrittenProgram:
    def test_seeded_database_does_not_mutate(self):
        rewritten = rewrite(ancestor_program(), ancestor_query("n0"))
        db = chain_database(3)
        seeded = rewritten.seeded_database(db)
        assert seeded.total_facts() == db.total_facts() + 1
        assert "magic_anc_bf" not in db.predicate_keys()

    def test_extract_answers_selection(self):
        from repro import parse_query

        program = ancestor_program()
        query = parse_query("anc(n0, n3)?")  # fully bound
        rewritten = rewrite(program, query, method="magic")
        result = evaluate(
            rewritten.program, rewritten.seeded_database(chain_database(5))
        )
        assert rewritten.extract_answers(result) == {()}

    @pytest.mark.parametrize(
        "method, auxiliary",
        [
            ("magic", 11),
            ("supplementary_magic", 21),
            ("counting", 11),
            ("supplementary_counting", 21),
        ],
    )
    def test_fact_breakdown_classification(self, method, auxiliary):
        rewritten = rewrite(
            ancestor_program(), ancestor_query("n0"), method=method
        )
        result = evaluate(
            rewritten.program, rewritten.seeded_database(chain_database(10))
        )
        breakdown = rewritten.fact_breakdown(result)
        # chain of 10: 55 anc facts from n0..n9 roots (anc_ix_bf under
        # counting), 11 magic / counting values (+ 10 supplementary)
        assert breakdown == {
            "adorned": 55,
            "magic": auxiliary,
            "total": 55 + auxiliary,
        }

    def test_str_contains_seed_marker(self):
        rewritten = rewrite(ancestor_program(), ancestor_query("n0"))
        assert "% seed" in str(rewritten)

    def test_program_property_round_trips(self):
        rewritten = rewrite(ancestor_program(), ancestor_query("n0"))
        assert len(rewritten.program) == len(rewritten.rules)
