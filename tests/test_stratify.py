"""Stratification: stratum numbering, rule partition, rejections."""

import pytest

from repro import (
    Program,
    StratificationError,
    parse_program,
    stratify,
)
from repro.datalog.analysis import polarity_edges

BOM = """
component(P, S) :- subpart(P, S).
component(P, S) :- subpart(P, M), component(M, S).
tainted(P) :- exception(P).
tainted(P) :- component(P, S), exception(S).
clean(P, S) :- component(P, S), not tainted(S).
blocked(P) :- component(P, S), not clean(P, S).
buildable(P) :- part(P), not blocked(P).
"""


def prog(text: str) -> Program:
    return parse_program(text).program


class TestPolarityEdges:
    def test_positive_program_has_no_negative_edges(self):
        program = prog("anc(X, Y) :- par(X, Y).\n"
                       "anc(X, Y) :- par(X, Z), anc(Z, Y).")
        assert all(not neg for _, _, neg in polarity_edges(program))

    def test_polarity_distinguishes_dual_occurrences(self):
        # p depends on q both positively and negatively
        program = prog("p(X) :- q(X), e(X).\np(X) :- e(X), not q(X).")
        edges = set(polarity_edges(program))
        assert ("p", "q", True) in edges
        assert ("p", "q", False) in edges


class TestStratumNumbers:
    def test_positive_program_is_single_stratum(self):
        program = prog("anc(X, Y) :- par(X, Y).\n"
                       "anc(X, Y) :- par(X, Z), anc(Z, Y).")
        strat = stratify(program)
        assert len(strat) == 1
        assert strat.rule_strata == ((0, 1),)
        assert strat.stratum_of("anc") == 0
        assert strat.stratum_of("par") == 0  # base

    def test_bom_strata(self):
        strat = stratify(prog(BOM))
        assert len(strat) == 4
        assert strat.stratum_of("component") == 0
        assert strat.stratum_of("tainted") == 0
        assert strat.stratum_of("clean") == 1
        assert strat.stratum_of("blocked") == 2
        assert strat.stratum_of("buildable") == 3

    def test_rule_order_preserved_within_stratum(self):
        strat = stratify(prog(BOM))
        assert strat.rule_strata[0] == (0, 1, 2, 3)
        assert strat.rule_strata[1:] == ((4,), (5,), (6,))

    def test_stratum_programs_partition_the_rules(self):
        program = prog(BOM)
        strata = stratify(program).rule_strata
        recombined = [i for stratum in strata for i in stratum]
        assert sorted(recombined) == list(range(len(program.rules)))

    def test_negative_dependency_on_base_predicate(self):
        program = prog("alive(X) :- node(X), not dead(X).")
        strat = stratify(program)
        # dead is base: stratum 0; one negation lifts alive to 1
        assert strat.stratum_of("dead") == 0
        assert strat.stratum_of("alive") == 1

    def test_positive_chain_shares_stratum_number(self):
        program = prog("a(X) :- e(X).\nb(X) :- a(X).")
        strat = stratify(program)
        assert strat.stratum_of("a") == 0
        assert strat.stratum_of("b") == 0
        assert len(strat) == 1

    def test_negative_edges_reported(self):
        edges = polarity_edges(prog(BOM))
        assert ("clean", "tainted", True) in edges
        assert ("buildable", "blocked", True) in edges

    def test_str_rendering_names_strata(self):
        text = str(stratify(prog(BOM)))
        assert "stratum 0" in text and "component" in text
        assert "stratum 3" in text and "buildable" in text


class TestRejection:
    def test_self_negation_rejected(self):
        with pytest.raises(StratificationError) as exc:
            stratify(prog("p(X) :- e(X), not p(X)."))
        assert "not stratified" in str(exc.value)
        assert "p" in exc.value.cycle

    def test_win_move_rejected_with_cycle(self):
        with pytest.raises(StratificationError) as exc:
            stratify(prog("win(X) :- move(X, Y), not win(Y)."))
        message = str(exc.value)
        assert "win" in message
        assert "'not'" in message
        assert exc.value.cycle == ("win",)

    def test_mutual_recursion_through_negation_rejected(self):
        with pytest.raises(StratificationError) as exc:
            stratify(
                prog("p(X) :- e(X), not q(X).\nq(X) :- e(X), p(X).")
            )
        assert set(exc.value.cycle) == {"p", "q"}

    def test_negation_between_independent_predicates_allowed(self):
        program = prog("p(X) :- e(X), not q(X).\nq(X) :- f(X).")
        assert len(stratify(program)) == 2
