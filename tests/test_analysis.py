"""Program analysis: the dependency graph, its components and which
strata recurse."""

from repro import CompiledProgram, parse_program
from repro.datalog.analysis import (
    dependency_graph,
    strongly_connected_components,
)


def program(source):
    return parse_program(source).program


MUTUAL = """
even(X) :- zero(X).
even(X) :- succ(Y, X), odd(Y).
odd(X) :- succ(Y, X), even(X).
"""


class TestDependencyGraph:
    def test_edges(self):
        graph = dependency_graph(program(MUTUAL))
        assert graph["even"] == {"zero", "succ", "odd"}
        assert graph["odd"] == {"succ", "even"}

    def test_base_predicates_have_no_entry(self):
        graph = dependency_graph(program(MUTUAL))
        assert "succ" not in graph


class TestSCC:
    def test_mutual_recursion_one_component(self):
        graph = dependency_graph(program(MUTUAL))
        components = strongly_connected_components(graph)
        assert frozenset({"even", "odd"}) in components

    def test_topological_order(self):
        graph = {"a": {"b"}, "b": {"c"}, "c": set()}
        components = strongly_connected_components(graph)
        # callees come before callers
        assert components.index(frozenset({"c"})) < components.index(
            frozenset({"a"})
        )

    def test_self_loop(self):
        graph = {"a": {"a"}}
        assert frozenset({"a"}) in strongly_connected_components(graph)


class TestBlocks:
    """A block of mutually recursive predicates is a stratum that is not
    flat: one of its rules reads a head of the stratum."""

    def test_mutual_block(self):
        compiled = CompiledProgram(program(MUTUAL))
        assert compiled.stratum_heads == (frozenset({"even", "odd"}),)
        assert compiled.flat == (False,)

    def test_non_recursive_not_a_block(self):
        assert CompiledProgram(program("p(X) :- q(X).")).flat == (True,)

    def test_self_recursive_block(self):
        compiled = CompiledProgram(
            program("t(X, Y) :- e(X, Y).\nt(X, Y) :- e(X, Z), t(Z, Y).")
        )
        assert compiled.flat == (False,)


class TestQueries:
    def test_is_recursive(self):
        # a negated read of a lower stratum does not make a stratum recurse
        compiled = CompiledProgram(
            program(MUTUAL + "lone(X) :- zero(X), not even(X).")
        )
        assert compiled.stratum_heads == (
            frozenset({"even", "odd"}), frozenset({"lone"})
        )
        assert compiled.flat == (False, True)
