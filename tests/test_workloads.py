"""Workload generator tests (repro.workloads)."""

import pytest

from repro import Database, Literal, parse_program
from repro.workloads import (
    bom_database,
    chain_database,
    chain_edges,
    constant_list,
    cycle_database,
    cycle_edges,
    grid_edges,
    integer_list,
    load_edges,
    nested_samegen_database,
    random_dag_database,
    random_dag_edges,
    samegen_database,
    samegen_edges,
    synthetic_chain_database,
    tree_database,
    tree_edges,
)
from repro.datalog.terms import list_elements


class TestGraphs:
    def test_chain(self):
        edges = chain_edges(3)
        assert edges == [("n0", "n1"), ("n1", "n2"), ("n2", "n3")]

    def test_tree_size(self):
        edges = tree_edges(3, fanout=2)
        assert len(edges) == 2 + 4 + 8

    def test_random_dag_acyclic(self):
        edges = random_dag_edges(20, 0.3, seed=1)
        for src, dst in edges:
            assert int(src[1:]) < int(dst[1:])

    def test_random_dag_deterministic(self):
        assert random_dag_edges(15, 0.2, seed=9) == random_dag_edges(
            15, 0.2, seed=9
        )

    def test_cycle(self):
        edges = cycle_edges(4)
        assert ("n3", "n0") in edges
        assert len(edges) == 4

    def test_grid(self):
        edges = grid_edges(2, 2)
        assert len(edges) == 4

    def test_database_loading(self):
        db = chain_database(5)
        assert len(db.tuples("par")) == 5


class TestSamegen:
    def test_layer_structure(self):
        edge_sets = samegen_edges(2, 3, flat_edges=2, seed=0)
        assert all(src.startswith("l") for src, _ in edge_sets["up"])
        # flat edges exist within layers 1..layers
        layers_with_flat = {src.split("_")[0] for src, _ in edge_sets["flat"]}
        assert layers_with_flat <= {"l1", "l2"}

    def test_database_relations(self):
        db = samegen_database(2, 3)
        assert {"up", "flat", "down"} <= db.predicate_keys()

    def test_nested_adds_b_relations(self):
        db = nested_samegen_database(2, 3)
        assert {"b1", "b2"} <= db.predicate_keys()


class TestLists:
    def test_integer_list(self):
        lst = integer_list(3)
        values = [t.value for t in list_elements(lst)]
        assert values == [0, 1, 2]

    def test_empty(self):
        assert list_elements(integer_list(0)) == ()


def _lists_database():
    database = Database()
    database.add_facts(
        Literal("lst", (term,))
        for term in (integer_list(3), constant_list(["a", "b"]))
    )
    return database


GENERATORS = {
    "chain": lambda: chain_database(5),
    "cycle": lambda: cycle_database(4),
    "tree": lambda: tree_database(3),
    "random_dag": lambda: random_dag_database(12, 0.3, seed=2),
    "grid": lambda: load_edges(grid_edges(3, 3), relation="edge"),
    "samegen": lambda: samegen_database(3, 4),
    "nested_samegen": lambda: nested_samegen_database(3, 4),
    "bom": lambda: bom_database(4, exception_rate=0.3, seed=1),
    "synthetic_chain": lambda: synthetic_chain_database(3, 4),
    "lists": _lists_database,
}


@pytest.mark.parametrize("name", sorted(GENERATORS))
def test_rendered_facts_parse_back_to_the_same_facts(name):
    """Every generated constant reads back as a constant, not a
    variable: a generator's facts written as text load as themselves."""
    database = GENERATORS[name]()
    keys = sorted(database.predicate_keys())
    text = "".join(
        f"{key}({', '.join(map(str, row))}).\n"
        for key in keys
        for row in database.tuples(key)
    )
    parsed = parse_program(text)
    assert not parsed.program.rules
    loaded = Database()
    loaded.add_facts(parsed.facts)
    assert sorted(loaded.predicate_keys()) == keys
    for key in keys:
        assert loaded.tuples(key) == database.tuples(key), key
