"""Graph workload generators for the ancestor family of benchmarks.

These populate the ``par`` (parenthood / edge) relation in the shapes the
recursive-query literature benchmarks on (Bancilhon & Ramakrishnan [5]):
chains, complete k-ary trees, random DAGs, and cyclic graphs.  Node names
are strings ``n0, n1, ...`` except trees, which use path-encoded names so
ancestry is visible by eye.
"""

from __future__ import annotations

import random
from typing import Iterable, List, Optional, Tuple

from ..datalog.database import Database

__all__ = [
    "chain_edges",
    "tree_edges",
    "random_dag_edges",
    "cycle_edges",
    "grid_edges",
    "load_edges",
    "chain_database",
    "tree_database",
    "random_dag_database",
    "cycle_database",
]


def chain_edges(length: int, prefix: str = "n") -> List[Tuple[str, str]]:
    """A simple path ``n0 -> n1 -> ... -> n(length)``."""
    return [(f"{prefix}{i}", f"{prefix}{i + 1}") for i in range(length)]


def tree_edges(
    depth: int, fanout: int = 2, root: str = "r"
) -> List[Tuple[str, str]]:
    """A complete ``fanout``-ary tree of the given depth, edges
    parent -> child.  Node names encode the path from the root
    (``r_0_1`` is the root's first child's second child)."""
    edges: List[Tuple[str, str]] = []
    frontier = [root]
    for _ in range(depth):
        next_frontier = []
        for node in frontier:
            for child_index in range(fanout):
                child = f"{node}_{child_index}"
                edges.append((node, child))
                next_frontier.append(child)
        frontier = next_frontier
    return edges


def random_dag_edges(
    nodes: int,
    edge_probability: float = 0.1,
    seed: int = 0,
    prefix: str = "n",
) -> List[Tuple[str, str]]:
    """A random DAG: edge ``ni -> nj`` only for ``i < j`` (acyclic)."""
    rng = random.Random(seed)
    edges = []
    for i in range(nodes):
        for j in range(i + 1, nodes):
            if rng.random() < edge_probability:
                edges.append((f"{prefix}{i}", f"{prefix}{j}"))
    return edges


def cycle_edges(length: int, prefix: str = "n") -> List[Tuple[str, str]]:
    """A directed cycle of the given length (counting's nemesis)."""
    edges = chain_edges(length - 1, prefix)
    edges.append((f"{prefix}{length - 1}", f"{prefix}0"))
    return edges


def grid_edges(rows: int, cols: int) -> List[Tuple[str, str]]:
    """A rows x cols grid DAG with right and down edges."""
    edges = []
    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                edges.append((f"g{r}_{c}", f"g{r}_{c + 1}"))
            if r + 1 < rows:
                edges.append((f"g{r}_{c}", f"g{r + 1}_{c}"))
    return edges


def load_edges(
    edges: Iterable[Tuple[str, str]],
    relation: str = "par",
    database: Optional[Database] = None,
) -> Database:
    """Load (src, dst) pairs into a database relation."""
    if database is None:
        database = Database()
    database.add_values(relation, edges)
    return database


def chain_database(length: int, relation: str = "par") -> Database:
    return load_edges(chain_edges(length), relation)


def tree_database(
    depth: int, fanout: int = 2, relation: str = "par"
) -> Database:
    return load_edges(tree_edges(depth, fanout), relation)


def random_dag_database(
    nodes: int,
    edge_probability: float = 0.1,
    seed: int = 0,
    relation: str = "par",
) -> Database:
    return load_edges(
        random_dag_edges(nodes, edge_probability, seed), relation
    )


def cycle_database(length: int, relation: str = "par") -> Database:
    return load_edges(cycle_edges(length), relation)
