"""Same-generation workloads: the ``up`` / ``flat`` / ``down`` relations.

The same-generation program (the paper's running example) is typically
benchmarked on layered data: ``up`` edges climb ``layers`` levels,
``flat`` edges move within a layer above the bottom, ``down`` edges
descend.  A query ``sg(x, Y)?`` then walks up from ``x``, across, and
back down -- the classic "A-shaped" traversal.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Tuple

from ..datalog.database import Database

__all__ = ["samegen_edges", "samegen_database", "nested_samegen_database"]


def samegen_edges(
    layers: int,
    width: int,
    flat_edges: int,
    seed: int = 0,
) -> Dict[str, List[Tuple[str, str]]]:
    """Layered up/flat/down data.

    Nodes are ``l{layer}_{i}`` for layer in ``0..layers`` (0 = bottom,
    where queries start) and ``i < width``.  ``up`` connects layer k to
    layer k+1 (two parents each, wrapping), ``down`` mirrors ``up``
    (independently wired, seeded), and ``flat`` adds ``flat_edges`` random
    edges inside each layer ``1..layers`` (every layer but the bottom).
    """
    rng = random.Random(seed)
    up: List[Tuple[str, str]] = []
    down: List[Tuple[str, str]] = []
    for layer in range(layers):
        for i in range(width):
            child = f"l{layer}_{i}"
            up.append((child, f"l{layer + 1}_{i}"))
            up.append((child, f"l{layer + 1}_{(i + 1) % width}"))
            down.append((f"l{layer + 1}_{i}", child))
            down.append(
                (f"l{layer + 1}_{(i + rng.randrange(width)) % width}", child)
            )
    flat: List[Tuple[str, str]] = []
    for layer in range(1, layers + 1):
        for _ in range(flat_edges):
            a = rng.randrange(width)
            b = rng.randrange(width)
            flat.append((f"l{layer}_{a}", f"l{layer}_{b}"))
    return {"up": up, "flat": flat, "down": down}


def samegen_database(
    layers: int,
    width: int,
    flat_edges: Optional[int] = None,
    seed: int = 0,
) -> Database:
    """A database with up/flat/down relations for same-generation runs."""
    if flat_edges is None:
        flat_edges = width
    edge_sets = samegen_edges(layers, width, flat_edges, seed)
    database = Database()
    for relation, edges in edge_sets.items():
        database.add_values(relation, edges)
    return database


def nested_samegen_database(
    layers: int,
    width: int,
    seed: int = 0,
) -> Database:
    """Data for the nested same-generation program (Appendix A.1(3)).

    Adds ``b1``/``b2`` base relations (the nested program's exit and
    descend relations) on top of the same-generation layers.
    """
    database = samegen_database(layers, width, seed=seed)
    rng = random.Random(seed + 1)
    b1 = []
    b2 = []
    for i in range(width):
        b1.append((f"l0_{i}", f"l0_{(i + 1) % width}"))
        b2.append((f"l0_{i}", f"l0_{rng.randrange(width)}"))
    database.add_values("b1", b1)
    database.add_values("b2", b2)
    return database
