"""Static analysis of programs: dependencies, recursion, blocks, strata.

Provides the predicate dependency graph, Tarjan strongly connected
components (the *blocks* of mutually recursive predicates used by the
semijoin optimization, Theorem 8.3), recursion/reachability queries, and
the stratification of programs with negated body literals (used by the
bottom-up engines to run stratum by stratum; the user-facing subsystem
API lives in :mod:`repro.core.stratify`).
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Set, Tuple

from .ast import Program
from .errors import StratificationError

__all__ = [
    "dependency_graph",
    "polarity_edges",
    "strongly_connected_components",
    "recursive_blocks",
    "is_recursive_predicate",
    "reachable_predicates",
    "depends_on",
    "stratify_rules",
]


def dependency_graph(program: Program) -> Dict[str, Set[str]]:
    """Map each derived predicate key to the predicate keys it depends on.

    ``p -> q`` when some rule with head ``p`` mentions ``q`` in its body.
    """
    graph: Dict[str, Set[str]] = {}
    for rule in program.rules:
        deps = graph.setdefault(rule.head.pred_key, set())
        for literal in rule.body:
            deps.add(literal.pred_key)
    return graph


def strongly_connected_components(
    graph: Dict[str, Set[str]]
) -> List[FrozenSet[str]]:
    """Tarjan's SCC algorithm (iterative), components in reverse
    topological order (callees before callers)."""
    index_counter = [0]
    stack: List[str] = []
    lowlink: Dict[str, int] = {}
    index: Dict[str, int] = {}
    on_stack: Set[str] = set()
    components: List[FrozenSet[str]] = []
    nodes = set(graph)
    for targets in graph.values():
        nodes.update(targets)

    def strongconnect(root: str) -> None:
        work = [(root, iter(sorted(graph.get(root, ()))))]
        index[root] = lowlink[root] = index_counter[0]
        index_counter[0] += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            node, successors = work[-1]
            advanced = False
            for succ in successors:
                if succ not in index:
                    index[succ] = lowlink[succ] = index_counter[0]
                    index_counter[0] += 1
                    stack.append(succ)
                    on_stack.add(succ)
                    work.append((succ, iter(sorted(graph.get(succ, ())))))
                    advanced = True
                    break
                if succ in on_stack:
                    lowlink[node] = min(lowlink[node], index[succ])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[node])
            if lowlink[node] == index[node]:
                component = set()
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.add(member)
                    if member == node:
                        break
                components.append(frozenset(component))

    for node in sorted(nodes):
        if node not in index:
            strongconnect(node)
    return components


def recursive_blocks(program: Program) -> List[FrozenSet[str]]:
    """Maximal sets of mutually recursive predicates (Section 8 'blocks').

    A singleton component counts as a block only when the predicate
    depends on itself.
    """
    graph = dependency_graph(program)
    blocks = []
    for component in strongly_connected_components(graph):
        if len(component) > 1:
            blocks.append(component)
            continue
        member = next(iter(component))
        if member in graph.get(member, ()):
            blocks.append(component)
    return blocks


def is_recursive_predicate(program: Program, pred_key: str) -> bool:
    """True when the predicate (transitively) depends on itself."""
    graph = dependency_graph(program)
    seen: Set[str] = set()
    frontier = list(graph.get(pred_key, ()))
    while frontier:
        node = frontier.pop()
        if node == pred_key:
            return True
        if node in seen:
            continue
        seen.add(node)
        frontier.extend(graph.get(node, ()))
    return False


def reachable_predicates(program: Program, roots: Iterable[str]) -> Set[str]:
    """Predicates reachable from the given roots in the dependency graph."""
    graph = dependency_graph(program)
    seen: Set[str] = set()
    frontier = list(roots)
    while frontier:
        node = frontier.pop()
        if node in seen:
            continue
        seen.add(node)
        frontier.extend(graph.get(node, ()))
    return seen


def depends_on(program: Program, pred_key: str, other: str) -> bool:
    """True when ``pred_key`` transitively depends on ``other``."""
    return other in reachable_predicates(program, [pred_key]) and (
        other != pred_key or is_recursive_predicate(program, pred_key)
    )


# ----------------------------------------------------------------------
# stratification (negation as failure, stratified semantics)
# ----------------------------------------------------------------------

def polarity_edges(program: Program) -> List[Tuple[str, str, bool]]:
    """The labelled dependency edges ``(head, dep, negative)``.

    ``negative`` is True when some rule with head ``head`` mentions
    ``dep`` under negation.  One edge per (head, dep, polarity) triple;
    a pair may carry both a positive and a negative edge.
    """
    seen: Set[Tuple[str, str, bool]] = set()
    edges: List[Tuple[str, str, bool]] = []
    for rule in program.rules:
        head_key = rule.head.pred_key
        for literal in rule.body:
            edge = (head_key, literal.pred_key, literal.negated)
            if edge not in seen:
                seen.add(edge)
                edges.append(edge)
    return edges


def stratify_rules(
    program: Program,
) -> Tuple[Dict[str, int], Tuple[Tuple[int, ...], ...]]:
    """Stratum numbers and the stratum-ordered rule partition.

    Returns ``(predicate_stratum, rule_strata)``: every predicate key of
    the program mapped to its stratum (base predicates sit at stratum 0;
    a negative dependency strictly increases the stratum), and the
    program's rule indexes grouped by head stratum, lowest first, with
    the original rule order preserved inside each group.

    Raises :class:`StratificationError` when the dependency graph has a
    cycle through negation (the program then has no stratified model --
    ``win(X) :- move(X, Y), not win(Y)`` on cyclic moves is the classic
    example).  A purely positive program yields a single stratum.
    """
    graph = dependency_graph(program)
    components = strongly_connected_components(graph)
    component_of: Dict[str, int] = {}
    for comp_id, component in enumerate(components):
        for node in component:
            component_of[node] = comp_id

    edges = polarity_edges(program)
    for head_key, dep_key, negative in edges:
        if negative and component_of[head_key] == component_of[dep_key]:
            cycle = sorted(components[component_of[head_key]])
            raise StratificationError(
                f"program is not stratified: {head_key} depends negatively "
                f"on {dep_key} inside the recursive component "
                f"{{{', '.join(cycle)}}}; no cycle of the dependency graph "
                "may pass through 'not'",
                cycle=cycle,
            )

    # components arrive callees-first (reverse topological), so every
    # dependency's stratum is final before its dependents are numbered
    component_stratum: Dict[int, int] = {}
    out_edges: Dict[int, List[Tuple[int, bool]]] = {}
    for head_key, dep_key, negative in edges:
        out_edges.setdefault(component_of[head_key], []).append(
            (component_of[dep_key], negative)
        )
    for comp_id in range(len(components)):
        stratum = 0
        for dep_comp, negative in out_edges.get(comp_id, ()):
            if dep_comp == comp_id:
                continue  # intra-component edges are positive (checked)
            candidate = component_stratum[dep_comp] + (1 if negative else 0)
            if candidate > stratum:
                stratum = candidate
        component_stratum[comp_id] = stratum

    predicate_stratum = {
        node: component_stratum[comp_id]
        for node, comp_id in component_of.items()
    }
    by_stratum: Dict[int, List[int]] = {}
    for rule_index, rule in enumerate(program.rules):
        stratum = predicate_stratum[rule.head.pred_key]
        by_stratum.setdefault(stratum, []).append(rule_index)
    rule_strata = tuple(
        tuple(by_stratum[stratum]) for stratum in sorted(by_stratum)
    )
    return predicate_stratum, rule_strata

