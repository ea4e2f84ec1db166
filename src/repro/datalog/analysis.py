"""Static analysis of programs: the dependency graph and its strata.

The one module that knows the predicate dependency graph, its strongly
connected components (Tarjan) and the stratification of programs with
negated body literals.

The paper's programs are positive Horn clauses, but the scenarios magic
sets are routinely applied to -- bill-of-materials with exception lists,
reachability avoiding a node set, set-difference views -- need negated
body literals.  :func:`stratify` supplies the classic *stratified*
semantics [Apt, Blair & Walden; Van Gelder]: it labels every dependency
edge with its polarity, rejects a program whose dependency graph has a
cycle through negation (:class:`StratificationError`: such a program
has no stratified model), and otherwise numbers the strata -- base
predicates at stratum 0, every positive dependency within a stratum,
every negative one pointing strictly downward.

The bottom-up engines run each stratum to its fixpoint before any
higher stratum starts (:class:`~repro.datalog.planner.CompiledProgram`
holds the partition), so a negated literal always probes a *completed*
relation and negation-as-failure coincides with set complement.  The
magic/supplementary rewrites accept stratified programs through the
conservative extension (Balbin et al.) in :mod:`repro.core.adornment`:
bindings are never pushed through negation, and the rewrite pipeline
re-stratifies its output with a ``context`` naming the rewrite (the
conservative rewrite preserves stratifiability, so a failure there is a
broken invariant, not a bad input).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Set, Tuple

from .ast import Program
from .errors import StratificationError

__all__ = [
    "dependency_graph",
    "polarity_edges",
    "strongly_connected_components",
    "Stratification",
    "stratify",
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


@dataclass(frozen=True)
class Stratification:
    """A stratum ordering for a program.

    ``predicate_stratum`` maps every predicate key (base and derived) to
    its stratum number; ``rule_strata`` partitions the program's rule
    indexes by head stratum, lowest stratum first, original rule order
    preserved within a stratum.
    """

    program: Program
    predicate_stratum: Dict[str, int]
    rule_strata: Tuple[Tuple[int, ...], ...]

    def __len__(self) -> int:
        """The number of (non-empty) rule strata."""
        return len(self.rule_strata)

    def stratum_of(self, pred_key: str) -> int:
        """The stratum of a predicate (base predicates sit at 0)."""
        return self.predicate_stratum.get(pred_key, 0)

    def __str__(self) -> str:
        lines: List[str] = []
        for number, indexes in enumerate(self.rule_strata):
            heads = sorted(
                {self.program.rules[i].head.pred_key for i in indexes}
            )
            lines.append(
                f"stratum {number}: {', '.join(heads)} "
                f"({len(indexes)} rules)"
            )
        return "\n".join(lines)


def stratify(program: Program, context: str = "") -> Stratification:
    """Stratify a program, rejecting recursion through negation.

    Raises :class:`StratificationError` when the dependency graph has a
    cycle through negation (the program then has no stratified model --
    ``win(X) :- move(X, Y), not win(Y)`` on cyclic moves is the classic
    example); a non-empty ``context`` prefixes its message.  A purely
    positive program yields a single stratum, so the engines can
    stratify unconditionally.
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
            message = (
                f"program is not stratified: {head_key} depends negatively "
                f"on {dep_key} inside the recursive component "
                f"{{{', '.join(cycle)}}}; no cycle of the dependency graph "
                "may pass through 'not'"
            )
            raise StratificationError(
                f"{context}: {message}" if context else message, cycle=cycle
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
    return Stratification(program, predicate_stratum, rule_strata)
