"""Safety of the rewritten programs -- Section 10.

Does bottom-up evaluation of the rewritten rules terminate after
computing all answers?  The paper's tools, all implemented here:

* **Binding graph + term lengths (Theorem 10.1).**  Nodes are adorned
  predicates; an arc ``[r_i, j]`` runs from the head of adorned rule
  ``r_i`` to its ``j``-th body occurrence.  The *arc length* is the total
  length of the head's bound arguments minus that of the body
  occurrence's bound arguments, where ``|t|`` is 1 for a constant and
  ``1 + sum |t_i|`` for a function term; variable lengths are unknowns
  ``>= 1`` (callers may supply tighter bounds from knowledge of the base
  relations, as Sacca & Zaniolo suggest).  If every cycle has positive
  length, the generalized magic and counting rewrites terminate: each
  round of subquery generation strictly shrinks the bound arguments.
* **Datalog (Theorem 10.2).**  The magic-sets strategies are always safe
  on Datalog: only finitely many facts exist over the given constants.
* **Argument graph (Theorem 10.3).**  For Datalog, counting diverges
  whenever the query's reachable argument graph is cyclic: the same
  binding is re-derived at ever-growing index values (the nonlinear
  ancestor program of Appendix A.5.2 is the canonical example).

Cycle-positivity over per-arc lower bounds is decided exactly by
Bellman-Ford on scaled weights (a cycle of total length <= 0 exists iff
the scaled graph has a negative cycle).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Set, Tuple

from ..datalog.ast import Literal, Program
from ..datalog.errors import UnsafeNegationError
from ..datalog.terms import Constant, LinExpr, Struct, Term, Variable
from .adornment import AdornedProgram

__all__ = [
    "LengthPolynomial",
    "term_length_polynomial",
    "BindingArc",
    "BindingGraph",
    "binding_graph",
    "all_cycles_positive",
    "argument_graph",
    "argument_graph_cyclic",
    "SafetyReport",
    "magic_safety",
    "counting_safety",
    "negation_safety",
]


@dataclass(frozen=True)
class LengthPolynomial:
    """A linear polynomial ``const + sum coeff_v * |v|`` over variable
    lengths (Section 10's symbolic term lengths)."""

    const: int = 0
    coeffs: Tuple[Tuple[str, int], ...] = ()

    def coeff_map(self) -> Dict[str, int]:
        return dict(self.coeffs)

    def __add__(self, other: "LengthPolynomial") -> "LengthPolynomial":
        coeffs = self.coeff_map()
        for name, coeff in other.coeffs:
            coeffs[name] = coeffs.get(name, 0) + coeff
        return LengthPolynomial(
            self.const + other.const,
            tuple(sorted((n, c) for n, c in coeffs.items() if c != 0)),
        )

    def __sub__(self, other: "LengthPolynomial") -> "LengthPolynomial":
        negated = LengthPolynomial(
            -other.const, tuple((n, -c) for n, c in other.coeffs)
        )
        return self + negated

    def lower_bound(
        self, var_bounds: Optional[Mapping[str, Tuple[int, Optional[int]]]] = None
    ) -> Optional[int]:
        """Smallest possible value; None when unbounded below.

        ``var_bounds`` maps variable names to ``(lower, upper)`` length
        bounds; the default is ``(1, None)`` (every term has length >= 1).
        """
        total = self.const
        for name, coeff in self.coeffs:
            lower, upper = (1, None)
            if var_bounds and name in var_bounds:
                lower, upper = var_bounds[name]
            if coeff > 0:
                total += coeff * lower
            else:
                if upper is None:
                    return None
                total += coeff * upper
        return total

    def __str__(self):
        parts = [str(self.const)] if self.const or not self.coeffs else []
        for name, coeff in self.coeffs:
            if coeff == 1:
                parts.append(f"|{name}|")
            else:
                parts.append(f"{coeff}*|{name}|")
        return " + ".join(parts) if parts else "0"


def term_length_polynomial(term: Term) -> LengthPolynomial:
    """The symbolic length ``|t|`` of a term (Section 10)."""
    if isinstance(term, Constant):
        return LengthPolynomial(1)
    if isinstance(term, Variable):
        return LengthPolynomial(0, ((term.name, 1),))
    if isinstance(term, Struct):
        total = LengthPolynomial(1)
        for argument in term.args:
            total = total + term_length_polynomial(argument)
        return total
    if isinstance(term, LinExpr):
        # index expressions denote integers; treat as unit length
        return LengthPolynomial(1)
    raise TypeError(f"cannot measure term {term!r}")


def _bound_args_length(literal: Literal) -> LengthPolynomial:
    total = LengthPolynomial(0)
    for argument in literal.bound_args():
        total = total + term_length_polynomial(argument)
    return total


@dataclass(frozen=True)
class BindingArc:
    """An arc ``[rule, position]`` of the binding graph with its length."""

    source: str  # adorned predicate key of the rule head
    target: str  # adorned predicate key of the body occurrence
    rule_index: int
    position: int
    length: LengthPolynomial


@dataclass
class BindingGraph:
    """The binding graph of a query (Section 10)."""

    root: str
    arcs: List[BindingArc] = field(default_factory=list)

    def nodes(self) -> Set[str]:
        out = {self.root}
        for arc in self.arcs:
            out.add(arc.source)
            out.add(arc.target)
        return out

    def successors(self, node: str) -> List[BindingArc]:
        return [arc for arc in self.arcs if arc.source == node]


def binding_graph(adorned: AdornedProgram) -> BindingGraph:
    """Build the binding graph of the adorned program's query."""
    graph = BindingGraph(root=adorned.query_literal.pred_key)
    for rule_index, adorned_rule in enumerate(adorned.rules):
        head = adorned_rule.head
        head_length = _bound_args_length(head)
        for position, literal in enumerate(adorned_rule.body):
            if literal.adornment is None:
                continue
            arc_length = head_length - _bound_args_length(literal)
            graph.arcs.append(
                BindingArc(
                    source=head.pred_key,
                    target=literal.pred_key,
                    rule_index=rule_index,
                    position=position,
                    length=arc_length,
                )
            )
    return graph


def all_cycles_positive(
    graph: BindingGraph,
    var_bounds: Optional[Mapping[str, Tuple[int, Optional[int]]]] = None,
) -> Optional[bool]:
    """Certify that every binding-graph cycle has positive length.

    Returns True when certified (Theorem 10.1 applies), None when some
    arc's length is unbounded below (cannot certify), False when a cycle
    of total lower-bound <= 0 exists (no certificate; the program may or
    may not terminate).
    """
    weights: Dict[Tuple[str, str], int] = {}
    for arc in graph.arcs:
        lower = arc.length.lower_bound(var_bounds)
        if lower is None:
            # an unbounded arc only matters when it can lie on a cycle,
            # i.e. its target reaches back to its source
            if arc.source in _reachable(graph, arc.target):
                return None
            continue
        key = (arc.source, arc.target)
        if key not in weights or lower < weights[key]:
            weights[key] = lower

    # a cycle of total weight <= 0 exists iff the scaled graph
    # (w -> w * K - 1, K > number of edges) has a negative cycle
    edges = list(weights.items())
    if not edges:
        return True
    scale = len(edges) + 1
    nodes = sorted({n for (src, dst) in weights for n in (src, dst)})
    distance = {node: 0 for node in nodes}
    for _ in range(len(nodes)):
        changed = False
        for (src, dst), weight in edges:
            scaled = weight * scale - 1
            if distance[src] + scaled < distance[dst]:
                distance[dst] = distance[src] + scaled
                changed = True
        if not changed:
            return True
    for (src, dst), weight in edges:
        scaled = weight * scale - 1
        if distance[src] + scaled < distance[dst]:
            return False
    return True


def _reachable(graph: BindingGraph, root: str) -> Set[str]:
    seen = {root}
    frontier = [root]
    while frontier:
        node = frontier.pop()
        for arc in graph.successors(node):
            if arc.target not in seen:
                seen.add(arc.target)
                frontier.append(arc.target)
    return seen


# ----------------------------------------------------------------------
# argument graph (Theorem 10.3)
# ----------------------------------------------------------------------

ArgNode = Tuple[str, int]


def argument_graph(adorned: AdornedProgram) -> Dict[ArgNode, Set[ArgNode]]:
    """The argument graph of a Datalog query (Section 10).

    Nodes are ``(adorned predicate key, bound argument position)``; an
    arc connects a head's bound position to a body occurrence's bound
    position when they share a variable.
    """
    graph: Dict[ArgNode, Set[ArgNode]] = {}
    for adorned_rule in adorned.rules:
        head = adorned_rule.head
        if head.adornment is None:
            continue
        head_positions = [
            (m, set(head.args[m].variables()))
            for m in head.bound_positions()
        ]
        for literal in adorned_rule.body:
            if literal.adornment is None:
                continue
            for n in literal.bound_positions():
                body_vars = set(literal.args[n].variables())
                for m, head_vars in head_positions:
                    if head_vars & body_vars:
                        graph.setdefault((head.pred_key, m), set()).add(
                            (literal.pred_key, n)
                        )
    return graph


def argument_graph_cyclic(adorned: AdornedProgram) -> bool:
    """True when the query's reachable argument graph has a cycle."""
    graph = argument_graph(adorned)
    query = adorned.query_literal
    roots = [
        (query.pred_key, m)
        for m, letter in enumerate(query.adornment)
        if letter == "b"
    ]
    # restrict to nodes reachable from the query's bound positions
    reachable: Set[ArgNode] = set()
    frontier = list(roots)
    while frontier:
        node = frontier.pop()
        if node in reachable:
            continue
        reachable.add(node)
        frontier.extend(graph.get(node, ()))
    # cycle detection by coloring
    WHITE, GRAY, BLACK = 0, 1, 2
    color = {node: WHITE for node in reachable}

    def has_cycle(start: ArgNode) -> bool:
        stack = [(start, iter(sorted(graph.get(start, ()))))]
        color[start] = GRAY
        while stack:
            node, successors = stack[-1]
            advanced = False
            for succ in successors:
                if succ not in reachable:
                    continue
                if color[succ] == GRAY:
                    return True
                if color[succ] == WHITE:
                    color[succ] = GRAY
                    stack.append((succ, iter(sorted(graph.get(succ, ())))))
                    advanced = True
                    break
            if not advanced:
                color[node] = BLACK
                stack.pop()
        return False

    for node in sorted(reachable):
        if color[node] == WHITE and has_cycle(node):
            return True
    return False


# ----------------------------------------------------------------------
# verdicts
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class SafetyReport:
    """A safety verdict: ``safe`` is True (certified terminating), False
    (certified non-terminating), or None (no certificate either way)."""

    safe: Optional[bool]
    theorem: str
    reason: str

    def __bool__(self):
        return bool(self.safe)


def magic_safety(
    adorned: AdornedProgram,
    var_bounds: Optional[Mapping[str, Tuple[int, Optional[int]]]] = None,
) -> SafetyReport:
    """Safety of the magic-sets rewrites (Theorems 10.1 / 10.2)."""
    if adorned.original.is_datalog():
        return SafetyReport(
            safe=True,
            theorem="10.2",
            reason="Datalog program: finitely many facts over the given "
            "constants, so the magic-sets strategies are safe",
        )
    verdict = all_cycles_positive(binding_graph(adorned), var_bounds)
    if verdict is True:
        return SafetyReport(
            safe=True,
            theorem="10.1",
            reason="every binding-graph cycle has positive length: bound "
            "arguments strictly shrink along every recursive call",
        )
    if verdict is None:
        return SafetyReport(
            safe=None,
            theorem="10.1",
            reason="some arc length is unbounded below (supply variable "
            "length bounds from the base relations to tighten)",
        )
    return SafetyReport(
        safe=None,
        theorem="10.1",
        reason="a binding-graph cycle of non-positive length exists; no "
        "termination certificate (the program may still terminate on "
        "specific databases)",
    )


# ----------------------------------------------------------------------
# safe negation (range restriction for negation-as-failure)
# ----------------------------------------------------------------------

def negation_safety(program: Program) -> SafetyReport:
    """A :class:`SafetyReport` for a program's use of negation.

    ``safe=True`` when every rule passes :meth:`Rule.check_safe_negation`
    (vacuously for positive programs); ``safe=False`` with the first
    offending rule in the reason otherwise.
    """
    for rule in program.rules:
        try:
            rule.check_safe_negation()
        except UnsafeNegationError as exc:
            return SafetyReport(
                safe=False,
                theorem="safe negation",
                reason=str(exc),
            )
    if program.has_negation():
        reason = (
            "every negated literal is range-restricted by positive "
            "literals of its rule"
        )
    else:
        reason = "positive program: no negation to restrict"
    return SafetyReport(safe=True, theorem="safe negation", reason=reason)


def counting_safety(
    adorned: AdornedProgram,
    var_bounds: Optional[Mapping[str, Tuple[int, Optional[int]]]] = None,
    assume_acyclic_data: bool = False,
) -> SafetyReport:
    """Safety of the counting rewrites (Theorems 10.1 / 10.3)."""
    if adorned.original.is_datalog():
        if argument_graph_cyclic(adorned):
            return SafetyReport(
                safe=False,
                theorem="10.3",
                reason="the query's reachable argument graph is cyclic: "
                "the seed binding is re-derived at ever-growing indices, "
                "so the counting strategies do not terminate (for any "
                "database making the cycle reachable)",
            )
        if assume_acyclic_data:
            return SafetyReport(
                safe=True,
                theorem="10.3",
                reason="acyclic argument graph and (assumed) acyclic "
                "data: index depth is bounded by the data's depth",
            )
        return SafetyReport(
            safe=None,
            theorem="10.3",
            reason="acyclic argument graph, but cyclic *data* can still "
            "make the counting indices grow forever; pass "
            "assume_acyclic_data=True if the database is known acyclic",
        )
    verdict = all_cycles_positive(binding_graph(adorned), var_bounds)
    if verdict is True:
        return SafetyReport(
            safe=True,
            theorem="10.1",
            reason="every binding-graph cycle has positive length, which "
            "bounds the recursion depth and hence the index growth",
        )
    return SafetyReport(
        safe=None,
        theorem="10.1",
        reason="no positive-cycle certificate for this non-Datalog "
        "program; counting may diverge",
    )
