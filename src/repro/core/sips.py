"""Sideways information passing strategies (sips) -- Section 2.

A sip for a rule (under a head adornment) is a labeled graph.  Nodes are
the special head node ``p_h`` (the head predicate restricted to its bound
arguments) and the body literal *positions* of the rule.  An arc
``N -> q`` with label ``chi`` states: evaluate/join the predicates in
``N``, project on the variables ``chi``, and pass those values to
restrict the computation of the body occurrence ``q``.

The three validity conditions of Section 2 are enforced:

(2i)   every label variable appears in the tail;
(2ii)  every tail member is connected -- through variables of the tail
       join -- to a label variable;
(2iii) labels bind whole arguments: every label variable appears in some
       argument of the target all of whose variables are labeled.
(3)    the induced precedence relation is acyclic.

Builders are provided for the two sip families used throughout the paper:

* :func:`build_full_sip` -- the *left-to-right full compressed* sip
  (Example 1, sips (I)/(III)/(IV)): each arc's tail carries the head and
  every earlier literal, so all information gathered so far is passed on;
* :func:`build_chain_sip` -- the *no-memory partial* sip (Example 1,
  sips (II)/(V)): each arc's tail carries only the nearest preceding
  derived-or-head node plus the base literals after it, so "past"
  information is forgotten.

Both accept an evaluation ``order`` (a permutation of body positions), so
right-to-left or optimizer-chosen orders are sips too.

Negated body literals (stratified programs) are *consumers only*: an
anti-join receives bindings but produces none, so a negated occurrence
may be the target of an arc (the label records the variables the
positive part binds for it) but never joins a tail and never
contributes variables to later arcs.  Validation rejects hand-built
arcs whose tail contains a negated position.
"""

from __future__ import annotations

from typing import (
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from ..datalog.ast import Literal, Rule, validate_adornment
from ..datalog.errors import SipValidationError
from ..datalog.terms import Variable

__all__ = [
    "HEAD",
    "SipNode",
    "SipArc",
    "Sip",
    "SipBuilder",
    "build_full_sip",
    "build_chain_sip",
    "build_right_to_left_sip",
    "build_empty_sip",
    "sip_builder_with_order",
    "greedy_order",
]

#: The special head node ``p_h`` of Section 2.
HEAD = "ph"

SipNode = Union[int, str]
IsDerived = Callable[[Literal], bool]


class SipArc:
    """A labeled sip arc ``N -> target`` with label ``chi``."""

    __slots__ = ("tail", "target", "label")

    def __init__(
        self,
        tail: Iterable[SipNode],
        target: int,
        label: Iterable[Variable],
    ):
        tail = frozenset(tail)
        label = frozenset(label)
        if not isinstance(target, int):
            raise TypeError("sip arc target must be a body position (int)")
        for node in tail:
            if node != HEAD and not isinstance(node, int):
                raise TypeError(f"sip arc tail node {node!r} is invalid")
        if target in tail:
            raise SipValidationError(
                f"sip arc into position {target} includes the target in its "
                "own tail"
            )
        object.__setattr__(self, "tail", tail)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "label", label)

    def __setattr__(self, key, value):
        raise AttributeError("SipArc is immutable")

    def tail_positions(self) -> Tuple[int, ...]:
        """Body positions in the tail, ascending (HEAD excluded)."""
        return tuple(sorted(n for n in self.tail if isinstance(n, int)))

    def has_head(self) -> bool:
        return HEAD in self.tail

    def __eq__(self, other):
        return (
            isinstance(other, SipArc)
            and other.tail == self.tail
            and other.target == self.target
            and other.label == self.label
        )

    def __hash__(self):
        return hash((self.tail, self.target, self.label))

    def __repr__(self):
        tail = sorted(self.tail, key=lambda n: (-1, "") if n == HEAD else (n, ""))
        label = sorted(v.name for v in self.label)
        return f"SipArc({tail} -> {self.target} : {label})"


class Sip:
    """A validated sip graph for one rule under one head adornment."""

    __slots__ = ("rule", "adornment", "arcs", "_order")

    def __init__(self, rule: Rule, adornment: str, arcs: Iterable[SipArc]):
        validate_adornment(adornment, rule.head.arity)
        arcs = tuple(arcs)
        object.__setattr__(self, "rule", rule)
        object.__setattr__(self, "adornment", adornment)
        object.__setattr__(self, "arcs", arcs)
        object.__setattr__(self, "_order", None)
        self._validate()

    def __setattr__(self, key, value):
        raise AttributeError("Sip is immutable")

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------
    def bound_head_variables(self) -> FrozenSet[Variable]:
        """Variables of the head's bound arguments (the arguments of p_h)."""
        head = self.rule.head
        bound = set()
        for arg, letter in zip(head.args, self.adornment):
            if letter == "b":
                bound.update(arg.variables())
        return frozenset(bound)

    def has_head_node(self) -> bool:
        """False when no head argument is bound (p_h does not exist)."""
        return "b" in self.adornment

    def arcs_into(self, position: int) -> Tuple[SipArc, ...]:
        return tuple(arc for arc in self.arcs if arc.target == position)

    def incoming_label(self, position: int) -> FrozenSet[Variable]:
        """Union of labels of arcs entering a position (chi_i, Section 3)."""
        label: Set[Variable] = set()
        for arc in self.arcs_into(position):
            label.update(arc.label)
        return frozenset(label)

    def node_variables(self, node: SipNode) -> FrozenSet[Variable]:
        if node == HEAD:
            return self.bound_head_variables()
        return frozenset(self.rule.body[node].variables())

    # ------------------------------------------------------------------
    # validation: conditions (1)-(3) of Section 2
    # ------------------------------------------------------------------
    def _validate(self) -> None:
        n = len(self.rule.body)
        for arc in self.arcs:
            if not (0 <= arc.target < n):
                raise SipValidationError(
                    f"arc target {arc.target} out of range for rule "
                    f"{self.rule}"
                )
            for node in arc.tail:
                if node == HEAD:
                    if not self.has_head_node():
                        raise SipValidationError(
                            "arc tail refers to p_h but no head argument is "
                            f"bound in adornment {self.adornment!r}"
                        )
                    continue
                if not (0 <= node < n):
                    raise SipValidationError(
                        f"arc tail position {node} out of range"
                    )
                if self.rule.body[node].negated:
                    raise SipValidationError(
                        f"arc tail includes the negated literal "
                        f"{self.rule.body[node]}: negated occurrences "
                        "bind nothing (consumers only)"
                    )
            self._check_arc_conditions(arc)
        self._check_acyclic()

    def _check_arc_conditions(self, arc: SipArc) -> None:
        # (2i): each label variable appears in the tail
        tail_vars: Set[Variable] = set()
        for node in arc.tail:
            tail_vars.update(self.node_variables(node))
        missing = arc.label - tail_vars
        if missing:
            names = ", ".join(sorted(v.name for v in missing))
            raise SipValidationError(
                f"arc into position {arc.target}: label variables "
                f"{{{names}}} do not appear in the tail (condition 2i)"
            )
        # (2ii): each tail member is connected to a label variable through
        # the variables of the tail join
        connected = self._label_connected_nodes(arc.tail, arc.label)
        disconnected = arc.tail - connected
        if disconnected and arc.label:
            raise SipValidationError(
                f"arc into position {arc.target}: tail members "
                f"{sorted(map(str, disconnected))} are not connected to any "
                "label variable (condition 2ii)"
            )
        # (2iii): the label binds whole arguments of the target
        target_literal = self.rule.body[arc.target]
        covered_vars: Set[Variable] = set()
        for argument in target_literal.args:
            arg_vars = set(argument.variables())
            if arg_vars and arg_vars <= arc.label:
                covered_vars.update(arg_vars)
        uncovered = arc.label - covered_vars
        if uncovered:
            names = ", ".join(sorted(v.name for v in uncovered))
            raise SipValidationError(
                f"arc into position {arc.target}: label variables "
                f"{{{names}}} do not fully cover any argument of the target "
                "(condition 2iii)"
            )
        if arc.label and not covered_vars:
            raise SipValidationError(
                f"arc into position {arc.target}: no target argument is "
                "fully covered by the label (condition 2iii)"
            )

    def _label_connected_nodes(
        self, tail: FrozenSet[SipNode], label: FrozenSet[Variable]
    ) -> Set[SipNode]:
        """Tail members connected to a label variable within the tail join."""
        connected: Set[SipNode] = set()
        reached_vars: Set[Variable] = set(label)
        changed = True
        while changed:
            changed = False
            for node in tail:
                if node in connected:
                    continue
                node_vars = self.node_variables(node)
                if node_vars & reached_vars:
                    connected.add(node)
                    new_vars = node_vars - reached_vars
                    if new_vars:
                        reached_vars.update(new_vars)
                    changed = True
        return connected

    def _check_acyclic(self) -> None:
        # condition (3): the precedence relation must be a partial order
        order = self._topological_order()
        if order is None:
            raise SipValidationError(
                f"sip for rule {self.rule} induces a cyclic precedence "
                "relation (condition 3)"
            )

    def _topological_order(self) -> Optional[Tuple[int, ...]]:
        n = len(self.rule.body)
        in_sip: Set[int] = set()
        for arc in self.arcs:
            in_sip.add(arc.target)
            in_sip.update(p for p in arc.tail if isinstance(p, int))
        successors: Dict[int, Set[int]] = {i: set() for i in range(n)}
        indegree = {i: 0 for i in range(n)}
        for arc in self.arcs:
            for node in arc.tail:
                if isinstance(node, int) and arc.target not in successors[node]:
                    successors[node].add(arc.target)
                    indegree[arc.target] += 1
        # Kahn's algorithm; ties broken by (not-in-sip last, position)
        order: List[int] = []
        available = [
            i for i in range(n) if indegree[i] == 0
        ]
        while available:
            available.sort(key=lambda i: (i not in in_sip, i))
            node = available.pop(0)
            order.append(node)
            for succ in sorted(successors[node]):
                indegree[succ] -= 1
                if indegree[succ] == 0:
                    available.append(succ)
        if len(order) != n:
            return None
        return tuple(order)

    # ------------------------------------------------------------------
    # derived information
    # ------------------------------------------------------------------
    def total_order(self) -> Tuple[int, ...]:
        """A total order of body positions per condition (3').

        p_h is implicitly first; positions not in the sip come last; ties
        are broken by original position, so the order is deterministic.
        """
        cached = self._order
        if cached is None:
            cached = self._topological_order()
            object.__setattr__(self, "_order", cached)
        return cached

    def precedes(self) -> Dict[SipNode, Set[SipNode]]:
        """The transitive ``=>`` relation of Proposition 4.2.

        ``p => q`` when the sip has an arc ``N -> q`` with ``p`` in ``N``,
        closed transitively.
        """
        direct: Dict[SipNode, Set[SipNode]] = {}
        for arc in self.arcs:
            for node in arc.tail:
                direct.setdefault(node, set()).add(arc.target)
        closure: Dict[SipNode, Set[SipNode]] = {}

        def reach(node: SipNode) -> Set[SipNode]:
            if node in closure:
                return closure[node]
            seen: Set[SipNode] = set()
            frontier = list(direct.get(node, ()))
            while frontier:
                nxt = frontier.pop()
                if nxt in seen:
                    continue
                seen.add(nxt)
                frontier.extend(direct.get(nxt, ()))
            closure[node] = seen
            return seen

        for node in list(direct) + [HEAD]:
            reach(node)
        return closure

    # ------------------------------------------------------------------
    # containment and fullness (Section 2.1)
    # ------------------------------------------------------------------
    def contained_in(self, other: "Sip") -> bool:
        """Sip containment: G <= G' per Section 2.1.

        For each arc ``N -> q`` (label chi) of self there must be an arc
        ``N' -> q`` (label chi') of ``other`` with ``N <= N'`` and
        ``chi <= chi'``.
        """
        for arc in self.arcs:
            found = False
            for candidate in other.arcs_into(arc.target):
                if arc.tail <= candidate.tail and arc.label <= candidate.label:
                    found = True
                    break
            if not found:
                return False
        return True

    def properly_contained_in(self, other: "Sip") -> bool:
        return self.contained_in(other) and not other.contained_in(self)

    def is_full_for_order(self, is_derived: IsDerived) -> bool:
        """True when this sip equals the full sip built on its own order."""
        order = self.total_order()
        full = build_full_sip(
            self.rule, self.adornment, is_derived, order=order
        )
        return self.contained_in(full) and full.contained_in(self)

    def remapped(self, position_map: Dict[int, int], new_rule: Rule) -> "Sip":
        """Rebuild the sip after body reordering.

        ``position_map`` maps old positions to new ones.
        """
        new_arcs = []
        for arc in self.arcs:
            tail = frozenset(
                HEAD if node == HEAD else position_map[node]
                for node in arc.tail
            )
            new_arcs.append(SipArc(tail, position_map[arc.target], arc.label))
        return Sip(new_rule, self.adornment, tuple(new_arcs))

    def __repr__(self):
        return (
            f"Sip({self.rule.head.pred}^{self.adornment}, "
            f"{len(self.arcs)} arcs)"
        )

    def __str__(self):
        lines = [f"sip for {self.rule.head.pred}^{self.adornment}:"]
        for arc in self.arcs:
            tail_names = []
            for node in sorted(
                arc.tail, key=lambda n: (-1 if n == HEAD else n)
            ):
                if node == HEAD:
                    tail_names.append(f"{self.rule.head.pred}_h")
                else:
                    tail_names.append(str(self.rule.body[node]))
            label = ",".join(sorted(v.name for v in arc.label))
            target = self.rule.body[arc.target]
            lines.append(
                "  {" + ", ".join(tail_names) + "} --" + label + f"--> {target}"
            )
        return "\n".join(lines)


SipBuilder = Callable[[Rule, str, IsDerived], Sip]


# ----------------------------------------------------------------------
# builders
# ----------------------------------------------------------------------

def _covered_label(
    literal: Literal, available: Set[Variable]
) -> FrozenSet[Variable]:
    """Label variables passable to a literal per condition (2iii).

    The union of variables of the literal's arguments that are fully
    covered by the available variables.
    """
    label: Set[Variable] = set()
    for argument in literal.args:
        arg_vars = set(argument.variables())
        if arg_vars and arg_vars <= available:
            label.update(arg_vars)
    return frozenset(label)


def _trim_tail(
    sip_nodes: Iterable[SipNode],
    label: FrozenSet[Variable],
    node_vars: Callable[[SipNode], FrozenSet[Variable]],
) -> FrozenSet[SipNode]:
    """Drop tail members not connected to the label (condition 2ii)."""
    tail = set(sip_nodes)
    connected: Set[SipNode] = set()
    reached: Set[Variable] = set(label)
    changed = True
    while changed:
        changed = False
        for node in tail:
            if node in connected:
                continue
            variables = node_vars(node)
            if variables & reached:
                connected.add(node)
                reached.update(variables)
                changed = True
    return frozenset(connected)


def _default_order(rule: Rule, order: Optional[Sequence[int]]) -> Tuple[int, ...]:
    if order is None:
        return tuple(range(len(rule.body)))
    order = tuple(order)
    if sorted(order) != list(range(len(rule.body))):
        raise ValueError(
            f"order {order} is not a permutation of the body positions of "
            f"{rule}"
        )
    return order


def build_full_sip(
    rule: Rule,
    adornment: str,
    is_derived: IsDerived,
    order: Optional[Sequence[int]] = None,
) -> Sip:
    """The left-to-right full compressed sip (Example 1, (I)/(IV)).

    Processing body literals in ``order``, each literal receives an arc
    whose tail is the head node plus every earlier literal (trimmed per
    condition 2ii) and whose label is every variable that covers one of
    its arguments.  All available information is passed -- this is what
    PROLOG's left-to-right evaluation does, and the paper's default.
    """
    validate_adornment(adornment, rule.head.arity)
    order = _default_order(rule, order)
    head_bound: Set[Variable] = set()
    for arg, letter in zip(rule.head.args, adornment):
        if letter == "b":
            head_bound.update(arg.variables())

    def node_vars(node: SipNode) -> FrozenSet[Variable]:
        if node == HEAD:
            return frozenset(head_bound)
        return frozenset(rule.body[node].variables())

    arcs: List[SipArc] = []
    available: Set[Variable] = set(head_bound)
    seen_nodes: List[SipNode] = []
    if head_bound:
        seen_nodes.append(HEAD)
    for position in order:
        literal = rule.body[position]
        label = _covered_label(literal, available)
        if label and seen_nodes:
            tail = _trim_tail(seen_nodes, label, node_vars)
            if tail:
                arcs.append(SipArc(tail, position, label))
        if literal.negated:
            # consumer only: an anti-join binds nothing, so later
            # literals cannot draw information from it
            continue
        seen_nodes.append(position)
        available.update(literal.variables())
    return Sip(rule, adornment, tuple(arcs))


def build_chain_sip(
    rule: Rule,
    adornment: str,
    is_derived: IsDerived,
    order: Optional[Sequence[int]] = None,
) -> Sip:
    """The no-memory partial sip (Example 1, (II)/(V)).

    Each literal's arc carries only the *nearest preceding derived-or-head
    node* together with the base literals between that node and the
    target (the ``N1; N2`` generalized notation of Section 2): past
    information is not remembered, so the sip is partial.
    """
    validate_adornment(adornment, rule.head.arity)
    order = _default_order(rule, order)
    head_bound: Set[Variable] = set()
    for arg, letter in zip(rule.head.args, adornment):
        if letter == "b":
            head_bound.update(arg.variables())

    def node_vars(node: SipNode) -> FrozenSet[Variable]:
        if node == HEAD:
            return frozenset(head_bound)
        return frozenset(rule.body[node].variables())

    arcs: List[SipArc] = []
    # the chain of nodes processed so far, most recent last
    processed: List[SipNode] = []
    if head_bound:
        processed.append(HEAD)
    for position in order:
        literal = rule.body[position]
        # N = nearest preceding derived-or-head node, plus the base
        # literals after it
        tail_nodes: List[SipNode] = []
        for node in reversed(processed):
            tail_nodes.append(node)
            if node == HEAD:
                break
            if is_derived(rule.body[node]):
                break
        tail_vars: Set[Variable] = set()
        for node in tail_nodes:
            tail_vars.update(node_vars(node))
        label = _covered_label(literal, tail_vars)
        if label and tail_nodes:
            tail = _trim_tail(tail_nodes, label, node_vars)
            if tail:
                arcs.append(SipArc(tail, position, label))
        if literal.negated:
            # consumer only: never part of the remembered chain
            continue
        processed.append(position)
    return Sip(rule, adornment, tuple(arcs))


def build_right_to_left_sip(
    rule: Rule,
    adornment: str,
    is_derived: IsDerived,
) -> Sip:
    """A full compressed sip over the reversed body order.

    Useful when the query binds arguments that the *last* body literals
    consume (e.g. ``anc(X, constant)?``); see also :func:`greedy_order`
    for a data-independent heuristic.
    """
    order = tuple(reversed(range(len(rule.body))))
    return build_full_sip(rule, adornment, is_derived, order=order)


def build_empty_sip(
    rule: Rule,
    adornment: str,
    is_derived: IsDerived,
    order: Optional[Sequence[int]] = None,
) -> Sip:
    """A sip with no arcs: no information passing at all.

    Rewriting with this sip degenerates to plain bottom-up evaluation of
    the whole program (every derived predicate stays all-free), which is
    the Section 1 strawman and a useful baseline.
    """
    validate_adornment(adornment, rule.head.arity)
    return Sip(rule, adornment, ())


def sip_builder_with_order(
    base: Callable[..., Sip],
    order_fn: Callable[[Rule, str], Sequence[int]],
) -> SipBuilder:
    """Wrap a builder with a rule-specific body order function."""

    def builder(rule: Rule, adornment: str, is_derived: IsDerived) -> Sip:
        return base(rule, adornment, is_derived, order=order_fn(rule, adornment))

    return builder


def greedy_order(rule: Rule, adornment: str) -> Tuple[int, ...]:
    """A binding-maximizing evaluation order heuristic.

    Repeatedly choose the unprocessed literal with the most fully bound
    arguments under the variables available so far; ties prefer base-like
    small positions (original order).  With head bindings this mimics
    what a simple optimizer would pick.
    """
    available: Set[Variable] = set()
    for arg, letter in zip(rule.head.args, adornment):
        if letter == "b":
            available.update(arg.variables())
    remaining = list(range(len(rule.body)))
    order: List[int] = []
    while remaining:
        def score(position: int) -> Tuple[int, int]:
            literal = rule.body[position]
            bound_args = 0
            for argument in literal.args:
                arg_vars = set(argument.variables())
                if arg_vars and arg_vars <= available:
                    bound_args += 1
            return (-bound_args, position)

        remaining.sort(key=score)
        chosen = remaining.pop(0)
        order.append(chosen)
        if not rule.body[chosen].negated:
            # anti-joins consume bindings but produce none
            available.update(rule.body[chosen].variables())
    return tuple(order)
