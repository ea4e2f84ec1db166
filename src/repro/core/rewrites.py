"""The four sip rewrites -- Sections 4-7.

Every rewrite takes the adorned program rule by rule along its sip and
makes the same three kinds of rules: for each body occurrence fed by a
sip arc, a rule collecting the bindings the arc passes to it; the
*modified* rule, which computes the head only for collected bindings;
and the query's *seed*.  The methods differ in two choices:

* **what carries the bindings** -- a magic predicate ``magic_p^a(x^b)``
  (Section 4, generalized magic sets), or a counting predicate
  ``cnt_p^a(I, K, H, x^b)`` whose index fields encode the derivation
  path, with the derived literals indexed as ``p_ix^a(I, K, H, x)``
  (Section 6, generalized counting).  A child of ``(I, K, H)`` through
  rule ``i``, occurrence ``j`` is ``(I+1, K*m+i, H*t+j)``, where ``m``
  is the number of adorned rules and ``t`` the maximal body length; the
  arithmetic lives in :class:`~repro.datalog.terms.LinExpr` terms,
  which the engine evaluates when ground and inverts when matching;
* **how prefixes are joined** -- re-joined in every arc rule and again
  in the modified rule (Sections 4 and 6), or stored once in
  *supplementary* predicates ``supmagicR_J`` / ``supcntR_J`` holding
  the join of the head bindings with body literals ``1 .. J-1``,
  projected on the variables still needed (Sections 5 and 7).  The
  eliminated ``sup_1`` is the head's own magic or counting literal.
  A rule whose head has no bound argument has no seed to anchor the
  chain and is rewritten as in Sections 4/6 (under supplementary magic
  its modified rule keeps no occurrence guards).

Several arcs into one occurrence go through *label rules* under the
magic carrier; the counting rules reject them.  With ``optimize=True``
a magic or counting literal dominated by one of a sip-predecessor is
deleted (Propositions 4.2/4.3, the simplified rule sets of Example 4
and Appendix A.3) and rules ``p :- p`` are dropped (Appendix A.3.2);
Lemma 6.2 drops the occurrence guards of the counting modified rule.

Stratified programs (conservative extension): the magic rewrites emit
arc rules only for *positive* body occurrences and join only positive
literals; negated literals ride along in the modified rule unchanged --
adorned all-free by :mod:`repro.core.adornment`, so their definitions
are computed completely and the anti-joins stay sound.  The counting
rewrites stay positive-only: an anti-join against an index-carrying
relation would compare derivation paths, not tuples.

Safety warning (Theorems 10.2/10.3): unlike magic sets, counting may
diverge -- on cyclic data, and statically whenever the query's
reachable argument graph is cyclic (e.g. the nonlinear ancestor
program, Appendix A.5.2).  Use
:func:`repro.core.safety.counting_terminates` before running, or
evaluation budgets.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from ..datalog.ast import Literal, Rule
from ..datalog.errors import RewriteError, UnsupportedProgramError
from ..datalog.terms import Constant, LinExpr, Variable
from .adornment import AdornedProgram, AdornedRule
from .naming import (
    counting_name,
    indexed_name,
    label_name,
    magic_name,
    supplementary_counting_name,
    supplementary_name,
)
from .provenance import (
    BodyOrigin,
    RewrittenProgram,
    RewrittenRule,
    RuleProvenance,
)
from .sips import HEAD, SipArc

__all__ = [
    "REWRITE_METHODS",
    "sip_rewrite",
    "magic_literal_for",
    "unbound_head_variables",
]

#: The four rewriting algorithms of Sections 4-7.
REWRITE_METHODS = (
    "magic",
    "supplementary_magic",
    "counting",
    "supplementary_counting",
)

#: index fields of the counting seed: the root of every derivation path
_SEED_INDEX = (Constant(0), Constant(0), Constant(0))

_Pairs = List[Tuple[Literal, BodyOrigin]]


def magic_literal_for(literal: Literal) -> Literal:
    """The magic literal of an adorned literal: ``magic_p^a(theta^b)``."""
    if literal.adornment is None:
        raise RewriteError(
            f"literal {literal} has no adornment; only adorned predicates "
            "have magic versions"
        )
    if "b" not in literal.adornment:
        raise RewriteError(
            f"literal {literal} has no bound arguments; all-free predicates "
            "have no magic version (their magic predicate would be the "
            "0-ary FALSE)"
        )
    return Literal(
        magic_name(literal.pred, literal.adornment), literal.bound_args()
    )


def unbound_head_variables(rule: Rule) -> List[Variable]:
    """Head variables no body literal binds (empty: range restricted)."""
    body_vars: Set[Variable] = set()
    for literal in rule.body:
        body_vars.update(literal.variables())
    return [v for v in rule.head.variables() if v not in body_vars]


def _bound(literal: Literal) -> bool:
    """A positive adorned literal with a bound argument: it has a magic
    (or counting) version."""
    return (
        not literal.negated
        and literal.adornment is not None
        and "b" in literal.adornment
    )


def _fed(adorned_rule: AdornedRule) -> List[Tuple[int, Tuple[SipArc, ...]]]:
    """``(position, arcs into it)`` of every bound occurrence an arc feeds."""
    out = []
    for position, literal in enumerate(adorned_rule.body):
        arcs = adorned_rule.sip.arcs_into(position)
        if arcs and _bound(literal):
            out.append((position, arcs))
    return out


def _fresh_var(base: str, taken: Set[str]) -> Variable:
    name = base
    while name in taken:
        name += "_"
    return Variable(name)


class _RuleEncoder:
    """Spells the literals of one adorned rule under a method's carrier.

    Magic carrier: ``magic_p^a(x^b)``, occurrences as adorned.  Counting
    carrier: ``cnt_p^a(index, x^b)``, and bound occurrences are indexed
    as ``p_ix^a(index, x)``; the head carries the index ``(I, K, H)``,
    body occurrence ``j`` of rule ``i`` its child ``(I+1, K*m+i, H*t+j)``.
    """

    def __init__(
        self,
        adorned_rule: AdornedRule,
        rule_index: int,
        counting: bool,
        adorned: AdornedProgram,
        registry: Dict[str, Tuple[str, str, str]],
    ):
        self.rule = adorned_rule
        self.rule_index = rule_index
        self.counting = counting
        self.registry = registry
        #: provenance role of the rules the carrier literals head
        self.carrier_role = "counting" if counting else "magic"
        self.head_index: tuple = ()
        if counting:
            taken = {v.name for v in adorned_rule.rule.variables()}
            self.head_index = tuple(_fresh_var(n, taken) for n in "IKH")
            self.rule_count = max(len(adorned.rules), 1)
            self.max_body = max(adorned.max_body_length(), 1)

    def _child_index(self, position: int) -> tuple:
        """The index of a body occurrence: the head's child through this
        rule and position (no index under the magic carrier)."""
        if not self.counting:
            return ()
        level, rule_code, occurrence_code = self.head_index
        return (
            LinExpr(level, 1, 1),
            LinExpr(rule_code, self.rule_count, self.rule_index + 1),
            LinExpr(occurrence_code, self.max_body, position + 1),
        )

    def _register(self, kind: str, name: str, literal: Literal) -> None:
        self.registry[name] = (kind, literal.pred, literal.adornment)

    def _carrier(self, literal: Literal, index: tuple) -> Literal:
        if not self.counting:
            return magic_literal_for(literal)
        name = counting_name(literal.pred, literal.adornment)
        self._register("counting", name, literal)
        return Literal(name, index + literal.bound_args())

    def _indexed(self, literal: Literal, index: tuple) -> Literal:
        if not (self.counting and _bound(literal)):
            return literal
        name = indexed_name(literal.pred, literal.adornment)
        self._register("indexed", name, literal)
        return Literal(name, index + literal.args)

    def guard(self) -> Literal:
        """The head's magic (counting) literal, ``p_h``."""
        return self._carrier(self.rule.head, self.head_index)

    def head(self) -> Literal:
        return self._indexed(self.rule.head, self.head_index)

    def carrier(self, position: int) -> Literal:
        """The magic (counting) literal of a body occurrence."""
        literal = self.rule.body[position]
        return self._carrier(literal, self._child_index(position))

    def occurrence(self, position: int, guarded: bool = False) -> _Pairs:
        """A body occurrence, after its carrier when ``guarded``."""
        literal = self.rule.body[position]
        pairs: _Pairs = []
        if guarded and _bound(literal):
            magic = BodyOrigin("magic", position)
            pairs.append((self.carrier(position), magic))
        pairs.append(
            (
                self._indexed(literal, self._child_index(position)),
                BodyOrigin("literal", position),
            )
        )
        return pairs

    def supplementary(self, position: int) -> Tuple[Literal, BodyOrigin]:
        """``sup_{position+1}``: head bindings joined with the body before
        ``position``; position 0 is the head's guard."""
        if position == 0:
            return self.guard(), BodyOrigin("guard", 0)
        head = self.rule.head
        available: Set[Variable] = set()
        for argument in head.bound_args():
            available.update(argument.variables())
        for literal in self.rule.body[:position]:
            available.update(literal.variables())
        needed: Set[Variable] = set(head.variables())
        for literal in self.rule.body[position:]:
            needed.update(literal.variables())
        phi = tuple(
            v for v in self.rule.rule.variables() if v in available & needed
        )
        rule_number = self.rule_index + 1
        if self.counting:
            name = supplementary_counting_name(rule_number, position + 1)
            self._register("sup", name, head)
            literal = Literal(name, self.head_index + phi)
        else:
            literal = Literal(supplementary_name(rule_number, position + 1), phi)
        return literal, BodyOrigin("supplementary", position)

    def rule_of(
        self,
        head: Literal,
        pairs: _Pairs,
        role: str,
        target: Optional[int] = None,
    ) -> RewrittenRule:
        return RewrittenRule(
            Rule(head, tuple(literal for literal, _ in pairs)),
            RuleProvenance(
                role=role,
                source_rule=self.rule_index,
                target_position=target,
                body_origins=tuple(origin for _, origin in pairs),
            ),
        )


def _arc_rules(enc: _RuleEncoder) -> List[RewrittenRule]:
    """Magic (counting) and label rules: each arc-fed occurrence's
    bindings, joined from the arc's tail."""
    role = enc.carrier_role
    out: List[RewrittenRule] = []
    for position, arcs in _fed(enc.rule):
        if enc.counting and len(arcs) > 1:
            raise RewriteError(
                "the counting transformation supports a single arc per "
                f"body occurrence; position {position} of rule "
                f"{enc.rule.rule} has {len(arcs)} (use magic sets, or "
                "merge the arcs)"
            )
        head = enc.carrier(position)
        if len(arcs) == 1:
            out.append(enc.rule_of(head, _tail(enc, arcs[0]), role, position))
            continue
        labels: _Pairs = []
        for arc_index, arc in enumerate(arcs):
            label = Literal(
                label_name(
                    enc.rule.body[position].pred,
                    enc.rule_index + 1,
                    position + 1,
                    arc_index,
                ),
                tuple(v for v in enc.rule.rule.variables() if v in arc.label),
            )
            out.append(enc.rule_of(label, _tail(enc, arc), "label", position))
            labels.append((label, BodyOrigin("label", position)))
        out.append(enc.rule_of(head, labels, role, position))
    return out


def _tail(enc: _RuleEncoder, arc: SipArc) -> _Pairs:
    """The body joining one arc's tail: head guard first, then the tail
    positions ascending, each behind its own carrier."""
    pairs: _Pairs = []
    if arc.has_head():
        pairs.append((enc.guard(), BodyOrigin("guard")))
    for position in arc.tail_positions():
        pairs.extend(enc.occurrence(position, guarded=True))
    return pairs


def _modified_rule(enc: _RuleEncoder, guarded: bool) -> RewrittenRule:
    """The original rule behind its head's guard; bound occurrences
    behind their own carriers when ``guarded``."""
    pairs: _Pairs = []
    if _bound(enc.rule.head):
        pairs.append((enc.guard(), BodyOrigin("guard")))
    for position in range(len(enc.rule.body)):
        pairs.extend(enc.occurrence(position, guarded))
    return enc.rule_of(enc.head(), pairs, "modified")


def _supplementary_rules(enc: _RuleEncoder) -> List[RewrittenRule]:
    """The supplementary chain ``sup_j :- sup_{j-1}, body[j-1]`` up to
    the last arc-fed occurrence, each arc rule projecting from its
    ``sup``, and the modified rule ``head :- sup_last, body[last..]``."""
    fed = _fed(enc.rule)
    last = fed[-1][0] if fed else 0
    role = "supplementary_counting" if enc.counting else "supplementary"
    out = []
    for position in range(1, last + 1):
        pairs = [enc.supplementary(position - 1)]
        pairs.extend(enc.occurrence(position - 1))
        head, _ = enc.supplementary(position)
        out.append(enc.rule_of(head, pairs, role, position))
    for position, _ in fed:
        out.append(
            enc.rule_of(
                enc.carrier(position),
                [enc.supplementary(position)],
                enc.carrier_role,
                position,
            )
        )
    pairs = [enc.supplementary(last)]
    for position in range(last, len(enc.rule.body)):
        pairs.extend(enc.occurrence(position))
    out.append(enc.rule_of(enc.head(), pairs, "modified"))
    return out


def sip_rewrite(
    adorned: AdornedProgram, method: str, optimize: bool = True
) -> RewrittenProgram:
    """Rewrite an adorned program by one of :data:`REWRITE_METHODS`."""
    if method not in REWRITE_METHODS:
        raise ValueError(
            f"unknown rewrite method {method!r}; expected one of "
            f"{REWRITE_METHODS}"
        )
    counting = method.endswith("counting")
    supplementary = method.startswith("supplementary")
    if counting:
        _reject_negation(adorned, method.replace("_", " "))
    # Lemma 6.2: counting's modified rules need no occurrence guards;
    # the supplementary magic fallback has none either
    guarded = not optimize if counting else not supplementary
    registry: Dict[str, Tuple[str, str, str]] = {}
    rules: List[RewrittenRule] = []
    for rule_index, adorned_rule in enumerate(adorned.rules):
        enc = _RuleEncoder(adorned_rule, rule_index, counting, adorned, registry)
        if supplementary and _bound(adorned_rule.head):
            rules.extend(_supplementary_rules(enc))
        else:
            rules.extend(_arc_rules(enc))
            rules.append(_modified_rule(enc, guarded))
    if optimize:
        # Propositions 4.2/4.3, and no p :- p (Appendix A.3.2)
        rules = [
            rr
            for rr in (_prune_dominated(rr, adorned) for rr in rules)
            if not (len(rr.rule.body) == 1 and rr.rule.body[0] == rr.rule.head)
        ]
    if counting:
        for rr in rules:
            _check_range_restricted(rr.rule)
    return _finish(adorned, method, counting, rules, registry)


def _finish(
    adorned: AdornedProgram,
    method: str,
    counting: bool,
    rules: List[RewrittenRule],
    registry: Dict[str, Tuple[str, str, str]],
) -> RewrittenProgram:
    """The seed, answer selection/projection, index arity and registry."""
    query_literal = adorned.query_literal
    index_arity = len(_SEED_INDEX) if counting else 0
    seeds: Tuple[Literal, ...] = ()
    answer_key = query_literal.pred_key
    offset = 0
    if "b" in query_literal.adornment:
        if counting:
            seeds = (
                Literal(
                    counting_name(query_literal.pred, query_literal.adornment),
                    _SEED_INDEX + query_literal.bound_args(),
                ),
            )
            answer_key = indexed_name(
                query_literal.pred, query_literal.adornment
            )
            offset = index_arity
        else:
            seeds = (magic_literal_for(query_literal),)
    args = query_literal.args
    return RewrittenProgram(
        method=method,
        rules=rules,
        seed_facts=seeds,
        query=adorned.query,
        answer_pred_key=answer_key,
        answer_selection=tuple(
            (offset + i, arg) for i, arg in enumerate(args) if arg.is_ground()
        ),
        answer_projection=tuple(
            offset + i for i, arg in enumerate(args) if not arg.is_ground()
        ),
        adorned=adorned,
        index_arity=index_arity,
        registry=registry,
    )


def _reject_negation(adorned: AdornedProgram, method: str) -> None:
    if adorned.original.has_negation():
        offender = next(
            lit
            for rule in adorned.original.rules
            for lit in rule.body
            if lit.negated
        )
        raise UnsupportedProgramError(
            f"program contains the negated literal {offender}: the "
            f"{method} rewrite is defined for positive programs only; "
            "use --method magic/supplementary_magic (or --method auto, "
            "which resolves to the magic family) for stratified programs"
        )


def _check_range_restricted(rule: Rule) -> None:
    """Reject rules whose head index variables cannot be bound: partial
    sips whose arcs carry no index-bearing literal (all-base tails
    feeding an indexed target)."""
    missing = unbound_head_variables(rule)
    if not missing:
        return
    names = ", ".join(v.name for v in missing)
    raise RewriteError(
        f"counting rule {rule} cannot bind index variables {{{names}}}; "
        "the chosen sip passes bindings through a tail with no indexed "
        "or counting literal (see Section 6: such sips cannot be "
        "indexed -- use the magic-sets methods instead)"
    )


def _prune_dominated(
    rewritten_rule: RewrittenRule, adorned: AdornedProgram
) -> RewrittenRule:
    """Apply the deletions of Proposition 4.2 to one rewritten rule.

    A magic (or guard) literal corresponding to sip node ``p_j`` is
    deleted when the rule also contains a magic literal for ``p_i`` with
    ``p_i => p_j`` in the sip's precedence relation: the earlier magic
    literal (together with the tail literals) already enforces the
    restriction.
    """
    provenance = rewritten_rule.provenance
    precedes = adorned.rules[provenance.source_rule].sip.precedes()
    nodes: List[Optional[object]] = []
    for origin in provenance.body_origins:
        if origin.kind == "guard":
            nodes.append(HEAD)
        elif origin.kind == "magic":
            nodes.append(origin.position)
        else:
            nodes.append(None)
    magic_nodes = {n for n in nodes if n is not None}
    keep = [
        index
        for index, node in enumerate(nodes)
        if node is None
        or not any(
            other != node and node in precedes.get(other, ())
            for other in magic_nodes
        )
    ]
    if len(keep) == len(nodes):
        return rewritten_rule
    return rewritten_rule.with_rule(
        Rule(
            rewritten_rule.rule.head,
            tuple(rewritten_rule.rule.body[i] for i in keep),
        ),
        tuple(provenance.body_origins[i] for i in keep),
    )
