"""Provenance records and the common result type of the rewriters.

Every rule a rewriting algorithm emits carries a :class:`RuleProvenance`
describing where it came from: which adorned rule, which body occurrence,
which sip arc, and the *origin* of every body literal.  The semijoin
optimization (Section 8) and the appendix-comparison benchmarks are
written against this metadata.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Dict, List, Optional, Set, Tuple

from ..datalog.ast import Literal, Program, Query, Rule
from ..datalog.database import Database
from ..datalog.engine import EvaluationResult
from ..datalog.terms import Term

__all__ = [
    "BodyOrigin",
    "RuleProvenance",
    "RewrittenRule",
    "RewrittenProgram",
]


@dataclass(frozen=True)
class BodyOrigin:
    """Origin of one body literal of a rewritten rule.

    ``kind`` is one of:

    * ``"guard"``        -- the magic/counting literal of the rule head (p_h);
    * ``"magic"``        -- a magic/counting literal guarding body position
                            ``position``;
    * ``"literal"``      -- the (possibly indexed) copy of body position
                            ``position`` of the source adorned rule;
    * ``"supplementary"``-- a supplementary predicate covering body
                            positions ``< position``;
    * ``"label"``        -- a label literal (multi-arc targets).
    """

    kind: str
    position: Optional[int] = None


@dataclass(frozen=True)
class RuleProvenance:
    """Where a rewritten rule came from.

    ``role`` is one of ``"magic"``, ``"modified"``, ``"supplementary"``,
    ``"counting"``, ``"supplementary_counting"``, ``"label"``.
    ``source_rule`` is the index of the adorned rule (0-based) in the
    adorned program; ``target_position`` the body occurrence the rule
    feeds (for magic/counting/label/supplementary rules).
    ``body_origins`` parallels the rewritten rule's body literals.
    """

    role: str
    source_rule: Optional[int] = None
    target_position: Optional[int] = None
    body_origins: Tuple[BodyOrigin, ...] = ()


@dataclass(frozen=True)
class RewrittenRule:
    """A rewritten rule together with its provenance."""

    rule: Rule
    provenance: RuleProvenance

    def with_rule(self, rule: Rule, body_origins=None) -> "RewrittenRule":
        prov = self.provenance
        if body_origins is not None:
            prov = replace(prov, body_origins=tuple(body_origins))
        return RewrittenRule(rule, prov)


@dataclass
class RewrittenProgram:
    """The output of a rewriting algorithm, ready for bottom-up evaluation.

    ``seed_facts`` are the query-specific seeds: the paper keeps them out
    of ``P^mg`` so the rewrite can be reused across queries of the same
    form, and :meth:`bind` is that reuse -- the query's constants appear
    in ``seed_facts``, ``answer_selection``, ``query`` and
    ``adorned.query_literal`` and nowhere else, so a rewrite of a
    :meth:`~repro.datalog.ast.Query.shape` serves every query of the
    shape (:class:`repro.session.Session` rewrites once per shape and
    binds per query).  :meth:`seeded_database` adds the seeds to a
    database snapshot.

    Answer extraction: the rewritten program computes the query's
    predicate under ``answer_pred_key``; rows are filtered by
    ``answer_selection`` (position -> required constant), projected on
    ``answer_projection`` (positions listed in the order of the query's
    non-ground arguments) and matched against those arguments.  The
    counting rewrites prefix index fields and the semijoin optimization
    may drop bound argument positions; both adjust this metadata rather
    than burden the caller.

    ``rules`` and ``registry`` are not to be changed once the rewrite is
    built: :attr:`program` and the mirror table of
    :meth:`seeded_database` are computed from them once, and bound
    copies share all four.
    """

    method: str
    rules: List[RewrittenRule]
    seed_facts: Tuple[Literal, ...]
    query: Query
    answer_pred_key: str
    answer_selection: Tuple[Tuple[int, Term], ...]
    answer_projection: Tuple[int, ...]
    adorned: object = None  # AdornedProgram; typed loosely to avoid cycles
    index_arity: int = 0
    #: generated predicate name -> ("indexed" | "counting" | "sup",
    #: original predicate, adornment); used by the semijoin optimization
    registry: Dict[str, Tuple[str, str, str]] = field(default_factory=dict)

    @cached_property
    def program(self) -> Program:
        return Program(tuple(rr.rule for rr in self.rules))

    def bind(self, query: Query) -> "RewrittenProgram":
        """This rewrite of a query shape, with ``query``'s constants in
        place of the placeholders.

        The copy shares the rules and what is derived from them (one
        :attr:`program` object for every query of the shape, so the
        compiled plans are found by identity); the receiver is left as
        it was.
        """
        bound = copy.copy(self)
        bound.query = query
        bound.adorned = self.adorned.bind(query)
        bound.seed_facts = tuple(
            Literal(
                seed.pred,
                tuple(query.fill(arg) for arg in seed.args),
                seed.adornment,
            )
            for seed in self.seed_facts
        )
        bound.answer_selection = tuple(
            (position, query.fill(term))
            for position, term in self.answer_selection
        )
        return bound

    @cached_property
    def mirror_targets(self) -> Tuple[Tuple[str, tuple], ...]:
        """``(original derived predicate, its adorned versions as
        sorted (pred_key, arity) pairs)``, for :meth:`seeded_database`."""
        mirror: Dict[str, Set[Tuple[str, int]]] = {}
        for rewritten_rule in self.rules:
            head = rewritten_rule.rule.head
            if head.adornment is None or head.pred_key == head.pred:
                continue
            mirror.setdefault(head.pred, set()).add(
                (head.pred_key, head.arity)
            )
        return tuple(
            (pred, tuple(sorted(targets))) for pred, targets in mirror.items()
        )

    def seeded_database(self, database: Database) -> Database:
        """A snapshot of ``database`` with the seed facts added.

        Base relations are shared with ``database`` (copy-on-write);
        only the seed and mirrored relations are created here.

        Facts asserted under an *original derived* predicate name
        (``q(b).`` alongside rules for ``q``) participate in bottom-up
        evaluation of the original program, so they are mirrored into
        every same-arity adorned version of that predicate here --
        otherwise the rewritten program would silently ignore them,
        which under negation flips answers instead of merely shrinking
        them.  Mirrored facts are true facts of the original relation,
        so restricted (magic-guarded) relations only gain true rows and
        all-free relations remain exactly the original extension.
        Index-carrying counting predicates have different names or
        arities and are never mirrored.
        """
        seeded = database.snapshot()
        for seed in self.seed_facts:
            seeded.add_fact(seed)
        for pred, targets in self.mirror_targets:
            rel = database.get(pred)
            if rel is None or not len(rel):
                continue
            for key, head_arity in targets:
                if head_arity == rel.arity:
                    seeded.relation(key).add_id_rows(list(rel.id_rows()))
        return seeded

    def extract_answers(self, result: EvaluationResult) -> Set[Tuple[Term, ...]]:
        """Answers for the query from an evaluation of the program."""
        rel = result.database.get(self.answer_pred_key)
        if rel is None:
            return set()
        return rel.matching(
            self.answer_selection,
            self.answer_projection,
            [arg for arg in self.query.literal.args if not arg.is_ground()],
        )

    # ------------------------------------------------------------------
    # fact accounting (Sections 9 and 11 measure facts, not time)
    # ------------------------------------------------------------------
    def fact_breakdown(self, result: EvaluationResult) -> Dict[str, int]:
        """Derived-fact counts split into answer-bearing vs auxiliary.

        Returns a dict with keys ``"adorned"`` (facts of the rewritten
        derived predicates carrying real tuples), ``"magic"`` (magic /
        counting / supplementary / label facts) and ``"total"``.
        """
        from .naming import is_generated_name, is_indexed_name

        adorned = 0
        auxiliary = 0
        derived_keys = {rr.rule.head.pred_key for rr in self.rules}
        for key in derived_keys:
            count = len(result.database.tuples(key))
            pred = key.split("^")[0]
            if is_generated_name(pred) and not is_indexed_name(pred):
                auxiliary += count
            else:
                adorned += count
        for seed in self.seed_facts:
            # seeds are auxiliary facts too, but they were inserted, not
            # derived; count them for the totals the paper discusses
            auxiliary += 1 if seed.pred_key not in derived_keys else 0
        return {
            "adorned": adorned,
            "magic": auxiliary,
            "total": adorned + auxiliary,
        }

    def __str__(self):
        lines = [f"% method: {self.method}"]
        for seed in self.seed_facts:
            lines.append(f"{seed}.  % seed")
        for rewritten in self.rules:
            lines.append(str(rewritten.rule))
        return "\n".join(lines)
