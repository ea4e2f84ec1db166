"""Sip-optimality of generalized magic sets -- Section 9.

A *sip strategy* (Definition in Section 9) must (1) compute all answers
to every query it generates and (2) generate a subquery for every body
occurrence reachable through the sips.  The least such pair of sets
``(Q, F)`` is computed by the QSQ evaluator
(:func:`repro.datalog.topdown.qsq_evaluate`).

Theorem 9.1 states that bottom-up evaluation of the magic rewrite is
*sip-optimal*: every fact it derives is either a query of ``Q`` (a magic
fact) or an answer of ``F`` (an adorned fact).  :func:`check_optimality`
verifies the correspondence exactly on a concrete database:

* for each adorned predicate ``p^a`` with bound arguments, the magic
  relation equals the set of bound-argument vectors in ``Q``;
* each adorned relation equals the answer set of ``F``.

Lemma 9.3 (fuller sips compute no more facts) is checked by
:func:`compare_sips`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Tuple

from ..datalog.database import Database
from ..datalog.engine import evaluate
from ..datalog.topdown import QSQResult, qsq_evaluate
from .adornment import AdornedProgram
from .naming import magic_name
from .provenance import RewrittenProgram

__all__ = ["OptimalityReport", "check_optimality", "compare_sips", "SipComparison"]


@dataclass
class OptimalityReport:
    """Outcome of the Theorem 9.1 correspondence check."""

    sip_optimal: bool
    #: per adorned predicate: (magic facts, queries in Q)
    query_counts: Dict[str, Tuple[int, int]] = field(default_factory=dict)
    #: per adorned predicate: (adorned facts, answers in F)
    fact_counts: Dict[str, Tuple[int, int]] = field(default_factory=dict)
    mismatches: Tuple[str, ...] = ()

    def total_magic_facts(self) -> int:
        return sum(m for m, _ in self.query_counts.values())

    def total_adorned_facts(self) -> int:
        return sum(m for m, _ in self.fact_counts.values())


def check_optimality(
    rewritten: RewrittenProgram,
    database: Database,
    meter=None,
) -> OptimalityReport:
    """Check Theorem 9.1 on a concrete database.

    Evaluates both the rewritten program (bottom-up) and the QSQ oracle
    (the least sip-strategy sets ``Q`` and ``F``) and compares relation
    by relation.  Meaningful for the ``magic`` and
    ``supplementary_magic`` methods with full sips.  ``meter`` (a
    :class:`~repro.core.limits.BudgetMeter`) bounds both evaluations.
    """
    adorned: AdornedProgram = rewritten.adorned
    seeded = rewritten.seeded_database(database)
    bottom_up = evaluate(rewritten.program, seeded, meter=meter)
    oracle: QSQResult = qsq_evaluate(
        adorned.program, database, adorned.query_literal, meter=meter
    )

    mismatches = []
    query_counts: Dict[str, Tuple[int, int]] = {}
    fact_counts: Dict[str, Tuple[int, int]] = {}
    oracle_answers = oracle.answers
    oracle_queries = oracle.queries
    for pred_key in sorted(adorned.adorned_predicates()):
        pred, _, adornment = pred_key.partition("^")
        answers = oracle_answers.get(pred_key, set())
        derived = bottom_up.database.tuples(pred_key)
        fact_counts[pred_key] = (len(derived), len(answers))
        if derived != answers:
            mismatches.append(
                f"{pred_key}: bottom-up derived {len(derived)} facts, "
                f"sip strategy computes {len(answers)}"
            )
        if "b" not in adornment:
            continue
        magic_key = magic_name(pred, adornment)
        magic_facts = bottom_up.database.tuples(magic_key)
        queries = oracle_queries.get(pred_key, set())
        query_counts[pred_key] = (len(magic_facts), len(queries))
        if magic_facts != queries:
            mismatches.append(
                f"{magic_key}: {len(magic_facts)} magic facts vs "
                f"{len(queries)} sip-strategy queries"
            )
    return OptimalityReport(
        sip_optimal=not mismatches,
        query_counts=query_counts,
        fact_counts=fact_counts,
        mismatches=tuple(mismatches),
    )


@dataclass
class SipComparison:
    """Outcome of the Lemma 9.3 containment check between two sips."""

    fuller_facts: int
    partial_facts: int
    contained: bool
    per_predicate: Dict[str, Tuple[int, int]] = field(default_factory=dict)


def compare_sips(
    fuller: RewrittenProgram,
    partial: RewrittenProgram,
    database: Database,
    meter=None,
) -> SipComparison:
    """Check Lemma 9.3: the fuller sip's facts are contained in the
    partial sip's facts, predicate by predicate.

    Both rewrites must stem from the same program/query (so the adorned
    predicate keys align -- they do for the paper's examples, where full
    and partial sips induce the same adornments).  ``meter`` bounds
    both evaluations.
    """
    results = {}
    for name, rewritten in (("fuller", fuller), ("partial", partial)):
        seeded = rewritten.seeded_database(database)
        results[name] = evaluate(rewritten.program, seeded, meter=meter)

    contained = True
    per_predicate: Dict[str, Tuple[int, int]] = {}
    keys = {
        rr.rule.head.pred_key for rr in fuller.rules
    } | {rr.rule.head.pred_key for rr in partial.rules}
    fuller_total = 0
    partial_total = 0
    for key in sorted(keys):
        fuller_facts = results["fuller"].database.tuples(key)
        partial_facts = results["partial"].database.tuples(key)
        fuller_total += len(fuller_facts)
        partial_total += len(partial_facts)
        per_predicate[key] = (len(fuller_facts), len(partial_facts))
        if not fuller_facts <= partial_facts:
            contained = False
    return SipComparison(
        fuller_facts=fuller_total,
        partial_facts=partial_total,
        contained=contained,
        per_predicate=per_predicate,
    )
