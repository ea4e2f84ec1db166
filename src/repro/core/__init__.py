"""The paper's contribution: sips, adornment, and the four rewrites.

Import surface::

    from repro.core import (
        adorn_program, build_full_sip, build_chain_sip,
        rewrite, semijoin_optimize, answer_query,
    )

``rewrite(program, query, method=...)`` runs any of the four rewrites
(:mod:`repro.core.rewrites`); pass ``adorned=`` to rewrite an adorned
program built with a custom sip.
"""

from ..datalog.analysis import Stratification, stratify
from .adornment import AdornedProgram, AdornedRule, adorn_program
from .optimality import (
    OptimalityReport,
    SipComparison,
    check_optimality,
    compare_sips,
)
from .limits import (
    BudgetExceeded,
    BudgetMeter,
    CancellationToken,
    EvaluationBudget,
    EvaluationCancelled,
    FaultPlan,
    InjectedFault,
)
from .pipeline import (
    QueryOptions,
    QueryResult,
    REWRITE_METHODS,
    answer_query,
    rewrite,
    unwrap_values,
)
from .provenance import (
    BodyOrigin,
    RewrittenProgram,
    RewrittenRule,
    RuleProvenance,
)
from .rewrites import magic_literal_for
from .safety import (
    BindingGraph,
    SafetyReport,
    all_cycles_positive,
    argument_graph,
    argument_graph_cyclic,
    binding_graph,
    counting_safety,
    magic_safety,
    negation_safety,
    term_length_polynomial,
)
from .semijoin import lemma_8_1_prune, lemma_8_2_anonymize, semijoin_optimize
from .sips import (
    HEAD,
    Sip,
    SipArc,
    build_chain_sip,
    build_empty_sip,
    build_full_sip,
    build_right_to_left_sip,
    greedy_order,
    sip_builder_with_order,
)

__all__ = [
    "AdornedProgram",
    "AdornedRule",
    "adorn_program",
    "magic_literal_for",
    "OptimalityReport",
    "SipComparison",
    "check_optimality",
    "compare_sips",
    "BudgetExceeded",
    "BudgetMeter",
    "CancellationToken",
    "EvaluationBudget",
    "EvaluationCancelled",
    "FaultPlan",
    "InjectedFault",
    "QueryOptions",
    "QueryResult",
    "REWRITE_METHODS",
    "answer_query",
    "rewrite",
    "unwrap_values",
    "BodyOrigin",
    "RewrittenProgram",
    "RewrittenRule",
    "RuleProvenance",
    "BindingGraph",
    "SafetyReport",
    "all_cycles_positive",
    "argument_graph",
    "argument_graph_cyclic",
    "binding_graph",
    "counting_safety",
    "magic_safety",
    "negation_safety",
    "term_length_polynomial",
    "Stratification",
    "stratify",
    "lemma_8_1_prune",
    "lemma_8_2_anonymize",
    "semijoin_optimize",
    "HEAD",
    "Sip",
    "SipArc",
    "build_chain_sip",
    "build_empty_sip",
    "build_full_sip",
    "build_right_to_left_sip",
    "greedy_order",
    "sip_builder_with_order",
]
