"""The paper's contribution: sips, adornment, and the four rewrites.

Import surface::

    from repro.core import (
        adorn_program, build_full_sip, build_chain_sip,
        magic_rewrite, supplementary_magic_rewrite,
        counting_rewrite, supplementary_counting_rewrite,
        semijoin_optimize, rewrite, answer_query,
    )
"""

from .adornment import AdornedProgram, AdornedRule, adorn_program
from .counting import counting_rewrite
from .magic import magic_literal_for, magic_rewrite
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
    QueryAnswer,
    QueryOptions,
    REWRITE_METHODS,
    answer_query,
    bottom_up_answer,
    rewrite,
    unwrap_values,
)
from .provenance import (
    BodyOrigin,
    RewrittenProgram,
    RewrittenRule,
    RuleProvenance,
)
from .safety import (
    BindingGraph,
    SafetyReport,
    all_cycles_positive,
    argument_graph,
    argument_graph_cyclic,
    binding_graph,
    check_safe_negation,
    counting_safety,
    magic_safety,
    negation_safety,
    term_length_polynomial,
)
from .stratify import (
    Stratification,
    check_stratified,
    is_stratified,
    stratify,
    stratify_or_raise,
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
from .supplementary import supplementary_magic_rewrite
from .supplementary_counting import supplementary_counting_rewrite

__all__ = [
    "AdornedProgram",
    "AdornedRule",
    "adorn_program",
    "counting_rewrite",
    "magic_literal_for",
    "magic_rewrite",
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
    "QueryAnswer",
    "QueryOptions",
    "REWRITE_METHODS",
    "answer_query",
    "bottom_up_answer",
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
    "check_safe_negation",
    "counting_safety",
    "magic_safety",
    "negation_safety",
    "term_length_polynomial",
    "Stratification",
    "check_stratified",
    "is_stratified",
    "stratify",
    "stratify_or_raise",
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
    "supplementary_magic_rewrite",
    "supplementary_counting_rewrite",
]
