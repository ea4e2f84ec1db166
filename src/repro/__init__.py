"""repro -- a reproduction of Beeri & Ramakrishnan, "On the Power of Magic".

The package has three layers:

* :mod:`repro.datalog` -- a from-scratch deductive-database substrate:
  terms (with function symbols), Horn-clause AST, parser, matching,
  columnar indexed fact storage over interned term IDs, naive/semi-naive
  bottom-up evaluation with batch compiled joins, and a
  QSQ-style top-down evaluator;
* :mod:`repro.core` -- the paper's contribution: sideways information
  passing strategies (Section 2), the adorned program (Section 3), the
  generalized magic-sets / supplementary-magic / counting /
  supplementary-counting rewrites (Sections 4-7), the semijoin
  optimization (Section 8), sip-optimality checks (Section 9), and the
  safety analyses (Section 10);
* :mod:`repro.workloads` -- synthetic data generators used by the
  benchmark harness.

The public surface is the stateful :class:`repro.Session` (versioned
database, auto-dispatched queries, cross-evaluation answer memo).
Underneath it, ``answer_query(program, database, query, QueryOptions(...))``
is the one evaluation path -- adorn, rewrite, evaluate, select -- that
the session, the query server and the benchmarks all call.

Quickstart::

    import repro

    session = repro.Session('''
        anc(X, Y) :- par(X, Y).
        anc(X, Y) :- par(X, Z), anc(Z, Y).
    ''')
    session.assert_(["par(john, mary)", "par(mary, sue)"])
    result = session.query("anc(john, Y)?")   # method="auto"
    assert ("mary",) in result.values()
    assert session.query("anc(john, Y)?").from_memo

    view = session.materialize("anc(X, Y)?")  # evaluate once...
    session.assert_("par", "sue", "ann")      # ...maintain by deltas
    assert ("john", "ann") in view.rows.values()
"""

from .datalog import (
    AdornmentError,
    CompiledProgram,
    ConnectivityError,
    PlanCache,
    SubqueryProgram,
    Constant,
    Database,
    DerivationNode,
    EvaluationError,
    EvaluationResult,
    EvaluationStats,
    IntegrityError,
    JoinPlan,
    JoinStep,
    LinExpr,
    Literal,
    NonTerminationError,
    ParseError,
    Program,
    QSQResult,
    Query,
    Relation,
    ReproError,
    RewriteError,
    Rule,
    SipValidationError,
    StratificationError,
    Struct,
    Term,
    TermCatalog,
    UnsafeNegationError,
    UnsupportedProgramError,
    Variable,
    WellFormednessError,
    compile_rule,
    compile_subquery_rule,
    compiled_program_for,
    shared_plan_cache,
    subquery_program_for,
    evaluate,
    explain,
    order_body,
    fact_stages,
    list_elements,
    make_list,
    parse_literal,
    parse_program,
    parse_query,
    parse_rule,
    parse_term,
    qsq_evaluate,
    term_catalog,
)
from .core import (
    AdornedProgram,
    BudgetExceeded,
    BudgetMeter,
    CancellationToken,
    EvaluationBudget,
    EvaluationCancelled,
    FaultPlan,
    InjectedFault,
    QueryOptions,
    QueryResult,
    REWRITE_METHODS,
    RewrittenProgram,
    Stratification,
    adorn_program,
    answer_query,
    build_chain_sip,
    build_empty_sip,
    build_full_sip,
    check_optimality,
    compare_sips,
    counting_safety,
    lemma_8_1_prune,
    lemma_8_2_anonymize,
    magic_safety,
    negation_safety,
    rewrite,
    semijoin_optimize,
    stratify,
    unwrap_values,
)
from .datalog.ivm import (
    MaintenanceResult,
    MaterializedProgram,
)
from .session import (
    BASELINE_METHODS,
    SESSION_METHODS,
    MaterializedView,
    Session,
)

__version__ = "1.1.0"

__all__ = [
    "__version__",
    # substrate
    "Constant", "Variable", "Struct", "LinExpr", "Term",
    "Literal", "Rule", "Program", "Query",
    "Database", "Relation", "TermCatalog", "term_catalog",
    "parse_program", "parse_rule", "parse_literal", "parse_term",
    "parse_query", "make_list", "list_elements",
    "evaluate",
    "CompiledProgram", "JoinPlan", "JoinStep", "compile_rule", "order_body",
    "PlanCache", "SubqueryProgram",
    "compile_subquery_rule", "compiled_program_for", "subquery_program_for",
    "shared_plan_cache",
    "qsq_evaluate", "QSQResult",
    "explain", "fact_stages", "DerivationNode",
    "EvaluationResult", "EvaluationStats",
    # errors
    "ReproError", "ParseError", "WellFormednessError", "ConnectivityError",
    "SipValidationError", "AdornmentError", "EvaluationError",
    "NonTerminationError", "RewriteError", "IntegrityError",
    "StratificationError", "UnsafeNegationError", "UnsupportedProgramError",
    # core
    "AdornedProgram", "adorn_program",
    "build_full_sip", "build_chain_sip", "build_empty_sip",
    "semijoin_optimize", "lemma_8_1_prune", "lemma_8_2_anonymize",
    "magic_safety", "counting_safety",
    "negation_safety", "Stratification", "stratify",
    "check_optimality", "compare_sips",
    "rewrite", "answer_query", "unwrap_values",
    "RewrittenProgram", "QueryOptions", "REWRITE_METHODS",
    # resource governance
    "EvaluationBudget", "BudgetMeter", "BudgetExceeded",
    "EvaluationCancelled", "CancellationToken", "FaultPlan",
    "InjectedFault",
    # session + incremental view maintenance
    "Session", "QueryResult", "SESSION_METHODS", "BASELINE_METHODS",
    "MaterializedView", "MaterializedProgram", "MaintenanceResult",
]
