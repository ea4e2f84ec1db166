"""The deductive-database substrate: terms, rules, storage, evaluation.

This subpackage is a self-contained Datalog-with-function-symbols engine:
it knows nothing about sips or magic sets.  The paper's contribution
(``repro.core``) is implemented as source-to-source transformations over
these data structures, evaluated by this engine.
"""

from .ast import Literal, Program, Query, Rule
from .catalog import TermCatalog, term_catalog
from .database import Database, Relation
from .engine import EvaluationResult, EvaluationStats, evaluate
from .errors import (
    AdornmentError,
    ConnectivityError,
    EvaluationError,
    IntegrityError,
    NonTerminationError,
    ParseError,
    ReproError,
    RewriteError,
    SipValidationError,
    StratificationError,
    UnsafeNegationError,
    UnsupportedProgramError,
    WellFormednessError,
)
from .parser import (
    parse_literal,
    parse_program,
    parse_query,
    parse_rule,
    parse_term,
)
from .planner import (
    CompiledProgram,
    JoinPlan,
    JoinStep,
    PlanCache,
    SubqueryProgram,
    compile_rule,
    compile_subquery_rule,
    compiled_program_for,
    order_body,
    shared_plan_cache,
    subquery_program_for,
)
from .terms import (
    Constant,
    EMPTY_LIST,
    LinExpr,
    Struct,
    Term,
    Variable,
    make_list,
    list_elements,
)
from .derivation import DerivationNode, explain, fact_stages
from .topdown import QSQResult, qsq_evaluate

__all__ = [
    "Literal",
    "Program",
    "Query",
    "Rule",
    "Database",
    "Relation",
    "TermCatalog",
    "term_catalog",
    "EvaluationResult",
    "EvaluationStats",
    "evaluate",
    "CompiledProgram",
    "JoinPlan",
    "JoinStep",
    "PlanCache",
    "SubqueryProgram",
    "compile_rule",
    "compile_subquery_rule",
    "compiled_program_for",
    "order_body",
    "shared_plan_cache",
    "subquery_program_for",
    "QSQResult",
    "qsq_evaluate",
    "DerivationNode",
    "explain",
    "fact_stages",
    "Constant",
    "EMPTY_LIST",
    "LinExpr",
    "Struct",
    "Term",
    "Variable",
    "make_list",
    "list_elements",
    "parse_literal",
    "parse_program",
    "parse_query",
    "parse_rule",
    "parse_term",
    "ReproError",
    "ParseError",
    "WellFormednessError",
    "ConnectivityError",
    "SipValidationError",
    "AdornmentError",
    "EvaluationError",
    "IntegrityError",
    "NonTerminationError",
    "RewriteError",
    "StratificationError",
    "UnsafeNegationError",
    "UnsupportedProgramError",
]
