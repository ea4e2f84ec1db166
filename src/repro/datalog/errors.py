"""Exception hierarchy for the Datalog substrate and the rewriting core.

Every error raised by this package derives from :class:`ReproError`, so
callers can catch one type at the boundary of the library.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` package."""


class ParseError(ReproError):
    """Raised when the surface-syntax parser cannot make sense of its input.

    Carries the offending line and column so tooling can point at the
    problem.
    """

    def __init__(self, message, line=None, column=None, text=None):
        location = ""
        if line is not None:
            location = f" at line {line}"
            if column is not None:
                location += f", column {column}"
        super().__init__(f"{message}{location}")
        self.line = line
        self.column = column
        self.text = text


class WellFormednessError(ReproError):
    """Raised when a rule violates condition (WF) of Section 1.1.

    (WF): each variable that appears in the head of a rule must also
    appear in its body.
    """


class ConnectivityError(ReproError):
    """Raised when a rule violates condition (C) of Section 1.1.

    (C): the predicate occurrences of a rule must form a single connected
    component (via shared variables).
    """


class SipValidationError(ReproError):
    """Raised when a sip graph violates conditions (1)-(3) of Section 2."""


class AdornmentError(ReproError):
    """Raised for malformed adornment strings or inconsistent adorned use."""


class EvaluationError(ReproError):
    """Raised when bottom-up or top-down evaluation cannot proceed."""


class NonTerminationError(EvaluationError):
    """Raised when evaluation exceeds its iteration or fact budget.

    Bottom-up evaluation of programs with function symbols (and the
    counting transformations on cyclic data, Theorem 10.3) need not
    terminate; the engine converts a configured budget overrun into this
    error instead of looping forever.
    """

    def __init__(self, message, iterations=None, facts=None):
        super().__init__(message)
        self.iterations = iterations
        self.facts = facts


class IntegrityError(ReproError):
    """Raised when a storage invariant of :class:`Relation`/`Database` fails.

    ``Relation.check_invariants`` and ``Database.check_integrity`` raise
    this with a message naming the relation and the violated invariant.
    It indicates a bug in the storage layer (or deliberate corruption in
    a test), never a user error.
    """

    def __init__(self, message, relation=None, invariant=None):
        super().__init__(message)
        self.relation = relation
        self.invariant = invariant


class RewriteError(ReproError):
    """Raised when a rewriting algorithm is applied outside its domain.

    For example: requesting a counting rewrite for a program whose
    reachable argument graph is cyclic (Theorem 10.3) with
    ``require_safe=True``.
    """


class UnsafeNegationError(EvaluationError):
    """Raised when a negated body literal is not range-restricted.

    Safe negation requires every variable of a negated literal to be
    bound by a *positive* body literal of the same rule; otherwise
    ``not p(X)`` would quantify over an infinite complement.  Carries
    the offending rule and variable names so the message is actionable.
    """

    def __init__(self, message, rule=None, variables=()):
        super().__init__(message)
        self.rule = rule
        self.variables = tuple(variables)


class StratificationError(EvaluationError):
    """Raised when a program recurses through negation.

    Stratified semantics require the predicate dependency graph to have
    no cycle containing a negative edge (``win(X) :- move(X, Y),
    not win(Y)`` is the classic offender).  Carries the predicates of
    the offending cycle.
    """

    def __init__(self, message, cycle=()):
        super().__init__(message)
        self.cycle = tuple(cycle)


class UnsupportedProgramError(ReproError):
    """Raised when a pipeline stage cannot handle a (valid) program.

    The magic/supplementary rewrites accept stratified programs through
    the conservative extension (negated literals are carried unchanged
    and their definitions computed completely), but the counting
    rewrites and the QSQ evaluator remain positive-only: they raise
    this error instead of silently treating ``not p`` as ``p``.
    ``--method auto`` resolves stratified programs to the bottom-up
    magic path; the plain bottom-up engines
    (``--method naive``/``seminaive``) evaluate them too.
    """
