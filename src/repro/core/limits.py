"""Resource governance for evaluation: budgets, cancellation, fault injection.

The ROADMAP's serving and parallelism items assume evaluations can be
bounded, cancelled, and aborted without corrupting shared state.  This
module supplies the vocabulary:

* :class:`EvaluationBudget` -- an immutable description of limits
  (fixpoint rounds, wall-clock deadline, max derived facts, max tuples
  scanned, max memory estimate) plus an optional
  :class:`CancellationToken` and :class:`FaultPlan`.  It is the one way
  to bound an evaluation.
* :class:`BudgetMeter` -- the stateful runtime companion created by
  ``budget.start()``, or by :func:`governing_meter` at the governed
  entry points (which adds any ``REPRO_FAULT_INJECT`` plan).  Engines
  call ``meter.check_round(...)`` at fixpoint-round boundaries and
  ``meter.check_batch(...)`` at batch/rule boundaries, each handed the
  evaluation's ``EvaluationStats``; both raise :class:`BudgetExceeded`
  or :class:`EvaluationCancelled` carrying structured progress.
* :class:`FaultPlan` -- a deterministic fault injector that raises
  :class:`InjectedFault` at a chosen round/batch/install boundary, used
  by the atomicity property tests (and the ``REPRO_FAULT_INJECT`` env
  knob) to prove aborts leave the database untouched.

The engines in ``repro.datalog`` never import this module (that would
create an import cycle through ``repro.core``); they accept any object
with ``check_round``/``check_batch`` methods.  Evaluation is staged on a
snapshot throughout the codebase, so an exception raised here aborts
cleanly: it leaves the caller's facts and version untouched and at most
valid extra indexes.
"""

from __future__ import annotations

import os
import random
import threading
import time
from dataclasses import dataclass, replace
from typing import Optional

from ..datalog.errors import EvaluationError, NonTerminationError, ReproError

__all__ = [
    "BudgetExceeded",
    "BudgetMeter",
    "CancellationToken",
    "EvaluationBudget",
    "EvaluationCancelled",
    "FaultPlan",
    "InjectedFault",
    "FAULT_ENV_VAR",
    "governing_meter",
]

FAULT_ENV_VAR = "REPRO_FAULT_INJECT"

_FAULT_KINDS = ("round", "batch", "install")


def _progress_phrase(facts, stratum, round_):
    phrase = f"after {facts} facts"
    if stratum is not None:
        phrase += f", stratum {stratum}"
    if round_ is not None:
        phrase += f" round {round_}" if stratum is not None else f", round {round_}"
    return phrase


class BudgetExceeded(NonTerminationError):
    """A resource limit tripped; carries structured progress.

    Subclasses :class:`NonTerminationError`: a program whose fixpoint
    never ends (Section 1.1) surfaces as a budget trip, so callers that
    guard fixpoint loops with ``except NonTerminationError`` catch every
    limit.

    Attributes: ``limit`` (``"max_iterations"``/``"wall_clock"``/
    ``"max_facts"``/``"max_tuples_scanned"``/``"max_memory"``),
    ``iterations`` (fixpoint rounds run so far, summed over strata),
    ``facts``, ``stratum``, ``round``, ``elapsed`` seconds, and
    ``method`` (filled in by ``answer_query`` so degradation policy can
    tell which strategy tripped).
    """

    def __init__(
        self, limit, facts=0, stratum=None, round_=None, elapsed=None,
        iterations=None,
    ):
        message = f"budget exceeded: {limit} " + _progress_phrase(
            facts, stratum, round_
        )
        super().__init__(message, iterations=iterations, facts=facts)
        self.limit = limit
        self.stratum = stratum
        self.round = round_
        self.elapsed = elapsed
        self.method = None


class EvaluationCancelled(EvaluationError):
    """The cooperative :class:`CancellationToken` was triggered.

    Deliberately *not* a :class:`BudgetExceeded`: cancellation is a
    caller decision, so ``answer_query`` never degrades it into a
    fallback evaluation -- it propagates.
    """

    def __init__(self, facts=0, stratum=None, round_=None, elapsed=None):
        message = "evaluation cancelled " + _progress_phrase(facts, stratum, round_)
        super().__init__(message)
        self.facts = facts
        self.stratum = stratum
        self.round = round_
        self.elapsed = elapsed


class InjectedFault(ReproError):
    """Raised by :class:`FaultPlan` at a planned abort point (tests only)."""

    def __init__(self, message, boundary=None, count=None):
        super().__init__(message)
        self.boundary = boundary
        self.count = count


class CancellationToken:
    """Thread-safe cooperative cancellation flag.

    Hand the token to :class:`EvaluationBudget`; flip it from any thread
    with :meth:`cancel`.  Evaluation notices at the next round/batch
    boundary and aborts with :class:`EvaluationCancelled`, leaving the
    database untouched.  Cancelling twice is a no-op.
    """

    __slots__ = ("_event",)

    def __init__(self):
        self._event = threading.Event()

    def cancel(self):
        self._event.set()

    @property
    def cancelled(self):
        return self._event.is_set()

    def __repr__(self):
        state = "cancelled" if self.cancelled else "live"
        return f"CancellationToken({state})"


class FaultPlan:
    """Deterministic fault injector for the atomicity property tests.

    Raises :class:`InjectedFault` the ``after``-th time a boundary of
    the planned ``boundary`` kind (``"round"``, ``"batch"``,
    ``"install"``, or ``"any"``) is crossed, then disarms.  A plan whose
    ``after`` exceeds the number of boundaries the evaluation crosses
    simply never fires -- property tests rely on that to also exercise
    the fault-free path.
    """

    __slots__ = ("boundary", "after", "fired", "counts")

    def __init__(self, boundary="any", after=1):
        if boundary != "any" and boundary not in _FAULT_KINDS:
            raise ValueError(f"unknown fault boundary: {boundary!r}")
        if after < 1:
            raise ValueError("fault plan 'after' must be >= 1")
        self.boundary = boundary
        self.after = after
        self.fired = False
        self.counts = {kind: 0 for kind in _FAULT_KINDS}

    def tick(self, kind):
        self.counts[kind] += 1
        if self.fired:
            return
        if self.boundary != "any" and self.boundary != kind:
            return
        hits = (
            sum(self.counts.values())
            if self.boundary == "any"
            else self.counts[kind]
        )
        if hits >= self.after:
            self.fired = True
            raise InjectedFault(
                f"injected fault at {kind} boundary "
                f"(plan {self.boundary}:{self.after})",
                boundary=kind,
                count=self.counts[kind],
            )

    @classmethod
    def randomized(cls, seed, max_after=8):
        """A reproducible random plan: seed fixes boundary kind and count."""
        rng = random.Random(seed)
        return cls(rng.choice(_FAULT_KINDS), rng.randint(1, max_after))

    @classmethod
    def from_env(cls, environ=None):
        """Parse ``REPRO_FAULT_INJECT`` -- ``round:3``, ``install:1``,
        ``any:5``, or ``random:SEED``.  Returns ``None`` when unset."""
        spec = (environ if environ is not None else os.environ).get(FAULT_ENV_VAR)
        if not spec:
            return None
        kind, _, arg = spec.partition(":")
        if kind == "random":
            return cls.randomized(int(arg or 0))
        return cls(kind or "any", int(arg or 1))

    def __repr__(self):
        state = "fired" if self.fired else "armed"
        return f"FaultPlan({self.boundary}:{self.after}, {state})"


@dataclass(frozen=True)
class EvaluationBudget:
    """Immutable resource limits for one evaluation.

    ``None`` fields are unlimited.  ``max_iterations`` caps the fixpoint
    rounds of one attempt, summed over strata (``stats.iterations``).
    ``max_memory_bytes`` is compared against
    ``Database.estimated_bytes()`` -- a coarse columnar-storage
    estimate, checked only at round boundaries.  Call :meth:`start` to
    obtain the stateful :class:`BudgetMeter` that evaluation threads
    through its loops; a meter may be shared across a degradation retry
    so the wall-clock deadline stays absolute while per-attempt fact and
    tuple counters restart with the attempt's fresh statistics.
    """

    timeout: Optional[float] = None
    max_facts: Optional[int] = None
    max_tuples_scanned: Optional[int] = None
    max_memory_bytes: Optional[int] = None
    token: Optional[CancellationToken] = None
    fault_plan: Optional[FaultPlan] = None
    max_iterations: Optional[int] = None

    def start(self):
        return BudgetMeter(self)


def governing_meter(budget=None):
    """The meter a governed entry point runs under, or ``None``.

    The one place ``Session.query``, the implicit maintenance passes,
    ``MaterializedView.refresh`` and the query server's cold reads get
    their meter, so a ``REPRO_FAULT_INJECT`` plan reaches all of them:
    the environment's plan joins ``budget`` when the budget has none of
    its own.  Returns ``None`` when there is neither a budget nor a
    plan -- the caller runs ungoverned.
    """
    if budget is None or budget.fault_plan is None:
        fault_plan = FaultPlan.from_env()
        if fault_plan is not None:
            budget = replace(budget or EvaluationBudget(), fault_plan=fault_plan)
    return None if budget is None else budget.start()


class BudgetMeter:
    """Runtime state for one governed evaluation (plus retries).

    The checks are ordered cheapest-first and each is skipped when the
    corresponding limit is unset, so an all-``None`` budget costs a few
    attribute loads and comparisons per round/batch.  The ≤3% overhead
    gate of the local wall-clock bench ``benchmarks/bench_guardrails.py``
    holds the line; ``tests/test_limits.py`` holds the answers.
    """

    __slots__ = (
        "budget",
        "started",
        "deadline",
        "iterations",
        "facts",
        "tuples",
        "stratum",
        "round",
    )

    def __init__(self, budget):
        self.budget = budget
        self.started = time.monotonic()
        self.deadline = (
            None if budget.timeout is None else self.started + budget.timeout
        )
        self.iterations = 0
        self.facts = 0
        self.tuples = 0
        self.stratum = None
        self.round = None

    # -- boundary checks -------------------------------------------------

    def check_round(self, stats, stratum=None, round_=None, database=None):
        """Full check at a fixpoint-round boundary (may estimate memory).

        ``stats`` is the attempt's ``EvaluationStats``; the round cap
        reads its ``iterations``, which already count this round.
        """
        self.iterations = stats.iterations
        self.facts = stats.facts_derived
        self.stratum = stratum
        self.round = round_
        budget = self.budget
        if (
            budget.max_iterations is not None
            and self.iterations > budget.max_iterations
        ):
            self._trip("max_iterations")
        token = budget.token
        if token is not None and token.cancelled:
            raise EvaluationCancelled(
                self.facts, stratum, round_, self.elapsed()
            )
        self.check_limits(stats)
        if self.deadline is not None and time.monotonic() > self.deadline:
            self._trip("wall_clock")
        if (
            budget.max_memory_bytes is not None
            and database is not None
            and database.estimated_bytes() > budget.max_memory_bytes
        ):
            self._trip("max_memory")
        if budget.fault_plan is not None:
            budget.fault_plan.tick("round")

    def check_batch(self, stats):
        """Cheap check at a batch/rule boundary (no memory estimate).

        Progress markers (stratum/round) persist from the enclosing
        round check so a mid-round trip still reports its position.
        """
        token = self.budget.token
        if token is not None and token.cancelled:
            raise EvaluationCancelled(
                stats.facts_derived, self.stratum, self.round, self.elapsed()
            )
        self.check_limits(stats)
        if self.deadline is not None and time.monotonic() > self.deadline:
            self._trip("wall_clock")
        if self.budget.fault_plan is not None:
            self.budget.fault_plan.tick("batch")

    def check_limits(self, stats):
        """The fact and tuple limits alone: part of :meth:`check_round`
        and :meth:`check_batch`, and called where a fixpoint returns --
        rows its last round installed cross no later boundary.  Not a boundary itself: it
        counts no round and ticks no fault plan."""
        self.facts = facts = stats.facts_derived
        self.tuples = tuples = stats.tuples_scanned
        budget = self.budget
        if budget.max_facts is not None and facts > budget.max_facts:
            self._trip("max_facts")
        if (
            budget.max_tuples_scanned is not None
            and tuples > budget.max_tuples_scanned
        ):
            self._trip("max_tuples_scanned")

    def tick_install(self):
        """Fault boundary crossed just before results are installed
        (memo write / answer publication).  Only the fault plan fires
        here; resource limits no longer apply once evaluation is done."""
        plan = self.budget.fault_plan
        if plan is not None:
            plan.tick("install")

    # -- accounting ------------------------------------------------------

    def elapsed(self):
        return time.monotonic() - self.started

    def spent(self):
        """Structured snapshot for ``QueryResult.budget_spent``."""
        return {
            "elapsed": self.elapsed(),
            "facts": self.facts,
            "tuples_scanned": self.tuples,
            "stratum": self.stratum,
            "round": self.round,
        }

    def _trip(self, limit):
        raise BudgetExceeded(
            limit,
            facts=self.facts,
            stratum=self.stratum,
            round_=self.round,
            elapsed=self.elapsed(),
            iterations=self.iterations,
        )
