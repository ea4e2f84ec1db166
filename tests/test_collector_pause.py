"""The cyclic collector pause around ``engine.fixpoint``.

``fixpoint`` runs with CPython's cyclic garbage collector off, because
its working set holds no reference cycles.  Two things are pinned here:

* the collector state: whatever ends a fixpoint (a budget trip, a
  cancellation, an injected fault, ``max_iterations``), on every route
  (semi-naive, the pool, QSQ, IVM), nested or on two threads at once,
  ``gc.isenabled()`` is afterwards what it was before, and a caller who
  disabled the collector finds it still disabled;
* the premise: with the collector on, ``gc.collect()`` finds nothing to
  reclaim after the results of cold reads and IVM writes are dropped.
  If a change makes the engine build cycles, that test fails before any
  memory grows.
"""

import gc
import sys
import threading
import traceback

import pytest

from repro import (
    BudgetExceeded,
    CancellationToken,
    EvaluationBudget,
    EvaluationCancelled,
    FaultPlan,
    InjectedFault,
    MaterializedProgram,
    Session,
    adorn_program,
    evaluate,
    qsq_evaluate,
)
from repro.datalog import engine
from repro.datalog.errors import NonTerminationError
from repro.workloads import (
    ANCESTOR,
    NONLINEAR_SAMEGEN,
    ancestor_program,
    ancestor_query,
    bom_database,
    bom_program,
    bom_source,
    chain_database,
    samegen_edges,
)

#: the prior collector states every case runs under
PRIOR = pytest.mark.parametrize("enabled", [True, False], ids=["on", "off"])


@pytest.fixture
def prior():
    """Set the collector to a given state; restore it at teardown."""
    was_enabled = gc.isenabled()

    def set_state(enabled):
        if enabled:
            gc.enable()
        else:
            gc.disable()

    yield set_state
    if was_enabled:
        gc.enable()
    else:
        gc.disable()


class ProbeMeter:
    """A duck-typed meter that records the collector state at every
    round and batch boundary, and runs ``on_round`` at the first round."""

    deadline = None

    def __init__(self, on_round=None):
        self.states = []
        self.on_round = on_round

    def check_round(self, stats, stratum=None, round_=None, database=None):
        self.states.append(gc.isenabled())
        if self.on_round is not None:
            on_round, self.on_round = self.on_round, None
            on_round()

    def check_batch(self, stats):
        self.states.append(gc.isenabled())

    def check_limits(self, stats):
        pass


class ProbeChain(ProbeMeter):
    """A :class:`ProbeMeter` in front of a real meter."""

    def __init__(self, meter, on_round=None):
        super().__init__(on_round)
        self.meter = meter

    def check_round(self, *args, **kwargs):
        super().check_round(*args, **kwargs)
        self.meter.check_round(*args, **kwargs)

    def check_batch(self, *args, **kwargs):
        super().check_batch(*args, **kwargs)
        self.meter.check_batch(*args, **kwargs)

    def check_limits(self, stats):
        self.meter.check_limits(stats)


def _raised_in_fixpoint(info) -> bool:
    frames = traceback.extract_tb(info.value.__traceback__)
    return any(frame.name == "fixpoint" for frame in frames)


def _ancestor_mp(depth=12):
    database = chain_database(depth)
    return database, MaterializedProgram(ancestor_program(), database)


class TestAbortsRestoreTheCollector:
    @PRIOR
    def test_budget_exceeded(self, prior, enabled):
        session = Session(program=ancestor_program(), database=chain_database(30))
        prior(enabled)
        with pytest.raises(BudgetExceeded) as info:
            session.query(
                "anc(n0, Y)?",
                method="magic",
                budget=EvaluationBudget(max_facts=5),
            )
        assert gc.isenabled() is enabled
        assert _raised_in_fixpoint(info)
        session.close()

    @PRIOR
    def test_cancellation(self, prior, enabled):
        token = CancellationToken()
        meter = EvaluationBudget(token=token).start()
        prior(enabled)
        with pytest.raises(EvaluationCancelled) as info:
            evaluate(
                ancestor_program(),
                chain_database(30),
                meter=ProbeChain(meter, on_round=token.cancel),
            )
        assert gc.isenabled() is enabled
        assert _raised_in_fixpoint(info)

    @PRIOR
    def test_injected_fault_in_maintain(self, prior, enabled):
        database, mp = _ancestor_mp()
        database.retract_values("par", [("n3", "n4")])
        meter = EvaluationBudget(fault_plan=FaultPlan("round", 2)).start()
        prior(enabled)
        with pytest.raises(InjectedFault) as info:
            mp.maintain(meter=meter)
        assert gc.isenabled() is enabled
        assert _raised_in_fixpoint(info)
        assert mp.stale
        mp.close()

    @PRIOR
    def test_max_iterations(self, prior, enabled):
        prior(enabled)
        with pytest.raises(NonTerminationError) as info:
            evaluate(
                ancestor_program(),
                chain_database(30),
                meter=EvaluationBudget(max_iterations=3).start(),
            )
        assert gc.isenabled() is enabled
        assert _raised_in_fixpoint(info)

    @PRIOR
    def test_pool_budget_trip(self, prior, enabled):
        prior(enabled)
        with pytest.raises(BudgetExceeded):
            evaluate(
                ancestor_program(),
                chain_database(30),
                meter=EvaluationBudget(max_facts=20).start(),
                workers=2,
            )
        assert gc.isenabled() is enabled


class TestEveryRouteRunsPaused:
    """The collector is off at every boundary inside the fixpoint, and
    back to its prior state after it."""

    @PRIOR
    def test_qsq(self, prior, enabled):
        adorned = adorn_program(ancestor_program(), ancestor_query("n0"))
        meter = ProbeMeter()
        prior(enabled)
        result = qsq_evaluate(
            adorned.program,
            chain_database(12),
            adorned.query_literal,
            meter=meter,
        )
        assert gc.isenabled() is enabled
        assert result.stats.facts_derived > 0
        assert meter.states and not any(meter.states)

    @PRIOR
    def test_ivm_pass_over_several_strata(self, prior, enabled):
        database = bom_database(5, exception_rate=0.2, seed=1)
        mp = MaterializedProgram(bom_program(), database)
        database.retract_values("subpart", [("p1", "p4")])
        database.add_values("subpart", [("p2", "p4")])
        meter = ProbeMeter()
        prior(enabled)
        result = mp.maintain(meter=meter)
        assert gc.isenabled() is enabled
        assert result.strata_maintained >= 2
        # the stratum boundaries sit outside the fixpoints, the rounds
        # and batches inside them
        assert meter.states.count(False) > result.strata_maintained
        assert mp.check_consistency()
        mp.close()

    @PRIOR
    @pytest.mark.parametrize("workers", [None, 2])
    def test_seminaive(self, prior, enabled, workers):
        meter = ProbeMeter()
        prior(enabled)
        evaluate(
            ancestor_program(), chain_database(12), meter=meter, workers=workers
        )
        assert gc.isenabled() is enabled
        assert meter.states and not any(meter.states)


class TestSharedPause:
    def test_overlapping_threads_share_one_pause(self, prior):
        """Thread A enters, thread B enters, A leaves while B still
        runs: the collector stays off until B leaves too."""
        prior(True)
        both_in = threading.Barrier(2, timeout=30)
        a_left = threading.Event()
        meter_a = ProbeMeter(on_round=both_in.wait)

        def b_waits():
            both_in.wait()
            assert a_left.wait(timeout=30)

        meter_b = ProbeMeter(on_round=b_waits)
        errors = []

        def run(meter):
            try:
                evaluate(ancestor_program(), chain_database(12), meter=meter)
            except BaseException as exc:  # surfaced below
                errors.append(exc)

        a = threading.Thread(target=run, args=(meter_a,))
        b = threading.Thread(target=run, args=(meter_b,))
        a.start()
        b.start()
        a.join(timeout=60)
        a_left.set()
        b.join(timeout=60)
        assert not errors
        assert not (a.is_alive() or b.is_alive())
        assert gc.isenabled()
        # B's rounds after A left still ran with the collector off
        assert len(meter_b.states) > 2 and not any(meter_b.states)
        assert not any(meter_a.states)

    def test_many_threads_leave_no_holder_behind(self, prior):
        """Six threads (more than cores) enter and leave the pause 20
        times each under a short switch interval: a lost update of the
        holder count would leave the collector off or the count above
        zero."""
        prior(True)
        errors = []

        def run():
            try:
                for _ in range(20):
                    evaluate(ancestor_program(), chain_database(4))
            except BaseException as exc:  # surfaced below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=run) for _ in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not errors
        assert not any(thread.is_alive() for thread in threads)
        assert gc.isenabled()
        assert engine._pause_holders == 0

    @PRIOR
    def test_a_toggle_mid_evaluation_gets_the_entry_state(self, prior, enabled):
        def toggle():
            if enabled:
                gc.disable()
            else:
                gc.enable()

        prior(enabled)
        evaluate(
            ancestor_program(),
            chain_database(12),
            meter=ProbeMeter(on_round=toggle),
        )
        assert gc.isenabled() is enabled

    def test_nested_fixpoints_share_the_pause(self, prior):
        prior(True)
        inner = ProbeMeter()

        def nested():
            evaluate(ancestor_program(), chain_database(5), meter=inner)
            assert not gc.isenabled()

        outer = ProbeMeter(on_round=nested)
        evaluate(ancestor_program(), chain_database(12), meter=outer)
        assert gc.isenabled()
        assert inner.states and not any(inner.states)
        assert not any(outer.states)


# ----------------------------------------------------------------------
# the premise: the fixpoint's working set is acyclic
# ----------------------------------------------------------------------


def _point_tree_source(depth=9):
    """The smoke-size point-tree source: ANCESTOR over a complete binary
    tree, heap-numbered."""
    nodes = 2 ** (depth + 1) - 1
    lines = [ANCESTOR.strip()]
    lines.extend(f"par(t{(c - 1) // 2}, t{c})." for c in range(1, nodes))
    return "\n".join(lines) + "\n"


def _samegen_source(layers=4, width=8, flat_edges=8, seed=1):
    """The smoke-size samegen-fixpoint source (lower-cased constants)."""
    edges = samegen_edges(layers, width, flat_edges, seed)
    lines = [NONLINEAR_SAMEGEN.strip()]
    for rel in ("up", "flat", "down"):
        pairs = sorted({(a.lower(), b.lower()) for a, b in edges[rel]})
        lines.extend(f"{rel}({a}, {b})." for a, b in pairs)
    return "\n".join(lines) + "\n"


def _no_cycles_after(work):
    """Run ``work`` with the collector on and nothing else pending; its
    results are dropped on return, so the collector must find nothing."""
    was_enabled = gc.isenabled()
    gc.enable()
    try:
        gc.collect()
        work()
        return gc.collect()
    finally:
        if not was_enabled:
            gc.disable()


class TestAcyclicWorkingSet:
    @pytest.mark.parametrize("method", ["auto", "qsq", "seminaive"])
    def test_point_tree_cold_reads(self, method):
        session = Session(_point_tree_source())
        session.query("anc(t100, Y)?", method=method)  # warm the plans

        def reads():
            for k in range(101, 111):
                rows = session.query(f"anc(t{k}, Y)?", method=method).rows
                assert rows
                # a write drops the memo entry, and with it the result
                assert session.assert_(f"par(t{k}, extra{k})")

        assert _no_cycles_after(reads) == 0
        session.close()

    @pytest.mark.parametrize("method", ["auto", "qsq", "seminaive"])
    def test_samegen_cold_reads(self, method):
        session = Session(_samegen_source())
        session.query("sg(l0_0, Y)?", method=method)

        def reads():
            for i in range(4):
                # a write before each read keeps the memo from serving
                assert session.assert_(f"flat(l2_{i}, extra{i})")
                result = session.query(f"sg(l0_{i}, Y)?", method=method)
                assert not result.from_memo and result.rows

        assert _no_cycles_after(reads) == 0
        session.close()

    def test_bom_churn_writes_and_view_reads(self):
        session = Session(bom_source(7, 2, 0.05, 1))
        view = session.materialize()
        session.query("clean(p1, S)?")

        def churn():
            for old, new, part in (
                ("p15", "p16", "p31"),
                ("p16", "p15", "p31"),
                ("p17", "p18", "p35"),
                ("p18", "p17", "p35"),
            ):
                with session.batch():
                    assert session.retract(f"subpart({old}, {part})")
                    assert session.assert_(f"subpart({new}, {part})")
                result = session.query("clean(p3, S)?")
                assert result.maintained and result.rows

        assert _no_cycles_after(churn) == 0
        view.drop()
        session.close()

    def test_ivm_initial_materialization(self):
        def materialize():
            database = bom_database(6, exception_rate=0.1, seed=2)
            mp = MaterializedProgram(bom_program(), database)
            assert mp.check_consistency()
            mp.close()

        assert _no_cycles_after(materialize) == 0
