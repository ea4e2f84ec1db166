"""The parallel evaluation tier: sharding, backends, exact equivalence.

The contract under test (see ``repro.datalog.parallel``): for any safe
stratified program, ``evaluate(..., workers=N)`` derives exactly the
facts the serial engine derives AND reports exactly the serial solution
counters (``facts_derived``, ``rule_firings``, ``duplicate_derivations``,
``iterations``, per-predicate counts) -- parallelism is observable only
in the ``parallel_*`` stats and the wall clock.  Budget trips,
cancellations, injected faults, and worker deaths abort exactly as
serial: same exception surface, source database untouched and integral.
"""

import multiprocessing
import time
from array import array

import pytest

from repro import (
    BudgetExceeded,
    CancellationToken,
    Database,
    EvaluationBudget,
    EvaluationCancelled,
    FaultPlan,
    Session,
    evaluate,
    parse_program,
)
from repro.core.limits import InjectedFault
from repro.datalog.catalog import TermCatalog, term_catalog
from repro.datalog.engine import evaluate_naive, evaluate_seminaive
from repro.datalog.errors import NonTerminationError
from repro.datalog.parallel import (
    _BatchTask,
    _flatten,
    _hash_shards,
    _ProgramShards,
    _replica_preds,
    _shard_mode,
    _ThreadBackend,
    _unflatten,
    resolve_backend,
)
from repro.datalog.planner import (
    CompiledProgram,
    compile_rule,
    partition_columns,
    plan_interns_terms,
)
from repro.datalog.terms import Constant
from repro.workloads.bom import bom_database, bom_program
from repro.workloads.graphs import chain_edges, load_edges

from conftest import solution_counters as _counters

BACKENDS = ("fork", "thread")

TC = """
    anc(X, Y) :- par(X, Y).
    anc(X, Z) :- par(X, Y), anc(Y, Z).
"""

SAMEGEN = """
    sg(X, Y) :- flat(X, Y).
    sg(X, Y) :- up(X, U), sg(U, V), down(V, Y).
"""

NONLINEAR_SG = """
    sg(X, Y) :- flat(X, Y).
    sg(X, Y) :- up(X, U), sg(U, V), flat(V, W), sg(W, Z), down(Z, Y).
"""


def _program(source):
    return parse_program(source).program


def _tc_db(n=40, extra=()):
    edges = chain_edges(n) + list(extra)
    return load_edges(edges)


def _sg_db():
    db = Database()
    db.add_values("up", [(f"a{i}", f"a{i+1}") for i in range(6)])
    db.add_values("down", [(f"a{i+1}", f"a{i}") for i in range(6)])
    db.add_values("flat", [("a3", "a3"), ("a2", "a4"), ("a5", "a1")])
    return db


def _snapshot(result):
    """Frozen ID rows of every derived relation."""
    out = {}
    for key in sorted(result.derived_keys):
        rel = result.database.get(key)
        out[key] = frozenset(rel.id_rows()) if rel is not None else frozenset()
    return out


def _db_fingerprint(db):
    return (
        db.version,
        {key: frozenset(db.tuples(key)) for key in db.predicate_keys()},
    )


# ----------------------------------------------------------------------
# backend selection
# ----------------------------------------------------------------------
class TestResolveBackend:
    def test_explicit_backends_pass_through(self):
        assert resolve_backend("fork") == "fork"
        assert resolve_backend("thread") == "thread"

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError):
            resolve_backend("mpi")

    def test_auto_picks_a_real_backend(self):
        resolved = resolve_backend("auto")
        assert resolved in ("fork", "thread")
        if "fork" not in multiprocessing.get_all_start_methods():
            assert resolved == "thread"


# ----------------------------------------------------------------------
# shard planning
# ----------------------------------------------------------------------
class TestShardPlanning:
    def test_tc_delta_plan_hash_partitions_on_join_column(self):
        program = _program(TC)
        compiled = CompiledProgram(program)
        # delta on the recursive anc occurrence: rows are (Y, Z) and
        # par is probed on Y, so the partition column is 0
        plan = compiled.plan(1, 1)
        assert partition_columns(plan) == (0,)
        assert _shard_mode(plan) == ("hash", (0,))

    def test_copy_rule_chunks(self):
        program = _program("node(X) :- e(X, Y).")
        shards = _ProgramShards(program, CompiledProgram(program))
        mode, pcols = shards.full_modes[0]
        assert mode == "chunk" and pcols is None

    def test_ground_probe_goes_solo(self):
        # g(c, d) is probed on constant keys only: no input column can
        # co-locate the probe, so the batch must not be split.  Pin the
        # pivot on e explicitly -- order_body would otherwise move the
        # fully ground literal first and turn this into a chunk plan.
        program = _program("p(X) :- e(X), g(c, d).")
        plan = compile_rule(program.rules[0], 0)
        assert plan.steps[1].b_key_ops  # constant-keyed probe downstream
        assert partition_columns(plan) is None
        assert _shard_mode(plan) == ("solo", None)

    def test_full_plans_get_shard_pivots(self):
        program = _program(TC)
        shards = _ProgramShards(program, CompiledProgram(program))
        assert set(shards.shard_plans) == {0, 1}
        for plan in shards.shard_plans.values():
            assert plan.steps[0].is_delta  # pivot executes as the input

    def test_plans_of_parsed_programs_do_not_intern(self):
        program = _program(TC)
        compiled = CompiledProgram(program)
        shards = _ProgramShards(program, compiled)
        assert not any(
            plan_interns_terms(p)
            for p in shards.all_plans(program, compiled)
        )

    def test_replica_preds_cover_probed_derived_only(self):
        program = _program(TC)
        compiled = CompiledProgram(program)
        shards = _ProgramShards(program, compiled)
        # anc is probed by the recursive rule's full shard plan, so the
        # fork workers must maintain a real replica for it
        assert _replica_preds(program, compiled, shards) == {"anc"}
        prog2 = _program("node(X) :- e(X, Y).")
        comp2 = CompiledProgram(prog2)
        assert _replica_preds(prog2, comp2, _ProgramShards(prog2, comp2)) \
            == frozenset()


# ----------------------------------------------------------------------
# row shipping
# ----------------------------------------------------------------------
class TestRowShipping:
    def test_flatten_roundtrip(self):
        rows = [(1, 2, 3), (4, 5, 6), (-1, 0, 2**40)]
        buf = _flatten(rows)
        assert isinstance(buf, array) and buf.typecode == "q"
        assert _unflatten(buf, 3, 3) == rows

    def test_flatten_roundtrip_zero_arity(self):
        rows = [(), (), ()]
        buf = _flatten(rows)
        assert len(buf) == 0
        assert _unflatten(buf, 0, 3) == rows

    def test_hash_shards_partition_exactly(self):
        rows = [(i, i * 7 % 13) for i in range(200)]
        for pcols in ((0,), (1,), (0, 1)):
            shards = _hash_shards(rows, pcols, 4)
            assert sum(len(s) for s in shards) == len(rows)
            rebuilt = [r for s in shards for r in s]
            assert sorted(rebuilt) == sorted(rows)

    def test_hash_shards_colocate_keys(self):
        rows = [(k, v) for k in range(10) for v in range(20)]
        shards = _hash_shards(rows, (0,), 3)
        owners = {}
        for w, shard in enumerate(shards):
            for row in shard:
                assert owners.setdefault(row[0], w) == w


# ----------------------------------------------------------------------
# rule groups: one merge per rule and round, in serial rule order
# ----------------------------------------------------------------------
class TestRuleGroups:
    def _groups(self, monkeypatch, source, db):
        """The rule indexes of every group the thread backend ran."""
        seen = []
        run_group = _ThreadBackend.run_group

        def recording(self, group, stats, deadline):
            seen.append([task.rule_index for task in group])
            return run_group(self, group, stats, deadline)

        monkeypatch.setattr(_ThreadBackend, "run_group", recording)
        evaluate(
            _program(source), db, workers=2, parallel_backend="thread"
        )
        return seen

    def test_nonlinear_delta_plans_share_one_group(self, monkeypatch):
        # the windows keep the two sg delta plans from seeing each
        # other's rows, so they run without a barrier between them
        groups = self._groups(monkeypatch, NONLINEAR_SG, _sg_db())
        assert all(len(set(group)) == 1 for group in groups)
        assert [1, 1] in groups

    def test_rules_keep_serial_order(self, monkeypatch):
        groups = self._groups(monkeypatch, TC, _tc_db(8))
        # round 1 runs both full plans, each in its own group; then the
        # recursive rule alone, once per round
        assert groups[:2] == [[0], [1]]
        assert all(group == [1] for group in groups[2:])

    def test_descriptor_carries_the_windows(self):
        task = _BatchTask(0, 1, 1, {1: (3, 7)}, "anc", "anc", "hash", (0,), 0)
        assert task.descriptor()[3] == {1: (3, 7)}


# ----------------------------------------------------------------------
# catalog export (the one-shot ID-space snapshot workers build on)
# ----------------------------------------------------------------------
class TestCatalogExport:
    def test_export_is_indexed_by_id(self):
        catalog = term_catalog()
        a = catalog.intern(Constant("parallel-export-probe"))
        state = catalog.export_state()
        assert state[a] == Constant("parallel-export-probe")
        assert len(state) == len(catalog)

    def test_ensure_state_rebuilds_a_fresh_catalog(self):
        source = TermCatalog()
        ids = [source.intern(Constant(f"c{i}")) for i in range(5)]
        state = source.export_state()
        worker = TermCatalog()
        worker.ensure_state(state)
        for i, term in zip(ids, state):
            assert worker.id_of(term) == i
            assert worker.resolve(i) == term

    def test_ensure_state_is_idempotent_on_a_forked_prefix(self):
        source = TermCatalog()
        for i in range(5):
            source.intern(Constant(f"c{i}"))
        state = source.export_state()
        source.ensure_state(state)  # self-application: no-op
        assert len(source) == len(state)

    def test_ensure_state_rejects_divergence(self):
        source = TermCatalog()
        source.intern(Constant("x"))
        worker = TermCatalog()
        worker.intern(Constant("y"))  # ID 0 disagrees
        with pytest.raises(ValueError, match="diverged at ID 0"):
            worker.ensure_state(source.export_state())


# ----------------------------------------------------------------------
# equivalence: answers AND counters identical to serial
# ----------------------------------------------------------------------
class TestSerialEquivalence:
    @pytest.mark.parametrize("method", ("seminaive", "naive"))
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_transitive_closure(self, method, backend):
        program = _program(TC)
        db = _tc_db(40, extra=[("n5", "n1"), ("n20", "n3")])
        base = evaluate(program, db, method=method)
        for workers in (2, 4):
            result = evaluate(
                program, db, method=method, workers=workers,
                parallel_backend=backend,
            )
            assert _snapshot(result) == _snapshot(base)
            assert _counters(result.stats) == _counters(base.stats)
            assert result.stats.parallel_workers == workers
            assert result.stats.parallel_backend == backend
            assert result.stats.parallel_tasks > 0
            assert result.database.check_integrity()

    @pytest.mark.parametrize("method", ("seminaive", "naive"))
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_stratified_bom(self, method, backend):
        program = bom_program()
        db = bom_database(depth=7, fanout=2, exception_rate=0.2, seed=11)
        base = evaluate(program, db, method=method)
        result = evaluate(
            program, db, method=method, workers=4,
            parallel_backend=backend,
        )
        assert _snapshot(result) == _snapshot(base)
        assert _counters(result.stats) == _counters(base.stats)

    @pytest.mark.parametrize("source", (SAMEGEN, NONLINEAR_SG))
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_same_generation(self, source, backend):
        program = _program(source)
        db = _sg_db()
        base = evaluate(program, db, method="seminaive")
        result = evaluate(
            program, db, method="seminaive", workers=4,
            parallel_backend=backend,
        )
        assert _snapshot(result) == _snapshot(base)
        assert _counters(result.stats) == _counters(base.stats)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_empty_and_trivial_programs(self, backend):
        program = _program("node(X) :- e(X, Y).")
        empty = Database()
        r = evaluate(
            program, empty, workers=2, parallel_backend=backend
        )
        assert _snapshot(r) == {"node": frozenset()}
        db = Database()
        db.add_values("e", [("a", "b")])
        r = evaluate(program, db, workers=4, parallel_backend=backend)
        base = evaluate(program, db)
        assert _snapshot(r) == _snapshot(base)
        assert _counters(r.stats) == _counters(base.stats)

    def test_direct_entry_points_accept_workers(self):
        program = _program(TC)
        db = _tc_db(10)
        semi = evaluate_seminaive(program, db, workers=2)
        naive = evaluate_naive(program, db, workers=2)
        base = evaluate(program, db)
        assert _snapshot(semi) == _snapshot(base)
        assert _snapshot(naive) == _snapshot(base)

    def test_one_worker_stays_serial(self):
        program = _program(TC)
        db = _tc_db(10)
        result = evaluate(program, db, workers=1)
        assert result.stats.parallel_workers == 0
        assert result.stats.parallel_fallback == ""
        assert _snapshot(result) == _snapshot(evaluate(program, db))

    def test_source_database_never_mutated(self):
        program = _program(TC)
        db = _tc_db(20)
        before = _db_fingerprint(db)
        evaluate(program, db, workers=4)
        assert _db_fingerprint(db) == before
        assert db.check_integrity()

    @pytest.mark.skipif(
        resolve_backend("auto") != "fork",
        reason="interning fallback only applies to the fork backend",
    )
    def test_interning_plans_fall_back_to_threads(self):
        # a structured head term interns fresh IDs at run time: fork
        # workers would allocate IDs the parent never sees
        program = _program("wrapped(f(X)) :- e(X, Y).")
        db = Database()
        db.add_values("e", [(f"a{i}", f"b{i}") for i in range(10)])
        base = evaluate(program, db)
        result = evaluate(program, db, workers=4, parallel_backend="fork")
        assert result.stats.parallel_backend == "thread"
        assert "intern" in result.stats.parallel_fallback
        assert _snapshot(result) == _snapshot(base)
        assert _counters(result.stats) == _counters(base.stats)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_worker_rows_balance_on_hash_shards(self, backend):
        program = _program(TC)
        db = _tc_db(60)
        result = evaluate(
            program, db, workers=4, parallel_backend=backend
        )
        per_worker = result.stats.parallel_worker_rows
        # every worker derived something on a 60-node chain
        assert len(per_worker) == 4
        assert all(count > 0 for count in per_worker.values())


# ----------------------------------------------------------------------
# budgets, cancellation, faults: degrade/abort exactly as serial
# ----------------------------------------------------------------------
class TestGovernedParallelEvaluation:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_max_facts_trips_identically(self, backend):
        program = _program(TC)
        db = _tc_db(30)
        with pytest.raises(NonTerminationError) as serial:
            evaluate(program, db, max_facts=20)
        with pytest.raises(NonTerminationError) as parallel:
            evaluate(
                program, db, max_facts=20, workers=4,
                parallel_backend=backend,
            )
        assert parallel.value.facts == serial.value.facts
        assert parallel.value.iterations == serial.value.iterations
        assert db.check_integrity()

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_max_iterations_trips_identically(self, backend):
        program = _program(TC)
        db = _tc_db(30)
        with pytest.raises(NonTerminationError) as serial:
            evaluate(program, db, max_iterations=3)
        with pytest.raises(NonTerminationError) as parallel:
            evaluate(
                program, db, max_iterations=3, workers=4,
                parallel_backend=backend,
            )
        assert parallel.value.facts == serial.value.facts
        assert db.check_integrity()

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_meter_max_facts_trips(self, backend):
        program = _program(TC)
        db = _tc_db(30)
        meter = EvaluationBudget(max_facts=15).start()
        before = _db_fingerprint(db)
        with pytest.raises(BudgetExceeded) as info:
            evaluate(
                program, db, workers=4, parallel_backend=backend,
                meter=meter,
            )
        assert info.value.limit == "max_facts"
        assert _db_fingerprint(db) == before
        assert db.check_integrity()

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_expired_deadline_aborts(self, backend):
        program = _program(TC)
        db = _tc_db(30)
        meter = EvaluationBudget(timeout=0.0).start()
        time.sleep(0.002)
        with pytest.raises(BudgetExceeded) as info:
            evaluate(
                program, db, workers=4, parallel_backend=backend,
                meter=meter,
            )
        assert info.value.limit == "wall_clock"
        assert db.check_integrity()

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_precancelled_token_aborts(self, backend):
        program = _program(TC)
        db = _tc_db(30)
        token = CancellationToken()
        token.cancel()
        meter = EvaluationBudget(token=token).start()
        with pytest.raises(EvaluationCancelled):
            evaluate(
                program, db, workers=4, parallel_backend=backend,
                meter=meter,
            )
        assert db.check_integrity()

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("seed", range(6))
    def test_injected_faults_preserve_atomicity(self, backend, seed):
        """A fault at any round/batch/install boundary under workers=4
        leaves the source database byte-identical and integral, and a
        clean re-run agrees with serial -- the pool tears down without
        leaking partial state anywhere observable."""
        program = bom_program()
        db = bom_database(depth=6, fanout=2, exception_rate=0.2, seed=5)
        before = _db_fingerprint(db)
        oracle = evaluate(program, db, method="seminaive")
        plan = FaultPlan.randomized(seed)
        meter = EvaluationBudget(fault_plan=plan).start()
        try:
            result = evaluate(
                program, db, method="seminaive", workers=4,
                parallel_backend=backend, meter=meter,
            )
        except (InjectedFault, EvaluationCancelled):
            result = None
        assert _db_fingerprint(db) == before
        assert db.check_integrity()
        if result is not None:
            assert _snapshot(result) == _snapshot(oracle)
        # the pool is gone: a clean re-run on the same database agrees
        rerun = evaluate(
            program, db, method="seminaive", workers=4,
            parallel_backend=backend,
        )
        assert _snapshot(rerun) == _snapshot(oracle)
        assert _counters(rerun.stats) == _counters(oracle.stats)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_fault_fires_at_same_boundary_as_serial(self, backend):
        """The parent drives every meter boundary, so a deterministic
        batch-fault plan fires after the same number of ticks under
        workers as under serial evaluation."""
        program = _program(TC)
        db = _tc_db(20)
        def boundary(workers):
            plan = FaultPlan("batch", after=4)
            meter = EvaluationBudget(fault_plan=plan).start()
            kwargs = {"workers": workers,
                      "parallel_backend": backend} if workers > 1 else {}
            with pytest.raises((InjectedFault, EvaluationCancelled)):
                evaluate(program, db, meter=meter, **kwargs)
            return plan.counts
        assert boundary(4)["batch"] == boundary(1)["batch"]


# ----------------------------------------------------------------------
# session / server surfaces
# ----------------------------------------------------------------------
SESSION_SRC = TC + """
    par(a, b). par(b, c). par(c, d). par(d, e).
"""


class TestSessionWorkers:
    def test_rows_identical_and_memo_keyed_by_workers(self):
        with Session(SESSION_SRC) as session:
            serial = session.query("anc(a, X)?", method="seminaive")
            parallel = session.query(
                "anc(a, X)?", method="seminaive", workers=4
            )
            assert parallel.rows == serial.rows
            assert not parallel.from_memo  # distinct memo entry
            assert parallel.stats.parallel_workers == 4
            again = session.query(
                "anc(a, X)?", method="seminaive", workers=4
            )
            assert again.from_memo

    def test_auto_dispatch_accepts_workers(self):
        with Session(SESSION_SRC) as session:
            serial = session.query("anc(a, X)?")
            parallel = session.query("anc(a, X)?", workers=4)
            assert parallel.rows == serial.rows
            assert parallel.method == serial.method

    def test_rewrite_methods_run_parallel_evaluation(self):
        with Session(SESSION_SRC) as session:
            result = session.query(
                "anc(a, X)?", method="supplementary_magic", workers=4
            )
            assert result.stats.parallel_workers == 4
            assert ("e",) in {
                tuple(t.value for t in row) for row in result.rows
            }

    def test_budgeted_parallel_query_degrades_like_serial(self):
        with Session(SESSION_SRC) as session:
            result = session.query(
                "anc(a, X)?", workers=4, max_facts=10_000_000
            )
            assert result.budget_spent is not None
            assert len(result.rows) == 4


class TestServerWorkers:
    def test_server_config_threads_workers_through(self):
        from repro.server.app import ServerConfig, ServerHandle

        config = ServerConfig(workers=2)
        with ServerHandle.start(SESSION_SRC, config=config) as handle:
            out = handle.request(
                {"op": "query", "query": "anc(a, X)?"}
            )
            assert out["ok"]
            assert out["row_count"] == 4
