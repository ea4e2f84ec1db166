"""The parallel evaluation tier: sharding, the thread pool, exact
equivalence.

The contract under test (see ``repro.datalog.parallel``): for any safe
stratified program, ``evaluate(..., workers=N)`` derives exactly the
facts the serial engine derives AND reports exactly the serial solution
counters (``facts_derived``, ``rule_firings``, ``duplicate_derivations``,
``iterations``, per-predicate counts) -- parallelism is observable only
in the ``parallel_*`` stats and the wall clock.  Budget trips,
cancellations, injected faults, and worker exceptions abort exactly as
serial: same exception surface, source database untouched and integral.
"""

import threading
import time

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
from repro.core.pipeline import QueryOptions
from repro.datalog import parallel
from repro.datalog.catalog import term_catalog
from repro.datalog.engine import EvaluationStats
from repro.datalog.errors import EvaluationError, NonTerminationError
from repro.datalog.parallel import (
    _batch_task,
    _BatchTask,
    _execute_shard,
    _hash_shards,
    _merge_shard,
    _ProgramShards,
    _shard_mode,
    _task_shards,
)
from repro.datalog.planner import (
    CompiledProgram,
    compile_rule,
    partition_columns,
)
from repro.datalog.terms import Constant
from repro.workloads.bom import bom_database, bom_program
from repro.workloads.graphs import chain_edges, load_edges

from conftest import solution_counters as _counters

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

#: pool sizes the equivalence and governance tests run at: the smallest
#: pool, and one with more shards than most windows have distinct keys
WORKER_COUNTS = (2, 4)


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
        assert plan.steps[1].key_ops  # constant-keyed probe downstream
        assert partition_columns(plan) is None
        assert _shard_mode(plan) == ("solo", None)

    def test_full_plans_get_shard_pivots(self):
        program = _program(TC)
        shards = _ProgramShards(program, CompiledProgram(program))
        assert set(shards.shard_plans) == {0, 1}
        for plan in shards.shard_plans.values():
            assert plan.steps[0].is_delta  # pivot executes as the input


# ----------------------------------------------------------------------
# hash sharding
# ----------------------------------------------------------------------
class TestRowShipping:
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
        """The rule indexes of every group the pool ran."""
        seen = []
        run_group = parallel._run_group

        def recording(group, *args):
            seen.append([task.rule_index for task in group])
            return run_group(group, *args)

        monkeypatch.setattr(parallel, "_run_group", recording)
        evaluate(_program(source), db, workers=2)
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

    def test_delta_task_shards_exactly_its_window(self):
        program = _program(TC)
        compiled = CompiledProgram(program)
        shards = _ProgramShards(program, compiled)
        working = _tc_db(8)
        working.add_values("anc", [(f"n{i}", f"n{i + 1}") for i in range(8)])
        task = _batch_task(
            0, 1, 1, {1: (3, 7)}, program, compiled, shards, 2
        )
        assert task.windows == {1: (3, 7)}
        assert task.plan is compiled.plan(1, 1)
        shard_rows = [
            row for _w, rows in _task_shards(task, working, 2) for row in rows
        ]
        window = working.get("anc").window_rows(3, 7)
        assert len(window) == 4
        assert sorted(shard_rows) == sorted(window)


# ----------------------------------------------------------------------
# task shards: what each worker is handed
# ----------------------------------------------------------------------
def _tc_working(keys=4, per_key=5):
    """The TC program, its compiled plans and shard modes, and a working
    database whose ``anc`` rows repeat each join key ``per_key`` times."""
    program = _program(TC)
    compiled = CompiledProgram(program)
    working = _tc_db(8)
    working.add_values(
        "anc",
        [(f"n{k}", f"m{j}") for k in range(keys) for j in range(per_key)],
    )
    return program, compiled, _ProgramShards(program, compiled), working


class TestTaskShards:
    def test_chunk_task_round_robins_the_full_relation(self):
        program = _program("node(X) :- e(X, Y).")
        compiled = CompiledProgram(program)
        shards = _ProgramShards(program, compiled)
        working = Database()
        working.add_values("e", [(f"a{i}", "b") for i in range(10)])
        task = _batch_task(0, 0, None, None, program, compiled, shards, 3)
        assert task.mode == "chunk" and task.input_pred == "e"
        handed = _task_shards(task, working, 3)
        assert [w for w, _ in handed] == [0, 1, 2]
        assert sorted(len(rows) for _, rows in handed) == [3, 3, 4]
        assert sorted(r for _, rows in handed for r in rows) == sorted(
            working.get("e").id_rows()
        )

    def test_hash_task_colocates_each_join_key(self):
        program, compiled, shards, working = _tc_working()
        hi = len(working.get("anc"))
        task = _batch_task(
            0, 1, 1, {1: (0, hi)}, program, compiled, shards, 3
        )
        assert task.mode == "hash" and task.pcols == (0,)
        owners = {}
        handed = _task_shards(task, working, 3)
        for w, rows in handed:
            for row in rows:
                assert owners.setdefault(row[0], w) == w
        assert sum(len(rows) for _, rows in handed) == hi

    def test_empty_shards_are_not_handed_out(self):
        program, compiled, shards, working = _tc_working()
        task = _batch_task(0, 1, 1, {1: (2, 3)}, program, compiled, shards, 4)
        handed = _task_shards(task, working, 4)
        assert len(handed) == 1
        assert handed[0][1] == working.get("anc").window_rows(2, 3)

    def test_solo_full_batch_runs_unsharded_on_its_owner(self):
        program = _program("p(X) :- e(X), g(c, d).")
        compiled = CompiledProgram(program)
        task = _BatchTask(
            5, 0, None, compiled.plan(0), None, "p", "e", "solo", None, 2
        )
        assert _task_shards(task, Database(), 3) == [(2, None)]

    def test_solo_delta_batch_goes_whole_to_its_owner(self):
        program, compiled, _shards, working = _tc_working()
        task = _BatchTask(
            1, 1, 1, compiled.plan(1, 1), {1: (0, 6)}, "anc", "anc",
            "solo", None, 1,
        )
        handed = _task_shards(task, working, 4)
        assert handed == [(1, working.get("anc").window_rows(0, 6))]

    def test_solo_owners_cycle_over_task_ids(self):
        program = _program("p(X) :- e(X), g(c, d).")
        compiled = CompiledProgram(program)
        shards = _ProgramShards(program, compiled)
        owners = [
            _batch_task(t, 0, None, None, program, compiled, shards, 3).solo
            for t in range(6)
        ]
        assert owners == [0, 1, 2, 0, 1, 2]


# ----------------------------------------------------------------------
# shard execution and merging
# ----------------------------------------------------------------------
class TestShardExecution:
    def test_shards_sum_to_the_unsharded_batch(self):
        _program_, compiled, _shards, working = _tc_working()
        plan = compiled.plan(1, 1)
        hi = len(working.get("anc"))
        windows = {1: (0, hi)}
        rows = working.get("anc").window_rows(0, hi)
        whole = _execute_shard(plan, working, rows, windows, None)
        parts = [
            _execute_shard(plan, working, shard, windows, None)
            for shard in _hash_shards(rows, (0,), 3)
        ]
        assert whole[1] > 0
        assert sum(part[1] for part in parts) == whole[1]
        assert set(r for part in parts for r in part[0]) == set(whole[0])

    def test_an_empty_shard_does_no_work(self):
        _program_, compiled, _shards, working = _tc_working()
        plan = compiled.plan(1, 1)
        assert _execute_shard(plan, working, [], {1: (0, 0)}, None) == (
            [], 0, 0, 0
        )

    def test_a_shard_past_the_deadline_reports_the_abort(self):
        _program_, compiled, _shards, working = _tc_working()
        plan = compiled.plan(1, 1)
        rows = working.get("anc").window_rows(0, 4)
        past = time.monotonic() - 1.0
        assert _execute_shard(plan, working, rows, {1: (0, 4)}, past) is None

    def test_merge_folds_shards_into_the_task_and_counters(self):
        stats = EvaluationStats()
        results = {7: (0, [])}
        _merge_shard(results, stats, 7, 0, [(1, 2), (1, 3)], 3, 4, 5)
        _merge_shard(results, stats, 7, 2, [(1, 2)], 1, 2, 6)
        assert results[7] == (4, [(1, 2), (1, 3), (1, 2)])
        assert stats.rule_firings == 4
        assert stats.join_probes == 6
        assert stats.tuples_scanned == 11
        assert stats.parallel_tasks == 2
        assert stats.parallel_rows_shipped == 3
        assert stats.parallel_worker_rows == {0: 3, 2: 1}

    def test_rows_shipped_counts_every_row_workers_hand_back(self):
        # the copy rule's 100 rows round-robin over four workers, one
        # b_j per worker, so each hands back all 25 node(a_i) rows:
        # duplicates across workers are shipped, then deduplicated
        program = _program("node(X) :- e(X, Y).")
        db = Database()
        db.add_values(
            "e", [(f"a{i}", f"b{j}") for i in range(25) for j in range(4)]
        )
        result = evaluate(program, db, workers=4)
        assert result.stats.parallel_rows_shipped == 100
        assert result.stats.facts_derived == 25
        assert evaluate(program, db).stats.parallel_rows_shipped == 0


# ----------------------------------------------------------------------
# catalog export (the ID-space snapshot the interning tests read)
# ----------------------------------------------------------------------
class TestCatalogExport:
    def test_export_is_indexed_by_id(self):
        catalog = term_catalog()
        a = catalog.intern(Constant("parallel-export-probe"))
        state = catalog.export_state()
        assert state[a] == Constant("parallel-export-probe")
        assert len(state) == len(catalog)

    def test_concurrent_interning_hands_out_one_id_per_term(self):
        catalog = term_catalog()
        before = len(catalog)
        terms = [Constant(f"parallel-race-{i}") for i in range(200)]
        start = threading.Barrier(6)
        seen = []

        def intern_all(order):
            start.wait()
            seen.append({term: catalog.intern(term) for term in order})

        threads = [
            threading.Thread(
                target=intern_all, args=(terms[k:] + terms[:k],)
            )
            for k in range(0, 60, 10)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(seen) == 6
        assert all(ids == seen[0] for ids in seen)
        assert len(catalog) == before + 200
        assert sorted(seen[0].values()) == list(range(before, before + 200))


# ----------------------------------------------------------------------
# equivalence: answers AND counters identical to serial
# ----------------------------------------------------------------------
class TestSerialEquivalence:
    @pytest.mark.parametrize("method", ("seminaive", "naive"))
    def test_transitive_closure(self, method):
        program = _program(TC)
        db = _tc_db(40, extra=[("n5", "n1"), ("n20", "n3")])
        base = evaluate(program, db, method=method)
        for workers in (2, 4):
            result = evaluate(program, db, method=method, workers=workers)
            assert _snapshot(result) == _snapshot(base)
            assert _counters(result.stats) == _counters(base.stats)
            assert result.stats.parallel_workers == workers
            assert result.stats.parallel_tasks > 0
            assert result.database.check_integrity()

    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    @pytest.mark.parametrize("method", ("seminaive", "naive"))
    def test_stratified_bom(self, method, workers):
        program = bom_program()
        db = bom_database(depth=7, fanout=2, exception_rate=0.2, seed=11)
        base = evaluate(program, db, method=method)
        result = evaluate(program, db, method=method, workers=workers)
        assert _snapshot(result) == _snapshot(base)
        assert _counters(result.stats) == _counters(base.stats)

    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    @pytest.mark.parametrize(
        "source", (SAMEGEN, NONLINEAR_SG), ids=["sg", "nonlinear-sg"]
    )
    def test_same_generation(self, source, workers):
        program = _program(source)
        db = _sg_db()
        base = evaluate(program, db, method="seminaive")
        result = evaluate(program, db, method="seminaive", workers=workers)
        assert _snapshot(result) == _snapshot(base)
        assert _counters(result.stats) == _counters(base.stats)

    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_empty_and_trivial_programs(self, workers):
        program = _program("node(X) :- e(X, Y).")
        empty = Database()
        r = evaluate(program, empty, workers=workers)
        assert _snapshot(r) == {"node": frozenset()}
        db = Database()
        db.add_values("e", [("a", "b")])
        r = evaluate(program, db, workers=workers)
        base = evaluate(program, db)
        assert _snapshot(r) == _snapshot(base)
        assert _counters(r.stats) == _counters(base.stats)

    def test_direct_entry_points_accept_workers(self):
        program = _program(TC)
        db = _tc_db(10)
        semi = evaluate(program, db, workers=2)
        naive = evaluate(program, db, "naive", workers=2)
        base = evaluate(program, db)
        assert _snapshot(semi) == _snapshot(base)
        assert _snapshot(naive) == _snapshot(base)

    def test_one_worker_stays_serial(self):
        program = _program(TC)
        db = _tc_db(10)
        result = evaluate(program, db, workers=1)
        assert result.stats.parallel_workers == 0
        assert _snapshot(result) == _snapshot(evaluate(program, db))

    def test_source_database_never_mutated(self):
        program = _program(TC)
        db = _tc_db(20)
        before = _db_fingerprint(db)
        evaluate(program, db, workers=4)
        assert _db_fingerprint(db) == before
        assert db.check_integrity()

    def test_interning_plans_allocate_each_id_once(self):
        # a structured head term interns fresh IDs at run time, on the
        # pool's threads: every f(a_i) is built by all four workers (the
        # copy rule's rows round-robin, four rows per a_i), and the
        # catalog must still hand each new term exactly one ID
        program = _program("wrapped(f(X)) :- e(X, Y).")
        db = Database()
        db.add_values(
            "e",
            [(f"pool-intern-a{i}", f"pool-intern-b{j}")
             for i in range(25) for j in range(4)],
        )
        catalog = term_catalog()
        before = len(catalog)
        result = evaluate(program, db, workers=4)
        new_terms = catalog.export_state()[before:]
        assert len(new_terms) == 25
        assert {term for (term,) in result.database.tuples("wrapped")} \
            == set(new_terms)
        base = evaluate(program, db)
        assert len(catalog) == before + 25
        assert _snapshot(result) == _snapshot(base)
        assert _counters(result.stats) == _counters(base.stats)

    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_worker_rows_balance_on_hash_shards(self, workers):
        program = _program(TC)
        db = _tc_db(60)
        result = evaluate(program, db, workers=workers)
        per_worker = result.stats.parallel_worker_rows
        # every worker derived something on a 60-node chain
        assert len(per_worker) == workers
        assert all(count > 0 for count in per_worker.values())

    def test_hash_shards_balance_within_2x_on_a_braid(self):
        # 25,000 disjoint 4-edge chains: every delta row hash-shards on
        # the join column, and each of 4 workers derives at least half
        # of what the busiest one derives
        edges = [
            (f"c{c}n{j}", f"c{c}n{j + 1}")
            for c in range(25_000)
            for j in range(4)
        ]
        result = evaluate(_program(TC), load_edges(edges), workers=4)
        rows = result.stats.parallel_worker_rows
        assert len(rows) == 4
        assert min(rows.values()) >= 0.5 * max(rows.values())


# ----------------------------------------------------------------------
# budgets, cancellation, faults: degrade/abort exactly as serial
# ----------------------------------------------------------------------
@pytest.mark.parametrize("workers", WORKER_COUNTS)
class TestGovernedParallelEvaluation:
    def test_max_facts_trips_identically(self, workers):
        program = _program(TC)
        db = _tc_db(30)
        with pytest.raises(NonTerminationError) as serial:
            evaluate(program, db, meter=EvaluationBudget(max_facts=20).start())
        with pytest.raises(NonTerminationError) as parallel:
            evaluate(
                program,
                db,
                meter=EvaluationBudget(max_facts=20).start(),
                workers=workers,
            )
        assert parallel.value.facts == serial.value.facts
        assert parallel.value.iterations == serial.value.iterations
        assert db.check_integrity()

    def test_max_iterations_trips_identically(self, workers):
        program = _program(TC)
        db = _tc_db(30)
        with pytest.raises(NonTerminationError) as serial:
            evaluate(
                program,
                db,
                meter=EvaluationBudget(max_iterations=3).start(),
            )
        with pytest.raises(NonTerminationError) as parallel:
            evaluate(
                program,
                db,
                meter=EvaluationBudget(max_iterations=3).start(),
                workers=workers,
            )
        assert parallel.value.facts == serial.value.facts
        assert db.check_integrity()

    def test_meter_max_facts_trips(self, workers):
        program = _program(TC)
        db = _tc_db(30)
        meter = EvaluationBudget(max_facts=15).start()
        before = _db_fingerprint(db)
        with pytest.raises(BudgetExceeded) as info:
            evaluate(program, db, workers=workers, meter=meter)
        assert info.value.limit == "max_facts"
        assert _db_fingerprint(db) == before
        assert db.check_integrity()

    def test_expired_deadline_aborts(self, workers):
        program = _program(TC)
        db = _tc_db(30)
        meter = EvaluationBudget(timeout=0.0).start()
        time.sleep(0.002)
        with pytest.raises(BudgetExceeded) as info:
            evaluate(program, db, workers=workers, meter=meter)
        assert info.value.limit == "wall_clock"
        assert db.check_integrity()

    def test_precancelled_token_aborts(self, workers):
        program = _program(TC)
        db = _tc_db(30)
        token = CancellationToken()
        token.cancel()
        meter = EvaluationBudget(token=token).start()
        with pytest.raises(EvaluationCancelled):
            evaluate(program, db, workers=workers, meter=meter)
        assert db.check_integrity()

    @pytest.mark.parametrize("seed", range(6))
    def test_injected_faults_preserve_atomicity(self, seed, workers):
        """A fault at any round/batch/install boundary on the pool
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
                program, db, method="seminaive", workers=workers,
                meter=meter,
            )
        except (InjectedFault, EvaluationCancelled):
            result = None
        assert _db_fingerprint(db) == before
        assert db.check_integrity()
        if result is not None:
            assert _snapshot(result) == _snapshot(oracle)
        # the pool is gone: a clean re-run on the same database agrees
        rerun = evaluate(program, db, method="seminaive", workers=workers)
        assert _snapshot(rerun) == _snapshot(oracle)
        assert _counters(rerun.stats) == _counters(oracle.stats)

    def test_fault_fires_at_same_boundary_as_serial(self, workers):
        """The parent drives every meter boundary, so a deterministic
        batch-fault plan fires after the same number of ticks under
        workers as under serial evaluation."""
        program = _program(TC)
        db = _tc_db(20)
        def boundary(pool_size):
            plan = FaultPlan("batch", after=4)
            meter = EvaluationBudget(fault_plan=plan).start()
            kwargs = {"workers": pool_size} if pool_size > 1 else {}
            with pytest.raises((InjectedFault, EvaluationCancelled)):
                evaluate(program, db, meter=meter, **kwargs)
            return plan.counts
        assert boundary(workers)["batch"] == boundary(1)["batch"]


# ----------------------------------------------------------------------
# the pool's lifetime: one evaluation, however it ends
# ----------------------------------------------------------------------
def _pool_threads():
    return [
        t for t in threading.enumerate()
        if t.name.startswith("repro-parallel")
    ]


class _PastDeadlineMeter:
    """A meter whose deadline has passed but whose checks never trip."""

    deadline = time.monotonic() - 1.0

    def check_round(self, stats, stratum=None, round_=None, database=None):
        pass

    def check_batch(self, stats):
        pass

    def check_limits(self, stats):
        pass


class TestPoolLifecycle:
    def test_pool_threads_end_with_the_evaluation(self):
        evaluate(_program(TC), _tc_db(20), workers=4)
        assert _pool_threads() == []

    def test_pool_threads_end_after_a_budget_trip(self):
        with pytest.raises(NonTerminationError):
            evaluate(
                _program(TC),
                _tc_db(30),
                meter=EvaluationBudget(max_facts=20).start(),
                workers=4,
            )
        assert _pool_threads() == []

    def test_a_worker_exception_propagates_and_leaves_the_source(
        self, monkeypatch
    ):
        calls = []
        execute_shard = parallel._execute_shard

        def failing(*args):
            calls.append(None)
            if len(calls) == 5:
                raise RuntimeError("shard failed")
            return execute_shard(*args)

        monkeypatch.setattr(parallel, "_execute_shard", failing)
        db = _tc_db(20)
        before = _db_fingerprint(db)
        with pytest.raises(RuntimeError, match="shard failed"):
            evaluate(_program(TC), db, workers=2)
        assert _db_fingerprint(db) == before
        assert db.check_integrity()
        assert _pool_threads() == []

    def test_a_deadline_abort_no_meter_reports_is_still_an_error(self):
        with pytest.raises(EvaluationError, match="no meter owns"):
            evaluate(
                _program(TC), _tc_db(10), workers=2,
                meter=_PastDeadlineMeter(),
            )
        assert _pool_threads() == []


# ----------------------------------------------------------------------
# session surface
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
                "anc(a, X)?",
                workers=4,
                budget=EvaluationBudget(max_facts=10_000_000),
            )
            assert result.budget_spent is not None
            assert len(result.rows) == 4

    def test_worker_count_below_one_is_rejected(self):
        # a rejected count never reaches the memo, so it cannot split it
        with Session(SESSION_SRC) as session:
            for workers in (0, -5, 2.0, True):
                with pytest.raises(ValueError, match="invalid workers"):
                    session.query("anc(a, X)?", workers=workers)
            session.query("anc(a, X)?", workers=1)
            assert session.counters()["memo_entries"] == 1

    def test_query_options_check_the_worker_count(self):
        assert QueryOptions(workers=3).workers == 3
        assert QueryOptions().workers == 1
        for workers in (0, -1, 1.5, "2", None, False):
            with pytest.raises(ValueError, match="invalid workers"):
                QueryOptions(workers=workers)
