"""The round boundaries every evaluation route shares.

Naive and semi-naive evaluation, serial or on the worker pool, IVM
propagation and QSQ (over its subquery and answer relations) all run
their rounds through one driver in ``repro.datalog.engine``.  A
recording meter (duck-typed, like every meter the engine accepts) pins
where that driver puts its boundaries: the exact ``check_round(stratum,
round)`` sequence, the number of batch checks, and the iteration at
which ``max_iterations`` trips.  The expected values are literals; any
route that moves a boundary fails here first.
"""

import pytest

from repro import (
    Database,
    EvaluationBudget,
    MaterializedProgram,
    Program,
    adorn_program,
    evaluate,
    parse_program,
    parse_query,
    qsq_evaluate,
)
from repro.datalog.errors import NonTerminationError

#: three strata: {reach, node} (recursive), {gap} (negates reach) and
#: {linked} (recursive, negates gap)
PROGRAM = """
    reach(X, Y) :- edge(X, Y).
    reach(X, Z) :- edge(X, Y), reach(Y, Z).
    node(X) :- edge(X, Y).
    node(Y) :- edge(X, Y).
    gap(X, Y) :- node(X), node(Y), not reach(X, Y).
    linked(X, Y) :- reach(X, Y), not gap(Y, X).
    linked(X, Z) :- linked(X, Y), linked(Y, Z).
    edge(a0, a1). edge(a1, a2). edge(a2, a3). edge(a3, a4).
    edge(a4, a5). edge(a3, a1).
"""

#: serial, and the thread pool at two pool sizes
ROUTES = (None, 2, 4)


class RecordingMeter:
    """Records every boundary the engine reports and never trips."""

    deadline = None

    def __init__(self):
        self.rounds = []
        self.batches = 0

    def check_round(self, stats, stratum=None, round_=None, database=None):
        self.rounds.append((stratum, round_))

    def check_batch(self, stats):
        self.batches += 1

    def check_limits(self, stats):
        pass


def _parsed():
    parsed = parse_program(PROGRAM)
    database = Database()
    database.add_facts(parsed.facts)
    return parsed.program, database


def _route_kwargs(workers):
    if workers is None:
        return {}
    return {"workers": workers}


#: every route numbers its rounds per stratum.  A naive stratum ends
#: with a round that derives nothing; a semi-naive one as soon as no
#: rule has rows it has not seen, so the flat stratum 1 and stratum 2
#: (whose full first round already reached the fixpoint) take one round
ROUNDS = {
    "naive": [
        (0, 1), (0, 2), (0, 3), (0, 4), (0, 5),
        (1, 1), (1, 2),
        (2, 1), (2, 2),
    ],
    "seminaive": [
        (0, 1), (0, 2), (0, 3), (0, 4), (0, 5),
        (1, 1),
        (2, 1),
    ],
}
EXPECTED_BATCHES = {"naive": 26, "seminaive": 11}


@pytest.mark.parametrize(
    "workers", ROUTES, ids=("serial", "thread", "thread4")
)
@pytest.mark.parametrize("method", ("naive", "seminaive"))
class TestEvaluationBoundaries:
    def test_round_checks(self, method, workers):
        program, database = _parsed()
        meter = RecordingMeter()
        result = evaluate(
            program, database, method=method, meter=meter,
            **_route_kwargs(workers),
        )
        assert meter.rounds == ROUNDS[method]
        assert result.stats.iterations == len(ROUNDS[method])
        assert meter.batches == EXPECTED_BATCHES[method]

    def test_max_iterations_trip(self, method, workers):
        program, database = _parsed()
        with pytest.raises(NonTerminationError) as info:
            evaluate(
                program,
                database,
                method=method,
                meter=EvaluationBudget(max_iterations=3).start(),
                **_route_kwargs(workers),
            )
        assert (info.value.iterations, info.value.facts) == (4, 26)


class TestMaintenanceBoundaries:
    def test_dred_pass_round_checks(self):
        program, database = _parsed()
        mp = MaterializedProgram(program, database)
        database.retract_values("edge", [("a3", "a1")])
        meter = RecordingMeter()
        result = mp.maintain(meter=meter)
        assert meter.rounds == [
            (0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (0, 6), (0, 7),
            (0, 8), (0, 9),
            (1, 10),
            (2, 11), (2, 12),
        ]
        assert meter.batches == 23
        assert result.stats.iterations == 9
        assert mp.check_consistency()

    def test_rounds_do_not_depend_on_the_meter(self):
        program, database = _parsed()
        plain = MaterializedProgram(program, database)
        metered = MaterializedProgram(program, database)
        database.retract_values("edge", [("a3", "a1")])
        unmetered_rounds = plain.maintain().stats.iterations
        budget = EvaluationBudget(timeout=100).start()
        assert metered.maintain(meter=budget).stats.iterations == unmetered_rounds


class TestQSQBoundaries:
    """``reach(a0, Y)?`` top-down on the two ``reach`` rules: the
    adorned plans form one stratum, and the driver numbers its rounds
    as it does semi-naive's."""

    @staticmethod
    def _adorned():
        program, database = _parsed()
        reach = Program(
            [rule for rule in program.rules if rule.head.pred == "reach"]
        )
        return adorn_program(reach, parse_query("reach(a0, Y)?")), database

    def test_round_checks(self):
        adorned, database = self._adorned()
        meter = RecordingMeter()
        result = qsq_evaluate(
            adorned.program, database, adorned.query_literal, meter=meter
        )
        assert meter.rounds == [(0, r) for r in range(1, 10)]
        assert result.stats.iterations == 9
        assert meter.batches == 20
        assert (result.stats.facts_derived, result.subqueries_generated) == (
            21, 6,
        )

    def test_max_iterations_trip(self):
        adorned, database = self._adorned()
        with pytest.raises(NonTerminationError) as info:
            qsq_evaluate(
                adorned.program, database, adorned.query_literal,
                meter=EvaluationBudget(max_iterations=3).start(),
            )
        assert (info.value.iterations, info.value.facts) == (4, 5)
