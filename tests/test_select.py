"""Answer selection: ``Relation.select`` and its query-literal adapter.

One primitive turns (relation, bound positions, projection) into
answers, under view reads (``Session.query`` on a materialized view),
served views (the server's view path), ``answer_tuples`` and
``RewrittenProgram.extract_answers``.  Three layers of checks:

* **Malformed selections** are settled once, in ``select``: another
  arity, a never-interned constant, one position constrained two ways,
  an empty relation all answer empty without touching a row; a position
  out of range raises ``ValueError`` as ``Relation.lookup`` does.
* **Property:** ``select``/``answers`` equal the reference scan
  (``conftest.reference_scan``) over random relations -- tombstoned,
  compacted, re-probed after more writes -- and random literals, never
  grow the term catalog, and build each index once.
* **Work gate:** a bound read resolves at most ``|answer| * arity``
  term IDs, counted, so a reintroduced full scan fails on any host
  without a timing.
"""

import asyncio
import dataclasses

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from conftest import reference_scan
from repro import Constant, Literal, Relation, Session, Variable
from repro.core.pipeline import unwrap_values
from repro.datalog.ast import Query
from repro.datalog.catalog import TermCatalog, term_catalog
from repro.datalog.engine import answer_tuples
from repro.datalog.terms import LinExpr, Struct
from repro.server import ServerHandle, SnapshotManager
from repro.server.scheduler import QueryScheduler
from repro.workloads.bom import bom_database, bom_program

ANCESTOR = """
par(john, alice). par(alice, ted). par(ted, zoe).
anc(X, Y) :- par(X, Y).
anc(X, Z) :- par(X, Y), anc(Y, Z).
"""

#: a constant no test ever stores (so it is never interned)
UNSEEN = "never_stored_constant"


def c(value):
    return Constant(value)


@pytest.fixture
def resolved(monkeypatch):
    """Counts every term ID resolved through the catalog."""
    calls = []
    resolve = TermCatalog.resolve

    def counting(self, term_id):
        calls.append(term_id)
        return resolve(self, term_id)

    monkeypatch.setattr(TermCatalog, "resolve", counting)
    return calls


@pytest.fixture
def forbid_rows(monkeypatch):
    """Call it to make any access to a relation's rows an error."""

    def forbid():
        def touched(self, *args):
            raise AssertionError(f"{self.name}: a row was touched")

        for name in ("lookup_ids", "all_slots", "term_row", "__iter__"):
            monkeypatch.setattr(Relation, name, touched)

    return forbid


def _view_session():
    session = Session(ANCESTOR)
    session.materialize("anc")
    assert session.query("anc(john, X)?").maintained
    return session


def _rewritten_answer(query_text="anc(john, X)?"):
    answer = Session(ANCESTOR).query(
        query_text, method="supplementary_magic"
    ).answer
    return answer.rewritten, answer.evaluation


# ----------------------------------------------------------------------
# malformed selections
# ----------------------------------------------------------------------
class TestMalformedSelections:
    """Each case through every route that can express it.  A query
    literal constrains each of its own positions once, so "one position,
    two constants" and "position out of range" reach ``select`` only
    through ``extract_answers``' metadata (or a direct call)."""

    @pytest.mark.parametrize("query", ["anc(john)?", "anc(john, X, Y)?"])
    def test_arity_mismatch_is_empty_before_any_row(self, query, forbid_rows):
        session = _view_session()
        _, evaluation = _rewritten_answer()
        literal = session._as_query(query).literal
        with ServerHandle.start(ANCESTOR, materialize=["anc"]) as handle:
            forbid_rows()
            result = session.query(query)
            assert result.maintained and result.rows == set()
            out = handle.request({"op": "query", "query": query})
            assert out["served"] == "view" and out["rows"] == []
            assert answer_tuples(evaluation, literal) == set()

    def test_never_interned_constant_is_empty(self, forbid_rows):
        catalog = term_catalog()
        assert catalog.id_of(c(UNSEEN)) == -1
        session = _view_session()
        query = f"anc({UNSEEN}, X)?"
        rewritten, evaluation = _rewritten_answer()
        absent = dataclasses.replace(
            rewritten, answer_selection=((0, c(UNSEEN)),)
        )
        with ServerHandle.start(ANCESTOR, materialize=["anc"]) as handle:
            forbid_rows()
            assert session.query(query).rows == set()
            out = handle.request({"op": "query", "query": query})
            assert out["served"] == "view" and out["rows"] == []
            assert absent.extract_answers(evaluation) == set()
        # a read looks constants up; it never interns them
        assert catalog.id_of(c(UNSEEN)) == -1

    def test_one_position_two_constants_is_empty(self, forbid_rows):
        rewritten, evaluation = _rewritten_answer()
        (position, value), = rewritten.answer_selection
        # the same constant twice is one constraint
        same = dataclasses.replace(
            rewritten,
            answer_selection=((position, value), (position, value)),
        )
        assert same.extract_answers(evaluation) == (
            rewritten.extract_answers(evaluation)
        )
        twice = dataclasses.replace(
            rewritten,
            answer_selection=((position, value), (position, c("alice"))),
        )
        anc = _view_session()._materializer.working.get("anc")
        forbid_rows()
        assert twice.extract_answers(evaluation) == set()
        assert anc.select([(0, c("john")), (0, c("ted"))], (1,)) == set()

    def test_position_out_of_range_raises_like_lookup(self):
        rewritten, evaluation = _rewritten_answer()
        for broken in (
            dataclasses.replace(rewritten, answer_projection=(7,)),
            dataclasses.replace(
                rewritten, answer_selection=((7, c("john")),)
            ),
            dataclasses.replace(rewritten, answer_projection=(-1,)),
        ):
            with pytest.raises(ValueError, match="out of range"):
                broken.extract_answers(evaluation)
        anc = _view_session()._materializer.working.get("anc")
        with pytest.raises(ValueError, match="out of range"):
            anc.lookup((2,), (c("john"),))
        with pytest.raises(ValueError, match="out of range"):
            anc.select({2: c("john")}, (0,))

    def test_empty_relation_without_arity_is_empty(self):
        rules = ANCESTOR.split("\n", 2)[2]  # no facts: arity never fixed
        session = Session(rules)
        session.materialize("anc")
        anc = session._materializer.working.get("anc")
        assert anc is not None and anc.arity is None
        for query in ("anc(john, X)?", "anc(X, Y)?", "anc(john, alice)?"):
            assert session.query(query).rows == set()
        assert anc.select({5: c("john")}, (9,)) == set()
        with ServerHandle.start(rules, materialize=["anc"]) as handle:
            out = handle.request({"op": "query", "query": "anc(john, X)?"})
            assert out["served"] == "view" and out["rows"] == []
        cold = Session(rules).query(
            "anc(john, X)?", method="supplementary_magic"
        ).answer
        assert cold.rewritten.extract_answers(cold.evaluation) == set()
        # a predicate with no relation at all
        assert answer_tuples(
            cold.evaluation, Literal("nowhere", (Variable("X"),))
        ) == set()
        missing = dataclasses.replace(
            cold.rewritten, answer_pred_key="nowhere"
        )
        assert missing.extract_answers(cold.evaluation) == set()


# ----------------------------------------------------------------------
# select == the reference scan
# ----------------------------------------------------------------------
_POOL = [
    c("a"), c("b"), c(0), c(1), c(2),
    Struct("f", (c("a"),)), Struct("f", (c("b"),)),
]
_VARS = [Variable(name) for name in "XYZ"]
_PATTERNS = (
    _POOL
    + [c(UNSEEN), Struct("f", (c(UNSEEN),))]
    + _VARS
    + [Struct("f", (var,)) for var in _VARS[:2]]
    # index variables of their own: ``I+1`` with ``I`` already bound to
    # a non-integer is a TypeError in ``unify`` itself, not a mismatch
    + [LinExpr(Variable("I"), 1, 1), LinExpr(Variable("J"), 2, 0)]
    + [Struct("g", (_VARS[0],))]
)


@st.composite
def _relation_and_literals(draw):
    arity = draw(st.integers(min_value=1, max_value=4))
    row = st.tuples(*[st.sampled_from(_POOL)] * arity)
    rows = draw(st.lists(row, max_size=40))
    retracted = draw(st.lists(st.sampled_from(rows), max_size=30)) if rows else []
    later = draw(st.lists(row, max_size=10))
    literals = draw(
        st.lists(
            st.tuples(*[st.sampled_from(_PATTERNS)] * arity),
            min_size=1,
            max_size=4,
        )
    )
    compact = draw(st.booleans())
    return arity, rows, retracted, later, literals, compact


#: 17 distinct rows, each three times: the second ``discard_many``
#: (``rows[::3]``) compacts at its 16th discard, then tombstones the
#: 17th, ending with 0 live rows and 1 dead one
_COMPACT_MIDWAY = sorted(
    {(x, y) for x in _POOL for y in _POOL}, key=repr
)[:17]


class _CountingRelation(Relation):
    """A relation that counts its compactions (each rebuilds every index)."""

    __slots__ = ("compactions",)

    def __init__(self, *args):
        super().__init__(*args)
        self.compactions = 0

    def _compact(self):
        self.compactions += 1
        super()._compact()


class TestSelectProperty:
    @example(case=(
        2, [row for row in _COMPACT_MIDWAY for _ in range(3)], [], [],
        [(c("a"), Variable("X"))], False,
    ))
    @settings(
        max_examples=200,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(case=_relation_and_literals())
    def test_answers_equal_the_reference_scan(self, case):
        arity, rows, retracted, later, patterns, compact = case
        catalog = term_catalog()
        rel = _CountingRelation("r", arity)
        rel.add_many(rows)
        rel.discard_many(retracted)
        if compact:
            rel._compact()
        literals = [Literal("r", args) for args in patterns]
        facts, version = set(rel), rel.version
        interned = len(catalog)
        for literal in literals:
            assert rel.answers(literal) == reference_scan(rel, literal)
        # a second identical read builds nothing
        built = dict(rel._indexes)
        compactions = rel.compactions
        for literal in literals:
            assert rel.answers(literal) == reference_scan(rel, literal)
        assert rel._indexes.keys() == built.keys()
        assert all(rel._indexes[key] is built[key] for key in built)
        assert set(rel) == facts and rel.version == version
        assert rel.check_invariants()
        # more writes: the indexes the reads built are the ones maintained
        rel.add_many(later)
        rel.discard_many(rows[::3])
        interned_after_writes = len(catalog)
        for literal in literals:
            assert rel.answers(literal) == reference_scan(rel, literal)
        if rel.compactions == compactions:
            # otherwise a compaction rebuilt them, as it does any index
            assert all(rel._indexes[key] is built[key] for key in built)
        assert rel.check_invariants()
        # no read interned anything (the writes may have)
        assert len(catalog) == interned_after_writes
        assert interned_after_writes >= interned
        assert catalog.id_of(c(UNSEEN)) == -1

    def test_all_bound_and_all_free(self):
        rel = Relation("r")
        rel.add_many([(c("a"), c(1)), (c("a"), c(2)), (c("b"), c(1))])
        assert rel.select({0: c("a"), 1: c(1)}, ()) == {()}
        assert rel.select({0: c("b"), 1: c(2)}, ()) == set()
        assert not rel._indexes  # fully bound: the rowmap is the index
        assert rel.select({}, (0, 1)) == set(rel)
        assert rel.select({}, (0,)) == {(c("a"),), (c("b"),)}
        assert rel.select({}, ()) == {()}
        assert rel.select({}, (1, 0, 1)) == {
            (row[1], row[0], row[1]) for row in rel
        }
        assert not rel._indexes
        assert rel.select({1: c(1)}, (0,)) == {(c("a"),), (c("b"),)}
        assert set(rel._indexes) == {(1,)}

    def test_propositional_relation(self):
        rel = Relation("flag", 0)
        assert rel.answers(Literal("flag", ())) == set()
        rel.add(())
        assert rel.answers(Literal("flag", ())) == {()}

    def test_residual_patterns(self):
        X, Y = Variable("X"), Variable("Y")
        rel = Relation("r")
        rel.add_many(
            [
                (c("a"), c("a"), c(3)),
                (c("a"), c("b"), c(4)),
                (Struct("f", (c("a"),)), c("a"), c(0)),
            ]
        )
        # repeated variable, also inside a pattern
        assert rel.answers(Literal("r", (X, X, Y))) == {
            (c("a"), c("a"), c(3))
        }
        assert rel.answers(Literal("r", (Struct("f", (X,)), X, Y))) == {
            (Struct("f", (c("a"),)), c("a"), c(0))
        }
        # I+1 matches naturals only: 0 has no predecessor
        succ = LinExpr(Variable("I"), 1, 1)
        assert rel.answers(Literal("r", (X, Y, succ))) == {
            (c("a"), c("a"), c(3)),
            (c("a"), c("b"), c(4)),
        }
        # the bound position narrows first; the filter sees those rows
        assert rel.answers(Literal("r", (X, c("a"), succ))) == {
            (c("a"), c(3))
        }
        assert set(rel._indexes) == {(1,)}


@st.composite
def _facts_and_queries(draw):
    plain = [term for term in _POOL if isinstance(term, Constant)]
    rows = draw(
        st.lists(st.tuples(*[st.sampled_from(plain)] * 2), max_size=25)
    )
    # not UNSEEN: a cold magic evaluation stores its seed constant
    arg = st.sampled_from(plain + [c("stored_by_seeds_only")] + _VARS)
    queries = draw(
        st.lists(
            st.tuples(arg, arg).filter(
                lambda args: not (
                    args[0] == args[1] and isinstance(args[0], Variable)
                )
            ),
            min_size=1,
            max_size=3,
        )
    )
    moves = draw(
        st.lists(
            st.tuples(st.booleans(), st.tuples(*[st.sampled_from(plain)] * 2)),
            max_size=4,
        )
    )
    return rows, queries, moves


class TestRoutesAgree:
    """View-served, server-served and cold answers -- in process and on
    the server's reader pool -- are set-equal to the reference scan over
    the maintained relation."""

    RULES = "v(X, Y) :- r(X, Y).\nv(X, Z) :- r(X, Y), v(Y, Z).\n"

    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(case=_facts_and_queries())
    def test_view_server_and_cold_routes(self, case):
        rows, queries, moves = case
        catalog = term_catalog()
        session = Session(self.RULES)
        session.database.add_tuples("r", rows)
        session.materialize("v")
        manager = SnapshotManager(session.database)
        # no memo: a repeated query must be served by the view again
        scheduler = QueryScheduler(session.program, manager, memo_size=0)
        try:
            for step in range(2):
                manager.publish(session.materialized_relations())
                pinned = manager.current()
                oracle = Session(self.RULES)
                oracle.database.add_tuples(
                    "r", session.database.tuples("r")
                )
                truth = oracle.query("v(X, Y)?", method="naive")
                full = Relation("v", 2)
                full.add_many(truth.rows)
                for args in queries:
                    query = Query(Literal("v", args))
                    expected = reference_scan(full, query.literal)
                    before = (session.database.version, len(catalog))
                    viewed = session.query(query)
                    assert viewed.maintained and viewed.rows == expected
                    served = asyncio.run(
                        scheduler.execute(f"{query.literal}?", {})
                    )
                    assert served["version"] == pinned.version
                    assert served["served"] == "view"
                    assert served["row_count"] == len(expected)
                    assert {tuple(row) for row in served["rows"]} == (
                        unwrap_values(expected)
                    )
                    # neither read wrote or interned anything
                    assert before == (session.database.version, len(catalog))
                    for method in ("seminaive", "supplementary_magic"):
                        cold = session.query(query, method=method)
                        assert not cold.maintained
                        assert cold.rows == expected
                        served = asyncio.run(
                            scheduler.execute(
                                f"{query.literal}?", {"method": method}
                            )
                        )
                        assert served["served"] == "cold"
                        assert {tuple(row) for row in served["rows"]} == (
                            unwrap_values(expected)
                        )
                pinned.release()
                with session.batch():
                    for add, row in moves:
                        if add:
                            session.assert_(Literal("r", row))
                        else:
                            session.retract(Literal("r", row))
            assert session.database.check_integrity()
            assert session._materializer.working.check_integrity()
            assert manager.current().views.check_integrity()
        finally:
            scheduler.shutdown()


# ----------------------------------------------------------------------
# the deterministic work gate
# ----------------------------------------------------------------------
class TestWorkGate:
    """A bound read decodes its answer, not the relation."""

    def test_bound_reads_resolve_only_their_answers(self, resolved):
        session = Session(program=bom_program(), database=bom_database(8))
        session.materialize()
        with session.batch():  # move p40's subtree from p19 to p20
            assert session.retract("subpart(p19, p40)")
            assert session.assert_("subpart(p20, p40)")
        clean = session._materializer.working.get("clean")
        memoized = sum(row is not None for row in clean._term_rows)
        query = "clean(p4, S)?"
        del resolved[:]
        viewed = session.query(query)
        assert viewed.maintained
        assert 0 < len(viewed.rows) * 10 < len(clean)
        assert len(resolved) <= len(viewed.rows) * clean.arity
        assert memoized == sum(row is not None for row in clean._term_rows)

        answer = session.query(query, method="supplementary_magic").answer
        assert answer.rewritten.answer_selection  # a bound extraction
        derived = answer.evaluation.database.get(
            answer.rewritten.answer_pred_key
        )
        del resolved[:]
        extracted = answer.rewritten.extract_answers(answer.evaluation)
        assert extracted == viewed.rows
        assert len(resolved) <= len(extracted) * derived.arity
