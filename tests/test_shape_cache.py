"""The shape cache: one adorned / rewritten program per query *shape*,
the constants bound per query (``Query.shape``, ``RewrittenProgram.bind``,
``pipeline._shape_for``).

Section 4 keeps the query's constants out of ``P^mg``: they enter as the
seed fact only.  The property pinned here is that this reuse is
invisible -- a session that has served *other* constants of a shape
answers the next one exactly as a fresh session and as plain semi-naive
do, for every rewrite method, with and without the semijoin
optimization, and for QSQ -- and that a placeholder never leaks into a
rule, a bound result or the term catalog.
"""

import sys
import threading

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import (
    Constant,
    Database,
    PlanCache,
    QueryOptions,
    RewriteError,
    Session,
    answer_query,
    build_full_sip,
    parse_program,
    parse_query,
)
from repro.core import pipeline
from repro.datalog.catalog import term_catalog

from conftest import mentions_placeholder

RULES = """
    path(X, Y) :- edge(X, Y).
    path(X, Y) :- edge(X, Z), path(Z, Y).
    path(X, X) :- node(X).
"""

#: ground terms as source text, in the order that orients the edges
#: (counting needs acyclic data): atoms, the integers counting seeds its
#: indices with, ground lists and ground structs
POOL = ["a", "b", "c", "0", "1", "[a, b]", "[0]", "f(a)", "g(a, 0)", "g(b, 1)"]

#: partially ground arguments: free for adornment, part of the shape
PARTIAL = ["g(a, N)", "g(M, 0)", "f(N)", "[a | T]"]

#: (method, semijoin): the five rewrite dispatches, the semijoin
#: optimization where it applies (auto falls back for the call), QSQ
CONFIGS = [
    ("auto", False),
    ("magic", False),
    ("supplementary_magic", False),
    ("counting", False),
    ("supplementary_counting", False),
    ("counting", True),
    ("supplementary_counting", True),
    ("auto", True),
    ("qsq", False),
]


def _source(edges):
    lines = [RULES]
    lines.extend(f"node({term})." for term in POOL)
    lines.extend(f"edge({POOL[i]}, {POOL[j]})." for i, j in sorted(edges))
    return "\n".join(lines)


def _query_text(kinds, picks):
    args = []
    for position, (kind, pick) in enumerate(zip(kinds, picks)):
        if kind == "ground":
            args.append(POOL[pick % len(POOL)])
        elif kind == "partial":
            # the same partial term for every query of the shape; its
            # variables must differ between the two positions
            text = PARTIAL[kinds.index("partial") % len(PARTIAL)]
            args.append(text if position == 0 else text.replace("N", "N2")
                        .replace("M", "M2").replace("T", "T2"))
        else:
            args.append("XY"[position])
    return f"path({', '.join(args)})?"


def _assert_placeholder_free(result):
    """Nothing a request returns carries a placeholder."""
    rewritten = result.rewritten
    if rewritten is None:
        return
    terms = []
    for rule in rewritten.program.rules:
        terms.extend(rule.head.args)
        for literal in rule.body:
            terms.extend(literal.args)
    for seed in rewritten.seed_facts:
        terms.extend(seed.args)
    terms.extend(term for _, term in rewritten.answer_selection)
    terms.extend(rewritten.query.literal.args)
    terms.extend(rewritten.adorned.query_literal.args)
    terms.extend(rewritten.adorned.query.literal.args)
    assert not any(mentions_placeholder(term) for term in terms)


def _answers(session, query, method, semijoin):
    """The rows of a cold read -- or, where a counting rewrite rejects
    the shape (it cannot index an all-free ``path``), the error class."""
    try:
        result = session.query(query, method=method, semijoin=semijoin)
    except RewriteError as exc:
        assert method in ("counting", "supplementary_counting")
        return type(exc)
    assert not result.from_memo
    _assert_placeholder_free(result)
    return result.rows


edges_strategy = st.sets(
    st.tuples(
        st.integers(0, len(POOL) - 1), st.integers(0, len(POOL) - 1)
    ).filter(lambda pair: pair[0] < pair[1]),
    max_size=16,
)
kinds_strategy = st.tuples(
    st.sampled_from(["ground", "ground", "var", "partial"]),
    st.sampled_from(["ground", "ground", "var", "partial"]),
)
picks_strategy = st.tuples(st.integers(0, 99), st.integers(0, 99))


class TestBindingProperty:
    @given(
        edges=edges_strategy,
        kinds=kinds_strategy,
        target=picks_strategy,
        others=st.lists(picks_strategy, min_size=1, max_size=2),
        repeat=st.booleans(),
    )
    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_a_warm_shape_answers_as_a_fresh_session(
        self, edges, kinds, target, others, repeat
    ):
        if repeat:
            target = (target[0], target[0])  # p(a, a)
        source = _source(edges)
        query = _query_text(kinds, target)
        others = [
            text
            for text in (_query_text(kinds, other) for other in others)
            if text != query  # or the memo would answer the target
        ]
        warm = Session(source, plan_cache=PlanCache())
        expected = Session(source, plan_cache=PlanCache()).query(
            query, method="seminaive"
        ).rows
        catalog_before = len(term_catalog())
        for method, semijoin in CONFIGS:
            for other in dict.fromkeys(others):
                _answers(warm, other, method, semijoin)
            fresh = Session(source, plan_cache=PlanCache())
            config = f"{method} semijoin={semijoin}: {query}"
            cold = _answers(fresh, query, method, semijoin)
            assert cold in (expected, RewriteError), config
            assert _answers(warm, query, method, semijoin) == cold, config
        grown = term_catalog().export_state()[catalog_before:]
        assert not any(mentions_placeholder(term) for term in grown)

    @pytest.mark.parametrize(
        "first,then",
        [
            ("path(a, b)?", "path(c, c)?"),  # repeated constant
            ("path(1, Y)?", "path(0, Y)?"),  # counting's own seed index
            ("path(X, 1)?", "path(X, 0)?"),  # the other argument order
            ("path(0, 1)?", "path(0, 0)?"),
            ("path([0], Y)?", "path([a, b], Y)?"),  # ground list
            ("path(f(a), Y)?", "path(g(a, 0), Y)?"),  # ground Structs
            ("path(X, g(a, 0))?", "path(X, g(b, 1))?"),
            ("path(g(a, N), b)?", "path(g(a, N), 1)?"),  # partial Struct
            ("path(X, Y)?", "path(X, Y)?"),  # all free: nothing to bind
        ],
    )
    def test_named_cases(self, first, then):
        edges = {(0, 1), (1, 2), (0, 3), (3, 4), (5, 6), (7, 8), (8, 9),
                 (2, 8), (4, 9), (1, 5)}
        source = _source(edges)
        warm = Session(source, plan_cache=PlanCache())
        expected = warm.query(then, method="seminaive").rows
        for method, semijoin in CONFIGS:
            _answers(warm, first, method, semijoin)
            if first == then:
                warm.assert_("node(z)")  # same query: step past the memo
                warm.retract("node(z)")
            rejected = then == "path(X, Y)?" and method.endswith("counting")
            assert _answers(warm, then, method, semijoin) == (
                RewriteError if rejected else expected
            ), (method, semijoin)


class TestPublicationIsImmutable:
    def test_binding_leaves_the_entry_as_it_was(self):
        session = Session(_source({(0, 1), (1, 2)}), plan_cache=PlanCache())
        query = parse_query("path(a, Y)?")

        def shape_for(query, method, options):
            return pipeline._shape_for(
                session.program,
                query,
                method,
                options,
                build_full_sip,
                session.plan_cache,
            )

        entry = shape_for(query, "counting", QueryOptions(semijoin=True))
        seeds = entry.rewritten.seed_facts
        assert any(mentions_placeholder(t) for s in seeds for t in s.args)
        bound = entry.rewritten.bind(query)
        assert [str(seed) for seed in bound.seed_facts] == [
            "cnt_path_bf(0, 0, 0, a)"
        ]
        assert bound.program is entry.rewritten.program
        # ... and the one mirror table, built before publication
        assert "mirror_targets" in vars(entry.rewritten)
        assert bound.mirror_targets is entry.rewritten.mirror_targets
        qsq = shape_for(query, "qsq", QueryOptions())
        assert qsq.rewritten is None
        assert qsq.adorned.bind(query).program is qsq.adorned.program
        assert bound.adorned.query_literal == parse_query(
            "path(a, Y)?"
        ).literal.with_adornment("bf")
        # the entry still holds placeholders; the next lookup is a hit
        again = shape_for(
            parse_query("path(b, Y)?"), "counting", QueryOptions(semijoin=True)
        )
        assert again is entry and again.rewritten.seed_facts == seeds
        assert entry.adorned.query == query.shape()

    def test_shape_keeps_what_is_not_ground(self):
        query = parse_query("path(g(a, N), b)?")
        shape = query.shape()
        assert str(shape) == "path(g(a, N), $1)?"
        assert [query.fill(arg) for arg in shape.args] == list(query.args)
        assert query.fill(Constant("$1")) == Constant("$1")
        free = parse_query("path(X, Y)?")
        assert free.shape() is free


class TestConcurrentColdShape:
    def test_two_readers_publish_one_entry(self, monkeypatch):
        """The server's two readers on one cold shape: each request is
        one ``answer_query`` on a snapshot, over one program and one
        PlanCache.  Both miss, both build, one entry is published and
        serves both."""
        parsed = parse_program(_source({(0, 1), (1, 2), (0, 3)}))
        db = Database()
        db.add_fact_rows(parsed.fact_rows)
        cache = PlanCache()
        inside = threading.Barrier(2, timeout=10)
        real_adorn = pipeline.adorn_program
        builds = []

        def adorn_together(*args, **kwargs):
            inside.wait()  # both readers are in the factory at once
            builds.append(threading.get_ident())
            return real_adorn(*args, **kwargs)

        monkeypatch.setattr(pipeline, "adorn_program", adorn_together)
        results, errors = {}, []

        def reader(constant):
            try:
                answer = answer_query(
                    parsed.program,
                    db.snapshot(),
                    parse_query(f"path({constant}, Y)?"),
                    QueryOptions(method="supplementary_magic"),
                    plan_cache=cache,
                )
                results[constant] = (answer.values(), answer.rewritten)
            except BaseException as exc:  # surfaced below
                errors.append(exc)

        threads = [
            threading.Thread(target=reader, args=(constant,))
            for constant in ("a", "b")
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(20)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors, errors
        assert len(set(builds)) == 2  # a genuine race: two builds
        assert results["a"][0] == {("a",), ("b",), ("c",), (0,)}
        assert results["b"][0] == {("b",), ("c",)}
        # ... and one published entry: both answers ran its program
        assert results["a"][1].program is results["b"][1].program
        shapes = [key for key in cache._entries if key[0] != "bottom-up"]
        assert len(shapes) == 1 and len(cache) == 2

    def test_four_readers_under_a_short_switch_interval(self):
        """More readers than cores, preempted every few bytecodes: every
        answer is its own constant's, and the shape is published once."""
        chain = 12
        parsed = parse_program(
            RULES
            + "".join(f"node(n{i}). " for i in range(chain + 1))
            + "".join(f"edge(n{i}, n{i + 1}). " for i in range(chain))
        )
        db = Database()
        db.add_fact_rows(parsed.fact_rows)
        cache = PlanCache()
        start = threading.Barrier(4, timeout=10)
        wrong, errors = [], []

        def reader(offset):
            try:
                start.wait()
                for k in range(offset, chain, 4):
                    got = answer_query(
                        parsed.program,
                        db.snapshot(),
                        parse_query(f"path(n{k}, Y)?"),
                        QueryOptions(method="supplementary_magic"),
                        plan_cache=cache,
                    ).values()
                    if got != {(f"n{j}",) for j in range(k, chain + 1)}:
                        wrong.append(k)
            except BaseException as exc:  # surfaced below
                errors.append(exc)

        threads = [
            threading.Thread(target=reader, args=(offset,))
            for offset in range(4)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors and not wrong, (errors, wrong)
        assert len(cache) == 2  # one shape entry, one compiled program
