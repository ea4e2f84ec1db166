"""The reference evaluator itself (``conftest.oracle_facts``).

Every engine, rewrite and QSQ test checks its facts against the oracle,
so the oracle is pinned here on hand-computed models -- recursion,
negation over a complete lower stratum, anti-joins written before their
binder, struct and list heads, counting-style ``LinExpr`` indexes, and
facts asserted under a derived name -- without running any engine.
"""

from repro import Constant, Database, Literal, Program, Rule, Variable
from repro import parse_program, parse_query
from repro.datalog.terms import LinExpr

from conftest import oracle_answers, oracle_facts


def c(value):
    return Constant(value)


def prog(text):
    return parse_program(text).program


def db(**relations):
    database = Database()
    for name, rows in relations.items():
        database.add_values(
            name, [row if isinstance(row, tuple) else (row,) for row in rows]
        )
    return database


def values(facts):
    return {tuple(term.value for term in row) for row in facts}


ANCESTOR = """
anc(X, Y) :- par(X, Y).
anc(X, Y) :- par(X, Z), anc(Z, Y).
"""


def test_transitive_closure():
    facts = oracle_facts(prog(ANCESTOR), db(par=[("a", "b"), ("b", "c")]))
    assert values(facts["anc"]) == {("a", "b"), ("b", "c"), ("a", "c")}
    assert values(facts["par"]) == {("a", "b"), ("b", "c")}


def test_cycle_terminates():
    facts = oracle_facts(prog(ANCESTOR), db(par=[("a", "b"), ("b", "a")]))
    assert values(facts["anc"]) == {
        ("a", "b"), ("b", "a"), ("a", "a"), ("b", "b"),
    }


def test_negation_sees_the_complete_lower_stratum():
    program = prog(
        ANCESTOR + "unreached(X, Y) :- node(X), node(Y), not anc(X, Y).\n"
    )
    facts = oracle_facts(
        program, db(par=[("a", "b"), ("b", "c")], node=["a", "b", "c"])
    )
    # (a, c) needs two rounds of anc: a premature anti-join would keep it
    assert ("a", "c") not in values(facts["unreached"])
    assert len(facts["unreached"]) == 9 - 3


def test_anti_join_written_before_its_binder():
    program = prog("p(X) :- not q(X), e(X).")
    facts = oracle_facts(program, db(e=["a", "b"], q=["a"]))
    assert values(facts["p"]) == {("b",)}


def test_zero_ary_negation():
    program = prog("go(X) :- e(X), not stop.")
    assert values(oracle_facts(program, db(e=["a"]))["go"]) == {("a",)}
    stopped = db(e=["a"])
    stopped.add_values("stop", [()])
    assert oracle_facts(program, stopped)["go"] == set()


def test_struct_and_list_heads():
    program = prog("wrap(f(X), [X | Y]) :- e(X, Y).")
    facts = oracle_facts(program, db(e=[("a", "b")]))
    (row,) = facts["wrap"]
    expected = parse_query("wrap(f(a), [a | b])?").literal.args
    assert row == tuple(expected)


def test_linexpr_head_and_inverted_body():
    x, y, i, j = (Variable(name) for name in "XYIJ")
    program = Program([
        Rule(Literal("level", (x, c(0))), [Literal("root", (x,))]),
        Rule(
            Literal("level", (y, LinExpr(i, 1, 1))),
            [Literal("level", (x, i)), Literal("e", (x, y))],
        ),
        Rule(
            Literal("odd", (x, j)),
            [Literal("level", (x, LinExpr(j, 2, 1)))],
        ),
    ])
    facts = oracle_facts(
        program, db(root=["a"], e=[("a", "b"), ("b", "c"), ("c", "d")])
    )
    assert values(facts["level"]) == {("a", 0), ("b", 1), ("c", 2), ("d", 3)}
    # 2*J+1 inverts only odd levels: b at 1 (J=0), d at 3 (J=1)
    assert values(facts["odd"]) == {("b", 0), ("d", 1)}


def test_facts_under_a_derived_name_are_kept():
    parsed = parse_program(ANCESTOR + "anc(zeus, ares).\n")
    database = db(par=[("a", "b")])
    database.add_facts(parsed.facts)
    facts = oracle_facts(parsed.program, database)
    assert values(facts["anc"]) == {("zeus", "ares"), ("a", "b")}


def test_database_is_not_mutated():
    database = db(par=[("a", "b"), ("b", "c")])
    oracle_facts(prog(ANCESTOR), database)
    assert database.predicate_keys() == {"par"}
    assert len(database.get("par")) == 2


def test_answers_project_the_free_positions():
    database = db(par=[("a", "b"), ("b", "c")])
    answers = oracle_answers(prog(ANCESTOR), database, parse_query("anc(a, Y)?"))
    assert values(answers) == {("b",), ("c",)}
    closed = oracle_answers(prog(ANCESTOR), database, parse_query("anc(a, c)?"))
    assert closed == {()}
