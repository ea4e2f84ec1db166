"""Unit tests for the surface-syntax parser (repro.datalog.parser)."""

import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    Constant,
    Literal,
    ParseError,
    Session,
    Struct,
    Variable,
    parse_literal,
    parse_program,
    parse_query,
    parse_rule,
    parse_term,
    term_catalog,
)
from repro.datalog.parser import _Parser, _Token
from repro.datalog.terms import EMPTY_LIST
from repro.workloads.bom import bom_source


class TestTerms:
    def test_variable(self):
        assert parse_term("X") == Variable("X")
        assert parse_term("_foo") == Variable("_foo")

    def test_constant(self):
        assert parse_term("john") == Constant("john")
        assert parse_term("42") == Constant(42)
        assert parse_term("-7") == Constant(-7)
        assert parse_term('"hello world"') == Constant("hello world")

    def test_struct(self):
        assert parse_term("f(a, X)") == Struct(
            "f", (Constant("a"), Variable("X"))
        )

    def test_nested_struct(self):
        assert parse_term("f(g(1), h(X, 2))") == Struct(
            "f",
            (
                Struct("g", (Constant(1),)),
                Struct("h", (Variable("X"), Constant(2))),
            ),
        )

    def test_lists(self):
        assert parse_term("[]") == EMPTY_LIST
        one_two = parse_term("[1, 2]")
        assert one_two == Struct(
            ".", (Constant(1), Struct(".", (Constant(2), EMPTY_LIST)))
        )
        assert parse_term("[1 | T]") == Struct(
            ".", (Constant(1), Variable("T"))
        )

    def test_trailing_garbage(self):
        with pytest.raises(ParseError):
            parse_term("f(a) extra")


class TestLiterals:
    def test_with_args(self):
        lit = parse_literal("anc(john, Y)")
        assert lit.pred == "anc"
        assert lit.args == (Constant("john"), Variable("Y"))

    def test_propositional(self):
        assert parse_literal("halt").args == ()

    def test_predicate_must_be_lowercase(self):
        with pytest.raises(ParseError):
            parse_literal("Anc(john, Y)")


class TestRules:
    def test_simple(self):
        rule = parse_rule("anc(X, Y) :- par(X, Y).")
        assert rule.head.pred == "anc"
        assert len(rule.body) == 1

    def test_multi_literal(self):
        rule = parse_rule("anc(X, Y) :- par(X, Z), anc(Z, Y).")
        assert [l.pred for l in rule.body] == ["par", "anc"]

    def test_missing_period(self):
        with pytest.raises(ParseError):
            parse_rule("p(X) :- q(X)")


class TestQueries:
    def test_question_mark_style(self):
        query = parse_query("anc(john, Y)?")
        assert query.pred == "anc"
        assert query.adornment == "bf"

    def test_prolog_style(self):
        query = parse_query("?- anc(john, Y).")
        assert query.adornment == "bf"


class TestAnonymousVariable:
    """Each bare ``_`` is a variable of its own, as in Datalog and Prolog."""

    def test_each_occurrence_is_its_own_variable(self):
        rule = parse_rule("p(X) :- q(X, _), r(_, X).")
        first, second = rule.body[0].args[1], rule.body[1].args[0]
        assert first != second
        assert first.is_anonymous() and second.is_anonymous()
        assert len(rule.variables()) == 3

    def test_never_a_name_the_clause_spells(self):
        rule = parse_rule("p(_1) :- q(_1, _, _X), r(_, _X, _2).")
        first, second = rule.body[0].args[1], rule.body[1].args[0]
        spelled = {Variable("_1"), Variable("_2"), Variable("_X")}
        assert first != second and not spelled & {first, second}
        # spelled names, with or without an underscore, stay shared
        assert rule.head.args[0] == rule.body[0].args[0]
        assert rule.body[0].args[2] == rule.body[1].args[1]

    def test_str_parses_back_to_an_equal_clause(self):
        for source in (
            "p(X) :- q(X, _), r(_, f(_, X)).",
            "p(_1) :- q(_1, _, _X), not r(_, _X).",
        ):
            rule = parse_rule(source)
            assert parse_rule(str(rule)) == rule
        query = parse_query("q(_, a, [_ | T])?")
        assert parse_query(str(query)) == query
        term = parse_term("f(_, _)")
        assert parse_term(str(term)) == term and term.args[0] != term.args[1]

    def test_every_clause_of_a_program_names_its_own(self):
        program = parse_program("p(X) :- q(X, _). s(X) :- q(_, X).").program
        for rule in program.rules:
            assert parse_rule(str(rule)) == rule

    def test_a_query_may_repeat_it(self):
        query = parse_query("q(_, _)?")
        assert query.adornment == "ff" and len(query.free_variables()) == 2

    @pytest.mark.parametrize(
        "method", ["naive", "seminaive", "auto", "magic", "qsq"]
    )
    def test_a_join_does_not_equate_two_of_them(self, method):
        session = Session("p(X) :- q(X, _), r(_, X). q(a, b). r(c, a).")
        # q(a, b) and r(c, a) join on X = a; b and c need not agree
        assert session.query("p(X)?", method=method).values() == {("a",)}

    def test_each_answers_a_column(self):
        session = Session("q(a, b). q(a, c). q(b, b).")
        assert session.query("q(_, _)?").values() == {
            ("a", "b"), ("a", "c"), ("b", "b"),
        }
        assert session.query("q(_, b)?").values() == {("a",), ("b",)}


class TestPrograms:
    SOURCE = """
    % the ancestor program
    anc(X, Y) :- par(X, Y).
    anc(X, Y) :- par(X, Z), anc(Z, Y).
    par(john, mary).
    par(mary, sue).
    anc(john, Y)?
    """

    def test_parse_program_splits_rules_facts_queries(self):
        program, facts, queries = parse_program(self.SOURCE)
        assert len(program) == 2
        assert len(facts) == 2
        assert len(queries) == 1
        assert facts[0].pred == "par"

    def test_comments_ignored(self):
        program, _, _ = parse_program("% nothing\np(X) :- q(X).")
        assert len(program) == 1

    def test_non_ground_unit_clause_is_a_rule(self):
        program, facts, _ = parse_program("append(V, [], [V]).")
        assert len(program) == 1
        assert not facts

    def test_ground_unit_clause_is_a_fact(self):
        program, facts, _ = parse_program("par(a, b).")
        assert len(program) == 0
        assert len(facts) == 1

    def test_error_carries_location(self):
        with pytest.raises(ParseError) as excinfo:
            parse_program("p(X) :- q(X).\np(Y) :- & .")
        assert "line 2" in str(excinfo.value)

    def test_empty_source(self):
        program, facts, queries = parse_program("")
        assert len(program) == 0 and not facts and not queries


def quoted(value):
    """The STRING spelling of a Python string."""
    return '"' + value.replace("\\", "\\\\").replace('"', '\\"') + '"'


class TestStringConstants:
    """Each case holds on the fact pattern (a flat fact) and on the
    general path (the same fact with a variable beside it)."""

    CASES = [
        ('"hello world"', "hello world"),
        ('""', ""),
        (r'"say \"hi\""', 'say "hi"'),
        (r'"a\\b"', "a\\b"),
        (r'"\\"', "\\"),
        (r'"ends in \\"', "ends in \\"),
        (r'"\\\""', '\\"'),
        (r'"tab\tstays"', "tab\\tstays"),
        ('"x)."', "x)."),
        ('"a, b"', "a, b"),
        ('"100% % no comment"', "100% % no comment"),
        ('"two\nlines"', "two\nlines"),
    ]

    @pytest.mark.parametrize("spelling, value", CASES)
    def test_decoding(self, spelling, value):
        assert parse_term(spelling) == Constant(value)
        assert parse_program(f"p({spelling}).").facts == (
            Literal("p", (Constant(value),)),
        )
        (rule,) = parse_program(f"p({spelling}, X).").program.rules
        assert rule.head.args == (Constant(value), Variable("X"))

    @pytest.mark.parametrize("spelling, value", CASES)
    def test_quoting_round_trips(self, spelling, value):
        assert parse_term(quoted(value)) == Constant(value)

    def test_clause_end_inside_a_string_is_not_a_clause_end(self):
        for source in ('p("x).", b).', 'p("x).", b) % general path\n.'):
            program, facts, queries = parse_program(source)
            assert facts == (Literal("p", (Constant("x)."), Constant("b"))),)
            assert not program.rules and not queries

    def test_two_spellings_of_one_constant_share_an_id(self):
        first, second = parse_program('p(abc). p("abc").').fact_rows
        assert first == second

    def test_unterminated_string(self):
        with pytest.raises(ParseError) as excinfo:
            parse_program('p(a).\np(b, "abc).\n')
        assert (excinfo.value.line, excinfo.value.column) == (2, 6)
        with pytest.raises(ParseError):
            parse_term('"ends in an escaped quote\\"')


class TestErrorPositions:
    def test_end_of_input_has_a_position(self):
        for source, where in (
            ("p(a, ", (1, 6)),
            ("p(a)", (1, 5)),
            ("p(a).\nq(b)\n", (3, 1)),
        ):
            with pytest.raises(ParseError) as excinfo:
                parse_program(source)
            assert "unexpected end of input" in str(excinfo.value)
            assert (excinfo.value.line, excinfo.value.column) == where
        with pytest.raises(ParseError) as excinfo:
            parse_literal("p(a")
        assert (excinfo.value.line, excinfo.value.column) == (1, 4)

    # the expected positions below are what the eager whole-file
    # tokenizer this parser replaced reported for the same sources
    def test_line_5000_of_a_fact_file(self):
        lines = [f"par(t{i}, t{i + 1})." for i in range(6000)]
        lines[4999] = "par(t1, 1a)."
        with pytest.raises(ParseError) as excinfo:
            parse_program("\n".join(lines) + "\n")
        assert str(excinfo.value) == (
            "expected ')', found 'a' at line 5000, column 10"
        )
        assert (excinfo.value.line, excinfo.value.column) == (5000, 10)

    def test_bad_character_after_a_run_of_facts(self):
        facts = "".join(f"par(t{i}, t{i + 1}).\n" for i in range(100))
        with pytest.raises(ParseError) as excinfo:
            parse_program(facts + "q(b,\n  @).\n")
        assert str(excinfo.value) == (
            "unexpected character '@' at line 102, column 3"
        )

    def test_position_inside_a_general_clause_between_facts(self):
        with pytest.raises(ParseError) as excinfo:
            parse_program("p(a).\n  q(b :- r.\np(c).\n")
        assert str(excinfo.value) == (
            "expected ')', found ':-' at line 2, column 7"
        )

    def test_errors_surface_in_source_order(self):
        # lexing is on demand: the syntax error on line 1 is reported,
        # not the bad character after it
        with pytest.raises(ParseError) as excinfo:
            parse_program("p(a :- b.\nq(@).\n")
        assert excinfo.value.line == 1


# ----------------------------------------------------------------------
# the fact pattern recognizes exactly what the grammar parses
# ----------------------------------------------------------------------
def general_outcome(source):
    """``source`` through :class:`_Parser` alone, clause by clause."""
    parser = _Parser(source)
    rules, facts, queries = [], [], []
    try:
        while parser.peek() is not None:
            kind, payload = parser.parse_clause()
            if kind == "query":
                queries.append(payload)
            elif payload.is_fact() and payload.head.is_ground():
                facts.append(payload.head)
            else:
                rules.append(payload)
    except ParseError as error:
        return ("error", str(error), error.line, error.column)
    return ("parsed", rules, facts, queries)


def outcome(source):
    try:
        program, facts, queries = parse_program(source)
    except ParseError as error:
        return ("error", str(error), error.line, error.column)
    return ("parsed", list(program.rules), list(facts), list(queries))


names = st.from_regex(r"[a-z][A-Za-z0-9_]{0,3}", fullmatch=True)
constants = st.one_of(
    names,
    st.from_regex(r"-?[0-9]{1,3}", fullmatch=True),
    st.text(alphabet='ab \\").,%\n', max_size=5).map(quoted),
)
padding = st.sampled_from(["", "", " ", "  ", "\n", "\t"])


@st.composite
def fast_facts(draw):
    def pad():
        return draw(padding)

    args = draw(st.lists(constants, min_size=1, max_size=4))
    inner = ",".join(f"{pad()}{arg}{pad()}" for arg in args)
    return f"{draw(names)}{pad()}({inner}){pad()}."


near_misses = st.sampled_from(
    (
        "p(X). | p(f(a)). | p([a|T]). | p([a, b]). | p. | p(). | p(a)? | "
        "p(a)?. | ?- p(a). | p(a) :- q(a). | not(a). | p(-3). | p(- 3). | "
        "p(3-1). | p(a) % c\n. | p(a % c\n). | p(Abc). | p(_a, b). | "
        "p(a,). | p(,a). | p(a b). | p(1a). | p(a, f(b), c). | p(\"abc). | "
        "p(a | p(a,  | p(a) | @ | P(a). | p(a)) | p(a).. | p(1.5). | "
        "p(a) :- not q(a), \\+ r(a). | p(a) :- not(a). | p(a) :- . | "
        "p(X) :- q(X, Y), r(Y)."
    ).split(" | ")
)
separators = st.sampled_from(
    "\n|\n| ||\t|\n\n|  \n  |% c\n|% p(z).\n| % q(a).\n\n|\r\n".split("|")
)


@st.composite
def sources(draw):
    clauses = draw(st.lists(st.one_of(fast_facts(), near_misses), max_size=8))
    text = draw(separators)
    for clause in clauses:
        text += clause + draw(separators)
    return text.rstrip("\n") if draw(st.booleans()) else text


class TestPatternIsTheGrammar:
    @settings(max_examples=400, deadline=None)
    @given(sources())
    def test_parse_program_agrees_with_the_general_path(self, source):
        assert outcome(source) == general_outcome(source)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(fast_facts(), min_size=1, max_size=6), separators)
    def test_fast_shape_facts_never_become_tokens(
        self, facts, separator
    ):
        source = separator.join(facts)
        made = []
        init = _Token.__init__

        def counting(self, *args):
            made.append(args)
            init(self, *args)

        _Token.__init__ = counting
        try:
            parsed = parse_program(source)
        finally:
            _Token.__init__ = init
        assert len(parsed.fact_rows) == len(facts)
        assert not made

    def test_near_misses_fall_through(self):
        program, facts, queries = parse_program(
            "p(X). p(f(a)). p([a|T]). p. p(a)? p(a)?. ?- p(a). "
            "p(a) :- q(a). not(a). p(-3). p(a) % c\n. p(Abc)."
        )
        assert "; ".join(str(rule) for rule in program.rules) == (
            "p(X).; p([a | T]).; p(a) :- q(a).; p(Abc)."
        )
        assert "; ".join(str(fact) for fact in facts) == (
            "p(f(a)); p; not(a); p(-3); p(a)"
        )
        assert [str(query.literal) for query in queries] == ["p(a)"] * 3

    def test_facts_keep_source_order_across_both_paths(self):
        source = "p(a). q(f(b)). p(c). r. p(d) % general\n. p(e)."
        parsed = parse_program(source)
        assert "; ".join(str(fact) for fact in parsed.facts) == (
            "p(a); q(f(b)); p(c); r; p(d); p(e)"
        )
        catalog = term_catalog()
        assert parsed.fact_rows[0] == ("p", (catalog.id_of(Constant("a")),))
        assert parsed.fact_rows[3] == ("r", ())
        assert parsed.facts is parsed.facts  # decoded once

    def test_near_misses_are_rejected_in_linear_time(self):
        started = time.perf_counter()
        wide = "p(" + "abc , " * 5000 + "X)."
        (rule,) = parse_program(wide).program.rules
        assert len(rule.head.args) == 5001
        with pytest.raises(ParseError) as excinfo:
            parse_program("p(" + '"s\\"t" , ' * 5000 + "1a).")
        assert "expected ')', found 'a'" in str(excinfo.value)
        with pytest.raises(ParseError) as excinfo:
            parse_program('p(a).\np(b, "' + "x" * 1_000_000)
        assert (excinfo.value.line, excinfo.value.column) == (2, 6)
        assert time.perf_counter() - started < 1.0


# ----------------------------------------------------------------------
# the deterministic work gate
# ----------------------------------------------------------------------
class TestWorkGate:
    """Loading a source costs objects for its rules and queries only."""

    @staticmethod
    def load(depth, monkeypatch):
        made = {"literals": 0, "tokens": 0}
        literal_init, token_init = Literal.__init__, _Token.__init__

        def literal(self, *args, **kwargs):
            made["literals"] += 1
            literal_init(self, *args, **kwargs)

        def token(self, *args):
            made["tokens"] += 1
            token_init(self, *args)

        source = bom_source(depth, fanout=2, exception_rate=0.1, seed=3)
        with monkeypatch.context() as patch:
            patch.setattr(Literal, "__init__", literal)
            patch.setattr(_Token, "__init__", token)
            session = Session(source)
        return session, made

    def test_facts_cost_no_literal_no_token_no_term_row(self, monkeypatch):
        small, made_small = self.load(6, monkeypatch)
        large, made_large = self.load(8, monkeypatch)
        assert large.database.total_facts() > 3 * small.database.total_facts()
        assert made_large == made_small
        assert made_small["literals"] and made_small["tokens"]
        for key in large.database.predicate_keys():
            relation = large.database.get(key)
            assert len(relation)
        assert large.query().rows  # buildable(P)? over the loaded facts
