"""Property-based tests over function symbols (hypothesis).

Checks the list-reverse pipeline on random lists (the rewrites must
compute exactly the Python-level reversal) and algebraic properties of
linear index expressions and the parser's round trip.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import Constant, LinExpr, Variable, parse_term
from repro.datalog.database import Database
from repro.datalog.terms import list_elements, make_list
from repro.workloads import constant_list, list_reverse_program, reverse_query

SETTINGS = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

atoms = st.sampled_from(["a", "b", "c", "d", "e"])


class TestReverseProperty:
    @given(values=st.lists(atoms, max_size=6))
    @SETTINGS
    def test_magic_reverse_equals_python_reverse(self, values):
        from repro import QueryOptions, answer_query

        program = list_reverse_program()
        query = reverse_query(constant_list(values))
        answer = answer_query(
            program,
            Database(),
            query,
            QueryOptions(method="magic", max_iterations=200),
        )
        assert len(answer.answers) == 1
        term = next(iter(answer.answers))[0]
        got = [t.value for t in list_elements(term)]
        assert got == list(reversed(values))

    @given(values=st.lists(atoms, max_size=5))
    @SETTINGS
    def test_counting_agrees_with_magic(self, values):
        from repro import QueryOptions, answer_query

        program = list_reverse_program()
        query = reverse_query(constant_list(values))
        answers = {}
        for method in ("magic", "counting"):
            result = answer_query(
                program,
                Database(),
                query,
                QueryOptions(method=method, max_iterations=200),
            )
            answers[method] = result.answers
        assert answers["magic"] == answers["counting"]


class TestLinExprProperties:
    @given(
        coeff=st.integers(min_value=1, max_value=9),
        offset=st.integers(min_value=0, max_value=9),
        value=st.integers(min_value=0, max_value=200),
    )
    @SETTINGS
    def test_solve_inverts_evaluation(self, coeff, offset, value):
        expr = LinExpr(Variable("K"), coeff, offset)
        evaluated = expr.substitute({Variable("K"): Constant(value)})
        assert isinstance(evaluated, Constant)
        assert expr.solve(evaluated.value) == value

    @given(
        a=st.integers(min_value=1, max_value=5),
        b=st.integers(min_value=0, max_value=5),
        c=st.integers(min_value=1, max_value=5),
        d=st.integers(min_value=0, max_value=5),
        value=st.integers(min_value=0, max_value=50),
    )
    @SETTINGS
    def test_composition_is_function_composition(self, a, b, c, d, value):
        x = Variable("X")
        outer = LinExpr(x, a, b)
        inner = LinExpr(x, c, d)
        composed = outer.apply_to(inner)
        direct = a * (c * value + d) + b
        evaluated = composed.substitute({x: Constant(value)})
        assert evaluated == Constant(direct)


class TestParserRoundTrip:
    @given(values=st.lists(st.integers(min_value=0, max_value=99), max_size=6))
    @SETTINGS
    def test_list_print_parse_round_trip(self, values):
        term = make_list([Constant(v) for v in values])
        assert parse_term(str(term)) == term

    @given(
        functor=st.sampled_from(["f", "g", "pair"]),
        args=st.lists(
            st.sampled_from(["a", "X", "42"]), min_size=1, max_size=3
        ),
    )
    @SETTINGS
    def test_struct_print_parse_round_trip(self, functor, args):
        parsed_args = tuple(parse_term(a) for a in args)
        from repro import Struct

        term = Struct(functor, parsed_args)
        assert parse_term(str(term)) == term
