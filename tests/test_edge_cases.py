"""Edge cases across the stack: constants in rules, propositional
predicates, structured facts, repeated variables, empty databases."""


from repro import (
    Constant,
    Database,
    Literal,
    QueryOptions,
    Struct,
    Variable,
    answer_query,
    bottom_up_answer,
    evaluate,
    parse_program,
    parse_query,
    rewrite,
)


class TestConstantsInRules:
    def test_constant_in_rule_head(self):
        program = parse_program(
            """
            vip(alice, X) :- invite(X).
            reach(X, Y) :- vip(X, Y).
            reach(X, Y) :- vip(X, Z), knows(Z, Y).
            """
        ).program
        db = Database()
        db.add_values("invite", [("bob",), ("eve",)])
        db.add_values("knows", [("bob", "dan")])
        query = parse_query("reach(alice, Y)?")
        baseline = bottom_up_answer(program, db, query)
        for method in ("magic", "supplementary_magic"):
            answer = answer_query(
                program, db, query, QueryOptions(method=method)
            )
            assert answer.answers == baseline.answers
        assert {str(r[0]) for r in baseline.answers} == {"bob", "eve", "dan"}

    def test_constant_in_rule_body(self):
        program = parse_program(
            """
            t(X, Y) :- e(X, Y).
            t(X, Y) :- e(X, hub), e(hub, Y).
            """
        ).program
        db = Database()
        db.add_values("e", [("a", "hub"), ("hub", "b"), ("a", "c")])
        query = parse_query("t(a, Y)?")
        baseline = bottom_up_answer(program, db, query)
        answer = answer_query(program, db, query, QueryOptions(method="magic"))
        assert answer.answers == baseline.answers
        assert {str(r[0]) for r in answer.answers} == {"hub", "c", "b"}


class TestPropositionalPredicates:
    def test_zero_ary_predicates(self):
        program = parse_program(
            """
            alarm :- smoke, heat.
            evacuate :- alarm.
            """
        ).program
        db = Database()
        db.add_fact(Literal("smoke"))
        db.add_fact(Literal("heat"))
        result = evaluate(program, db)
        assert result.database.tuples("alarm") == {()}
        assert result.database.tuples("evacuate") == {()}

    def test_zero_ary_query(self):
        program = parse_program("alarm :- smoke.").program
        db = Database()
        db.add_fact(Literal("smoke"))
        query = parse_query("alarm?")
        answer = bottom_up_answer(program, db, query)
        assert answer.answers == {()}


class TestStructuredFacts:
    def test_facts_with_function_terms(self):
        program = parse_program(
            """
            owner(P, C) :- has(P, car(C)).
            """
        ).program
        db = Database()
        db.add_fact(
            Literal(
                "has",
                (Constant("ann"), Struct("car", (Constant("tesla"),))),
            )
        )
        result = evaluate(program, db)
        assert result.database.tuples("owner") == {
            (Constant("ann"), Constant("tesla"))
        }

    def test_magic_with_struct_query_constant(self):
        program = parse_program(
            """
            boxed(B, X) :- wraps(B, X).
            boxed(B, X) :- wraps(B, Y), boxed(Y, X).
            """
        ).program
        db = Database()
        box = lambda v: Struct("box", (v,))
        inner = Constant("gift")
        level1 = box(inner)
        level2 = box(level1)
        db.add_fact(Literal("wraps", (level2, level1)))
        db.add_fact(Literal("wraps", (level1, inner)))
        from repro import Query

        query = Query(Literal("boxed", (level2, Variable("X"))))
        baseline = bottom_up_answer(program, db, query)
        answer = answer_query(program, db, query, QueryOptions(method="magic"))
        assert answer.answers == baseline.answers
        assert len(answer.answers) == 2


class TestRepeatedVariables:
    def test_repeated_variable_in_body_literal(self):
        program = parse_program(
            """
            refl(X) :- e(X, X).
            twice(X, Y) :- refl(X), e(X, Y).
            """
        ).program
        db = Database()
        db.add_values("e", [("a", "a"), ("a", "b"), ("b", "c")])
        query = parse_query("twice(a, Y)?")
        answer = answer_query(program, db, query, QueryOptions(method="magic"))
        assert {str(r[0]) for r in answer.answers} == {"a", "b"}

    def test_repeated_variable_in_rule_head(self):
        program = parse_program(
            """
            selfpair(X, X) :- node(X).
            """
        ).program
        db = Database()
        db.add_values("node", [("a",), ("b",)])
        result = evaluate(program, db)
        assert (Constant("a"), Constant("a")) in result.database.tuples(
            "selfpair"
        )


class TestEmptyAndDegenerate:
    def test_empty_database(self):
        from repro.workloads import ancestor_program, ancestor_query

        answer = answer_query(
            ancestor_program(), Database(), ancestor_query("a")
        )
        assert answer.answers == set()

    def test_query_constant_absent_from_data(self):
        from repro.workloads import ancestor_program, chain_database

        answer = answer_query(
            ancestor_program(),
            chain_database(4),
            parse_query("anc(ghost, Y)?"),
        )
        assert answer.answers == set()

    def test_single_rule_single_fact(self):
        program = parse_program("out(X) :- inp(X).").program
        db = Database()
        db.add_values("inp", [("v",)])
        answer = answer_query(program, db, parse_query("out(X)?"))
        assert answer.values() == {("v",)}

    def test_rewrite_reusable_across_queries_of_same_form(self):
        """The paper keeps seeds out of P^mg so the rewrite is reusable;
        check two different constants against one rewritten program."""
        from repro.core.magic import magic_literal_for
        from repro.workloads import ancestor_program, chain_database

        program = ancestor_program()
        db = chain_database(6)
        rewritten = rewrite(
            program, parse_query("anc(n0, Y)?"), method="magic"
        )
        # reuse for a different seed: swap the seed fact only
        for root, expected in (("n0", 6), ("n3", 3)):
            seeded = db.copy()
            seeded.add_fact(
                Literal("magic_anc_bf", (Constant(root),))
            )
            result = evaluate(rewritten.program, seeded)
            answers = {
                row
                for row in result.database.tuples("anc^bf")
                if row[0] == Constant(root)
            }
            assert len(answers) == expected


class TestDeepRecursion:
    def test_long_chain(self):
        from repro.workloads import ancestor_program, chain_database

        answer = answer_query(
            ancestor_program(),
            chain_database(200),
            parse_query("anc(n0, Y)?"),
        )
        assert len(answer.answers) == 200

    def test_deep_list_reverse(self):
        from repro.workloads import (
            integer_list,
            list_reverse_program,
            reverse_query,
        )

        answer = answer_query(
            list_reverse_program(),
            Database(),
            reverse_query(integer_list(25)),
            QueryOptions(method="supplementary_magic", max_iterations=3000),
        )
        term = next(iter(answer.answers))[0]
        assert str(term).startswith("[24, 23, 22")
