"""Tests for bottom-up Datalog evaluation (naive and semi-naive)."""

import pytest

from repro.datalog.database import Database
from repro.datalog.engine import Engine, evaluate, match_atom, query
from repro.datalog.parser import parse_atom, parse_program
from repro.errors import EvaluationError, SafetyError, StratificationError

TC_PROGRAM = """
tc(X, Y) :- e(X, Y).
tc(X, Y) :- e(X, Z), tc(Z, Y).
"""


def chain_db(n):
    db = Database()
    db.add_facts("e", [(f"n{i}", f"n{i+1}") for i in range(n)])
    return db


class TestBasics:
    def test_transitive_closure(self):
        result = evaluate(parse_program(TC_PROGRAM), chain_db(3))
        assert len(result.facts("tc")) == 6

    def test_facts_in_program(self):
        program = parse_program("e(a, b). e(b, c). " + TC_PROGRAM)
        result = evaluate(program, Database())
        assert ("a", "c") in result.facts("tc")

    def test_input_not_mutated(self):
        db = chain_db(3)
        evaluate(parse_program(TC_PROGRAM), db)
        assert "tc" not in db

    def test_cyclic_graph_terminates(self):
        db = Database()
        db.add_facts("e", [("a", "b"), ("b", "c"), ("c", "a")])
        result = evaluate(parse_program(TC_PROGRAM), db)
        assert len(result.facts("tc")) == 9

    def test_same_generation(self):
        program = parse_program(
            """
            sg(X, X) :- person(X).
            sg(X, Y) :- parent(X, Z), sg(Z, W), parent(Y, W).
            """
        )
        db = Database()
        db.add_facts("person", [(p,) for p in "abcdef"])
        db.add_facts("parent", [("c", "a"), ("d", "a"), ("e", "b"), ("f", "b")])
        result = evaluate(program, db)
        assert ("c", "d") in result.facts("sg")
        assert ("c", "e") not in result.facts("sg")

    def test_nonlinear_rules(self):
        program = parse_program(
            """
            path(X, Y) :- e(X, Y).
            path(X, Y) :- path(X, Z), path(Z, Y).
            """
        )
        result = evaluate(program, chain_db(5))
        assert len(result.facts("path")) == 15

    def test_mutual_recursion(self):
        program = parse_program(
            """
            even(X) :- zero(X).
            even(Y) :- succ(X, Y), odd(X).
            odd(Y) :- succ(X, Y), even(X).
            """
        )
        db = Database()
        db.add_fact("zero", 0)
        db.add_facts("succ", [(i, i + 1) for i in range(6)])
        result = evaluate(program, db)
        assert {x for (x,) in result.facts("even")} == {0, 2, 4, 6}
        assert {x for (x,) in result.facts("odd")} == {1, 3, 5}

    def test_empty_program(self):
        from repro.datalog.ast import Program

        result = evaluate(Program([]), chain_db(2))
        assert result.count("e") == 2


class TestNegation:
    def test_stratified_negation(self):
        program = parse_program(
            TC_PROGRAM
            + """
            node(X) :- e(X, Y).
            node(Y) :- e(X, Y).
            unreachable(X, Y) :- node(X), node(Y), not tc(X, Y).
            """
        )
        result = evaluate(program, chain_db(2))
        assert ("n2", "n0") in result.facts("unreachable")
        assert ("n0", "n2") not in result.facts("unreachable")

    def test_negation_over_empty_relation(self):
        program = parse_program("p(X) :- e(X, _), not missing(X).")
        result = evaluate(program, chain_db(1))
        assert len(result.facts("p")) == 1

    def test_unstratified_rejected(self):
        with pytest.raises(StratificationError):
            evaluate(parse_program("p(X) :- e(X, X), not p(X)."), Database())

    def test_negation_with_anonymous(self):
        program = parse_program(
            """
            has_out(X) :- e(X, _).
            sink(X) :- e(_, X), not e(X, _).
            """
        )
        result = evaluate(program, chain_db(2))
        assert result.facts("sink") == {("n2",)}


class TestBuiltins:
    def test_comparison(self):
        program = parse_program("small(X) :- num(X), X < 3.")
        db = Database()
        db.add_facts("num", [(i,) for i in range(6)])
        result = evaluate(program, db)
        assert {x for (x,) in result.facts("small")} == {0, 1, 2}

    def test_arithmetic_binding(self):
        program = parse_program("next(X, Y) :- num(X), Y = X + 1.")
        db = Database()
        db.add_facts("num", [(1,), (2,)])
        result = evaluate(program, db)
        assert result.facts("next") == {(1, 2), (2, 3)}

    def test_arithmetic_as_test(self):
        program = parse_program("double(X, Y) :- pair(X, Y), Y = X * 2.")
        db = Database()
        db.add_facts("pair", [(2, 4), (2, 5)])
        result = evaluate(program, db)
        assert result.facts("double") == {(2, 4)}

    def test_exact_integer_division_stays_int(self):
        """Regression: `/` used truediv, so `8 / 2` derived `(8, 4.0)` and
        the float tuple failed set-equality against int-derived facts."""
        program = parse_program("half(X, Y) :- num(X), Y = X / 2.")
        db = Database()
        db.add_facts("num", [(8,), (7,)])
        result = evaluate(program, db)
        assert result.facts("half") == {(8, 4), (7, 3.5)}
        exact = next(y for x, y in result.facts("half") if x == 8)
        assert isinstance(exact, int)
        inexact = next(y for x, y in result.facts("half") if x == 7)
        assert isinstance(inexact, float)

    def test_int_division_result_joins_with_int_facts(self):
        program = parse_program(
            "half(Y) :- num(X), Y = X / 2. hit(Y) :- half(Y), target(Y)."
        )
        db = Database()
        db.add_facts("num", [(8,)])
        db.add_facts("target", [(4,)])
        result = evaluate(program, db)
        assert result.facts("hit") == {(4,)}

    def test_float_division_still_true_division(self):
        program = parse_program("q(Y) :- v(X), Y = X / 2.")
        db = Database()
        db.add_facts("v", [(5.0,)])
        result = evaluate(program, db)
        assert result.facts("q") == {(2.5,)}

    def test_equality_binds(self):
        program = parse_program("alias(X, Y) :- num(X), Y = X.")
        db = Database()
        db.add_facts("num", [(1,)])
        result = evaluate(program, db)
        assert result.facts("alias") == {(1, 1)}

    def test_incomparable_values_raise(self):
        program = parse_program("bad(X) :- v(X), X < 3.")
        db = Database()
        db.add_facts("v", [("a",)])
        with pytest.raises(EvaluationError):
            evaluate(program, db)

    def test_division_by_zero_raises(self):
        program = parse_program("bad(Y) :- v(X), Y = 1 / X.")
        db = Database()
        db.add_facts("v", [(0,)])
        with pytest.raises(EvaluationError):
            evaluate(program, db)

    def test_min_max(self):
        program = parse_program("m(Z) :- p(X, Y), Z = max(X, Y).")
        db = Database()
        db.add_facts("p", [(3, 7)])
        result = evaluate(program, db)
        assert result.facts("m") == {(7,)}


class TestMethodsAgree:
    @pytest.mark.parametrize("n", [1, 4, 9])
    def test_naive_equals_seminaive_tc(self, n):
        program = parse_program(TC_PROGRAM)
        db = chain_db(n)
        assert evaluate(program, db, "naive").to_dict() == evaluate(
            program, db
        ).to_dict()

    def test_naive_equals_seminaive_negation(self):
        program = parse_program(
            TC_PROGRAM
            + """
            node(X) :- e(X, _).
            node(X) :- e(_, X).
            un(X, Y) :- node(X), node(Y), not tc(X, Y).
            """
        )
        db = chain_db(4)
        assert evaluate(program, db, "naive").to_dict() == evaluate(
            program, db
        ).to_dict()

    @pytest.mark.parametrize("method", ["magic", "seminaive", "native"])
    def test_unknown_method(self, method):
        with pytest.raises(ValueError):
            Engine(method=method)

    def test_removed_toggle_is_not_an_argument(self):
        with pytest.raises(TypeError):
            Engine(old_new_split=True)


class TestRepeatedVariables:
    def test_repeated_in_body_atom(self):
        program = parse_program("loop(X) :- e(X, X).")
        db = Database()
        db.add_facts("e", [("a", "a"), ("a", "b")])
        result = evaluate(program, db)
        assert result.facts("loop") == {("a",)}

    def test_repeated_in_head(self):
        program = parse_program("d(X, X) :- v(X).")
        db = Database()
        db.add_facts("v", [("a",)])
        result = evaluate(program, db)
        assert result.facts("d") == {("a", "a")}

    def test_constant_in_body(self):
        program = parse_program("from_a(Y) :- e(a, Y).")
        db = Database()
        db.add_facts("e", [("a", "b"), ("c", "d")])
        result = evaluate(program, db)
        assert result.facts("from_a") == {("b",)}

    def test_constant_in_head(self):
        program = parse_program("tagged(marker, X) :- v(X).")
        db = Database()
        db.add_facts("v", [("a",)])
        result = evaluate(program, db)
        assert result.facts("tagged") == {("marker", "a")}


class TestQueryHelpers:
    def test_query_binds_goal_variables(self):
        answers = query(parse_program(TC_PROGRAM), chain_db(3), parse_atom("tc(n0, Y)"))
        assert answers == {("n1",), ("n2",), ("n3",)}

    def test_query_ground_goal(self):
        answers = query(parse_program(TC_PROGRAM), chain_db(2), parse_atom("tc(n0, n2)"))
        assert answers == {()}
        answers = query(parse_program(TC_PROGRAM), chain_db(2), parse_atom("tc(n2, n0)"))
        assert answers == set()

    def test_match_atom_repeated_variable(self):
        db = Database()
        db.add_facts("p", [("a", "a"), ("a", "b")])
        assert match_atom(db, parse_atom("p(X, X)")) == {("a",)}

    def test_match_atom_unknown_predicate(self):
        assert match_atom(Database(), parse_atom("nope(X)")) == set()


class TestStats:
    def test_stats_collected(self):
        # Same-generation is recursive but not a TC pair, so it runs the
        # generic semi-naive loop: one iteration per generation.
        program = parse_program(
            """
            sg(X, X) :- person(X).
            sg(X, Y) :- parent(X, Z), sg(Z, W), parent(Y, W).
            """
        )
        db = Database()
        for side in "ab":
            chain = ["r"] + [f"{side}{i}" for i in range(1, 6)]
            db.add_facts("parent", list(zip(chain[1:], chain)))
            db.add_facts("person", [(p,) for p in chain])
        engine = Engine()
        engine.evaluate(program, db)
        assert engine.stats.facts_derived == 11 + 10
        assert engine.stats.iterations >= 5

    def test_closure_stratum_stats(self):
        engine = Engine()
        engine.evaluate(parse_program(TC_PROGRAM), chain_db(5))
        assert engine.stats.facts_derived == engine.stats.rows_produced == 15
        assert engine.stats.iterations == 1
        assert engine.stats.rule_firings == 0

    def test_seminaive_fires_less_than_naive(self):
        naive = Engine(method="naive")
        naive.evaluate(parse_program(TC_PROGRAM), chain_db(30))
        semi = Engine()
        semi.evaluate(parse_program(TC_PROGRAM), chain_db(30))
        assert semi.stats.facts_derived == naive.stats.facts_derived

    def test_unsafe_program_rejected_before_running(self):
        with pytest.raises(SafetyError):
            evaluate(parse_program("h(X, Y) :- p(X)."), Database())
