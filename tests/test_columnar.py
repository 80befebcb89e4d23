"""Unit tests for the columnar int-encoded evaluation core."""

import pytest

from repro.datalog.columnar import (
    ColumnarRelation,
    EncodedDatabase,
    TermCatalog,
    encode_database,
)
from repro.datalog.database import Database
from repro.datalog.engine import Engine
from repro.datalog.parser import parse_program
from repro.datalog.plan import ProgramPlan
from repro.errors import ArityError, EvaluationError


class TestTermCatalog:
    def test_intern_is_stable_and_dense(self):
        catalog = TermCatalog()
        a = catalog.intern("a")
        b = catalog.intern("b")
        assert catalog.intern("a") == a
        assert sorted({a, b}) == [0, 1]
        assert catalog.value(a) == "a"
        assert len(catalog) == 2

    def test_intern_follows_python_equality(self):
        # Native evaluation stores raw values in tuple sets, where 1, 1.0,
        # and True collide; the encoding must agree or results diverge.
        catalog = TermCatalog()
        assert catalog.intern(1) == catalog.intern(True) == catalog.intern(1.0)
        assert catalog.intern(0) == catalog.intern(False)
        assert catalog.intern("1") != catalog.intern(1)

    def test_decode_row_roundtrip(self):
        catalog = TermCatalog()
        row = ("x", 3, None)
        assert catalog.decode_row(catalog.intern_row(row)) == row


class TestColumnarRelation:
    def test_seed_dedupes_and_sorts(self):
        # Bulk loading is a merge_run into an empty relation; rows are kept
        # unordered, so the contents are compared sorted.
        rel = ColumnarRelation("p", 2)
        assert rel.merge_run([(2, 1), (1, 2), (2, 1)]) == {(1, 2), (2, 1)}
        assert sorted(rel.rows) == [(1, 2), (2, 1)]
        assert rel.keys == set(rel.rows)
        assert (1, 2) in rel and (1, 1) not in rel

    def test_merge_run_appends_sorted_fresh_rows(self):
        rel = ColumnarRelation("p", 2)
        rel.merge_run([(1, 2)])
        fresh = rel.merge_run([(3, 4), (1, 2), (0, 0), (3, 4)])
        assert fresh == {(0, 0), (3, 4)}
        assert len(rel) == 3 and rel.keys == set(rel.rows)
        assert sorted(rel.rows) == [(0, 0), (1, 2), (3, 4)]
        assert all(row in rel for row in [(1, 2), (3, 4), (0, 0)])
        assert not rel.merge_run([(1, 2)])

    def test_index_extends_incrementally(self):
        rel = ColumnarRelation("p", 2)
        rel.merge_run([(1, 2), (1, 3)])
        assert sorted(rel.index((0,))[1]) == [(1, 2), (1, 3)]
        rel.merge_run([(1, 4), (2, 9)])
        index = rel.index((0,))
        assert sorted(index[1]) == [(1, 2), (1, 3), (1, 4)]
        assert index[2] == [(2, 9)]
        # Multi-position keys are tuples.
        assert rel.index((0, 1))[(2, 9)] == [(2, 9)]

    def test_fork_is_independent(self):
        rel = ColumnarRelation("p", 1, sealed=True)
        rel.merge_run([(1,)])
        clone = rel.fork()
        clone.merge_run([(2,)])
        assert len(rel) == 1 and len(clone) == 2
        assert (2,) in clone and (2,) not in rel
        assert not clone.sealed

    def test_patched_drops_deleted_and_dedupes_inserted(self):
        rel = ColumnarRelation("p", 1, sealed=True)
        rel.merge_run([(1,), (2,), (3,)])
        patched = rel.patched(inserted=[(4,), (4,), (1,)], deleted=[(2,), (9,)])
        assert patched.sealed and patched.keys == set(patched.rows)
        assert sorted(patched.rows) == [(1,), (3,), (4,)]
        assert sorted(rel.rows) == [(1,), (2,), (3,)]


class TestEncoding:
    def test_encode_database_roundtrip(self):
        db = Database.from_facts({"e": [("a", "b"), ("b", "c")], "n": [("a",)]})
        encoded = EncodedDatabase.from_database(db)
        assert set(encoded.relations) == {"e", "n"}
        e = encoded.relations["e"]
        assert e.sealed and len(e) == 2
        decoded = {encoded.catalog.decode_row(row) for row in e.rows}
        assert decoded == {("a", "b"), ("b", "c")}

    def test_encode_cache_hits_until_mutation(self):
        db = Database.from_facts({"e": [("a", "b")]})
        first = encode_database(db)
        assert encode_database(db) is first
        db.add_fact("e", "b", "c")
        second = encode_database(db)
        assert second is not first
        assert encode_database(db) is second

    def test_discard_invalidates_cache(self):
        db = Database.from_facts({"e": [("a", "b"), ("b", "c")]})
        first = encode_database(db)
        db.relation("e").discard(("b", "c"))
        assert encode_database(db) is not first


class TestColumnarEngine:
    def test_engine_accepts_columnar_method(self):
        program = parse_program("tc(X,Y) :- e(X,Y). tc(X,Y) :- e(X,Z), tc(Z,Y).")
        edb = Database.from_facts({"e": [("a", "b"), ("b", "c")]})
        engine = Engine(method="columnar")
        result = engine.evaluate(program, edb)
        assert result.facts("tc") == {("a", "b"), ("b", "c"), ("a", "c")}
        assert engine.stats.facts_derived == 3
        assert engine.stats.strata == 1

    def test_columnar_rejects_provenance(self):
        with pytest.raises(ValueError):
            Engine(method="columnar", record_provenance=True)

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            Engine(method="vectorized")

    def test_input_database_is_not_modified(self):
        program = parse_program("tc(X,Y) :- e(X,Y). tc(X,Y) :- e(X,Z), tc(Z,Y).")
        edb = Database.from_facts({"e": [("a", "b"), ("b", "c")]})
        Engine(method="columnar").evaluate(program, edb)
        assert "tc" not in edb.predicates

    def test_program_facts_and_constants(self):
        program = parse_program(
            """
            color("red").
            pair(X, "fixed") :- color(X).
            """
        )
        result = Engine(method="columnar").evaluate(program, Database())
        assert result.facts("pair") == {("red", "fixed")}

    def test_stratified_negation(self):
        program = parse_program(
            """
            reach(X) :- start(X).
            reach(Y) :- reach(X), e(X,Y).
            dead(X) :- node(X), not reach(X).
            """
        )
        edb = Database.from_facts(
            {
                "start": [("a",)],
                "e": [("a", "b"), ("c", "d")],
                "node": [("a",), ("b",), ("c",), ("d",)],
            }
        )
        result = Engine(method="columnar").evaluate(program, edb)
        assert result.facts("dead") == {("c",), ("d",)}

    def test_arithmetic_error_parity(self):
        program = parse_program("bad(Y) :- n(X), Y = X / 0.")
        edb = Database.from_facts({"n": [(1,)]})
        with pytest.raises(EvaluationError):
            Engine(method="naive").evaluate(program, edb)
        with pytest.raises(EvaluationError):
            Engine(method="columnar").evaluate(program, edb)

    def test_answer_is_evaluate_restricted_to_the_requested_relations(self):
        program = parse_program(
            "hop(X,Y) :- e(X,Y). tc(X,Y) :- hop(X,Y). tc(X,Y) :- tc(X,Z), hop(Z,Y)."
        )
        edb = Database.from_facts({"e": [("a", "b"), ("b", "c"), ("c", "a")]})
        for method in ("columnar", "naive"):
            full = Engine(method=method).evaluate(program, edb)
            answer = Engine(method=method).answer(program, edb, ["tc", "e"])
            assert answer == {p: set(full.facts(p)) for p in ("tc", "e")}, method
        assert len(answer["tc"]) == 9
        encoded = Engine().encoded_answer(ProgramPlan(program), edb, ["tc", "e"])
        assert encoded.values is not None and encoded.decoded() == answer

    def test_a_relation_read_at_another_arity_is_an_arity_error_on_every_path(self):
        program = parse_program("p(X) :- e(X).")
        edb = Database.from_facts({"e": [("a", "b")]})
        for method in ("columnar", "naive"):
            engine = Engine(method=method)
            for run in (
                lambda: engine.evaluate(program, edb),
                lambda: engine.answer(program, edb, ["p"]),
                lambda: engine.encoded_answer(ProgramPlan(program), edb, ["p"]),
            ):
                with pytest.raises(ArityError, match="'e' has arity 2, requested 1"):
                    run()

    def test_shared_edb_is_encoded_once_across_queries(self):
        edb = Database.from_facts({"e": [("a", "b"), ("b", "c")]})
        program = parse_program("tc(X,Y) :- e(X,Y). tc(X,Y) :- e(X,Z), tc(Z,Y).")
        Engine(method="columnar").evaluate(program, edb)
        encoded = encode_database(edb)
        Engine(method="columnar").evaluate(program, edb)
        assert encode_database(edb) is encoded


class TestNonLinearRecursion:
    def test_columnar_matches_nonlinear_recursion(self):
        program = parse_program("p(X,Y) :- e(X,Y). p(X,Y) :- p(X,Z), p(Z,Y).")
        edb = Database.from_facts({"e": [(i, i + 1) for i in range(24)]})
        naive = Engine(method="naive").evaluate(program, edb)
        columnar = Engine(method="columnar").evaluate(program, edb)
        assert naive == columnar
