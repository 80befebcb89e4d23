"""Tests for relations and databases."""

import pytest

from repro.datalog.database import Database, Relation
from repro.datalog.terms import Constant
from repro.errors import ArityError


class TestRelation:
    def test_add_and_contains(self):
        r = Relation("p", 2)
        assert r.add(("a", "b"))
        assert not r.add(("a", "b"))  # duplicate
        assert ("a", "b") in r
        assert len(r) == 1

    def test_arity_enforced(self):
        r = Relation("p", 2)
        with pytest.raises(ArityError):
            r.add(("a",))

    def test_lookup_builds_index(self):
        r = Relation("p", 2)
        r.add_many([("a", "b"), ("a", "c"), ("x", "y")])
        assert r.lookup((0,), ("a",)) == {("a", "b"), ("a", "c")}
        assert r.lookup((1,), ("y",)) == {("x", "y")}
        # Fully bound probes are membership tests: no index, iterable result.
        assert set(r.lookup((0, 1), ("a", "b"))) == {("a", "b")}
        assert not r.lookup((0, 1), ("a", "z"))

    def test_built_index_follows_writes(self):
        r = Relation("p", 2)
        r.add_many([("a", "b"), ("a", "c")])
        assert r.lookup((1,), ("b",)) == {("a", "b")}
        assert (1,) in r._indexes
        r.add(("a", "d"))
        r.discard(("a", "b"))
        assert r.lookup((1,), ("d",)) == {("a", "d")}
        assert not r.lookup((1,), ("b",))
        r.lookup((0, 1), ("a", "c"))  # fully bound: a membership probe
        assert (0, 1) not in r._indexes

    def test_lookup_empty_positions_returns_all(self):
        r = Relation("p", 1)
        r.add(("a",))
        assert r.lookup((), ()) == {("a",)}

    def test_index_maintained_after_add(self):
        r = Relation("p", 2)
        r.add(("a", "b"))
        assert r.lookup((0,), ("a",)) == {("a", "b")}
        r.add(("a", "c"))  # added after index creation
        assert r.lookup((0,), ("a",)) == {("a", "b"), ("a", "c")}

    def test_index_maintained_after_discard(self):
        r = Relation("p", 2)
        r.add_many([("a", "b"), ("a", "c")])
        _ = r.lookup((0,), ("a",))
        r.discard(("a", "b"))
        assert r.lookup((0,), ("a",)) == {("a", "c")}

    def test_lookup_missing_value(self):
        r = Relation("p", 2)
        r.add(("a", "b"))
        assert r.lookup((0,), ("zzz",)) == frozenset()

    def test_copy_is_independent(self):
        r = Relation("p", 1)
        r.add(("a",))
        c = r.copy()
        c.add(("b",))
        assert len(r) == 1
        assert len(c) == 2

    def test_fully_bound_lookup_with_unsorted_positions(self):
        # Regression: the fully-bound fast path used to assemble the probe
        # row in *positions* order, so an unsorted position tuple silently
        # probed a permuted row and returned empty.
        r = Relation("p", 2)
        r.add(("a", "b"))
        assert set(r.lookup((1, 0), ("b", "a"))) == {("a", "b")}
        assert not r.lookup((1, 0), ("a", "b"))
        assert set(r.lookup((0, 1), ("a", "b"))) == {("a", "b")}
        r3 = Relation("q", 3)
        r3.add((1, 2, 3))
        assert set(r3.lookup((2, 0, 1), (3, 1, 2))) == {(1, 2, 3)}

    def test_relation_is_hashable(self):
        # Regression: defining __eq__ under __slots__ set __hash__ = None,
        # making relations unusable as dict keys / set members.
        r = Relation("p", 1)
        s = Relation("p", 1)
        assert len({r, s}) == 2  # identity hashing
        assert {r: "x"}[r] == "x"

    def test_relation_eq_foreign_type_not_implemented(self):
        r = Relation("p", 1)
        assert r.__eq__(42) is NotImplemented
        assert r != 42
        s = Relation("p", 1)
        assert r == s
        s.add(("a",))
        assert r != s

    def test_mutation_counter_tracks_changes(self):
        r = Relation("p", 1)
        stamp = r._mutations
        r.add(("a",))
        assert r._mutations == stamp + 1
        r.add(("a",))  # duplicate: no mutation
        assert r._mutations == stamp + 1
        r.discard(("a",))
        assert r._mutations == stamp + 2
        r.discard(("a",))  # absent: no mutation
        assert r._mutations == stamp + 2


class TestDatabase:
    def test_add_facts_counts_new(self):
        db = Database()
        assert db.add_facts("p", [("a",), ("b",), ("a",)]) == 2
        assert db.count("p") == 2

    def test_constant_unwrapped(self):
        db = Database()
        db.add_fact("p", Constant("a"), 3)
        assert ("a", 3) in db.facts("p")

    def test_missing_relation_is_empty(self):
        db = Database()
        assert db.facts("nope") == frozenset()

    def test_relation_arity_conflict(self):
        db = Database()
        db.add_fact("p", "a")
        with pytest.raises(ArityError):
            db.relation("p", 2)

    def test_copy_independent(self):
        db = Database()
        db.add_fact("p", "a")
        clone = db.copy()
        clone.add_fact("p", "b")
        assert db.count("p") == 1
        assert clone.count("p") == 2

    def test_merge(self):
        a = Database.from_facts({"p": [("x",)]})
        b = Database.from_facts({"p": [("y",)], "q": [("z", "w")]})
        a.merge(b)
        assert a.count() == 3

    def test_active_domain(self):
        db = Database.from_facts({"p": [("a", 1)], "q": [("b",)]})
        assert db.active_domain() == {"a", 1, "b"}

    def test_database_eq_foreign_type_not_implemented(self):
        db = Database()
        assert db.__eq__("not a database") is NotImplemented
        assert db != "not a database"

    def test_equality_ignores_empty_relations(self):
        a = Database.from_facts({"p": [("x",)]})
        b = Database.from_facts({"p": [("x",)]})
        b.relation("empty", 1)
        assert a == b

    def test_to_dict_sorted(self):
        db = Database.from_facts({"p": [("b",), ("a",)]})
        assert db.to_dict() == {"p": [("a",), ("b",)]}

    def test_count_total(self):
        db = Database.from_facts({"p": [("a",)], "q": [("b", "c")]})
        assert db.count() == 2

    def test_mixed_type_domain_sortable_via_to_dict(self):
        db = Database.from_facts({"p": [(1,), ("a",)]})
        assert len(db.to_dict()["p"]) == 2
