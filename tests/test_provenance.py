"""Tests for derivation provenance and GraphLog answer highlighting."""

import pytest

from repro.core.dsl import parse_graphical_query
from repro.core.engine import GraphLogEngine
from repro.datalog.database import Database
from repro.datalog.engine import Engine
from repro.datalog.parser import parse_program
from repro.datalog.provenance import Derivation, explain, why
from repro.visual.highlight import highlight_graphlog

TC = parse_program(
    """
    tc(X, Y) :- e(X, Y).
    tc(X, Y) :- e(X, Z), tc(Z, Y).
    """
)


def chain_db(n):
    db = Database()
    db.add_facts("e", [(f"n{i}", f"n{i+1}") for i in range(n)])
    return db


class TestEngineRecording:
    def test_disabled_by_default(self):
        engine = Engine()
        engine.evaluate(TC, chain_db(3))
        assert engine.provenance == {}

    def test_every_derived_fact_recorded(self):
        engine = Engine("naive", record_provenance=True)
        result = engine.evaluate(TC, chain_db(4))
        for row in result.facts("tc"):
            assert ("tc", row) in engine.provenance

    def test_support_facts_are_real(self):
        engine = Engine("naive", record_provenance=True)
        result = engine.evaluate(TC, chain_db(4))
        for (pred, row), (rule, support) in engine.provenance.items():
            assert rule.head.predicate == pred
            for sup_pred, sup_row in support:
                assert sup_row in result.facts(sup_pred)

    def test_provenance_needs_the_walker(self):
        with pytest.raises(ValueError, match="naive"):
            Engine(record_provenance=True)

    def test_naive_method_records_too(self):
        engine = Engine(method="naive", record_provenance=True)
        engine.evaluate(TC, chain_db(3))
        assert ("tc", ("n0", "n3")) in engine.provenance

    def test_cyclic_graph_well_founded(self):
        db = Database()
        db.add_facts("e", [("a", "b"), ("b", "a")])
        engine = Engine("naive", record_provenance=True)
        engine.evaluate(TC, db)
        # explain must terminate even though the graph is cyclic.
        tree = explain(engine.provenance, "tc", ("a", "a"))
        assert tree.depth() < 10
        assert tree.base_facts() <= {("e", ("a", "b")), ("e", ("b", "a"))}


class TestExplain:
    def test_tree_structure(self):
        engine = Engine("naive", record_provenance=True)
        engine.evaluate(TC, chain_db(3))
        tree = explain(engine.provenance, "tc", ("n0", "n3"))
        assert tree.predicate == "tc"
        assert not tree.is_base
        assert tree.base_facts() == {
            ("e", ("n0", "n1")),
            ("e", ("n1", "n2")),
            ("e", ("n2", "n3")),
        }

    def test_base_fact_tree(self):
        tree = explain({}, "e", ("a", "b"))
        assert tree.is_base
        assert tree.base_facts() == {("e", ("a", "b"))}
        assert tree.depth() == 0

    def test_why_helper(self):
        engine = Engine("naive", record_provenance=True)
        engine.evaluate(TC, chain_db(2))
        assert why(engine.provenance, "tc", ("n0", "n2")) == {
            ("e", ("n0", "n1")),
            ("e", ("n1", "n2")),
        }

    def test_render_contains_rule_and_base(self):
        engine = Engine("naive", record_provenance=True)
        engine.evaluate(TC, chain_db(2))
        text = explain(engine.provenance, "tc", ("n0", "n2")).render()
        assert "[base fact]" in text
        assert ":-" in text

    def test_negation_leaves_no_support(self):
        program = parse_program(
            """
            tc(X, Y) :- e(X, Y).
            tc(X, Y) :- e(X, Z), tc(Z, Y).
            n(X) :- e(X, _).
            n(X) :- e(_, X).
            un(X, Y) :- n(X), n(Y), not tc(X, Y).
            """
        )
        engine = Engine("naive", record_provenance=True)
        engine.evaluate(program, chain_db(2))
        tree = explain(engine.provenance, "un", ("n2", "n0"))
        # The support holds only the positive subgoals n(n2), n(n0).
        assert {child.predicate for child in tree.children} == {"n"}


class TestGraphLogExplain:
    QUERY = parse_graphical_query(
        """
        define (X) -[reach]-> (Y) {
            (X) -[link+]-> (Y);
        }
        """
    )

    def test_explain_answer(self):
        db = Database.from_facts(
            {"link": [("a", "b"), ("b", "c"), ("x", "y")]}
        )
        tree = GraphLogEngine().explain(self.QUERY, db, "reach", ("a", "c"))
        assert tree.base_facts() == {("link", ("a", "b")), ("link", ("b", "c"))}

    def test_highlight_graphlog(self):
        db = Database.from_facts(
            {"link": [("a", "b"), ("b", "c"), ("c", "d"), ("x", "y")]}
        )
        graph, edges, dot = highlight_graphlog(self.QUERY, db, "reach", ("a", "d"))
        pairs = {(e.source, e.target) for e in edges}
        assert pairs == {("a", "b"), ("b", "c"), ("c", "d")}
        assert dot.count("color=red") == 3

    def test_highlight_unknown_answer(self):
        db = Database.from_facts({"link": [("a", "b")]})
        with pytest.raises(KeyError):
            highlight_graphlog(self.QUERY, db, "reach", ("b", "a"))

    def test_highlight_skips_annotations(self):
        query = parse_graphical_query(
            """
            define (X) -[vip-reach]-> (Y) {
                (X) -[link+]-> (Y);
                vip(X);
            }
            """
        )
        db = Database.from_facts({"link": [("a", "b")], "vip": [("a",)]})
        _graph, edges, _dot = highlight_graphlog(query, db, "vip-reach", ("a", "b"))
        assert {(e.source, e.target) for e in edges} == {("a", "b")}


class TestDerivationClass:
    def test_fact_property(self):
        d = Derivation("p", ("a",))
        assert d.fact == ("p", ("a",))

    def test_depth_nested(self):
        leaf = Derivation("e", ("a", "b"))
        mid = Derivation("t", ("a", "b"), rule="r", children=[leaf])
        top = Derivation("q", ("a",), rule="r", children=[mid])
        assert top.depth() == 2
