"""Tests for serialization (Datalog text and JSON graphs)."""

import json

import pytest

from repro.datalog.database import Database
from repro.datasets.flights import figure1_database, figure1_graph
from repro.graphs.bridge import EdgeLabel
from repro.graphs.multigraph import LabeledMultigraph
from repro.io import (
    SerializationError,
    database_from_source,
    database_to_source,
    graph_from_json,
    graph_to_json,
    load_database,
    load_graph,
    save_database,
    save_graph,
)


class TestDatalogText:
    def test_roundtrip_simple(self):
        db = Database.from_facts(
            {"parent": [("ann", "bob")], "age": [("ann", 41)], "pi": [(3.5,)]}
        )
        assert database_from_source(database_to_source(db)) == db

    def test_roundtrip_figure1(self):
        db = figure1_database()
        assert database_from_source(database_to_source(db)) == db

    def test_strings_needing_quotes(self):
        db = Database.from_facts({"name": [("New York",), ("o'hare",)]})
        assert database_from_source(database_to_source(db)) == db

    def test_hyphenated_values_bare(self):
        db = Database.from_facts({"lib": [("async-io",)]})
        text = database_to_source(db)
        assert "'" not in text
        assert database_from_source(text) == db

    def test_deterministic_output(self):
        db = Database.from_facts({"e": [("b", "c"), ("a", "b")]})
        assert database_to_source(db) == database_to_source(db.copy())
        assert database_to_source(db).index("e(a, b).") < database_to_source(db).index("e(b, c).")

    def test_rules_rejected_on_load(self):
        with pytest.raises(SerializationError):
            database_from_source("p(X) :- q(X).")

    def test_unserializable_value(self):
        db = Database.from_facts({"p": [(None,)]})
        with pytest.raises(SerializationError):
            database_to_source(db)

    def test_file_helpers(self, tmp_path):
        db = figure1_database()
        path = save_database(db, tmp_path / "flights.dl")
        assert load_database(path) == db

    def test_empty_database(self):
        assert database_to_source(Database()) == ""
        assert database_from_source("") == Database()


class TestJsonGraphs:
    def test_roundtrip_plain_labels(self):
        g = LabeledMultigraph()
        g.add_edge("a", "b", "CP")
        g.add_edge("a", "b", "CP")  # parallel edge survives
        assert graph_from_json(graph_to_json(g)).edge_count() == 2

    def test_roundtrip_edge_labels_and_annotations(self):
        g = figure1_graph()
        back = graph_from_json(graph_to_json(g))
        assert back == g
        assert back.node_label("ottawa") == frozenset({"capital"})

    def test_tuple_nodes(self):
        g = LabeledMultigraph()
        g.add_edge(("a", "b"), ("c", "d"), EdgeLabel("sg"))
        back = graph_from_json(graph_to_json(g))
        assert back.has_edge(("a", "b"), ("c", "d"), EdgeLabel("sg"))

    def test_json_serializable(self):
        g = figure1_graph()
        text = json.dumps(graph_to_json(g))
        assert graph_from_json(json.loads(text)) == g

    def test_wrong_format_rejected(self):
        with pytest.raises(SerializationError):
            graph_from_json({"format": "something-else"})

    def test_exotic_values_rejected(self):
        g = LabeledMultigraph()
        g.add_edge(object(), "b", "x")
        with pytest.raises(SerializationError):
            graph_to_json(g)

    def test_file_helpers(self, tmp_path):
        g = figure1_graph()
        path = save_graph(g, tmp_path / "flights.json")
        assert load_graph(path) == g

    def test_isolated_annotated_node(self):
        g = LabeledMultigraph()
        g.add_node("solo", frozenset({"vip"}))
        back = graph_from_json(graph_to_json(g))
        assert back.node_label("solo") == frozenset({"vip"})


class TestScalarRoundTrips:
    """Non-string scalars must survive JSON round trips with type intact."""

    def test_scalar_node_values(self):
        g = LabeledMultigraph()
        for node in (7, 2.5, True, False, None, "plain"):
            g.add_node(node, None)
        back = graph_from_json(graph_to_json(g))
        assert back == g
        for node in (7, 2.5, True, False, None, "plain"):
            assert back.has_node(node)

    def test_scalar_edge_label_values(self):
        g = LabeledMultigraph()
        g.add_edge("a", "b", 42)
        g.add_edge("a", "b", 2.5)
        g.add_edge("a", "b", True)
        g.add_edge("a", "b", None)
        back = graph_from_json(graph_to_json(g))
        assert back == g
        for label in (42, 2.5, True, None):
            assert back.has_edge("a", "b", label)

    def test_scalar_types_preserved(self):
        # Round-tripped values must come back with the same Python type,
        # not a JSON look-alike (2.0 for 2, "true" for True, ...).
        g = LabeledMultigraph()
        g.add_node(7, 2.5)
        back = graph_from_json(json.loads(json.dumps(graph_to_json(g))))
        (node,) = back.nodes
        assert type(node) is int
        assert type(back.node_label(7)) is float

    def test_edge_label_extras_with_mixed_scalars(self):
        g = LabeledMultigraph()
        g.add_edge("x", "y", EdgeLabel("flight", ("21:45", 930, 2.5, True, None)))
        back = graph_from_json(graph_to_json(g))
        assert back == g

    def test_empty_graph_round_trip(self):
        g = LabeledMultigraph()
        back = graph_from_json(json.loads(json.dumps(graph_to_json(g))))
        assert back == g
        assert back.node_count() == 0 and back.edge_count() == 0


class TestDeltaSerde:
    """Delta objects compare by structure, not identity."""

    def build_delta(self):
        from repro.ham.delta import compute_delta, fact_counts
        from repro.ham.store import _Op

        g = LabeledMultigraph()
        g.add_edge("a", "b", EdgeLabel("link"))
        g.add_node("old", frozenset({"stale"}))
        ops = [
            _Op(_Op.REMOVE_EDGE, "a", "b", EdgeLabel("link")),
            _Op(_Op.REMOVE_NODE, "old"),
            _Op(_Op.ADD_EDGE, ("t", 1), ("t", 2), EdgeLabel("flight", (930, True))),
            _Op(_Op.ADD_NODE, "fresh", frozenset({"new"})),
        ]
        return compute_delta(g, ops, fact_counts(g))[0]

    def test_equality_is_structural(self):
        assert self.build_delta() == self.build_delta()
