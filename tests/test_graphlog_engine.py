"""End-to-end tests for the GraphLog evaluation engine."""

import pytest

from repro import obs
from repro.core.dsl import parse_graphical_query
from repro.core.engine import GraphLogEngine, answers, prepare_database, run
from repro.datalog.database import Database
from repro.datasets.family import figure2_family
from repro.graphs.bridge import graph_from_database
from repro.graphs.closure import transitive_closure


FIG2 = """
define (P1) -[not-desc-of(P2)]-> (P3) {
    (P1) -[descendant+]-> (P3);
    (P2) -[~descendant+]-> (P3);
    person(P2);
}
"""


@pytest.fixture
def fig2_query():
    return parse_graphical_query(FIG2)


@pytest.fixture
def family():
    return figure2_family()


class TestRun:
    def test_answers(self, fig2_query, family):
        result = answers(fig2_query, family, "not-desc-of")
        assert ("adam", "beth", "gina") in result
        assert ("adam", "beth", "adam") not in result  # beth descends from adam

    def test_run_returns_all_relations(self, fig2_query, family):
        db = run(fig2_query, family)
        assert db.facts("descendant-tc")
        assert db.facts("not-desc-of")

    def test_default_predicate_is_last_graph(self, family):
        q = parse_graphical_query(
            FIG2
            + """
            define (X) -[desc]-> (Y) {
                (X) -[descendant+]-> (Y);
            }
            """
        )
        result = GraphLogEngine().answers(q, family)
        assert all(len(t) == 2 for t in result)

    def test_naive_matches_columnar(self, fig2_query, family):
        fast = GraphLogEngine().answers(fig2_query, family, "not-desc-of")
        slow = GraphLogEngine(method="naive").answers(fig2_query, family, "not-desc-of")
        assert fast == slow

    def test_accepts_multigraph_input(self, fig2_query, family):
        graph = graph_from_database(family)
        via_graph = GraphLogEngine().answers(fig2_query, graph, "not-desc-of")
        via_db = GraphLogEngine().answers(fig2_query, family, "not-desc-of")
        assert via_graph == via_db

    def test_match_goal(self, fig2_query, family):
        engine = GraphLogEngine()
        result = engine.match(fig2_query, family, "not-desc-of(adam, X, gina)")
        assert {x for (x,) in result} == {"beth", "carl", "dora", "evan", "fern"}

    def test_input_database_not_mutated(self, fig2_query, family):
        before = family.to_dict()
        GraphLogEngine().answers(fig2_query, family, "not-desc-of")
        assert family.to_dict() == before

    def test_rejects_wrong_types(self):
        with pytest.raises(TypeError):
            GraphLogEngine().run("not a query", Database())
        q = parse_graphical_query(FIG2)
        with pytest.raises(TypeError):
            GraphLogEngine().run(q, "not a database")


class TestPrepareDatabase:
    def test_node_relation_added(self, family):
        prepared = prepare_database(family)
        assert prepared.count("node") == len(family.active_domain())

    def test_original_untouched(self, family):
        prepare_database(family)
        assert "node" not in family

    def test_custom_domain_predicate(self, family):
        prepared = prepare_database(family, domain_predicate="dom")
        assert prepared.count("dom") > 0


def closure_strata(query, database):
    """Evaluate *query* with the default engine; returns the result and the
    predicate lists of the strata the closure kernel computed."""
    with obs.tracing("t") as tracer:
        result = GraphLogEngine().run(query, database)
    strata = tracer.root.find_all("engine.stratum")
    return result, [s.attrs["predicates"] for s in strata if s.attrs.get("kernel") == "closure"]


class TestClosureKernelOption:
    """The closure kernel is not an option any more: the default engine
    recognises the TC pair λ emits for ``p+`` and runs the kernel itself."""

    @pytest.mark.parametrize("kernel", ["seminaive", "warshall", "squaring", "naive"])
    def test_kernels_match_datalog_path(self, fig2_query, family, kernel):
        result, kernel_strata = closure_strata(fig2_query, family)
        assert kernel_strata == [["descendant-tc"]]
        assert result == GraphLogEngine(method="naive").run(fig2_query, family)
        assert result.facts("descendant-tc") == transitive_closure(
            family.facts("descendant"), method=kernel
        )

    def test_kernel_skips_non_binary_closures(self, family):
        # Closure with a label variable is not a plain TC pair (the label
        # rides along every step); it stays on the generic loop.
        q = parse_graphical_query(
            """
            define (X) -[same-line(L)]-> (Y) {
                (X) -[ride(L)+]-> (Y);
            }
            """
        )
        db = Database.from_facts(
            {"ride": [("a", "b", "red"), ("b", "c", "red"), ("c", "d", "blue")]}
        )
        result, kernel_strata = closure_strata(q, db)
        assert kernel_strata == []
        assert result == GraphLogEngine(method="naive").run(q, db)
        assert ("a", "c", "red") in result.facts("same-line")


class TestOptimizeOption:
    @pytest.mark.parametrize("source,facts", [
        (
            "define (X) -[out]-> (Y) { (X) -[a b c]-> (Y); }",
            {"a": [("1", "2")], "b": [("2", "3")], "c": [("3", "4")]},
        ),
        (
            FIG2,
            None,  # use the family fixture shape inline below
        ),
    ])
    def test_optimized_engine_matches(self, source, facts):
        query = parse_graphical_query(source)
        if facts is None:
            database = figure2_family()
        else:
            database = Database.from_facts(facts)
        plain = GraphLogEngine().answers(query, database)
        optimized = GraphLogEngine(optimize=True).answers(query, database)
        assert plain == optimized

    def test_aux_predicates_folded(self):
        query = parse_graphical_query(
            "define (X) -[out]-> (Y) { (X) -[a b]-> (Y); }"
        )
        database = Database.from_facts({"a": [("1", "2")], "b": [("2", "3")]})
        result = GraphLogEngine(optimize=True).run(query, database)
        assert result.facts("out") == {("1", "3")}
        assert "path" not in result  # the composition auxiliary was inlined
