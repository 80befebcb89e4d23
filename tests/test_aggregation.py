"""Tests for aggregates, semirings, and path summarization (Section 4)."""

import math

import pytest

from repro.aggregation.aggregates import AggregateProgram, AggregateRule, AggregateTerm, evaluate_with_aggregates
from repro.aggregation.semiring import COUNT_PATHS, MIN_PLUS, semiring_by_name
from repro.aggregation.summarize import (
    path_summarize,
    summarize_from,
    summarize_paths,
    weighted_edges_from_database,
)
from repro.datalog.ast import Comparison, atom, lit, neglit, rule
from repro.datalog.database import Database
from repro.errors import AggregationError, StratificationError


def sales_db():
    db = Database()
    db.add_facts(
        "sale",
        [
            ("tor", "jan", 10),
            ("tor", "feb", 30),
            ("ott", "jan", 5),
            ("ott", "feb", 5),
            ("mtl", "mar", 7),
        ],
    )
    return db


class TestAggregateRules:
    def test_count_groups(self):
        program = AggregateProgram(
            [AggregateRule("n-sales", ["C", AggregateTerm("count")], [lit("sale", "C", "M", "V")])]
        )
        out = evaluate_with_aggregates(program, sales_db())
        assert out.facts("n-sales") == {("tor", 2), ("ott", 2), ("mtl", 1)}

    def test_sum_min_max_avg(self):
        rules = AggregateProgram(
            [
                AggregateRule("total", ["C", AggregateTerm("sum", "V")], [lit("sale", "C", "M", "V")]),
                AggregateRule("lo", ["C", AggregateTerm("min", "V")], [lit("sale", "C", "M", "V")]),
                AggregateRule("hi", ["C", AggregateTerm("max", "V")], [lit("sale", "C", "M", "V")]),
                AggregateRule("mean", ["C", AggregateTerm("avg", "V")], [lit("sale", "C", "M", "V")]),
            ]
        )
        out = evaluate_with_aggregates(rules, sales_db())
        assert ("tor", 40) in out.facts("total")
        assert ("tor", 10) in out.facts("lo")
        assert ("tor", 30) in out.facts("hi")
        assert ("tor", 20.0) in out.facts("mean")

    def test_count_distinct_bindings_not_projections(self):
        # Two sales in jan across different cities: count per month sees both.
        program = AggregateProgram(
            [AggregateRule("per-month", ["M", AggregateTerm("count")], [lit("sale", "C", "M", "V")])]
        )
        out = evaluate_with_aggregates(program, sales_db())
        assert ("jan", 2) in out.facts("per-month")

    def test_global_aggregate_no_groups(self):
        program = AggregateProgram(
            [AggregateRule("grand", [AggregateTerm("sum", "V")], [lit("sale", "C", "M", "V")])]
        )
        out = evaluate_with_aggregates(program, sales_db())
        assert out.facts("grand") == {(57,)}

    def test_empty_body_result_yields_nothing(self):
        program = AggregateProgram(
            [AggregateRule("total", ["C", AggregateTerm("sum", "V")], [lit("nope", "C", "V")])]
        )
        out = evaluate_with_aggregates(program, sales_db())
        assert out.facts("total") == frozenset()

    def test_count_of_empty_group_absent(self):
        # count is only produced for existing groups (no 0 rows invented).
        program = AggregateProgram(
            [AggregateRule("n", ["C", AggregateTerm("count")], [lit("nope", "C")])]
        )
        out = evaluate_with_aggregates(program, sales_db())
        assert out.facts("n") == frozenset()

    def test_mixed_with_plain_rules(self):
        program = AggregateProgram(
            [
                AggregateRule("total", ["C", AggregateTerm("sum", "V")], [lit("sale", "C", "M", "V")]),
                rule(atom("big", "C"), lit("total", "C", "T"), Comparison(">", "T", 20)),
            ]
        )
        out = evaluate_with_aggregates(program, sales_db())
        assert out.facts("big") == {("tor",)}

    def test_aggregate_over_aggregate(self):
        program = AggregateProgram(
            [
                AggregateRule("total", ["C", AggregateTerm("sum", "V")], [lit("sale", "C", "M", "V")]),
                AggregateRule("best", [AggregateTerm("max", "T")], [lit("total", "C", "T")]),
            ]
        )
        out = evaluate_with_aggregates(program, sales_db())
        assert out.facts("best") == {(40,)}

    def test_aggregate_through_recursion_rejected(self):
        program = AggregateProgram(
            [
                rule(atom("p", "X", "V"), lit("q", "X", "V")),
                AggregateRule("q", ["X", AggregateTerm("sum", "V")], [lit("p", "X", "V")]),
            ]
        )
        with pytest.raises(StratificationError):
            evaluate_with_aggregates(program, Database())

    def test_validation(self):
        with pytest.raises(AggregationError):
            AggregateTerm("median", "X")
        with pytest.raises(AggregationError):
            AggregateTerm("sum")  # needs a variable
        with pytest.raises(AggregationError):
            AggregateRule("p", ["X"], [lit("q", "X")])  # no aggregate term

    def test_negation_inside_aggregate_body(self):
        db = sales_db()
        db.add_fact("excluded", "tor")
        program = AggregateProgram(
            [
                AggregateRule(
                    "total",
                    ["C", AggregateTerm("sum", "V")],
                    [lit("sale", "C", "M", "V"), neglit("excluded", "C")],
                )
            ]
        )
        out = evaluate_with_aggregates(program, db)
        cities = {c for c, _t in out.facts("total")}
        assert cities == {"ott", "mtl"}


class TestSemirings:
    def test_lookup(self):
        assert semiring_by_name("shortest") is MIN_PLUS
        with pytest.raises(KeyError):
            semiring_by_name("banana")

    def test_plus_all(self):
        assert MIN_PLUS.plus_all([3, 1, 2]) == 1
        assert MIN_PLUS.plus_all([]) == math.inf
        assert COUNT_PATHS.plus_all([1, 2]) == 3


DAG = [("a", "b", 3), ("b", "c", 2), ("a", "c", 10), ("c", "d", 1)]


class TestSummarize:
    def test_shortest(self):
        table = summarize_paths(DAG, "shortest")
        assert table[("a", "c")] == 5
        assert table[("a", "d")] == 6

    def test_longest(self):
        table = summarize_paths(DAG, "longest")
        assert table[("a", "c")] == 10
        assert table[("a", "d")] == 11

    def test_count(self):
        unit = [(u, v, 1) for u, v, _w in DAG]
        table = summarize_paths(unit, "count")
        assert table[("a", "c")] == 2
        assert table[("a", "d")] == 2

    def test_widest(self):
        table = summarize_paths(DAG, "widest")
        assert table[("a", "d")] == max(min(3, 2, 1), min(10, 1))

    def test_reach_bool(self):
        table = summarize_paths([("a", "b", True), ("b", "a", True)], "reach")
        assert table[("a", "a")] is True or table[("a", "a")] == 1

    def test_single_source(self):
        assert summarize_from("a", DAG, "shortest") == {"b": 3, "c": 5, "d": 6}

    def test_include_empty(self):
        table = summarize_paths(DAG, "shortest", include_empty=True)
        assert table[("a", "a")] == 0

    def test_longest_on_cycle_rejected(self):
        with pytest.raises(AggregationError):
            summarize_paths([("a", "b", 1), ("b", "a", 1)], "longest")

    def test_count_on_cycle_rejected(self):
        with pytest.raises(AggregationError):
            summarize_paths([("a", "b", 1), ("b", "a", 1)], "count")

    def test_shortest_on_cycle_ok(self):
        table = summarize_paths([("a", "b", 1), ("b", "a", 1)], "shortest")
        assert table[("a", "a")] == 2

    def test_no_path_pairs_absent(self):
        table = summarize_paths(DAG, "shortest")
        assert ("d", "a") not in table

    def test_database_facade(self):
        db = Database()
        db.add_facts("hop", [(u, v, w) for u, v, w in DAG])
        out = path_summarize(db, "hop", "shortest")
        assert ("a", "d", 6) in out.facts("hop-summary")
        assert "hop-summary" not in db  # original untouched

    def test_weight_extraction_arity_check(self):
        db = Database()
        db.add_facts("e", [("a", "b")])
        with pytest.raises(AggregationError):
            weighted_edges_from_database(db, "e")


class TestAggregatesWithRecursion:
    def test_recursion_above_aggregate(self):
        # Aggregate first (edge weights -> min per pair), then TC over the
        # aggregated relation: stratified and legal.
        db = Database()
        db.add_facts(
            "leg",
            [("a", "b", 5), ("a", "b", 3), ("b", "c", 2), ("x", "y", 9)],
        )
        program = AggregateProgram(
            [
                AggregateRule(
                    "best-leg",
                    ["U", "V", AggregateTerm("min", "W")],
                    [lit("leg", "U", "V", "W")],
                ),
                rule(atom("hop", "U", "V"), lit("best-leg", "U", "V", "W")),
                rule(atom("conn", "U", "V"), lit("hop", "U", "V")),
                rule(atom("conn", "U", "V"), lit("hop", "U", "Z"), lit("conn", "Z", "V")),
            ]
        )
        out = evaluate_with_aggregates(program, db)
        assert ("a", "b", 3) in out.facts("best-leg")
        assert ("a", "c") in out.facts("conn")
        assert ("a", "y") not in out.facts("conn")

    def test_summary_above_plain_rules(self):
        # Plain rule defines the weight relation; summary consumes it.
        from repro.aggregation.aggregates import PathSummaryRule

        db = Database()
        db.add_facts("affects", [("a", "b"), ("b", "c")])
        db.add_facts("duration", [("b", 4), ("c", 6)])
        program = AggregateProgram(
            [
                rule(
                    atom("moved", "U", "V", "D"),
                    lit("affects", "U", "V"),
                    lit("duration", "V", "D"),
                ),
                PathSummaryRule("longest-chain", "moved", "longest"),
            ]
        )
        out = evaluate_with_aggregates(program, db)
        assert ("a", "c", 10) in out.facts("longest-chain")

    def test_plain_rule_above_summary(self):
        from repro.aggregation.aggregates import PathSummaryRule

        db = Database()
        db.add_facts("hop", [("a", "b", 3), ("b", "c", 2)])
        program = AggregateProgram(
            [
                PathSummaryRule("dist", "hop", "shortest"),
                rule(
                    atom("close", "U", "V"),
                    lit("dist", "U", "V", "D"),
                    Comparison("<", "D", 4),
                ),
            ]
        )
        out = evaluate_with_aggregates(program, db)
        assert out.facts("close") == {("a", "b"), ("b", "c")}

    def test_summary_through_recursion_rejected(self):
        from repro.aggregation.aggregates import PathSummaryRule
        from repro.errors import StratificationError

        program = AggregateProgram(
            [
                PathSummaryRule("summary", "w", "shortest"),
                rule(atom("w", "U", "V", "D"), lit("summary", "U", "V", "D")),
            ]
        )
        with pytest.raises(StratificationError):
            evaluate_with_aggregates(program, Database())


SUMMARY_QUERY = "define (X) -[best(V)]-> (Y) { (X) -[hop @ shortest V]-> (Y); }"


@pytest.mark.parametrize("source, weight, target", [((1, 2), 7, 3), (("t", 1), 1, "a")])
def test_a_summary_over_a_weight_relation_that_is_not_ternary_is_refused(
    source, weight, target
):
    # A tuple node spreads over two columns: `hop` is (s1, s2, t, w).
    from repro.core.dsl import parse_graphical_query
    from repro.core.engine import GraphLogEngine
    from repro.graphs.bridge import EdgeLabel
    from repro.ham.store import HAMStore
    from repro.service.server import QueryService

    store = HAMStore()
    with store.session().transaction() as txn:
        txn.add_edge(source, target, EdgeLabel("hop", (weight,)))
    with pytest.raises(AggregationError, match="'hop'.*arity 4"):
        GraphLogEngine(method="naive").run(parse_graphical_query(SUMMARY_QUERY), store.graph)
    service = QueryService(store=store)
    try:
        with pytest.raises(AggregationError, match="'hop'.*arity 4"):
            service.execute({"op": "graphlog", "query": SUMMARY_QUERY})
    finally:
        service.close()
