"""abl3: closure-edge evaluation strategies.

Three ways to answer the same path query:

1. the λ translation evaluated by the columnar core, which recognises the
   TC rule pair and computes that stratum with its closure kernel;
2. the same program evaluated by the naive walker (the specification);
3. the RPQ product-automaton evaluator.

Shape asserted: identical answers, and the core's closure stratum is the
kernel's (span annotation).  Timings show what Section 6 expects:
TC-specialized evaluation — the kernel stratum or the automaton — pays off
against rule-at-a-time evaluation.
"""

from repro import obs
from repro.core.dsl import parse_graphical_query
from repro.core.engine import GraphLogEngine
from repro.datasets.random_graphs import random_labeled_graph
from repro.graphs.bridge import database_from_graph
from repro.rpq.evaluate import RPQEvaluator

from conftest import report

GRAPH = random_labeled_graph(41, 40, 160, labels=("a", "b"))
DATABASE = database_from_graph(GRAPH)
QUERY = parse_graphical_query(
    """
    define (X) -[out]-> (Y) {
        (X) -[a+]-> (Y);
    }
    """
)
EXPECTED = RPQEvaluator(GRAPH).pairs("a+")


def test_abl3_datalog_columnar_kernel(benchmark):
    engine = GraphLogEngine()
    answers = benchmark(engine.answers, QUERY, DATABASE, "out")
    assert answers == EXPECTED
    with obs.tracing("abl3") as tracer:
        engine.answers(QUERY, DATABASE, "out")
    assert [
        s.attrs["predicates"]
        for s in tracer.root.find_all("engine.stratum")
        if s.attrs.get("kernel") == "closure"
    ] == [["a-tc"]]


def test_abl3_datalog_naive_spec(benchmark):
    engine = GraphLogEngine(method="naive")
    answers = benchmark(engine.answers, QUERY, DATABASE, "out")
    assert answers == EXPECTED


def test_abl3_rpq_automaton(benchmark):
    evaluator = RPQEvaluator(GRAPH)
    answers = benchmark(evaluator.pairs, "a+")
    assert answers == EXPECTED
    report("abl3 answer set size", [(len(EXPECTED),)], header=("pairs",))
