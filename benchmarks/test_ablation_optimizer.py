"""abl14: evaluating raw vs optimized λ translations.

The λ translation introduces one auxiliary predicate per composite path
subexpression; the optimizer (dedupe + view inlining + pruning) flattens
single-use auxiliaries into their callers, trading intermediate relation
materialization for wider joins.  Shape asserted: identical answers, fewer
rules, and fewer facts derived after optimization.
"""


from repro.core.dsl import parse_graphical_query
from repro.core.engine import prepare_database
from repro.core.translate import translate
from repro.datalog.engine import Engine
from repro.datalog.optimize import optimize
from repro.datasets.random_graphs import random_labeled_graph
from repro.graphs.bridge import database_from_graph

from conftest import report

QUERY = parse_graphical_query(
    """
    define (X) -[out]-> (Y) {
        (X) -[a b (a | b) c]-> (Y);
    }
    """
)
GRAPH = random_labeled_graph(51, 30, 150, labels=("a", "b", "c"))
DATABASE = prepare_database(database_from_graph(GRAPH))
RAW = translate(QUERY)
OPTIMIZED = optimize(RAW, roots=["out"])
EXPECTED = Engine().evaluate(RAW, DATABASE).facts("out")


def test_abl14_raw_translation(benchmark):
    engine = Engine()
    result = benchmark(engine.evaluate, RAW, DATABASE)
    assert result.facts("out") == EXPECTED


def test_abl14_optimized_translation(benchmark):
    engine = Engine()
    result = benchmark(engine.evaluate, OPTIMIZED, DATABASE)
    assert result.facts("out") == EXPECTED

    raw_engine = Engine()
    raw_engine.evaluate(RAW, DATABASE)
    opt_engine = Engine()
    opt_engine.evaluate(OPTIMIZED, DATABASE)
    report(
        "abl14 rules and facts derived",
        [
            ("raw", len(RAW), raw_engine.stats.facts_derived),
            ("optimized", len(OPTIMIZED), opt_engine.stats.facts_derived),
        ],
        header=("variant", "rules", "facts derived"),
    )
    assert len(OPTIMIZED) < len(RAW)
    assert opt_engine.stats.facts_derived <= raw_engine.stats.facts_derived
