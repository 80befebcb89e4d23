"""abl1: naive vs semi-naive Datalog evaluation.

The engine's default (``Engine()``, the columnar core) is semi-naive; on
deep recursions (chains) naive evaluation (``Engine("naive")``) re-derives
every earlier fact each round (cubic-ish work), while semi-naive joins only
the delta.  Shape asserted: identical results, and semi-naive performs no
more rule firings.
"""

import pytest

from repro.datalog.engine import Engine
from repro.datalog.parser import parse_program
from repro.datasets.random_graphs import chain_database, random_edge_relation

TC = parse_program(
    """
    tc(X, Y) :- edge(X, Y).
    tc(X, Y) :- edge(X, Z), tc(Z, Y).
    """
)


@pytest.mark.parametrize("length", [40, 80])
def test_abl1_seminaive_chain(benchmark, length):
    database = chain_database(length)
    engine = Engine()
    result = benchmark(engine.evaluate, TC, database)
    assert len(result.facts("tc")) == length * (length + 1) // 2


@pytest.mark.parametrize("length", [40, 80])
def test_abl1_naive_chain(benchmark, length):
    database = chain_database(length)
    engine = Engine(method="naive")
    result = benchmark(engine.evaluate, TC, database)
    assert len(result.facts("tc")) == length * (length + 1) // 2


def test_abl1_same_answers_fewer_iterations(benchmark):
    database = random_edge_relation(21, 40, 120)

    def both():
        semi = Engine()
        fast = semi.evaluate(TC, database)
        naive = Engine(method="naive")
        slow = naive.evaluate(TC, database)
        return fast, slow, semi.stats, naive.stats

    fast, slow, semi_stats, naive_stats = benchmark(both)
    assert fast.to_dict() == slow.to_dict()
    # Naive restarts every rule each round; semi-naive only joins deltas.
    assert semi_stats.rule_firings <= naive_stats.rule_firings
