"""abl11: the columnar int-encoded evaluation core.

The columnar core dictionary-encodes terms to dense ints, stores relations
as sorted runs of int tuples, and runs joins as batch kernels (C-level
comprehensions over hash probes, with the final join fused into the head
projection).  It is the repository's one semi-naive fixpoint, so there is no
second backend to race it against (EXPERIMENTS.md keeps the >= 10x it was
measured at when there was one); what is timed here is the core alone,
checked on every run against an independent oracle:

- the abl6 hot path: transitive closure over a long chain (closed form);
- the abl7 hot path: the flights ``reach``/``connected`` GraphLog query
  (translated to Datalog) over a dense random flight network, against the
  naive walker.

One guard bounds a ratio of two timings: merging a semi-naive round's rows
(``ColumnarRelation.merge_run``) costs O(run), whatever the relation holds.
"""

from __future__ import annotations

import statistics
import time

import pytest

from repro.core.dsl import parse_graphical_query
from repro.core.translate import translate
from repro.datalog.columnar import ColumnarRelation
from repro.datalog.database import Database
from repro.datalog.engine import Engine
from repro.datalog.parser import parse_program
from repro.datasets.flights import random_flights

from conftest import report

CHAIN_PROGRAM = parse_program(
    """
    tc(X, Y) :- e(X, Y).
    tc(X, Y) :- e(X, Z), tc(Z, Y).
    """
)

FLIGHTS_QUERY = """
define (C1) -[reach]-> (C2) {
    (C1) <-[from]- (F); (F) -[to]-> (C2);
}
define (C1) -[connected]-> (C2) {
    (C1) -[reach+]-> (C2);
}
"""

FLIGHTS_PROGRAM = translate(parse_graphical_query(FLIGHTS_QUERY))


def chain_edb(n):
    db = Database()
    db.add_facts("e", [(f"n{i}", f"n{i+1}") for i in range(n)])
    return db


def merge_run_ms(size, run=100, trials=41):
    """Median ms to ``merge_run`` *run* fresh rows into a *size*-row
    relation; each trial's rows are taken out again, so every trial merges
    into *size* rows."""
    relation = ColumnarRelation("p", 2)
    relation.merge_run((i, i) for i in range(size))
    times = []
    for trial in range(trials):
        rows = [(-1 - trial, i) for i in range(run)]
        started = time.perf_counter()
        fresh = relation.merge_run(rows)
        times.append(time.perf_counter() - started)
        assert len(fresh) == run
        del relation.rows[size:]
        relation.keys.difference_update(fresh)
    return 1000 * statistics.median(times)


def evaluate(method, program, edb):
    return Engine(method=method, check_safety=False).evaluate(program, edb)


@pytest.mark.parametrize("size", [100, 200])
def test_abl11_columnar_chain_closure(benchmark, size):
    """Timed columnar run on the abl6 chain, checked against the closed form."""
    edb = chain_edb(size)
    result = benchmark(evaluate, "columnar", CHAIN_PROGRAM, edb)
    assert result.facts("tc") == {
        (f"n{i}", f"n{j}") for i in range(size + 1) for j in range(i + 1, size + 1)
    }


def test_abl11_columnar_flights(benchmark):
    """Timed columnar run on the abl7 flights query, checked against naive."""
    edb = random_flights(7, n_cities=150, n_flights=5000)
    result = benchmark(evaluate, "columnar", FLIGHTS_PROGRAM, edb)
    assert result.facts("connected")
    assert result == evaluate("naive", FLIGHTS_PROGRAM, edb)


def test_abl11_encode_cache_amortized_across_queries():
    """Repeat queries against one database reuse the encoded columns: the
    second run must not pay the encode again (structurally asserted via
    the cache, not timing)."""
    from repro.datalog.columnar import encode_database

    edb = chain_edb(100)
    evaluate("columnar", CHAIN_PROGRAM, edb)
    encoded = encode_database(edb)
    evaluate("columnar", CHAIN_PROGRAM, edb)
    assert encode_database(edb) is encoded


def test_abl11_merge_run_costs_the_run():
    """A 100-row merge into 100 000 rows stays within 5x of the same merge
    into 1 000 rows: the dedup probes the key set per candidate, and never
    copies or walks it."""
    small = min(merge_run_ms(1_000) for _ in range(3))
    large = min(merge_run_ms(100_000) for _ in range(3))
    report(
        "abl11 merge_run of 100 fresh rows",
        [(1_000, f"{small:.4f}"), (100_000, f"{large:.4f}")],
        header=("relation rows", "median ms"),
    )
    assert large <= 5 * small, (small, large)
