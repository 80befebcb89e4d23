"""abl7: service-cache ablation — cold vs prepared-plan vs result-cache hit.

The serving layer has three progressively warmer paths for an identical
query: (a) *cold* — parse, λ-translate, safety-check, stratify, evaluate;
(b) *prepared* — the compiled plan is cached, only evaluation runs; (c)
*hot* — both the plan and the result are cached, the request is a key
lookup.  Shape asserted: all three return identical answers, and the hot
path does no evaluation at all (its cost is independent of the data), which
we verify structurally via cache counters and by it beating the cold path.
A commit's cost to the cache is independent of how many answers it holds:
``apply_commit`` with 4 096 plain entries takes within 2x of 16.
"""

from __future__ import annotations

import statistics
import time

from repro.datasets.flights import random_flights
from repro.graphs.bridge import graph_from_database
from repro.ham.store import HAMStore
from repro.service.cache import ResultCache, result_key
from repro.service.server import QueryService, ServiceConfig

from conftest import report

QUERY = """
define (C1) -[reach]-> (C2) {
    (C1) <-[from]- (F); (F) -[to]-> (C2);
}
define (C1) -[connected]-> (C2) {
    (C1) -[reach+]-> (C2);
}
"""

REQUEST = {"op": "graphlog", "query": QUERY}


def flights_service():
    store = HAMStore()
    store.load_graph(graph_from_database(random_flights(7, n_cities=20, n_flights=150)))
    return QueryService(store=store, config=ServiceConfig())


EXPECTED = flights_service().execute(REQUEST)["result"]


def test_abl7_cold(benchmark):
    """Fresh service per run: plan compilation + evaluation every time."""

    def cold():
        return flights_service().execute(REQUEST)

    response = benchmark(cold)
    assert response["cache"] == "miss"
    assert response["result"] == EXPECTED


def test_abl7_prepared_plan(benchmark):
    """Plan cached, result cache emptied: evaluation only."""
    service = flights_service()
    service.execute(REQUEST)  # warm the plan cache

    def prepared():
        service.results.clear()
        return service.execute(REQUEST)

    response = benchmark(prepared)
    assert response["cache"] == "miss"
    assert response["result"] == EXPECTED
    stats = service.plans.stats()
    assert stats["misses"] == 1 and stats["hits"] >= 1


def test_abl7_result_cache_hit(benchmark):
    """Fully warm: the request never reaches the evaluator."""
    service = flights_service()
    service.execute(REQUEST)
    misses_after_warmup = service.results.stats()["misses"]

    response = benchmark(service.execute, REQUEST)
    assert response["cache"] == "hit"
    assert response["result"] == EXPECTED
    assert service.results.stats()["misses"] == misses_after_warmup


def test_abl7_shape(benchmark):
    """One combined run reporting the three latencies; hot must beat cold."""
    import time

    service = flights_service()

    def once(fn):
        started = time.perf_counter()
        fn()
        return time.perf_counter() - started

    cold = once(lambda: service.execute(REQUEST))
    service.results.clear()
    warm_plan = once(lambda: service.execute(REQUEST))
    hot = min(once(lambda: service.execute(REQUEST)) for _ in range(5))
    benchmark(service.execute, REQUEST)

    report(
        "abl7 identical-query latency (ms)",
        [(round(cold * 1e3, 3), round(warm_plan * 1e3, 3), round(hot * 1e3, 3))],
        header=("cold", "prepared-plan", "result-hit"),
    )
    # The hot path is a dict lookup; the cold path runs the full pipeline.
    assert hot < cold


def apply_commit_median_ms(entries, commits=400):
    """The median time of ``apply_commit`` over *commits* commits none of
    the cache's *entries* plain answers reads."""
    cache = ResultCache(capacity=entries)
    for i in range(entries):
        cache.put(result_key(f"q{i}", {}), b"answer", 1, 0, frozenset({"from", "to"}))
    times = []
    for version in range(1, commits + 1):
        started = time.perf_counter()
        cache.apply_commit(version, frozenset({"unrelated"}))
        times.append(time.perf_counter() - started)
    assert len(cache) == entries
    return statistics.median(times) * 1e3


def test_abl7_apply_commit_is_flat(benchmark):
    """A commit visits no cached entry: 4 096 cost what 16 do."""
    apply_commit_median_ms(16, 50)  # warm-up
    small, large = apply_commit_median_ms(16), apply_commit_median_ms(4096)
    benchmark(apply_commit_median_ms, 1024, 50)
    report(
        "abl7 apply_commit median (ms) by plain entries held",
        [(round(small, 4), round(large, 4), round(large / small, 2))],
        header=("16", "4096", "ratio"),
    )
    assert large <= 2 * small
