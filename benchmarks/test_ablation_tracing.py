"""abl13: distributed-tracing overhead on the service hot path.

Head-sampled tracing claims to be cheap enough to leave on in production
at a realistic rate.  On the abl7 result-cache hit path (~tens of
microseconds per request) the unsampled request pays one ambient-context
read, one deterministic counter tick in the sampler, and — for the 1-in-N
sampled requests — a span tree whose hit path opens exactly one request
span.  Headline bound: tracing at a 1% head-sample rate stays within 5%
of the untraced hot path (min over rounds, plus a small constant floor so
the bound is about overhead, not timer jitter).  Full tracing (rate 1.0)
is measured and reported for scale but not bounded: tracing every request
on a ~12us path is a debugging posture, not a production one.
"""

import time

from repro.datasets.flights import random_flights
from repro.graphs.bridge import graph_from_database
from repro.ham.store import HAMStore
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
REQUESTS_PER_ROUND = 2000
ROUNDS = 7
SAMPLE_RATE = 0.01


def flights_service(**overrides):
    store = HAMStore()
    store.load_graph(graph_from_database(random_flights(7, n_cities=20, n_flights=150)))
    return QueryService(store=store, config=ServiceConfig(**overrides))


def hot_round_seconds(service):
    """Min-of-rounds time for REQUESTS_PER_ROUND cache-hit requests."""
    service.execute(REQUEST)  # warm plan + result caches
    best = float("inf")
    for _ in range(ROUNDS):
        started = time.perf_counter()
        for _ in range(REQUESTS_PER_ROUND):
            # As the network front runs a hit: the entry's bytes, no decode.
            service.execute(REQUEST, wire=True)
        best = min(best, time.perf_counter() - started)
    return best


def test_abl13_sampled_tracing_overhead_on_hot_path():
    baseline_service = flights_service()
    baseline = hot_round_seconds(baseline_service)
    assert baseline_service.execute(REQUEST)["cache"] == "hit"

    sampled_service = flights_service(trace_sample=SAMPLE_RATE)
    sampled = hot_round_seconds(sampled_service)
    # The sampler really fired: the deterministic 1/N cadence means the
    # ring saw traces, and every sampled response carried its trace id.
    assert sampled_service.traces.stats()["recorded"] > 0
    response = sampled_service.execute(REQUEST)
    assert response["cache"] == "hit"

    full_service = flights_service(trace_sample=1.0)
    full = hot_round_seconds(full_service)
    assert full_service.execute(REQUEST)["trace_id"] is not None

    per_request_us = {
        "untraced": baseline,
        f"sampled {SAMPLE_RATE:g}": sampled,
        "full 1.0": full,
    }
    report(
        f"abl13 tracing cost, {REQUESTS_PER_ROUND} cache-hit requests/round",
        [
            (name, f"{value / REQUESTS_PER_ROUND * 1e6:7.2f}",
             f"{value / baseline:5.2f}x")
            for name, value in per_request_us.items()
        ],
        header=("mode", "us/request", "vs untraced"),
    )

    # Acceptance bound (ISSUE 10): sampled tracing <= 1.05x the untraced
    # path, with a 1us/request jitter floor so a sub-measurable absolute
    # difference cannot fail the relative bound.
    floor = 1e-6 * REQUESTS_PER_ROUND
    assert sampled <= 1.05 * baseline + floor, (
        f"sampled tracing hot path {sampled:.4f}s vs untraced {baseline:.4f}s "
        f"({sampled / baseline:.3f}x > 1.05x bound)"
    )


def test_abl13_sampling_is_deterministic_and_counted():
    """The measured configuration really samples 1 in N: exact counts from
    the deterministic sampler, mirrored in the trace counters."""
    service = flights_service(trace_sample=0.1)
    service.execute(REQUEST)  # warm (this one ticks the sampler too)
    for _ in range(99):
        service.execute(REQUEST)
    stats = service.stats()
    assert stats["traces"]["sample_rate"] == 0.1
    assert service.metrics.counter("trace.sampled") == 10
    assert service.traces.stats()["recorded"] == 10
