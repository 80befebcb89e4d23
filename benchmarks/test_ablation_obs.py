"""abl9: telemetry overhead on the service hot path.

The observability layer claims to be safe to leave on in production: the
abl7 result-cache hit path (a key lookup, ~tens of microseconds) must not
noticeably slow down when the full telemetry stack is armed — histogram
metrics (always on), a JSON logging handler with request-ID stamping
installed on the ``repro`` logger, and the slow-query log enabled with a
threshold no hot request crosses.  The design keeps the per-request
additions to a counter-based request-ID allocation, one threshold
comparison, and histogram observes that were already being paid as
sample-window appends; nothing on the hit path logs, traces, or
allocates beyond the ID string.  Headline bound: armed telemetry stays
within 5% of the bare hot path (min over rounds, plus a small constant
floor so the bound is about overhead, not timer jitter).
"""

import io
import logging
import time

from repro.datasets.flights import random_flights
from repro.graphs.bridge import graph_from_database
from repro.ham.store import HAMStore
from repro.obs.logs import configure_logging
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


def flights_service(**overrides):
    store = HAMStore()
    store.load_graph(graph_from_database(random_flights(7, n_cities=20, n_flights=150)))
    return QueryService(store=store, config=ServiceConfig(**overrides))


def hot_round_seconds(service):
    """Seconds for REQUESTS_PER_ROUND cache-hit requests."""
    started = time.perf_counter()
    for _ in range(REQUESTS_PER_ROUND):
        # As the network front runs a hit: the entry's bytes, no decode.
        service.execute(REQUEST, wire=True)
    return time.perf_counter() - started


def test_abl9_telemetry_overhead_on_hot_path():
    """The bare and the armed service take turns, one round each, so drift
    over the run (another process, clock frequency, a collection) lands on
    both arms alike; each arm keeps its fastest round."""
    baseline_service = flights_service()
    # Fully armed: JSON logging handler installed, slowlog enabled with a
    # threshold no cache hit crosses (so the arm cost, not trace cost, is
    # what's measured — hits are never traced by design).  The handler is
    # on the package logger only while the armed service's round runs.
    telemetry_service = flights_service(slow_ms=10_000.0)
    package_logger = logging.getLogger("repro")
    saved_handlers = list(package_logger.handlers)
    stream = io.StringIO()
    configure_logging(level="info", json_output=True, stream=stream)
    armed_handlers, armed_level = list(package_logger.handlers), package_logger.level
    baseline = telemetry = float("inf")
    try:
        for service in (baseline_service, telemetry_service):
            service.execute(REQUEST)  # warm plan + result caches
        for _ in range(ROUNDS):
            package_logger.handlers = saved_handlers
            package_logger.setLevel(logging.NOTSET)
            baseline = min(baseline, hot_round_seconds(baseline_service))
            package_logger.handlers = armed_handlers
            package_logger.setLevel(armed_level)
            telemetry = min(telemetry, hot_round_seconds(telemetry_service))
        response = telemetry_service.execute(REQUEST)
        assert response["cache"] == "hit"
        # Nothing on the hot path logged or recorded a slow query.
        assert telemetry_service.slowlog.snapshot() == []
        assert stream.getvalue() == ""
    finally:
        package_logger.handlers = saved_handlers
        package_logger.setLevel(logging.NOTSET)
    assert baseline_service.execute(REQUEST)["cache"] == "hit"

    per_request_us = {
        "bare": baseline / REQUESTS_PER_ROUND * 1e6,
        "telemetry": telemetry / REQUESTS_PER_ROUND * 1e6,
    }
    report(
        f"abl9 hot-path cost, {REQUESTS_PER_ROUND} cache-hit requests/round",
        [
            (name, f"{per_request_us[name]:7.2f}", f"{value / baseline:5.2f}x")
            for name, value in (("bare", baseline), ("telemetry", telemetry))
        ],
        header=("mode", "us/request", "vs bare"),
    )

    # Acceptance bound: <= 5% overhead, with a 1us/request jitter floor so
    # a sub-measurable absolute difference can't fail the relative bound.
    floor = 1e-6 * REQUESTS_PER_ROUND
    assert telemetry <= 1.05 * baseline + floor, (
        f"telemetry hot path {telemetry:.4f}s vs bare {baseline:.4f}s "
        f"({telemetry / baseline:.3f}x > 1.05x bound)"
    )


def test_abl9_metrics_are_real_under_load():
    """The timed requests actually hit the telemetry: counters and
    histograms reflect every request, and the exposition renders."""
    service = flights_service()
    service.execute(REQUEST)
    for _ in range(50):
        service.execute(REQUEST)
    snapshot = service.metrics.snapshot()
    assert snapshot["counters"]["requests.graphlog"] == 51
    assert snapshot["latency"]["graphlog"]["count"] == 51
    assert snapshot["latency"]["graphlog"]["p99_ms"] is not None
    text = service.prometheus_text()
    assert 'repro_requests_total{op="graphlog"} 51' in text
    assert 'repro_request_seconds_count{op="graphlog"} 51' in text
