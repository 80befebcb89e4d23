"""Tests for the span-based tracing subsystem (repro.obs)."""

from __future__ import annotations

import json
import threading
import time

import pytest

from repro import obs
from repro.datalog.database import Database
from repro.datalog.engine import Engine
from repro.datalog.parser import parse_program
from repro.errors import ProtocolError
from repro.ham.store import HAMStore
from repro.service.server import QueryService
from tests.test_views import watch

TC_PROGRAM = """
edge(a, b). edge(b, c). edge(c, d). edge(d, a).
tc(X, Y) :- edge(X, Y).
tc(X, Y) :- edge(X, Z), tc(Z, Y).
"""

SG_PROGRAM = """
person(r). person(a1). person(b1). person(a2). person(b2).
parent(a1, r). parent(b1, r). parent(a2, a1). parent(b2, b1).
sg(X, X) :- person(X).
sg(X, Y) :- parent(X, Z), sg(Z, W), parent(Y, W).
"""

REACH_QUERY = """
define (X) -[reach]-> (Y) {
    (X) -[link+]-> (Y);
}
"""


class TestSpanTree:
    def test_disabled_by_default(self):
        assert obs.tracer() is obs.NULL_TRACER
        span = obs.span("anything", key=1)
        assert span is obs.NULL_SPAN
        assert not span
        with span as inner:
            inner.annotate(x=1)
            inner.count("n")
            inner.append("items", "v")
        # All of the above were no-ops on the shared null singleton.
        assert obs.tracer().root is None

    def test_tracing_builds_a_tree(self):
        with obs.tracing("root", a=1) as tr:
            assert obs.tracer() is tr
            with obs.span("child1") as c1:
                c1.annotate(n=3)
                with obs.span("grand"):
                    pass
            with obs.span("child2"):
                pass
        assert obs.tracer() is obs.NULL_TRACER  # reset on exit
        root = tr.root
        assert root.name == "root"
        assert root.attrs["a"] == 1
        assert [c.name for c in root.children] == ["child1", "child2"]
        assert root.children[0].attrs["n"] == 3
        assert root.children[0].children[0].name == "grand"
        assert root.elapsed_ms is not None and root.elapsed_ms >= 0

    def test_count_and_append(self):
        with obs.tracing("t") as tr:
            with obs.span("work") as span:
                span.count("hits")
                span.count("hits", 2)
                span.append("rounds", {"n": 1})
                span.append("rounds", {"n": 2})
        work = tr.root.find("work")
        assert work.attrs["hits"] == 3
        assert work.attrs["rounds"] == [{"n": 1}, {"n": 2}]

    def test_exception_annotates_error_and_unwinds(self):
        with pytest.raises(ValueError):
            with obs.tracing("t") as tr:
                with obs.span("boom"):
                    raise ValueError("nope")
        boom = tr.root.find("boom")
        assert "ValueError" in boom.attrs["error"]
        assert boom.elapsed_ms is not None
        # The stack unwound: tracing() reset the ambient tracer.
        assert obs.tracer() is obs.NULL_TRACER

    def test_to_dict_is_json_ready(self):
        with obs.tracing("t") as tr:
            with obs.span("child", n=2):
                pass
        tree = tr.root.to_dict()
        encoded = json.loads(json.dumps(tree))
        assert encoded["name"] == "t"
        assert encoded["children"][0]["name"] == "child"
        assert encoded["children"][0]["attrs"]["n"] == 2

    def test_render_draws_branches(self):
        with obs.tracing("t") as tr:
            with obs.span("first"):
                with obs.span("inner"):
                    pass
            with obs.span("last"):
                pass
        text = tr.root.render()
        assert "├── first" in text
        assert "└── last" in text
        assert "inner" in text

    def test_find_all(self):
        with obs.tracing("t") as tr:
            for _ in range(3):
                with obs.span("leaf"):
                    pass
        assert len(tr.root.find_all("leaf")) == 3
        assert tr.root.find("missing") is None

    def test_tracer_is_context_local(self):
        """A tracer activated in one thread is invisible to another."""
        seen = []

        def other():
            seen.append(obs.tracer())

        with obs.tracing("t"):
            worker = threading.Thread(target=other)
            worker.start()
            worker.join()
        assert seen == [obs.NULL_TRACER]


class TestTraceRing:
    def test_bounded_and_ordered(self):
        ring = obs.TraceRing(capacity=2)
        for i in range(4):
            ring.record({"i": i})
        assert [e["i"] for e in ring.snapshot()] == [2, 3]
        assert ring.stats() == {"capacity": 2, "size": 2, "recorded": 4}

    def test_snapshot_limit(self):
        ring = obs.TraceRing(capacity=8)
        for i in range(5):
            ring.record(i)
        assert ring.snapshot(limit=2) == [3, 4]

    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            obs.TraceRing(capacity=0)


class TestEngineTracing:
    def test_per_stratum_iterations_and_deltas(self):
        # Same-generation is not a TC pair: the generic semi-naive loop.
        program = parse_program(SG_PROGRAM)
        with obs.tracing("t") as tr:
            Engine().evaluate(program, Database())
        evaluate = tr.root.find("engine.evaluate")
        assert evaluate.attrs["iterations"] >= 2
        strata = evaluate.find_all("engine.stratum")
        assert strata
        sg_span = next(s for s in strata if "sg" in s.attrs["predicates"])
        assert "kernel" not in sg_span.attrs
        iterations = sg_span.attrs["iterations"]
        assert len(iterations) >= 2
        for entry in iterations:
            assert set(entry) == {"iteration", "delta_in", "derived"}
            assert entry["delta_in"]  # per-predicate delta sizes
        assert sg_span.attrs["seed_delta"] == {"sg": 5}
        assert sum(sg_span.attrs["rule_firings"].values()) >= 2

    def test_closure_stratum_records_the_kernel(self):
        # `edge` is defined by program facts, so the closure's base is a
        # lower IDB stratum; `tc` itself starts empty.
        program = parse_program(TC_PROGRAM)
        with obs.tracing("t") as tr:
            Engine().evaluate(program, Database())
        tc_span = next(
            s for s in tr.root.find_all("engine.stratum") if s.attrs["predicates"] == ["tc"]
        )
        assert tc_span.attrs["kernel"] == "closure"
        assert (tc_span.attrs["base_rows"], tc_span.attrs["closure_rows"]) == (4, 16)
        assert tc_span.attrs["facts"] == {"tc": 16}
        assert "iterations" not in tc_span.attrs

    def test_the_naive_walker_opens_no_stratum_spans(self):
        # The specification serves no request: only the core's strata trace.
        program = parse_program(TC_PROGRAM)
        with obs.tracing("t") as tr:
            Engine("naive").evaluate(program, Database())
        (evaluate,) = tr.root.find_all("engine.evaluate")
        assert evaluate.attrs["method"] == "naive" and "backend" not in evaluate.attrs
        assert evaluate.attrs["iterations"] >= 2
        assert not tr.root.find_all("engine.stratum")

    def test_disabled_tracing_same_answers(self):
        program = parse_program(TC_PROGRAM)
        result = Engine().evaluate(program, Database())
        # 4-cycle: the closure is every ordered pair.
        assert len(result.facts("tc")) == 16


class TestDRedTracing:
    def test_view_maintenance_records_rounds(self):
        store = HAMStore()
        session = store.session()
        with session.transaction() as txn:
            for a, b in [("a", "b"), ("b", "c"), ("c", "d")]:
                txn.add_edge(a, b, "link")
        watch(store, REACH_QUERY)
        with obs.tracing("commit") as tr:
            with session.transaction() as txn:
                txn.remove_edge("b", "c", "link")
        maintain = tr.root.find("dred.maintain")
        assert maintain is not None
        assert maintain.attrs["delta_minus"] == {"link": 1}
        group = maintain.find("dred.group")
        assert group is not None
        assert "overdelete_rounds" in group.attrs


class TestExplainOp:
    def _service(self):
        store = HAMStore()
        session = store.session()
        with session.transaction() as txn:
            for a, b in [("a", "b"), ("b", "c"), ("c", "d"), ("d", "b")]:
                txn.add_edge(a, b, "link")
        return QueryService(store=store)

    def test_explain_returns_span_tree_with_iterations(self):
        service = self._service()
        out = service.execute({"op": "explain", "query": REACH_QUERY})
        assert out["cache"] == "bypass"
        result = out["result"]
        assert result["relations"] == {"reach": result["count"]}
        assert set(result["phases"]) == {"prepare", "evaluate", "encode"}
        tree = json.dumps(result["trace"])
        for needle in (
            "translate.lambda",
            "stratify",
            "engine.stratum",
            "delta_in",
            "seed_delta",
        ):
            assert needle in tree, needle
        # The `link+` closure stratum names the kernel that computed it.
        assert '"kernel": "closure"' in tree
        assert "engine.stratum" in result["text"]

    def test_profile_omits_rendered_text(self):
        service = self._service()
        out = service.execute({"op": "profile", "query": REACH_QUERY})
        assert "text" not in out["result"]
        assert "trace" in out["result"]

    def test_explain_bypasses_result_cache(self):
        service = self._service()
        service.execute({"op": "graphlog", "query": REACH_QUERY})
        out = service.execute({"op": "explain", "query": REACH_QUERY})
        assert out["cache"] == "bypass"
        # The warm result cache still answers the plain query.
        assert service.execute({"op": "graphlog", "query": REACH_QUERY})["cache"] == "hit"

    def test_explain_records_into_the_trace_ring(self):
        service = self._service()
        service.execute({"op": "explain", "query": REACH_QUERY})
        service.execute({"op": "profile", "query": REACH_QUERY})
        assert service.traces.stats()["size"] == 2
        entry = service.traces.snapshot()[-1]
        assert entry["target"] == "graphlog"
        assert entry["trace"]["name"] == "explain"
        stats = service.execute({"op": "stats"})["result"]
        assert stats["traces"]["recorded"] == 2

    def test_explain_validates_target(self):
        service = self._service()
        with pytest.raises(ProtocolError):
            service.execute({"op": "explain", "query": "x", "target": "update"})
        with pytest.raises(ProtocolError):
            service.execute({"op": "explain", "query": "   "})

    def test_phase_latencies_reported_in_stats(self):
        service = self._service()
        service.execute({"op": "graphlog", "query": REACH_QUERY})
        phases = service.execute({"op": "stats"})["result"]["metrics"]["phases"]
        for name in ("plan", "cache_lookup", "evaluate", "encode"):
            assert phases[name]["count"] >= 1
            assert phases[name]["total_ms"] >= 0


# --------------------------------------------------------------------------
# Telemetry: histograms, typed registry, exposition, logs, slowlog, export
# --------------------------------------------------------------------------

import io
import logging
import math
import re
import urllib.error
import urllib.request

from repro.obs.export import TelemetryHTTPServer
from repro.obs.logs import (
    JsonLogFormatter,
    RequestIdFilter,
    get_request_id,
    new_request_id,
    request_context,
)
from repro.obs.metrics import (
    CONTENT_TYPE,
    HistogramData,
    MetricFamily,
    Registry,
    escape_label_value,
)
from repro.obs.slowlog import SlowQueryLog

#: One exposition line: comment, or `name{labels} value`.
_HELP_OR_TYPE = re.compile(r"^# (HELP|TYPE) [a-zA-Z_:][a-zA-Z0-9_:]*( .*)?$")
_SAMPLE = re.compile(
    r"^[a-zA-Z_:][a-zA-Z0-9_:]*"
    r"(\{[a-zA-Z_][a-zA-Z0-9_]*=\"(?:[^\"\\\n]|\\.)*\""
    r"(,[a-zA-Z_][a-zA-Z0-9_]*=\"(?:[^\"\\\n]|\\.)*\")*\})?"
    r" (?:-?[0-9.eE+-]+|NaN|\+Inf|-Inf)$"
)


def lint_exposition(text):
    """Assert every line of *text* is valid text exposition format 0.0.4."""
    assert text.endswith("\n")
    for line in text.rstrip("\n").splitlines():
        assert _HELP_OR_TYPE.match(line) or _SAMPLE.match(line), f"bad line: {line!r}"


class TestHistogramData:
    def test_empty(self):
        hist = HistogramData()
        assert hist.count == 0
        assert hist.quantile(0.5) is None

    def test_single_sample_is_every_quantile(self):
        hist = HistogramData()
        hist.observe(0.002)
        for q in (0.0, 0.5, 0.95, 0.99, 1.0):
            assert hist.quantile(q) == pytest.approx(0.002)

    def test_quantiles_clamped_to_observed_range(self):
        hist = HistogramData()
        hist.observe(0.004)
        hist.observe(0.006)
        # Raw interpolation inside the (0.005, 0.01] bucket would say
        # 0.0095; the clamp pins the estimate to the true max.
        assert hist.quantile(0.95) == pytest.approx(0.006)
        assert hist.quantile(0.05) == pytest.approx(0.004)

    def test_quantile_accuracy_on_uniform_samples(self):
        hist = HistogramData()
        for i in range(1, 1001):
            hist.observe(i / 1000.0)  # 1ms .. 1s
        # Bucketed estimates land within the owning bucket of the truth.
        assert hist.quantile(0.5) == pytest.approx(0.5, rel=0.3)
        assert hist.quantile(0.99) == pytest.approx(0.99, rel=0.3)

    def test_merge(self):
        a, b = HistogramData(), HistogramData()
        for v in (0.001, 0.002):
            a.observe(v)
        for v in (0.1, 0.2):
            b.observe(v)
        a.merge(b)
        assert a.count == 4
        assert a.sum == pytest.approx(0.303)
        assert a.min == pytest.approx(0.001)
        assert a.max == pytest.approx(0.2)

    def test_merge_bounds_mismatch(self):
        with pytest.raises(ValueError):
            HistogramData().merge(HistogramData(bounds=(1.0, 2.0)))

    def test_infinity_bucket(self):
        hist = HistogramData(bounds=(1.0,))
        hist.observe(50.0)
        assert hist.counts[-1] == 1
        assert hist.quantile(0.99) == pytest.approx(50.0)

    def test_cumulative_buckets_end_with_inf(self):
        hist = HistogramData(bounds=(1.0, 2.0))
        hist.observe(0.5)
        hist.observe(5.0)
        buckets = hist.cumulative_buckets()
        assert buckets[0] == (1.0, 1)
        assert buckets[-1][0] == math.inf
        assert buckets[-1][1] == 2


class TestRegistry:
    def test_invalid_names_rejected(self):
        with pytest.raises(ValueError):
            MetricFamily("bad-name", "gauge")
        with pytest.raises(ValueError):
            MetricFamily("x", "nonsense")

    def test_collector_callback(self):
        registry = Registry()
        registry.collector(
            lambda: [MetricFamily("t_facts", "gauge").add_sample(3, {"p": "edge"})]
        )
        text = registry.render()
        assert 't_facts{p="edge"} 3' in text
        lint_exposition(text)


class TestExposition:
    def test_label_escaping(self):
        assert escape_label_value('a"b') == 'a\\"b'
        assert escape_label_value("a\\b") == "a\\\\b"
        assert escape_label_value("a\nb") == "a\\nb"
        family = MetricFamily("t_esc", "gauge")
        family.add_sample(1, {"k": 'quo"te\nnl\\slash'})
        rendered = family.render()
        assert '"quo\\"te\\nnl\\\\slash"' in rendered
        lint_exposition(rendered + "\n")

    def test_histogram_rendering(self):
        registry = Registry()
        hist = HistogramData(bounds=(0.1, 1.0))
        hist.observe(0.05)
        hist.observe(5.0)
        registry.collector(
            lambda: [
                MetricFamily("t_seconds", "histogram", "help text").add_histogram(
                    hist, {"op": "q"}
                )
            ]
        )
        text = registry.render()
        assert 't_seconds_bucket{le="0.1",op="q"} 1' in text
        assert 't_seconds_bucket{le="+Inf",op="q"} 2' in text
        assert 't_seconds_count{op="q"} 2' in text
        assert "# TYPE t_seconds histogram" in text
        lint_exposition(text)

    def test_full_registry_lints(self):
        registry = Registry()
        hist = HistogramData(bounds=(0.5,))
        hist.observe(0.1)
        registry.collector(
            lambda: [
                MetricFamily("t_total", "counter", "with help").add_sample(1),
                MetricFamily("t_gauge", "gauge").add_sample(-2.5),
                MetricFamily("t_hist", "histogram").add_histogram(hist),
            ]
        )
        text = registry.render()
        assert "t_gauge -2.5" in text
        lint_exposition(text)

    def test_in_flight_gauge_lines(self):
        from repro.service.metrics import MetricsRegistry

        metrics = MetricsRegistry()
        metrics.request_started()
        assert (
            "# HELP repro_in_flight_requests Requests currently executing or "
            "queued in the service\n"
            "# TYPE repro_in_flight_requests gauge\n"
            "repro_in_flight_requests 1\n"
        ) in metrics.render_prometheus()

    def test_empty_registry_renders_empty(self):
        assert Registry().render() == ""


class TestStructuredLogs:
    def test_request_context(self):
        assert get_request_id() is None
        with request_context() as rid:
            assert get_request_id() == rid
            with request_context("override") as inner:
                assert inner == "override"
                assert get_request_id() == "override"
            assert get_request_id() == rid
        assert get_request_id() is None

    def test_request_ids_unique(self):
        ids = {new_request_id() for _ in range(100)}
        assert len(ids) == 100

    def test_json_formatter_fields(self):
        logger = logging.getLogger("repro.test.json")
        record = logger.makeRecord(
            logger.name, logging.WARNING, __file__, 1,
            "something %s", ("happened",), None,
            extra={"predicate": "edge"},
        )
        RequestIdFilter().filter(record)
        payload = json.loads(JsonLogFormatter().format(record))
        assert payload["message"] == "something happened"
        assert payload["level"] == "WARNING"
        assert payload["logger"] == "repro.test.json"
        assert payload["request_id"] == "-"
        assert payload["predicate"] == "edge"

    def test_json_formatter_carries_ambient_request_id(self):
        logger = logging.getLogger("repro.test.json")
        with request_context("rid-42"):
            record = logger.makeRecord(
                logger.name, logging.INFO, __file__, 1, "hi", (), None
            )
            RequestIdFilter().filter(record)
        payload = json.loads(JsonLogFormatter().format(record))
        assert payload["request_id"] == "rid-42"

    def test_json_formatter_exception(self):
        logger = logging.getLogger("repro.test.json")
        try:
            raise ValueError("boom")
        except ValueError:
            import sys as _sys

            record = logger.makeRecord(
                logger.name, logging.ERROR, __file__, 1, "failed", (), _sys.exc_info()
            )
        RequestIdFilter().filter(record)
        payload = json.loads(JsonLogFormatter().format(record))
        assert "ValueError: boom" in payload["exc"]

    def test_request_id_not_inherited_by_executor_threads(self):
        # contextvars do NOT flow into plain threads — this pins the fact
        # the service works around by binding the ID around each execute
        # call: inside the worker for a request the pool runs, and on the
        # event loop (reset before the next request) for a resident answer.
        seen = {}

        def worker():
            seen["ambient"] = get_request_id()

        with request_context("outer"):
            t = threading.Thread(target=worker)
            t.start()
            t.join()
        assert seen["ambient"] is None

    def test_configure_logging_idempotent(self):
        from repro.obs.logs import configure_logging

        package_logger = logging.getLogger("repro")
        before = list(package_logger.handlers)
        try:
            stream = io.StringIO()
            configure_logging(level="info", json_output=True, stream=stream)
            configure_logging(level="info", json_output=True, stream=stream)
            added = [
                h for h in package_logger.handlers
                if getattr(h, "_repro_cli_handler", False)
            ]
            assert len(added) == 1
            assert package_logger.propagate  # caplog & embedders still see records
            logging.getLogger("repro.test.configured").info("ping")
            payload = json.loads(stream.getvalue().strip().splitlines()[-1])
            assert payload["message"] == "ping"
        finally:
            package_logger.handlers = before
            package_logger.setLevel(logging.NOTSET)

    def test_configure_logging_rejects_unknown_level(self):
        from repro.obs.logs import configure_logging

        with pytest.raises(ValueError):
            configure_logging(level="loud")


class TestSlowQueryLog:
    def test_disabled_by_default(self):
        log = SlowQueryLog()
        assert not log.enabled
        assert not log.should_record(10_000.0)

    def test_threshold_zero_records_everything(self):
        log = SlowQueryLog(threshold_ms=0.0)
        assert log.enabled
        assert log.should_record(0.0)

    def test_ring_bounded(self):
        log = SlowQueryLog(threshold_ms=0.0, capacity=3)
        for i in range(5):
            log.record({"op": "q", "i": i})
        entries = log.snapshot()
        assert [e["i"] for e in entries] == [4, 3, 2]  # newest first
        assert log.stats()["recorded"] == 5
        assert log.stats()["size"] == 3

    def test_snapshot_limit(self):
        log = SlowQueryLog(threshold_ms=0.0)
        for i in range(4):
            log.record({"i": i})
        assert [e["i"] for e in log.snapshot(2)] == [3, 2]

    def test_jsonl_file(self, tmp_path):
        path = tmp_path / "slow.jsonl"
        log = SlowQueryLog(threshold_ms=0.0, path=str(path))
        log.record({"op": "q", "elapsed_ms": 12.5})
        log.record({"op": "r", "elapsed_ms": 7.5})
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert [e["op"] for e in lines] == ["q", "r"]
        assert all("ts" in e for e in lines)

    def test_bad_capacity(self):
        with pytest.raises(ValueError):
            SlowQueryLog(capacity=0)


class TestTelemetryEndpoint:
    def _get(self, port, path):
        return urllib.request.urlopen(f"http://127.0.0.1:{port}{path}", timeout=5)

    def test_metrics_and_healthz(self):
        registry = Registry()
        registry.collector(
            lambda: [MetricFamily("t_live_total", "counter", "alive").add_sample(1)]
        )
        endpoint = TelemetryHTTPServer(
            registry.render, lambda: {"status": "ok"}, port=0
        ).start()
        try:
            resp = self._get(endpoint.port, "/metrics")
            assert resp.status == 200
            assert resp.headers["Content-Type"] == CONTENT_TYPE
            body = resp.read().decode()
            assert "t_live_total 1" in body
            lint_exposition(body)
            health = self._get(endpoint.port, "/healthz")
            assert health.status == 200
            assert json.loads(health.read())["status"] == "ok"
        finally:
            endpoint.stop()

    def test_healthz_degraded_is_503(self):
        endpoint = TelemetryHTTPServer(
            lambda: "", lambda: {"status": "degraded", "reason": "wal closed"}, port=0
        ).start()
        try:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                self._get(endpoint.port, "/healthz")
            assert excinfo.value.code == 503
            assert json.loads(excinfo.value.read())["status"] == "degraded"
        finally:
            endpoint.stop()

    def test_health_callback_error_is_503(self):
        def boom():
            raise RuntimeError("sensor failure")

        endpoint = TelemetryHTTPServer(lambda: "", boom, port=0).start()
        try:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                self._get(endpoint.port, "/healthz")
            assert excinfo.value.code == 503
            assert "sensor failure" in json.loads(excinfo.value.read())["error"]
        finally:
            endpoint.stop()

    def test_stop_returns_within_a_fraction_of_a_second(self):
        endpoint = TelemetryHTTPServer(lambda: "", lambda: {"status": "ok"}, port=0).start()
        started = time.perf_counter()
        endpoint.stop()
        assert time.perf_counter() - started < 0.2

    def test_unknown_path_404(self):
        endpoint = TelemetryHTTPServer(lambda: "", lambda: {"status": "ok"}, port=0).start()
        try:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                self._get(endpoint.port, "/nope")
            assert excinfo.value.code == 404
        finally:
            endpoint.stop()
