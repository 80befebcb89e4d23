"""Distributed tracing end to end: context adoption on the service, the
``trace_get``/``cluster_stats`` wire ops, router-side propagation and
assembly, replica poll stamping, subscription frame tagging, and the
cluster dashboard."""

import io
import time

import pytest

from repro.errors import ProtocolError
from repro.obs import context as trace_context
from repro.replication.router import RouterServer
from repro.service.client import ServiceClient
from repro.service.server import QueryService, ServiceConfig, ServiceServer
from repro.service.top import ClusterDashboard
from repro.ham.store import HAMStore

TC_PROGRAM = "tc(X,Y) :- e(X,Y).\ntc(X,Y) :- tc(X,Z), e(Z,Y)."


def flights_store():
    store = HAMStore()
    session = store.session()
    with session.transaction() as txn:
        txn.add_edge("a", "b", "e")
        txn.add_edge("b", "c", "e")
    return store


def start_server(**config_kwargs):
    config_kwargs.setdefault("port", 0)
    return ServiceServer(config=ServiceConfig(**config_kwargs)).start_background()


class TestServiceAdoption:
    def test_incoming_context_adopted_and_echoed(self):
        service = QueryService(
            store=flights_store(), config=ServiceConfig(trace_sample=0.0)
        )
        body = service.execute(
            {
                "op": "datalog",
                "query": TC_PROGRAM,
                "trace": {"trace_id": "remote-trace-1", "sampled": True},
            }
        )
        assert body["trace_id"] == "remote-trace-1"
        entries = service.traces.find("remote-trace-1")
        assert entries, "sampled incoming context must record a trace"
        spans = entries[0]["spans"]
        assert spans[0]["name"] == "request"
        assert {s["name"] for s in spans} >= {"request", "evaluate"}

    def test_unsampled_context_adopts_id_without_spans(self):
        service = QueryService(
            store=flights_store(), config=ServiceConfig(trace_sample=0.0)
        )
        body = service.execute(
            {
                "op": "datalog",
                "query": TC_PROGRAM,
                "trace": {"trace_id": "remote-trace-2", "sampled": False},
            }
        )
        assert body["trace_id"] == "remote-trace-2"
        assert service.traces.find("remote-trace-2") == []

    def test_malformed_trace_rejected(self):
        service = QueryService(store=flights_store())
        with pytest.raises(ProtocolError):
            service.execute(
                {"op": "ping", "trace": {"trace_id": ""}}
            )

    def test_local_head_sampling_mints_trace(self):
        service = QueryService(
            store=flights_store(), config=ServiceConfig(trace_sample=1.0)
        )
        body = service.execute({"op": "datalog", "query": TC_PROGRAM})
        trace_id = body["trace_id"]
        assert trace_id
        assert service.traces.find(trace_id)

    def test_root_span_links_remote_parent(self):
        service = QueryService(
            store=flights_store(), config=ServiceConfig(trace_sample=0.0)
        )
        service.execute(
            {
                "op": "datalog",
                "query": TC_PROGRAM,
                "trace": {
                    "trace_id": "remote-trace-3",
                    "parent_span_id": "sender-s1",
                    "sampled": True,
                },
            }
        )
        spans = service.traces.find("remote-trace-3")[0]["spans"]
        assert spans[0]["parent_span_id"] == "sender-s1"


class TestTraceGetOp:
    def test_ring_source(self):
        service = QueryService(
            store=flights_store(), config=ServiceConfig(trace_sample=1.0)
        )
        trace_id = service.execute({"op": "datalog", "query": TC_PROGRAM})["trace_id"]
        result = service.execute({"op": "trace_get", "trace_id": trace_id})["result"]
        assert result["found"] is True
        assert result["source"] == "ring"
        assert result["node_id"] == service.node_id
        assert all(s["node_id"] == service.node_id for s in result["spans"])

    def test_slowlog_fallback_when_ring_evicted(self):
        service = QueryService(
            store=flights_store(),
            config=ServiceConfig(trace_sample=1.0, slow_ms=0.0),
        )
        trace_id = service.execute({"op": "datalog", "query": TC_PROGRAM})["trace_id"]
        # Evict the ring entry with as many later traced requests as it holds.
        for _ in range(service.traces.capacity):
            service.execute({"op": "rpq", "query": "e+"})
        assert not service.traces.find(trace_id)
        result = service.execute({"op": "trace_get", "trace_id": trace_id})["result"]
        assert result["found"] is True
        assert result["source"] == "slowlog"

    def test_missing_trace_not_found(self):
        service = QueryService(store=flights_store())
        result = service.execute({"op": "trace_get", "trace_id": "nope"})["result"]
        assert result["found"] is False
        assert result["spans"] == []

    def test_trace_id_validated(self):
        service = QueryService(store=flights_store())
        with pytest.raises(ProtocolError):
            service.execute({"op": "trace_get"})
        with pytest.raises(ProtocolError):
            service.execute({"op": "trace_get", "trace_id": 7})

    def test_cluster_stats_rejected_on_a_node(self):
        service = QueryService(store=flights_store())
        with pytest.raises(ProtocolError):
            service.execute({"op": "cluster_stats"})

    def test_slowlog_entries_carry_trace_id(self):
        service = QueryService(
            store=flights_store(), config=ServiceConfig(slow_ms=0.0)
        )
        body = service.execute(
            {
                "op": "datalog",
                "query": TC_PROGRAM,
                "trace": {"trace_id": "slow-trace", "sampled": True},
            }
        )
        assert body["trace_id"] == "slow-trace"
        entries = service.slowlog.snapshot()
        assert entries[-1]["trace_id"] == "slow-trace"


@pytest.fixture
def traced_cluster():
    """Primary + replica + router, everything tracing at rate 1."""
    primary = start_server(trace_sample=1.0, slow_ms=None)
    address = f"127.0.0.1:{primary.port}"
    replica = start_server(
        replica_of=address,
        repl_wait_ms=200,
        version_wait_ms=500,
        trace_sample=1.0,
    )
    replica.service.applier.wait_ready(5)
    router = RouterServer(
        address, [f"127.0.0.1:{replica.port}"], port=0, trace_sample=1.0
    ).start()
    client = ServiceClient(host="127.0.0.1", port=router.port)
    try:
        yield primary, replica, router, client
    finally:
        client.close()
        router.stop()
        replica.stop()
        primary.stop()


class TestRouterPropagation:
    def test_one_trace_spans_router_and_backend(self, traced_cluster):
        primary, replica, router, client = traced_cluster
        client.update(edges=[["a", "e", "b"], ["b", "e", "c"]])
        response = client.call("datalog", query=TC_PROGRAM)
        trace_id = response["trace_id"]
        assert trace_id
        result = client.trace_get(trace_id)
        assert result["found"] is True
        node_ids = {span["node_id"] for span in result["spans"]}
        assert router.node_id in node_ids
        assert len(node_ids) >= 2, "router and at least one backend must appear"
        names = {span["name"] for span in result["spans"]}
        assert {"route", "route.forward", "request"} <= names
        # Every span belongs to the one trace: the forward span is the
        # parent of the backend's request root.
        by_id = {span["span_id"]: span for span in result["spans"]}
        request_roots = [s for s in result["spans"] if s["name"] == "request"]
        assert request_roots
        for root in request_roots:
            parent = by_id.get(root["parent_span_id"])
            assert parent is not None and parent["name"] == "route.forward"

    def test_client_originated_context_wins(self, traced_cluster):
        primary, replica, router, client = traced_cluster
        with trace_context.start(trace_id="client-trace-9", sampled=True):
            response = client.call("ping")
        assert response["trace_id"] == "client-trace-9"
        result = client.trace_get("client-trace-9")
        assert result["found"] is True

    def test_cluster_stats_merges_nodes(self, traced_cluster):
        primary, replica, router, client = traced_cluster
        client.update(edges=[["a", "e", "b"]])
        client.call("datalog", query=TC_PROGRAM)
        doc = client.cluster_stats()
        assert doc["router"]["node_id"] == router.node_id
        roles = {node["role"] for node in doc["nodes"]}
        assert roles == {"primary", "replica"}
        assert all(node["ok"] for node in doc["nodes"])
        assert doc["aggregate"]["nodes_ok"] == 2
        node_ids = {node["node_id"] for node in doc["nodes"]}
        assert len(node_ids) == 2
        # The replica reports epoch + lag; merged latency has real counts.
        replica_row = next(n for n in doc["nodes"] if n["role"] == "replica")
        assert replica_row["epoch"] is not None
        assert replica_row["lag_versions"] is not None
        latency = doc["aggregate"]["latency"]
        assert latency and all(entry["count"] >= 1 for entry in latency.values())

    def test_cluster_stats_marks_dead_node(self, traced_cluster):
        primary, replica, router, client = traced_cluster
        replica.stop()
        doc = client.cluster_stats()
        down = [node for node in doc["nodes"] if not node["ok"]]
        assert len(down) == 1
        assert "error" in down[0]
        assert doc["aggregate"]["nodes_ok"] == 1

    def test_replica_poll_traces_link_to_primary(self, traced_cluster):
        primary, replica, router, client = traced_cluster
        client.update(edges=[["x", "e", "y"]])
        deadline = time.monotonic() + 5
        entry = None
        while time.monotonic() < deadline:
            entries = [
                e
                for e in replica.service.traces.snapshot()
                if e.get("op") in ("repl.poll", "repl.bootstrap")
            ]
            if entries:
                entry = entries[-1]
                break
            time.sleep(0.05)
        assert entry is not None, "replica applier must record sampled polls"
        # The primary served that poll under the same trace id.
        result = client.trace_get(entry["trace_id"])
        node_ids = {span["node_id"] for span in result["spans"]}
        assert replica.service.node_id in node_ids
        assert primary.service.node_id in node_ids

    def test_cluster_dashboard_renders(self, traced_cluster):
        primary, replica, router, client = traced_cluster
        client.update(edges=[["a", "e", "b"]])
        out = io.StringIO()
        dashboard = ClusterDashboard(client, out=out)
        first = dashboard.tick()
        assert "repro top --cluster" in first
        assert "primary" in first and "replica" in first
        assert "cluster latency (merged)" in first
        snapshot = dashboard.snapshot()
        assert snapshot["cluster"]["aggregate"]["nodes_total"] == 2
        assert set(snapshot["qps"]) == {
            node["address"] for node in snapshot["cluster"]["nodes"]
        }


class TestSubscriptionTraceTag:
    def test_delta_frame_carries_commit_trace_id(self):
        primary = start_server(trace_sample=0.0, version_wait_ms=500)
        subscriber = ServiceClient(host="127.0.0.1", port=primary.port)
        writer = ServiceClient(host="127.0.0.1", port=primary.port)
        try:
            writer.update(edges=[["a", "e", "b"]])
            handle = subscriber.subscribe("tc(X,Y) :- e(X,Y).", target="datalog")
            with trace_context.start(trace_id="commit-trace-1", sampled=True):
                writer.update(edges=[["b", "e", "c"]])
            event = handle.next_event(timeout=5)
            assert event["type"] == "delta"
            assert event["trace_id"] == "commit-trace-1"
        finally:
            subscriber.close()
            writer.close()
            primary.stop()
