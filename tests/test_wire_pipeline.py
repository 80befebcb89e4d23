"""The request pipeline end to end: one op table, one line reader, one facade.

Everything here drives real sockets against an in-process node and a
``RouterServer`` in front of it, because what is pinned is what the two
fronts put on the wire: that they know the same ops (and the docs list the
same ones), reject the same malformed lines the same way, answer every op
with the bytes recorded in ``wire_golden.txt``, and that the two Python
clients spell every op identically.
"""

from __future__ import annotations

import inspect
import json
import os
import re
import socket
from contextlib import contextmanager

import pytest

from repro.errors import ProtocolError
from repro.replication.router import RouterServer, RoutingClient
from repro.service import protocol
from repro.service.client import ClientOps, ServiceClient
from repro.service.server import QueryService, ServiceConfig, ServiceServer

HERE = os.path.dirname(__file__)
GOLDEN_PATH = os.path.join(HERE, "wire_golden.txt")
SERVICE_MD = os.path.join(HERE, os.pardir, "docs", "SERVICE.md")

TC_QUERY = "define (X) -[r]-> (Y) { (X) -[e+]-> (Y); }"
EDGES_PROGRAM = "t(X, Y) :- e(X, Y)."


@contextmanager
def _topology():
    """A fresh in-memory node and a router in front of it."""
    node = ServiceServer(config=ServiceConfig(port=0, workers=2)).start_background()
    router = RouterServer(f"127.0.0.1:{node.port}").start()
    try:
        yield node, router
    finally:
        router.stop()
        node.stop()


@pytest.fixture
def topology():
    with _topology() as pair:
        yield pair


class Wire:
    """A raw connection: bytes out, one response line in."""

    def __init__(self, port):
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=10)
        self.stream = self.sock.makefile("rwb")

    def send(self, line):
        self.stream.write(line)
        self.stream.flush()

    def readline(self):
        return self.stream.readline()

    def ask(self, line):
        self.send(line)
        return self.readline()

    def request(self, **message):
        return json.loads(self.ask(protocol.encode(message)))

    def close(self):
        self.stream.close()
        self.sock.close()

    def __enter__(self):
        return self

    def __exit__(self, *_exc):
        self.close()


# --------------------------------------------------------------------------
# one op table
# --------------------------------------------------------------------------


class TestOpTable:
    def test_every_op_has_the_handlers_its_route_implies(self):
        for op, spec in protocol.OPS.items():
            assert spec.route in ("read", "write", "node", "cluster")
            # The router answers exactly the cluster ops itself, and those
            # are the only ones a node may leave to it.
            assert hasattr(RouterServer, "_op_" + op) == (spec.route == "cluster")
            assert hasattr(QueryService, "_op_" + op) or spec.route == "cluster"

    def test_service_md_op_table_is_the_op_table(self):
        with open(SERVICE_MD, encoding="utf-8") as handle:
            rows = [
                [cell.strip() for cell in line.strip().strip("|").split("|")]
                for line in handle
                if re.match(r"\|\s*`\w+`\s*\|", line)
            ]
        documented = {row[0].strip("`"): row[1] for row in rows}
        assert list(documented) == list(protocol.OPS)
        for op, spec in protocol.OPS.items():
            assert documented[op] == ("streaming" if spec.streaming else spec.route)

    def test_both_clients_spell_every_op_the_same(self):
        streaming = {op for op, spec in protocol.OPS.items() if spec.streaming}
        facade = {op for op in protocol.OPS if hasattr(ClientOps, op)}
        assert facade == set(protocol.OPS) - streaming
        for op in facade:
            assert getattr(RoutingClient, op) is getattr(ServiceClient, op)
            assert inspect.signature(getattr(RoutingClient, op)) == inspect.signature(
                getattr(ServiceClient, op)
            )
        for op in streaming:
            assert hasattr(ServiceClient, op) and not hasattr(RoutingClient, op)

    def test_routed_update_removes_what_it_added(self, topology):
        node, _router = topology
        with RoutingClient(f"127.0.0.1:{node.port}") as routing:
            routing.update(edges=[["a", "e", "b"], ["b", "e", "c"]])
            assert routing.datalog(EDGES_PROGRAM)["t"] == {("a", "b"), ("b", "c")}
            version = routing.update(remove_edges=[["b", "e", "c"]], remove_nodes=["c"])
            assert version == routing.min_version == 2
            assert routing.datalog(EDGES_PROGRAM)["t"] == {("a", "b")}
            assert routing.explain(EDGES_PROGRAM, target="datalog")["count"] == 1
            assert routing.slowlog(limit=1)["entries"] == []


# --------------------------------------------------------------------------
# streaming ops are not routable, and say so
# --------------------------------------------------------------------------


class TestStreamingThroughTheRouter:
    def test_subscribe_is_rejected_not_forwarded(self, topology):
        node, router = topology
        with ServiceClient(port=router.port) as client:
            with pytest.raises(ProtocolError, match="streaming op") as excinfo:
                client.subscribe(EDGES_PROGRAM, target="datalog")
            assert f"primary at 127.0.0.1:{node.port}" in str(excinfo.value)
            with pytest.raises(ProtocolError, match="streaming op"):
                client.call("unsubscribe", subscription=1)
            # The connection is still good, and nothing reached the primary.
            client.update(edges=[["a", "e", "b"]])
            subs = client.stats()["subs"]
        assert subs["active_subscriptions"] == 0
        assert subs["deltas_pushed"] == 0


# --------------------------------------------------------------------------
# node and router reject the same malformed requests the same way, and
# answer a stray method as if it were absent
# --------------------------------------------------------------------------

MALFORMED = {
    "non-utf8": b'{"op":"ping","pad":"\xff\xfe"}\n',
    "not-json": b"{nope\n",
    "non-object": b"[1,2,3]\n",
    "unknown-op": protocol.encode({"id": 9, "op": "bogus"}),
    "unhashable-op": protocol.encode({"op": ["ping"]}),
    "string-timeout": protocol.encode({"op": "ping", "timeout": "soon"}),
    "boolean-max-rows": protocol.encode({"op": "rpq", "query": "e", "max_rows": True}),
    "string-min-version": protocol.encode(
        {"op": "rpq", "query": "e", "min_version": "x"}
    ),
    "negative-limit": protocol.encode({"op": "slowlog", "limit": -1}),
    "malformed-trace": protocol.encode({"op": "ping", "trace": "not-an-envelope"}),
    "oversized-line": protocol.encode(
        {"op": "ping", "pad": "x" * protocol.MAX_REQUEST_BYTES}
    ),
}


#: Lines an older node rejected for their ``method``.  Nothing reads that
#: field any more, so both fronts answer these like the line without it.
STRAY_METHOD = {
    "unknown-method": {"op": "datalog", "query": EDGES_PROGRAM, "method": "bogus"},
    "removed-method": {"op": "graphlog", "query": TC_QUERY, "method": "seminaive"},
    "non-string-method": {"op": "rpq", "query": "e+", "method": 7},
}


def _write_an_edge(node):
    with Wire(node.port) as wire:
        assert wire.request(op="update", edges=[["a", "e", "b"]])["ok"]


def _ask_with_and_without_method(node, router, request):
    """Every line the node and then the router send back for *request* and for
    it without its ``method``."""
    bare = {key: value for key, value in request.items() if key != "method"}
    lines = []
    for port in (node.port, router.port):
        with Wire(port) as wire:
            lines += [wire.ask(protocol.encode(request)), wire.ask(protocol.encode(bare))]
    return lines


def _assert_one_answer(lines):
    """The lines carry the same result bytes, computed once and then hit."""
    answers = [json.loads(line) for line in lines]
    assert [answer["cache"] for answer in answers] == ["miss"] + ["hit"] * (len(lines) - 1)
    result = b'"result":' + protocol.encode_result(answers[0]["result"])
    assert all(result in line for line in lines)


class TestMalformedRequests:
    @pytest.mark.parametrize("case", sorted(MALFORMED) + sorted(STRAY_METHOD))
    def test_node_and_router_answer_alike(self, topology, case):
        node, router = topology
        if case in STRAY_METHOD:
            _write_an_edge(node)
            _assert_one_answer(_ask_with_and_without_method(node, router, STRAY_METHOD[case]))
            assert node.service.stats()["result_cache"]["size"] == 1
            return
        answers = {}
        for via, port in (("node", node.port), ("router", router.port)):
            with Wire(port) as wire:
                # A routed write first, so the router holds a min-version
                # token when the bad line arrives.
                assert wire.request(op="update", edges=[["a", "e", via]])["ok"]
                answers[via] = json.loads(wire.ask(MALFORMED[case]))
                if case == "oversized-line":
                    # One answer, then the connection closes.
                    assert wire.readline() == b""
                    assert "too long" in answers[via]["error"]["message"]
                    continue
                assert wire.request(id=3, op="ping")["result"] == {"pong": True}
        assert answers["node"] == answers["router"]
        assert answers["node"]["ok"] is False
        assert answers["node"]["error"]["code"] == "protocol_error"
        assert answers["node"]["id"] is None
        if case == "non-utf8":
            assert "not valid UTF-8" in answers["node"]["error"]["message"]


#: A request per error class a node answers with; the router must forward
#: the node's own ``kind`` and message, not a ``ServiceError`` wrapping them.
NODE_ERRORS = {
    "ParseError": {"op": "datalog", "query": "p(X :- e(X, Y)."},
    "SafetyError": {"op": "datalog", "query": "p(X, Z) :- e(X, Y)."},
    "StratificationError": {
        "op": "datalog",
        "query": "p(X) :- e(X, Y), not q(X).\nq(X) :- e(X, Y), not p(X).",
    },
    "QueryGraphError": {"op": "graphlog", "query": "define (X) -[r]-> (Y) { }"},
    "ResultTooLarge": {"op": "datalog", "query": EDGES_PROGRAM, "max_rows": 0},
    "ProtocolError": {"op": "checkpoint"},
}


class TestNodeErrorsThroughTheRouter:
    @pytest.mark.parametrize("kind", sorted(NODE_ERRORS))
    def test_node_and_router_answer_alike(self, topology, kind):
        node, router = topology
        answers = {}
        for via, port in (("node", node.port), ("router", router.port)):
            with Wire(port) as wire:
                assert wire.request(op="update", edges=[["a", "e", "b"]])["ok"]
                answers[via] = wire.ask(protocol.encode({"id": 9, **NODE_ERRORS[kind]}))
        assert answers["node"] == answers["router"]
        error = json.loads(answers["router"])["error"]
        assert error["kind"] == kind
        assert not error["message"].startswith(kind)


class TestMethodParameter:
    def test_every_valid_method_answers_alike(self, topology):
        # The two methods an older node accepted now name one evaluator: a
        # query answers with one entry's bytes whichever it names, or none.
        node, router = topology
        _write_an_edge(node)
        for op, query in (("graphlog", TC_QUERY), ("datalog", EDGES_PROGRAM)):
            lines = []
            for method in ("naive", "columnar"):
                request = {"op": op, "query": query, "method": method}
                lines += _ask_with_and_without_method(node, router, request)
            _assert_one_answer(lines)
        assert node.service.stats()["result_cache"]["size"] == 2

    def test_rpq_entry_is_not_keyed_by_method(self, topology):
        # One RPQ evaluator answers whatever the method: one answer, one entry.
        node, _router = topology
        with Wire(node.port) as wire:
            assert wire.request(op="update", edges=[["a", "e", "b"]])["ok"]
            caches = [
                wire.request(op="rpq", query="e+", **extra)["cache"]
                for extra in ({}, {"method": "naive"}, {"method": "columnar"})
            ]
        assert caches == ["miss", "hit", "hit"]
        assert node.service.stats()["result_cache"]["size"] == 1


# --------------------------------------------------------------------------
# wire golden
# --------------------------------------------------------------------------

#: One fixed request per op (the query ops twice, for ``miss`` then ``hit``),
#: sent in this order over one connection to a fresh topology.
GOLDEN_REQUESTS = [
    {"op": "ping"},
    {"op": "update", "nodes": ["z"], "edges": [["a", "e", "b"], ["b", "e", "c"]]},
    {"op": "graphlog", "query": TC_QUERY},
    {"op": "graphlog", "query": TC_QUERY},
    {"op": "datalog", "query": EDGES_PROGRAM, "predicate": "t"},
    {"op": "rpq", "query": "e+", "source": "a"},
    {"op": "explain", "query": "e+", "target": "rpq"},
    {"op": "profile", "query": "e+", "target": "rpq"},
    {"op": "update", "remove_edges": [["b", "e", "c"]]},
    {"op": "stats"},
    {"op": "slowlog", "limit": 1},
    {"op": "checkpoint"},
    {"op": "repl_bootstrap"},
    {"op": "repl_tail", "from_version": 1},
    {"op": "promote"},
    {"op": "trace_get", "trace_id": "no-such-trace"},
    {"op": "cluster_stats"},
    {"op": "subscribe", "query": EDGES_PROGRAM, "target": "datalog"},
    {"op": "unsubscribe", "subscription": 1},
]

#: Values that differ run to run: clocks, random ids and what derives from
#: them, and the store session counter, which is process-wide.
_VOLATILE_KEYS = {
    "elapsed_ms", "start_ts", "uptime_seconds", "text",
    "node_id", "epoch", "span_id", "parent_span_id", "session",
}


def _mask(value, key=None):
    """*value* with every run-dependent leaf replaced by ``"*"``: volatile
    keys, all floats (they are all durations) and ephemeral ports."""
    if key in _VOLATILE_KEYS and value is not None:
        return "*"
    if isinstance(value, dict):
        return {k: _mask(v, k) for k, v in value.items()}
    if isinstance(value, list):
        return [_mask(v) for v in value]
    if isinstance(value, float):
        return "*"
    if isinstance(value, str):
        return re.sub(r"127\.0\.0\.1:\d+", "127.0.0.1:*", value)
    return value


def _masked(line):
    """The golden form of one wire line.  The line must already be in the
    canonical encoding (sorted keys, compact separators), so comparing the
    re-encoded masked document pins the raw bytes up to the masked values."""
    message = json.loads(line)
    assert protocol.encode(message) == line, "not the canonical wire encoding"
    return protocol.encode(_mask(message)).decode("ascii").rstrip("\n")


def _frames(node):
    """One ``delta`` and one ``snapshot`` frame off the wire, and the bytes of
    a ``closed`` frame (sending one takes a queue overflow, which no sequence
    of socket operations produces deterministically)."""
    with Wire(node.port) as watcher, Wire(node.port) as writer:
        assert watcher.request(op="subscribe", query=EDGES_PROGRAM, target="datalog")["ok"]
        assert writer.request(op="update", edges=[["c", "e", "d"]])["ok"]
        delta = watcher.readline()
        node.service.subs.resync_all()
        snapshot = watcher.readline()
    closed = protocol.encode(protocol.closed_frame(1, "overflow"))
    return [("delta", delta), ("snapshot", snapshot), ("closed", closed)]


def _transcript():
    """``(label, masked line)`` for every golden request through a node and
    through a router (a fresh topology each), then the three push frames."""
    lines = []
    for via in ("node", "router"):
        with _topology() as (node, router):
            with Wire(node.port if via == "node" else router.port) as wire:
                for index, request in enumerate(GOLDEN_REQUESTS, 1):
                    line = wire.ask(protocol.encode({"id": index, **request}))
                    lines.append((f"{via} {index:02d} {request['op']}", _masked(line)))
            if via == "node":
                frames = [(f"frame {kind}", _masked(line)) for kind, line in _frames(node)]
    return lines + frames


def _read_golden():
    with open(GOLDEN_PATH, encoding="ascii") as handle:
        return [tuple(line.rstrip("\n").split(" | ", 1)) for line in handle]


def test_every_op_answers_with_the_golden_bytes():
    assert {request["op"] for request in GOLDEN_REQUESTS} == set(protocol.OPS)
    transcript = _transcript()
    golden = _read_golden()
    assert [label for label, _ in transcript] == [label for label, _ in golden]
    for (label, line), (_, expected) in zip(transcript, golden):
        assert line == expected, label


if __name__ == "__main__":  # regenerate: PYTHONPATH=src python tests/test_wire_pipeline.py
    with open(GOLDEN_PATH, "w", encoding="ascii") as _handle:
        for _label, _line in _transcript():
            _handle.write(f"{_label} | {_line}\n")
