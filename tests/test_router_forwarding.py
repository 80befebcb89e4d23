"""The router forwards a node's answer bytes, rewriting only ``id``.

The backends here are stub nodes that answer from a script and record every
line they send, so each case can say exactly which backend line a routed
line came from.  Whatever served it — a replica, the primary after a
``replica_stale`` redirect, the primary after the replica was ejected, a
promoted replica after a write failover — the routed line must be
``encode(json.loads(backend_line) | {"id": client_id})``, for client ids of
every JSON type.
"""

from __future__ import annotations

import json
import socket
import socketserver
import sys
import threading
import time

import pytest

from repro.errors import ParseError, ReplicaStale, ServiceError
from repro.replication.router import RouterServer, RoutingClient
from repro.service import protocol

#: Client ids of every JSON type, as the router's clients send them.
CLIENT_IDS = [
    None,
    7,
    2**80 + 1,
    1.5,
    True,
    False,
    'ab"result":null',
    'q"\\"result\\":"',
    "é☃",
    {"result": None, "n": [1, "two", {"z": 1, "a": 2}]},
]

MARKER = "city-marker"
#: The flights closure's shape: 1 600 rows, ~30 KB on the wire.
CLOSURE, _ = protocol.encode_answer(
    {"reach": {(f"{MARKER}{i}", f"{MARKER}{j}") for i in range(40) for j in range(40)}}
)
RPQ = protocol.encode_result({"count": 2, "relations": {"answers": [["b"], ["c"]]}})
EMPTY = protocol.encode_result({"count": 0, "relations": {"answers": []}})
ANSWERS = {"closure": CLOSURE, "rpq": RPQ, "empty": EMPTY}


def answer(result, version=3, cache="hit"):
    """A node's success line for *result* (its encoded bytes)."""
    def respond(request):
        response = protocol.ok_response(
            request.get("id"), None, version=version, elapsed_ms=0.125, cache=cache
        )
        return protocol.encode_response(response, result)

    return respond


def failure(exc):
    def respond(request):
        return protocol.encode(protocol.error_response(request.get("id"), exc))

    return respond


def hang_up(_request):
    return None


class StubNode:
    """A backend answering each request line with ``script[op](request)``:
    the line to send, or ``None`` to close the connection unanswered."""

    def __init__(self, **script):
        self.script = script
        self.sent = []
        self.received = []
        stub = self

        class Handler(socketserver.StreamRequestHandler):
            def handle(self):
                for line in self.rfile:
                    request = json.loads(line)
                    stub.received.append(request)
                    reply = stub.script.get(request["op"], hang_up)(request)
                    if reply is None:
                        return
                    stub.sent.append(reply)
                    self.wfile.write(reply)

        class Server(socketserver.ThreadingTCPServer):
            daemon_threads = True
            allow_reuse_address = True

        self.server = Server(("127.0.0.1", 0), Handler)
        self.address = "127.0.0.1:%d" % self.server.server_address[1]
        threading.Thread(target=self.server.serve_forever, args=(0.05,), daemon=True).start()

    def close(self):
        self.server.shutdown()
        self.server.server_close()


@pytest.fixture
def cluster():
    """``make(primary_script, replica_script)`` → (primary, replica, router)."""
    made = []

    def make(primary, replica):
        nodes = StubNode(**primary), StubNode(**replica)
        router = RouterServer(nodes[0].address, [nodes[1].address], eject_seconds=60).start()
        made.append((router, nodes))
        return nodes[0], nodes[1], router

    yield make
    for router, nodes in made:
        router.stop()
        for node in nodes:
            node.close()


class Client:
    """A raw connection to the router: request lines out, lines back."""

    def __init__(self, port):
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=10)
        self.stream = self.sock.makefile("rwb")

    def ask(self, client_id, **request):
        """``(the id as the router reads it, the routed line)``."""
        line = protocol.encode({"id": client_id, **request})
        self.stream.write(line)
        self.stream.flush()
        return json.loads(line)["id"], self.stream.readline()

    def close(self):
        self.stream.close()
        self.sock.close()


def parent_line(backend_line, client_id):
    """What a router that decoded and re-encoded the answer wrote."""
    return protocol.encode(dict(json.loads(backend_line), id=client_id))


def assert_forwarded(client, node, **request):
    for client_id in CLIENT_IDS:
        sent_id, routed = client.ask(client_id, **request)
        assert routed == parent_line(node.sent[-1], sent_id)


class TestRoutedLinesAreTheNodesBytes:
    @pytest.mark.parametrize("kind", sorted(ANSWERS))
    def test_read_served_by_the_replica(self, cluster, kind):
        primary, replica, router = cluster({}, {"rpq": answer(ANSWERS[kind])})
        client = Client(router.port)
        try:
            assert_forwarded(client, replica, op="rpq", query="e+")
        finally:
            client.close()
        assert primary.received == []
        assert len(replica.sent) == len(CLIENT_IDS)

    def test_an_error_line(self, cluster):
        error = ParseError("expected ')', found ':-' at line 1, column 5")
        _primary, replica, router = cluster({}, {"datalog": failure(error)})
        client = Client(router.port)
        try:
            assert_forwarded(client, replica, op="datalog", query="p(X :- e(X).")
        finally:
            client.close()
        routed = json.loads(parent_line(replica.sent[-1], 1))["error"]
        assert routed["kind"] == "ParseError"
        assert routed["message"] == str(error)

    def test_stale_redirect_to_the_primary(self, cluster):
        primary, replica, router = cluster(
            {"graphlog": answer(CLOSURE)},
            {"graphlog": failure(ReplicaStale("replica at 1 is behind 3"))},
        )
        client = Client(router.port)
        try:
            assert_forwarded(client, primary, op="graphlog", query="q")
        finally:
            client.close()
        assert len(replica.sent) == len(primary.sent) == len(CLIENT_IDS)
        assert router.router_totals()["stale_redirects"] == len(CLIENT_IDS)

    def test_primary_fallback_after_the_replica_is_ejected(self, cluster):
        primary, replica, router = cluster({"rpq": answer(RPQ)}, {"rpq": hang_up})
        client = Client(router.port)
        try:
            assert_forwarded(client, primary, op="rpq", query="e+")
        finally:
            client.close()
        totals = router.router_totals()
        assert totals["ejections"] == 1
        assert totals["primary_fallbacks"] == len(CLIENT_IDS)
        assert len(replica.received) == 1

    def test_failover_write_and_the_token_it_sets(self, cluster):
        ack = protocol.encode_result(
            {"added_edges": 1, "added_nodes": 0, "removed_edges": 0, "removed_nodes": 0}
        )
        primary, replica, router = cluster(
            {"update": hang_up},
            {"update": answer(ack, version=9, cache=None), "rpq": answer(RPQ, version=9)},
        )
        client = Client(router.port)
        try:
            assert_forwarded(client, replica, op="update", edges=[["a", "e", "b"]])
            # The promoted replica is the primary now; reads carry its token.
            assert_forwarded(client, replica, op="rpq", query="e+")
        finally:
            client.close()
        assert len(primary.received) == 1
        assert router.failovers == 1
        assert replica.received[-1]["min_version"] == 9


class TestNoFullDecodeForAnswers:
    def test_a_closure_read_is_never_decoded_or_re_encoded(self, cluster, monkeypatch):
        _primary, replica, router = cluster({}, {"graphlog": answer(CLOSURE)})
        seen = {"loads": 0, "dumps": 0}
        loads, dumps = json.loads, json.dumps

        def spy_loads(text, *args, **kwargs):
            if MARKER.encode() in (text if isinstance(text, bytes) else text.encode()):
                seen["loads"] += 1
            return loads(text, *args, **kwargs)

        def spy_dumps(value, *args, **kwargs):
            text = dumps(value, *args, **kwargs)
            seen["dumps"] += MARKER in text
            return text

        client = Client(router.port)
        try:
            with monkeypatch.context() as patch:
                patch.setattr(json, "loads", spy_loads)
                patch.setattr(json, "dumps", spy_dumps)
                routed = [client.ask(cid, op="graphlog", query="q") for cid in CLIENT_IDS]
                assert seen == {"loads": 0, "dumps": 0}
                # The spy sees what a decoding caller does.
                with RoutingClient(replica.address) as routing:
                    assert routing.call("graphlog", query="q")["result"]["count"] == 1600
                assert seen["loads"] == 1
        finally:
            client.close()
        for (sent_id, line), backend_line in zip(routed, replica.sent):
            assert line == parent_line(backend_line, sent_id)


class TestRoutingClientLibraryPath:
    def test_call_returns_the_nodes_response_and_errors_keep_it(self, cluster):
        error = ParseError("expected ')'")
        primary, _replica, router = cluster(
            {"rpq": answer(RPQ), "datalog": failure(error)}, {}
        )
        with RoutingClient(primary.address) as routing:
            assert routing.call("rpq", query="e+") == json.loads(primary.sent[-1])
            with pytest.raises(ServiceError, match="ParseError: expected") as excinfo:
                routing.call("datalog", query="p(")
        assert excinfo.value.response == json.loads(primary.sent[-1])


class TestSplitHead:
    def test_split_and_rewrite(self):
        line = answer(CLOSURE)({"id": 4})
        head, tail = protocol.split_head(line)
        assert head == {"cache": "hit", "elapsed_ms": 0.125, "id": 4, "ok": True}
        assert tail.startswith(b',"result":{"count":1600,')
        for client_id in CLIENT_IDS:
            assert protocol.rewrite_id(line, client_id) == parent_line(line, client_id)

    @pytest.mark.parametrize(
        "line",
        [
            protocol.encode(protocol.error_response(4, ParseError("x"))),
            protocol.encode({"frame": "snapshot", "relations": {"result": [["a"]]}}),
            protocol.encode({"deleted": {"result": [["a"]]}, "frame": "delta"}),
            protocol.encode({"id": {"a": 1, "result": 1}, "ok": True, "result": 2}),
            protocol.encode({"id": 4, "ok": False, "result": 2}),
        ],
    )
    def test_no_head_unless_a_success_line_read_to_its_result(self, line):
        # Such a line is rewritten the long way, to the same bytes.
        assert protocol.split_head(line) is None
        for client_id in CLIENT_IDS:
            assert protocol.rewrite_id(line, client_id) == parent_line(line, client_id)


@pytest.mark.parametrize(
    "payload",
    [
        {"op": "slowlog", "limit": "x"},
        {"op": "no-such-op"},
        {"op": "ping", "trace": {"trace_id": 5}},
    ],
)
def test_a_protocol_error_keeps_the_request_id(cluster, payload):
    primary, replica, router = cluster({}, {})
    client = Client(router.port)
    try:
        for client_id in CLIENT_IDS:
            sent_id, routed = client.ask(client_id, **payload)
            response = json.loads(routed)
            assert response["error"]["code"] == "protocol_error"
            assert response["id"] == sent_id
    finally:
        client.close()
    assert primary.received == replica.received == []


def test_the_connection_counter_counts_every_connection(cluster):
    _primary, _replica, router = cluster({}, {})
    threads, rounds = 16, 4
    barrier = threading.Barrier(threads)

    def connect():
        barrier.wait()
        for _ in range(rounds):
            with socket.create_connection(("127.0.0.1", router.port), timeout=10) as sock:
                sock.sendall(b"{}\n")  # answered by the router itself
                sock.makefile("rb").readline()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=connect) for _ in range(threads)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=30)
            assert not worker.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert router.health()["connections"] == threads * rounds


def test_stop_returns_within_a_fraction_of_a_second():
    node = StubNode()
    router = RouterServer(node.address, metrics_port=0).start()
    started = time.perf_counter()
    router.stop()  # the router's loop and its telemetry endpoint's
    elapsed = time.perf_counter() - started
    node.close()
    assert elapsed < 0.2
