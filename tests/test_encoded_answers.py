"""Answers are encoded once, from their rows, into the bytes the result
cache holds: a miss runs :func:`protocol.encode_answer` and stores its bytes
as the entry's only representation, a network hit splices them into a fresh
envelope, an in-process hit decodes them afresh, and ``rows_to_wire`` (push
frames, subscribe snapshots) orders rows through the same ranking.

What is pinned is bytes: every line a node writes must be the line the old
path — ``protocol.encode`` over the whole response dict, rows sorted by the
keyed sort — would have written.  That path survives here, as the oracle,
and nowhere in ``src``.
"""

from __future__ import annotations

import gc
import json
import random
import re
import socket
import sys
import threading
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.dsl import parse_graphical_query
from repro.core.engine import GraphLogEngine
from repro.datalog.columnar import TermCatalog
from repro.datalog.engine import Answer, Engine
from repro.datalog.parser import parse_program
from repro.errors import ResultTooLarge
from repro.graphs.bridge import EdgeLabel, database_from_graph
from repro.replication.router import RouterServer
from repro.rpq.evaluate import RPQEvaluator
from repro.rpq.regex import parse_regex
from repro.service import protocol
from repro.service.cache import ResultCache, result_key
from repro.service.server import QueryService, ServiceConfig, ServiceServer

TC_QUERY = "define (X) -[r]-> (Y) { (X) -[e+]-> (Y); }"
TC_PROGRAM = "tc(X,Y) :- e(X,Y).\ntc(X,Y) :- tc(X,Z), e(Z,Y)."
EDGES = [["a", "e", "b"], ["b", "e", "zoë"], ["zoë", "e", "北京"], ["北京", "e", 'q"uote']]

QUERIES = {
    "graphlog": {"query": TC_QUERY},
    "datalog": {"query": TC_PROGRAM, "predicate": "tc"},
    "rpq": {"query": "e+", "source": "a"},
}


def start_server(**config):
    config.setdefault("port", 0)
    config.setdefault("workers", 4)
    return ServiceServer(config=ServiceConfig(**config)).start_background()


@pytest.fixture
def node():
    server = start_server()
    yield server
    server.stop()


class Wire:
    """A raw connection: one request dict out, one response line in."""

    def __init__(self, port):
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=10)
        self.stream = self.sock.makefile("rwb")

    def ask(self, **message):
        self.stream.write(protocol.encode(message))
        self.stream.flush()
        return self.stream.readline()

    def __enter__(self):
        return self

    def __exit__(self, *_exc):
        self.stream.close()
        self.sock.close()


def checked(line):
    """The response in *line*, having checked the line against the oracle:
    the whole response dict through ``protocol.encode``."""
    response = json.loads(line)
    assert protocol.encode(response) == line
    assert response["ok"], response
    return response


def masked(line):
    return re.sub(
        rb'"cache":"(hit|miss)","elapsed_ms":[-+.e0-9]+',
        b'"cache":"*","elapsed_ms":"*"',
        line,
    )


# --------------------------------------------------------------------------
# (a) hit line = miss line = the old path's line
# --------------------------------------------------------------------------


class TestHitSplicesWhatAMissEncoded:
    @pytest.mark.parametrize("op", sorted(QUERIES))
    def test_hit_line_is_the_miss_line(self, node, op):
        # An id holding its own "result": null, and a trace id echoed *after*
        # the result, are what a careless splice would trip over.
        envelope = {
            "id": {"result": None, "n": [1, "two"]},
            "trace": {"trace_id": 'abc"result":null', "sampled": False},
        }
        with Wire(node.port) as wire:
            assert checked(wire.ask(op="update", edges=EDGES))["version"] == 1
            lines = [wire.ask(op=op, **QUERIES[op], **envelope) for _ in range(3)]
        responses = [checked(line) for line in lines]
        assert [r["cache"] for r in responses] == ["miss", "hit", "hit"]
        assert responses[0]["result"]["count"] > 0
        assert responses[0]["trace_id"] == 'abc"result":null'
        assert responses[0]["id"] == envelope["id"]
        assert masked(lines[0]) == masked(lines[1]) == masked(lines[2])
        # The entry holds exactly the bytes between the envelope's halves.
        stats = node.service.results.stats()
        assert stats["encoded_entries"] == 1
        encoded = protocol.encode_result(responses[0]["result"])
        assert stats["encoded_bytes"] == len(encoded)
        assert encoded in lines[1]

    def test_encode_response_is_encode_for_every_envelope(self):
        result = {"relations": {"r": [["a", "é"]]}, "count": 1}
        encoded = protocol.encode_result(result)
        assert protocol.encode(result) == encoded + b"\n"
        for request_id in (None, 0, "x", 'a"result":null', {"result": None}, [None]):
            for extras in (
                {},
                {"version": 3, "elapsed_ms": 0.125, "cache": "hit"},
                {"version": 0, "cache": "miss", "trace_id": '"result":null'},
            ):
                response = protocol.ok_response(request_id, result, **extras)
                assert protocol.encode_response(response, encoded) == protocol.encode(response)
                assert protocol.encode_response(response) == protocol.encode(response)

    def test_in_process_hits_never_encode(self):
        service = QueryService()
        service.execute({"op": "update", "edges": EDGES})
        message = {"op": "graphlog", "query": TC_QUERY}
        miss = service.execute(message)
        (entry,) = service.results._entries.values()
        # The miss left its bytes with the entry; nothing else is kept.
        assert entry.encoded == protocol.encode_result(miss["result"])
        assert entry.count == miss["result"]["count"] == 10
        hit = service.execute(message)
        assert (miss["cache"], hit["cache"]) == ("miss", "hit")
        assert "encoded" not in miss and "encoded" not in hit
        # Equal, but fresh per call: mutating one answer changes no other.
        assert hit["result"] == miss["result"] and hit["result"] is not miss["result"]
        hit["result"]["relations"]["r"].clear()
        hit["result"]["count"] = -1
        again = service.execute(message)
        assert again["cache"] == "hit" and again["result"] == miss["result"]
        assert protocol.encode_result(again["result"]) == entry.encoded
        # A network miss hands the same kind of bytes to its response and
        # to its entry — the same object, not a second copy.
        wire_miss = service.execute({"op": "rpq", "query": "e+"}, wire=True)
        assert "result" not in wire_miss
        entries = list(service.results._entries.values())
        assert entries[-1].encoded is wire_miss["encoded"]
        stats = service.results.stats()
        assert stats["encoded_entries"] == stats["size"] == 2
        assert stats["encoded_bytes"] == len(entry.encoded) + len(wire_miss["encoded"])
        service.close()


# --------------------------------------------------------------------------
# (b) one wire order: rows_to_wire and encode_answer against the keyed sort
# --------------------------------------------------------------------------


def keyed_rows_to_wire(rows):
    """The order every frame has always had, spelled the slow way."""
    return [
        list(row)
        for row in sorted(
            rows, key=lambda row: tuple((type(v).__name__, str(v)) for v in row)
        )
    ]


def typed(wire_rows):
    """*wire_rows* with every value's type kept: ``1 == True``, ``0.0 ==
    -0.0`` and ``"a" == Text("a")``, so plain list equality would pass a
    value swapped for its equal of another type."""
    return [[(type(v), repr(v)) for v in row] for row in wire_rows]


def keyed_encode(relations):
    """The old miss path: row lists by the keyed sort, then ``json.dumps``."""
    count = sum(len(rows) for rows in relations.values())
    wire = {name: keyed_rows_to_wire(rows) for name, rows in relations.items()}
    return protocol.encode_result({"relations": wire, "count": count}), count


class Text(str):
    """A ``str`` subclass: its type tag is not ``str``'s."""


class TestRowsToWire:
    STRINGS = ["", "a", "b", "ab", "B", "10", "9", "é", "zoë", "北京", "\U0001f600", "a\x00", " "]
    OTHERS = [0, 1, 9, 10, -1, 1.0, 2.5, -0.0, True, False, None, Text("a"), Text("zz")]

    @pytest.mark.parametrize("seed", range(40))
    def test_matches_the_keyed_sort(self, seed):
        rng = random.Random(seed)
        # Even seeds draw all-str rows, odd ones mix types.
        pool = self.STRINGS if seed % 2 == 0 else self.STRINGS + self.OTHERS
        arities = [rng.randint(0, 3)] if seed % 4 < 2 else [0, 1, 2, 3]
        rows = {
            tuple(rng.choice(pool) for _ in range(rng.choice(arities)))
            for _ in range(rng.randint(0, 60))
        }
        expected = typed(keyed_rows_to_wire(rows))
        assert typed(protocol.rows_to_wire(rows)) == expected
        assert typed(protocol.rows_to_wire(frozenset(rows))) == expected
        assert typed(protocol.rows_to_wire(sorted(rows, key=repr))) == expected

    def test_equal_values_of_other_types_stay_apart(self):
        # A list puts the str first, so a set of the values would keep it.
        for rows in ({(False, -0.0)}, {("a",), (Text("a"), "a")}, [("a",), (Text("a"), "a")]):
            assert typed(protocol.rows_to_wire(rows)) == typed(keyed_rows_to_wire(rows))

    def test_an_int_column_is_not_ordered_as_ints(self):
        # Plain tuple order would not raise here — and would be wrong.
        rows = {(9, "a"), (10, "b"), (100, "c")}
        assert protocol.rows_to_wire(rows) == [[10, "b"], [100, "c"], [9, "a"]]

    def test_frames_use_it(self):
        frame = protocol.snapshot_frame(1, 2, {"p": {("b",), ("a",)}, "q": {(2,), (10,)}})
        assert frame["relations"] == {"p": [["a"], ["b"]], "q": [[10], [2]]}


class TestEncodeAnswer:
    NAMES = ["p", "q", "", 'say"what', "back\\slash", "zoë", "北京", "\U0001f600"]
    #: Values whose JSON text is not their ``str``.
    EXTRA = [float("inf"), 1e100, ("t", 1), Text('q"')]

    @pytest.mark.parametrize("seed", range(40))
    def test_matches_the_keyed_sort(self, seed):
        rng = random.Random(seed)
        pool = TestRowsToWire.STRINGS
        if seed % 2:
            pool = pool + TestRowsToWire.OTHERS + self.EXTRA
        relations = {}
        for name in rng.sample(self.NAMES, rng.randint(1, 4)):
            arities = [rng.randint(0, 3)] if rng.random() < 0.5 else [0, 1, 2, 3]
            relations[name] = {
                tuple(rng.choice(pool) for _ in range(rng.choice(arities)))
                for _ in range(rng.choice([0, rng.randint(1, 60)]))
            }
        if seed % 5 == 0:
            relations["empty"] = set()
        expected = keyed_encode(relations)
        assert protocol.encode_answer(relations) == expected
        assert protocol.encode_answer({k: sorted(v, key=repr) for k, v in relations.items()}) == expected
        assert json.loads(expected[0])["count"] == expected[1]

    def test_edge_shapes(self):
        for relations in (
            {}, {"p": set()}, {"p": {()}}, {"p": [("a",), ("a",)]}, {"p": {(False, -0.0)}},
            {"p": {("a",), (Text("a"), "a")}}, {"p": [("a",), (Text("a"), "a")]},
        ):
            assert protocol.encode_answer(relations) == keyed_encode(relations)
        assert protocol.encode_answer({"p": {()}, "q": set()}) == (
            b'{"count":1,"relations":{"p":[[]],"q":[]}}', 1,
        )


# --------------------------------------------------------------------------
# (c) commits: invalidated entries re-encode, restamped entries keep splicing
# --------------------------------------------------------------------------


class TestCommitsAndEncodedEntries:
    def test_invalidation_and_restamp_on_the_node(self, node):
        ask = dict(op="datalog", **QUERIES["datalog"])
        with Wire(node.port) as wire:
            checked(wire.ask(op="update", edges=EDGES[:2]))
            old = [checked(wire.ask(**ask)) for _ in range(2)]
            assert [r["cache"] for r in old] == ["miss", "hit"]
            # A commit inside the footprint: the entry and its bytes go.
            checked(wire.ask(op="update", edges=EDGES[2:]))
            assert node.service.results.stats()["encoded_entries"] == 0
            lines = [wire.ask(**ask) for _ in range(2)]
            new = [checked(line) for line in lines]
            assert [(r["cache"], r["version"]) for r in new] == [("miss", 2), ("hit", 2)]
            assert new[0]["result"]["count"] > old[0]["result"]["count"]
            assert new[0]["result"] == node.service.execute(ask)["result"]
            assert masked(lines[0]) == masked(lines[1])
            # A commit outside it: same entry, same bytes, new version stamp
            # — which is why the version is not inside the bytes.
            entry_bytes = node.service.results.stats()["encoded_bytes"]
            checked(wire.ask(op="update", edges=[["a", "unrelated", "b"]]))
            restamped_line = wire.ask(**ask)
            restamped = checked(restamped_line)
            assert (restamped["cache"], restamped["version"]) == ("hit", 3)
            assert restamped["result"] == new[0]["result"]
            assert masked(restamped_line).replace(b'"version":3', b'"version":2') == masked(
                lines[1]
            )
        stats = node.service.results.stats()
        assert stats["delta_reuse_hits"] >= 1
        assert (stats["encoded_entries"], stats["encoded_bytes"]) == (1, entry_bytes)

    def test_through_router_and_replica(self, node):
        replica = start_server(
            replica_of=f"127.0.0.1:{node.port}", repl_wait_ms=200, version_wait_ms=2000
        )
        assert replica.service.applier.wait_ready(10)
        router = RouterServer(f"127.0.0.1:{node.port}", [f"127.0.0.1:{replica.port}"]).start()
        ask = dict(op="graphlog", **QUERIES["graphlog"])
        try:
            with Wire(router.port) as wire:
                checked(wire.ask(op="update", edges=EDGES[:2]))
                first = [checked(wire.ask(**ask)) for _ in range(3)]
                checked(wire.ask(op="update", edges=EDGES[2:]))
                second = [checked(wire.ask(**ask)) for _ in range(3)]
            for batch, version in ((first, 1), (second, 2)):
                assert [(r["cache"], r["version"]) for r in batch] == [
                    ("miss", version), ("hit", version), ("hit", version),
                ]
                assert batch[0]["result"] == batch[1]["result"] == batch[2]["result"]
            assert second[0]["result"] == node.service.execute(ask)["result"]
            assert second[0]["result"]["count"] > first[0]["result"]["count"]
            # The replica answered, from bytes it attached on its first hit.
            served = replica.service.results.stats()
            assert served["hits"] == 4 and served["encoded_entries"] == 1
            assert node.service.results.stats()["hits"] == 0
        finally:
            router.stop()
            replica.stop()


# --------------------------------------------------------------------------
# (d) concurrent first hits
# --------------------------------------------------------------------------


class TestConcurrentFirstHits:
    def test_racing_threads_all_get_the_right_bytes(self):
        service = QueryService()
        service.execute({"op": "update", "edges": EDGES})
        message = {"op": "graphlog", "query": TC_QUERY}
        expected = protocol.encode_result(service.execute(message)["result"])
        threads, bodies = [], []
        barrier = threading.Barrier(8)

        def hit():
            barrier.wait(timeout=10)
            for _ in range(50):
                bodies.append(service.execute(message, wire=True))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=hit) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(bodies) == 400
        assert all(b["cache"] == "hit" and b["encoded"] == expected for b in bodies)
        stats = service.results.stats()
        assert (stats["encoded_entries"], stats["encoded_bytes"]) == (1, len(expected))
        service.close()

    def test_two_connections_hit_a_fresh_entry_at_once(self, node):
        ask = dict(op="graphlog", **QUERIES["graphlog"], id=7)
        with Wire(node.port) as first, Wire(node.port) as second:
            checked(first.ask(op="update", edges=EDGES))
            miss = first.ask(**ask)
            assert checked(miss)["cache"] == "miss"
            lines = {}
            barrier = threading.Barrier(2)

            def hit(name, wire):
                barrier.wait(timeout=10)
                lines[name] = wire.ask(**ask)

            threads = [
                threading.Thread(target=hit, args=pair)
                for pair in (("first", first), ("second", second))
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
            assert not any(thread.is_alive() for thread in threads)
        for line in lines.values():
            assert checked(line)["cache"] == "hit"
            assert masked(line) == masked(miss)


# --------------------------------------------------------------------------
# budgets: one size, enforced hot and cold
# --------------------------------------------------------------------------


class TestBudgetsHotAndCold:
    def test_max_bytes_bounds_the_result_object_on_both_paths(self, node):
        ask = dict(op="datalog", **QUERIES["datalog"])
        with Wire(node.port) as wire:
            checked(wire.ask(op="update", edges=EDGES))
            line = wire.ask(**ask)
            result = checked(line)["result"]
            node.service.results.clear()  # the requests below start cold
            # What max_bytes bounds: the result object's bytes on the wire —
            # not the envelope, not the line terminator.
            size = len(protocol.encode_result(result))
            assert b'"result":' + protocol.encode_result(result) + b',"version"' in line

            def verdict(**budget):
                response = json.loads(wire.ask(**ask, **budget))
                return response.get("cache") if response["ok"] else response["error"]

            # Cold: the default engine's entry does not exist yet, and a
            # refused answer is not cached.
            error = verdict(max_bytes=size - 1)
            assert error["code"] == "result_too_large"
            assert f"encodes to {size} bytes, limit is {size - 1}" in error["message"]
            assert verdict(max_rows=result["count"] - 1)["code"] == "result_too_large"
            assert verdict(max_bytes=size, max_rows=result["count"]) == "miss"
            # Hot: the same numbers decide.
            assert verdict(max_bytes=size, max_rows=result["count"]) == "hit"
            error = verdict(max_bytes=size - 1)
            assert error["code"] == "result_too_large"
            assert f"encodes to {size} bytes, limit is {size - 1}" in error["message"]
            error = verdict(max_rows=result["count"] - 1)
            assert error["code"] == "result_too_large"
            assert f"{result['count']} rows" in error["message"]
            assert verdict() == "hit"

    def test_a_refused_miss_is_never_encoded(self, monkeypatch):
        service = QueryService()
        service.execute({"op": "update", "edges": EDGES})

        def encode_answer(_relations):
            raise AssertionError("an answer over max_rows was encoded")

        monkeypatch.setattr(protocol, "encode_answer", encode_answer)
        for op, query in sorted(QUERIES.items()):
            with pytest.raises(ResultTooLarge, match=r"^result has \d+ rows, limit is 1$"):
                service.execute({"op": op, **query, "max_rows": 1})
        assert service.results.stats()["size"] == 0
        service.close()

    def test_in_process_budgets_agree(self):
        service = QueryService()
        service.execute({"op": "update", "edges": EDGES})
        message = {"op": "datalog", **QUERIES["datalog"]}
        size = len(protocol.encode_result(service.execute(message)["result"]))
        assert service.execute({**message, "max_bytes": size})["cache"] == "hit"
        with pytest.raises(ResultTooLarge, match=f"{size} bytes"):
            service.execute({**message, "max_bytes": size - 1})
        service.close()


# --------------------------------------------------------------------------
# observability: the bytes held, and the respond phase
# --------------------------------------------------------------------------


class TestObservability:
    def test_cache_stats_count_encoded_entries(self):
        cache = ResultCache(capacity=2)
        for name, encoded in (("a", b"12345"), ("b", b"123")):
            cache.put(result_key(name, {}), encoded, 1, version=1, footprint=frozenset({"p"}))
        stats = cache.stats()
        assert stats["encoded_entries"] == stats["size"] == 2
        assert stats["encoded_bytes"] == 8
        # Eviction, re-stamping and invalidation keep the numbers honest.
        cache.put(result_key("c", {}), b"c", 1, version=1, footprint=frozenset({"q"}))
        assert (cache.stats()["encoded_entries"], cache.stats()["encoded_bytes"]) == (2, 4)
        cache.apply_commit(2, frozenset({"q"}))
        assert cache.lookup(result_key("b", {}), 2).encoded == b"123"
        cache.apply_commit(3, frozenset({"p"}))
        assert (cache.stats()["encoded_entries"], cache.stats()["encoded_bytes"]) == (0, 0)

    def test_stats_metrics_and_respond_phase(self, node):
        ask = dict(op="graphlog", **QUERIES["graphlog"])
        with Wire(node.port) as wire:
            checked(wire.ask(op="update", edges=EDGES))
            answers = [checked(wire.ask(**ask)) for _ in range(2)]
            bogus = json.loads(wire.ask(op="bogus"))
            assert not bogus["ok"]
            stats = checked(wire.ask(op="stats"))["result"]
        size = len(protocol.encode_result(answers[1]["result"]))
        assert stats["result_cache"]["encoded_entries"] == 1
        assert stats["result_cache"]["encoded_bytes"] == size
        # Every line written before this stats request was observed — the
        # refused one too.
        respond = stats["metrics"]["phases"]["respond"]
        assert respond["count"] == 4 and respond["total_ms"] > 0
        text = node.service.prometheus_text()
        assert "repro_result_cache_encoded_entries 1" in text
        assert f"repro_result_cache_encoded_bytes {size}" in text
        assert 'repro_phase_seconds_count{phase="respond"}' in text


# --------------------------------------------------------------------------
# memory: an entry is its bytes
# --------------------------------------------------------------------------


class TestMemory:
    def test_the_cache_holds_little_beyond_the_bytes(self, monkeypatch):
        # A 30-node cycle: every closure answer is all 900 pairs.
        cycle = [[f"n{i:02d}", "e", f"n{(i + 1) % 30:02d}"] for i in range(30)]
        service = QueryService()
        service.execute({"op": "update", "edges": cycle})

        def rows_to_wire(_rows):
            raise AssertionError("a miss built row lists")

        monkeypatch.setattr(protocol, "rows_to_wire", rows_to_wire)
        gc.collect()
        tracemalloc.start()
        try:
            sizes = []
            for i in range(16):
                query = TC_QUERY.replace("-[r]->", f"-[r{i}]->")
                body = service.execute({"op": "graphlog", "query": query}, wire=True)
                assert body["cache"] == "miss"
                sizes.append(len(body["encoded"]))
            del body
            gc.collect()
            with_entries = tracemalloc.get_traced_memory()[0]
            service.results.clear()
            gc.collect()
            held = with_entries - tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert min(sizes) > 10_000
        # Row lists would hold about 4x the bytes they encode to.
        assert sum(sizes) <= held <= 1.5 * sum(sizes), (held, sum(sizes))
        service.close()


# --------------------------------------------------------------------------
# (e) int rows: a fixpoint's answer encodes without being decoded
# --------------------------------------------------------------------------

VALUE_POOL = TestRowsToWire.STRINGS + TestRowsToWire.OTHERS + TestEncodeAnswer.EXTRA


@st.composite
def interned_answers(draw):
    """``(relations, catalog)``: relation sets of one arity each, drawn
    from the pools, as int rows over a catalog that interned their values
    — equal ones of other types (``1``, ``True``, ``1.0``) too — in
    shuffled order, with unused ids in between."""
    rows_of = st.integers(0, 3).flatmap(
        lambda arity: st.sets(st.tuples(*[st.sampled_from(VALUE_POOL)] * arity), max_size=30)
    )
    relations = draw(st.dictionaries(st.sampled_from(TestEncodeAnswer.NAMES), rows_of, max_size=4))
    cells = [value for rows in relations.values() for row in rows for value in row]
    catalog = TermCatalog()
    for serial, value in enumerate(draw(st.permutations(cells))):
        for gap in range(draw(st.integers(0, 2))):
            catalog.intern(("unused", serial, gap))
        catalog.intern(value)
    rows = {name: [catalog.intern_row(row) for row in rows] for name, rows in relations.items()}
    return rows, catalog


class TestIdRowsEncodeLikeTheirValues:
    @given(interned_answers())
    @settings(max_examples=300, deadline=None)
    def test_matches_keyed_encode_of_the_decoded_rows(self, answer):
        rows, catalog = answer
        decoded = {name: {catalog.decode_row(row) for row in ids} for name, ids in rows.items()}
        expected = keyed_encode(decoded)
        assert protocol.encode_answer(rows, catalog.values) == expected
        # A maintained view's rows are a set; the order rows come in is moot.
        as_sets = {name: set(ids) for name, ids in rows.items()}
        assert protocol.encode_answer(as_sets, catalog.values) == expected
        assert Answer(rows, catalog.values).decoded() == decoded

    def test_equal_values_of_other_types_take_the_catalogs_one(self):
        catalog = TermCatalog()
        ids = [catalog.intern(v) for v in (True, 1, 1.0, "1", Text("1"))]
        assert ids == [0, 0, 0, 1, 1]
        rows = {"p": [(1, 1), (1, 0), (0, 1)]}
        assert protocol.encode_answer(rows, catalog.values) == (
            b'{"count":3,"relations":{"p":[[true,"1"],["1",true],["1","1"]]}}', 3,
        )


# --------------------------------------------------------------------------
# (f) every miss path answers the oracle's bytes
# --------------------------------------------------------------------------

FLIGHT_EDGES = [
    ["f1", "from", "a"], ["f1", "to", "b"],
    ["f2", "from", "b"], ["f2", "to", "c"],
    ["f3", "from", "c"], ["f3", "to", "a"],
    ["f4", "from", "c"], ["f4", "to", "d"],
]
CLOSURE = "define (X) -[conn]-> (Y) { (X) -[(-from . to)+]-> (Y); }"
NEGATION = """
leg(X, Y) :- from(F, X), to(F, Y).
conn(X, Y) :- leg(X, Y).
conn(X, Y) :- conn(X, Z), leg(Z, Y).
indirect(X, Y) :- conn(X, Y), not leg(X, Y).
"""
SUMMARY = "define (X) -[best(V)]-> (Y) { (X) -[hop @ shortest V]-> (Y); }"


def naive_graphlog(graph, text, predicate):
    query = parse_graphical_query(text)
    return {predicate: set(GraphLogEngine(method="naive").run(query, graph).facts(predicate))}


def naive_datalog(graph, text):
    program = parse_program(text)
    database = Engine("naive").evaluate(program, database_from_graph(graph))
    return {p: set(database.facts(p)) for p in program.idb_predicates}


class TestEveryMissEncodesTheOraclesBytes:
    def wire_miss(self, service, request):
        body = service.execute(request, wire=True)
        assert body["cache"] == "miss"
        return body["encoded"]

    def test_closure_negation_and_seeded_rpq_misses(self):
        service = QueryService()
        service.execute({"op": "update", "edges": FLIGHT_EDGES})
        graph = service.store.graph
        closure = {"op": "graphlog", "query": CLOSURE}
        expected = protocol.encode_answer(naive_graphlog(graph, CLOSURE, "conn"))[0]
        assert self.wire_miss(service, closure) == expected
        assert json.loads(expected)["count"] == 12  # a, b and c reach all four
        negation = {"op": "datalog", "query": NEGATION}
        expected = protocol.encode_answer(naive_datalog(graph, NEGATION))[0]
        assert self.wire_miss(service, negation) == expected
        assert json.loads(expected)["relations"]["indirect"]
        rpq = {"op": "rpq", "query": "(-from . to)+", "source": "a"}
        targets = RPQEvaluator(graph).targets(parse_regex(rpq["query"]), "a")
        expected = protocol.encode_answer({"answers": {(t,) for t in targets}})[0]
        assert self.wire_miss(service, rpq) == expected
        service.close()

    def test_a_seeded_rpq_over_a_label_with_arguments(self):
        # Every e edge carries one label argument, so the image holds e at
        # arity 3: a miss searches it, and the promotion's view of λ's e+
        # (which reads e/2) diffs instead — its one evaluation is the same
        # search, and the key is demoted to plain entries.
        service = QueryService()
        store = service.store

        def add(*edges):
            with store.session().transaction() as txn:
                for source, target, weight in edges:
                    txn.add_edge(source, target, EdgeLabel("e", (weight,)))

        def read():
            body = service.execute({"op": "rpq", "query": "e+", "source": "a"}, wire=True)
            targets = RPQEvaluator(store.graph_at(body["version"])).targets("e+", "a")
            assert body["encoded"] == protocol.encode_answer({"answers": {(t,) for t in targets}})[0]
            return body["cache"], json.loads(body["encoded"])["count"]

        add(("a", "b", 1), ("b", "c", 2), ("b", "c", 3), ("x", "a", 4))
        assert read() == ("miss", 2)
        add(("c", "d", 5))
        add(("d", "a", 6))
        assert read() == ("miss", 4)  # the promotion's view evaluated it
        cached = service.stats()["result_cache"]
        assert (cached["demotions"], cached["maintained"]) == (1, 0)
        assert read() == ("hit", 4)
        add(("d", "x", 7))
        assert read() == ("miss", 5)
        service.close()

    def test_summary_miss(self):
        service = QueryService()
        edges = [["a", "hop", "b", [3]], ["b", "hop", "c", [1]], ["a", "hop", "c", [7]]]
        store = service.store
        for a, label, b, args in edges:
            with store.session().transaction() as txn:
                txn.add_edge(a, b, EdgeLabel(label, tuple(args)))
        expected = protocol.encode_answer(naive_graphlog(store.graph, SUMMARY, "best"))[0]
        assert self.wire_miss(service, {"op": "graphlog", "query": SUMMARY}) == expected
        assert json.loads(expected)["relations"]["best"] == [["a", "b", 3], ["a", "c", 4], ["b", "c", 1]]
        service.close()

    @pytest.mark.parametrize(
        "request_",
        [
            {"op": "graphlog", "query": CLOSURE},
            {"op": "rpq", "query": "(-from . to)+", "source": "c"},
        ],
        ids=["closure", "seeded_rpq"],
    )
    def test_a_promoted_entry_re_encodes_after_a_commit(self, request_):
        service = QueryService()
        service.execute({"op": "update", "edges": FLIGHT_EDGES[:6]})

        def oracle():
            graph = service.store.graph
            if request_["op"] == "graphlog":
                return protocol.encode_answer(naive_graphlog(graph, CLOSURE, "conn"))[0]
            targets = RPQEvaluator(graph).targets(parse_regex(request_["query"]), "c")
            return protocol.encode_answer({"answers": {(t,) for t in targets}})[0]

        assert self.wire_miss(service, request_) == oracle()
        service.execute({"op": "update", "edges": FLIGHT_EDGES[6:]})
        assert self.wire_miss(service, request_) == oracle()  # promoted
        assert service.stats()["result_cache"]["maintained"] == 1
        for edges in (["f5", "from", "d"], ["f5", "to", "e"]), (["f6", "from", "e"],):
            service.execute({"op": "update", "edges": list(edges)})
            body = service.execute(request_, wire=True)
            assert (body["cache"], body["encoded"]) == ("hit", oracle())
        assert service.stats()["result_cache"]["promotions"] == 1
        # A removal may cost the view more than it holds (the entry is then
        # demoted and the read misses): either way, the oracle's bytes.
        service.execute({"op": "update", "remove_edges": [["f3", "to", "a"]]})
        assert service.execute(request_, wire=True)["encoded"] == oracle()
        service.close()
