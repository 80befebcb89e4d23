"""Graph versions share structure: shared ≡ rebuilt, nothing leaks.

``LabeledMultigraph.copy()`` no longer re-inserts the graph; a copy shares
its source's edges and edge lists until one side writes.  Everything here
pins that to a reference that shares nothing (:class:`Model` — plain lists,
deep-copied): random mutation streams with copies at random points, the
store's six derive-a-version paths against from-scratch replay, readers on
a published graph while commits derive from it, and bulk load staying
linear.
"""

import json
import random
import sys
import threading
import time

import pytest

from repro.errors import StoreError
from repro.graphs.bridge import EdgeLabel, graph_from_database
from repro.graphs.multigraph import LabeledMultigraph
from repro.ham import store as store_module
from repro.ham.delta import _edge_fact
from repro.ham.store import HAMStore, derive_version
from repro.io import graph_to_json
from repro.datalog.database import Database
from repro.persist import (
    DurabilityManager,
    PersistenceConfig,
    record_from_json,
    record_to_json,
)
from repro.service.client import ServiceClient
from repro.service.server import ServiceConfig, ServiceServer

LABELS = ("a", "b", EdgeLabel("a"), EdgeLabel("b", (1,)))
NODE_LABELS = (None, None, "mark", frozenset({"p", "q"}))


class Model:
    """The executable specification of a multigraph version: an ordered node
    table and an ordered edge list, copied deeply, queried by scanning."""

    def __init__(self):
        self.nodes = {}  # node -> label, insertion-ordered
        self.edges = []  # (source, target, label), insertion-ordered

    def copy(self):
        clone = Model()
        clone.nodes = dict(self.nodes)
        clone.edges = list(self.edges)
        return clone

    def add_node(self, node, label=None):
        if node not in self.nodes or label is not None:
            self.nodes[node] = label

    def add_edge(self, source, target, label):
        self.add_node(source)
        self.add_node(target)
        self.edges.append((source, target, label))

    def remove_edge_at(self, position):
        del self.edges[position]

    def remove_edge(self, source, target, label):
        """The store's rule: the oldest copy with exactly *label*, else the
        oldest copy encoding the same fact."""
        candidates = [
            i for i, (s, t, _l) in enumerate(self.edges) if (s, t) == (source, target)
        ]
        exact = [i for i in candidates if self.edges[i][2] == label]
        same_fact = [
            i
            for i in candidates
            if _edge_fact(*self.edges[i]) == _edge_fact(source, target, label)
        ]
        del self.edges[(exact or same_fact)[0]]

    def remove_node(self, node):
        self.edges = [e for e in self.edges if node not in (e[0], e[1])]
        del self.nodes[node]

    def build(self):
        """A graph made from nothing, edge by edge — the rebuilt side."""
        graph = LabeledMultigraph()
        for node, label in self.nodes.items():
            graph.add_node(node, label)
        for source, target, label in self.edges:
            graph.add_edge(source, target, label)
        return graph


def triples(edges):
    return [edge.as_tuple() for edge in edges]


def assert_same(graph, model):
    assert list(graph.nodes) == list(model.nodes)
    assert {n: graph.node_label(n) for n in graph.nodes} == model.nodes
    assert triples(graph.edges) == model.edges
    assert graph.edge_count() == len(model.edges)
    assert len({edge.key for edge in graph.edges}) == len(model.edges)
    for node in model.nodes:
        assert triples(graph.out_edges(node)) == [e for e in model.edges if e[0] == node]
        assert triples(graph.in_edges(node)) == [e for e in model.edges if e[1] == node]
    counts = {}
    for edge in model.edges:
        counts[edge[2]] = counts.get(edge[2], 0) + 1
    assert {label: len(graph.edges_with_label(label)) for label in graph.labels()} == counts
    assert graph.labels() == set(counts)
    for label in LABELS:
        assert triples(graph.edges_with_label(label)) == [
            e for e in model.edges if e[2] == label
        ]
    touched = {n for s, t, _l in model.edges for n in (s, t)}
    assert graph.isolated_nodes() == set(model.nodes) - touched
    rebuilt = model.build()
    assert graph == rebuilt and rebuilt == graph
    assert graph.edge_triples() == set(model.edges)


def random_step(rng, graph, model):
    """One random mutation applied to *graph* and *model* alike."""
    roll = rng.random()
    nodes = list(model.nodes)
    if roll < 0.45 or not model.edges:
        source, target = rng.randrange(6), rng.randrange(6)
        label = rng.choice(LABELS)
        graph.add_edge(source, target, label)
        model.add_edge(source, target, label)
    elif roll < 0.70:
        position = rng.randrange(len(model.edges))
        graph.remove_edge(list(graph.edges)[position])
        model.remove_edge_at(position)
    elif roll < 0.80:
        node, label = rng.randrange(8), rng.choice(NODE_LABELS)
        graph.add_node(node, label)
        model.add_node(node, label)
    elif roll < 0.88 and nodes:
        node, label = rng.choice(nodes), rng.choice(NODE_LABELS)
        graph.set_node_label(node, label)
        model.nodes[node] = label
    elif nodes:
        node = rng.choice(nodes)
        graph.remove_node(node)
        model.remove_node(node)


class TestSharedEqualsRebuilt:
    @pytest.mark.parametrize("seed", range(200))
    def test_random_streams_with_copies(self, seed):
        """Every live version equals its reference after every step, so a
        write to one version never shows in its parent, child or sibling."""
        rng = random.Random(seed)
        live = [(LabeledMultigraph(), Model())]
        for _step in range(50):
            roll = rng.random()
            if roll < 0.15 and len(live) < 6:
                graph, model = rng.choice(live)
                live.append((graph.copy(), model.copy()))
            elif roll < 0.20 and len(live) > 1:
                live.pop(rng.randrange(len(live)))  # lists get freed and reused
            else:
                random_step(rng, *rng.choice(live))
            for graph, model in live:
                assert_same(graph, model)

    def test_copy_does_no_per_edge_work(self):
        graph = Model()
        for i in range(300):
            graph.add_edge(i, i + 1, "x")
        graph = graph.build()
        calls = []
        original = LabeledMultigraph.add_edge
        LabeledMultigraph.add_edge = lambda self, *a: calls.append(a) or original(self, *a)
        try:
            clone = graph.copy()
        finally:
            LabeledMultigraph.add_edge = original
        assert calls == []
        assert all(a is b for a, b in zip(graph.edges, clone.edges))
        clone.add_edge(0, 1, "x")
        assert (clone.edge_count(), graph.edge_count()) == (301, 300)

    def test_equality_counts_parallel_edges(self):
        """Definition 2.1 graphs are multigraphs: one copy ≠ two."""
        once, twice = LabeledMultigraph(), LabeledMultigraph()
        once.add_edge(1, 2, "x")
        twice.add_edge(1, 2, "x")
        twice.add_edge(1, 2, "x")
        assert once.edge_triples() == twice.edge_triples()
        assert once != twice
        once.add_edge(1, 2, "x")
        assert once == twice

    def test_remove_edge_wants_this_graphs_edge(self):
        graph, other = LabeledMultigraph(), LabeledMultigraph()
        graph.add_edge(1, 2, "x")
        foreign = other.add_edge(1, 2, "x")  # same key, another identity
        with pytest.raises(KeyError):
            graph.remove_edge(foreign)
        assert graph.edge_count() == 1


# --------------------------------------------------------------------------
# the store's derive-a-version paths
# --------------------------------------------------------------------------


def random_commit(rng, store, model):
    """Commit 1–3 random valid operations; *model* follows."""
    with store.session().transaction() as txn:
        for _ in range(rng.randint(1, 3)):
            roll = rng.random()
            if roll < 0.5 or not model.edges:
                source, target = f"n{rng.randrange(6)}", f"n{rng.randrange(6)}"
                label = rng.choice(LABELS)
                txn.add_edge(source, target, label)
                model.add_edge(source, target, label)
            elif roll < 0.8:
                source, target, label = rng.choice(model.edges)
                if rng.random() < 0.5:  # name it the way the wire / a fact file would
                    flipped = (
                        str(label) if isinstance(label, EdgeLabel) else EdgeLabel(label)
                    )
                    if _edge_fact(source, target, flipped) == _edge_fact(
                        source, target, label
                    ):
                        label = flipped
                txn.remove_edge(source, target, label)
                model.remove_edge(source, target, label)
            elif roll < 0.9:
                node, label = f"n{rng.randrange(8)}", rng.choice(NODE_LABELS)
                txn.add_node(node, label)
                model.add_node(node, label)
            else:
                node = rng.choice(list(model.nodes))
                txn.remove_node(node)
                model.remove_node(node)


def graph_bytes(graph):
    return json.dumps(graph_to_json(graph), sort_keys=True)


class TestStoreVersions:
    @pytest.mark.parametrize("seed", range(25))
    def test_history_paths_equal_from_scratch_replay(self, seed, tmp_path, monkeypatch):
        """Random commit / checkpoint / crash-recover / replicate sequences
        over a two-record history window, so commits trim the log:
        ``graph_at(v)`` of every retained version, the recovered graph and
        the replica all equal a from-scratch build of that version, and
        serialise to the same bytes."""
        monkeypatch.setattr(store_module, "HISTORY_WINDOW", 2)
        rng = random.Random(seed)
        config = PersistenceConfig(str(tmp_path), fsync="off")
        manager = DurabilityManager(config)
        store = manager.recover()
        replica = HAMStore()
        shipped = 0
        model = Model()
        history = [model.copy()]  # history[v] = the graph at version v

        def check_retained():
            """The store serves from its base on, and nothing before it."""
            base = store.stats()["base_version"]
            for version in range(base):
                with pytest.raises(StoreError):
                    store.graph_at(version)
            for version in range(base, store.version + 1):
                assert_same(store.graph_at(version), history[version])
            assert graph_bytes(store.graph) == graph_bytes(history[-1].build())

        for _ in range(30):
            roll = rng.random()
            if roll < 0.7:
                random_commit(rng, store, model)
                history.append(model.copy())
                assert store.version == len(history) - 1
            elif roll < 0.8:
                manager.checkpoint()
            elif roll < 0.9:
                manager.close()
                manager = DurabilityManager(config)
                store = manager.recover()
                assert store.version == len(history) - 1
            else:
                for record in store.records_since(shipped) or ():
                    replica.apply_replicated(
                        record_from_json(json.loads(json.dumps(record_to_json(record))))
                    )
                shipped = replica.version
                assert_same(replica.graph, history[shipped])
                assert graph_bytes(replica.graph) == graph_bytes(history[shipped].build())
            assert_same(store.graph, history[-1])
            check_retained()
        manager.close()

    def test_truncated_memory_store_serves_what_it_retains(self, monkeypatch):
        monkeypatch.setattr(store_module, "HISTORY_WINDOW", 3)
        rng = random.Random(5)
        store, model, history = HAMStore(), Model(), [Model()]
        for _ in range(20):
            random_commit(rng, store, model)
            history.append(model.copy())
        base = store.stats()["base_version"]
        assert store.version - base >= 3
        for version in range(base, store.version + 1):
            assert_same(store.graph_at(version), history[version])
        with pytest.raises(StoreError):
            store.graph_at(base - 1)

    def test_snapshot_is_private_and_published_graph_is_never_written(self):
        store = HAMStore()
        with store.session().transaction() as txn:
            txn.add_edge("a", "b", "x")
            txn.add_edge("a", "c", "x")
        published = store.graph
        before = graph_bytes(published)
        one, two = derive_version(store.graph), derive_version(store.graph)
        one.add_edge("a", "d", "x")
        two.remove_edge(two.out_edges("a")[0])
        with store.session().transaction() as txn:
            txn.remove_edge("a", "c", "x")
        assert graph_bytes(published) == before
        assert triples(one.out_edges("a")) == [
            ("a", "b", "x"), ("a", "c", "x"), ("a", "d", "x")
        ]
        assert triples(two.out_edges("a")) == [("a", "c", "x")]
        assert triples(store.graph.out_edges("a")) == [("a", "b", "x")]


# --------------------------------------------------------------------------
# removing a fact-file edge over the wire
# --------------------------------------------------------------------------


class TestFactLevelRemoval:
    def test_wire_removes_a_data_loaded_edge_and_everyone_agrees(self, tmp_path):
        """``repro serve --data`` labels edges ``EdgeLabel("link")``; the wire
        says ``"link"``.  The removal commits, survives recovery, and a
        replica reaches the same graph."""
        database = Database()
        database.add_facts("link", [("a", "b"), ("b", "c")])
        store = HAMStore()
        store.load_database(database)
        expected = Model()
        expected.nodes = dict.fromkeys(store.graph.nodes)
        expected.edges = [("b", "c", EdgeLabel("link"))]
        primary = ServiceServer(
            store=store,
            config=ServiceConfig(port=0, data_dir=str(tmp_path), fsync="always"),
        ).start_background()
        replica = ServiceServer(
            config=ServiceConfig(
                port=0, replica_of=f"127.0.0.1:{primary.port}", repl_wait_ms=100
            )
        ).start_background()
        try:
            with ServiceClient(port=primary.port) as client:
                version = client.update(remove_edges=[["a", "link", "b"]])
                rows = client.rpq("link")
            assert version == 2 and rows == {("b", "c")}
            assert replica.service.applier.wait_ready(10)
            assert replica.service.store.wait_for_version(version, timeout=10)
            assert_same(primary.service.store.graph, expected)
            assert_same(replica.service.store.graph, expected)
        finally:
            replica.stop()
            primary.stop()
        recovered = DurabilityManager(PersistenceConfig(str(tmp_path))).recover()
        assert recovered.version == version
        assert_same(recovered.graph, expected)

    def test_exact_label_wins_over_fact_equal_copy(self):
        """Existing WALs replay identically: a copy carrying exactly the
        named label goes first, whatever older fact-equal copy exists."""
        store = HAMStore()
        with store.session().transaction() as txn:
            txn.add_edge("a", "b", EdgeLabel("link"))
            txn.add_edge("a", "b", "link")
        with store.session().transaction() as txn:
            txn.remove_edge("a", "b", "link")
        assert triples(store.graph.edges) == [("a", "b", EdgeLabel("link"))]
        assert store.history()[-1].delta.is_empty  # the fact is still there
        with store.session().transaction() as txn:
            txn.remove_edge("a", "b", "link")
        assert store.graph.edge_count() == 0
        assert store.history()[-1].delta.deletions == {"link": {("a", "b")}}

    def test_other_facts_are_not_touched(self):
        store = HAMStore()
        store.load_graph(graph_from_database(_facts(("link", "a", "b"))))
        with pytest.raises(Exception, match="not found"):
            with store.session().transaction() as txn:
                txn.remove_edge("a", "b", "other")
        with pytest.raises(Exception, match="not found"):
            with store.session().transaction() as txn:
                txn.remove_edge("a", "b", EdgeLabel("link", (1,)))
        assert store.graph.edge_count() == 1


def _facts(*facts):
    database = Database()
    for predicate, *row in facts:
        database.add_fact(predicate, *row)
    return database


# --------------------------------------------------------------------------
# readers beside commits; bulk load
# --------------------------------------------------------------------------


class TestConcurrentReaders:
    def test_readers_iterate_published_graphs_while_commits_derive(self):
        """8 readers walk whatever graph is published — and copy it and
        scribble on the copy — while 200 commits derive new versions from
        it.  No dictionary-changed-size error, no adjacency list torn
        between two versions."""
        store = HAMStore()
        base = LabeledMultigraph()
        for chain in range(10):
            for i in range(8):
                base.add_edge(f"c{chain}n{i}", f"c{chain}n{i + 1}", "link")
        store.load_graph(base)
        stop = threading.Event()
        failures = []

        def reader(index):
            try:
                while not stop.is_set():
                    _version, graph = store.snapshot_versioned()
                    edges = graph.edge_count()
                    out = sum(len(graph.out_edges(node)) for node in graph.nodes)
                    into = sum(len(graph.in_edges(node)) for node in graph.nodes)
                    labelled = sum(
                        len(graph.edges_with_label(label)) for label in graph.labels()
                    )
                    listed = len(list(graph.edges))
                    if len({edges, out, into, labelled, listed}) != 1:
                        failures.append((edges, out, into, labelled, listed))
                    scratch = graph.copy()
                    scratch.add_edge(f"r{index}", "c0n0", "link")
                    scratch.remove_node("c1n4")
                    if graph.has_node(f"r{index}") or graph.edge_count() != edges:
                        failures.append("a copy wrote to the published graph")
            except Exception as exc:  # noqa: BLE001 — reported to the main thread
                failures.append(repr(exc))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        threads = [threading.Thread(target=reader, args=(i,)) for i in range(8)]
        try:
            for thread in threads:
                thread.start()
            session = store.session()
            for i in range(200):
                with session.transaction() as txn:
                    if i % 2 == 0:
                        txn.remove_edge("c3n3", "c3n4", "link")
                        txn.add_node(f"extra{i}")
                    else:
                        txn.add_edge("c3n3", "c3n4", "link")
                        txn.remove_node(f"extra{i - 1}")
        finally:
            stop.set()
            for thread in threads:
                thread.join(timeout=30)
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert failures == []
        assert store.version == 201
        assert store.graph == base


class TestBulkLoad:
    def test_single_label_load_stays_linear(self):
        """Every edge of a bulk load appends to the same per-label list; a
        list re-copied per append would make the load quadratic (tens of
        seconds at this size).  Fixed work, checked by its growth."""

        def load_seconds(size):
            graph = LabeledMultigraph()
            for i in range(size):
                graph.add_edge(i, i + 1, "x")
            store = HAMStore()
            started = time.perf_counter()
            store.load_graph(graph)
            elapsed = time.perf_counter() - started
            assert store.graph.edge_count() == size
            return elapsed

        small = min(load_seconds(12_500) for _ in range(2))
        large = load_seconds(100_000)
        assert large < small * 8 * 2.5, (small, large)
