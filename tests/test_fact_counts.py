"""A fact holds while some graph item encodes it.

Several items of a multigraph can encode one Section 2 fact: parallel copies
of an edge, an ``EdgeLabel`` and its plain-string label, two endpoint splits
of a tuple-node fact (``(a, b) -p-> c`` and ``a -p-> (b, c)``), an edge and
the annotation of a tuple node.  The store counts each fact's items, and a
commit's delta is the facts whose count crosses zero.  The oracle is the
graph itself: ``fact_counts`` / ``database_from_graph`` recomputed from
scratch, and ``Engine(method="naive")`` for answers.
"""

from __future__ import annotations

import json
import random
from collections import defaultdict

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.datalog.engine import Engine
from repro.datalog.parser import parse_program
from repro.errors import StoreError, TransactionError
from repro.graphs.bridge import EdgeLabel, database_from_graph
from repro.ham.delta import domain_refs, fact_counts
from repro.ham.image import StoreImages
from repro.ham.store import HAMStore, TransactionRecord, _Op, derive_version
from repro.persist import DurabilityManager, PersistenceConfig, wal
from repro.persist.serde import record_from_json, record_to_json
from repro.service.prepared import PreparedQueryCache
from repro.service.server import QueryService, ServiceConfig
from repro.subs import SubscriptionManager
from tests.test_image import decoded, record

# Two items encoding one fact, then the removal of one of them: the fact
# still holds.  Tuple nodes do not travel on the wire, so these commit
# through store sessions.  Each name also gives an edit that adds another
# fact of the same predicate.
ALIASED = {
    "endpoint_splits": (
        "q(X, Y, Z) :- p(X, Y, Z).",
        [
            [("add_edge", ("a", "b"), "c", "p")],
            [("add_edge", "a", ("b", "c"), "p")],
            [("remove_edge", "a", ("b", "c"), "p")],
        ],
        ("add_edge", "x", ("y", "z"), "p"),
    ),
    "edge_and_annotation": (
        "q(X, Y) :- mark(X, Y).",
        [
            [("add_node", ("t", 1), "mark")],
            [("add_edge", "t", 1, "mark")],
            [("remove_edge", "t", 1, "mark")],
        ],
        ("add_edge", "u", 2, "mark"),
    ),
}


def commit(store, edits):
    with store.session().transaction() as txn:
        for kind, *args in edits:
            getattr(txn, kind)(*args)


def oracle(query, graph):
    database = database_from_graph(graph)
    return set(Engine(method="naive").evaluate(parse_program(query), database).facts("q"))


def answer(service, query):
    response = service.execute({"op": "datalog", "query": query, "predicate": "q"})
    rows = response["result"]["relations"].get("q", ())
    return {tuple(row) for row in rows}, response["cache"]


def wire_copy(record):
    return record_from_json(json.loads(json.dumps(record_to_json(record))))


def assert_counts(store):
    """The store's counts are a recount of its graph's."""
    facts = fact_counts(store.graph)
    assert store._facts == facts
    assert store._refs == domain_refs(facts)


# ----------------------------------------------------- the aliasing sequences


def test_aliased_fact_survives_the_removal_of_one_of_its_items():
    for query, commits, _other in ALIASED.values():
        store = HAMStore()
        for edits in commits:
            commit(store, edits)
            assert_counts(store)
        first, second, third = (record.delta for record in store.history())
        assert first.insertions and not second.insertions and not third.deletions
        assert oracle(query, store.graph) != set()


@pytest.mark.parametrize("name", sorted(ALIASED))
def test_service_view_subscription_and_replica_agree_with_the_oracle(name):
    query, (first, *aliasing), other = ALIASED[name]
    # The other fact between the first two answers promotes the query's
    # entry to a maintained view, which then answers the aliasing commits.
    commits = [first, [other], *aliasing]
    service = QueryService(store=HAMStore())
    replica = QueryService(store=HAMStore())
    replica.store.set_read_only(True)
    subs = SubscriptionManager(service.store)
    sink = _Sink()
    try:
        plan = PreparedQueryCache().get("datalog", query)
        _sub, state, _version = subs.subscribe(plan, {"predicate": "q"}, sink)
        state = set(state.get("q", ()))
        caches = []
        for edits in commits:
            commit(service.store, edits)
            replica.store.apply_replicated(wire_copy(service.store.history()[-1]))
            version, graph = service.store.snapshot_versioned()
            expected = oracle(query, graph)
            rows, cache = answer(service, query)
            caches.append(cache)
            assert rows == expected
            assert answer(replica, query)[0] == expected
            frames, _disconnect = subs.drain(sink)
            for frame in frames:
                state -= {tuple(row) for row in frame["deleted"].get("q", ())}
                state |= {tuple(row) for row in frame["inserted"].get("q", ())}
            assert state == expected
            for each in (service, replica):
                image = each.images.at(*each.store.snapshot_versioned())
                assert decoded(image.facts) == database_from_graph(graph)
        # The last answers came from the maintained view the second miss
        # promoted, and every image step was a fold.
        assert caches == ["miss", "miss", "hit", "hit"]
        assert service.stats()["result_cache"]["maintained"] == 1
        for each in (service, replica):
            stats = each.images.stats()
            assert stats["builds"] == 1 and stats["fallbacks"] == {}
    finally:
        subs.close()
        service.close()
        replica.close()


class _Sink:
    def notify(self):
        pass


@pytest.mark.parametrize("name", sorted(ALIASED))
@pytest.mark.parametrize("checkpoint_after", [None, 1, 2])
def test_a_recovered_store_agrees_with_the_oracle(tmp_path, name, checkpoint_after):
    query, commits, _other = ALIASED[name]
    config = ServiceConfig(data_dir=str(tmp_path), fsync="off")
    service = QueryService(config=config)
    for number, edits in enumerate(commits, 1):
        commit(service.store, edits)
        if number == checkpoint_after:
            service.execute({"op": "checkpoint"})
    expected = oracle(query, service.store.graph)
    service.close()
    recovered = QueryService(config=config)
    try:
        assert recovered.store.version == len(commits)
        assert_counts(recovered.store)
        assert answer(recovered, query)[0] == expected
        commit(recovered.store, [("add_edge", "z", "z", "other")])  # a fold after recovery
        assert answer(recovered, query)[0] == expected
        assert recovered.images.stats()["fallbacks"] == {}
    finally:
        recovered.close()


# ------------------------------------------------------------ predicate_stats


def test_predicate_stats_count_distinct_facts():
    store = HAMStore()
    commit(store, [("add_edge", "a", "b", "link"), ("add_edge", "a", "b", "link")])
    commit(store, [("add_node", "rome", "capital"), ("add_edge", "a", "b", EdgeLabel("link"))])
    stats = store.predicate_stats()
    assert stats["link"]["facts"] == 1
    assert stats["capital"]["facts"] == 1
    commit(store, [("remove_node", "rome")])
    assert store.predicate_stats()["capital"]["facts"] == 0
    bootstrapped = HAMStore()
    bootstrapped.replace_state(store.graph, store.version, store.version)
    assert bootstrapped.predicate_stats()["link"]["facts"] == 1


# ----------------------------------------------------------------- replay


def test_replay_stops_at_the_first_record_the_graph_cannot_take():
    source = HAMStore()
    commit(source, [("add_edge", "a", "b", "e")])
    (first,) = source.history()
    refused = TransactionRecord(
        2, 1, [_Op(_Op.ADD_EDGE, "x", "y", "e"), _Op(_Op.REMOVE_EDGE, "b", "c", "e")], 2
    )
    later = TransactionRecord(3, 1, [_Op(_Op.ADD_EDGE, "x", "y", "e")], 3)
    store = HAMStore()
    assert store.replay([wire_copy(first), refused, later]) == 1
    assert store.version == 1 and store.graph == source.graph  # no partial record
    assert store.history()[0].delta == first.delta
    assert_counts(store)
    with pytest.raises(StoreError, match="versions 2..2 in order"):
        store.replay([later])
    assert store.replay([TransactionRecord(2, 1, later.operations, 2)]) == 1
    assert_counts(store)


# --------------------------------------------------- the random differential

VALUES = ["a", "b", 1]
PAIRS = [("a", "b"), ("b", 1), ("a", 1)]
TRIPLES = [("a", "b", 1), ("a", "a", "b")]
E = st.sampled_from(["e", EdgeLabel("e")])
P = st.sampled_from(["p", EdgeLabel("p")])
value, pair, triple = (st.sampled_from(nodes) for nodes in (VALUES, PAIRS, TRIPLES))
# Each predicate keeps one arity: e/2 over values or annotating a pair, p/3
# over either endpoint split, a one-column EdgeLabel, or a triple's
# annotation, c/1 and m/2 as annotations only.
EDGE = st.one_of(
    st.tuples(value, value, E),
    st.tuples(pair, value, P),
    st.tuples(value, pair, P),
    st.tuples(value, value, value.map(lambda extra: EdgeLabel("p", (extra,)))),
)
LABELLED = st.one_of(
    st.tuples(value, st.sampled_from([None, "c"])),
    st.tuples(pair, st.sampled_from([None, "e", frozenset({"e", "m"})])),
    st.tuples(triple, st.sampled_from([None, "p", frozenset({"p"})])),
)
OPERATION = st.one_of(
    st.tuples(st.just("add_edge"), EDGE),
    st.tuples(st.just("remove_edge"), st.integers(0, 63), st.booleans()),
    st.tuples(st.just("add_node"), LABELLED),
    st.tuples(st.just("set_node_label"), LABELLED),
    st.tuples(st.just("remove_node"), st.sampled_from(VALUES + PAIRS + TRIPLES)),
)
COMMITS = st.lists(st.lists(OPERATION, min_size=1, max_size=4), min_size=1, max_size=8)


def _other_form(label):
    """The same fact's label spelled the other way (string ↔ EdgeLabel)."""
    if isinstance(label, EdgeLabel):
        return label.predicate if not label.extra else label
    return EdgeLabel(label)


def _apply(txn, model, operation):
    kind, *args = operation
    if kind == "remove_edge":
        index, respell = args
        edges = list(model.edges)
        if not edges:
            return
        edge = edges[index % len(edges)]
        label = _other_form(edge.label) if respell else edge.label
        record(txn, model, "remove_edge", edge.source, edge.target, label)
    elif kind == "remove_node":
        if model.has_node(args[0]):
            record(txn, model, "remove_node", args[0])
    elif kind == "set_node_label":
        node, label = args[0]
        if model.has_node(node):
            record(txn, model, "set_node_label", node, label)
    else:
        record(txn, model, kind, *args[0])


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(COMMITS)
def test_counted_deltas_match_a_recount_after_every_commit(commits):
    store = HAMStore()
    images = StoreImages(store)
    held = {}  # the net of every delta so far: predicate -> rows
    for operations in commits:
        nodes_before = set(store.graph.nodes)
        model = derive_version(store.graph)
        with store.session().transaction() as txn:
            for operation in operations:
                _apply(txn, model, operation)
        version, graph = store.snapshot_versioned()
        delta = store.history()[-1].delta
        for predicate, rows in delta.deletions.items():
            assert rows <= held[predicate]
            held[predicate] -= rows
        for predicate, rows in delta.insertions.items():
            assert not rows & held.get(predicate, set())
            held.setdefault(predicate, set()).update(rows)
        assert delta.nodes_added == set(graph.nodes) - nodes_before
        assert delta.nodes_removed == nodes_before - set(graph.nodes)
        assert_counts(store)
        database = database_from_graph(graph)
        assert {p: rows for p, rows in held.items() if rows} == {
            p: set(database.facts(p)) for p in database.predicates
        }
        assert decoded(images.at(version, graph).facts) == database


# ------------------------------------------- an operation the graph cannot take

GHOST = "ghost"  # a node no valid operation below names
INVALID = [
    _Op(_Op.REMOVE_EDGE, "a", GHOST, "e"),
    _Op(_Op.REMOVE_NODE, GHOST),
    _Op(_Op.SET_NODE_LABEL, GHOST, "c"),
]


def _valid_operations(rng, model):
    """1–4 random operations *model* can take, applied to it in turn."""
    operations = []
    for _ in range(rng.randint(1, 4)):
        nodes, edges = list(model.nodes), list(model.edges)
        roll = rng.random()
        if roll < 0.45 or not nodes:
            label = rng.choice(["e", EdgeLabel("e"), "f"])
            op = _Op(_Op.ADD_EDGE, rng.choice(VALUES), rng.choice(VALUES + PAIRS), label)
        elif roll < 0.65 and edges:
            edge = rng.choice(edges)
            op = _Op(_Op.REMOVE_EDGE, edge.source, edge.target, edge.label)
        elif roll < 0.8:
            op = _Op(_Op.SET_NODE_LABEL, rng.choice(nodes), rng.choice([None, "c", "m"]))
        elif roll < 0.9:
            op = _Op(_Op.ADD_NODE, rng.choice(VALUES + PAIRS), rng.choice([None, "c"]))
        else:
            op = _Op(_Op.REMOVE_NODE, rng.choice(nodes))
        op.apply(model)
        operations.append(op)
    return operations


def _by_predicate(facts):
    rows = defaultdict(set)
    for predicate, row in facts:
        rows[predicate].add(row)
    return dict(rows)


@pytest.mark.parametrize("durable", [False, True], ids=["memory", "durable"])
@pytest.mark.parametrize("seed", range(6))
def test_an_invalid_operation_fails_the_commit_and_changes_nothing(tmp_path, durable, seed):
    """One operation the graph cannot take, anywhere in a valid list, fails
    the commit: nothing is staged, logged or dispatched, and the session
    commits the valid list next with the delta a recount gives."""
    rng = random.Random(seed)
    manager = DurabilityManager(PersistenceConfig(str(tmp_path), fsync="off")) if durable else None
    store = manager.recover() if durable else HAMStore()
    hooks = []
    store.subscribe(hooks.append)

    def state():
        logged = len(list(wal.iter_records(manager.wal_dir))) if durable else 0
        return store.version, store.graph, dict(store._facts), len(hooks), logged

    session = store.session()
    try:
        for _ in range(12):
            operations = _valid_operations(rng, derive_version(store.graph))
            refused = list(operations)
            refused.insert(rng.randint(0, len(operations)), rng.choice(INVALID))
            before = state()
            with pytest.raises(TransactionError, match="not found"):
                with session.transaction() as txn:
                    for op in refused:
                        getattr(txn, op.kind)(*op.args)
            assert state() == before and store.graph is before[1]
            with session.transaction() as txn:
                for op in operations:
                    getattr(txn, op.kind)(*op.args)
            assert_counts(store)
            was, now = set(before[2]), set(fact_counts(store.graph))
            delta = store.history()[-1].delta
            assert {p: rows for p, rows in delta.insertions.items() if rows} == _by_predicate(now - was)
            assert {p: rows for p, rows in delta.deletions.items() if rows} == _by_predicate(was - now)
            after = state()
            assert after[3] == before[3] + 1  # one hook call
            assert after[4] == before[4] + (1 if durable else 0)  # one WAL record
    finally:
        if manager is not None:
            manager.close()
