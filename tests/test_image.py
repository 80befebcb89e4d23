"""The store's relational image: fold ≡ rebuild, through every path.

The oracle is what the image replaced and what survives outside the
service: ``database_from_graph`` + ``prepare_database`` + a fresh
``EncodedDatabase`` for the image itself, ``Engine(method="naive")`` for the
answers evaluated over it.
"""

from __future__ import annotations

import json
import random
import sys
import threading

import pytest

from repro.core.dsl import parse_graphical_query
from repro.core.engine import GraphLogEngine, prepare_database
from repro.datalog.columnar import EncodedDatabase, encode_database
from repro.datalog.database import Database
from repro.datalog.engine import Engine
from repro.datalog.parser import parse_program
from repro.errors import ArityError, StoreError, TransactionError
from repro.graphs.bridge import EdgeLabel, database_from_graph
from repro.ham.delta import Delta, domain_refs, fold_domain_refs, net_delta
from repro.ham.image import _CATALOG_SLACK, StoreImage, StoreImages
from repro.ham.store import HAMStore
from repro.persist.serde import record_from_json, record_to_json
from repro.service.server import QueryService, ServiceConfig

NODES = [f"n{i}" for i in range(7)]
EDGE_LABELS = ["e", EdgeLabel("e"), "f", EdgeLabel("f"), EdgeLabel("w", (1,)), EdgeLabel("w", (2,))]
NODE_LABELS = [None, "capital", "node", frozenset({"capital", "node"}), frozenset({"hub"})]

# The three bench query shapes (closure graphlog, negation datalog, RPQ),
# over `e`/`f` where the bench has `from`/`to`, plus a starred closure: its
# zero-step branch reads the `node` domain relation.
CLOSURE = "define (X) -[conn]-> (Y) { (X) -[(-e . f)+]-> (Y); }"
STARRED = "define (X) -[near]-> (Y) { (X) -[e*]-> (Y); }"
NEGATION = (
    "leg(X, Y) :- e(F, X), f(F, Y).\n"
    "conn(X, Y) :- leg(X, Y).\n"
    "conn(X, Y) :- conn(X, Z), leg(Z, Y).\n"
    "indirect(X, Y) :- conn(X, Y), not leg(X, Y).\n"
)
RPQ = "(-e . f)+"


# ------------------------------------------------------------------ commits


def random_commit(rng, store):
    """Commit one random transaction (1–3 operations); False when it
    conflicted and nothing was committed."""
    graph = store.graph
    session = store.session()
    try:
        with session.transaction() as txn:
            for _ in range(rng.randint(1, 3)):
                edges = list(txn.workspace.edges)
                nodes = list(txn.workspace.nodes)
                kind = rng.random()
                if kind < 0.40 or not nodes:
                    # Parallel copies of one fact arise on their own: "e" and
                    # EdgeLabel("e") encode the same tuple.
                    txn.add_edge(rng.choice(NODES), rng.choice(NODES), rng.choice(EDGE_LABELS))
                elif kind < 0.60 and edges:
                    edge = rng.choice(edges)
                    txn.remove_edge(edge.source, edge.target, edge.label)
                elif kind < 0.75:
                    txn.set_node_label(rng.choice(nodes), rng.choice(NODE_LABELS))
                elif kind < 0.85:
                    txn.add_node(rng.choice(NODES), rng.choice(NODE_LABELS))
                elif kind < 0.93:
                    txn.remove_node(rng.choice(nodes))  # with its incident edges
                elif edges:
                    # Empty one relation outright; later adds refill it.
                    predicate = _predicate(rng.choice(edges).label)
                    for edge in edges:
                        if _predicate(edge.label) == predicate:
                            txn.remove_edge(edge.source, edge.target, edge.label)
    except (TransactionError, StoreError, KeyError):
        assert store.graph is graph
        return False
    return True


def _predicate(label):
    return label.predicate if isinstance(label, EdgeLabel) else str(label)


# ------------------------------------------------------------------- oracles


def assert_encoding(database):
    """The cached encoding of *database* decodes to exactly its facts."""
    encoded = encode_database(database)
    assert database._columnar_cache[1] is encoded
    fresh = EncodedDatabase.from_database(database)
    assert set(encoded.relations) == set(fresh.relations) == set(database)
    decode = encoded.catalog.decode_row
    for name, relation in encoded.relations.items():
        assert relation.sealed and relation.arity == database.arity_of(name)
        assert relation.keys == set(relation.rows) and len(relation.keys) == len(relation.rows)
        assert {decode(row) for row in relation.rows} == set(database.facts(name))
    return encoded


def assert_image(image, graph):
    """*image* is what building from *graph* gives: facts, domain, ints."""
    database = database_from_graph(graph)
    assert image.database == database
    assert set(image.database) == set(database)  # no emptied relation lingers
    facts = assert_encoding(image.database)
    try:
        prepared = prepare_database(database)
    except ArityError:
        with pytest.raises(ArityError):
            image.prepared
        return
    assert image.prepared == prepared
    assert set(image.prepared) == set(prepared)
    assert {v for (v,) in image.prepared.facts("node")} == database.active_domain()
    assert assert_encoding(image.prepared).catalog is facts.catalog
    for name in database:
        if name != "node":
            assert image.prepared.relation(name) is image.database.relation(name)


def expected_answers(graph):
    database = database_from_graph(graph)
    naive = GraphLogEngine(method="naive")
    datalog = Engine(method="naive").evaluate(parse_program(NEGATION), database)
    return {
        "closure": naive.answers(parse_graphical_query(CLOSURE), database),
        "starred": naive.answers(parse_graphical_query(STARRED), database),
        "negation": set(datalog.facts("indirect")),
        "rpq": {(y,) for x, y in datalog.facts("conn") if x == "n0"},
    }


def service_answers(service):
    def ask(op, relation, **fields):
        response = service.execute({"op": op, **fields})
        return {tuple(row) for row in response["result"]["relations"][relation]}

    return {
        "closure": ask("graphlog", "conn", query=CLOSURE),
        "starred": ask("graphlog", "near", query=STARRED),
        "negation": ask("datalog", "indirect", query=NEGATION, predicate="indirect"),
        "rpq": ask("rpq", "answers", query=RPQ, source="n0"),
    }


def assert_service(service):
    """Published image and every answer equal the from-scratch oracle."""
    version, graph = service.store.snapshot_versioned()
    assert service_answers(service) == expected_answers(graph)
    image = service.images.at(version, graph)
    assert image.version == version
    assert_image(image, graph)


# ------------------------------------------------- the randomized differential


@pytest.mark.parametrize("block", range(8))
def test_fold_equals_rebuild_over_random_commit_sequences(block):
    folds = 0
    for seed in range(block * 25, block * 25 + 25):  # 8 × 25 = 200 sequences
        rng = random.Random(seed)
        service = QueryService(store=HAMStore())
        for _ in range(7):
            random_commit(rng, service.store)
            assert_service(service)
        stats = service.images.stats()
        assert stats["version"] == service.store.version
        assert stats["builds"] == 1 + sum(stats["fallbacks"].values())
        assert set(stats["fallbacks"]) <= {"large_delta", "arity_conflict"}
        folds += stats["folds"]
    assert folds > 25 * 3  # the fold is what ran, not the fallback


def test_an_image_that_lags_folds_the_net_delta_of_many_commits():
    rng = random.Random(99)
    store = HAMStore()
    images = StoreImages(store)
    for _ in range(12):
        random_commit(rng, store)
    assert_image(images.at(*store.snapshot_versioned()), store.graph)
    for lag in (1, 2, 5, 9):
        before = images.stats()
        committed = sum(random_commit(rng, store) for _ in range(lag))
        version, graph = store.snapshot_versioned()
        assert_image(images.at(version, graph), graph)
        after = images.stats()
        advanced = (after["folds"] - before["folds"]) + (after["builds"] - before["builds"])
        assert advanced == (1 if committed else 0)  # one step, however many records


def test_a_relation_emptied_and_refilled_and_a_user_relation_named_node():
    service = QueryService(store=HAMStore())
    service.execute({"op": "update", "edges": [["a", "e", "b"], ["b", "e", "c"], ["a", "f", "c"]]})
    assert_service(service)
    service.execute({"op": "update", "remove_edges": [["a", "e", "b"], ["b", "e", "c"]]})
    assert "e" not in service.images.at(*service.store.snapshot_versioned()).database
    assert_service(service)
    service.execute({"op": "update", "edges": [["c", "e", "a"]]})
    assert_service(service)
    # `node` as a user's unary relation: the domain relation stands in for it
    # in `prepared`, the user's own rows stay in `database`.
    service.execute({"op": "update", "nodes": [["a", "node"], ["z", "node"]]})
    assert_service(service)
    image = service.images.at(*service.store.snapshot_versioned())
    assert image.database.facts("node") == {("a",), ("z",)}
    assert image.prepared.facts("node") == {("a",), ("c",), ("z",)}  # b left with its edges
    assert service.images.stats()["fallbacks"] == {}


def test_a_user_relation_node_of_another_arity_fails_graphlog_only():
    service = QueryService(store=HAMStore())
    service.execute({"op": "update", "edges": [["a", "e", "b"]]})
    assert_service(service)
    service.execute({"op": "update", "edges": [["a", "node", "b"]]})
    program = "r(X, Y) :- node(X, Y)."
    response = service.execute({"op": "datalog", "query": program})
    assert response["result"]["relations"]["r"] == [["a", "b"]]
    with pytest.raises(ArityError):
        service.execute({"op": "graphlog", "query": STARRED})
    service.execute({"op": "update", "remove_edges": [["a", "node", "b"]]})
    assert_service(service)


def test_an_arity_conflict_falls_back_and_recovers_with_the_store():
    store = HAMStore()
    images = StoreImages(store)
    with store.session().transaction() as txn:
        txn.add_edge("a", "b", "e")
        txn.add_edge("b", "c", "f")
        txn.add_edge("c", "d", "f")
    images.at(*store.snapshot_versioned())
    with store.session().transaction() as txn:
        txn.add_edge("a", "b", EdgeLabel("e", (1,)))  # e/3 beside e/2
    with pytest.raises(ArityError):
        images.at(*store.snapshot_versioned())
    assert images.stats()["fallbacks"] == {"arity_conflict": 1}
    with store.session().transaction() as txn:
        txn.remove_edge("a", "b", EdgeLabel("e", (1,)))
    version, graph = store.snapshot_versioned()
    assert_image(images.at(version, graph), graph)


# ------------------------------------------- replica, truncation, recovery, …


def wire_copy(record):
    return record_from_json(json.loads(json.dumps(record_to_json(record))))


@pytest.mark.parametrize("seed", range(12))
def test_a_replica_fed_by_apply_replicated_folds_the_same_image(seed):
    rng = random.Random(1000 + seed)
    primary = HAMStore()
    replica = QueryService(store=HAMStore())
    replica.store.set_read_only(True)
    for _ in range(8):
        if random_commit(rng, primary):
            replica.store.apply_replicated(wire_copy(primary.records_since(primary.version - 1)[0]))
        assert replica.store.graph == primary.graph
        assert_service(replica)
    stats = replica.images.stats()
    assert stats["folds"] > 0 and set(stats["fallbacks"]) <= {"large_delta"}


@pytest.mark.parametrize("seed", range(6))
def test_truncated_history_folds_while_it_covers_the_image_and_rebuilds_after(seed):
    rng = random.Random(2000 + seed)
    service = QueryService(store=HAMStore())
    service.execute({"op": "update", "edges": [[n, "e", m] for n in NODES for m in NODES[:3]]})
    assert_service(service)
    # Truncating *behind* the image leaves every record the fold needs.
    service.store.truncate_history(keep_last=0)
    while not random_commit(rng, service.store):
        pass
    assert_service(service)
    assert service.images.stats()["fallbacks"] == {}
    # Truncating *past* it (two commits nobody evaluated between) does not.
    for _ in range(2):
        while not random_commit(rng, service.store):
            pass
    service.store.truncate_history(keep_last=1)
    assert_service(service)
    assert service.images.stats()["fallbacks"] == {"history_truncated": 1}
    while not random_commit(rng, service.store):
        pass
    assert_service(service)
    assert service.images.stats()["builds"] == 2


@pytest.mark.parametrize("seed", range(4))
def test_after_recovery_from_a_checkpoint(tmp_path, seed):
    rng = random.Random(3000 + seed)
    config = ServiceConfig(data_dir=str(tmp_path), fsync="off")
    service = QueryService(config=config)
    for _ in range(4):
        random_commit(rng, service.store)
    service.execute({"op": "checkpoint"})
    for _ in range(3):
        random_commit(rng, service.store)
    assert_service(service)
    expected = service_answers(service)
    version = service.store.version
    service.close()
    recovered = QueryService(config=config)
    try:
        assert recovered.store.version == version
        assert service_answers(recovered) == expected
        assert_service(recovered)
        for _ in range(4):  # records replayed from the WAL carry their deltas
            random_commit(rng, recovered.store)
            assert_service(recovered)
        stats = recovered.images.stats()
        assert stats["builds"] == 1 + sum(stats["fallbacks"].values())
        assert set(stats["fallbacks"]) <= {"large_delta"}
    finally:
        recovered.close()


def test_a_record_without_a_delta_forces_a_rebuild():
    store = HAMStore()
    images = StoreImages(store)
    with store.session().transaction() as txn:
        txn.add_edge("a", "b", "e")
    images.at(*store.snapshot_versioned())
    with store.session().transaction() as txn:
        txn.add_edge("b", "c", "e")
    store.records_since(1)[0].delta = None
    version, graph = store.snapshot_versioned()
    assert_image(images.at(version, graph), graph)
    assert images.stats()["fallbacks"] == {"no_delta": 1}


def test_a_forced_rebootstrap_takes_and_counts_the_fallback():
    service = QueryService(store=HAMStore())
    service.execute({"op": "update", "edges": [["a", "e", "b"], ["b", "f", "c"], ["n0", "e", "c"]]})
    service.execute({"op": "update", "edges": [["c", "e", "d"]]})
    assert_service(service)
    # What ReplicaApplier does on divergence: swap in another history at a
    # *lower* version, then fire the re-bootstrap callbacks.
    other = HAMStore()
    with other.session().transaction() as txn:
        txn.add_edge("x", "n0", "e")
        txn.add_edge("x", "y", "f")
    service.store.replace_state(other.graph, 1, 1, epoch=other.epoch)
    service._on_rebootstrap()
    assert service.images.stats()["version"] is None
    assert_service(service)
    stats = service.images.stats()
    assert stats["fallbacks"] == {"rebootstrap": 1} and stats["builds"] == 2
    service.store.apply_replicated(_record_after(other, lambda txn: txn.add_edge("y", "z", "e")))
    assert_service(service)
    stats = service.images.stats()
    assert stats["folds"] == 1 and stats["builds"] == 2  # folding resumes


def _record_after(store, edit):
    with store.session().transaction() as txn:
        edit(txn)
    return wire_copy(store.records_since(store.version - 1)[0])


def test_a_reader_pinned_to_an_older_version_gets_its_own_unpublished_build():
    store = HAMStore()
    images = StoreImages(store)
    with store.session().transaction() as txn:
        txn.add_edge("a", "b", "e")
    old = store.snapshot_versioned()
    with store.session().transaction() as txn:
        txn.add_edge("b", "c", "e")
    new = store.snapshot_versioned()
    published = images.at(*new)
    pinned = images.at(*old)
    assert_image(pinned, old[1])
    assert pinned.catalog is not published.catalog
    assert images.at(*new) is published
    assert images.stats()["fallbacks"] == {"older_version": 1}


# --------------------------------------------------------------- concurrency


def test_eight_readers_at_u_while_commits_advance_to_u_plus_k():
    store = HAMStore()
    with store.session().transaction() as txn:
        for i in range(30):
            txn.add_edge(f"k{i}", f"k{i + 1}", "keep")  # never touched again
            txn.add_edge(f"k{i}", f"k{(i * 7) % 30}", "e")
            txn.add_edge(f"k{i}", f"k{(i * 11) % 30}", "f")
    images = StoreImages(store)
    version, graph = store.snapshot_versioned()
    pinned = images.at(version, graph)
    program = parse_program(NEGATION + "far(X, Y) :- keep(X, Z), keep(Z, Y).\n")
    expected = Engine(method="naive").evaluate(program, database_from_graph(graph))
    keep = encode_database(pinned.prepared).relations["keep"]
    keep_index = keep.index((0,))
    stop = threading.Event()
    failures = []

    def reader():
        try:
            while not stop.is_set():
                result = Engine(method="columnar", check_safety=False).evaluate(
                    program, pinned.prepared
                )
                for predicate in ("indirect", "far"):
                    assert result.facts(predicate) == expected.facts(predicate)
        except Exception as exc:  # noqa: BLE001 — reported by the main thread
            failures.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    threads = [threading.Thread(target=reader) for _ in range(8)]
    try:
        for thread in threads:
            thread.start()
        for k in range(40):
            with store.session().transaction() as txn:
                if k % 2 == 0:
                    txn.add_edge(f"new{k}", "k3", "e")
                    txn.add_edge(f"new{k}", "k5", "f")
                else:
                    txn.remove_edge(f"new{k - 1}", "k3", "e")
                    txn.remove_edge(f"new{k - 1}", "k5", "f")
            latest = store.snapshot_versioned()
            assert_image(images.at(*latest), latest[1])
    finally:
        stop.set()
        for thread in threads:
            thread.join(timeout=60)
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not failures, failures
    assert images.stats()["folds"] == 40 and images.stats()["builds"] == 1
    # No torn image: the pinned one still is what it was built as …
    assert_image(pinned, graph)
    # … and structural sharing: the untouched relation, its sealed encoding
    # and that encoding's built index are the *same objects* 40 versions on.
    current = images.at(*store.snapshot_versioned())
    assert current.database.relation("keep") is pinned.database.relation("keep")
    assert current.prepared.relation("keep") is pinned.prepared.relation("keep")
    assert current.database.relation("e") is not pinned.database.relation("e")
    for database in (current.database, current.prepared):
        assert encode_database(database).relations["keep"] is keep
    assert keep.index((0,)) is keep_index
    assert images.stats()["shared_relations"] >= 1


# ------------------------------------------------------------ rpq, the bound


def test_an_rpq_only_service_never_builds_an_image():
    # Each RPQ is read once: a re-read one would be promoted to a view,
    # which reads the image like any other (test_service.py).
    service = QueryService(store=HAMStore())
    for i in range(5):
        service.execute({"op": "update", "edges": [[f"a{i}", "e", f"a{i + 1}"]]})
        query = f"e+ | unused{i}"
        response = service.execute({"op": "rpq", "query": query, "source": "a0"})
        assert response["cache"] == "miss"
        assert len(response["result"]["relations"]["answers"]) == i + 1
    service.execute({"op": "explain", "target": "rpq", "query": "e+"})
    stats = service.stats()
    assert stats["edb"] == {
        "version": None, "builds": 0, "folds": 0, "folded_rows": 0,
        "fallbacks": {}, "shared_relations": 0, "catalog_terms": 0,
    }
    assert "edb" not in stats["metrics"]["phases"]
    assert not service.plans.get("rpq", "e+").reads_relations
    assert service.plans.get("datalog", "r(X) :- e(X, X).").reads_relations


def _never_repeating_names(service, reread, terms):
    """400 × (replace the edge between a fresh pair of names, read the
    closure — the same query if *reread*, else one never asked before): the
    live domain stays at 8 values while 800 names pass through the store.
    Returns the peak of ``terms()``."""
    service.execute({"op": "update", "edges": [[f"h{i}", "e", f"h{i + 1}"] for i in range(5)]})
    peak = 0
    for i in range(400):
        update = {"op": "update", "edges": [[f"x{i}", "e", f"y{i}"]]}
        if i:
            update["remove_edges"] = [[f"x{i - 1}", "e", f"y{i - 1}"]]
        service.execute(update)
        head = "r" if reread else f"r{i}"
        query = f"define (X) -[{head}]-> (Y) {{ (X) -[e+]-> (Y); }}"
        response = service.execute({"op": "graphlog", "query": query})
        rows = response["result"]["relations"][head]
        assert [f"x{i}", f"y{i}"] in rows and len(rows) == 15 + 1
        peak = max(peak, terms())
    return peak


def test_the_catalog_stays_bounded_under_never_repeating_names():
    # Never re-read: a re-read would become a maintained entry after the
    # first commit and stop folding the image (see the next test).
    service = QueryService(store=HAMStore())
    peak = _never_repeating_names(
        service, False, lambda: service.stats()["edb"]["catalog_terms"]
    )
    stats = service.stats()["edb"]
    live = 8
    assert peak <= 2 * live + _CATALOG_SLACK + 4  # + the fold that tips it over
    assert stats["fallbacks"] == {"catalog_bloat": stats["builds"] - 1}
    assert 5 <= stats["builds"] <= 20 and stats["folds"] > 350
    assert_service(service)


def test_a_maintained_entry_sheds_its_catalog_by_the_same_rule():
    service = QueryService(store=HAMStore())

    def view_terms():
        (view,) = service.subs._views_by_key.values() or (None,)
        return len(view.state.catalog) if view is not None else 0

    peak = _never_repeating_names(service, True, view_terms)
    stats = service.stats()
    assert stats["result_cache"]["maintained"] == 1
    assert stats["result_cache"]["promotions"] == 1
    assert stats["metrics"]["phases"]["evaluate"]["count"] == 2  # the miss, the promotion
    assert stats["metrics"]["phases"]["edb"]["count"] == 2
    assert 0 < peak <= 2 * 8 + _CATALOG_SLACK + 4
    assert_service(service)


# ------------------------------------------------------------- observability


def test_stats_phase_and_metrics_describe_the_image():
    service = QueryService(store=HAMStore())
    # A key read again after a commit dropped its answer is promoted to a
    # maintained entry and stops asking for the image: each commit below is
    # followed by a key not asked before.
    def query(predicate):
        return {"op": "datalog", "query": NEGATION, "predicate": predicate}

    service.execute({"op": "update", "edges": [["a", "e", "b"], ["b", "f", "c"], ["b", "e", "c"]]})
    service.execute(query("conn"))
    service.execute({"op": "update", "edges": [["c", "e", "d"]]})
    service.execute(query("indirect"))
    service.execute(query("indirect"))  # a hit: no image lookup
    stats = service.stats()
    assert stats["edb"] == {
        "version": 2, "builds": 1, "folds": 1, "folded_rows": 1, "fallbacks": {},
        "shared_relations": 1, "catalog_terms": stats["edb"]["catalog_terms"],
    }
    assert stats["edb"]["catalog_terms"] >= 4
    assert stats["metrics"]["phases"]["edb"]["count"] == 2
    assert stats["metrics"]["phases"]["evaluate"]["count"] == 2
    service.store.truncate_history()
    service.execute({"op": "update", "edges": [["d", "e", "a"]]})
    service.execute({"op": "update", "edges": [["d", "f", "a"]]})
    service.store.truncate_history(keep_last=1)
    service.execute(query("leg"))
    text = service.prometheus_text()
    for line in (
        "repro_edb_version 4",
        "repro_edb_builds_total 2",
        "repro_edb_folds_total 1",
        "repro_edb_folded_rows_total 1",
        "repro_edb_shared_relations 0",
        'repro_edb_fallbacks_total{reason="history_truncated"} 1',
        'repro_phase_seconds_count{phase="edb"} 3',
    ):
        assert line in text.splitlines(), line
    assert "repro_edb_catalog_terms " in text
    explain = service.execute({"op": "explain", "target": "datalog", "query": NEGATION})
    evaluate = next(
        child for child in explain["result"]["trace"]["children"] if child["name"] == "evaluate"
    )
    assert [child["name"] for child in evaluate["children"]][0] == "edb"


def test_before_the_first_image_the_version_gauge_reads_minus_one():
    service = QueryService(store=HAMStore())
    assert "repro_edb_version -1" in service.prometheus_text().splitlines()


# ------------------------------------------------------------------ the parts


def test_database_patched_shares_what_the_delta_does_not_name():
    base = Database.from_facts({"p": [(1, 2), (2, 3)], "q": [(1,)], "r": [("x", "y")]})
    base.relation("q").lookup((0,), (1,))
    index = base.relation("p").lookup((0,), (1,)) and base.relation("p")._indexes[(0,)]
    patched = base.patched({"p": {(3, 4)}, "s": {(9,)}}, {"p": {(1, 2)}, "r": {("x", "y")}})
    assert patched.to_dict() == {"p": [(2, 3), (3, 4)], "q": [(1,)], "s": [(9,)]}
    assert "r" not in patched  # emptied: dropped, as if never declared
    assert patched.relation("q") is base.relation("q")
    assert base.to_dict() == {"p": [(1, 2), (2, 3)], "q": [(1,)], "r": [("x", "y")]}
    assert base.relation("p")._indexes[(0,)] is index
    assert patched.relation("p").lookup((0,), (3,)) == {(3, 4)}
    with pytest.raises(ArityError):
        base.patched({"p": {(1, 2, 3)}}, {})
    swapped = base.with_relation(patched.relation("p"))
    assert swapped.relation("p") is patched.relation("p")
    assert swapped.relation("q") is base.relation("q") and base.facts("p") == {(1, 2), (2, 3)}


def test_encoded_database_patched_mirrors_database_patched():
    base = Database.from_facts({"p": [(1, 2), (2, 3), (5, 6)], "q": [("a",)], "r": [("x", "y")]})
    encoded = encode_database(base)
    q_index = encoded.relations["q"].index((0,))
    insertions = {"p": {(3, 4), (0, 1)}, "s": {("new",)}}
    deletions = {"p": {(2, 3)}, "r": {("x", "y")}, "gone": {(7,)}}
    successor = base.patched(insertions, deletions)
    derived = encode_database(successor, encoded=encoded.patched(insertions, deletions))
    assert assert_encoding(successor) is derived
    assert derived.catalog is encoded.catalog
    assert derived.relations["q"] is encoded.relations["q"]
    assert derived.relations["q"].index((0,)) is q_index
    assert len(derived.relations["p"]) == 4
    assert assert_encoding(base) is encoded  # the predecessor is untouched
    program = parse_program("t(X, Z) :- p(X, Y), p(Y, Z).")
    assert Engine(method="columnar").evaluate(program, successor).facts("t") == {(0, 2)}


def test_net_delta_cancels_across_commits():
    first, second, third = Delta(), Delta(), Delta()
    first.insert("p", (1, 2))
    first.insert("p", (2, 3))
    first.add_node("n")
    second.delete("p", (1, 2))
    second.delete("q", ("old",))
    second.remove_node("n")
    third.insert("q", ("old",))
    third.insert("p", (1, 2))
    assert net_delta([first]) is first
    net = net_delta([first, second, third])
    assert dict(net.insertions) == {"p": {(1, 2), (2, 3)}}
    assert not net.deletions and not net.nodes_added and not net.nodes_removed


def test_fold_domain_refs_reports_first_and_last_occurrences():
    database = Database.from_facts({"p": [("a", "b"), ("b", "c")], "q": [("a",)]})
    refs = domain_refs(database)
    assert refs == {"a": 2, "b": 2, "c": 1}
    delta = Delta()
    delta.delete("p", ("b", "c"))
    delta.insert("p", ("a", "d"))
    delta.insert("q", ("d",))
    assert fold_domain_refs(refs, delta) == ({"d"}, {"c"})
    assert refs == {"a": 3, "b": 1, "d": 2}
    assert set(refs) == database.patched(delta.insertions, delta.deletions).active_domain()


def test_store_image_build_is_the_one_constructor():
    store = HAMStore()
    with store.session().transaction() as txn:
        txn.add_edge("a", "b", "e")
        txn.add_node("lonely")  # no fact mentions it: not in the domain
    image = StoreImage.build(*store.snapshot_versioned())
    assert_image(image, store.graph)
    assert image.prepared.facts("node") == {("a",), ("b",)}
    empty = StoreImage.build(0, HAMStore().graph)
    assert empty.prepared is empty.database and not list(empty.database)
