"""The store's relational image: fold ≡ rebuild, through every path.

The oracle is what the image replaced and what survives outside the
service: ``database_from_graph`` + ``prepare_database`` for the image
itself, read back through its catalog, and ``Engine(method="naive")`` for
the answers evaluated over it.
"""

from __future__ import annotations

import json
import random
import sys
import threading

import pytest

from repro.core.dsl import parse_graphical_query
from repro.core.engine import GraphLogEngine, prepare_database
from repro.datalog.columnar import EncodedDatabase
from repro.datalog.database import Database
from repro.datalog.engine import Engine
from repro.datalog.parser import parse_program
from repro.errors import ArityError, StoreError
from repro.graphs.bridge import EdgeLabel, GraphSchema, database_from_graph
from repro.graphs.multigraph import LabeledMultigraph
from repro.ham import store as store_module
from repro.ham.delta import Delta, domain_refs, fact_counts, fold_domain_refs, net_delta
from repro.ham.image import _CATALOG_SLACK, StoreImage, StoreImages
from repro.ham.store import HAMStore, _Op, derive_version
from repro.persist.serde import record_from_json, record_to_json
from repro.rpq.evaluate import RPQEvaluator
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


def record(txn, model, kind, *args):
    """Record one operation on *txn*, applying it to *model* first: the
    graph the transaction's operations make of the version it began on,
    which a generator reads to pick a valid next operation (a transaction
    holds its operations, not a graph)."""
    _Op(kind, *args).apply(model)
    getattr(txn, kind)(*args)


def random_commit(rng, store):
    """Commit one random transaction (1–3 operations); False when it
    conflicted and nothing was committed."""
    graph = store.graph
    model = derive_version(graph)
    session = store.session()
    try:
        with session.transaction() as txn:
            for _ in range(rng.randint(1, 3)):
                edges = list(model.edges)
                nodes = list(model.nodes)
                kind = rng.random()
                if kind < 0.40 or not nodes:
                    # Parallel copies of one fact arise on their own: "e" and
                    # EdgeLabel("e") encode the same tuple.
                    record(
                        txn, model, "add_edge",
                        rng.choice(NODES), rng.choice(NODES), rng.choice(EDGE_LABELS),
                    )
                elif kind < 0.60 and edges:
                    edge = rng.choice(edges)
                    record(txn, model, "remove_edge", edge.source, edge.target, edge.label)
                elif kind < 0.75:
                    record(txn, model, "set_node_label", rng.choice(nodes), rng.choice(NODE_LABELS))
                elif kind < 0.85:
                    record(txn, model, "add_node", rng.choice(NODES), rng.choice(NODE_LABELS))
                elif kind < 0.93:
                    # With its incident edges.
                    record(txn, model, "remove_node", rng.choice(nodes))
                elif edges:
                    # Empty one relation outright; later adds refill it.
                    predicate = _predicate(rng.choice(edges).label)
                    for edge in edges:
                        if _predicate(edge.label) == predicate:
                            record(txn, model, "remove_edge", edge.source, edge.target, edge.label)
    except StoreError:
        assert store.graph is graph
        return False
    return True


def _predicate(label):
    return label.predicate if isinstance(label, EdgeLabel) else str(label)


# ------------------------------------------------------------------- oracles


def decoded(encoded):
    """The sealed *encoded* relations, read back as a ``Database`` of values
    (each relation's rows and membership set agreeing)."""
    database = Database()
    for name, relation in encoded.relations.items():
        assert relation.sealed and relation.keys == set(relation.rows)
        assert len(relation.keys) == len(relation.rows)
        rows = map(encoded.catalog.decode_row, relation.rows)
        database.relation(name, relation.arity).add_many(rows)
    return database


def assert_image(image, graph):
    """*image* is what building from *graph* gives: facts, domain, ints."""
    database = database_from_graph(graph)
    facts = decoded(image.facts)
    assert facts == database
    assert set(facts) == set(database)  # no emptied relation lingers
    try:
        prepared = prepare_database(database)
    except ArityError:
        with pytest.raises(ArityError):
            image.edb(parse_program(NEGATION))
        return
    assert decoded(image.prepared) == prepared
    assert {v for (v,) in decoded(image.prepared).facts("node")} == database.active_domain()
    assert image.prepared.catalog is image.facts.catalog
    for name, relation in image.facts.relations.items():
        if name != "node":
            assert image.prepared.relations[name] is relation


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
    assert "e" not in service.images.at(*service.store.snapshot_versioned()).facts.relations
    assert_service(service)
    service.execute({"op": "update", "edges": [["c", "e", "a"]]})
    assert_service(service)
    # `node` as a user's unary relation: the domain relation stands in for it
    # in `prepared`, the user's own rows stay in `facts`.
    service.execute({"op": "update", "nodes": [["a", "node"], ["z", "node"]]})
    assert_service(service)
    image = service.images.at(*service.store.snapshot_versioned())
    assert decoded(image.facts).facts("node") == {("a",), ("z",)}
    assert decoded(image.prepared).facts("node") == {("a",), ("c",), ("z",)}  # b left with its edges
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
def test_truncated_history_folds_while_it_covers_the_image_and_rebuilds_after(seed, monkeypatch):
    monkeypatch.setattr(store_module, "HISTORY_WINDOW", 2)
    rng = random.Random(2000 + seed)
    service = QueryService(store=HAMStore())
    service.execute({"op": "update", "edges": [[n, "e", m] for n in NODES for m in NODES[:3]]})
    assert_service(service)
    # Trims *behind* the image leave every record the fold needs.
    while service.store.stats()["base_version"] < 4:
        random_commit(rng, service.store)
        assert_service(service)
    # A commit larger than the image may still rebuild it (large_delta),
    # but no trim behind the image does.
    assert set(service.images.stats()["fallbacks"]) <= {"large_delta"}
    # A trim *past* it (commits nobody evaluated between) does not.
    evaluated = service.images.stats()["version"]
    while service.store.stats()["base_version"] <= evaluated:
        random_commit(rng, service.store)
    assert_service(service)
    before = service.images.stats()
    assert before["fallbacks"]["history_truncated"] == 1
    assert set(before["fallbacks"]) <= {"history_truncated", "large_delta"}
    # The rebuilt image folds the next commit (one edge) again.
    with service.store.session().transaction() as txn:
        txn.add_edge("n0", "n1", "e")
    assert_service(service)
    stats = service.images.stats()
    assert stats["folds"] == before["folds"] + 1
    assert stats["builds"] == before["builds"] == 1 + sum(before["fallbacks"].values())
    assert stats["fallbacks"] == before["fallbacks"]


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
    keep = pinned.prepared.relations["keep"]
    keep_index = keep.index((0,))
    stop = threading.Event()
    failures = []

    def reader():
        try:
            while not stop.is_set():
                result = Engine(method="columnar", check_safety=False).answer(
                    program, pinned.prepared, ("indirect", "far")
                )
                for predicate in ("indirect", "far"):
                    assert result[predicate] == expected.facts(predicate)
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
    # … and structural sharing: the untouched relation and its built index
    # are the *same objects* 40 versions on.
    current = images.at(*store.snapshot_versioned())
    assert current.facts.relations["keep"] is keep
    assert current.prepared.relations["keep"] is keep
    assert current.facts.relations["e"] is not pinned.facts.relations["e"]
    assert keep.index((0,)) is keep_index
    assert images.stats()["shared_relations"] >= 1


# ------------------------------------------------------------ rpq, the bound


def test_rpq_misses_read_the_image_like_any_other_plan():
    # Each RPQ is read once, so each is a miss: the first builds the image
    # and every later one folds the commit before it.  A nullable RPQ with
    # no source is the graph's to answer (its isolated node pairs with
    # itself) and reads no image.
    service = QueryService(store=HAMStore())
    service.execute({"op": "update", "nodes": ["lone"]})
    response = service.execute({"op": "rpq", "query": "e*"})
    assert ["lone", "lone"] in response["result"]["relations"]["answers"]
    assert service.stats()["edb"]["builds"] == 0
    for i in range(5):
        service.execute({"op": "update", "edges": [[f"a{i}", "e", f"a{i + 1}"]]})
        query = f"e+ | unused{i}"
        response = service.execute({"op": "rpq", "query": query, "source": "a0"})
        assert response["cache"] == "miss"
        assert len(response["result"]["relations"]["answers"]) == i + 1
    stats = service.stats()
    edb = stats["edb"]
    assert (edb["version"], edb["builds"], edb["folds"], edb["fallbacks"]) == (6, 1, 4, {})
    assert stats["metrics"]["phases"]["edb"]["count"] == 6


def _rpq_answers(service, query, **params):
    response = service.execute({"op": "rpq", "query": query, **params})
    assert response["cache"] == "miss"
    return response["result"]["relations"]["answers"]


def _wire_pairs(pairs):
    """``RPQEvaluator.pairs`` as a response lists them (tuples as lists)."""
    listed = lambda node: list(node) if isinstance(node, tuple) else node  # noqa: E731
    return sorted(([listed(s), listed(t)] for s, t in pairs), key=repr)


def test_rpq_misses_over_tuple_nodes_walk_the_graph():
    # A tuple node spreads over several columns of its edges' rows: the
    # edge ("a", "b") -m-> "c" is the row ("a", "b", "c"), which the image
    # search would read as a -m-> b, and ("y",) -m-> "w" has the row of
    # "y" -m-> "w".  A store built with such nodes, or one a commit folded
    # into the image, answers its RPQ misses from the graph.
    store = HAMStore()
    store.load_database(
        Database.from_facts({"m": [("a", "b", "c"), ("c", "d", "e")]}),
        GraphSchema().declare("m", 2, 1, 0),
    )
    service = QueryService(store=store)
    answers = _rpq_answers(service, "m+")
    assert sorted(answers, key=repr) == _wire_pairs(RPQEvaluator(store.graph).pairs("m+"))
    assert ["a", "b"] not in answers

    store = HAMStore()
    service = QueryService(store=store)
    service.execute({"op": "update", "edges": [["x", "m", "y"], ["y", "m", "z"]]})
    assert _rpq_answers(service, "m+", source="x") == [["y"], ["z"]]
    with store.session().transaction() as txn:
        txn.add_edge(("y",), "w", EdgeLabel("m"))  # the row ("y", "w")
    assert _rpq_answers(service, "m | m.m", source="x") == [["y"], ["z"]]
    edb = service.stats()["edb"]
    assert (edb["builds"], edb["folds"], edb["fallbacks"]) == (1, 1, {})


def test_a_store_with_no_image_does_not_rebuild_it_per_rpq_miss(monkeypatch):
    # A label at two arities leaves the store no image: the first RPQ miss
    # at a version tries the build and the graph answers; later misses at
    # that version go straight to the graph, and a commit tries once more.
    store = HAMStore()
    service = QueryService(store=store)
    service.execute({"op": "update", "edges": [["a", "e", "b"]]})
    service.execute({"op": "rpq", "query": "e", "source": "a"})
    with store.session().transaction() as txn:
        txn.add_edge("b", "c", EdgeLabel("e", (1,)))
    builds = []
    build = StoreImage.build.__func__
    monkeypatch.setattr(
        StoreImage, "build", classmethod(lambda cls, *a: builds.append(a[0]) or build(cls, *a))
    )
    for i in range(3):
        assert _rpq_answers(service, f"e+ | unused{i}", source="a") == [["b"], ["c"]]
    service.execute({"op": "update", "edges": [["c", "e", "d"]]})
    for i in range(3):
        assert _rpq_answers(service, f"e+ | other{i}", source="a") == [["b"], ["c"], ["d"]]
    assert builds == [2, 3]
    # One failed fold per version (a conflict, then a delta too large for
    # the one-row image), not one per miss.
    assert service.stats()["edb"]["fallbacks"] == {"arity_conflict": 1, "large_delta": 1}


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


def test_stats_phase_and_metrics_describe_the_image(monkeypatch):
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
    # With a one-record window, two commits nobody evaluates trim the log
    # past the image's version.
    monkeypatch.setattr(store_module, "HISTORY_WINDOW", 1)
    service.execute({"op": "update", "edges": [["d", "e", "a"]]})
    service.execute({"op": "update", "edges": [["d", "f", "a"]]})
    assert service.store.stats()["base_version"] == 3
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


def test_encoded_database_patched_shares_what_the_delta_does_not_name():
    base = Database.from_facts({"p": [(1, 2), (2, 3), (5, 6)], "q": [("a",)], "r": [("x", "y")]})
    encoded = EncodedDatabase.from_database(base)
    p_index = encoded.relations["p"].index((0,))
    q_index = encoded.relations["q"].index((0,))
    insertions = {"p": {(3, 4), (0, 1)}, "s": {("new",)}}
    deletions = {"p": {(2, 3)}, "r": {("x", "y")}, "gone": {(7,)}}
    derived = encoded.patched(insertions, deletions)
    assert decoded(derived).to_dict() == {
        "p": [(0, 1), (1, 2), (3, 4), (5, 6)], "q": [("a",)], "s": [("new",)]
    }
    assert "r" not in derived.relations  # emptied: dropped, as if never declared
    assert "gone" not in derived.relations
    assert derived.catalog is encoded.catalog
    assert derived.relations["q"] is encoded.relations["q"]
    assert derived.relations["q"].index((0,)) is q_index
    # The predecessor is untouched, built indexes included.
    assert decoded(encoded) == base and set(decoded(encoded)) == set(base)
    assert encoded.relations["p"].index((0,)) is p_index
    with pytest.raises(ArityError):
        encoded.patched({"p": {(1, 2, 3)}}, {})
    with pytest.raises(ArityError):  # a new relation's rows agree too
        encoded.patched({"t": {(1,), (1, 2)}}, {})
    swapped = encoded.with_relation(derived.relations["p"])
    assert swapped.relations["p"] is derived.relations["p"]
    assert swapped.relations["q"] is encoded.relations["q"]
    program = parse_program("t(X, Z) :- p(X, Y), p(Y, Z).")
    assert Engine(method="columnar").answer(program, derived, ["t"]) == {"t": {(0, 2)}}


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
    graph = LabeledMultigraph()
    graph.add_node("a", "q")
    graph.add_edge("a", "b", "p")
    graph.add_edge("a", "b", EdgeLabel("p"))  # a parallel copy is one fact
    graph.add_edge("b", "c", "p")
    database = database_from_graph(graph)
    refs = domain_refs(fact_counts(graph))
    assert refs == {"a": 2, "b": 2, "c": 1}
    delta = Delta()
    delta.delete("p", ("b", "c"))
    delta.insert("p", ("a", "d"))
    delta.insert("q", ("d",))
    assert fold_domain_refs(refs, delta) == ({"d"}, {"c"})
    assert refs == {"a": 3, "b": 1, "d": 2}
    successor = EncodedDatabase.from_database(database).patched(delta.insertions, delta.deletions)
    assert set(refs) == decoded(successor).active_domain()


def test_store_image_build_is_the_one_constructor():
    store = HAMStore()
    with store.session().transaction() as txn:
        txn.add_edge("a", "b", "e")
        txn.add_node("lonely")  # no fact mentions it: not in the domain
    image = StoreImage.build(*store.snapshot_versioned())
    assert_image(image, store.graph)
    assert decoded(image.prepared).facts("node") == {("a",), ("b",)}
    empty = StoreImage.build(0, HAMStore().graph)
    assert not empty.facts.relations and not decoded(empty.prepared).count()
