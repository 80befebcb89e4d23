"""The store's commit log trims itself to a low-water mark.

``HISTORY_WINDOW`` is patched small here so trims happen every few commits.
Every reader of the log — ``graph_at``, ``records_since``, the image fold,
subscription dispatch and catch-up, a replication source's tail — is
checked against a per-version model of the committed edges, on stores with
and without durability, and across WAL recovery of a tail that trims while
it replays.
"""

from __future__ import annotations

import random
import tempfile
import threading
import time

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.errors import StoreError
from repro.ham import store as store_module
from repro.ham.image import StoreImages
from repro.ham.store import HAMStore
from repro.ham.views import MaterializedView
from repro.io import graph_from_json
from repro.persist import DurabilityManager, PersistenceConfig, checkpoint, record_from_json, wal
from repro.replication.primary import ReplicationSource
from repro.service.prepared import PreparedQueryCache
from repro.service.server import QueryService
from repro.subs import SubscriptionManager

W = 2
NODES = 5
REACH = "define (X) -[reach]-> (Y) { (X) -[link+]-> (Y); }"


@pytest.fixture(autouse=True)
def small_window(monkeypatch):
    monkeypatch.setattr(store_module, "HISTORY_WINDOW", W)


def window(store):
    """``(retained_records, base_version)`` from the store's stats."""
    stats = store.stats()
    return stats["retained_records"], stats["base_version"]


def edges_of(graph):
    return frozenset((e.source, e.target) for e in graph.edges)


def closure(edges):
    reach = set(edges)
    while True:
        step = {(a, d) for a, b in reach for c, d in edges if b == c} - reach
        if not step:
            return reach
        reach |= step


class Model:
    """The committed edge set at every version of one store, which holds
    no edges yet."""

    def __init__(self, store):
        self.store = store
        self.at = dict.fromkeys(range(store.version + 1), frozenset())

    def toggle(self, source, target):
        edges = set(self.at[self.store.version])
        with self.store.session().transaction() as txn:
            if (source, target) in edges:
                txn.remove_edge(source, target, "link")
                edges.discard((source, target))
            else:
                txn.add_edge(source, target, "link")
                edges.add((source, target))
        self.at[self.store.version] = frozenset(edges)

    def check_history(self):
        """``graph_at`` and ``records_since`` at every retained version."""
        store = self.store
        retained, base = window(store)
        current = store.version
        assert retained == current - base
        for version in range(base, current + 1):
            assert edges_of(store.graph_at(version)) == self.at[version]
            records = store.records_since(version)
            assert [r.version for r in records] == list(range(version + 1, current + 1))
            for record in records:
                before, after = self.at[record.version - 1], self.at[record.version]
                inserted = {row[:2] for row in record.delta.insertions.get("link", ())}
                deleted = {row[:2] for row in record.delta.deletions.get("link", ())}
                assert (inserted, deleted) == (after - before, before - after)


def nodes_store(store=None):
    store = store if store is not None else HAMStore()
    with store.session().transaction() as txn:
        for node in range(NODES):
            txn.add_node(node)
    return store


def test_trims_in_batches_and_keeps_the_epoch():
    store = nodes_store()
    model, epoch = Model(store), store.epoch
    rng = random.Random(3)
    bases = set()
    for _ in range(40):
        model.toggle(rng.randrange(NODES), rng.randrange(NODES))
        retained, base = window(store)
        assert retained <= 2 * W
        bases.add(base)
    model.check_history()
    assert store.epoch == epoch
    # Every trim drops at least one window's worth of records.
    assert all(b - a >= W for a, b in zip(sorted(bases), sorted(bases)[1:]))
    assert len(bases) > 5


@pytest.mark.parametrize("durable", [False, True], ids=["memory", "durable"])
def test_a_running_hook_holds_the_mark(tmp_path, durable):
    """Commits install while the first one's hook is still running: no
    trim may pass that hook's ``graph_at(record.version - 1)``.  A durable
    store's WAL serves no ``graph_at``: the mark alone keeps that version."""
    if not durable:
        return hold_the_mark(nodes_store())
    manager = DurabilityManager(PersistenceConfig(str(tmp_path), fsync="off"))
    try:
        hold_the_mark(nodes_store(manager.recover()))
    finally:
        manager.close()


def hold_the_mark(store):
    first, release = store.version + 1, threading.Event()
    added, before = {}, {}

    def hook(record):
        if record.version == first:
            release.wait(10)
        added[record.version] = {row[:2] for row in record.delta.insertions["link"]}
        before[record.version] = edges_of(store.graph_at(record.version - 1))

    store.subscribe(hook)

    def commit(target):
        with store.session().transaction() as txn:
            txn.add_edge(0, target, "link")

    threads = []
    deadline = time.monotonic() + 10
    try:
        for target in range(1, 3 * W + 2):
            threads.append(threading.Thread(target=commit, args=(target,)))
            threads[-1].start()
            while store.version < first + target - 1:  # installed, its hooks waiting
                assert time.monotonic() < deadline
                time.sleep(0.001)
        assert window(store)[1] < first
    finally:
        release.set()
    for thread in threads:
        thread.join(10)
    assert not any(thread.is_alive() for thread in threads)
    assert store.stats()["subscriber_failures"] == 0
    for version in sorted(before):
        assert before[version] == set().union(*(added[v] for v in added if v < version))
    commit(3 * W + 2)  # the next install trims what the hooks held
    assert window(store)[1] >= first


@pytest.mark.parametrize("behind", [3, 2], ids=["record_gone", "version_before_gone"])
def test_a_trim_during_catch_up_re_materializes_the_view(monkeypatch, behind):
    """A view caught up from a list of records read outside dispatch: a
    commit installing meanwhile trims up to the dispatched version, past
    what the view's failed maintenance pass re-reads — the record's version
    itself (``StoreError``) or only the one before it (``ViewReset``)."""
    store = nodes_store()
    model = Model(store)
    subs = SubscriptionManager(store, images=StoreImages(store))
    plan = PreparedQueryCache().get("graphlog", REACH)
    params = {"predicate": "reach"}
    rng = random.Random(13)

    def toggle():
        model.toggle(rng.randrange(NODES), rng.randrange(NODES))

    while store.version < 4 * W - 1 - behind:
        toggle()
    view = MaterializedView(plan, subs.images, params, plan.view(params))
    view.refresh()
    for _ in range(behind):  # dispatched while the view materialized
        toggle()

    def failing_pass(delta):
        raise RuntimeError("maintenance pass failed")

    monkeypatch.setattr(view, "_maintain", failing_pass)
    committer = threading.Thread(target=toggle)
    records_since = store.records_since

    def racing_records_since(version):  # the catch-up's read; later ones pass
        monkeypatch.setattr(store, "records_since", records_since)
        records = records_since(version)
        assert records is not None
        installed = store.version + 1
        committer.start()  # its install trims; its hook waits for the lock
        assert store.wait_for_version(installed, timeout=10)
        assert window(store)[1] > version
        return records

    monkeypatch.setattr(store, "records_since", racing_records_since)
    try:
        with subs._lock:
            subs._catch_up_locked(view)
        committer.join(10)
        assert not committer.is_alive()
        assert view.version == store.version
        assert view.rows("reach") == closure(model.at[store.version])
    finally:
        subs.close()


def test_recovered_tail_longer_than_two_windows(tmp_path):
    manager = DurabilityManager(PersistenceConfig(str(tmp_path), fsync="off"))
    store = nodes_store(manager.recover())
    model = Model(store)
    rng = random.Random(11)
    for _ in range(4 * W + 2):
        model.toggle(rng.randrange(NODES), rng.randrange(NODES))
    manager.close()

    manager = DurabilityManager(PersistenceConfig(str(tmp_path), fsync="off"))
    recovered = manager.recover()
    try:
        retained, base = window(recovered)
        # Replay trimmed as it installed: the log holds at most 2W records.
        assert base > 0 and retained <= 2 * W
        model.store = recovered
        model.check_history()
        assert edges_of(recovered.graph) == model.at[recovered.version]
        for version in range(base):
            with pytest.raises(StoreError, match="predates the retained history"):
                recovered.graph_at(version)
    finally:
        manager.close()


def test_below_the_base_a_durable_store_fails_as_a_memory_store_does(tmp_path):
    """Checkpoints and WAL segments on disk serve no ``graph_at``: below
    the base, both stores raise the same :class:`StoreError`."""
    manager = DurabilityManager(PersistenceConfig(str(tmp_path), fsync="off", checkpoint_every=W))
    try:
        stores = [nodes_store(), nodes_store(manager.recover())]
        for store in stores:
            model = Model(store)
            for target in range(1, 2 * NODES):
                model.toggle(0, target % NODES)
            model.check_history()
        assert checkpoint.list_checkpoints(str(tmp_path))
        assert wal.list_segments(manager.wal_dir)
        base = window(stores[0])[1]
        assert base > 1 and window(stores[1])[1] == base
        for version in range(base):
            errors = []
            for store in stores:
                with pytest.raises(StoreError, match="predates the retained history") as info:
                    store.graph_at(version)
                errors.append(str(info.value))
            assert errors[0] == errors[1]
    finally:
        manager.close()


def test_metrics_export_the_retained_window():
    service = QueryService(store=nodes_store())
    try:
        for key in ("edges", "remove_edges"):
            for target in range(1, NODES):
                service.execute({"op": "update", key: [[0, "link", target]]})
        retained, base = window(service.store)
        assert base > 0
        body = service.prometheus_text()
        assert f"repro_store_retained_records {retained}" in body
        assert f"repro_store_base_version {base}" in body
    finally:
        service.close()


class _Sink:
    def notify(self):
        pass


class Replica:
    """A store tailing *source* in process, as the applier does."""

    def __init__(self, source):
        self.source = source
        self.store = HAMStore()
        self.resets = 0
        self.bootstrap()

    def bootstrap(self):
        doc = self.source.bootstrap()
        self.store.replace_state(
            graph_from_json(doc["graph"]), doc["version"], doc["last_txn_id"], epoch=doc["epoch"]
        )

    def tail(self, limit):
        body = self.source.tail(self.store.version, max_records=limit)
        if body.get("reset"):
            self.resets += 1
            self.bootstrap()
            return
        assert body["epoch"] == self.store.epoch
        for payload in body["records"]:
            self.store.apply_replicated(record_from_json(payload))


@pytest.mark.parametrize("checkpoint_every", [0, W])
def test_durable_source_serves_a_lagging_replica_from_the_wal(tmp_path, checkpoint_every):
    """A replica behind the trimmed log reads the WAL.  Once checkpoints
    have pruned the segments behind it too, it is reset and re-bootstraps."""
    manager = DurabilityManager(
        PersistenceConfig(str(tmp_path), fsync="off", checkpoint_every=checkpoint_every)
    )
    try:
        store = nodes_store(manager.recover())
        model = Model(store)
        source = ReplicationSource(store, manager)
        replica = Replica(source)
        cursor = replica.store.version
        rng = random.Random(5)
        for _ in range(4 * W + 2):
            model.toggle(rng.randrange(NODES), rng.randrange(NODES))
        assert window(store)[1] > cursor
        while replica.store.version < store.version:
            replica.tail(3 * W)
        assert replica.resets == (1 if checkpoint_every else 0)
        assert edges_of(replica.store.graph) == model.at[store.version]
    finally:
        manager.close()


OPS = st.lists(
    st.one_of(
        st.tuples(st.just("commit"), st.integers(1, 3 * W), st.randoms(use_true_random=False)),
        st.tuples(st.just("subscribe")),
        st.tuples(st.just("materialize")),
        st.tuples(st.just("catch_up")),
        st.tuples(st.just("image")),
        st.tuples(st.just("tail"), st.integers(0, 1), st.integers(1, 3 * W)),
        st.tuples(st.just("graph_at"), st.integers(0, 4 * W)),
    ),
    min_size=10,
    max_size=40,
)


@settings(
    max_examples=50,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)
@given(ops=OPS, durable=st.booleans())
def test_interleaved_readers_see_the_model(ops, durable):
    with tempfile.TemporaryDirectory() as data_dir:
        manager = None
        if durable:
            manager = DurabilityManager(PersistenceConfig(data_dir, fsync="off"))
            store = nodes_store(manager.recover())
        else:
            store = nodes_store()
        try:
            run_interleaving(store, manager, ops)
        finally:
            if manager is not None:
                manager.close()


def run_interleaving(store, manager, ops):
    model, epoch = Model(store), store.epoch
    images = StoreImages(store)
    subs = SubscriptionManager(store, images=images)
    plan = PreparedQueryCache().get("graphlog", REACH)
    source = ReplicationSource(store, manager)
    replicas = [Replica(source), Replica(source)]
    subscribers, pending = [], []
    try:
        for op in ops:
            version = store.version
            if op[0] == "commit":
                for _ in range(op[1]):
                    model.toggle(op[2].randrange(NODES), op[2].randrange(NODES))
                    assert window(store)[0] <= 2 * W
            elif op[0] == "subscribe" and len(subscribers) < 2:
                sink = _Sink()
                _sub, snapshot, at = subs.subscribe(plan, {"predicate": "reach"}, sink)
                assert snapshot["reach"] == closure(model.at[at])
                subscribers.append((sink, set(snapshot["reach"])))
            elif op[0] == "materialize":
                # A view materialized outside the manager's lock, as a new
                # subscription's is, and caught up later.
                params = {"predicate": "reach"}
                view = MaterializedView(plan, images, params, plan.view(params))
                view.refresh()
                pending.append(view)
            elif op[0] == "catch_up" and pending:
                view = pending.pop(0)
                with subs._lock:
                    subs._catch_up_locked(view)
                assert view.version == store.version
                assert view.rows("reach") == closure(model.at[store.version])
            elif op[0] == "image":
                image = images.at(*store.snapshot_versioned())
                link = image.facts.relations.get("link")
                rows = set(map(image.catalog.decode_row, link.rows)) if link is not None else set()
                assert rows == model.at[version]
            elif op[0] == "tail":
                replica = replicas[op[1]]
                cursor = replica.store.version
                resets = replica.resets
                replica.tail(op[2])
                if replica.resets > resets:
                    # Only a replica a whole window behind may be reset.
                    assert manager is None and cursor < version - W
                assert edges_of(replica.store.graph) == model.at[replica.store.version]
            elif op[0] == "graph_at":
                base = window(store)[1]
                target = base + op[1] % (version - base + 1)
                assert edges_of(store.graph_at(target)) == model.at[target]
        for sink, rows in subscribers:
            frames, _disconnect = subs.drain(sink)
            for frame in frames:
                if frame["frame"] == "delta":
                    rows -= {tuple(r) for r in frame.get("deleted", {}).get("reach", ())}
                    rows |= {tuple(r) for r in frame.get("inserted", {}).get("reach", ())}
                else:
                    rows = {tuple(r) for r in frame["snapshot"]["reach"]}
            assert rows == closure(model.at[store.version])
        model.check_history()
        assert store.epoch == epoch
        assert store.stats()["subscriber_failures"] == 0
    finally:
        subs.close()

