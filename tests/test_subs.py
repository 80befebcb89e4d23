"""Tests for live query subscriptions (repro.subs and the wire path)."""

from __future__ import annotations

import threading

import pytest

from repro.core.dsl import parse_graphical_query
from repro.core.engine import GraphLogEngine
from repro.errors import NotMaintainable, StoreError, SubscriptionError
from repro.graphs.bridge import EdgeLabel
from repro.graphs.multigraph import LabeledMultigraph
from repro.ham.store import HAMStore
from repro.service.client import ServiceClient
from repro.service.prepared import PreparedQuery, PreparedQueryCache
from repro.service.server import QueryService, ServiceConfig, ServiceServer
from repro.subs import SubscriptionManager

REACH = "define (X) -[reach]-> (Y) { (X) -[link+]-> (Y); }"


class FakeSink:
    """Stands in for a connection's push sink in manager-level tests."""

    def __init__(self):
        self.notifications = 0

    def notify(self):
        self.notifications += 1


def chain_store():
    """a -link-> b -link-> c."""
    graph = LabeledMultigraph()
    for source, target in (("a", "b"), ("b", "c")):
        graph.add_edge(source, target, "link")
    store = HAMStore()
    store.load_graph(graph)
    return store


def add_edge(store, source, target, label="link"):
    with store.session().transaction() as txn:
        txn.add_edge(source, target, label)
    return store.version


def remove_edge(store, source, target, label="link"):
    with store.session().transaction() as txn:
        txn.remove_edge(source, target, label)
    return store.version


@pytest.fixture
def manager():
    store = chain_store()
    mgr = SubscriptionManager(store)
    yield store, mgr, PreparedQueryCache()
    mgr.close()


class TestSubscriptionManager:
    def test_snapshot_then_ordered_deltas_with_deletions(self, manager):
        store, mgr, plans = manager
        sink = FakeSink()
        plan = plans.get("graphlog", REACH)
        sub, snapshot, version = mgr.subscribe(plan, {"predicate": "reach"}, sink)
        assert version == store.version
        assert snapshot == {"reach": {("a", "b"), ("a", "c"), ("b", "c")}}

        v2 = add_edge(store, "c", "d")
        v3 = remove_edge(store, "a", "b")
        assert sink.notifications >= 1
        frames, disconnect = mgr.drain(sink)
        assert not disconnect
        assert [f["version"] for f in frames] == [v2, v3]
        assert all(f["frame"] == "delta" for f in frames)
        assert {tuple(r) for r in frames[0]["inserted"]["reach"]} == {
            ("a", "d"), ("b", "d"), ("c", "d"),
        }
        assert {tuple(r) for r in frames[1]["deleted"]["reach"]} == {
            ("a", "b"), ("a", "c"), ("a", "d"),
        }
        # Drained means drained: nothing left.
        assert mgr.drain(sink) == ([], False)

    def test_one_maintenance_pass_for_a_hundred_subscribers(self, manager):
        store, mgr, plans = manager
        plan = plans.get("graphlog", REACH)
        sinks = [FakeSink() for _ in range(100)]
        for sink in sinks:
            mgr.subscribe(plan, {"predicate": "reach"}, sink)
        stats = mgr.stats()
        assert stats["active_subscriptions"] == 100
        assert stats["shared_views"] == 1

        add_edge(store, "c", "d")
        (view,) = mgr._views_by_key.values()
        assert view.maintenance_passes == 1
        for sink in sinks:
            frames, _ = mgr.drain(sink)
            assert len(frames) == 1 and frames[0]["frame"] == "delta"
        assert mgr.stats()["deltas_pushed"] == 100

    def test_refcount_teardown_on_last_unsubscribe(self, manager):
        store, mgr, plans = manager
        plan = plans.get("graphlog", REACH)
        sink_a, sink_b = FakeSink(), FakeSink()
        sub_a, _, _ = mgr.subscribe(plan, {}, sink_a)
        sub_b, _, _ = mgr.subscribe(plan, {}, sink_b)
        assert mgr.stats()["shared_views"] == 1
        mgr.unsubscribe(sub_a.id, sink_a)
        assert mgr.stats()["shared_views"] == 1
        mgr.unsubscribe(sub_b.id, sink_b)
        stats = mgr.stats()
        assert stats["shared_views"] == 0
        assert stats["active_subscriptions"] == 0
        # Torn down views are not maintained: a commit costs nothing.
        add_edge(store, "x", "y")
        assert mgr.stats()["shared_views"] == 0

    def test_unsubscribe_checks_id_and_sink(self, manager):
        store, mgr, plans = manager
        sink = FakeSink()
        sub, _, _ = mgr.subscribe(plans.get("graphlog", REACH), {}, sink)
        with pytest.raises(SubscriptionError):
            mgr.unsubscribe(999, sink)
        with pytest.raises(SubscriptionError):
            mgr.unsubscribe(sub.id, FakeSink())  # someone else's sink

    def test_drop_sink_releases_everything(self, manager):
        store, mgr, plans = manager
        sink = FakeSink()
        mgr.subscribe(plans.get("graphlog", REACH), {}, sink)
        mgr.subscribe(plans.get("graphlog", REACH), {"predicate": "reach"}, sink)
        mgr.drop_sink(sink)
        stats = mgr.stats()
        assert stats["active_subscriptions"] == 0
        assert stats["shared_views"] == 0
        mgr.drop_sink(sink)  # idempotent

    def test_rpq_subscription_is_maintained(self, manager):
        store, mgr, plans = manager
        plan = plans.get("rpq", "link+")
        sub, snapshot, _ = mgr.subscribe(plan, {}, FakeSink())
        assert (sub.view.mode, sub.view.fallback_reason) == ("maintained", None)
        assert snapshot == {"answers": {("a", "b"), ("a", "c"), ("b", "c")}}
        sub, snapshot, _ = mgr.subscribe(plan, {"source": "b"}, FakeSink())
        assert sub.view.mode == "maintained"
        assert snapshot == {"answers": {("c",)}}
        assert mgr.stats()["shared_views"] == 2  # a bound source seeds a program of its own

    def test_rpq_view_maintains_per_commit(self, manager):
        store, mgr, plans = manager
        sink = FakeSink()
        sub, _, _ = mgr.subscribe(plans.get("rpq", "link+"), {"source": "a"}, sink)
        v2 = add_edge(store, "c", "d")
        v3 = remove_edge(store, "a", "b")
        frames, _ = mgr.drain(sink)
        assert [f["version"] for f in frames] == [v2, v3]
        assert {tuple(r) for r in frames[0]["inserted"]["answers"]} == {("d",)}
        assert {tuple(r) for r in frames[1]["deleted"]["answers"]} == {
            ("b",), ("c",), ("d",),
        }
        stats = sub.view.stats()
        assert (stats["maintenance_passes"], stats["diff_refreshes"]) == (2, 0)

    def test_rpq_sources_are_seeds_of_one_view(self, manager):
        store, mgr, plans = manager
        plan = plans.get("rpq", "link+")
        sinks = {source: FakeSink() for source in ("a", "b")}
        subs = {}
        for source, sink in sinks.items():
            subs[source], snapshot, _ = mgr.subscribe(plan, {"source": source}, sink)
            assert snapshot == {"answers": {("b",), ("c",)} if source == "a" else {("c",)}}
        (view,) = mgr._views_by_key.values()
        assert view.seeds == {"a", "b"}
        v2 = add_edge(store, "c", "d")
        add_edge(store, "x", "y")  # neither source reaches it: no frame
        v4 = remove_edge(store, "a", "b")  # only a's reach set changes
        frames = {source: mgr.drain(sink)[0] for source, sink in sinks.items()}
        assert [f["version"] for f in frames["a"]] == [v2, v4]
        assert [f["version"] for f in frames["b"]] == [v2]
        assert frames["b"][0]["inserted"] == {"answers": [["d"]]}
        assert {tuple(r) for r in frames["a"][1]["deleted"]["answers"]} == {
            ("b",), ("c",), ("d",),
        }
        assert view.maintenance_passes == 3  # one per commit, whatever the sources
        mgr.unsubscribe(subs["a"].id, sinks["a"])
        assert view.seeds == {"b"}
        assert view.rows("answers") == {("b", "c"), ("b", "d")}
        mgr.unsubscribe(subs["b"].id, sinks["b"])
        assert mgr.stats()["shared_views"] == 0

    def test_a_diffing_rpq_view_evaluates_each_seed(self, monkeypatch):
        store = HAMStore()
        mgr = SubscriptionManager(store)
        evaluated = []
        evaluate = PreparedQuery.evaluate

        def counted(plan, graph, image, params):
            evaluated.append(params.get("source"))
            return evaluate(plan, graph, image, params)

        monkeypatch.setattr(PreparedQuery, "evaluate", counted)
        try:
            for a, b, w in (("a", "b", 1), ("b", "c", 2)):
                add_edge(store, a, b, EdgeLabel("hop", (w,)))
            plan = PreparedQueryCache().get("rpq", "hop+")
            sinks = {source: FakeSink() for source in ("a", "b")}
            subs = {}
            for source, sink in sinks.items():
                subs[source], snapshot, _ = mgr.subscribe(
                    plan, {"source": source}, sink, allow_fallback=True
                )
                assert subs[source].view.mode == "diff"
                assert snapshot == {"answers": {("b",), ("c",)} if source == "a" else {("c",)}}
            assert mgr.stats()["shared_views"] == 1
            assert evaluated == ["a", "b"]  # a new seed is evaluated alone
            v3 = remove_edge(store, "a", "b", EdgeLabel("hop", (1,)))
            frames = {source: mgr.drain(sink)[0] for source, sink in sinks.items()}
            assert [f["version"] for f in frames["a"]] == [v3] and frames["b"] == []
            evaluated.clear()
            mgr.unsubscribe(subs["b"].id, sinks["b"])  # b leaving evaluates nothing
            assert evaluated == [] and subs["a"].view.rows("answers") == set()
        finally:
            mgr.close()

    def test_a_reseed_whose_pass_raises_re_materializes(self, manager, monkeypatch):
        store, mgr, plans = manager
        plan = plans.get("rpq", "link+")
        sink = FakeSink()
        sub_a, _, _ = mgr.subscribe(plan, {"source": "a"}, sink)
        view = sub_a.view
        maintain, failed = view.maintenance.maintain, []

        def fails_once(*args, **kwargs):
            if not failed:
                failed.append(True)
                raise RuntimeError("injected")
            return maintain(*args, **kwargs)

        monkeypatch.setattr(view.maintenance, "maintain", fails_once)
        # Seeding b raises mid-pass: the view re-materializes with both seeds.
        sub_b, snapshot, version = mgr.subscribe(plan, {"source": "b"}, sink)
        assert failed and (snapshot, version) == ({"answers": {("c",)}}, store.version)
        assert view.seeds == {"a", "b"} and view.maintenance_errors == 1
        assert view.rows("answers") == {("a", "b"), ("a", "c"), ("b", "c")}
        v = add_edge(store, "c", "d")
        frames = mgr.drain(sink)[0]
        assert [(f["subscription"], f["version"]) for f in frames] == [(sub_a.id, v), (sub_b.id, v)]
        assert all(f["inserted"] == {"answers": [["d"]]} for f in frames)
        assert view.maintenance_passes == 1 and store.stats()["subscriber_failures"] == 0

    def test_rpq_with_no_view_rejected_with_typed_error(self, manager):
        store, mgr, plans = manager
        # Nullable with no source: the automaton pairs every graph node with
        # itself, λ only the active domain.
        plan = plans.get("rpq", "link*")
        with pytest.raises(NotMaintainable) as excinfo:
            mgr.subscribe(plan, {}, FakeSink())
        assert excinfo.value.code == "not_maintainable"
        assert "nullable" in excinfo.value.reason
        assert mgr.stats()["shared_views"] == 0
        sub, snapshot, _ = mgr.subscribe(plan, {}, FakeSink(), allow_fallback=True)
        assert sub.view.mode == "diff"
        assert ("a", "a") in snapshot["answers"]

    @pytest.mark.parametrize(
        "labels, why",
        [
            # λ reads hop/2 where the store holds hop/3.
            ([EdgeLabel("hop", (w,)) for w in (1, 2, 3)], "['hop'] at other arities"),
            # hop/2 beside hop/3: the store has no relational image.
            (["hop", EdgeLabel("hop", (2,)), "hop"], "relation 'hop' has arity"),
        ],
        ids=["label-arguments", "two-arities"],
    )
    def test_rpq_whose_view_the_store_rules_out_diffs(self, labels, why):
        # Found once the view is materialized: it diffs, on the automaton.
        store = HAMStore()
        mgr = SubscriptionManager(store)
        try:
            add_edge(store, "a", "b", labels[0])
            add_edge(store, "b", "c", labels[1])
            plan = PreparedQueryCache().get("rpq", "hop+")
            with pytest.raises(NotMaintainable) as excinfo:
                mgr.subscribe(plan, {"source": "a"}, FakeSink())
            assert why in excinfo.value.reason
            assert mgr.stats()["shared_views"] == 0
            sink = FakeSink()
            sub, snapshot, _ = mgr.subscribe(plan, {"source": "a"}, sink, allow_fallback=True)
            assert (sub.view.mode, sub.view.fallback_reason) == ("diff", excinfo.value.reason)
            assert snapshot == {"answers": {("b",), ("c",)}}
            v3 = add_edge(store, "c", "d", labels[2])
            v4 = remove_edge(store, "a", "b", labels[0])
            frames, _ = mgr.drain(sink)
            assert [f["version"] for f in frames] == [v3, v4]
            assert {tuple(r) for r in frames[0]["inserted"]["answers"]} == {("d",)}
            assert {tuple(r) for r in frames[1]["deleted"]["answers"]} == {
                ("b",), ("c",), ("d",),
            }
            assert sub.view.stats()["diff_refreshes"] == 3
        finally:
            mgr.close()

    def test_renamed_copies_subscribe_to_views_of_their_own(self, manager):
        # A store fact under one copy's head name would feed that copy alone,
        # so subscribers never read a view under other IDB names (a result
        # cache entry may, while no such fact exists: test_service.py).
        store, mgr, plans = manager
        sinks = {name: FakeSink() for name in ("reach", "other")}
        views = set()
        for name, sink in sinks.items():
            plan = plans.get("graphlog", REACH.replace("reach", name))
            sub, snapshot, _ = mgr.subscribe(plan, {}, sink)
            assert snapshot == {name: {("a", "b"), ("a", "c"), ("b", "c")}}
            views.add(sub.view)
        assert len(views) == mgr.stats()["shared_views"] == 2
        add_edge(store, "c", "d")
        for name, sink in sinks.items():
            (frame,), _ = mgr.drain(sink)
            assert {tuple(r) for r in frame["inserted"][name]} == {
                ("a", "d"), ("b", "d"), ("c", "d"),
            }

    def test_irrelevant_commit_pushes_nothing(self, manager):
        store, mgr, plans = manager
        sink = FakeSink()
        mgr.subscribe(plans.get("graphlog", REACH), {"predicate": "reach"}, sink)
        add_edge(store, "p", "q", label="other")
        frames, _ = mgr.drain(sink)
        assert frames == []
        (view,) = mgr._views_by_key.values()
        # The watermark still advanced: a later real delta is not confused
        # with the skipped commit.
        assert view.version == store.version

    def test_overflow_resync_replaces_queue_with_snapshot(self, manager):
        store, mgr, plans = manager
        sink = FakeSink()
        plan = plans.get("graphlog", REACH)
        sub, _, _ = mgr.subscribe(
            plan, {"predicate": "reach"}, sink, queue_max=2, policy="resync"
        )
        for i in range(4):
            add_edge(store, f"n{i}", f"n{i + 1}")
        frames, disconnect = mgr.drain(sink)
        assert not disconnect
        # Queued deltas were dropped, but never silently: one fresh snapshot
        # carries the complete current answer at the latest version.
        assert [f["frame"] for f in frames] == ["snapshot"]
        assert frames[0]["resync"] is True
        assert frames[0]["version"] == store.version
        rows = {tuple(r) for r in frames[0]["relations"]["reach"]}
        assert ("n0", "n4") in rows
        stats = mgr.stats()
        assert stats["overflows"] >= 1 and stats["resyncs"] >= 1

    def test_overflow_disconnect_closes_the_subscription(self, manager):
        store, mgr, plans = manager
        sink = FakeSink()
        plan = plans.get("graphlog", REACH)
        sub, _, _ = mgr.subscribe(
            plan, {"predicate": "reach"}, sink, queue_max=1, policy="disconnect"
        )
        for i in range(3):
            add_edge(store, f"m{i}", f"m{i + 1}")
        frames, disconnect = mgr.drain(sink)
        assert disconnect
        assert frames[-1]["frame"] == "closed"
        assert frames[-1]["reason"] == "overflow"
        assert mgr.stats()["disconnects"] == 1

    @pytest.mark.parametrize("bound", [0, -1])
    def test_a_service_refuses_a_default_queue_bound_below_one(self, bound):
        # Otherwise it starts, and every subscribe that sends no queue_max
        # fails over a field the client never sent.
        with pytest.raises(ValueError, match="queue bound must be >= 1"):
            ServiceConfig(sub_queue_max=bound)
        assert ServiceConfig(sub_queue_max=1).sub_queue_max == 1

    def test_resync_all_marks_every_subscriber(self, manager):
        store, mgr, plans = manager
        sink = FakeSink()
        mgr.subscribe(plans.get("graphlog", REACH), {"predicate": "reach"}, sink)
        mgr.resync_all()
        frames, _ = mgr.drain(sink)
        assert [f["frame"] for f in frames] == ["snapshot"]
        assert mgr.stats()["forced_resyncs"] == 1

    def test_view_reset_resyncs_that_views_subscribers(self, manager, monkeypatch):
        # A failed maintenance pass whose previous version is no longer
        # retained has no delta to report: the subscribers get a snapshot.
        store, mgr, plans = manager
        sink = FakeSink()
        sub, _, _ = mgr.subscribe(plans.get("graphlog", REACH), {}, sink)

        def gone(version):  # the re-materialization at record.version - 1 raises
            raise StoreError(f"version {version} predates the retained history")

        def boom(database, **kwargs):
            raise RuntimeError("boom")

        monkeypatch.setattr(sub.view.maintenance, "maintain", boom)
        monkeypatch.setattr(store, "graph_at", gone)
        version = add_edge(store, "c", "d")
        monkeypatch.undo()
        frames, _ = mgr.drain(sink)
        assert [(f["frame"], f["version"], f.get("resync")) for f in frames] == [
            ("snapshot", version, True)
        ]
        assert {tuple(r) for r in frames[0]["relations"]["reach"]} == {
            ("a", "b"), ("a", "c"), ("a", "d"), ("b", "c"), ("b", "d"), ("c", "d"),
        }
        assert mgr.stats()["forced_resyncs"] == 1
        assert store.stats()["subscriber_failures"] == 0
        remove_edge(store, "c", "d")
        frames, _ = mgr.drain(sink)
        assert [f["frame"] for f in frames] == ["delta"]

    def test_concurrent_commits_never_skip_a_version(self, manager):
        """Deltas arrive exactly once per commit, in version order, even
        when many writer threads race the dispatch hook."""
        store, mgr, plans = manager
        sink = FakeSink()
        sub, snapshot, version = mgr.subscribe(
            plans.get("graphlog", REACH), {"predicate": "reach"}, sink
        )
        base = store.version

        def writer(index):
            for j in range(5):
                add_edge(store, f"w{index}.{j}", f"w{index}.{j + 1}")

        threads = [threading.Thread(target=writer, args=(i,)) for i in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        frames, _ = mgr.drain(sink)
        versions = [f["version"] for f in frames if f["frame"] == "delta"]
        assert versions == list(range(base + 1, base + 21))


class TestQueryServiceSubscribe:
    def test_subscribe_requires_a_streaming_connection(self):
        service = QueryService(store=chain_store())
        try:
            with pytest.raises(SubscriptionError):
                service.execute({"op": "subscribe", "query": REACH})
        finally:
            service.close()

    def test_subscribe_and_stats_block(self):
        service = QueryService(store=chain_store())
        sink = FakeSink()
        try:
            response = service.execute(
                {"op": "subscribe", "query": REACH, "predicate": "reach"},
                sink=sink,
            )
            result = response["result"]
            assert result["mode"] == "maintained"
            assert result["fallback_reason"] is None
            assert result["predicates"] == ["reach"]
            assert {tuple(r) for r in result["snapshot"]["reach"]} == {
                ("a", "b"), ("a", "c"), ("b", "c"),
            }
            stats = service.execute({"op": "stats"})["result"]["subs"]
            assert stats["active_subscriptions"] == 1
            assert stats["shared_views"] == 1
            service.execute(
                {"op": "unsubscribe", "subscription": result["subscription"]},
                sink=sink,
            )
            stats = service.execute({"op": "stats"})["result"]["subs"]
            assert stats["active_subscriptions"] == 0
        finally:
            service.close()

    def test_a_failing_view_is_closed_and_every_other_view_keeps_step(self):
        graph = LabeledMultigraph()
        for source, target, label in (("a", "b", "link"), ("b", "c", "link"), ("a", 1, "weight")):
            graph.add_edge(source, target, label)
        store = HAMStore()
        store.load_graph(graph)
        service = QueryService(store=store)
        weights = {"op": "datalog", "query": "w(X, Z) :- weight(X, Y), Z = Y + 1."}
        sink = FakeSink()
        try:
            failing = service.execute({**weights, "op": "subscribe", "target": "datalog"}, sink=sink)
            reach = service.execute({"op": "subscribe", "query": REACH}, sink=sink)
            # A's answer is also a maintained result-cache entry, pinning its view.
            service.execute(weights)
            add_edge(store, "c", 2, label="weight")
            assert service.execute(weights)["cache"] == "miss"
            assert service.stats()["result_cache"]["maintained"] == 1
            first = store.version
            with store.session().transaction() as txn:
                txn.add_edge("b", "oops", "weight")  # w's arithmetic fails on it
                txn.add_edge("c", "d", "link")
            last = add_edge(store, "d", "e")
            frames, _ = service.subs.drain(sink)
            failing_id = failing["result"]["subscription"]
            assert [(f["frame"], f.get("reason")) for f in frames if f["subscription"] == failing_id] == [
                ("closed", "error")
            ]
            rows = {tuple(r) for r in reach["result"]["snapshot"]["reach"]}
            seen = [reach["version"]]
            for frame in frames:
                if frame["subscription"] != failing_id:
                    assert frame["frame"] == "delta"
                    rows -= {tuple(r) for r in frame["deleted"].get("reach", ())}
                    rows |= {tuple(r) for r in frame["inserted"].get("reach", ())}
                    seen.append(frame["version"])
                    oracle = GraphLogEngine("naive").answers(
                        parse_graphical_query(REACH), store.graph_at(frame["version"]), "reach"
                    )
                    assert rows == oracle
            assert seen[-2:] == [first + 1, last]
            assert ("a", "e") in rows
            stats = service.stats()
            assert stats["subs"]["active_subscriptions"] == 1
            assert stats["subs"]["shared_views"] == 1
            assert (stats["result_cache"]["maintained"], stats["result_cache"]["demotions"]) == (0, 1)
            assert stats["store"]["subscriber_failures"] == 0
        finally:
            service.close()

    def test_update_supports_removals(self):
        service = QueryService(store=chain_store())
        try:
            response = service.execute(
                {"op": "update", "edges": [["c", "link", "d"]],
                 "remove_edges": [["a", "link", "b"]]}
            )
            assert response["result"]["added_edges"] == 1
            assert response["result"]["removed_edges"] == 1
            relations = service.execute(
                {"op": "graphlog", "query": REACH, "predicate": "reach"}
            )["result"]["relations"]
            assert {tuple(r) for r in relations["reach"]} == {
                ("b", "c"), ("b", "d"), ("c", "d"),
            }
        finally:
            service.close()


class TestStoreSubscriberDispatch:
    """Edge cases of the store's snapshot-under-lock dispatch."""

    def test_unsubscribe_during_dispatch_still_delivers_this_record(self):
        store = chain_store()
        seen = {"a": 0, "b": 0}

        def cb_b(record):
            seen["b"] += 1

        def cb_a(record):
            seen["a"] += 1
            try:
                store.unsubscribe(cb_b)
            except ValueError:
                pass

        store.subscribe(cb_a)
        store.subscribe(cb_b)
        add_edge(store, "c", "d")
        # The dispatch list was snapshotted before cb_a ran: cb_b still
        # sees the commit that removed it.
        assert seen == {"a": 1, "b": 1}
        add_edge(store, "d", "e")
        assert seen == {"a": 2, "b": 1}

    def test_resubscribe_from_inside_a_callback(self):
        store = chain_store()
        late = []

        def cb_late(record):
            late.append(record.version)

        def cb(record):
            if not any(c is cb_late for c in store._subscribers):
                store.subscribe(cb_late)

        store.subscribe(cb)
        v1 = add_edge(store, "c", "d")
        # Registered mid-dispatch: not called for the triggering commit...
        assert late == []
        v2 = add_edge(store, "d", "e")
        # ...but sees every later one exactly once.
        assert late == [v2]

    def test_subscriber_failures_are_counted_not_fatal(self):
        store = chain_store()
        calls = []

        def bad(record):
            raise RuntimeError("boom")

        def good(record):
            calls.append(record.version)

        store.subscribe(bad)
        store.subscribe(good)
        before = store.stats()["subscriber_failures"]
        version = add_edge(store, "c", "d")
        assert calls == [version]
        assert store.stats()["subscriber_failures"] == before + 1
        store.unsubscribe(bad)
        add_edge(store, "d", "e")
        assert store.stats()["subscriber_failures"] == before + 1


@pytest.fixture
def sub_server():
    srv = ServiceServer(
        store=chain_store(),
        config=ServiceConfig(port=0, workers=4, timeout=10.0),
    ).start_background()
    yield srv
    srv.stop()


class TestEndToEnd:
    def test_snapshot_and_ordered_deltas_across_commits(self, sub_server):
        """The acceptance path: subscribe, mutate across >=3 commits
        (including deletions), and hold the local materialized result equal
        to a fresh query at every version."""
        writer = ServiceClient(port=sub_server.port)
        watcher = ServiceClient(port=sub_server.port)
        try:
            handle = watcher.subscribe(REACH, predicate="reach")
            assert handle.mode == "maintained"
            assert handle.rows["reach"] == {("a", "b"), ("a", "c"), ("b", "c")}

            commits = [
                {"edges": [["c", "link", "d"]]},
                {"edges": [["d", "link", "e"]]},
                {"remove_edges": [["b", "link", "c"]]},
                {"edges": [["b", "link", "e"]], "remove_edges": [["a", "link", "b"]]},
            ]
            for change in commits:
                version = writer.update(**change)
                event = handle.next_event(timeout=10)
                assert event["type"] == "delta"
                assert event["version"] == version
                assert handle.version == version
                fresh = writer.graphlog(REACH, predicate="reach")["reach"]
                assert handle.result("reach") == fresh

            handle.unsubscribe()
            assert handle.closed == "unsubscribed"
            assert watcher.stats()["subs"]["active_subscriptions"] == 0
        finally:
            watcher.close()
            writer.close()

    def test_fanout_to_many_clients(self, sub_server):
        writer = ServiceClient(port=sub_server.port)
        watchers = [ServiceClient(port=sub_server.port) for _ in range(8)]
        try:
            handles = [w.subscribe(REACH, predicate="reach") for w in watchers]
            version = writer.update(edges=[["c", "link", "d"]])
            for handle in handles:
                event = handle.next_event(timeout=10)
                assert event["type"] == "delta" and event["version"] == version
            stats = writer.stats()["subs"]
            assert stats["shared_views"] == 1
            assert stats["active_subscriptions"] == 8
            (view_stats,) = stats["views"].values()
            assert view_stats["maintenance_passes"] == 1
        finally:
            for w in watchers:
                w.close()
            writer.close()

    def test_subscriptions_and_retries_are_mutually_exclusive(self, sub_server):
        with ServiceClient(port=sub_server.port, retries=2) as client:
            with pytest.raises(SubscriptionError, match="mutually exclusive"):
                client.subscribe(REACH)

    def test_not_maintainable_over_the_wire(self, sub_server):
        with ServiceClient(port=sub_server.port) as client:
            with pytest.raises(NotMaintainable):
                client.subscribe("link*", target="rpq")
            handle = client.subscribe("link*", target="rpq", allow_fallback=True)
            assert handle.mode == "diff"
            assert handle.fallback_reason
            stats = client.stats()["subs"]
            (view_stats,) = stats["views"].values()
            assert view_stats["fallback_reason"] == handle.fallback_reason

    def test_disconnect_drops_server_side_state(self, sub_server):
        watcher = ServiceClient(port=sub_server.port)
        writer = ServiceClient(port=sub_server.port)
        try:
            watcher.subscribe(REACH, predicate="reach")
            assert writer.stats()["subs"]["active_subscriptions"] == 1
            watcher.close()
            deadline = 50
            while writer.stats()["subs"]["active_subscriptions"] and deadline:
                import time

                time.sleep(0.05)
                deadline -= 1
            stats = writer.stats()["subs"]
            assert stats["active_subscriptions"] == 0
            assert stats["shared_views"] == 0
        finally:
            writer.close()
            watcher.close()

    def test_callback_delivery(self, sub_server):
        writer = ServiceClient(port=sub_server.port)
        watcher = ServiceClient(port=sub_server.port)
        events = []
        try:
            handle = watcher.subscribe(
                REACH, predicate="reach", on_event=events.append
            )
            version = writer.update(edges=[["c", "link", "d"]])
            while not events:
                assert watcher._pump(5.0)
            assert events[0]["type"] == "delta"
            assert events[0]["version"] == version
            assert handle.version == version
        finally:
            watcher.close()
            writer.close()
