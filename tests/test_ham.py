"""Tests for the HAM-style transactional, versioned graph store."""

import sys
import threading

import pytest

from repro.core.dsl import parse_graphical_query
from repro.datasets.airlines import figure12_graph
from repro.errors import StoreError, TransactionError
from repro.graphs.bridge import EdgeLabel
from repro.ham import store as store_module
from repro.ham.store import HAMStore


@pytest.fixture
def store():
    return HAMStore()


class TestTransactions:
    def test_commit_applies(self, store):
        session = store.session()
        with session.transaction() as txn:
            txn.add_edge("a", "b", "x")
        assert store.graph.has_edge("a", "b", "x")
        assert store.version == 1

    def test_abort_discards(self, store):
        session = store.session()
        txn = session.transaction()
        txn.add_edge("a", "b", "x")
        txn.abort()
        assert store.graph.edge_count() == 0
        assert store.version == 0

    def test_exception_aborts(self, store):
        session = store.session()
        with pytest.raises(RuntimeError):
            with session.transaction() as txn:
                txn.add_edge("a", "b", "x")
                raise RuntimeError("boom")
        assert store.version == 0
        assert store.graph.edge_count() == 0

    def test_uncommitted_invisible(self, store):
        session = store.session()
        txn = session.transaction()
        txn.add_edge("a", "b", "x")
        assert store.graph.edge_count() == 0  # not yet committed
        txn.commit()
        assert store.graph.edge_count() == 1

    def test_double_commit_rejected(self, store):
        session = store.session()
        txn = session.transaction()
        txn.add_edge("a", "b", "x")
        txn.commit()
        with pytest.raises(TransactionError):
            txn.commit()

    def test_edit_after_commit_rejected(self, store):
        session = store.session()
        txn = session.transaction()
        txn.commit()
        with pytest.raises(TransactionError):
            txn.add_node("z")

    def test_one_active_transaction_per_session(self, store):
        session = store.session()
        session.transaction()
        with pytest.raises(TransactionError):
            session.transaction()

    def test_remove_missing_edge_fails_eagerly(self, store):
        with store.session().transaction() as txn:
            txn.add_edge("a", "b", "x")
        graph = store.graph
        txn = store.session().transaction()
        txn.remove_edge("a", "c", "x")  # recorded, applied only at commit
        with pytest.raises(TransactionError):
            txn.commit()
        assert store.version == 1
        assert store.graph is graph
        assert store.graph.edge_count() == 1

    def test_snapshot_isolation(self, store):
        session1 = store.session()
        session2 = store.session()
        txn1 = session1.transaction()
        txn1.add_edge("a", "b", "x")
        txn2 = session2.transaction()
        # txn2 began before txn1 committed.
        txn1.commit()
        txn2.add_edge("c", "d", "y")
        txn2.commit()
        # Both commits are applied to the store.
        assert store.graph.edge_count() == 2

    def test_conflicting_commit_rejected(self, store):
        seed = store.session()
        with seed.transaction() as txn:
            txn.add_edge("a", "b", "x")
        s1, s2 = store.session(), store.session()
        t1 = s1.transaction()
        t1.remove_edge("a", "b", "x")
        t2 = s2.transaction()
        t2.remove_edge("a", "b", "x")
        t1.commit()
        with pytest.raises(TransactionError):
            t2.commit()


class TestVersioning:
    def test_history(self, store):
        session = store.session()
        with session.transaction() as txn:
            txn.add_edge("a", "b", "x")
        with session.transaction() as txn:
            txn.add_edge("b", "c", "y")
        history = store.history()
        assert [r.txn_id for r in history] == [1, 2]

    def test_graph_at(self, store):
        session = store.session()
        with session.transaction() as txn:
            txn.add_edge("a", "b", "x")
        with session.transaction() as txn:
            txn.remove_edge("a", "b", "x")
        assert store.graph.edge_count() == 0
        assert store.graph_at(1).has_edge("a", "b", "x")
        assert store.graph_at(0).node_count() == 0

    def test_graph_at_bad_version(self, store):
        with pytest.raises(StoreError):
            store.graph_at(99)

    def test_version_strictly_increases_across_commits(self, store):
        session = store.session()
        seen = [store.version]
        for i in range(5):
            with session.transaction() as txn:
                txn.add_edge(f"n{i}", f"n{i + 1}", "x")
            seen.append(store.version)
        assert seen == [0, 1, 2, 3, 4, 5]
        assert all(b > a for a, b in zip(seen, seen[1:]))
        assert [r.version for r in store.history()] == [1, 2, 3, 4, 5]

    def test_version_unchanged_by_aborted_transactions(self, store):
        session = store.session()
        with session.transaction() as txn:
            txn.add_edge("a", "b", "x")
        assert store.version == 1
        txn = session.transaction()
        txn.add_edge("b", "c", "y")
        txn.abort()
        assert store.version == 1
        with pytest.raises(RuntimeError):
            with session.transaction() as txn:
                txn.add_edge("c", "d", "z")
                raise RuntimeError("boom")
        assert store.version == 1
        assert store.history()[-1].version == 1

    def test_commit_hooks_see_record_version(self, store):
        versions = []
        store.on_commit(lambda record: versions.append(record.version))
        session = store.session()
        with session.transaction() as txn:
            txn.add_edge("a", "b", "x")
        aborted = session.transaction()
        aborted.add_edge("x", "y", "z")
        aborted.abort()
        with session.transaction() as txn:
            txn.add_edge("b", "c", "y")
        assert versions == [1, 2]

    def test_snapshot_versioned_pairs_graph_and_version(self, store):
        session = store.session()
        with session.transaction() as txn:
            txn.add_edge("a", "b", "x")
        version, graph = store.snapshot_versioned()
        assert version == 1
        assert graph.has_edge("a", "b", "x")

    def test_node_label_versions(self, store):
        session = store.session()
        with session.transaction() as txn:
            txn.add_node("a", label="old")
        with session.transaction() as txn:
            txn.set_node_label("a", "new")
        assert store.graph_at(1).node_label("a") == "old"
        assert store.graph.node_label("a") == "new"


class TestLoadingAndQueries:
    def test_load_graph_single_version(self, store):
        store.load_graph(figure12_graph())
        assert store.version == 1
        assert store.graph.edge_count() == len(figure12_graph().edges)

    def test_load_database(self, store):
        from repro.datalog.database import Database

        db = Database.from_facts({"link": [("a", "b"), ("b", "c")]})
        store.load_database(db)
        assert store.graph.has_edge("a", "b", EdgeLabel("link"))

    def test_rpq_over_store(self, store):
        store.load_graph(figure12_graph())
        assert "tokyo" in store.rpq("CP+", source="rome")
        pairs = store.rpq("AF AF")
        assert ("rome", "tokyo") in pairs

    def test_graphlog_over_store(self, store):
        from repro.datalog.database import Database

        db = Database.from_facts({"link": [("a", "b"), ("b", "c")]})
        store.load_database(db)
        query = parse_graphical_query(
            """
            define (X) -[reach]-> (Y) {
                (X) -[link+]-> (Y);
            }
            """
        )
        assert ("a", "c") in store.answers(query, "reach")


class TestSubscribers:
    def test_failing_subscriber_does_not_break_commit(self, store):
        seen = []

        def bad(record):
            raise RuntimeError("subscriber boom")

        store.subscribe(bad)
        store.subscribe(seen.append)
        session = store.session()
        with session.transaction() as txn:
            txn.add_edge("a", "b", "x")
        # The commit landed, the healthy subscriber ran, the failure counted.
        assert store.version == 1
        assert [r.version for r in seen] == [1]
        assert store.stats()["subscriber_failures"] == 1

    def test_unsubscribe_during_dispatch_is_safe(self, store):
        calls = []

        def self_removing(record):
            calls.append(record.version)
            store.unsubscribe(self_removing)

        store.subscribe(self_removing)
        store.subscribe(lambda record: calls.append(-record.version))
        session = store.session()
        with session.transaction() as txn:
            txn.add_edge("a", "b", "x")
        with session.transaction() as txn:
            txn.add_edge("b", "c", "x")
        # First commit notifies both (the snapshot taken before dispatch);
        # the second only the surviving lambda.
        assert calls == [1, -1, -2]

    def test_failure_in_one_does_not_skip_later_subscribers(self, store):
        order = []
        store.subscribe(lambda r: order.append("first"))

        def bad(record):
            order.append("bad")
            raise ValueError("boom")

        store.subscribe(bad)
        store.subscribe(lambda r: order.append("last"))
        session = store.session()
        with session.transaction() as txn:
            txn.add_edge("a", "b", "x")
        assert order == ["first", "bad", "last"]


def _add_edge(store, source, target):
    with store.session().transaction() as txn:
        txn.add_edge(source, target, "x")


class TestOrderedDelivery:
    """``HAMStore.subscribe``'s contract: every record reaches every hook
    exactly once, in version order, on its committing thread, and a commit
    returns only after its own record's hooks ran."""

    def test_a_held_hook_holds_the_later_commit(self, store):
        seen = []
        held, release = threading.Event(), threading.Event()

        def hook(record):
            if record.version == 1:
                held.set()
                assert release.wait(10)
            seen.append((record.version, threading.current_thread().name))

        store.subscribe(hook)
        first = threading.Thread(target=_add_edge, args=(store, "a", "b"), name="w1")
        second = threading.Thread(target=_add_edge, args=(store, "b", "c"), name="w2")
        first.start()
        assert held.wait(10)
        second.start()
        assert store.wait_for_version(2, timeout=10)  # installed behind the held hook
        second.join(0.2)
        assert second.is_alive() and seen == []  # commit() has not returned
        release.set()
        first.join(10)
        second.join(10)
        assert not first.is_alive() and not second.is_alive()
        assert seen == [(1, "w1"), (2, "w2")]

    def test_a_raising_hook_does_not_stall_later_commits(self, store):
        seen = []

        def bad(record):
            raise RuntimeError("subscriber boom")

        store.subscribe(bad)
        store.subscribe(lambda record: seen.append(record.version))
        for i in range(3):
            _add_edge(store, f"n{i}", f"n{i + 1}")
        assert seen == [1, 2, 3]
        assert store.stats()["subscriber_failures"] == 3

    def test_replicated_applies_take_the_same_turns(self, store):
        primary = HAMStore()
        for i in range(3):
            _add_edge(primary, f"n{i}", f"n{i + 1}")
        seen = []
        store.subscribe(lambda record: seen.append(record.version))
        for record in primary.history():
            store.apply_replicated(record)
        store.replace_state(primary.graph_at(1), 1, 1)  # a re-bootstrap regresses
        for record in primary.history()[1:]:
            store.apply_replicated(record)
        assert seen == [1, 2, 3, 2, 3]

    def test_racing_writers_are_delivered_in_version_order(self, store):
        seen = []
        store.subscribe(lambda record: seen.append(record.version))

        def writer(index):
            for j in range(25):
                _add_edge(store, f"w{index}.{j}", f"w{index}.{j + 1}")

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=writer, args=(i,)) for i in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert seen == list(range(1, 201))

    def test_racing_writers_lose_no_edit(self, store):
        # Two commits staged from one base would each publish a graph
        # without the other's edit (and a writer's removal of an edge it
        # added itself would fail as a conflict).
        errors = []

        def writer(index):
            try:
                for j in range(50):
                    with store.session().transaction() as txn:
                        txn.add_edge(f"w{index}", f"n{j}", "x")
                        if j % 5 == 4:
                            txn.remove_edge(f"w{index}", f"n{j - 1}", "x")
            except Exception as exc:  # noqa: BLE001 — reported below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=writer, args=(i,)) for i in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(30)
        finally:
            sys.setswitchinterval(interval)
        assert not errors and store.version == 200
        expected = {
            (f"w{i}", f"n{j}") for i in range(4) for j in range(50) if j % 5 != 3
        }
        assert {(s, t) for s, t, _label in store.graph.edge_triples()} == expected
        # The log agrees with the published graph: replaying it gives the same.
        assert store.graph_at(200) == store.graph


class TestHistoryTruncation:
    """The log trims itself; ``HISTORY_WINDOW`` is 2 here, so a commit that
    brings it to 4 records folds the oldest 2 into the ``graph_at`` base."""

    @pytest.fixture(autouse=True)
    def small_window(self, monkeypatch):
        monkeypatch.setattr(store_module, "HISTORY_WINDOW", 2)

    def fill(self, store, n):
        session = store.session()
        for i in range(store.version, store.version + n):
            with session.transaction() as txn:
                txn.add_edge(f"n{i}", f"n{i + 1}", "x")

    def test_truncate_keeps_recent_records(self, store):
        self.fill(store, 6)
        assert [r.version for r in store.history()] == [5, 6]
        assert store.stats()["retained_records"] == 2
        assert store.stats()["base_version"] == 4

    def test_graph_at_selects_by_record_version_after_truncation(self, store):
        self.fill(store, 6)
        # Retained records carry versions 5..6 over the base at 4;
        # position-based indexing would hand back the wrong snapshots here.
        for version in (4, 5, 6):
            assert store.graph_at(version).edge_count() == version
        assert store.graph_at(6).has_edge("n5", "n6", "x")
        assert not store.graph_at(4).has_node("n5")

    def test_graph_at_below_base_fails_without_durability(self, store):
        self.fill(store, 5)
        assert store.stats()["base_version"] == 2
        with pytest.raises(StoreError, match="predates the retained history"):
            store.graph_at(1)

    def test_truncate_all_history(self, store):
        self.fill(store, 4)
        assert [r.version for r in store.history()] == [3, 4]
        assert store.graph_at(2).edge_count() == 2
        # New commits build on the folded base.
        self.fill(store, 1)
        assert store.version == 5
        assert store.graph_at(5).edge_count() == 5

    def test_truncate_noop_when_short(self, store):
        self.fill(store, 3)  # one record short of a trim
        assert len(store.history()) == 3
        assert store.stats()["base_version"] == 0
