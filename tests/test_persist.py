"""Tests for the durability subsystem: WAL, checkpoints, recovery."""

import glob
import json
import logging
import os
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import StoreError, TransactionError
from repro.graphs.bridge import EdgeLabel
from repro.graphs.multigraph import LabeledMultigraph
from repro.ham import store as store_module
from repro.ham.delta import compute_delta, domain_refs, fact_counts
from repro.ham.store import HAMStore, TransactionRecord, _Op, derive_version
from repro.persist import (
    DurabilityManager,
    PersistenceConfig,
    latest_valid_checkpoint,
    list_checkpoints,
    op_from_json,
    op_to_json,
    record_from_json,
    record_to_json,
    scan_segment,
    write_checkpoint,
)
from repro.persist import wal as wal_mod
from tests.test_image import record


def durable_store(data_dir, **kwargs):
    manager = DurabilityManager(PersistenceConfig(str(data_dir), **kwargs))
    return manager, manager.recover()


def commit_chain(store, n, start=0, label="x"):
    session = store.session()
    for i in range(start, start + n):
        with session.transaction() as txn:
            txn.add_edge(f"n{i}", f"n{i + 1}", label)


def wal_segments(data_dir):
    return sorted(glob.glob(os.path.join(str(data_dir), "wal", "*.seg")))


# ------------------------------------------------------------------ serde


class TestSerde:
    def ops_of_all_kinds(self):
        return [
            _Op(_Op.ADD_NODE, "plain", None),
            _Op(_Op.ADD_NODE, ("rome", 7), frozenset({"capital", "large"})),
            _Op(_Op.SET_NODE_LABEL, "plain", 42),
            _Op(_Op.ADD_EDGE, "a", "b", "cheap"),
            _Op(_Op.ADD_EDGE, ("x", 1), ("y", 2.5), EdgeLabel("flight", ("21:45", True))),
            _Op(_Op.REMOVE_EDGE, "a", "b", "cheap"),
            _Op(_Op.REMOVE_NODE, "plain"),
        ]

    def test_op_round_trip(self):
        for op in self.ops_of_all_kinds():
            back = op_from_json(json.loads(json.dumps(op_to_json(op))))
            assert back.kind == op.kind
            assert back.args == op.args

    def test_record_round_trip_with_delta(self):
        graph = LabeledMultigraph()
        ops = [
            _Op(_Op.ADD_NODE, "a", None),
            _Op(_Op.ADD_EDGE, "a", "b", EdgeLabel("link")),
            _Op(_Op.ADD_NODE, "c", frozenset({"mark"})),
        ]
        delta, _changes = compute_delta(graph, ops, fact_counts(graph))
        record = TransactionRecord(3, 9, ops, version=7, delta=delta)
        back = record_from_json(json.loads(json.dumps(record_to_json(record))))
        assert (back.txn_id, back.session_id, back.version) == (3, 9, 7)
        assert [op.kind for op in back.operations] == [op.kind for op in ops]
        assert back.delta is None  # derived again wherever the record is replayed


# -------------------------------------------------------------------- WAL


class TestWalFraming:
    def test_append_scan_round_trip(self, tmp_path):
        writer = wal_mod.WalWriter(str(tmp_path), fsync="always")
        writer.open(next_version=1)
        payloads = [{"version": i, "data": "x" * i} for i in range(1, 6)]
        for payload in payloads:
            writer.append(payload)
        writer.close()
        records, good, corruption = scan_segment(writer.segment_path)
        assert corruption is None
        assert [p for _off, p in records] == payloads
        assert good == os.path.getsize(writer.segment_path)

    def test_torn_header_detected(self, tmp_path):
        writer = wal_mod.WalWriter(str(tmp_path), fsync="off")
        writer.open(next_version=1)
        writer.append({"version": 1})
        writer.close()
        with open(writer.segment_path, "ab") as handle:
            handle.write(b"\x01\x02\x03")  # 3 stray bytes: not even a header
        records, good, corruption = scan_segment(writer.segment_path)
        assert len(records) == 1
        assert corruption is not None and "header" in corruption.reason

    def test_torn_payload_detected(self, tmp_path):
        writer = wal_mod.WalWriter(str(tmp_path), fsync="off")
        writer.open(next_version=1)
        writer.append({"version": 1})
        writer.append({"version": 2, "pad": "y" * 100})
        writer.close()
        size = os.path.getsize(writer.segment_path)
        with open(writer.segment_path, "r+b") as handle:
            handle.truncate(size - 30)
        records, _good, corruption = scan_segment(writer.segment_path)
        assert [p["version"] for _off, p in records] == [1]
        assert "payload" in corruption.reason

    def test_bit_flip_detected_by_crc(self, tmp_path):
        writer = wal_mod.WalWriter(str(tmp_path), fsync="off")
        writer.open(next_version=1)
        writer.append({"version": 1, "pad": "z" * 50})
        writer.close()
        data = bytearray(open(writer.segment_path, "rb").read())
        data[20] ^= 0x40
        open(writer.segment_path, "wb").write(bytes(data))
        records, good, corruption = scan_segment(writer.segment_path)
        assert records == [] and good == 0
        assert "CRC" in corruption.reason

    def test_rotation_by_size(self, tmp_path):
        writer = wal_mod.WalWriter(str(tmp_path), fsync="off", segment_bytes=64)
        writer.open(next_version=1)
        for version in range(1, 6):
            writer.append({"version": version, "pad": "p" * 40}, next_version=version + 1)
        writer.close()
        segments = wal_mod.list_segments(str(tmp_path))
        assert len(segments) >= 3
        # Segment names carry the version of their first record.
        for first, path in segments:
            records, _good, corruption = scan_segment(path)
            assert corruption is None
            if records:
                assert records[0][1]["version"] == first

    def test_bad_fsync_policy_rejected(self, tmp_path):
        with pytest.raises(StoreError):
            wal_mod.WalWriter(str(tmp_path), fsync="sometimes")
        with pytest.raises(StoreError):
            PersistenceConfig(str(tmp_path), fsync="sometimes")


# ------------------------------------------------------------- checkpoints


class TestCheckpoints:
    def test_write_and_load_latest(self, tmp_path):
        graph = LabeledMultigraph()
        graph.add_edge("a", "b", EdgeLabel("link"))
        write_checkpoint(str(tmp_path), 3, 4, graph)
        version, last_txn, loaded, _path = latest_valid_checkpoint(str(tmp_path))
        assert (version, last_txn) == (3, 4)
        assert loaded == graph

    def test_newest_invalid_falls_back(self, tmp_path, caplog):
        graph = LabeledMultigraph()
        graph.add_node("only")
        write_checkpoint(str(tmp_path), 1, 1, graph)
        bad = tmp_path / "checkpoint-00000000000000000009.json"
        bad.write_text("{ not json")
        with caplog.at_level(logging.WARNING, logger="repro.persist"):
            version, _txn, loaded, _path = latest_valid_checkpoint(str(tmp_path))
        assert version == 1 and loaded.has_node("only")
        assert any("skipping unreadable checkpoint" in r.message for r in caplog.records)

    def test_interrupted_tmp_removed_on_recovery(self, tmp_path, caplog):
        manager, store = durable_store(tmp_path, fsync="always")
        commit_chain(store, 3)
        manager.checkpoint()
        manager.close()
        # Simulate a crash between the temp write and the rename.
        leftover = tmp_path / "checkpoint-00000000000000000099.json.tmp"
        leftover.write_text('{"format": "repro-checkpoint", "half": true')
        with caplog.at_level(logging.WARNING, logger="repro.persist"):
            manager2, store2 = durable_store(tmp_path)
        assert not leftover.exists()
        assert store2.version == 3
        assert any("interrupted checkpoint" in r.message for r in caplog.records)
        manager2.close()

    def test_old_checkpoints_pruned(self, tmp_path):
        manager, store = durable_store(tmp_path, fsync="off", keep_checkpoints=2)
        for round_no in range(4):
            commit_chain(store, 2, start=round_no * 2)
            manager.checkpoint()
        assert len(list_checkpoints(str(tmp_path))) == 2
        manager.close()

    def test_checkpoint_prunes_covered_segments(self, tmp_path):
        manager, store = durable_store(
            tmp_path, fsync="off", segment_bytes=1, keep_checkpoints=1
        )
        commit_chain(store, 5)  # segment_bytes=1: one segment per record
        assert len(wal_segments(tmp_path)) >= 5
        info = manager.checkpoint()
        assert info["segments_removed"] >= 4
        # Everything still recovers from checkpoint + surviving tail.
        manager.close()
        manager2, store2 = durable_store(tmp_path)
        assert store2.version == 5 and store2.graph == store.graph
        manager2.close()

    def test_checkpoint_skipped_when_no_new_commits(self, tmp_path):
        manager, store = durable_store(tmp_path, fsync="off")
        commit_chain(store, 1)
        first = manager.checkpoint()
        second = manager.checkpoint()
        assert not first.get("skipped")
        assert second.get("skipped")
        manager.close()

    def test_auto_checkpoint_every_n_commits(self, tmp_path):
        manager, store = durable_store(tmp_path, fsync="off", checkpoint_every=3)
        commit_chain(store, 7)
        assert manager.stats()["checkpoint"]["count"] == 2
        assert manager.stats()["checkpoint"]["last_version"] == 6
        manager.close()


# ---------------------------------------------------------------- recovery


class TestRecovery:
    def test_empty_directory_recovers_empty_store(self, tmp_path):
        manager, store = durable_store(tmp_path)
        assert store.version == 0
        assert store.graph.node_count() == 0
        manager.close()

    def test_full_cycle_graph_and_history(self, tmp_path):
        manager, store = durable_store(tmp_path, fsync="always")
        session = store.session()
        with session.transaction() as txn:
            txn.add_node("city", frozenset({"capital"}))
            txn.add_edge("city", "other", EdgeLabel("flight", ("21:45",)))
        with session.transaction() as txn:
            txn.remove_edge("city", "other", EdgeLabel("flight", ("21:45",)))
        manager.close()

        manager2, store2 = durable_store(tmp_path)
        assert store2.version == 2
        assert store2.graph == store.graph
        history = store2.history()
        assert [r.version for r in history] == [1, 2]
        assert history[0].delta is not None
        assert history[0].delta.insertions["flight"] == {("city", "other", "21:45")}
        manager2.close()

    def test_txn_ids_continue_after_recovery(self, tmp_path):
        manager, store = durable_store(tmp_path, fsync="always")
        commit_chain(store, 3)
        manager.close()
        manager2, store2 = durable_store(tmp_path)
        commit_chain(store2, 1, start=10)
        assert store2.history()[-1].txn_id == 4
        manager2.close()

    def test_recovery_across_rotated_segments(self, tmp_path):
        manager, store = durable_store(tmp_path, fsync="off", segment_bytes=128)
        commit_chain(store, 20)
        assert len(wal_segments(tmp_path)) > 1
        manager.close()
        manager2, store2 = durable_store(tmp_path)
        assert store2.version == 20
        assert store2.graph == store.graph
        manager2.close()

    def test_torn_tail_truncated_with_warning(self, tmp_path, caplog):
        manager, store = durable_store(tmp_path, fsync="always")
        commit_chain(store, 4)
        manager.close()
        (segment,) = wal_segments(tmp_path)
        with open(segment, "r+b") as handle:
            handle.truncate(os.path.getsize(segment) - 5)
        with caplog.at_level(logging.WARNING, logger="repro.persist"):
            manager2, store2 = durable_store(tmp_path)
        assert store2.version == 3
        assert store2.graph.edge_count() == 3
        assert any("truncating torn WAL tail" in r.message for r in caplog.records)
        assert manager2.stats()["recovery"]["truncated"] is True
        manager2.close()
        # After truncation the log is clean: a third recovery sees no tear.
        manager3, store3 = durable_store(tmp_path)
        assert store3.version == 3
        assert manager3.stats()["recovery"]["truncated"] is False
        manager3.close()

    def test_bit_flipped_record_truncated(self, tmp_path, caplog):
        manager, store = durable_store(tmp_path, fsync="always")
        commit_chain(store, 5)
        manager.close()
        (segment,) = wal_segments(tmp_path)
        data = bytearray(open(segment, "rb").read())
        data[len(data) // 2] ^= 0xFF
        open(segment, "wb").write(bytes(data))
        with caplog.at_level(logging.WARNING, logger="repro.persist"):
            manager2, store2 = durable_store(tmp_path)
        # A prefix survives; the flipped record and everything after is gone.
        assert 0 <= store2.version < 5
        assert store2.graph.edge_count() == store2.version
        manager2.close()

    def test_commits_resume_after_torn_tail_recovery(self, tmp_path):
        manager, store = durable_store(tmp_path, fsync="always")
        commit_chain(store, 4)
        manager.close()
        (segment,) = wal_segments(tmp_path)
        with open(segment, "r+b") as handle:
            handle.truncate(os.path.getsize(segment) - 1)
        manager2, store2 = durable_store(tmp_path, fsync="always")
        assert store2.version == 3
        commit_chain(store2, 2, start=100)
        manager2.close()
        manager3, store3 = durable_store(tmp_path)
        assert store3.version == 5
        assert store3.graph.has_edge("n100", "n101", "x")
        manager3.close()

    @pytest.mark.parametrize(
        "ghost",
        [_Op(_Op.REMOVE_NODE, "ghost"), _Op(_Op.SET_NODE_LABEL, "ghost", "x")],
        ids=["remove_node", "set_node_label"],
    )
    @pytest.mark.parametrize("after_an_edge", [False, True])
    def test_a_record_naming_a_missing_node_is_truncated(
        self, tmp_path, ghost, after_an_edge
    ):
        # A CRC-valid record whose operations do not replay is truncated
        # like any corrupt tail, whatever the operation raises; its earlier
        # operations leave no trace in the recovered graph.
        manager, store = durable_store(tmp_path, fsync="always")
        commit_chain(store, 1)
        epoch = store.epoch
        manager.close()
        ops = [_Op(_Op.ADD_EDGE, "n1", "n2", "x")] * after_an_edge + [ghost]
        (segment,) = wal_segments(tmp_path)
        writer = wal_mod.WalWriter(os.path.dirname(segment), fsync="always")
        writer.open(path=segment)
        writer.append(record_to_json(TransactionRecord(2, 1, ops, version=2)))
        writer.close()
        manager2, store2 = durable_store(tmp_path)
        recovery = manager2.stats()["recovery"]
        assert (recovery["recovered_version"], recovery["truncated"]) == (1, True)
        assert store2.epoch != epoch
        assert store2.graph == store.graph
        manager2.close()

    def test_recover_into_nonempty_store_rejected(self, tmp_path):
        manager, store = durable_store(tmp_path, fsync="off")
        commit_chain(store, 1)
        manager.close()
        populated = HAMStore()
        commit_chain(populated, 2)
        with pytest.raises(StoreError):
            DurabilityManager(PersistenceConfig(str(tmp_path))).recover(store=populated)

    def test_adopting_populated_store_into_empty_dir(self, tmp_path):
        populated = HAMStore()
        commit_chain(populated, 3)
        manager = DurabilityManager(PersistenceConfig(str(tmp_path), fsync="always"))
        adopted = manager.recover(store=populated)
        assert adopted is populated
        commit_chain(populated, 1, start=50)
        manager.close()
        manager2, store2 = durable_store(tmp_path)
        assert store2.version == 4
        assert store2.graph == populated.graph
        manager2.close()

    def test_double_recover_rejected(self, tmp_path):
        manager, _store = durable_store(tmp_path)
        with pytest.raises(StoreError):
            manager.recover()
        manager.close()


# ------------------------------------------------------ store integration


class TestStoreIntegration:
    def test_wal_append_failure_aborts_commit(self, tmp_path):
        manager, store = durable_store(tmp_path, fsync="always")
        commit_chain(store, 2)
        manager._writer.close()  # simulate a dead disk: appends now fail
        manager._writer._handle = None
        session = store.session()
        txn = session.transaction()
        txn.add_edge("bad", "commit", "x")
        with pytest.raises(TransactionError):
            txn.commit()
        assert store.version == 2
        assert not store.graph.has_node("bad")
        assert len(store.history()) == 2

    def test_closed_manager_rejects_commits(self, tmp_path):
        manager, store = durable_store(tmp_path)
        manager.close()
        session = store.session()
        # close() detaches, so plain in-memory commits keep working.
        with session.transaction() as txn:
            txn.add_edge("a", "b", "x")
        assert store.version == 1

    def test_graph_at_uses_checkpoint_base(self, tmp_path, monkeypatch):
        monkeypatch.setattr(store_module, "HISTORY_WINDOW", 2)
        manager, store = durable_store(tmp_path, fsync="off")
        commit_chain(store, 4)
        manager.checkpoint()
        commit_chain(store, 1, start=4)
        manager.close()
        manager, store = durable_store(tmp_path, fsync="off")
        # Recovery installs the checkpoint as the replay base.
        assert store.stats()["base_version"] == 4
        for version in (4, 5):
            assert store.graph_at(version).edge_count() == version
        with pytest.raises(StoreError, match="predates the retained history"):
            store.graph_at(3)
        # Once the log trims past the checkpoint, it is no base any more.
        commit_chain(store, 3, start=5)
        assert store.stats()["base_version"] == 6
        with pytest.raises(StoreError, match="predates the retained history"):
            store.graph_at(4)
        manager.close()

    def test_stats_surface_durability(self, tmp_path):
        manager, store = durable_store(tmp_path, fsync="always")
        commit_chain(store, 3)
        manager.checkpoint()
        stats = store.stats()
        assert stats["retained_records"] == 3
        durable = stats["durability"]
        assert durable["wal"]["appends"] == 3
        assert durable["wal"]["bytes"] > 0
        assert durable["wal"]["fsyncs"] >= 3
        assert durable["checkpoint"]["last_version"] == 3
        assert durable["recovery"]["recovered_version"] == 0
        manager.close()

    def test_fsync_policies_all_commit(self, tmp_path):
        for policy in ("always", "interval", "off"):
            directory = tmp_path / policy
            manager, store = durable_store(directory, fsync=policy)
            commit_chain(store, 3)
            manager.close()
            manager2, store2 = durable_store(directory)
            assert store2.version == 3
            manager2.close()


# ------------------------------------------------- the retained log is a slice


def assert_log_is_contiguous(store):
    """``records_since`` / ``graph_at`` slice the retained log by offset from
    the base; check the invariant that makes that right, and both readers
    against a scan of the log by ``record.version``."""
    base = store.stats()["base_version"]
    log = store.history()
    assert [r.version for r in log] == list(range(base + 1, store.version + 1))
    assert store.records_since(base - 1) is None
    for since in range(base, store.version + 2):
        assert store.records_since(since) == [r for r in log if r.version > since]
    for version in range(base, store.version + 1):
        assert store.graph_at(version).edge_count() == version


class TestRetainedLogContiguity:
    def test_after_truncate_history(self, monkeypatch):
        monkeypatch.setattr(store_module, "HISTORY_WINDOW", 2)
        store = HAMStore()
        for start in range(9):
            commit_chain(store, 1, start=start)
            assert_log_is_contiguous(store)
        assert store.stats()["base_version"] == 6

    def test_after_apply_replicated_onto_a_bootstrapped_base(self, monkeypatch):
        monkeypatch.setattr(store_module, "HISTORY_WINDOW", 2)
        primary = HAMStore()
        commit_chain(primary, 4)
        replica = HAMStore()
        graph = primary.graph_at(4)
        replica.replace_state(graph, 4, 4)
        commit_chain(primary, 3, start=4)
        for record in primary.records_since(4):
            replica.apply_replicated(record)
        assert_log_is_contiguous(replica)
        assert replica.stats()["base_version"] == 4
        commit_chain(primary, 1, start=7)
        replica.apply_replicated(primary.records_since(7)[0])
        assert replica.stats()["base_version"] == 6
        assert_log_is_contiguous(replica)

    def test_after_recovery_from_a_checkpoint(self, tmp_path):
        manager, store = durable_store(tmp_path, fsync="off")
        commit_chain(store, 4)
        manager.checkpoint()
        commit_chain(store, 3, start=4)
        manager.close()
        manager2, recovered = durable_store(tmp_path)
        assert recovered.stats()["base_version"] == 4
        assert recovered.version == 7
        assert_log_is_contiguous(recovered)
        commit_chain(recovered, 2, start=7)
        assert_log_is_contiguous(recovered)
        manager2.close()

    def test_restore_state_rejects_a_log_with_a_hole(self):
        source = HAMStore()
        commit_chain(source, 3)
        first, _second, third = source.history()
        with pytest.raises(StoreError, match="versions 1..2 in order"):
            HAMStore().replay([first, third])


# ------------------------------------------------------------------ epoch


class TestEpochPersistence:
    def test_epoch_minted_once_and_stable_across_restarts(self, tmp_path):
        manager, store = durable_store(tmp_path, fsync="off")
        epoch = store.epoch
        assert manager.epoch == epoch
        document = json.load(open(tmp_path / "epoch.json", encoding="utf-8"))
        assert document == {"format": "repro-epoch", "epoch": epoch}
        info = manager.stats()["recovery"]
        assert info["epoch"] == epoch
        assert info["epoch_rotated"] is False
        commit_chain(store, 3)
        manager.close()
        manager2, store2 = durable_store(tmp_path)
        assert store2.epoch == epoch, "clean restart must keep the epoch"
        assert manager2.stats()["recovery"]["epoch_rotated"] is False
        manager2.close()

    def test_epoch_rotates_when_recovery_truncates(self, tmp_path):
        manager, store = durable_store(tmp_path, fsync="always")
        commit_chain(store, 4)
        epoch = store.epoch
        manager.close()
        (segment,) = wal_segments(tmp_path)
        with open(segment, "r+b") as handle:
            handle.truncate(os.path.getsize(segment) - 5)
        manager2, store2 = durable_store(tmp_path)
        assert store2.version == 3
        assert store2.epoch != epoch, "truncation rewrote history"
        info = manager2.stats()["recovery"]
        assert info["truncated"] is True
        assert info["epoch_rotated"] is True
        assert info["epoch"] == store2.epoch
        assert "epoch" in manager2.health_info()
        manager2.close()
        # The rotated epoch is itself durable across the next clean restart.
        manager3, store3 = durable_store(tmp_path)
        assert store3.epoch == store2.epoch
        assert manager3.stats()["recovery"]["epoch_rotated"] is False
        manager3.close()

    def test_adoption_persists_the_store_epoch(self, tmp_path):
        from repro.persist.epoch import load_epoch

        store = HAMStore()
        commit_chain(store, 2)
        manager = DurabilityManager(PersistenceConfig(str(tmp_path), fsync="off"))
        adopted = manager.recover(store)
        assert adopted is store
        assert load_epoch(str(tmp_path)) == store.epoch
        manager.close()

    def test_unreadable_epoch_file_mints_fresh(self, tmp_path, caplog):
        from repro.persist.epoch import load_epoch, store_epoch

        assert load_epoch(str(tmp_path)) is None
        store_epoch(str(tmp_path), "cafe0123cafe0123")
        assert load_epoch(str(tmp_path)) == "cafe0123cafe0123"
        (tmp_path / "epoch.json").write_text("not json at all")
        with caplog.at_level(logging.WARNING, logger="repro.persist"):
            assert load_epoch(str(tmp_path)) is None
        (tmp_path / "epoch.json").write_text('{"format": "other", "epoch": "x"}')
        assert load_epoch(str(tmp_path)) is None
        # Recovery over the bad file mints (and persists) a fresh epoch.
        manager, store = durable_store(tmp_path, fsync="off")
        assert load_epoch(str(tmp_path)) == store.epoch
        manager.close()


# --------------------------------------------------------- derived deltas

_NODES = ["a", "b", "c", ("t", 1), ("t", 2)]
_EDGE_LABELS = ["link", EdgeLabel("link"), EdgeLabel("hop", (3,))]
_NODE_LABELS = [None, frozenset({"mark"}), frozenset({"mark", "hub"}), frozenset(), 7]
_SPELLINGS = {"link": EdgeLabel("link"), EdgeLabel("link"): "link"}

_edit = st.tuples(
    st.sampled_from(["add_edge", "add_edge", "remove_edge", "remove_node", "add_node", "set_node_label"]),
    st.integers(0, len(_NODES) - 1),
    st.integers(0, len(_NODES) - 1),
    st.integers(0, 7),
)


def _apply_edit(txn, graph, kind, i, j, k):
    """One random edit, steered to what *graph* can take: the graph the
    transaction's operations so far make of the version it began on."""
    node = _NODES[i]
    if kind == "add_edge":
        record(txn, graph, "add_edge", node, _NODES[j], _EDGE_LABELS[k % len(_EDGE_LABELS)])
    elif kind == "remove_edge" and graph.edge_count():
        edge = list(graph.edges)[(i * len(_NODES) + j) % graph.edge_count()]
        label = _SPELLINGS.get(edge.label, edge.label) if k % 2 else edge.label
        record(txn, graph, "remove_edge", edge.source, edge.target, label)
    elif kind == "remove_node" and graph.has_node(node):
        record(txn, graph, "remove_node", node)
    elif kind == "add_node":
        record(txn, graph, "add_node", node, _NODE_LABELS[k % len(_NODE_LABELS)])
    elif kind == "set_node_label" and graph.has_node(node):
        record(txn, graph, "set_node_label", node, _NODE_LABELS[k % len(_NODE_LABELS)])


@settings(max_examples=40, deadline=None)
@given(st.lists(st.lists(_edit, min_size=1, max_size=6), min_size=1, max_size=6))
def test_replicas_and_recovery_derive_the_primarys_deltas(commits):
    with tempfile.TemporaryDirectory() as data_dir:
        manager, primary = durable_store(data_dir, fsync="off")
        session = primary.session()
        # Parallel copies of one fact under both spellings, a self-loop and
        # an annotated tuple node: the first random remove_node("a") drops
        # a node with all of them incident.
        with session.transaction() as txn:
            txn.add_edge("a", "b", "link")
            txn.add_edge("a", "b", "link")
            txn.add_edge("a", "b", EdgeLabel("link"))
            txn.add_edge("a", "a", "link")
            txn.add_edge("b", "a", EdgeLabel("hop", (3,)))
            txn.add_node(("t", 1), frozenset({"mark"}))
        for edits in commits:
            model = derive_version(primary.graph)
            with session.transaction() as txn:
                for edit in edits:
                    _apply_edit(txn, model, *edit)
        manager.close()
        replica = HAMStore()
        for record in primary.history():
            wire = record_from_json(json.loads(json.dumps(record_to_json(record))))
            assert replica.apply_replicated(wire).delta == record.delta
            assert replica.graph == primary.graph_at(record.version)
        manager2, recovered = durable_store(data_dir)
        assert [r.delta for r in recovered.history()] == [
            r.delta for r in primary.history()
        ]
        for version in range(primary.version + 1):
            assert recovered.graph_at(version) == primary.graph_at(version)
        assert replica.graph == recovered.graph == primary.graph
        manager2.close()


def _domain_changes(store):
    return {r.version: (r.delta.entered, r.delta.left) for r in store.history()}


def test_recovery_and_bootstrap_derive_the_commits_domain_changes(tmp_path):
    manager, primary = durable_store(tmp_path / "data", fsync="off")
    session = primary.session()
    edits = [
        [("add_edge", "a", "b", "link"), ("add_edge", "b", "c", "link")],
        [("add_edge", "a", "c", "other")],  # between stored values: no change
        [("remove_edge", "b", "c", "link")],  # c still has `other`
        [("remove_edge", "a", "c", "other")],  # c's last fact goes
        [("add_node", ("t", 1), frozenset({"mark"})), ("add_edge", "b", "d", EdgeLabel("w", (4,)))],
        [("remove_node", "a"), ("add_node", "z", None)],  # z is no value of a fact
    ]
    for number, ops in enumerate(edits, 1):
        with session.transaction() as txn:
            for kind, *args in ops:
                getattr(txn, kind)(*args)
        if number == 2:
            manager.checkpoint()
    live = _domain_changes(primary)
    assert live[2] == live[3] == (set(), set())
    assert live[4] == (set(), {"c"})
    assert live[5] == ({"t", 1, "d", 4}, set())
    assert live[6] == (set(), {"a"})
    assert primary._refs == domain_refs(fact_counts(primary.graph))
    manager.close()

    manager, recovered = durable_store(tmp_path / "data")
    assert recovered.stats()["base_version"] == 2
    assert _domain_changes(recovered) == {v: live[v] for v in range(3, 7)}
    assert recovered._refs == domain_refs(fact_counts(recovered.graph))
    manager.close()

    # A replica bootstrapped at version 3 that replays the retained records
    # (decoded, deltas derived as recovery derives them), and one that
    # applies them as a replica does.
    records = [
        record_from_json(json.loads(json.dumps(record_to_json(record))))
        for record in primary.records_since(3)
    ]
    replica = HAMStore()
    replica.replace_state(primary.graph_at(3), 3, 3)
    assert replica.replay(records) == 3
    assert _domain_changes(replica) == {v: live[v] for v in range(4, 7)}
    assert replica._refs == domain_refs(fact_counts(replica.graph)) == primary._refs
    bare = HAMStore()
    bare.replace_state(primary.graph_at(3), 3, 3)
    assert bare._refs == domain_refs(fact_counts(primary.graph_at(3)))
    for record in primary.records_since(3):
        bare.apply_replicated(record)
    assert _domain_changes(bare) == {v: live[v] for v in range(4, 7)}
    assert bare._refs == primary._refs
