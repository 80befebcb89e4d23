"""Replication: bootstrap/tail framing, the replica applier, min-version
reads, client retries, and the read/write router.

Network tests run real servers on ephemeral ports; the heavier SIGKILL
fault injection lives in ``test_replication_crash.py``.
"""

import socket
import threading
import time

import pytest

from repro.errors import (
    ProtocolError,
    ReadOnlyError,
    ReplicaStale,
    ServiceError,
    StoreError,
)
from repro.ham import store as store_module
from repro.ham.store import HAMStore
from repro.persist import DurabilityManager, PersistenceConfig
from repro.persist import wal
from repro.replication import ReplicaApplier, ReplicationSource, RoutingClient
from repro.replication.router import RouterServer, parse_address
from repro.service import protocol
from repro.service.client import ServiceClient
from repro.service.server import QueryService, ServiceConfig, ServiceServer

TC_PROGRAM = "tc(X,Y) :- e(X,Y).\ntc(X,Y) :- tc(X,Z), e(Z,Y)."


def commit_edge(store, source, target, label="e"):
    session = store.session()
    with session.transaction() as txn:
        txn.add_edge(source, target, label)
    return store.version


def start_server(**config_kwargs):
    config_kwargs.setdefault("port", 0)
    return ServiceServer(config=ServiceConfig(**config_kwargs)).start_background()


@pytest.fixture
def primary_server():
    server = start_server()
    yield server
    server.stop()


@pytest.fixture
def cluster(primary_server):
    """A primary and two replica servers, torn down replicas-first."""
    address = f"127.0.0.1:{primary_server.port}"
    replicas = [
        start_server(replica_of=address, repl_wait_ms=200, version_wait_ms=500)
        for _ in range(2)
    ]
    for replica in replicas:
        assert replica.service.applier.wait_ready(10)
    yield primary_server, replicas
    for replica in replicas:
        replica.stop()


# --------------------------------------------------------------------------
# WAL iter_records / segment selection (satellite: exact-boundary fix)
# --------------------------------------------------------------------------


class TestWalIteration:
    def test_select_segments_exact_boundary(self):
        segments = [(1, "a"), (5, "b"), (9, "c")]
        # A start landing exactly on a segment's first version must not
        # scan the previous segment.
        assert wal.select_segments(segments, 5) == [(5, "b"), (9, "c")]
        # A start one below the boundary still needs the earlier segment.
        assert wal.select_segments(segments, 4) == segments
        assert wal.select_segments(segments, 9) == [(9, "c")]
        assert wal.select_segments(segments, 100) == [(9, "c")]
        assert wal.select_segments(segments, 1) == segments
        assert wal.select_segments([], 3) == []

    def test_iter_records_spans_rotated_segments(self, tmp_path):
        manager = DurabilityManager(
            PersistenceConfig(str(tmp_path), fsync="off", segment_bytes=512)
        )
        store = manager.recover()
        for i in range(12):
            commit_edge(store, f"n{i}", f"n{i + 1}")
        assert len(wal.list_segments(manager.wal_dir)) > 1, "no rotation happened"
        for start in (0, 1, 5, 11, 12):
            versions = [v for v, _ in wal.iter_records(manager.wal_dir, start)]
            assert versions == list(range(start + 1, 13))
        manager.close()

    def test_iter_records_gap_after_pruning(self, tmp_path):
        manager = DurabilityManager(
            PersistenceConfig(str(tmp_path), fsync="off", segment_bytes=256)
        )
        store = manager.recover()
        for i in range(10):
            commit_edge(store, f"n{i}", f"n{i + 1}")
        manager.checkpoint()  # prunes segments fully covered by the snapshot
        commit_edge(store, "x", "y")
        remaining_first = wal.list_segments(manager.wal_dir)[0][0]
        assert remaining_first > 1, "pruning removed nothing; test is vacuous"
        with pytest.raises(StoreError, match="gap"):
            list(wal.iter_records(manager.wal_dir, 0))
        # From the first retained version onward it iterates cleanly.
        versions = [v for v, _ in wal.iter_records(manager.wal_dir, remaining_first - 1)]
        assert versions == list(range(remaining_first, store.version + 1))
        manager.close()


# --------------------------------------------------------------------------
# Store-level replication hooks
# --------------------------------------------------------------------------


class TestStoreReplication:
    def test_apply_replicated_mirrors_commits(self):
        primary = HAMStore()
        replica = HAMStore()
        replica.set_read_only(True)
        for i in range(5):
            commit_edge(primary, f"a{i}", f"a{i + 1}")
        for record in primary.records_since(0):
            replica.apply_replicated(record)
        assert replica.version == primary.version
        assert replica.graph == primary.graph

    def test_apply_replicated_rejects_out_of_order(self):
        primary = HAMStore()
        replica = HAMStore()
        for i in range(3):
            commit_edge(primary, f"a{i}", f"a{i + 1}")
        records = primary.records_since(0)
        replica.apply_replicated(records[0])
        with pytest.raises(StoreError, match="out of order"):
            replica.apply_replicated(records[2])

    def test_read_only_store_rejects_writes(self):
        store = HAMStore()
        store.set_read_only(True)
        with pytest.raises(StoreError, match="read-only"):
            commit_edge(store, "a", "b")
        store.set_read_only(False)
        assert commit_edge(store, "a", "b") == 1

    def test_wait_for_version(self):
        store = HAMStore()
        assert store.wait_for_version(0, 0)
        assert not store.wait_for_version(1, 0.02)
        timer = threading.Timer(0.05, commit_edge, args=(store, "a", "b"))
        timer.start()
        try:
            assert store.wait_for_version(1, 5)
        finally:
            timer.join()

    def test_replace_state_refuses_durable_store(self, tmp_path):
        manager = DurabilityManager(PersistenceConfig(str(tmp_path), fsync="off"))
        store = manager.recover()
        with pytest.raises(StoreError, match="durab"):
            store.replace_state(HAMStore().graph, 5, 5)
        manager.close()


# --------------------------------------------------------------------------
# ReplicationSource framing (bootstrap + tail), no network
# --------------------------------------------------------------------------


class TestReplicationSource:
    def test_bootstrap_snapshot_for_memory_primary(self):
        store = HAMStore()
        commit_edge(store, "a", "b")
        document = ReplicationSource(store).bootstrap()
        assert document["source"] == "snapshot"
        assert document["version"] == 1
        assert isinstance(document["last_txn_id"], int)

    def test_bootstrap_prefers_checkpoint(self, tmp_path):
        manager = DurabilityManager(PersistenceConfig(str(tmp_path), fsync="off"))
        store = manager.recover()
        for i in range(4):
            commit_edge(store, f"a{i}", f"a{i + 1}")
        manager.checkpoint()
        commit_edge(store, "post", "checkpoint")
        document = ReplicationSource(store, manager).bootstrap()
        # The checkpoint is behind the live store; the WAL covers the rest.
        assert document["source"] == "checkpoint"
        assert document["version"] == 4
        tail = ReplicationSource(store, manager).tail(document["version"])
        assert [r["version"] for r in tail["records"]] == [5]

    def test_tail_orders_and_limits(self):
        store = HAMStore()
        source = ReplicationSource(store)
        for i in range(6):
            commit_edge(store, f"a{i}", f"a{i + 1}")
        body = source.tail(2, max_records=3)
        assert [r["version"] for r in body["records"]] == [3, 4, 5]
        assert body["version"] == 6
        assert "reset" not in body
        rest = source.tail(5)
        assert [r["version"] for r in rest["records"]] == [6]

    def test_tail_heartbeat_when_caught_up(self):
        store = HAMStore()
        commit_edge(store, "a", "b")
        body = ReplicationSource(store).tail(1, wait_ms=30)
        assert body == {"records": [], "version": 1, "epoch": store.epoch}

    def test_tail_long_poll_returns_on_commit(self):
        store = HAMStore()
        source = ReplicationSource(store)
        commit_edge(store, "a", "b")
        timer = threading.Timer(0.05, commit_edge, args=(store, "b", "c"))
        started = time.monotonic()
        timer.start()
        try:
            body = source.tail(1, wait_ms=5000)
        finally:
            timer.join()
        assert time.monotonic() - started < 4.0, "long-poll did not wake on commit"
        assert [r["version"] for r in body["records"]] == [2]

    def test_tail_resets_replica_ahead_of_primary(self):
        store = HAMStore()
        commit_edge(store, "a", "b")
        body = ReplicationSource(store).tail(10)
        assert body["reset"] is True
        assert body["records"] == []
        assert "ahead" in body["reason"]

    def test_tail_resets_when_history_pruned(self, tmp_path):
        manager = DurabilityManager(
            PersistenceConfig(str(tmp_path), fsync="off", segment_bytes=256)
        )
        store = manager.recover()
        for i in range(10):
            commit_edge(store, f"a{i}", f"a{i + 1}")
        manager.checkpoint()
        source = ReplicationSource(store, manager)
        # The store's in-memory log still covers recent history, so force
        # the WAL path by asking for history below the in-memory base of a
        # freshly recovered store.
        manager.close()
        manager2 = DurabilityManager(
            PersistenceConfig(str(tmp_path), fsync="off", segment_bytes=256)
        )
        store2 = manager2.recover()
        source = ReplicationSource(store2, manager2)
        body = source.tail(0)
        assert body.get("reset") is True
        manager2.close()

    def test_wal_fallback_below_in_memory_base(self, tmp_path):
        # keep_checkpoints=2 retains WAL history back to the OLDEST kept
        # checkpoint (v3), so after recovering from the newest (v6) a tail
        # from v3 is below the in-memory base yet still WAL-servable.
        manager = DurabilityManager(
            PersistenceConfig(str(tmp_path), fsync="off", keep_checkpoints=2)
        )
        store = manager.recover()
        for i in range(3):
            commit_edge(store, f"a{i}", f"a{i + 1}")
        manager.checkpoint()
        for i in range(3, 6):
            commit_edge(store, f"a{i}", f"a{i + 1}")
        manager.checkpoint()
        commit_edge(store, "b1", "b2")
        manager.close()
        manager2 = DurabilityManager(PersistenceConfig(str(tmp_path), fsync="off"))
        store2 = manager2.recover()
        assert store2.version == 7
        assert store2.records_since(3) is None, "in-memory log unexpectedly covers v4"
        body = ReplicationSource(store2, manager2).tail(3)
        assert [r["version"] for r in body["records"]] == [4, 5, 6, 7]
        # History before the oldest retained checkpoint is gone: reset.
        assert ReplicationSource(store2, manager2).tail(0)["reset"] is True
        manager2.close()


# --------------------------------------------------------------------------
# Protocol: new ops + field validation
# --------------------------------------------------------------------------


class TestProtocol:
    def test_repl_ops_are_known(self):
        assert "repl_bootstrap" in protocol.OPS
        assert "repl_tail" in protocol.OPS

    @pytest.mark.parametrize("field", ["min_version", "from_version", "max_records", "wait_ms"])
    @pytest.mark.parametrize("bad", [-1, "7", 1.5, True])
    def test_replication_fields_validated(self, field, bad):
        with pytest.raises(ProtocolError, match=field):
            protocol.decode_request(
                protocol.encode({"op": "repl_tail", field: bad})
            )

    def test_error_codes_round_trip(self):
        for exc_type in (ReadOnlyError, ReplicaStale):
            response = protocol.error_response(1, exc_type("boom"))
            with pytest.raises(exc_type):
                protocol.raise_for_error(response)


# --------------------------------------------------------------------------
# min-version reads (read-your-writes gate)
# --------------------------------------------------------------------------


class TestMinVersionReads:
    def test_satisfied_min_version_is_a_plain_read(self):
        service = QueryService()
        commit_edge(service.store, "a", "b")
        body = service.execute(
            {"op": "datalog", "query": TC_PROGRAM, "min_version": 1}
        )
        assert body["version"] == 1

    def test_stale_store_fails_after_bounded_wait(self):
        service = QueryService(config=ServiceConfig(version_wait_ms=30))
        commit_edge(service.store, "a", "b")
        started = time.monotonic()
        with pytest.raises(ReplicaStale, match="requires 5"):
            service.execute(
                {"op": "datalog", "query": TC_PROGRAM, "min_version": 5}
            )
        assert time.monotonic() - started < 5.0

    def test_wait_succeeds_when_commit_arrives(self):
        service = QueryService(config=ServiceConfig(version_wait_ms=5000))
        timer = threading.Timer(0.05, commit_edge, args=(service.store, "a", "b"))
        timer.start()
        try:
            body = service.execute(
                {"op": "datalog", "query": TC_PROGRAM, "min_version": 1}
            )
        finally:
            timer.join()
        assert body["version"] >= 1

    def test_min_version_does_not_split_the_result_cache(self):
        service = QueryService()
        commit_edge(service.store, "a", "b")
        first = service.execute({"op": "datalog", "query": TC_PROGRAM})
        again = service.execute(
            {"op": "datalog", "query": TC_PROGRAM, "min_version": 1}
        )
        assert first["cache"] == "miss"
        assert again["cache"] == "hit"


# --------------------------------------------------------------------------
# ServiceClient retries (satellite)
# --------------------------------------------------------------------------


class TestClientRetries:
    def test_connect_retries_with_backoff(self, monkeypatch):
        attempts = []
        real_connect = socket.create_connection

        def flaky(address, timeout=None):
            attempts.append(address)
            if len(attempts) < 3:
                raise ConnectionRefusedError("boom")
            return real_connect(address, timeout=timeout)

        monkeypatch.setattr(socket, "create_connection", flaky)
        server = start_server()
        try:
            client = ServiceClient(
                port=server.port, retries=3, backoff_base=0.001
            )
            assert client.ping() is True
            client.close()
        finally:
            server.stop()
        assert len(attempts) == 3

    def test_connect_retries_exhausted(self, monkeypatch):
        attempts = []

        def refuse(address, timeout=None):
            attempts.append(address)
            raise ConnectionRefusedError("nope")

        monkeypatch.setattr(socket, "create_connection", refuse)
        with pytest.raises(ServiceError, match="cannot connect"):
            ServiceClient(port=1, retries=2, backoff_base=0.001)
        assert len(attempts) == 3  # initial try + 2 retries

    def test_reconnect_after_close_is_transparent(self, primary_server):
        client = ServiceClient(port=primary_server.port, retries=1, backoff_base=0.001)
        assert client.ping() is True
        client.close()  # drops the socket; next call must reconnect
        assert client.ping() is True
        client.close()

    def test_no_retries_keeps_fail_fast_poisoning(self, primary_server):
        client = ServiceClient(port=primary_server.port)
        assert client.ping() is True
        client._poison()
        with pytest.raises(ServiceError, match="poisoned"):
            client.ping()

    def test_receive_failures_are_never_retried(self, primary_server, monkeypatch):
        client = ServiceClient(port=primary_server.port, retries=5, backoff_base=0.001)
        monkeypatch.setattr(
            client, "_readline", lambda *a: (_ for _ in ()).throw(OSError("torn"))
        )
        with pytest.raises(ServiceError, match="failed: torn"):
            client.ping()
        assert client.poisoned


# --------------------------------------------------------------------------
# Replica applier + replica server behaviour
# --------------------------------------------------------------------------


class TestReplicaServer:
    def test_replica_serves_reads_and_rejects_writes(self, cluster):
        primary, replicas = cluster
        with ServiceClient(port=primary.port) as writer:
            writer.update(edges=[["a", "e", "b"], ["b", "e", "c"]])
        replica = replicas[0]
        assert replica.service.store.wait_for_version(1, 10)
        with ServiceClient(port=replica.port) as reader:
            result = reader.datalog(TC_PROGRAM, min_version=1)
            assert ("a", "c") in result["tc"]
            with pytest.raises(ReadOnlyError, match="read-only replica"):
                reader.update(edges=[["x", "e", "y"]])

    def test_replica_stats_and_health(self, cluster):
        primary, replicas = cluster
        with ServiceClient(port=primary.port) as writer:
            writer.update(edges=[["a", "e", "b"]])
        replica = replicas[0]
        assert replica.service.store.wait_for_version(1, 10)
        status = replica.service.replication_status()
        assert status["role"] == "replica"
        assert status["applied_version"] == 1
        assert status["source"]["role"] == "primary"  # can chain further replicas
        health = replica.service.health()
        assert health["replication"]["bootstrapped"] is True
        assert health["status"] == "ok"
        assert "repro_repl_lag_versions" in replica.service.prometheus_text()
        primary_stats = primary.service.replication_status()
        assert primary_stats["role"] == "primary"
        assert primary_stats["bootstraps_served"] >= 2

    def test_healthz_degrades_past_max_lag(self, cluster):
        primary, replicas = cluster
        replica = replicas[0]
        replica.service.config.repl_max_lag = 0
        applier = replica.service.applier
        with applier._lock:
            applier._primary_version = replica.service.store.version + 5
        assert replica.service.health()["status"] == "degraded"
        with applier._lock:
            applier._primary_version = replica.service.store.version
        assert replica.service.health()["status"] == "ok"

    def test_replica_rebootstraps_when_primary_regresses(self, primary_server):
        port = primary_server.port
        with ServiceClient(port=port) as writer:
            for i in range(5):
                writer.update(edges=[[f"a{i}", "e", f"a{i + 1}"]])
        store = HAMStore()
        applier = ReplicaApplier(store, "127.0.0.1", port, wait_ms=100,
                                 reconnect_min=0.01, reconnect_max=0.1)
        rebootstraps = []
        applier.on_rebootstrap(lambda: rebootstraps.append(True))
        applier.start()
        try:
            assert applier.wait_ready(10)
            assert store.wait_for_version(5, 10)
            # Replace the primary with a fresh (empty) one on the same port:
            # the replica is now AHEAD and must re-bootstrap, not error.
            primary_server.stop()
            fresh = start_server(host="127.0.0.1", port=port)
            try:
                with ServiceClient(port=port) as writer:
                    writer.update(edges=[["z1", "e", "z2"]])
                deadline = time.monotonic() + 15
                while time.monotonic() < deadline:
                    if rebootstraps and store.version == 1 and store.graph.edge_count() == 1:
                        break
                    time.sleep(0.05)
                assert rebootstraps, "replica never re-bootstrapped"
                assert store.version == fresh.service.store.version
                assert store.graph == fresh.service.store.graph
            finally:
                applier.stop()
                fresh.stop()
        finally:
            applier.stop()

    def test_replica_mode_rejects_data_dir(self, tmp_path):
        with pytest.raises(StoreError, match="incompatible"):
            QueryService(
                config=ServiceConfig(
                    replica_of="127.0.0.1:1", data_dir=str(tmp_path)
                )
            )


# --------------------------------------------------------------------------
# Router: round-robin, ejection, read-your-writes, RouterServer
# --------------------------------------------------------------------------


class TestRouter:
    def test_parse_address(self):
        assert parse_address("10.0.0.1:7464") == ("10.0.0.1", 7464)
        assert parse_address(("h", 9)) == ("h", 9)
        assert parse_address("somehost") == ("somehost", 7464)

    def test_reads_round_robin_and_read_your_writes(self, cluster):
        primary, replicas = cluster
        addresses = [("127.0.0.1", r.port) for r in replicas]
        with RoutingClient(("127.0.0.1", primary.port), addresses) as router:
            router.update(edges=[["a", "e", "b"]])
            router.update(edges=[["b", "e", "c"]])
            assert router.min_version == 2
            for _ in range(4):
                assert ("a", "c") in router.datalog(TC_PROGRAM)["tc"]
            stats = router.router_stats()
            assert stats["reads_routed"] == 4
            assert stats["writes_routed"] == 2
        # Both replicas actually served reads (round-robin, no ejections).
        for replica in replicas:
            counters = replica.service.stats()["metrics"]["counters"]
            assert counters.get("requests.datalog", 0) >= 1

    def test_dead_replica_is_ejected_and_reads_survive(self, cluster):
        primary, replicas = cluster
        dead, alive = replicas
        addresses = [("127.0.0.1", dead.port), ("127.0.0.1", alive.port)]
        with RoutingClient(
            ("127.0.0.1", primary.port), addresses, timeout=2.0, eject_seconds=30
        ) as router:
            router.update(edges=[["a", "e", "b"]])
            dead.stop()
            for _ in range(4):
                assert ("a", "b") in router.datalog(TC_PROGRAM)["tc"]
            stats = router.router_stats()
            assert stats["ejections"] >= 1
            dead_state = next(
                entry for entry in stats["replicas"]
                if entry["address"].endswith(str(dead.port))
            )
            assert not dead_state["healthy"]

    def test_stale_replica_redirects_to_primary(self, primary_server):
        # A plain independent server poses as a replica stuck at version 0
        # with no catch-up wait: every read-your-writes read must redirect.
        stuck = start_server(version_wait_ms=0)
        try:
            with RoutingClient(
                ("127.0.0.1", primary_server.port), [("127.0.0.1", stuck.port)]
            ) as router:
                router.update(edges=[["a", "e", "b"]])
                assert ("a", "b") in router.datalog(TC_PROGRAM)["tc"]
                stats = router.router_stats()
                assert stats["stale_redirects"] >= 1
                assert stats["primary_fallbacks"] >= 1
                assert stats["ejections"] == 0  # stale is not unhealthy
        finally:
            stuck.stop()

    def test_write_errors_propagate_without_version_bump(self, cluster):
        primary, replicas = cluster
        with RoutingClient(("127.0.0.1", primary.port)) as router:
            with pytest.raises(ProtocolError):
                router.call("update")  # no nodes/edges
            assert router.min_version is None

    def test_router_server_speaks_the_wire_protocol(self, cluster):
        primary, replicas = cluster
        router = RouterServer(
            f"127.0.0.1:{primary.port}",
            [f"127.0.0.1:{r.port}" for r in replicas],
        ).start()
        try:
            with ServiceClient(port=router.port) as client:
                client.update(edges=[["a", "e", "b"]])
                version = client.update(edges=[["b", "e", "c"]])
                assert version == 2
                assert ("a", "c") in client.datalog(TC_PROGRAM)["tc"]
                assert client.ping() is True
                with pytest.raises(ServiceError, match="unknown op"):
                    client.call("bogus")
        finally:
            router.stop()

    def test_router_server_isolates_tokens_per_connection(self, cluster):
        primary, replicas = cluster
        router = RouterServer(
            f"127.0.0.1:{primary.port}",
            [f"127.0.0.1:{r.port}" for r in replicas],
        ).start()
        try:
            with ServiceClient(port=router.port) as writer:
                writer.update(edges=[["a", "e", "b"]])
            with ServiceClient(port=router.port) as reader:
                # A different connection has no token; the read still works
                # (it may lag, but these replicas are fast).
                assert reader.ping() is True
        finally:
            router.stop()


class TestTopPanels:
    """`repro top` renders the replication stats block for both roles."""

    def _render(self, replication):
        from repro.service.top import TopDashboard

        stats = {"store": {"version": 3}, "metrics": {}, "replication": replication}
        return TopDashboard(client=None).render(stats)

    def test_replica_panel(self):
        text = self._render({
            "role": "replica",
            "primary": "127.0.0.1:7464",
            "connected": True,
            "lag_versions": 2,
            "applied_version": 41,
            "records_applied": 41,
            "tail_errors": 1,
        })
        assert "replica   of 127.0.0.1:7464  connected  lag 2 versions" in text
        assert "applied v41" in text and "errors 1" in text

    def test_replica_panel_disconnected_unknown_lag(self):
        text = self._render({
            "role": "replica",
            "primary": "127.0.0.1:7464",
            "connected": False,
            "lag_versions": None,
            "applied_version": 41,
        })
        assert "DISCONNECTED" in text and "lag ? versions" in text

    def test_primary_panel_appears_only_with_traffic(self):
        quiet = self._render({"role": "primary", "tail_requests": 0, "bootstraps_served": 0})
        assert "primary   bootstraps" not in quiet
        busy = self._render({
            "role": "primary",
            "tail_requests": 7,
            "bootstraps_served": 2,
            "records_shipped": 40,
            "resets_signaled": 1,
        })
        assert "primary   bootstraps 2  tails 7  shipped 40  resets 1" in busy

    def test_panels_show_epoch_and_promotion(self):
        replica = self._render({
            "role": "replica",
            "primary": "127.0.0.1:7464",
            "connected": False,
            "lag_versions": 3,
            "applied_version": 41,
            "seconds_since_poll": 12.4,
            "primary_epoch": "deadbeefcafe0123",
        })
        assert "DISCONNECTED 12s" in replica
        assert "epoch deadbeef" in replica
        primary = self._render({
            "role": "primary",
            "tail_requests": 7,
            "bootstraps_served": 2,
            "records_shipped": 40,
            "resets_signaled": 1,
            "epoch": "deadbeefcafe0123",
            "promotion": {"promoted": True},
        })
        assert "epoch deadbeef" in primary
        assert "PROMOTED" in primary


# --------------------------------------------------------------------------
# Epochs: store semantics, wire stamps, replica divergence detection
# --------------------------------------------------------------------------


class TestStoreEpoch:
    def test_epoch_minted_and_stable_across_commits(self):
        store = HAMStore()
        epoch = store.epoch
        assert isinstance(epoch, str) and epoch
        for i in range(3):
            commit_edge(store, f"a{i}", f"a{i + 1}")
        assert store.epoch == epoch, "commits must stay on one history line"

    def test_replace_state_mints_or_adopts_epoch(self):
        store = HAMStore()
        commit_edge(store, "a", "b")
        before = store.epoch
        store.replace_state(HAMStore().graph, 5, 5)
        assert store.epoch != before, "replacing history must rotate the epoch"
        store.replace_state(HAMStore().graph, 6, 6, epoch="cafe0123cafe0123")
        assert store.epoch == "cafe0123cafe0123"

    def test_set_epoch_rejects_empty(self):
        store = HAMStore()
        with pytest.raises(StoreError, match="epoch"):
            store.set_epoch("")

    def test_a_trim_keeps_the_epoch_memory_or_durable(self, tmp_path, monkeypatch):
        monkeypatch.setattr(store_module, "HISTORY_WINDOW", 2)
        manager = DurabilityManager(PersistenceConfig(str(tmp_path), fsync="off"))
        try:
            for store in (HAMStore(), manager.recover()):
                before = store.epoch
                for i in range(5):
                    commit_edge(store, f"a{i}", f"a{i + 1}")
                assert store.stats()["base_version"] > 0
                # A trim rewrites no version: same history line.
                assert store.epoch == before
        finally:
            manager.close()

    def test_bootstrap_tail_and_reset_carry_epoch(self):
        store = HAMStore()
        commit_edge(store, "a", "b")
        source = ReplicationSource(store)
        assert source.bootstrap()["epoch"] == store.epoch
        assert source.tail(0)["epoch"] == store.epoch
        ahead = source.tail(10)
        assert ahead["reset"] is True
        assert ahead["epoch"] == store.epoch
        assert source.stats()["epoch"] == store.epoch


class TestEpochDivergence:
    """The tentpole bug: a primary restart that rewrites history back to an
    equal-or-higher version is invisible to version arithmetic — only the
    epoch stamp exposes it."""

    def _seed_primary_and_replica(self):
        server = start_server()
        port = server.port
        with ServiceClient(port=port) as writer:
            for i in range(3):
                writer.update(edges=[[f"a{i}", "e", f"a{i + 1}"]])
        store = HAMStore()
        applier = ReplicaApplier(
            store, "127.0.0.1", port, wait_ms=100,
            reconnect_min=0.01, reconnect_max=0.1,
        )
        applier.start()
        assert applier.wait_ready(10)
        assert store.wait_for_version(3, 10)
        return server, port, store, applier

    def _rewritten_primary(self, port):
        """A different history at version 4 >= the replica's 3: tail(3)
        serves records 4 with no reset, so versions alone look fine."""
        rewritten = HAMStore()
        for i in range(4):
            commit_edge(rewritten, f"z{i}", f"z{i + 1}")
        server = ServiceServer(
            store=rewritten, config=ServiceConfig(host="127.0.0.1", port=port)
        ).start_background()
        return server, rewritten

    def test_replica_adopts_primary_epoch(self):
        server, _port, _store, applier = self._seed_primary_and_replica()
        try:
            status = applier.status()
            assert status["primary_epoch"] == server.service.store.epoch
            assert status["epoch"] == server.service.store.epoch
            assert status["epoch_rebootstraps"] == 0
        finally:
            applier.stop()
            server.stop()

    def test_epoch_change_triggers_rebootstrap(self):
        server, port, store, applier = self._seed_primary_and_replica()
        fresh = None
        try:
            server.stop()
            fresh, rewritten = self._rewritten_primary(port)
            deadline = time.monotonic() + 15
            while time.monotonic() < deadline:
                if store.version == 4 and store.graph == rewritten.graph:
                    break
                time.sleep(0.05)
            assert store.graph == rewritten.graph, "replica never converged"
            status = applier.status()
            assert status["epoch_rebootstraps"] >= 1
            assert status["primary_epoch"] == rewritten.epoch
        finally:
            applier.stop()
            server.stop()
            if fresh is not None:
                fresh.stop()


# --------------------------------------------------------------------------
# Promotion + router failover
# --------------------------------------------------------------------------


class TestPromotion:
    def test_promote_flips_replica_to_writable_primary(self, cluster):
        primary, replicas = cluster
        with ServiceClient(port=primary.port) as writer:
            writer.update(edges=[["a", "e", "b"]])
        replica = replicas[0]
        assert replica.service.store.wait_for_version(1, 10)
        old_epoch = replica.service.store.epoch
        with ServiceClient(port=replica.port) as client:
            with pytest.raises(ReadOnlyError):
                client.update(edges=[["x", "e", "y"]])
            document = client.promote()
            assert document["promoted"] is True
            assert document["promoted_from"] == f"127.0.0.1:{primary.port}"
            assert document["applied_version"] == 1
            assert document["epoch"] != old_epoch
            assert client.update(edges=[["b", "e", "c"]]) == 2
            with pytest.raises(ProtocolError, match="already promoted"):
                client.promote()
        assert replica.service.store.epoch == document["epoch"]
        status = replica.service.replication_status()
        assert status["role"] == "primary"
        assert status["promotion"]["promoted_from"].endswith(str(primary.port))
        assert "repro_repl_promoted 1" in replica.service.prometheus_text()

    def test_promote_rejects_plain_primary(self, primary_server):
        with ServiceClient(port=primary_server.port) as client:
            with pytest.raises(ProtocolError, match="not a replica"):
                client.promote()

    def test_promotion_rotates_epoch_for_downstream(self, cluster):
        # A second replica still tailing must see the promoted server's new
        # epoch and re-bootstrap off it rather than trust version numbers.
        primary, replicas = cluster
        promoted, follower = replicas
        with ServiceClient(port=primary.port) as writer:
            writer.update(edges=[["a", "e", "b"]])
        for replica in replicas:
            assert replica.service.store.wait_for_version(1, 10)
        primary.stop()
        promoted.service.promote()
        with ServiceClient(port=promoted.port) as writer:
            writer.update(edges=[["b", "e", "c"]])
        # Point the follower at the promoted server (operator re-target).
        follower.service.applier.stop()
        follower.service.applier = None
        store = follower.service.store
        applier = ReplicaApplier(store, "127.0.0.1", promoted.port, wait_ms=100,
                                 reconnect_min=0.01, reconnect_max=0.1)
        follower.service.applier = applier
        applier.start()
        try:
            assert applier.wait_ready(10)
            assert store.wait_for_version(2, 10)
            assert store.graph == promoted.service.store.graph
            assert applier.status()["primary_epoch"] == promoted.service.store.epoch
        finally:
            applier.stop()


class TestFailover:
    def test_router_fails_writes_over_to_promoted_replica(self, cluster):
        primary, replicas = cluster
        addresses = [("127.0.0.1", r.port) for r in replicas]
        with RoutingClient(
            ("127.0.0.1", primary.port), addresses, retries=0
        ) as router:
            router.update(edges=[["a", "e", "b"]])
            for replica in replicas:
                assert replica.service.store.wait_for_version(1, 10)
            primary.stop()
            replicas[0].service.promote()
            assert router.update(edges=[["b", "e", "c"]]) == 2
            stats = router.router_stats()
            assert stats["failovers"] == 1
            assert stats["primary"].endswith(str(replicas[0].port))
            # Token re-armed from the failover write's own version.
            assert router.min_version == 2
            # The dead primary is parked as a replica candidate for rejoin.
            assert any(
                entry["address"].endswith(str(primary.port))
                for entry in stats["replicas"]
            )
            # Reads route too (the still-tailing replica reports stale, the
            # new primary serves).
            assert ("a", "c") in router.datalog(TC_PROGRAM)["tc"]

    def test_writes_fail_without_a_promoted_replica(self, cluster):
        primary, replicas = cluster
        addresses = [("127.0.0.1", r.port) for r in replicas]
        with RoutingClient(
            ("127.0.0.1", primary.port), addresses, retries=0
        ) as router:
            router.update(edges=[["a", "e", "b"]])
            primary.stop()
            # Nobody was promoted: both replicas answer read_only and the
            # original connection error surfaces.
            with pytest.raises(ServiceError):
                router.update(edges=[["b", "e", "c"]])
            assert router.router_stats()["failovers"] == 0

    def test_read_token_resets_when_unprovable(self, primary_server):
        # The primary that minted the token dies and the only replica is
        # permanently behind it: instead of deadlocking read-your-writes,
        # the router resets the token and serves current data.
        stuck = start_server(version_wait_ms=0)
        try:
            with RoutingClient(
                ("127.0.0.1", primary_server.port),
                [("127.0.0.1", stuck.port)],
                retries=0,
            ) as router:
                router.update(edges=[["a", "e", "b"]])
                assert router.min_version == 1
                primary_server.stop()
                result = router.datalog(TC_PROGRAM)
                assert result.get("tc", set()) == set()  # stuck server is empty
                stats = router.router_stats()
                assert stats["token_resets"] >= 1
                assert router.min_version is None
        finally:
            stuck.stop()

    def test_connect_failures_count_like_midcall_poisons(self, primary_server):
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        dead_port = probe.getsockname()[1]
        probe.close()
        with ServiceClient(port=primary_server.port) as writer:
            writer.update(edges=[["a", "e", "b"]])
        with RoutingClient(
            ("127.0.0.1", primary_server.port),
            [("127.0.0.1", dead_port)],
            retries=0,
        ) as router:
            assert ("a", "b") in router.datalog(TC_PROGRAM)["tc"]
            stats = router.router_stats()
            entry = stats["replicas"][0]
            assert entry["failures"] >= 1, "connect refusal was not accounted"
            assert not entry["healthy"]
            assert stats["ejections"] >= 1
            assert stats["primary_fallbacks"] >= 1

    def test_router_server_shares_failover_topology(self, cluster):
        primary, replicas = cluster
        router = RouterServer(
            f"127.0.0.1:{primary.port}",
            [f"127.0.0.1:{r.port}" for r in replicas],
        ).start()
        try:
            with ServiceClient(port=router.port) as first:
                first.update(edges=[["a", "e", "b"]])
                for replica in replicas:
                    assert replica.service.store.wait_for_version(1, 10)
                primary.stop()
                replicas[0].service.promote()
                assert first.update(edges=[["b", "e", "c"]]) == 2
            assert router.failovers == 1
            assert router.primary.endswith(str(replicas[0].port))
            # A connection opened after the failover starts on the
            # discovered topology: no second probe needed.
            with ServiceClient(port=router.port) as second:
                assert second.update(edges=[["c", "e", "d"]]) == 3
            assert router.failovers == 1
        finally:
            router.stop()


# --------------------------------------------------------------------------
# Health: tail-disconnect grace (satellite)
# --------------------------------------------------------------------------


class TestDisconnectGrace:
    def test_stats_and_health_surface_tail_connection(self, cluster):
        _primary, replicas = cluster
        service = replicas[0].service
        status = service.stats()["replication"]
        assert status["tail_connected"] is True
        assert "seconds_since_poll" in status
        health = service.health()["replication"]
        assert health["tail_connected"] is True
        text = service.prometheus_text()
        assert "repro_repl_seconds_since_poll" in text
        assert "repro_repl_epoch_rebootstraps_total" in text
        assert 'repro_repl_epoch{epoch="' in text

    def test_healthz_degrades_after_disconnect_grace(self, cluster):
        _primary, replicas = cluster
        service = replicas[0].service
        applier = service.applier
        assert service.health()["status"] == "ok"
        with applier._lock:
            applier._connected = False
            applier._last_poll_monotonic = time.monotonic() - 5.0
        # Five seconds of silence is a blip under a generous grace...
        service.config.repl_disconnect_grace = 60.0
        assert service.health()["status"] == "ok"
        # ...and fatal once the grace period has passed.
        service.config.repl_disconnect_grace = 1.0
        assert service.health()["status"] == "degraded"
        # A tail that never polled cannot vouch for its staleness at all.
        service.config.repl_disconnect_grace = 60.0
        with applier._lock:
            applier._last_poll_monotonic = None
        assert service.health()["status"] == "degraded"
        with applier._lock:
            applier._connected = True
        assert service.health()["status"] == "ok"
