"""Replication fault injection: SIGKILL a primary mid-commit, SIGKILL a
replica, assert clean convergence afterwards.

Marked ``faultinject`` (deselected by default; run with ``-m faultinject``):
each test boots real server subprocesses and kills them with SIGKILL, so
they are slower and noisier than the default lane tolerates.
"""

import os
import re
import subprocess
import sys
import threading
import time

import pytest

from repro.errors import ReproError
from repro.ham.store import HAMStore
from repro.replication import ReplicaApplier
from repro.service.client import ServiceClient
from repro.service.server import ServiceConfig, ServiceServer

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
LISTEN = re.compile(r"listening on [\d.]+:(\d+)")

pytestmark = pytest.mark.faultinject


def spawn_serve(*args, port=0):
    """Start ``repro serve`` as a subprocess; returns (process, port)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = "src"
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", str(port), *args],
        cwd=REPO_ROOT,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    deadline = time.monotonic() + 30
    while time.monotonic() < deadline:
        line = process.stdout.readline()
        if not line:
            raise AssertionError(
                f"server exited before listening (rc={process.poll()})"
            )
        match = LISTEN.search(line)
        if match:
            return process, int(match.group(1))
    process.kill()
    raise AssertionError("server never reported its port")


def sigkill(process):
    process.kill()
    process.wait(timeout=30)
    process.stdout.close()


def wait_until(predicate, timeout, message):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(0.05)
    raise AssertionError(message)


class TestPrimaryCrash:
    def test_sigkill_primary_mid_commit_replica_converges(self, tmp_path):
        data_dir = str(tmp_path / "primary-data")
        process, port = spawn_serve("--data-dir", data_dir, "--fsync", "always")

        store = HAMStore()
        applier = ReplicaApplier(
            store, "127.0.0.1", port, wait_ms=200,
            reconnect_min=0.05, reconnect_max=0.5, client_timeout=10.0,
        )
        applier.start()
        writer_stop = threading.Event()
        acked = []

        def write_stream():
            try:
                with ServiceClient(port=port, timeout=10) as client:
                    i = 0
                    while not writer_stop.is_set():
                        version = client.update(
                            edges=[[f"c{i}", "crash", f"c{i + 1}"]]
                        )
                        acked.append(version)
                        i += 1
            except ReproError:
                pass  # the kill arrives mid-stream by design

        writer = threading.Thread(target=write_stream, daemon=True)
        try:
            assert applier.wait_ready(15)
            writer.start()
            wait_until(lambda: len(acked) >= 20, 30, "writer never reached 20 commits")
            sigkill(process)  # mid-commit: the writer is still streaming
            writer_stop.set()
            writer.join(timeout=15)

            # Restart the primary on the SAME port (the replica reconnects
            # by address) from the same data dir: crash recovery replays
            # the WAL, then replication serves from the recovered history.
            process, _ = spawn_serve(
                "--data-dir", data_dir, "--fsync", "always", port=port
            )

            with ServiceClient(port=port, timeout=10, retries=5) as client:
                recovered = client.stats()["store"]["version"]
                # fsync=always: every acknowledged commit survived.
                assert recovered >= max(acked), (recovered, max(acked))
                # One more write proves the recovered primary serves the
                # replica's tail from its recovered WAL position.
                final = client.update(edges=[["post", "crash", "recovery"]])
                primary_stats = client.stats()["store"]

            wait_until(
                lambda: store.version == final, 30,
                f"replica at {store.version}, primary recovered to {final}",
            )
            assert store.graph.node_count() == primary_stats["nodes"]
            assert store.graph.edge_count() == primary_stats["edges"]
            status = applier.status()
            assert status["lag_versions"] == 0
        finally:
            writer_stop.set()
            applier.stop()
            if process.poll() is None:
                sigkill(process)


class TestEqualVersionDivergence:
    """The tentpole bug, end to end with real crashes.

    A primary running ``--fsync interval`` can acknowledge commits whose
    WAL records are lost in a crash (never synced).  After recovery it
    re-commits *different* data back onto the same version numbers — and a
    replica that already applied the lost versions sees an equal-or-higher
    primary version with no reset.  Version arithmetic alone would apply
    the rewritten records onto the stale state and diverge silently; the
    applier detects the epoch rotation recovery performed and re-bootstraps
    onto the rewritten history.
    """

    @staticmethod
    def _cut_wal_at_version(data_dir, version):
        """Chop the durable WAL mid-record at the first record holding
        *version*, simulating an unsynced tail lost to the crash (SIGKILL
        alone cannot lose it: appends are flushed to the page cache, which
        survives process death).  The cut is deliberately torn — five bytes
        into the record header — so recovery takes its truncation path and
        rotates the epoch."""
        from repro.persist import wal as wal_mod

        segments = wal_mod.list_segments(os.path.join(data_dir, "wal"))
        cut_index = None
        for index, (_first, path) in enumerate(segments):
            records, _good, corruption = wal_mod.scan_segment(path)
            assert corruption is None, corruption
            for offset, payload in records:
                if payload["version"] >= version:
                    with open(path, "r+b") as handle:
                        handle.truncate(offset + 5)
                    cut_index = index
                    break
            if cut_index is not None:
                break
        assert cut_index is not None, f"version {version} not found in the WAL"
        for _first, path in segments[cut_index + 1:]:
            os.unlink(path)

    def test_rewritten_history_rebootstraps_the_replica(self, tmp_path):
        data_dir = str(tmp_path / "primary-data")
        # A long fsync interval guarantees no record is synced before the
        # kill, so cutting the tail afterwards is a faithful re-enactment.
        process, port = spawn_serve(
            "--data-dir", data_dir, "--fsync", "interval",
            "--fsync-interval", "60",
        )

        checked = ReplicaApplier(
            HAMStore(), "127.0.0.1", port, wait_ms=200,
            reconnect_min=0.05, reconnect_max=0.5, client_timeout=10.0,
        )
        writer_stop = threading.Event()
        acked = []

        def write_stream():
            try:
                with ServiceClient(port=port, timeout=10) as client:
                    i = 0
                    while not writer_stop.is_set():
                        acked.append(
                            client.update(edges=[[f"c{i}", "crash", f"c{i + 1}"]])
                        )
                        i += 1
                        time.sleep(0.005)
            except ReproError:
                pass  # the kill arrives mid-stream by design

        writer = threading.Thread(target=write_stream, daemon=True)
        staging = None
        try:
            checked.start()
            assert checked.wait_ready(15)
            writer.start()
            wait_until(
                lambda: checked.store.version >= 10,
                30, "replica never applied 10 commits",
            )
            sigkill(process)
            writer_stop.set()
            writer.join(timeout=15)
            # The applier is cut off; its applied version is final.
            wait_until(
                lambda: not checked.status()["connected"],
                15, "applier never noticed the primary died",
            )
            applied = checked.store.version
            assert applied >= 10

            # Lose the unsynced tail from version `applied` on: recovery
            # comes back BELOW what the replica already applied.
            self._cut_wal_at_version(data_dir, applied)

            # Stage the rewrite on a TEMPORARY port so the replica (still
            # retrying the original address) cannot see the primary while
            # its version is below the replica's — that would answer
            # `reset` and hide the bug this test pins down.  Re-commit
            # DIFFERENT data past the replica's position.
            target = applied + 1
            staging, staging_port = spawn_serve(
                "--data-dir", data_dir, "--fsync", "interval",
                "--fsync-interval", "60", port=0,
            )
            with ServiceClient(port=staging_port, timeout=10, retries=5) as client:
                recovered = client.stats()["store"]["version"]
                assert recovered == applied - 1, (recovered, applied)
                rewritten = recovered
                for i in range(target - recovered):
                    rewritten = client.update(
                        edges=[[f"d{i}", "divergent", f"d{i + 1}"]]
                    )
            assert rewritten == target
            sigkill(staging)
            staging = None

            # Back on the original port: the replica reconnects and tails
            # from `applied`, and the primary answers records with NO reset
            # (the replica is not ahead).  Version arithmetic sees nothing
            # wrong — equal version, different data: the silent divergence
            # the epoch stamp exists to kill.
            process, _ = spawn_serve(
                "--data-dir", data_dir, "--fsync", "interval",
                "--fsync-interval", "60", port=port,
            )
            with ServiceClient(port=port, timeout=10, retries=5) as client:
                primary_stats = client.stats()["store"]

            # The applier sees the rotated epoch on its first tail
            # response and re-bootstraps onto the rewritten history.
            wait_until(
                lambda: checked.store.version == rewritten
                and checked.store.graph.edge_count() == primary_stats["edges"],
                30,
                f"replica at {checked.store.version} never converged",
            )
            status = checked.status()
            assert status["epoch_rebootstraps"] >= 1
            assert status["bootstraps"] >= 2
            assert checked.store.graph.node_count() == primary_stats["nodes"]
            assert checked.store.graph.has_edge("d0", "d1", "divergent")
            assert not checked.store.graph.has_edge(
                f"c{applied - 1}", f"c{applied}", "crash"
            )
        finally:
            writer_stop.set()
            checked.stop()
            for proc in (process, staging):
                if proc is not None and proc.poll() is None:
                    sigkill(proc)


class TestReplicaCrash:
    def test_sigkill_replica_fresh_one_rebootstraps(self):
        primary = ServiceServer(config=ServiceConfig(port=0)).start_background()
        replica_proc = None
        try:
            with ServiceClient(port=primary.port) as writer:
                for i in range(10):
                    writer.update(edges=[[f"a{i}", "e", f"a{i + 1}"]])

            address = f"127.0.0.1:{primary.port}"
            replica_proc, replica_port = spawn_serve(
                "--replica-of", address, "--repl-wait-ms", "200"
            )

            def applied_version(port):
                with ServiceClient(port=port, timeout=10) as client:
                    return client.stats()["replication"]["applied_version"]

            wait_until(lambda: applied_version(replica_port) == 10, 30,
                       "first replica never caught up")
            sigkill(replica_proc)
            replica_proc = None

            # The primary keeps committing while the replica is down.
            with ServiceClient(port=primary.port) as writer:
                for i in range(10, 15):
                    writer.update(edges=[[f"a{i}", "e", f"a{i + 1}"]])

            # A fresh replica bootstraps cleanly and reaches the new head.
            replica_proc, replica_port = spawn_serve(
                "--replica-of", address, "--repl-wait-ms", "200"
            )
            wait_until(lambda: applied_version(replica_port) == 15, 30,
                       "fresh replica never converged")
            with ServiceClient(port=replica_port) as reader:
                status = reader.stats()["replication"]
                assert status["lag_versions"] == 0
                assert status["bootstraps"] == 1
                result = reader.datalog(
                    "tc(X,Y) :- e(X,Y).\ntc(X,Y) :- tc(X,Z), e(Z,Y).",
                    min_version=15,
                )
                assert ("a0", "a15") in result["tc"]
        finally:
            if replica_proc is not None and replica_proc.poll() is None:
                sigkill(replica_proc)
            primary.stop()
