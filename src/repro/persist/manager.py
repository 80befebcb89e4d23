"""The durability manager: WAL + checkpoints + recovery, bound to one store.

Division of labor with :class:`~repro.ham.store.HAMStore`:

- the store owns commit validation, versioning, and subscriber dispatch;
- the manager owns everything that touches disk.  The store calls
  :meth:`DurabilityManager.log_commit` *inside its commit critical section*
  — before the in-memory graph and version are updated — so the WAL is
  version-ordered and a failed append aborts the commit cleanly (the store
  state is untouched).  With ``fsync="always"`` the fsync happens in that
  same critical section: once ``commit()`` returns, the transaction is on
  disk.

Lock order is ``store._lock → manager._io_lock`` and never the reverse:
``log_commit`` arrives holding the store lock and takes the I/O lock;
``checkpoint()`` snapshots the store (acquiring and releasing the store
lock) *before* touching the I/O lock.
"""

from __future__ import annotations

import logging
import os
import threading
import time

from repro import obs
from repro.errors import StoreError
from repro.graphs.multigraph import LabeledMultigraph
from repro.ham.store import HAMStore
from repro.persist import checkpoint as ckpt
from repro.persist import wal
from repro.persist.epoch import load_epoch, new_epoch, store_epoch
from repro.persist.serde import record_from_json, record_to_json

logger = logging.getLogger(__name__)


class PersistenceConfig:
    """Tunables for one durable data directory."""

    __slots__ = (
        "data_dir",
        "fsync",
        "fsync_interval",
        "segment_bytes",
        "checkpoint_every",
        "keep_checkpoints",
    )

    def __init__(
        self,
        data_dir,
        fsync="interval",
        fsync_interval=0.05,
        segment_bytes=16 * 1024 * 1024,
        checkpoint_every=0,
        keep_checkpoints=2,
    ):
        if fsync not in wal.FSYNC_POLICIES:
            raise StoreError(
                f"fsync policy must be one of {wal.FSYNC_POLICIES}, got {fsync!r}"
            )
        if keep_checkpoints < 1:
            raise StoreError("keep_checkpoints must be >= 1")
        self.data_dir = data_dir
        self.fsync = fsync
        self.fsync_interval = fsync_interval
        self.segment_bytes = segment_bytes
        #: Auto-checkpoint after this many commits (0 = manual only).
        self.checkpoint_every = checkpoint_every
        self.keep_checkpoints = keep_checkpoints


class DurabilityManager:
    """Owns one data directory; makes one :class:`HAMStore` crash-safe."""

    def __init__(self, config, metrics=None):
        if isinstance(config, str):
            config = PersistenceConfig(config)
        self.config = config
        self.data_dir = config.data_dir
        self.wal_dir = os.path.join(config.data_dir, "wal")
        self.metrics = metrics
        self._store = None
        self._writer = None
        self._io_lock = threading.Lock()
        self._checkpoint_lock = threading.Lock()
        self._last_version = 0
        self._last_txn_id = 0
        self._last_checkpoint_version = 0
        self._checkpoint_count = 0
        self._commits_since_checkpoint = 0
        self._recovery_info = None
        self._epoch = None
        self._closed = False

    @property
    def epoch(self):
        """The durable replication epoch (``None`` before :meth:`recover`)."""
        return self._epoch

    # ------------------------------------------------------------- recovery

    def recover(self, store=None):
        """Open the data directory and return a recovered, wired store.

        Loads the newest valid checkpoint, replays the WAL tail on top of
        it, truncates a torn or corrupt final record (with a logged
        warning), and attaches this manager to the store so every later
        commit is WAL-logged.  *store*, when given, must be fresh (version
        0) — unless the data directory is empty, in which case a non-empty
        store is *adopted*: its current state becomes the first checkpoint.
        """
        if self._store is not None:
            raise StoreError("durability manager is already bound to a store")
        os.makedirs(self.wal_dir, exist_ok=True)
        started = time.perf_counter()
        with obs.span("persist.recover", data_dir=self.data_dir) as span:
            ckpt.remove_stale_tmp(self.data_dir)
            segments = wal.list_segments(self.wal_dir)

            with obs.span("persist.recover.load_checkpoint") as cp_span:
                loaded = ckpt.latest_valid_checkpoint(self.data_dir)
                if loaded is None:
                    base_version, last_txn_id = 0, 0
                    base_graph = LabeledMultigraph()
                    checkpoint_path = None
                else:
                    base_version, last_txn_id, base_graph, checkpoint_path = loaded
                if cp_span:
                    cp_span.annotate(path=checkpoint_path, version=base_version)

            disk_empty = loaded is None and not any(
                os.path.getsize(path) for _first, path in segments
            )
            if store is None:
                store = HAMStore()
            elif store.version != 0:
                if not disk_empty:
                    raise StoreError(
                        "cannot recover into a non-empty store: the data "
                        f"directory {self.data_dir!r} already holds state"
                    )
                return self._adopt(store)

            store.replace_state(base_graph, base_version, last_txn_id)
            with obs.span("persist.recover.replay_wal") as replay_span:
                replayed, truncated = self._replay_segments(segments, store)
                if replay_span:
                    replay_span.annotate(replayed=replayed, truncated=truncated)

            version, _graph, last_txn_id = store._durable_snapshot()
            # The durable epoch names this directory's history line.  It is
            # minted on first use and kept across clean restarts — but a
            # truncated WAL tail means acknowledged commits may be gone and
            # the versions they held will be re-issued with different data,
            # so the epoch rotates and tailing replicas re-bootstrap instead
            # of trusting version numbers.
            previous_epoch = load_epoch(self.data_dir)
            epoch = previous_epoch if previous_epoch and not truncated else new_epoch()
            if epoch != previous_epoch:
                store_epoch(self.data_dir, epoch)
                if previous_epoch is not None:
                    logger.warning(
                        "WAL truncation rewrote history; epoch rotated %s -> %s",
                        previous_epoch,
                        epoch,
                    )
            self._epoch = epoch
            store.set_epoch(epoch)
            self._open_writer(segments, next_version=version + 1)
            self._last_version = version
            self._last_txn_id = last_txn_id
            self._last_checkpoint_version = base_version
            self._store = store
            store.attach_durability(self)
            self._recovery_info = {
                "checkpoint_version": base_version,
                "checkpoint_path": checkpoint_path,
                "replayed_records": replayed,
                "recovered_version": version,
                "truncated": truncated,
                "epoch": epoch,
                "epoch_rotated": previous_epoch is not None and epoch != previous_epoch,
                "elapsed_ms": round((time.perf_counter() - started) * 1000.0, 3),
            }
            if span:
                span.annotate(**self._recovery_info)
        logger.info(
            "recovered store at version %d (checkpoint %d + %d WAL records) from %s",
            version,
            base_version,
            replayed,
            self.data_dir,
        )
        return store

    def _adopt(self, store):
        """Bind a pre-populated in-memory store to an empty data directory.

        Its current state becomes checkpoint #1; history before adoption is
        not durable (the WAL starts after the checkpoint).
        """
        version, _graph, last_txn_id = store._durable_snapshot()
        self._open_writer([], next_version=version + 1)
        self._last_version = version
        self._last_txn_id = last_txn_id
        self._store = store
        store.attach_durability(self)
        # The adopted store already carries an epoch (minted at
        # construction); it becomes the directory's durable epoch.
        self._epoch = store.epoch
        store_epoch(self.data_dir, self._epoch)
        self._recovery_info = {
            "checkpoint_version": 0,
            "checkpoint_path": None,
            "replayed_records": 0,
            "recovered_version": version,
            "truncated": False,
            "epoch": self._epoch,
            "epoch_rotated": False,
            "adopted": True,
            "elapsed_ms": 0.0,
        }
        self.checkpoint()
        return store

    def _replay_segments(self, segments, store):
        """Replay every WAL record after *store*'s version onto it.

        Decodes the frames and checks that their versions run on without a
        gap, then hands the records to :meth:`HAMStore.replay`, which stages
        them the way a commit does.  Returns ``(replayed, truncated)``.
        Truncates at the first torn frame, CRC failure, undecodable record,
        version gap, or record the store refused (one whose operations the
        graph cannot take, as a commit would refuse it); later segments
        after a truncation point are unlinked (they are beyond the lost
        suffix and would otherwise re-surface records after a gap).
        """
        records, positions, stop = [], [], None
        expected = store.version + 1
        for index, (_first, path) in enumerate(segments):
            entries, good_bytes, corruption = wal.scan_segment(path)
            for offset, payload in entries:
                try:
                    record = record_from_json(payload)
                except Exception as exc:  # noqa: BLE001 — schema drift must truncate, not crash
                    stop = index, offset, f"undecodable record: {exc}"
                    break
                if record.version < expected:
                    continue  # already covered by the checkpoint
                if record.version > expected:
                    stop = index, offset, f"version gap: expected {expected}, found {record.version}"
                    break
                records.append(record)
                positions.append((index, offset))
                expected += 1
            if stop is None and corruption is not None:
                stop = index, good_bytes, corruption.reason
            if stop is not None:
                break
        replayed = store.replay(records)
        if replayed < len(records):
            stop = *positions[replayed], f"unreplayable record: version {records[replayed].version}"
        if stop is not None:
            index, offset, reason = stop
            path = segments[index][1]
            wal.truncate_segment(path, offset, wal.WalCorruption(path, offset, reason))
            for _later_first, later_path in segments[index + 1 :]:
                logger.warning("dropping WAL segment beyond truncation point: %s", later_path)
                os.unlink(later_path)
            wal.fsync_directory(self.wal_dir)
        return replayed, stop is not None

    def _open_writer(self, segments, next_version):
        self._writer = wal.WalWriter(
            self.wal_dir,
            fsync=self.config.fsync,
            fsync_interval=self.config.fsync_interval,
            segment_bytes=self.config.segment_bytes,
        )
        # Reopen the surviving tail segment for append; start fresh if none.
        tail = None
        for _first, path in reversed(segments):
            if os.path.exists(path):
                tail = path
                break
        if tail is not None:
            self._writer.open(path=tail)
        else:
            self._writer.open(next_version=next_version)
            wal.fsync_directory(self.wal_dir)

    # ------------------------------------------------------------- logging

    def log_commit(self, record):
        """Append one commit to the WAL (called inside the store's commit
        critical section, before in-memory state is updated).

        Raising here aborts the commit — the store applies nothing.
        """
        if self._closed:
            raise StoreError("durability manager is closed")
        with obs.span("persist.wal_append", version=record.version) as span:
            payload = record_to_json(record)
            with self._io_lock:
                nbytes, fsync_seconds = self._writer.append(
                    payload, next_version=record.version + 1
                )
                self._last_version = record.version
                self._last_txn_id = record.txn_id
            self._commits_since_checkpoint += 1
            if span:
                span.annotate(bytes=nbytes, fsync_ms=round(fsync_seconds * 1000.0, 3))
        if self.metrics is not None:
            self.metrics.incr("persist.wal_appends")
            self.metrics.incr("persist.wal_bytes", nbytes)
            if fsync_seconds:
                self.metrics.observe_phase("wal.fsync", fsync_seconds)

    def maybe_checkpoint(self):
        """Auto-checkpoint when ``checkpoint_every`` commits have landed.

        Called by the store *after* releasing its commit lock; skips
        silently if another thread is already checkpointing.
        """
        every = self.config.checkpoint_every
        if not every or self._commits_since_checkpoint < every:
            return None
        if not self._checkpoint_lock.acquire(blocking=False):
            return None
        try:
            return self._checkpoint_locked()
        finally:
            self._checkpoint_lock.release()

    # ---------------------------------------------------------- checkpoints

    def checkpoint(self):
        """Snapshot the current graph and prune fully-covered WAL segments."""
        with self._checkpoint_lock:
            return self._checkpoint_locked()

    def _checkpoint_locked(self):
        if self._closed:
            raise StoreError("durability manager is closed")
        if self._store is None:
            raise StoreError("durability manager is not bound to a store")
        started = time.perf_counter()
        version, graph, last_txn_id = self._store._durable_snapshot()
        with obs.span("persist.checkpoint", version=version) as span:
            if version == self._last_checkpoint_version and version != 0:
                return {
                    "version": version,
                    "path": os.path.join(self.data_dir, ckpt.checkpoint_name(version)),
                    "skipped": True,
                    "elapsed_ms": 0.0,
                }
            with self._io_lock:
                # The WAL must be durable up to the snapshot before the
                # checkpoint claims that state, and the rotation makes the
                # now-covered segment prunable.
                self._writer.sync(force=True)
                path = ckpt.write_checkpoint(self.data_dir, version, last_txn_id, graph)
                self._writer.rotate(next_version=self._last_version + 1)
            removed_checkpoints = ckpt.remove_old_checkpoints(
                self.data_dir, self.config.keep_checkpoints
            )
            removed_segments = self._prune_segments()
            self._last_checkpoint_version = version
            self._checkpoint_count += 1
            self._commits_since_checkpoint = 0
            elapsed_ms = round((time.perf_counter() - started) * 1000.0, 3)
            if span:
                span.annotate(
                    path=path,
                    segments_removed=len(removed_segments),
                    elapsed_ms=elapsed_ms,
                )
        if self.metrics is not None:
            self.metrics.incr("persist.checkpoints")
            self.metrics.observe_phase("persist.checkpoint", elapsed_ms / 1000.0)
        logger.info("checkpoint at version %d -> %s (%.1fms)", version, path, elapsed_ms)
        return {
            "version": version,
            "path": path,
            "checkpoints_removed": len(removed_checkpoints),
            "segments_removed": len(removed_segments),
            "elapsed_ms": elapsed_ms,
        }

    def _prune_segments(self):
        """Unlink WAL segments every retained checkpoint has superseded.

        A segment is prunable when the *next* segment starts at or before
        ``oldest retained checkpoint version + 1`` — i.e. every record it
        holds is ≤ that version — so recovery can still fall back to any
        retained checkpoint when a newer one fails to load.
        """
        checkpoints = ckpt.list_checkpoints(self.data_dir)
        if not checkpoints:
            return []
        horizon = checkpoints[0][0]
        removed = []
        with self._io_lock:
            segments = wal.list_segments(self.wal_dir)
            for (first, path), (next_first, _next_path) in zip(segments, segments[1:]):
                if path == self._writer.segment_path:
                    break
                if next_first <= horizon + 1:
                    os.unlink(path)
                    removed.append(path)
                else:
                    break
        if removed:
            wal.fsync_directory(self.wal_dir)
        return removed

    # -------------------------------------------------------------- export

    def stats(self):
        """A JSON-ready summary of the durable state."""
        writer = self._writer
        with self._io_lock:
            segments = wal.list_segments(self.wal_dir)
            snapshot = {
                "data_dir": self.data_dir,
                "fsync": self.config.fsync,
                "epoch": self._epoch,
                "wal": {
                    "segments": len(segments),
                    "active_segment": (
                        os.path.basename(writer.segment_path)
                        if writer and writer.segment_path
                        else None
                    ),
                    "appends": writer.append_count if writer else 0,
                    "bytes": writer.appended_bytes if writer else 0,
                    "fsyncs": writer.fsync_count if writer else 0,
                    "rotations": writer.rotations if writer else 0,
                },
                "checkpoint": {
                    "last_version": self._last_checkpoint_version,
                    "count": self._checkpoint_count,
                    "auto_every": self.config.checkpoint_every,
                    "retained": len(ckpt.list_checkpoints(self.data_dir)),
                },
                "recovery": self._recovery_info,
            }
        if self.metrics is not None:
            self.metrics.set_counter("persist.wal_segments", snapshot["wal"]["segments"])
            self.metrics.set_counter(
                "persist.last_checkpoint_version", self._last_checkpoint_version
            )
        return snapshot

    def health_info(self):
        """A cheap health document for ``/healthz`` — no disk I/O.

        ``ok`` is ``False`` when the manager is closed (writes would fail)
        or recovery had to truncate a torn/corrupt WAL tail (acknowledged
        commits may have been lost; an operator should know).
        """
        recovery = self._recovery_info or {}
        truncated = bool(recovery.get("truncated"))
        return {
            "attached": self._store is not None,
            "closed": self._closed,
            "ok": not self._closed and not truncated,
            "fsync": self.config.fsync,
            "epoch": self._epoch,
            "last_checkpoint_version": self._last_checkpoint_version,
            "recovery": recovery,
        }

    def close(self):
        """Fsync and close the WAL; detach from the store."""
        if self._closed:
            return
        self._closed = True
        with self._io_lock:
            if self._writer is not None:
                self._writer.close()
        if self._store is not None:
            self._store.detach_durability()
            self._store = None
