"""The primary side of replication: bootstrap + WAL tail serving.

A :class:`ReplicationSource` wraps one :class:`~repro.ham.store.HAMStore`
(and its optional :class:`~repro.persist.DurabilityManager`) and answers
the two replication wire ops without ever blocking the commit path:

- **bootstrap** ships the newest on-disk checkpoint *verbatim* (the graph
  JSON is passed through without decoding) when durability is attached, and
  a live snapshot otherwise.  Checkpoint pruning guarantees the WAL still
  holds every record after the newest checkpoint, so a bootstrapped replica
  can always tail from there.
- **tail** returns commit records with ``version > from_version`` in
  version order.  The fast path reads the store's retained in-memory log
  (no disk at all); history older than the in-memory base is re-read from
  the WAL segment files through :func:`repro.persist.wal.iter_records`.
  When the replica is caught up the call long-polls on the store's version
  condition (bounded) instead of making the replica busy-wait.

A tail that cannot be served — the requested version predates durable
history, or the replica is *ahead* of this store (it replicated commits a
crash then lost) — answers ``reset: true``, telling the replica to throw
its state away and re-bootstrap.  Signaling beats guessing: serving a gap
would replay a graph that never existed.
"""

from __future__ import annotations

import logging
import threading

from repro.errors import StoreError
from repro.persist import wal
from repro.persist.checkpoint import latest_checkpoint_document
from repro.persist.serde import record_to_json

logger = logging.getLogger(__name__)

#: Records per tail response: what a replica's poll gets, and the most a
#: request's ``max_records`` can ask for (keeps one response line sane).
TAIL_BATCH = 512

#: Hard ceiling on one long-poll (the server's request timeout must win).
MAX_TAIL_WAIT_MS = 30_000


class ReplicationSource:
    """Serves bootstrap snapshots and commit-record tails off one store."""

    def __init__(self, store, durability=None):
        self.store = store
        self.durability = durability
        self._lock = threading.Lock()
        self._bootstraps_served = 0
        self._tail_requests = 0
        self._tail_waits = 0
        self._records_shipped = 0
        self._resets_signaled = 0

    # ------------------------------------------------------------ bootstrap

    def bootstrap(self):
        """The document a fresh replica starts from.

        ``{"version", "last_txn_id", "graph", "source", "epoch"}`` —
        ``graph`` is :func:`repro.io.graph_to_json` output; ``source`` says
        whether it came from a durable checkpoint (pass-through, zero store
        work) or a live snapshot (in-memory primaries, or durable ones that
        have never checkpointed); ``epoch`` names the history line the
        snapshot belongs to (the replica records it and re-bootstraps the
        moment a tail response carries a different one).
        """
        with self._lock:
            self._bootstraps_served += 1
        if self.durability is not None:
            document = latest_checkpoint_document(self.durability.data_dir)
            if document is not None:
                version, last_txn_id, graph_json, _path = document
                return {
                    "version": version,
                    "last_txn_id": last_txn_id,
                    "graph": graph_json,
                    "source": "checkpoint",
                    "epoch": self.store.epoch,
                }
        from repro.io import graph_to_json

        version, graph, last_txn_id = self.store._durable_snapshot()
        return {
            "version": version,
            "last_txn_id": last_txn_id,
            "graph": graph_to_json(graph),
            "source": "snapshot",
            "epoch": self.store.epoch,
        }

    # ----------------------------------------------------------------- tail

    def tail(self, from_version, max_records=None, wait_ms=0):
        """Commit records after *from_version*, long-polling when caught up.

        Returns ``{"records": [payload...], "version": current, "epoch":
        id}`` where each payload is the WAL wire form
        (:func:`record_to_json`).  An empty ``records`` after a bounded wait
        is the heartbeat — which, carrying the epoch, doubles as the
        divergence detector: a replica seeing an epoch other than the one it
        bootstrapped under re-bootstraps even if the version numbers line
        up.  ``reset: true`` is added when this store cannot serve
        *from_version* — replica ahead of the primary, or history pruned
        past it — and the replica must re-bootstrap.
        """
        limit = TAIL_BATCH if max_records is None else min(max_records, TAIL_BATCH)
        wait_s = min(max(wait_ms, 0), MAX_TAIL_WAIT_MS) / 1000.0
        with self._lock:
            self._tail_requests += 1

        current = self.store.version
        if from_version > current:
            return self._reset_response(
                current, f"replica at {from_version} is ahead of primary at {current}"
            )
        if from_version == current and wait_s > 0:
            with self._lock:
                self._tail_waits += 1
            self.store.wait_for_version(from_version + 1, wait_s)

        payloads, reset = self._collect(from_version, limit)
        if reset:
            return self._reset_response(
                self.store.version,
                f"history before version {from_version + 1} is no longer available",
            )
        with self._lock:
            self._records_shipped += len(payloads)
        return {
            "records": payloads,
            "version": self.store.version,
            "epoch": self.store.epoch,
        }

    def _collect(self, from_version, limit):
        """``(payloads, reset)`` — in-memory fast path, WAL fallback."""
        records = self.store.records_since(from_version)
        if records is not None:
            return [record_to_json(r) for r in records[:limit]], False
        if self.durability is None:
            return [], True
        payloads = []
        try:
            for _version, payload in wal.iter_records(
                self.durability.wal_dir, from_version
            ):
                payloads.append(payload)
                if len(payloads) >= limit:
                    break
        except StoreError as exc:
            logger.warning("replication tail from %d unserviceable: %s", from_version, exc)
            return [], True
        if not payloads and self.store.version > from_version:
            # This path only runs when from_version predates the store's
            # in-memory base, so records MUST exist; an empty WAL means
            # checkpointing pruned every segment — unserviceable.
            return [], True
        return payloads, False

    def _reset_response(self, current, reason):
        with self._lock:
            self._resets_signaled += 1
        logger.warning("signaling replica reset: %s", reason)
        return {
            "records": [],
            "version": current,
            "epoch": self.store.epoch,
            "reset": True,
            "reason": reason,
        }

    # ---------------------------------------------------------------- stats

    def stats(self):
        with self._lock:
            return {
                "role": "primary",
                "epoch": self.store.epoch,
                "bootstraps_served": self._bootstraps_served,
                "tail_requests": self._tail_requests,
                "tail_waits": self._tail_waits,
                "records_shipped": self._records_shipped,
                "resets_signaled": self._resets_signaled,
            }
