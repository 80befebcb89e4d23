"""``repro.persist`` — durability for the HAM store.

The paper's prototype (Section 5) runs over a purely in-memory graph; this
package makes commits crash-safe so a server can be restarted without
re-loading data from scratch:

- a CRC32-framed, length-prefixed, append-only **write-ahead log** of
  :class:`~repro.ham.store.TransactionRecord` payloads, rotated into
  segments (:mod:`repro.persist.wal`);
- periodic **checkpoints** — atomic temp-file + rename snapshots of the
  whole graph built on :func:`repro.io.graph_to_json`
  (:mod:`repro.persist.checkpoint`);
- **recovery** — load the newest valid checkpoint, replay the WAL tail,
  truncate a torn or corrupt final record instead of crashing
  (:meth:`DurabilityManager.recover`);
- a durable **replication epoch** (:mod:`repro.persist.epoch`) naming the
  directory's history line — stable across clean restarts, rotated when
  recovery truncates (history was rewritten), compared by replicas so they
  re-bootstrap instead of trusting version numbers.

Entry point::

    from repro.persist import DurabilityManager, PersistenceConfig

    manager = DurabilityManager(PersistenceConfig("data/", fsync="always"))
    store = manager.recover()        # a HAMStore, recovered and wired
    ...                              # commits are WAL-logged from here on
    manager.checkpoint()             # snapshot + prune old WAL segments
    manager.close()

See ``docs/PERSISTENCE.md`` for the on-disk format and the fsync policy
trade-offs.
"""

from repro.persist.checkpoint import (
    latest_valid_checkpoint,
    list_checkpoints,
    load_checkpoint,
    write_checkpoint,
)
from repro.persist.epoch import load_epoch, new_epoch, store_epoch
from repro.persist.manager import DurabilityManager, PersistenceConfig
from repro.persist.serde import (
    op_from_json,
    op_to_json,
    record_from_json,
    record_to_json,
)
from repro.persist.wal import FSYNC_POLICIES, WalCorruption, WalWriter, scan_segment

__all__ = [
    "FSYNC_POLICIES",
    "DurabilityManager",
    "PersistenceConfig",
    "WalCorruption",
    "WalWriter",
    "latest_valid_checkpoint",
    "list_checkpoints",
    "load_checkpoint",
    "load_epoch",
    "new_epoch",
    "op_from_json",
    "op_to_json",
    "record_from_json",
    "record_to_json",
    "scan_segment",
    "store_epoch",
    "write_checkpoint",
]
