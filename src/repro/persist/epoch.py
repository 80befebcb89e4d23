"""The durable replication epoch: one small JSON file in the data dir.

The epoch names the *history line* a data directory holds.  It is created
once when a directory is first used, survives clean restarts unchanged, and
is **rotated** whenever recovery rewrites history — i.e. when a torn or
corrupt WAL tail is truncated, because acknowledged-but-unsynced commits
may have been lost and the primary will re-commit *different* data back to
the same version numbers.  Replicas compare the epoch on every tail
response and re-bootstrap on change instead of trusting version arithmetic
(see ``docs/REPLICATION.md``).

On-disk format::

    epoch.json
    {"format": "repro-epoch", "epoch": "9f2c41d0a7e85b13"}

The write is atomic (temp file + fsync + rename + directory fsync), the
same discipline checkpoints use: a crash leaves either the old epoch or the
new one, never a torn file.  An unreadable epoch file is treated like a
missing one — a fresh epoch is minted, which errs on the side of forcing
replicas to re-bootstrap rather than letting them trust a history line we
cannot name.
"""

from __future__ import annotations

import os

from repro.ham.store import new_epoch
from repro.persist.wal import load_tagged, write_atomically

FORMAT = "repro-epoch"

EPOCH_FILENAME = "epoch.json"


def epoch_path(data_dir):
    return os.path.join(data_dir, EPOCH_FILENAME)


def load_epoch(data_dir):
    """The persisted epoch id, or ``None`` when absent or unreadable."""
    return load_tagged(epoch_path(data_dir), FORMAT, "epoch")


def store_epoch(data_dir, epoch):
    """Atomically persist *epoch* to ``data_dir``; returns the final path."""
    return write_atomically(epoch_path(data_dir), {"format": FORMAT, "epoch": str(epoch)})


__all__ = ["EPOCH_FILENAME", "epoch_path", "load_epoch", "new_epoch", "store_epoch"]
