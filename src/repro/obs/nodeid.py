"""Stable node identity for aggregated telemetry.

Every service process gets a short ``node_id``.  When the node is durable
the id is persisted as ``node_id.json`` next to ``epoch.json`` (same
atomic temp+fsync+rename discipline), so a node keeps its identity across
restarts and a fleet's logs, traces, and metrics stay attributable over
time; in-memory nodes mint a random id per boot.

The id prefixes the cheap counter-based request ids
(:func:`repro.obs.logs.set_node_prefix`), so ids minted on different nodes
no longer collide when logs from a whole cluster are aggregated — one grep
on the prefix isolates a node, one grep on the full id isolates a request.
It also appears in ``stats``, ``/healthz``, structured log records, and on
every span a node contributes to an assembled distributed trace.
"""

from __future__ import annotations

import logging
import os

logger = logging.getLogger(__name__)

FORMAT = "repro-node-id"

NODE_ID_FILENAME = "node_id.json"


def new_node_id():
    """A fresh random node id: 12 hex chars, log-friendly."""
    return os.urandom(6).hex()


def node_id_path(data_dir):
    return os.path.join(data_dir, NODE_ID_FILENAME)


def load_node_id(data_dir):
    """The persisted node id, or ``None`` when absent or unreadable."""
    from repro.persist.wal import load_tagged

    return load_tagged(node_id_path(data_dir), FORMAT, "node_id")


def store_node_id(data_dir, node_id):
    """Atomically persist *node_id* to ``data_dir``; returns the final path."""
    from repro.persist.wal import write_atomically

    return write_atomically(node_id_path(data_dir), {"format": FORMAT, "node_id": str(node_id)})


def load_or_create_node_id(data_dir=None):
    """The node's stable identity.

    With a *data_dir*, load the persisted id or mint-and-persist one (an
    unwritable directory degrades to a random per-boot id rather than
    failing the boot — identity is telemetry, not correctness).  Without
    one, always mint a random id.
    """
    if data_dir is None:
        return new_node_id()
    existing = load_node_id(data_dir)
    if existing is not None:
        return existing
    node_id = new_node_id()
    try:
        store_node_id(data_dir, node_id)
    except OSError as exc:
        logger.warning(
            "could not persist node id to %s (%s); using ephemeral id", data_dir, exc
        )
    return node_id
