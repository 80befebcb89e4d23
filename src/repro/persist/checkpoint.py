"""Checkpoints: atomic full-graph snapshots that bound WAL replay.

A checkpoint is one JSON document in the data directory::

    checkpoint-<version padded to 20 digits>.json
    {
      "format": "repro-checkpoint",
      "version": 1,                     # file-format version
      "store_version": 42,              # store version the snapshot captures
      "last_txn_id": 57,                # highest committed transaction id
      "graph": { ... }                  # repro.io.graph_to_json output
    }

Atomicity: the document is written to ``<name>.tmp`` in the same directory,
flushed and fsynced, then :func:`os.replace`-d onto its final name and the
directory entry fsynced — a crash at any point leaves either the old set of
checkpoints or the old set plus one complete new file, never a half-written
checkpoint under the real name.  Recovery deletes leftover ``.tmp`` files
and skips (with a logged warning) any checkpoint that fails to parse,
falling back to the next-newest one.
"""

from __future__ import annotations

import json
import logging
import os

from repro.io import SerializationError, graph_from_json, graph_to_json
from repro.persist.wal import TMP_SUFFIX, fsync_directory, write_atomically

logger = logging.getLogger(__name__)

_PREFIX = "checkpoint-"
_SUFFIX = ".json"

FORMAT = "repro-checkpoint"


def checkpoint_name(store_version):
    return f"{_PREFIX}{store_version:020d}{_SUFFIX}"


def checkpoint_version(path):
    """The store version a checkpoint file name encodes, or ``None``."""
    name = os.path.basename(path)
    if not (name.startswith(_PREFIX) and name.endswith(_SUFFIX)):
        return None
    digits = name[len(_PREFIX) : -len(_SUFFIX)]
    return int(digits) if digits.isdigit() else None


def list_checkpoints(data_dir):
    """``[(store_version, path)]`` sorted oldest → newest."""
    if not os.path.isdir(data_dir):
        return []
    found = []
    for name in os.listdir(data_dir):
        version = checkpoint_version(name)
        if version is not None:
            found.append((version, os.path.join(data_dir, name)))
    return sorted(found)


def remove_stale_tmp(data_dir):
    """Delete half-written ``checkpoint-*.json.tmp`` leftovers.

    A crash between the temp write and the rename leaves one of these; it
    was never a durable checkpoint, so recovery removes it silently.
    """
    removed = []
    if not os.path.isdir(data_dir):
        return removed
    for name in os.listdir(data_dir):
        if name.startswith(_PREFIX) and name.endswith(_SUFFIX + TMP_SUFFIX):
            path = os.path.join(data_dir, name)
            os.unlink(path)
            removed.append(path)
    if removed:
        logger.warning(
            "removed %d interrupted checkpoint temp file(s): %s",
            len(removed),
            ", ".join(os.path.basename(p) for p in removed),
        )
        fsync_directory(data_dir)
    return removed


def write_checkpoint(data_dir, store_version, last_txn_id, graph):
    """Atomically persist one snapshot; returns the final path."""
    document = {
        "format": FORMAT,
        "version": 1,
        "store_version": store_version,
        "last_txn_id": last_txn_id,
        "graph": graph_to_json(graph),
    }
    final = os.path.join(data_dir, checkpoint_name(store_version))
    return write_atomically(final, document, separators=(",", ":"), sort_keys=True)


def load_checkpoint(path):
    """``(store_version, last_txn_id, graph)`` from one checkpoint file.

    Raises :class:`~repro.io.SerializationError` on a malformed document;
    use :func:`latest_valid_checkpoint` for the skip-and-fall-back policy.
    """
    try:
        with open(path, encoding="utf-8") as handle:
            document = json.load(handle)
    except ValueError as exc:
        raise SerializationError(f"checkpoint {path} is not valid JSON: {exc}") from exc
    if not isinstance(document, dict) or document.get("format") != FORMAT:
        raise SerializationError(f"checkpoint {path} is not a {FORMAT} document")
    try:
        return (
            document["store_version"],
            document["last_txn_id"],
            graph_from_json(document["graph"]),
        )
    except (KeyError, TypeError) as exc:
        raise SerializationError(f"checkpoint {path} is incomplete: {exc}") from exc


def latest_valid_checkpoint(data_dir):
    """Newest loadable checkpoint: ``(version, last_txn_id, graph, path)``.

    Tries newest-first; a checkpoint that fails to load is skipped with a
    logged warning (it stays on disk for forensics).  Returns ``None`` when
    no checkpoint loads.
    """
    for version, path in reversed(list_checkpoints(data_dir)):
        try:
            store_version, last_txn_id, graph = load_checkpoint(path)
        except (OSError, SerializationError) as exc:
            logger.warning("skipping unreadable checkpoint %s: %s", path, exc)
            continue
        if store_version != version:
            logger.warning(
                "skipping checkpoint %s: name says version %d, body says %d",
                path,
                version,
                store_version,
            )
            continue
        return store_version, last_txn_id, graph, path
    return None


def latest_checkpoint_document(data_dir):
    """Newest readable checkpoint as its raw JSON document:
    ``(store_version, last_txn_id, graph_json, path)``.

    Unlike :func:`latest_valid_checkpoint` the graph stays in its
    serialized :func:`~repro.io.graph_to_json` form — replication bootstrap
    ships it over the wire verbatim, so decoding it into a graph here only
    to re-encode it would double the cost.  The document is still
    format-checked and the name/body version mismatch rule applies.
    Returns ``None`` when no checkpoint is readable.
    """
    for version, path in reversed(list_checkpoints(data_dir)):
        try:
            with open(path, encoding="utf-8") as handle:
                document = json.load(handle)
        except (OSError, ValueError) as exc:
            logger.warning("skipping unreadable checkpoint %s: %s", path, exc)
            continue
        if not isinstance(document, dict) or document.get("format") != FORMAT:
            logger.warning("skipping checkpoint %s: not a %s document", path, FORMAT)
            continue
        store_version = document.get("store_version")
        if store_version != version:
            logger.warning(
                "skipping checkpoint %s: name says version %d, body says %r",
                path,
                version,
                store_version,
            )
            continue
        if "last_txn_id" not in document or "graph" not in document:
            logger.warning("skipping incomplete checkpoint %s", path)
            continue
        return store_version, document["last_txn_id"], document["graph"], path
    return None


def remove_old_checkpoints(data_dir, keep):
    """Delete all but the newest *keep* checkpoints; returns removed paths."""
    checkpoints = list_checkpoints(data_dir)
    removed = []
    if keep < 1 or len(checkpoints) <= keep:
        return removed
    for _version, path in checkpoints[:-keep]:
        os.unlink(path)
        removed.append(path)
    fsync_directory(data_dir)
    return removed
