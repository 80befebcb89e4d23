"""WAL payload serialization: operations and transaction records.

One committed :class:`~repro.ham.store.TransactionRecord` becomes one JSON
object: its ids, its version and its **operations** — the replayable edit
script (the same ``_Op`` objects the store validates and replays
in-process).  The record's typed fact-level delta
(:class:`~repro.ham.delta.Delta`) is not written: it is a function of the
graph the operations edit, so recovery and a replica derive it again as
the store stages the record (:meth:`~repro.ham.store.HAMStore.replay`,
``apply_replicated``), the way the primary's commit derived it.  A ``delta`` key written by an older
WAL is ignored.

Value encoding reuses the :mod:`repro.io` node/label encoders, so exactly
the values that survive a graph JSON round trip survive the WAL: strings,
ints, floats, bools, ``None``, and tuples thereof.  Exotic values are
rejected at commit time (:class:`~repro.io.SerializationError`) rather than
silently stringified into a log that would replay a different graph.
"""

from __future__ import annotations

from repro.ham.store import TransactionRecord, _Op
from repro.io import (
    SerializationError,
    _check_scalar,
    _decode_label,
    _decode_node,
    _encode_label,
    _encode_node,
)

# --------------------------------------------------------------- node labels


def _encode_node_label(label):
    """Node labels are ``None``, a scalar annotation, or a frozenset of
    annotation names (mirrors :func:`repro.io.graph_to_json`)."""
    if label is None:
        return None
    if isinstance(label, (set, frozenset)):
        return {"annotations": sorted(str(name) for name in label)}
    _check_scalar(label, "node label")
    return {"value": label}


def _decode_node_label(obj):
    if obj is None:
        return None
    if "annotations" in obj:
        return frozenset(obj["annotations"])
    return obj["value"]


# ---------------------------------------------------------------- operations


def op_to_json(op):
    """Encode one store operation as a JSON-compatible dict."""
    if op.kind in (_Op.ADD_NODE, _Op.SET_NODE_LABEL):
        node, label = op.args
        return {
            "kind": op.kind,
            "node": _encode_node(node),
            "label": _encode_node_label(label),
        }
    if op.kind == _Op.REMOVE_NODE:
        (node,) = op.args
        return {"kind": op.kind, "node": _encode_node(node)}
    if op.kind in (_Op.ADD_EDGE, _Op.REMOVE_EDGE):
        source, target, label = op.args
        return {
            "kind": op.kind,
            "source": _encode_node(source),
            "target": _encode_node(target),
            "label": _encode_label(label),
        }
    raise SerializationError(f"cannot serialize operation {op!r}")


def op_from_json(obj):
    """Decode :func:`op_to_json` output back into an ``_Op``."""
    kind = obj["kind"]
    if kind in (_Op.ADD_NODE, _Op.SET_NODE_LABEL):
        return _Op(kind, _decode_node(obj["node"]), _decode_node_label(obj["label"]))
    if kind == _Op.REMOVE_NODE:
        return _Op(kind, _decode_node(obj["node"]))
    if kind in (_Op.ADD_EDGE, _Op.REMOVE_EDGE):
        return _Op(
            kind,
            _decode_node(obj["source"]),
            _decode_node(obj["target"]),
            _decode_label(obj["label"]),
        )
    raise SerializationError(f"unknown operation kind {kind!r} in WAL record")


# ------------------------------------------------------------------- records


def record_to_json(record):
    """Encode one committed transaction as the WAL payload dict."""
    return {
        "txn": record.txn_id,
        "session": record.session_id,
        "version": record.version,
        "ops": [op_to_json(op) for op in record.operations],
    }


def record_from_json(obj):
    """Decode a WAL payload dict back into a :class:`TransactionRecord`,
    without a delta (see the module docstring)."""
    return TransactionRecord(
        obj["txn"],
        obj["session"],
        [op_from_json(op) for op in obj["ops"]],
        version=obj["version"],
    )
