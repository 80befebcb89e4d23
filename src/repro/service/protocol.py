"""JSON-lines wire protocol for the query service.

One request per line, one response per line, both UTF-8 JSON objects.

Request::

    {"id": 7, "op": "graphlog", "query": "define ...", ...}

``op`` is one of :data:`OPS`; every other field is the operation's payload
(see :mod:`repro.service.server` for per-op fields).  ``id`` is optional and
echoed back verbatim so pipelined clients can match responses.

Response (success)::

    {"id": 7, "ok": true, "result": {...}, "elapsed_ms": 1.93, "version": 4}

Response (failure)::

    {"id": 7, "ok": false, "error": {"code": "timeout", "message": "..."}}

Error ``code`` values mirror the :mod:`repro.errors` service taxonomy:
``protocol_error``, ``timeout``, ``result_too_large``, ``service_error``
(evaluation-layer failures keep their exception class name in ``kind``).

Every line is :func:`encode`'s: keys sorted, compact separators.  So a
success line is a *head*, ``result``, and a *tail*.  Only ``cache``,
``elapsed_ms``, ``id`` and ``ok`` precede ``result``: scalars, the ``id``
too when it is a router's (its backend connections count in ints), so the
head is short whatever the answer's size.  A router reads the head alone
(:func:`split_head`) to match the id and ``ok``, and answers its own client
by rewriting the ``id`` there (:func:`rewrite_id`).  Only ``trace_id`` and
``version`` follow ``result``.

Push frames
-----------

Subscriptions (:mod:`repro.subs`) add a third message class: asynchronous
server-push *frames* interleaved with responses on the same connection.
A frame is distinguished by its ``"frame"`` key and never carries ``id``
or ``ok``, so clients demultiplex on one field::

    {"frame": "delta", "subscription": 3, "version": 12,
     "inserted": {"reach": [["a","c"]]}, "deleted": {}}
    {"frame": "snapshot", "subscription": 3, "version": 17,
     "relations": {"reach": [...]}, "resync": true}
    {"frame": "closed", "subscription": 3, "reason": "overflow"}

``delta`` frames are emitted in strictly increasing ``version`` order per
subscription; a ``snapshot`` frame with ``resync`` replaces the client's
materialized state wholesale (sent after queue overflow under the
``resync`` policy — deltas are never silently skipped).
"""

from __future__ import annotations

import json
import math
from itertools import chain, count, repeat, zip_longest
from operator import add, floordiv, mod, mul
from typing import NamedTuple

from repro.errors import (
    NotMaintainable,
    ProtocolError,
    QueryTimeout,
    ReadOnlyError,
    ReplicaStale,
    ResultTooLarge,
    ServiceError,
    SubscriptionError,
)


class OpSpec(NamedTuple):
    """What an op *is*: who answers it, and whether it streams.

    ``route``: ``read`` — any caught-up replica (a router fans these out);
    ``write`` — the primary (its committed version becomes the router's
    read-your-writes token); ``node`` — one concrete server (a router asks
    the primary); ``cluster`` — the router, from the whole topology (a
    node answers only what it holds a local slice of).  A ``streaming`` op
    pushes frames on its own connection afterwards, so no router forwards it.
    """

    route: str
    streaming: bool = False


#: The operations a server understands — the one table server, router,
#: client, CLI and docs/SERVICE.md read.
OPS = {
    "graphlog": OpSpec("read"),
    "datalog": OpSpec("read"),
    "rpq": OpSpec("read"),
    "update": OpSpec("write"),
    "stats": OpSpec("node"),
    "ping": OpSpec("node"),
    "explain": OpSpec("read"),
    "profile": OpSpec("read"),
    "checkpoint": OpSpec("write"),
    "slowlog": OpSpec("node"),
    "repl_bootstrap": OpSpec("node"),
    "repl_tail": OpSpec("node"),
    "promote": OpSpec("node"),
    "subscribe": OpSpec("node", streaming=True),
    "unsubscribe": OpSpec("node", streaming=True),
    "trace_get": OpSpec("cluster"),
    "cluster_stats": OpSpec("cluster"),
}

#: Maximum accepted request-line length (a protocol-level DoS guard).
MAX_REQUEST_BYTES = 4 * 1024 * 1024

_CODE_TO_EXCEPTION = {
    "protocol_error": ProtocolError,
    "timeout": QueryTimeout,
    "result_too_large": ResultTooLarge,
    "read_only": ReadOnlyError,
    "replica_stale": ReplicaStale,
    "not_maintainable": NotMaintainable,
    "subscription_error": SubscriptionError,
    "service_error": ServiceError,
}


def encode_result(result):
    """The UTF-8 bytes of a ``result`` object as a line carries them: what a
    result-cache entry keeps and what ``max_bytes`` bounds."""
    return json.dumps(result, separators=(",", ":"), sort_keys=True).encode("utf-8")


def encode(message):
    """Serialize one protocol message to a newline-terminated bytes line."""
    return encode_result(message) + b"\n"


def encode_response(response, result=None):
    """The line of *response*.  *result*, when given, is the
    :func:`encode_result` bytes of ``response["result"]``, spliced into the
    envelope instead of serialising the object again.

    Keys are sorted, so only ``trace_id`` (a string: quotes in it are escaped)
    and ``version`` follow ``result``; the envelope's *last* ``"result":null``
    is therefore the top-level one, whatever JSON the echoed ``id`` holds.
    Only scalars precede it (``cache``, ``elapsed_ms``, ``ok``, and the ``id``
    a router's backend connection sends, an int), which is what lets
    :func:`split_head` read a line's head without its ``result``.
    """
    if result is None:
        return encode(response)
    head, _, tail = encode(dict(response, result=None)).rpartition(b'"result":null')
    return b"".join((head, b'"result":', result, tail))


def split_head(line):
    """``(head, tail)`` of a success response *line*, or ``None``.

    *head* is the decoded envelope: the keys that sort before ``"result"``.
    *tail* is the line's bytes from the comma before ``"result":`` to the
    newline, undecoded.  The first ``,"result":`` is the top-level one
    exactly when the bytes before it close into a JSON object; otherwise,
    and for a line that is not ``"ok": true`` (an error line's ``error``
    object precedes ``id``, and it has no ``result``), this is ``None``.
    """
    index = line.find(b',"result":')
    if index < 0:
        return None
    try:
        head = json.loads(line[:index] + b"}")
    except ValueError:
        return None
    if head.get("ok") is not True:
        return None
    return head, line[index:]


def rewrite_id(line, request_id):
    """*line* answering *request_id*: ``encode(json.loads(line) | {"id":
    request_id})`` byte for byte.  A success line keeps its ``result`` and
    tail bytes as they are, and only its head is decoded and re-encoded."""
    split = split_head(line)
    if split is None:
        return encode(dict(json.loads(line), id=request_id))
    head, tail = split
    head["id"] = request_id
    return encode_result(head)[:-1] + tail


def decode_request(line):
    """Parse one request line into a dict; raises :class:`ProtocolError`."""
    if isinstance(line, bytes):
        try:
            line = line.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ProtocolError(f"request is not valid UTF-8: {exc}") from exc
    try:
        message = json.loads(line)
    except ValueError as exc:
        raise ProtocolError(f"request is not valid JSON: {exc}") from exc
    if not isinstance(message, dict):
        raise ProtocolError(f"request must be a JSON object, got {type(message).__name__}")
    op_spec(message.get("op"))
    validate_budgets(message)
    trace = message.get("trace")
    if trace is not None:
        # Validate eagerly so a malformed context is the sender's
        # protocol_error, not a mid-request service_error.
        from repro.obs.context import TraceContext

        TraceContext.from_wire(trace)
    return message


def op_spec(op):
    """The :class:`OpSpec` of *op*; an unknown op is a :class:`ProtocolError`."""
    try:
        return OPS[op]
    except (KeyError, TypeError):
        raise ProtocolError(
            f"unknown op {op!r}; expected one of {', '.join(OPS)}"
        ) from None


def validate_budgets(message):
    """Type/range-check the per-request budget fields at decode time.

    A string or negative ``timeout`` used to reach ``asyncio.wait_for`` and
    surface as ``errors.internal``; budgets are protocol-level inputs, so a
    bad one is the *client's* error and must be a ``protocol_error``.
    Booleans are rejected explicitly (``True`` is an ``int`` in Python, and
    a request saying ``"max_rows": true`` is a bug, not a budget).
    """
    timeout = message.get("timeout")
    if timeout is not None:
        if (
            isinstance(timeout, bool)
            or not isinstance(timeout, (int, float))
            or not math.isfinite(timeout)
            or timeout < 0
        ):
            raise ProtocolError(
                f"'timeout' must be a non-negative finite number, got {timeout!r}"
            )
    for field in (
        "max_rows",
        "max_bytes",
        "min_version",
        "from_version",
        "max_records",
        "wait_ms",
        "queue_max",
        "subscription",
        "limit",
    ):
        value = message.get(field)
        if value is not None:
            if isinstance(value, bool) or not isinstance(value, int) or value < 0:
                raise ProtocolError(
                    f"{field!r} must be a non-negative integer, got {value!r}"
                )


def ok_response(
    request_id, result, version=None, elapsed_ms=None, cache=None, trace_id=None
):
    response = {"id": request_id, "ok": True, "result": result}
    if version is not None:
        response["version"] = version
    if elapsed_ms is not None:
        response["elapsed_ms"] = round(elapsed_ms, 3)
    if cache is not None:
        response["cache"] = cache
    if trace_id is not None:
        response["trace_id"] = trace_id
    return response


def error_response(request_id, exc):
    """Build the failure response for an exception."""
    code = getattr(exc, "code", None) or "service_error"
    return {
        "id": request_id,
        "ok": False,
        "error": {
            "code": code,
            "kind": type(exc).__name__,
            "message": str(exc),
        },
    }


def raise_for_error(response):
    """Re-raise the service-side error carried by a failure response.

    The client uses this to surface server errors as the same exception
    types the library raises locally: protocol violations, timeouts and
    size overruns map to their dedicated classes; evaluation errors
    (parse/safety/stratification/...) surface as :class:`ServiceError`
    with the original class name in the message.  The exception keeps
    *response* as its ``response``.
    """
    if response.get("ok"):
        return response
    error = response.get("error") or {}
    code = error.get("code", "service_error")
    message = error.get("message", "unknown server error")
    kind = error.get("kind")
    if kind and kind != code:
        message = f"{kind}: {message}"
    exc = _CODE_TO_EXCEPTION.get(code, ServiceError)(message)
    exc.response = response  # a router answers with the node's own error
    raise exc


_ABSENT = object()  # pads a short row: rank 0, before any value (prefix rule)
#: Type sets whose values are equal exactly when their keys are (object: _ABSENT).
_SELF_KEYED = ({str, int, type(None), object}, {str, bool, type(None), object})
_json = json.JSONEncoder(separators=(",", ":"), sort_keys=True).encode


def _value_key(value):
    return (type(value).__name__, str(value))


def _ranked(rows):
    """*rows* in wire order, by their values' ``(type name, str(value))``, as
    ``(digits, values)``: a column of ranks per position (at least one), and
    what each rank stands for.  Rows sort as ints, their ranks packed."""
    columns = list(zip_longest(*rows, fillvalue=_ABSENT)) or [(_ABSENT,) * len(rows)]
    if any(map(set(map(type, chain.from_iterable(columns))).issubset, _SELF_KEYED)):
        absent, sort_key = _ABSENT, _value_key
        witness = {value: value for value in set(chain.from_iterable(columns))}
    else:  # 1 == True == 1.0, "a" == Text("a"), 0.0 == -0.0: rank their keys
        absent, sort_key = _value_key(_ABSENT), None
        keyed = [list(map(_value_key, column)) for column in columns]
        witness = dict(zip(chain.from_iterable(keyed), chain.from_iterable(columns)))
        columns = keyed
    witness.pop(absent, None)
    classes = sorted(witness, key=sort_key)
    rank = {absent: 0, **dict(zip(classes, count(1)))}
    base = len(rank)
    packed = map(rank.__getitem__, columns[0])
    for column in columns[1:]:
        packed = map(add, map(mul, packed, repeat(base)), map(rank.__getitem__, column))
    digits = [sorted(packed)]
    for _column in columns[1:]:
        digits[:1] = [list(map(op, digits[0], repeat(base))) for op in (floordiv, mod)]
    return digits, [_ABSENT, *map(witness.__getitem__, classes)]


def rows_to_wire(rows):
    """Sort a set of answer tuples into JSON-friendly lists (deterministic)."""
    if set(map(type, chain.from_iterable(rows))) <= {str}:  # str order is key order
        return list(map(list, sorted(rows)))  # 2-3x faster on a frame's few rows
    digits, values = _ranked(rows)
    return [[values[rank] for rank in row if rank] for row in zip(*digits)]


def relations_to_wire(relations):
    """``{predicate: rows}`` in wire form, predicates and rows both ordered."""
    return {name: rows_to_wire(rows) for name, rows in sorted(relations.items())}


def encode_answer(relations):
    """``(bytes, count)`` of a query answer: :func:`encode_result` of
    ``{"relations": relations_to_wire(relations), "count": count}``, byte for
    byte, with each distinct value JSON-encoded once and rows joined as text."""
    total, parts = sum(map(len, relations.values())), []
    for name, rows in sorted(relations.items()):
        digits, values = _ranked(rows)
        first = ["", *map(_json, values[1:])]
        rest = ["", *("," + text for text in first[1:])]
        cells = [map(first.__getitem__, digits[0])]
        cells += [map(rest.__getitem__, column) for column in digits[1:]]
        body = "[[" + "],[".join(map("".join, zip(*cells))) + "]]" if digits[0] else "[]"
        parts.append(f"{_json(name)}:{body}")
    return f'{{"count":{total},"relations":{{{",".join(parts)}}}}}'.encode(), total


# --------------------------------------------------------------- push frames


def is_push_frame(message):
    """True when *message* is a server-push frame (vs a response)."""
    return isinstance(message, dict) and "frame" in message


def snapshot_frame(subscription_id, version, relations, resync=False):
    """A full result set at *version*; with ``resync`` it replaces any
    previously applied state (sent after overflow under the resync policy)."""
    frame = {
        "frame": "snapshot",
        "subscription": subscription_id,
        "version": version,
        "relations": relations_to_wire(relations),
    }
    if resync:
        frame["resync"] = True
    return frame


def closed_frame(subscription_id, reason):
    """The server terminated the subscription (overflow/shutdown/resync
    failure); no further frames will arrive for this id."""
    return {"frame": "closed", "subscription": subscription_id, "reason": reason}
