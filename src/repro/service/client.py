"""Blocking TCP client for the query service.

Speaks the JSON-lines protocol of :mod:`repro.service.protocol` over one
socket.  Server-side failures are re-raised locally with the matching
exception from the service taxonomy (``QueryTimeout``, ``ResultTooLarge``,
``ProtocolError``, generic ``ServiceError``).  One client wraps one
connection and is not thread-safe; concurrent callers should each open
their own (connections are cheap, the server multiplexes them).

Retries are opt-in (``retries=N``) and deliberately narrow: a failed
*connect* and a failed *send* are retried on a fresh connection with
exponential backoff and jitter, because in both cases the server cannot
have executed the request (an incomplete line is never dispatched).  A
failure after the request was fully sent — a receive timeout, a closed
connection, a desync — is **never** retried: the server may have applied
the request, and replaying an ``update`` would double-commit it.

Subscriptions (:meth:`ServiceClient.subscribe`) interleave asynchronous
push frames with responses on the same socket; the client demultiplexes on
the ``"frame"`` key and applies deltas to a local materialized result set
(:class:`SubscriptionHandle`).  Subscriptions and retries are mutually
exclusive on one connection: a retry reconnects, and the fresh connection
has none of the old one's server-side subscription state — the stream
would just go silent.  Use a dedicated ``retries=0`` client for streaming
(see docs/SERVICE.md).
"""

from __future__ import annotations

import itertools
import json
import random
import socket
import time
from collections import deque

from repro.errors import ServiceError, SubscriptionError
from repro.obs import context as trace_context
from repro.service import protocol

#: Push frames for ids with no local handle yet (the server's sender task
#: can write a delta ahead of the subscribe response) are buffered up to
#: this many before the oldest are dropped.
_MAX_ORPHAN_FRAMES = 1024


class _Retryable(Exception):
    """Internal: wraps a ServiceError that is safe to retry (the request
    was provably not executed by the server)."""

    def __init__(self, error):
        super().__init__(str(error))
        self.error = error


class ClientOps:
    """The request/response ops as methods over the subclass's
    ``call(op, **payload)``, which returns the full response dict.

    :class:`ServiceClient` (one connection) and
    :class:`~repro.replication.router.RoutingClient` (a routed cluster)
    both inherit these, so an op's Python spelling is written once.  The
    streaming ops (``subscribe``/``unsubscribe``) need a connection of
    their own and live on :class:`ServiceClient` only.
    """

    def graphlog(self, query, predicate=None, **limits):
        """Evaluate a GraphLog DSL query; returns ``{predicate: set of rows}``."""
        return _relations(self.call("graphlog", query=query, predicate=predicate, **limits))

    def datalog(self, program, predicate=None, **limits):
        """Evaluate a Datalog program; returns ``{predicate: set of rows}``."""
        return _relations(self.call("datalog", query=program, predicate=predicate, **limits))

    def rpq(self, regex, source=None, **limits):
        """Evaluate a regular path query; returns a set of answer tuples."""
        response = self.call("rpq", query=regex, source=source, **limits)
        return _relations(response)["answers"]

    def update(self, nodes=None, edges=None, remove_nodes=None, remove_edges=None):
        """Commit node/edge insertions and removals; returns the new store
        version.  Additions are applied before removals, in one transaction."""
        response = self.call(
            "update",
            nodes=nodes,
            edges=edges,
            remove_nodes=remove_nodes,
            remove_edges=remove_edges,
        )
        return response["version"]

    def explain(self, query, target="graphlog", **params):
        """Trace one query end to end; returns the explain result dict.

        The result carries ``trace`` (the span tree), ``text`` (rendered
        ASCII), ``phases`` (top-level phase → ms) and per-relation counts.
        Caches are bypassed on the server so the trace always covers
        compilation and evaluation.
        """
        response = self.call("explain", query=query, target=target, **params)
        return response["result"]

    def profile(self, query, target="graphlog", **params):
        """Like :meth:`explain` without the rendered ASCII tree."""
        response = self.call("profile", query=query, target=target, **params)
        return response["result"]

    def checkpoint(self):
        """Force a durability checkpoint on the server; returns its info
        dict (``version``, ``path``, segments pruned, elapsed ms).  Fails
        with :class:`~repro.errors.ProtocolError` when the server runs
        without ``--data-dir``."""
        return self.call("checkpoint")["result"]

    def stats(self, include_histograms=None):
        """The server's metrics/cache/store statistics snapshot."""
        return self.call("stats", include_histograms=include_histograms)["result"]

    def trace_get(self, trace_id):
        """The connected node's spans for *trace_id* (ring, slowlog
        fallback); see ``repro trace`` for the cross-node assembly."""
        return self.call("trace_get", trace_id=trace_id)["result"]

    def cluster_stats(self):
        """The router's merged per-node + aggregate statistics document.
        Only routers answer this op; a plain node rejects it."""
        return self.call("cluster_stats")["result"]

    def slowlog(self, limit=None):
        """The server's slow-query log, newest first.

        Returns ``{"entries": [...], "stats": {...}}``; each entry carries
        the originating ``request_id``, op, elapsed/threshold milliseconds
        and (for traced requests) the full span tree under ``trace``.
        """
        return self.call("slowlog", limit=limit)["result"]

    def repl_bootstrap(self):
        """The server's replication bootstrap document (see
        :meth:`repro.replication.ReplicationSource.bootstrap`)."""
        return self.call("repl_bootstrap")["result"]

    def repl_tail(self, from_version, max_records=None, wait_ms=None):
        """Commit records after *from_version* (see
        :meth:`repro.replication.ReplicationSource.tail`)."""
        return self.call(
            "repl_tail",
            from_version=from_version,
            max_records=max_records,
            wait_ms=wait_ms,
        )["result"]

    def promote(self):
        """Promote the connected *replica* to a writable primary under a
        fresh epoch (see :meth:`repro.service.server.QueryService.promote`).
        Fails with :class:`~repro.errors.ProtocolError` when the server is
        not a replica.  Returns the promotion document (``promoted_from``,
        ``applied_version``, ``epoch``)."""
        return self.call("promote")["result"]

    def ping(self):
        return self.call("ping")["result"]["pong"]


class ServiceClient(ClientOps):
    """One connection to a running :class:`~repro.service.server.ServiceServer`."""

    def __init__(
        self,
        host="127.0.0.1",
        port=7464,
        timeout=60.0,
        retries=0,
        backoff_base=0.05,
        backoff_max=2.0,
    ):
        self.host = host
        self.port = port
        self.timeout = timeout
        self.retries = int(retries)
        self.backoff_base = backoff_base
        self.backoff_max = backoff_max
        self._ids = itertools.count(1)
        self._poisoned = False
        self._sock = None
        self._buffer = bytearray()
        self._handles = {}
        self._orphans = {}
        self._dead_subscriptions = set()
        attempt = 0
        while True:
            try:
                self._connect()
                break
            except ServiceError:
                if attempt >= self.retries:
                    raise
                time.sleep(self._backoff(attempt))
                attempt += 1

    @property
    def poisoned(self):
        """True once the request/response stream can no longer be trusted."""
        return self._poisoned

    def _connect(self):
        try:
            self._sock = socket.create_connection(
                (self.host, self.port), timeout=self.timeout
            )
        except OSError as exc:
            raise ServiceError(
                f"cannot connect to {self.host}:{self.port}: {exc}"
            ) from exc
        self._buffer = bytearray()
        self._poisoned = False

    def _backoff(self, attempt):
        delay = min(self.backoff_max, self.backoff_base * (2**attempt))
        return delay * (0.5 + random.random())  # full jitter: 0.5x .. 1.5x

    # ------------------------------------------------------------------ raw

    def call(self, op, /, **payload):
        """Send one request, wait for its response, raise on failure.

        Returns the full response dict (``result``, ``version``,
        ``elapsed_ms``, ``cache``).

        The connection is *poisoned* (closed, all later calls fail fast)
        whenever the request/response pairing can no longer be trusted: a
        client-side socket timeout leaves the server's eventual response
        buffered on the wire, where a later call would read it and
        misattribute it — the id check alone can't save a pipelined
        sequence once the stream has slipped by one message.

        With ``retries=N``, a poisoned (or never-established) connection is
        transparently re-opened — the old stream stays dead, so no stale
        bytes can leak — and connect/send failures are re-attempted up to N
        times with backoff.  Failures after a complete send still surface
        immediately (see the module docstring).
        """
        return self._call(op, payload, self._decode)[1]

    def call_line(self, op, /, **payload):
        """Like :meth:`call`, but returns the response line as the server
        sent it, ``id`` included.  A success line is decoded only as far as
        its envelope head (:func:`~repro.service.protocol.split_head`),
        which is enough to match its id; an error line is decoded and
        raised as :meth:`call` raises it."""
        return self._call(op, payload, self._decode_head)[0]

    def _call(self, op, payload, decode):
        """``(line, message)`` of one request; *decode* turns a line read
        into the message whose id, ``ok`` and ``frame`` are checked."""
        payload = {k: v for k, v in payload.items() if v is not None}
        if "trace" not in payload:
            # Ambient trace propagation: inside `with obs.context.start():`
            # every outgoing request is stamped with the caller's context,
            # so the server adopts the trace id instead of minting one.
            ambient = trace_context.current()
            if ambient is not None:
                payload["trace"] = ambient.to_wire()
        attempt = 0
        while True:
            try:
                return self._call_once(op, payload, decode)
            except _Retryable as exc:
                if attempt >= self.retries:
                    raise exc.error from exc.error.__cause__
                time.sleep(self._backoff(attempt))
                attempt += 1

    def _call_once(self, op, payload, decode):
        if self._sock is None or self._poisoned:
            if self.retries == 0:
                raise ServiceError(
                    "connection is poisoned by an earlier timeout or protocol "
                    "desync; open a new ServiceClient"
                )
            try:
                self._connect()
            except ServiceError as exc:
                raise _Retryable(exc) from exc
        # Local ref: close() from another thread (to abort a long-poll)
        # nulls the attribute; the socket errors below cover that race.
        sock = self._sock
        request_id = next(self._ids)
        message = {"id": request_id, "op": op}
        message.update(payload)
        try:
            sock.sendall(protocol.encode(message))
        except OSError as exc:
            # Covers TimeoutError too: sendall raised, so the trailing
            # newline never reached the wire and the server will not
            # dispatch the partial line — safe to retry on a new socket.
            self._poison()
            error = ServiceError(f"connection to {self.host}:{self.port} failed: {exc}")
            error.__cause__ = exc
            raise _Retryable(error)
        deadline = None if self.timeout is None else time.monotonic() + self.timeout
        while True:
            try:
                line = self._read_line(deadline)
            except TimeoutError as exc:
                self._poison()
                raise ServiceError(
                    f"timed out waiting for {self.host}:{self.port}; connection "
                    f"closed to avoid reading the stale response later: {exc}"
                ) from exc
            response = decode(line)
            if not protocol.is_push_frame(response):
                break
            # Asynchronous subscription traffic interleaved with the
            # response; apply it and keep reading.
            self._dispatch_frame(response)
        # Match ids BEFORE interpreting the body: a buffered stale response
        # must not surface its error (or worse, its result) as this call's.
        # ``id: null`` is allowed through — the server answers undecodable
        # requests without an id.
        response_id = response.get("id")
        if response_id is not None and response_id != request_id:
            self._poison()
            raise ServiceError(
                f"response id {response_id!r} does not match request "
                f"{request_id}; connection closed (protocol desync)"
            )
        protocol.raise_for_error(response)
        return line, response

    def _read_line(self, deadline):
        """The next line off the wire.

        A ``TimeoutError`` passes through untouched — whether the stream
        survives a timeout is the caller's call; a dropped connection or
        EOF poisons the connection.
        """
        try:
            line = self._readline(deadline)
        except TimeoutError:
            # socket.timeout is TimeoutError on 3.10+; catch before OSError.
            raise
        except OSError as exc:
            self._poison()
            raise ServiceError(
                f"connection to {self.host}:{self.port} failed: {exc}"
            ) from exc
        if not line:
            self._poison()
            raise ServiceError("server closed the connection")
        return line

    def _decode(self, line):
        """*line* decoded; an undecodable line poisons the connection."""
        try:
            return json.loads(line)
        except ValueError as exc:
            self._poison()
            raise ServiceError(f"server sent invalid JSON: {exc}") from exc

    def _decode_head(self, line):
        """A success line's envelope head, or any other line decoded."""
        split = protocol.split_head(line)
        return self._decode(line) if split is None else split[0]

    def _readline(self, deadline):
        """One newline-terminated line from the socket, buffering partial
        data so a timeout never loses bytes mid-line.  Returns ``b""`` on a
        clean EOF; raises ``TimeoutError`` when *deadline* passes first."""
        sock = self._sock
        if sock is None:
            raise OSError("connection is closed")
        while True:
            index = self._buffer.find(b"\n")
            if index >= 0:
                line = bytes(self._buffer[: index + 1])
                del self._buffer[: index + 1]
                return line
            if deadline is None:
                sock.settimeout(None)
            else:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise socket.timeout("read deadline elapsed")
                sock.settimeout(remaining)
            chunk = sock.recv(65536)
            if not chunk:
                return b""
            self._buffer += chunk

    def _dispatch_frame(self, frame):
        sub_id = frame.get("subscription")
        handle = self._handles.get(sub_id)
        if handle is not None:
            handle._apply(frame)
            return
        if sub_id in self._dead_subscriptions:
            # Late frames for an unsubscribed id: the server's sender task
            # may already have queued them when unsubscribe was processed.
            return
        # Frames can outrun the subscribe *response* (the sender task is
        # independent); hold them until the handle registers.
        orphans = self._orphans.setdefault(sub_id, [])
        if len(orphans) >= _MAX_ORPHAN_FRAMES:
            orphans.pop(0)
        orphans.append(frame)

    def _pump(self, timeout):
        """Read and dispatch one push frame; True when one was handled,
        False when *timeout* (seconds) elapsed first.

        Only valid between requests: a non-frame message arriving here has
        no outstanding request to pair with, so the stream is desynced and
        the connection is poisoned.
        """
        if self._sock is None or self._poisoned:
            raise ServiceError(
                "connection is closed; subscriptions do not survive reconnects"
            )
        deadline = None if timeout is None else time.monotonic() + timeout
        try:
            message = self._decode(self._read_line(deadline))
        except TimeoutError:
            # Partial data stays buffered; the stream is still intact.
            return False
        if not protocol.is_push_frame(message):
            self._poison()
            raise ServiceError(
                "unexpected response while waiting for push frames; "
                "connection closed (protocol desync)"
            )
        self._dispatch_frame(message)
        return True

    def _poison(self):
        self._poisoned = True
        try:
            self.close()
        except OSError:  # pragma: no cover - close errors are best-effort
            pass

    # -------------------------------------------------------- subscriptions

    def subscribe(
        self,
        query,
        target="graphlog",
        predicate=None,
        source=None,
        policy=None,
        queue_max=None,
        allow_fallback=None,
        on_event=None,
        **limits,
    ):
        """Register *query* for live maintenance; returns a
        :class:`SubscriptionHandle` holding the initial snapshot.

        The handle's ``rows`` track the server's maintained answer: call
        :meth:`SubscriptionHandle.next_event` (or iterate ``events()``) to
        pump the connection and apply queued delta frames.  Non-maintainable
        queries (aggregation, RPQ) raise
        :class:`~repro.errors.NotMaintainable` unless ``allow_fallback=True``
        opts into server-side diff-based re-evaluation.

        Raises :class:`~repro.errors.SubscriptionError` when the client was
        built with ``retries > 0``: a retry reconnects, and server-side
        subscription state does not survive a reconnect — the stream would
        silently go dead.  Use a dedicated ``retries=0`` client.
        """
        if self.retries:
            raise SubscriptionError(
                "subscriptions and retries are mutually exclusive on one "
                "connection: a retry reconnects and silently drops all "
                "server-side subscription state; use a retries=0 client"
            )
        response = self.call(
            "subscribe",
            query=query,
            target=target,
            predicate=predicate,
            source=source,
            policy=policy,
            queue_max=queue_max,
            allow_fallback=allow_fallback,
            **limits,
        )
        result = response["result"]
        rows = {
            name: {tuple(row) for row in rel}
            for name, rel in result["snapshot"].items()
        }
        handle = SubscriptionHandle(
            self,
            result["subscription"],
            rows,
            response.get("version", -1),
            predicates=tuple(result.get("predicates", ())),
            mode=result.get("mode"),
            policy=result.get("policy"),
            queue_max=result.get("queue_max"),
            fallback_reason=result.get("fallback_reason"),
            on_event=on_event,
        )
        self._handles[handle.id] = handle
        # Frames that raced ahead of the subscribe response.
        for frame in self._orphans.pop(handle.id, ()):
            handle._apply(frame)
        return handle

    def unsubscribe(self, handle):
        """Tear down a subscription (by handle or id); the handle is closed
        locally even when late frames for it are still in flight."""
        sub_id = handle.id if isinstance(handle, SubscriptionHandle) else int(handle)
        response = self.call("unsubscribe", subscription=sub_id)
        self._dead_subscriptions.add(sub_id)
        self._orphans.pop(sub_id, None)
        closed = self._handles.pop(sub_id, None)
        if closed is not None:
            closed._mark_closed("unsubscribed")
        return response["result"]

    # ------------------------------------------------------------ lifecycle

    def close(self):
        sock, self._sock = self._sock, None
        for handle in list(self._handles.values()):
            handle._mark_closed("connection closed")
        if sock is not None:
            # shutdown() (unlike close()) reliably unblocks another thread
            # parked in recv() on this socket — the replica applier closes
            # its client from the stopping thread to abort a long-poll.
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            sock.close()

    def __enter__(self):
        return self

    def __exit__(self, *_exc):
        self.close()


class SubscriptionHandle:
    """One live subscription: a locally materialized result set plus the
    event stream that keeps it current.

    ``rows`` maps predicate → set of answer tuples and always reflects the
    last applied frame; ``version`` is the store version it corresponds to.
    Events are dicts — ``{"type": "delta", "version", "inserted",
    "deleted"}``, ``{"type": "snapshot", "version", "resync"}`` (the server
    replaced the state wholesale, e.g. after queue overflow under the
    ``resync`` policy), and the terminal ``{"type": "closed", "reason"}``.
    Pass ``on_event`` to :meth:`ServiceClient.subscribe` to consume them via
    callback instead of the queue.  Not thread-safe, like the owning client.
    """

    def __init__(
        self,
        client,
        sub_id,
        rows,
        version,
        predicates=(),
        mode=None,
        policy=None,
        queue_max=None,
        fallback_reason=None,
        on_event=None,
    ):
        self.client = client
        self.id = sub_id
        self.rows = rows
        self.version = version
        self.predicates = predicates
        self.mode = mode
        self.policy = policy
        self.queue_max = queue_max
        self.fallback_reason = fallback_reason
        self.on_event = on_event
        self.closed = None  # reason string once terminal
        self._events = deque()

    def result(self, predicate=None):
        """A copy of the materialized answer: one predicate's set of rows,
        or the full ``{predicate: rows}`` map."""
        if predicate is not None:
            return set(self.rows.get(predicate, ()))
        return {name: set(rel) for name, rel in self.rows.items()}

    def next_event(self, timeout=None):
        """The next event for this subscription, pumping the connection
        while other traffic (or nothing) arrives; None once *timeout*
        seconds pass without one."""
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            if self._events:
                return self._events.popleft()
            if self.closed is not None:
                return {"type": "closed", "reason": self.closed}
            if deadline is None:
                remaining = None
            else:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return None
            if not self.client._pump(remaining):
                return None

    def events(self, timeout=None):
        """Iterate events until the subscription closes or a pump times out."""
        while True:
            event = self.next_event(timeout)
            if event is None:
                return
            yield event
            if event["type"] == "closed":
                return

    def unsubscribe(self):
        self.client.unsubscribe(self)

    # ------------------------------------------------------------- internal

    def _apply(self, frame):
        kind = frame.get("frame")
        if kind == "delta":
            version = frame.get("version", -1)
            if version <= self.version:
                # Already covered by a (re)snapshot that raced ahead.
                return
            inserted = _wire_rows(frame.get("inserted"))
            deleted = _wire_rows(frame.get("deleted"))
            for name, rel in inserted.items():
                self.rows.setdefault(name, set()).update(rel)
            for name, rel in deleted.items():
                self.rows.setdefault(name, set()).difference_update(rel)
            self.version = version
            event = {
                "type": "delta",
                "version": version,
                "inserted": inserted,
                "deleted": deleted,
            }
            if frame.get("trace_id") is not None:
                # The distributed trace of the commit that produced this
                # delta — `repro trace <id>` shows the write it came from.
                event["trace_id"] = frame["trace_id"]
            self._emit(event)
        elif kind == "snapshot":
            self.rows = _wire_rows(frame.get("relations"))
            self.version = frame.get("version", -1)
            self._emit(
                {
                    "type": "snapshot",
                    "version": self.version,
                    "resync": bool(frame.get("resync")),
                }
            )
        elif kind == "closed":
            self._mark_closed(frame.get("reason", "closed"))

    def _mark_closed(self, reason):
        if self.closed is not None:
            return
        self.closed = reason
        self._emit({"type": "closed", "reason": reason})

    def _emit(self, event):
        if self.on_event is not None:
            self.on_event(event)
        else:
            self._events.append(event)


def _wire_rows(relations):
    return {
        name: {tuple(row) for row in rel} for name, rel in (relations or {}).items()
    }


def _relations(response):
    return {
        name: {tuple(row) for row in rows}
        for name, rows in response["result"]["relations"].items()
    }
