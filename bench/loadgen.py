"""The closed-loop load generator: one blocking client, fixed work.

Callers of :class:`~repro.service.client.ServiceClient` block on the reply,
so the loop is closed: the next request goes out only after the previous
one (and, for commits, its subscriber deltas) came back.  Subscribers are
extra passive connections pumped by the same thread.  There are no loadgen
threads — on one pinned core they would only add scheduling noise.
"""

from __future__ import annotations

import gc
import time

from repro.errors import ReproError
from repro.service.client import ServiceClient

import stats
from probe import speed

_HASH_MASK = (1 << 64) - 1

#: Generous: nothing in a healthy run waits this long.
CLIENT_TIMEOUT = 10.0

#: A run on which this many ops failed is abandoned: every further op could
#: wait out CLIENT_TIMEOUT, and the run must end inside the driver's cap.
MAX_FAILURES = 5


class TooManyFailures(RuntimeError):
    """The workload is failing; there is nothing left to measure."""


def content_hash(rows):
    """An order-insensitive digest of a relation: (row count, sum of row
    hashes).  Works on wire rows (lists) and on sets of tuples alike."""
    return len(rows), sum(map(hash, map(tuple, rows))) & _HASH_MASK


class ByteCounter:
    """Bytes the loadgen's connections sent and received, frames included."""

    __slots__ = ("sent", "received")

    def __init__(self):
        self.sent = 0
        self.received = 0

    @property
    def total(self):
        return self.sent + self.received


class _CountingSocket:
    """The slice of the socket API ServiceClient uses, counting bytes."""

    __slots__ = ("_sock", "_counter")

    def __init__(self, sock, counter):
        self._sock = sock
        self._counter = counter

    def sendall(self, data):
        self._counter.sent += len(data)
        return self._sock.sendall(data)

    def recv(self, size):
        chunk = self._sock.recv(size)
        self._counter.received += len(chunk)
        return chunk

    def settimeout(self, value):
        self._sock.settimeout(value)

    def shutdown(self, how):
        self._sock.shutdown(how)

    def close(self):
        self._sock.close()


class MeasuredClient(ServiceClient):
    """A ServiceClient whose wire traffic is counted into *counter*."""

    def __init__(self, port, counter):
        self._counter = counter
        super().__init__(port=port, timeout=CLIENT_TIMEOUT)

    def _connect(self):
        super()._connect()
        self._sock = _CountingSocket(self._sock, self._counter)


class Session:
    """The live connections of one booted topology."""

    def __init__(self, topology, entry):
        self.topology = topology
        self.counter = ByteCounter()
        #: The one load-carrying connection (to the node, or to the router).
        self.client = MeasuredClient(topology.ports[entry], self.counter)
        #: Passive subscriber connections and their handles.
        self.subscriber_clients = []
        self.handles = []
        #: Side connections used only between windows to pull ``stats``;
        #: their bytes are not the workload's and are not counted.
        self.stats_clients = {}
        #: Store version after the last acknowledged commit.
        self.version = None

    def add_subscriber(self, port, **subscribe):
        client = MeasuredClient(port, self.counter)
        self.subscriber_clients.append(client)
        handle = client.subscribe(**subscribe)
        self.handles.append(handle)
        return handle

    def stats_client(self, name):
        client = self.stats_clients.get(name)
        if client is None:
            client = ServiceClient(
                port=self.topology.ports[name], timeout=CLIENT_TIMEOUT
            )
            self.stats_clients[name] = client
        return client

    def close(self):
        for client in (
            [self.client] + self.subscriber_clients + list(self.stats_clients.values())
        ):
            client.close()
        self.subscriber_clients = []
        self.handles = []
        self.stats_clients = {}


def first_relation(response):
    """The rows of the single relation a read response carries."""
    (rows,) = response["result"]["relations"].values()
    return rows


def run_ops(session, ops, latencies=None, kinds=None):
    """Issue *ops* in order over the session's client; returns the number
    that failed.  One latency (seconds) per op is appended to *latencies*
    and one ``(kind, seconds)`` to *kinds* (a commit adds its ack latency
    as a second, ``"ack"`` sample).

    An op is ``(kind, request, expected)``:

    - ``("read", (op, payload), digest)`` — the answer's content hash must
      equal *digest*;
    - ``("write", payload, None)`` — the acknowledged version must be the
      previous one plus one;
    - ``("commit", payload, (field, rows))`` — as a write, and then every
      subscriber must apply exactly that version with *rows* as the
      ``inserted`` or ``deleted`` (*field*) side of the delta.  The op ends
      when the last subscriber has applied it.
    """
    call = session.client.call
    clock = time.perf_counter
    failed = 0
    latencies = [] if latencies is None else latencies
    kinds = [] if kinds is None else kinds
    for kind, request, expected in ops:
        ok = True
        started = clock()
        try:
            if kind == "read":
                response = call(request[0], **request[1])
                elapsed = clock() - started
                ok = content_hash(first_relation(response)) == expected
            else:
                version = call("update", **request)["version"]
                acked = clock() - started
                ok = session.version is None or version == session.version + 1
                session.version = version
                if kind == "commit":
                    field, rows = expected
                    for handle in session.handles:
                        event = handle.next_event(timeout=CLIENT_TIMEOUT)
                        ok = ok and _delta_matches(event, version, field, rows)
                    elapsed = clock() - started
                    kinds.append(("ack", acked))
                else:
                    elapsed = acked
        except (ReproError, OSError):
            elapsed = clock() - started
            ok = False
        latencies.append(elapsed)
        kinds.append((kind, elapsed))
        if not ok:
            failed += 1
            if failed > MAX_FAILURES:
                raise TooManyFailures(f"{failed} ops failed, last one a {kind}")
    return failed


def _delta_matches(event, version, field, rows):
    if event is None or event.get("type") != "delta" or event["version"] != version:
        return False
    other = "deleted" if field == "inserted" else "inserted"
    (changed,) = event[field].values() or (set(),)
    return changed == rows and not any(event[other].values())


def measure_window(session, slices, probe):
    """Run the measured window slice by slice, with a speed probe at every
    slice boundary.

    Returns ``(summary, failed, by_kind)``: the estimators of
    :func:`stats.summarize_window`, the failed-op count, and per-kind
    latency lists for the per-layer client numbers.
    """
    latencies = []
    kinds = []
    slice_seconds = []
    failed = 0
    # The loop allocates the same objects in the same order on every run, so
    # a full collection would land on the same probe or slice every time and
    # bias it; nothing here makes reference cycles.
    gc.collect()
    gc.disable()
    try:
        probes = [probe.measure()]
        for ops in slices:
            started = time.perf_counter()
            failed += run_ops(session, ops, latencies, kinds)
            slice_seconds.append(time.perf_counter() - started)
            probes.append(probe.measure())
    finally:
        gc.enable()
    by_kind = {}
    for kind, elapsed in kinds:
        by_kind.setdefault(kind, []).append(elapsed)
    speeds = [speed(probes[i], probes[i + 1]) for i in range(len(slices))]
    summary = stats.summarize_window(latencies, slice_seconds, speeds)
    return summary, failed, by_kind
