"""The read/write router: reads fan across replicas, writes hit the primary.

Two entry points over the same routing core:

- :class:`RoutingClient` — a drop-in :class:`~repro.service.client.
  ServiceClient` replacement for applications.  Reads round-robin across
  healthy replicas (with the primary as the fallback of last resort);
  writes go to the primary and their committed version becomes the
  client's *min-version token*: every later read carries it, so a replica
  serving the read either proves it has caught up (waiting, bounded,
  server-side) or answers ``replica_stale`` and the router moves on —
  read-your-writes without pinning every read to the primary.
- :class:`RouterServer` — ``repro route``: a JSON-lines TCP front speaking
  the same wire protocol as the service, so any existing client gets
  routed reads by pointing at the router instead of a server.  Each
  connection gets its own :class:`RoutingClient`, which makes the
  min-version token per-connection — exactly the session consistency the
  token models.

Health ejection: a backend whose connection fails (or whose client
poisons itself mid-call) is ejected for ``eject_seconds`` and quietly
retried after.  Connect failures and mid-call poisons go through one
accounting path (``_Backend.record_failure``), stamped with a single
``time.monotonic()`` reading taken once per routed call.  Server-
*reported* errors (parse errors, timeouts, budget overruns) are the
query's problem, not the backend's, and propagate without ejection.

Failover: when a *write* fails at the connection level, the router probes
the replicas for one that accepts writes — i.e. one an operator has
promoted (``repro promote``) under a fresh epoch — and adopts it as the
new primary (the old primary joins the replica list for its eventual
rejoin).  The min-version token is reset at adoption: it was minted on
the old epoch's version line, which the new line may never reach, and
read-your-writes across a failover cannot be honored anyway for commits
the old primary lost.  The retried write is applied on the *new* history
line; if the old primary had committed it just before dying, that commit
lives on the abandoned line — at-most-once per epoch, not globally.
"""

from __future__ import annotations

import itertools
import json
import logging
import socketserver
import threading
import time

from repro import obs
from repro.errors import ProtocolError, ReadOnlyError, ReplicaStale, ReproError, ServiceError
from repro.obs import context as trace_context
from repro.obs import logs
from repro.obs.export import SHUTDOWN_POLL_S, TelemetryHTTPServer
from repro.obs.metrics import (
    HistogramData,
    HistogramMergeError,
    MetricFamily,
    Registry,
    table_families,
)
from repro.service import protocol
from repro.service.client import ClientOps, ServiceClient
from repro.service.metrics import ON_LOOP

logger = logging.getLogger(__name__)

#: RoutingClient counters folded into RouterServer totals per connection.
ROUTING_COUNTERS = (
    "reads_routed",
    "writes_routed",
    "stale_redirects",
    "ejections",
    "primary_fallbacks",
    "failovers",
    "token_resets",
)


def parse_address(value, default_port=7464):
    """``"host:port"`` (or ``(host, port)``) → ``(host, port)``."""
    if isinstance(value, (tuple, list)):
        host, port = value
        return str(host), int(port)
    text = str(value)
    if ":" in text:
        host, _, port = text.rpartition(":")
        return host or "127.0.0.1", int(port)
    return text, default_port


class _Backend:
    """One routable server: lazy connection + health-ejection state."""

    def __init__(self, address, timeout, retries):
        self.host, self.port = parse_address(address)
        self.timeout = timeout
        self.retries = retries
        self.client = None
        self.failures = 0
        self.ejected_until = 0.0

    @property
    def address(self):
        return f"{self.host}:{self.port}"

    def healthy(self, now):
        return now >= self.ejected_until

    def acquire(self):
        if self.client is None or self.client.poisoned:
            self.drop()
            self.client = ServiceClient(
                host=self.host,
                port=self.port,
                timeout=self.timeout,
                retries=self.retries,
            )
        return self.client

    def drop(self):
        client, self.client = self.client, None
        if client is not None:
            try:
                client.close()
            except OSError:  # pragma: no cover - best-effort close
                pass

    def record_failure(self, eject_seconds, now):
        """One accounting path for every connection-level failure — connect
        refused in :meth:`acquire` and mid-call poison alike: count it,
        eject until ``now + eject_seconds``, drop the dead client."""
        self.failures += 1
        self.ejected_until = now + eject_seconds
        self.drop()

    def mark_ok(self):
        self.failures = 0
        self.ejected_until = 0.0


class RoutingClient(ClientOps):
    """Routes one logical client's requests across a replicated cluster.

    Not thread-safe (same contract as :class:`ServiceClient`): one routing
    client per thread/connection, which also scopes the read-your-writes
    token correctly.
    """

    def __init__(
        self,
        primary,
        replicas=(),
        timeout=30.0,
        retries=1,
        eject_seconds=2.0,
        on_failover=None,
        sampler=None,
        traces=None,
        node_id=None,
    ):
        self.primary = _Backend(primary, timeout, retries)
        self.replicas = [_Backend(address, timeout, retries) for address in replicas]
        self.eject_seconds = eject_seconds
        #: Distributed-tracing wiring (all optional): when a *sampler* is
        #: configured, every routed call runs under a trace context — the
        #: incoming request's own when it carried one, a freshly minted one
        #: otherwise — and every forward attempt (including failover probes
        #: and stale redirects) is stamped so backend spans hang off this
        #: hop in the assembled trace.  Sampled hops record their span tree
        #: into *traces* (the owning RouterServer's ring).
        self.sampler = sampler
        self.traces = traces
        self.node_id = node_id
        #: Called as ``on_failover(primary_address, replica_addresses)``
        #: after a write failover adopts a promoted replica; RouterServer
        #: uses it to share the discovered topology across connections.
        self.on_failover = on_failover
        self._rr = itertools.count()
        self._min_version = None
        for name in ROUTING_COUNTERS:
            setattr(self, name, 0)

    # ------------------------------------------------------------- routing

    @property
    def min_version(self):
        """The current read-your-writes token (None before the first write)."""
        return self._min_version

    def call(self, op, /, **payload):
        """Route one request; returns the backend's full response dict."""
        return json.loads(self.call_line(op, **payload))

    def call_line(self, op, /, **payload):
        """Route one request; returns the backend's response line as the
        node sent it (its ``id`` is the backend connection's).  Only an
        error line and a write's acknowledgement are decoded in full: a
        node's error is raised (carrying it as ``response``), and an ack's
        ``version`` becomes the read-your-writes token."""
        payload = {k: v for k, v in payload.items() if v is not None}
        tc = self._trace_for(payload)
        if tc is None:
            return self._route(op, payload)
        token = trace_context.set_current(tc)
        try:
            if not tc.sampled:
                return self._route(op, payload)
            with obs.tracing("route", context=tc, op=op) as tr:
                line = self._route(op, payload)
            if self.traces is not None:
                self.traces.record(obs.trace_entry(tr.root, tc.trace_id, self.node_id, op))
            return line
        finally:
            trace_context.reset_current(token)

    def _trace_for(self, payload):
        """The trace context this routed call runs under (or ``None``).

        An incoming ``trace`` field wins (the caller already decided the id
        and the sampling verdict); otherwise an ambient context is reused;
        otherwise a configured sampler mints a fresh context per call.  The
        wire field is *popped*: forwarding re-stamps it per backend attempt
        with the forward span as parent.
        """
        doc = payload.pop("trace", None)
        if doc is not None:
            return trace_context.TraceContext.from_wire(doc)
        ambient = trace_context.current()
        if ambient is not None:
            return ambient
        if self.sampler is not None and self.sampler.enabled:
            return trace_context.TraceContext(
                logs.new_request_id(), None, self.sampler.sample()
            )
        return None

    def counters(self):
        """The routing counters as a dict (RouterServer folds these into
        cross-connection totals when the owning connection closes)."""
        return {name: getattr(self, name) for name in ROUTING_COUNTERS}

    def _route(self, op, payload):
        # One clock reading per routed call: every health judgment and
        # ejection stamp inside this call sees the same instant.
        now = time.monotonic()
        spec = protocol.op_spec(op)
        if spec.streaming:
            # Push frames would land in a pooled backend connection nobody
            # reads; a stream needs its own connection to the node.
            raise ProtocolError(
                f"op {op!r} is a streaming op; connect to a node, e.g. the "
                f"primary at {self.primary.address}"
            )
        if spec.route == "write":
            return self._call_write(op, payload, now)
        if spec.route == "read":
            return self._call_read(op, payload, now)
        # node ops describe one concrete server, and the primary is the
        # authoritative one; of the cluster ops a bare routing client (no
        # RouterServer in front) likewise gets the primary's own answer.
        try:
            return self._call_backend(self.primary, op, payload, now)
        except _BackendDown as exc:
            raise exc.cause

    def _call_write(self, op, payload, now):
        try:
            line = self._call_backend(self.primary, op, payload, now)
        except _BackendDown as exc:
            line = self._failover_write(op, payload, now, exc)
        self.writes_routed += 1
        version = json.loads(line).get("version")
        if version is not None:
            # Assign, don't max(): on one history line a new commit's
            # version always exceeds the token anyway, and across a
            # failover (new epoch, possibly lower counter) max() would pin
            # every read to a version the new line may never reach.
            if self._min_version is not None and version < self._min_version:
                self.token_resets += 1
            self._min_version = version
        return line

    def _failover_write(self, op, payload, now, down):
        """The primary's connection failed mid-write: look for a promoted
        replica (one that *accepts* the write) and adopt it as the primary.

        A replica that answers ``read_only`` has not been promoted — keep
        probing.  A genuine server-reported error from a writable backend
        propagates: that backend IS the new primary and it answered.  If no
        backend takes the write, the original connection error surfaces
        unchanged.  The retried write lands on the new epoch's history
        line; if the dying primary had already committed it, that commit is
        on the abandoned line — at-most-once per epoch.
        """
        for backend in list(self.replicas):
            try:
                line = self._call_backend(backend, op, payload, now)
            except ReadOnlyError:
                continue
            except _BackendDown:
                continue
            self._adopt_primary(backend)
            return line
        raise down.cause

    def _adopt_primary(self, backend):
        """Swap *backend* in as the primary; the old primary becomes a
        replica candidate so it can rejoin after catch-up."""
        old = self.primary
        self.primary = backend
        if backend in self.replicas:
            self.replicas.remove(backend)
        self.replicas.append(old)
        backend.mark_ok()
        # The token was minted on the old epoch's version line; reset it so
        # read-your-writes cannot deadlock on a counter the promoted line
        # may never reach.  The caller re-arms it from the failover write's
        # own committed version.
        if self._min_version is not None:
            self.token_resets += 1
        self._min_version = None
        self.failovers += 1
        logger.warning(
            "write failover: promoted replica %s is the new primary "
            "(old primary %s demoted to replica candidate)",
            backend.address,
            old.address,
        )
        if self.on_failover is not None:
            self.on_failover(
                self.primary.address, [b.address for b in self.replicas]
            )

    def _call_read(self, op, payload, now, _retried=False):
        base_payload = dict(payload)
        if self._min_version is not None:
            payload = dict(payload)
            payload["min_version"] = max(
                payload.get("min_version", 0), self._min_version
            )
        self.reads_routed += 1
        candidates = self._read_candidates(now)
        last_error = None
        stale = 0
        for backend in candidates:
            try:
                line = self._call_backend(backend, op, payload, now)
                backend.mark_ok()
                return line
            except ReplicaStale as exc:
                # The replica waited its bounded wait and is still behind:
                # healthy, just lagging — redirect, don't eject.
                self.stale_redirects += 1
                stale += 1
                last_error = exc
            except _BackendDown as exc:
                last_error = exc.cause
        # Fall back to the primary, which can never be stale for a token it
        # minted and is the last word on connectivity.
        self.primary_fallbacks += 1
        try:
            return self._call_backend(self.primary, op, payload, now)
        except ServiceError:
            raise
        except _BackendDown as exc:
            if not _retried and stale and self._min_version is not None:
                # The primary that minted the token is unreachable and every
                # replica reports itself behind it — the token likely names
                # a version on an abandoned epoch's line (the primary died
                # and a replica was promoted with a lower counter).  Waiting
                # would deadlock read-your-writes forever; the commits the
                # token covered are gone with the old line.  Reset and serve
                # current data.
                self.token_resets += 1
                self._min_version = None
                logger.warning(
                    "read-your-writes token reset: primary unreachable and "
                    "all %d replica(s) stale against it",
                    stale,
                )
                return self._call_read(op, base_payload, now, _retried=True)
            raise exc.cause
        finally:
            if last_error is not None:
                logger.debug("read fell back to primary after: %s", last_error)

    def _read_candidates(self, now):
        healthy = [b for b in self.replicas if b.healthy(now)]
        if not healthy:
            return []
        start = next(self._rr) % len(healthy)
        return healthy[start:] + healthy[:start]

    def _call_backend(self, backend, op, payload, now):
        tc = trace_context.current()
        if tc is not None:
            # Stamp every forward attempt — first choice, stale redirect, or
            # failover probe alike — with a child context parented at this
            # attempt's span, so the backend's serving spans attach to the
            # hop that actually reached it.  Unsampled contexts have no
            # active tracer; the id still propagates for log correlation.
            with obs.span("route.forward", op=op, backend=backend.address) as fwd:
                stamped = dict(payload)
                stamped["trace"] = tc.child(
                    getattr(fwd, "span_id", None) or tc.parent_span_id
                ).to_wire()
                return self._send(backend, op, stamped, now)
        return self._send(backend, op, payload, now)

    def _send(self, backend, op, payload, now):
        try:
            return backend.acquire().call_line(op, **payload)
        except (ReplicaStale, ReadOnlyError):
            raise
        except ServiceError as exc:
            if backend.client is None or backend.client.poisoned:
                # Connection-level failure (connect refused, timeout,
                # desync): the backend is the problem.  Connect failures in
                # acquire() leave client None and land here too — the same
                # accounting as a mid-call poison.
                backend.record_failure(self.eject_seconds, now)
                self.ejections += 1
                raise _BackendDown(backend, exc) from exc
            # The server answered with an error: the request is the
            # problem, not the backend.
            raise

    def router_stats(self):
        """Routing-layer statistics (not a wire op)."""
        now = time.monotonic()
        return {
            "primary": self.primary.address,
            "replicas": [
                {
                    "address": b.address,
                    "healthy": b.healthy(now),
                    "failures": b.failures,
                }
                for b in self.replicas
            ],
            **self.counters(),
            "min_version": self._min_version,
        }

    # ------------------------------------------------------------ lifecycle

    def close(self):
        self.primary.drop()
        for backend in self.replicas:
            backend.drop()

    def __enter__(self):
        return self

    def __exit__(self, *_exc):
        self.close()


class _BackendDown(Exception):
    """Internal: a backend failed at the connection level and was ejected."""

    def __init__(self, backend, cause):
        super().__init__(f"{backend.address}: {cause}")
        self.backend = backend
        self.cause = cause


#: ``(name, kind, help, key)`` per-node rows of the ``repro_cluster_*``
#: exposition; a node that did not answer has no version/lag/requests.
_CLUSTER_NODE_FAMILIES = (
    ("repro_cluster_node_up", "gauge", "1 when the node answered the stats fan-out", "ok"),
    ("repro_cluster_node_version", "gauge", "Committed version per node", "version"),
    ("repro_cluster_node_lag_versions", "gauge",
     "Replica lag behind its primary, in versions", "lag_versions"),
    ("repro_cluster_node_requests_total", "counter",
     "Requests served per node (all ops)", "requests_total"),
)


class RouterServer:
    """A standalone JSON-lines TCP router (``repro route``).

    Accepts ordinary service-protocol connections and forwards each request
    through a per-connection :class:`RoutingClient`.  A node's response line
    goes back to the client byte for byte but for its ``id``, rewritten to
    the requesting client's (backends see the router's own sequence
    numbers); only errors and write acknowledgements are decoded whole.
    """

    def __init__(
        self,
        primary,
        replicas=(),
        host="127.0.0.1",
        port=0,
        timeout=30.0,
        retries=1,
        eject_seconds=2.0,
        trace_sample=0.0,
        trace_ring=256,
        metrics_host="127.0.0.1",
        metrics_port=None,
    ):
        self.primary = primary
        self.replicas = list(replicas)
        self.host = host
        self.port = port
        self.timeout = timeout
        self.retries = retries
        self.eject_seconds = eject_seconds
        self._server = None
        self._thread = None
        self.connections = 0
        self.failovers = 0
        # Failover discoveries are shared across connections: the first
        # connection to find the promoted primary updates the topology here,
        # and every connection opened afterwards starts on it.
        self._topology_lock = threading.Lock()
        #: The router is a node in the trace topology too: it has its own
        #: identity, its own trace ring (queried by ``trace_get`` alongside
        #: the backends'), and a head sampler shared by every connection's
        #: RoutingClient (itertools-counter based, safe across threads).
        self.node_id = obs.new_node_id()
        self.sampler = obs.RateSampler(trace_sample)
        self.traces = obs.TraceRing(capacity=trace_ring)
        #: Stats fan-outs (cluster_stats / trace_get) use short-lived
        #: clients with a bounded timeout so one dead node cannot stall the
        #: whole panel for the full routing timeout.
        self.fanout_timeout = min(timeout, 5.0)
        self._started_monotonic = time.monotonic()
        self._clients_lock = threading.Lock()
        self._live_clients = set()
        self._counter_totals = {name: 0 for name in ROUTING_COUNTERS}
        self.metrics_host = metrics_host
        self.metrics_port = metrics_port
        self._telemetry = None
        self.exposition = Registry()
        self.exposition.collector(self._cluster_families)

    def routing_client(self):
        with self._topology_lock:
            primary, replicas = self.primary, list(self.replicas)
        return RoutingClient(
            primary,
            replicas,
            timeout=self.timeout,
            retries=self.retries,
            eject_seconds=self.eject_seconds,
            on_failover=self._record_failover,
            sampler=self.sampler if self.sampler.enabled else None,
            traces=self.traces,
            node_id=self.node_id,
        )

    def _track(self, routing):
        with self._clients_lock:
            self.connections += 1
            self._live_clients.add(routing)

    def _untrack(self, routing):
        """Fold a closing connection's routing counters into the totals so
        ``cluster_stats`` survives connection churn."""
        with self._clients_lock:
            self._live_clients.discard(routing)
            for name, value in routing.counters().items():
                self._counter_totals[name] += value

    def router_totals(self):
        """Cross-connection routing counters: closed-connection totals plus
        the live connections' current values (reads of plain ints — no
        coordination with the owning connection threads needed)."""
        with self._clients_lock:
            totals = dict(self._counter_totals)
            for routing in self._live_clients:
                for name, value in routing.counters().items():
                    totals[name] += value
        return totals

    def _record_failover(self, primary, replicas):
        with self._topology_lock:
            self.primary = primary
            self.replicas = [address for address in replicas if address != primary]
            self.failovers += 1
        logger.warning(
            "router topology updated after failover: primary %s, replicas %s",
            primary,
            ", ".join(self.replicas) or "(none)",
        )

    # -------------------------------------------------------------- serving

    def start(self):
        outer = self

        class Handler(socketserver.StreamRequestHandler):
            def handle(self):
                with outer.routing_client() as routing:
                    outer._track(routing)
                    limit = protocol.MAX_REQUEST_BYTES
                    try:
                        while True:
                            line = self.rfile.readline(limit + 1)
                            if not line:
                                return
                            if not line.strip():
                                continue
                            if len(line) > limit and not line.endswith(b"\n"):
                                # What a node answers: one error, then close
                                # — once the rest of the line is read (up to
                                # one more limit, within a second), so the
                                # close cannot reset the answer away.
                                self.wfile.write(
                                    protocol.encode(
                                        protocol.error_response(
                                            None, ProtocolError("request line too long")
                                        )
                                    )
                                )
                                self.connection.settimeout(1.0)
                                self.rfile.readline(limit)
                                return
                            self.wfile.write(outer._route_line(routing, line))
                    except OSError:
                        return
                    finally:
                        outer._untrack(routing)

        class Server(socketserver.ThreadingTCPServer):
            allow_reuse_address = True
            daemon_threads = True

        self._server = Server((self.host, self.port), Handler)
        self.host, self.port = self._server.server_address[:2]
        self._thread = threading.Thread(
            target=self._server.serve_forever,
            args=(SHUTDOWN_POLL_S,),
            name="repro-router",
            daemon=True,
        )
        self._thread.start()
        if self.metrics_port is not None:
            self._telemetry = TelemetryHTTPServer(
                render_metrics=self.exposition.render,
                health=self.health,
                host=self.metrics_host,
                port=self.metrics_port,
            ).start()
            # The endpoint resolves port 0 to the bound ephemeral port;
            # reflect it so embedders and the CLI banner can name it.
            self.metrics_port = self._telemetry.port
        logger.info(
            "router listening on %s:%d (primary %s, %d replica(s))",
            self.host,
            self.port,
            parse_address(self.primary),
            len(self.replicas),
        )
        return self

    def _route_line(self, routing, line):
        """The line answering one request line.  A node's answer goes back
        as the node's bytes with only ``id`` rewritten, and a node's error
        as the node sent it; the router builds only the answers it makes
        itself (cluster ops, a bad line, every backend down)."""
        request_id = None
        try:
            message = protocol.decode_request(line)
            request_id = message.pop("id", None)
            op = message.pop("op")
            if protocol.OPS[op].route != "cluster":
                return protocol.rewrite_id(routing.call_line(op, **message), request_id)
            # Cluster-plane ops are answered by the router itself: it owns
            # the topology, so it can fan out and merge instead of
            # forwarding to one node that only knows its own slice.
            started = time.monotonic()
            result = getattr(self, "_op_" + op)(message)
            response = protocol.ok_response(
                request_id,
                result,
                elapsed_ms=(time.monotonic() - started) * 1000.0,
            )
        except ServiceError as exc:
            response = getattr(exc, "response", None) or protocol.error_response(None, exc)
            response = dict(response, id=getattr(exc, "request_id", request_id))
        except Exception as exc:  # noqa: BLE001 — the router must not die mid-connection
            logger.exception("router failed to route a request")
            response = protocol.error_response(request_id, ServiceError(str(exc)))
        return protocol.encode(response)

    # ------------------------------------------------------- cluster plane

    def _topology(self):
        """The current ``(primary, replicas)`` as ``"host:port"`` strings."""
        with self._topology_lock:
            primary, replicas = self.primary, list(self.replicas)
        return (
            "%s:%d" % parse_address(primary),
            ["%s:%d" % parse_address(address) for address in replicas],
        )

    def _each_node(self):
        """``(role, "host:port")`` for every node in the current topology."""
        primary, replicas = self._topology()
        yield "primary", primary
        for address in replicas:
            yield "replica", address

    def _node_call(self, address, op, **payload):
        """One short-lived, bounded-timeout RPC to a single backend."""
        host, port = parse_address(address)
        with ServiceClient(host=host, port=port, timeout=self.fanout_timeout) as client:
            return client.call(op, **payload)

    def _op_trace_get(self, payload):
        """Assemble one distributed trace: the router's own ring plus a
        ``trace_get`` fan-out to every node in the topology, merged into a
        single span list (span dicts carry ``node_id``, so the renderer can
        show which machine each hop ran on)."""
        trace_id = payload.get("trace_id")
        if not isinstance(trace_id, str) or not trace_id:
            raise ProtocolError("trace_get requires a string trace_id")
        spans = []
        nodes = []
        own = []
        for entry in self.traces.find(trace_id):
            own.extend(entry.get("spans") or [])
        if own:
            spans.extend(own)
            nodes.append(
                {
                    "node_id": self.node_id,
                    "role": "router",
                    "address": f"{self.host}:{self.port}",
                    "source": "ring",
                    "spans": len(own),
                }
            )
        for role, address in self._each_node():
            try:
                result = self._node_call(address, "trace_get", trace_id=trace_id)[
                    "result"
                ]
            except (ReproError, OSError) as exc:
                nodes.append({"address": address, "role": role, "error": str(exc)})
                continue
            found = result.get("spans") or []
            if result.get("found"):
                spans.extend(found)
            nodes.append(
                {
                    "node_id": result.get("node_id"),
                    "role": role,
                    "address": address,
                    "source": result.get("source"),
                    "spans": len(found),
                }
            )
        # A node can be reachable through two addresses (old primary that
        # rejoined as a replica); dedup spans by (node_id, span_id).
        seen = set()
        unique = []
        for span in spans:
            key = (span.get("node_id"), span.get("span_id"))
            if key in seen and key[1] is not None:
                continue
            seen.add(key)
            unique.append(span)
        return {
            "trace_id": trace_id,
            "found": bool(unique),
            "spans": unique,
            "nodes": nodes,
        }

    def _op_cluster_stats(self, _payload):
        """The cluster observability panel: per-node role/epoch/version/lag
        plus a cross-node aggregate whose latency quantiles come from
        *merged histograms* (quantiles of per-node quantiles would be
        meaningless — see :meth:`repro.obs.metrics.HistogramData.merge`)."""
        doc, _merged = self._collect_cluster()
        return doc

    def _collect_cluster(self):
        nodes = []
        merged = {}
        merge_skipped = 0
        for role, address in self._each_node():
            entry = {"address": address, "role": role, "ok": False}
            try:
                stats = self._node_call(
                    address, "stats", include_histograms=True
                )["result"]
            except (ReproError, OSError) as exc:
                entry["error"] = str(exc)
                nodes.append(entry)
                continue
            entry["ok"] = True
            entry["node_id"] = stats.get("node_id")
            store = stats.get("store") or {}
            entry["version"] = store.get("version")
            repl = stats.get("replication") or {}
            # The node's own view of its role wins over the router's
            # topology guess (a promoted replica reports "primary" before
            # any write has forced a failover adoption).
            entry["role"] = repl.get("role", role)
            entry["epoch"] = repl.get("epoch", store.get("epoch"))
            entry["lag_versions"] = repl.get("lag_versions")
            metrics_doc = stats.get("metrics") or {}
            counters = metrics_doc.get("counters") or {}
            entry["requests_total"] = sum(
                value
                for name, value in counters.items()
                if name.startswith("requests.") and name != ON_LOOP
            )
            entry["in_flight"] = metrics_doc.get("in_flight")
            entry["latency"] = {
                op: {k: v for k, v in lat.items() if k != "histogram"}
                for op, lat in (metrics_doc.get("latency") or {}).items()
            }
            entry["traces"] = stats.get("traces")
            nodes.append(entry)
            for op, lat in (metrics_doc.get("latency") or {}).items():
                wire = lat.get("histogram")
                if wire is None:
                    continue
                try:
                    hist = HistogramData.from_wire(wire)
                    if op in merged:
                        merged[op].merge(hist)
                    else:
                        merged[op] = hist
                except HistogramMergeError as exc:
                    # A node on an incompatible bucket layout degrades the
                    # aggregate, never the whole panel.
                    merge_skipped += 1
                    logger.warning(
                        "cluster_stats: skipping histogram %s from %s: %s",
                        op,
                        address,
                        exc,
                    )
        lags = [
            entry["lag_versions"]
            for entry in nodes
            if entry.get("lag_versions") is not None
        ]
        aggregate = {
            "nodes_total": len(nodes),
            "nodes_ok": sum(1 for entry in nodes if entry["ok"]),
            "requests_total": sum(
                entry.get("requests_total") or 0 for entry in nodes
            ),
            "max_lag_versions": max(lags) if lags else None,
            "latency": {
                op: hist.summary_ms(max_ms=hist.max)
                for op, hist in sorted(merged.items())
            },
            "histograms_skipped": merge_skipped,
        }
        primary, replicas = self._topology()
        traces = self.traces.stats()
        traces["sample_rate"] = self.sampler.rate
        router = {
            "node_id": self.node_id,
            "address": f"{self.host}:{self.port}",
            "primary": primary,
            "replicas": replicas,
            "connections": self.connections,
            "failovers": self.failovers,
            "uptime_seconds": round(
                time.monotonic() - self._started_monotonic, 3
            ),
            "counters": self.router_totals(),
            "traces": traces,
        }
        return {"router": router, "nodes": nodes, "aggregate": aggregate}, merged

    # ----------------------------------------------------------- telemetry

    def health(self):
        """The router's ``/healthz`` document (the router itself is healthy
        whenever it is serving; backend health lives in ``cluster_stats``)."""
        primary, replicas = self._topology()
        return {
            "status": "ok",
            "role": "router",
            "node_id": self.node_id,
            "primary": primary,
            "replicas": replicas,
            "connections": self.connections,
            "failovers": self.failovers,
        }

    def _cluster_families(self):
        """Scrape-time collector: routing counters plus a live
        ``cluster_stats`` fan-out rendered as ``repro_cluster_*`` families
        (per-node up/version/lag/requests and merged latency histograms)."""
        totals = self.router_totals()
        routed = MetricFamily(
            "repro_router_requests_total", "counter", "Requests routed, by kind"
        )
        routed.add_sample(totals["reads_routed"], {"kind": "read"})
        routed.add_sample(totals["writes_routed"], {"kind": "write"})
        families = [routed]
        for name in ROUTING_COUNTERS:
            if name in ("reads_routed", "writes_routed"):
                continue
            families.append(
                MetricFamily(
                    f"repro_router_{name}_total",
                    "counter",
                    f"Routing events: {name.replace('_', ' ')}",
                ).add_sample(totals[name])
            )
        try:
            doc, merged = self._collect_cluster()
        except Exception:  # noqa: BLE001 — a scrape must not take down /metrics
            logger.exception("cluster_stats fan-out failed during scrape")
            return families
        families.extend(
            table_families(
                _CLUSTER_NODE_FAMILIES,
                [
                    ({"address": entry["address"], "role": entry.get("role", "?")}, entry)
                    for entry in doc["nodes"]
                ],
            )
        )
        families.append(
            MetricFamily(
                "repro_cluster_nodes_ok",
                "gauge",
                "Nodes that answered the stats fan-out",
            ).add_sample(doc["aggregate"]["nodes_ok"])
        )
        if merged:
            fam = MetricFamily(
                "repro_cluster_request_seconds",
                "histogram",
                "Cluster-wide request latency (merged across nodes), by op",
            )
            for op, hist in sorted(merged.items()):
                fam.add_histogram(hist, {"op": op})
            families.append(fam)
        return families

    def stop(self):
        if self._telemetry is not None:
            self._telemetry.stop()
            self._telemetry = None
        if self._server is not None:
            self._server.shutdown()
            self._server.server_close()
            self._server = None
        if self._thread is not None:
            self._thread.join(timeout=5)
            self._thread = None
