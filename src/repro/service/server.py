"""The concurrent query service: sync core + asyncio JSON-lines TCP server.

Two layers, separable on purpose:

- :class:`QueryService` is the synchronous, thread-safe core: it owns the
  prepared-plan cache, the store-coherent result cache, and the metrics
  registry, and executes one decoded request against the HAM store.  Tests
  and benchmarks drive it directly, in-process.
- :class:`ServiceServer` is the network front: an asyncio TCP server that
  speaks the JSON-lines protocol (:mod:`repro.service.protocol`), answers
  resident queries on the event loop, dispatches all else to a worker-thread
  pool, and enforces the per-request timeout.  Connections are handled
  concurrently; requests on one connection are answered in order.

Budget semantics: ``timeout`` bounds the wait for a worker and its work (the
worker thread finishes in the background after a timeout — results land in
the cache for the next attempt, but the client gets ``QueryTimeout``);
``max_rows``/``max_bytes`` bound the answer's row count and the encoded size
of its ``result`` object, and are re-checked on cache hits so per-request
overrides behave identically hot or cold.
"""

from __future__ import annotations

import asyncio
import gc
import json
import logging
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass

from repro import obs
from repro.errors import (
    ProtocolError,
    QueryTimeout,
    ReadOnlyError,
    ReplicaStale,
    ReproError,
    ResultTooLarge,
    StoreError,
    SubscriptionError,
)
from repro.ham.image import StoreImages
from repro.ham.store import HAMStore, new_epoch
from repro.obs import context as trace_context
from repro.obs import logs
from repro.obs.metrics import MetricFamily, table_families
from repro.obs.slowlog import SlowQueryLog
from repro.service import protocol
from repro.service.cache import PROMOTE, Entry, ResultCache, result_key
from repro.service.metrics import MetricsRegistry
from repro.service.prepared import QUERY_OPS, PreparedQuery, PreparedQueryCache

logger = logging.getLogger(__name__)

#: Request fields that parameterize evaluation (and the result-cache key).
_PARAM_FIELDS = ("predicate", "source")

#: Seconds a worker waits for the in-flight commit dispatch that re-stamps
#: its maintained entry before it evaluates the query instead.
_DISPATCH_WAIT_S = 1.0


#: ``(name, kind, help, key)`` rows for :func:`table_families`, in
#: exposition order: per-predicate store statistics, ...
_PREDICATE_FAMILIES = (
    ("repro_store_facts", "gauge", "Committed facts per predicate", "facts"),
    ("repro_store_churn_rows_total", "counter",
     "Delta rows inserted+deleted per predicate since start", "churn_rows"),
    ("repro_store_churn_commits_total", "counter",
     "Commits whose delta touched each predicate", "churn_commits"),
)
#: ... store size, ...
_STORE_FAMILIES = (
    ("repro_store_version", "gauge", "Committed store version", "version"),
    ("repro_store_nodes", "gauge", "Nodes in the committed graph", "nodes"),
    ("repro_store_edges", "gauge", "Edges in the committed graph", "edges"),
    ("repro_store_retained_records", "gauge",
     "Commit records the store keeps in memory", "retained_records"),
    ("repro_store_base_version", "gauge",
     "Version the oldest retained record follows", "base_version"),
)
#: ... the replication source every node is, ...
_REPL_SOURCE_FAMILIES = (
    ("repro_repl_records_shipped_total", "counter",
     "Commit records shipped to tailing replicas", "records_shipped"),
    ("repro_repl_tail_requests_total", "counter", "repl_tail requests served", "tail_requests"),
    ("repro_repl_bootstraps_served_total", "counter",
     "repl_bootstrap documents served", "bootstraps_served"),
    ("repro_repl_resets_total", "counter",
     "Tails answered with a reset (replica must re-bootstrap)", "resets_signaled"),
)
#: ... a replica's applier (a None, e.g. the lag before the first poll,
#: exports as -1), ...
_REPL_APPLIER_FAMILIES = (
    ("repro_repl_lag_versions", "gauge",
     "Store versions this replica is behind its primary", "lag_versions"),
    ("repro_repl_applied_version", "gauge",
     "Last primary commit version applied locally", "applied_version"),
    ("repro_repl_connected", "gauge",
     "1 when the replica's tail connection to the primary is up", "connected"),
    ("repro_repl_records_applied_total", "counter",
     "Commit records applied from the primary", "records_applied"),
    ("repro_repl_tail_errors_total", "counter",
     "Tail/bootstrap attempts that failed (connection or apply)", "tail_errors"),
    ("repro_repl_seconds_since_poll", "gauge",
     "Seconds since the last successful tail poll (-1 before one)", "seconds_since_poll"),
    ("repro_repl_epoch_rebootstraps_total", "counter",
     "Re-bootstraps triggered by a primary epoch change", "epoch_rebootstraps"),
)
#: ... the result cache's pre-encoded answers and maintained entries, ...
_RESULT_CACHE_FAMILIES = (
    ("repro_result_cache_encoded_entries", "gauge",
     "Result-cache entries, each holding its answer's wire bytes", "encoded_entries"),
    ("repro_result_cache_encoded_bytes", "gauge",
     "Bytes of encoded answers held by the result cache", "encoded_bytes"),
    ("repro_result_cache_maintained", "gauge",
     "Result-cache entries kept current by a pinned maintained view", "maintained"),
    ("repro_result_cache_maintained_rows", "gauge",
     "Rows of view state the maintained entries' views hold", "maintained_rows"),
    ("repro_result_cache_promotions_total", "counter",
     "Result-cache entries promoted to maintained", "promotions"),
    ("repro_result_cache_demotions_total", "counter",
     "Maintained entries demoted for a pass costlier than their view", "demotions"),
)
#: ... the store's relational image (``fallbacks`` is exported by reason
#: beside these), ...
_EDB_FAMILIES = (
    ("repro_edb_version", "gauge",
     "Store version of the published relational image (-1 before the first)", "version"),
    ("repro_edb_builds_total", "counter",
     "Relational images built from the graph", "builds"),
    ("repro_edb_folds_total", "counter",
     "Relational images advanced by folding commit deltas", "folds"),
    ("repro_edb_folded_rows_total", "counter",
     "Delta rows folded into the relational image", "folded_rows"),
    ("repro_edb_shared_relations", "gauge",
     "Relations the published image shares with its predecessor", "shared_relations"),
    ("repro_edb_catalog_terms", "gauge",
     "Terms interned in the published image's catalog", "catalog_terms"),
)
_EDB_FALLBACK_FAMILIES = (
    ("repro_edb_fallbacks_total", "counter",
     "Relational images rebuilt because folding was impossible or not cheaper", "count"),
)
#: ... and the process's garbage collector, by generation.
_GC_FAMILIES = (
    ("repro_gc_collections_total", "counter",
     "Garbage collections of a generation since the process started", "collections"),
    ("repro_gc_collected_total", "counter",
     "Objects the collections of a generation freed", "collected"),
    ("repro_gc_uncollectable_total", "counter",
     "Objects the collections of a generation found uncollectable", "uncollectable"),
)


def gc_stats():
    """``gc.get_stats()``: per generation (the list's index), its
    ``collections``, ``collected`` and ``uncollectable`` counts so far."""
    keys = ("collections", "collected", "uncollectable")
    return [{key: generation[key] for key in keys} for generation in gc.get_stats()]


@dataclass(slots=True)
class ServiceConfig:
    """Tunables for one service instance."""

    host: str = "127.0.0.1"
    port: int = 0
    workers: int = 8
    timeout: float = 30.0
    max_rows: int = 100_000
    max_bytes: int = 8 * 1024 * 1024
    plan_cache_size: int = 256
    result_cache_size: int = 1024
    #: When set, the HAM store is durable: commits are WAL-logged under
    #: this directory and the service recovers from it at startup.
    data_dir: str | None = None
    fsync: str = "interval"
    fsync_interval: float = 0.05
    checkpoint_every: int = 0
    #: When set, a telemetry HTTP endpoint (/metrics + /healthz) is
    #: served on this port from a side thread (0 = ephemeral).
    metrics_host: str = "127.0.0.1"
    metrics_port: int | None = None
    #: Requests slower than this many milliseconds are captured (with
    #: their span tree) into the slow-query log; None disables it.
    slow_ms: float | None = None
    slowlog_capacity: int = 128
    slowlog_path: str | None = None
    #: Head-based trace sampling rate in [0, 1]: this fraction of
    #: requests (deterministically, every 1/rate-th) runs under a full
    #: request span tree, recorded in the trace ring and exported to
    #: the span sink when one is configured.  Requests arriving with a
    #: trace context honor the *sender's* decision instead.
    trace_sample: float = 0.0
    #: JSONL file sampled traces are exported to (rotated at 16 MiB);
    #: None keeps traces ring-only.
    span_path: str | None = None
    #: ``"host:port"`` of a primary to replicate from.  The service
    #: becomes a read-only replica: it bootstraps and tails the primary
    #: and rejects writes with a ``read_only`` error.
    replica_of: str | None = None
    #: Long-poll bound (ms) the replica's tail requests ask the primary
    #: to wait when the replica is caught up.
    repl_wait_ms: int = 2000
    #: Replica lag (in store versions) beyond which ``/healthz`` turns
    #: 503; None disables lag-based health (connectivity still counts).
    repl_max_lag: int | None = None
    #: Seconds a replica may be without a successful tail poll before
    #: ``/healthz`` turns 503.  While disconnected the reported lag is
    #: the *last known* value, not the current one, so a dead tail must
    #: not hide behind a small stale lag; None disables the check.
    repl_disconnect_grace: float | None = 10.0
    #: How long (ms) a read carrying ``min_version`` may wait for this
    #: store to catch up before failing with ``replica_stale``.
    version_wait_ms: int = 2000
    #: Default per-subscription outbound queue bound and overflow
    #: policy (``resync`` or ``disconnect``); per-subscribe overrides
    #: via the ``queue_max``/``policy`` request fields.
    sub_queue_max: int = 256
    sub_policy: str = "resync"

    def __post_init__(self):
        from repro.subs import OVERFLOW_POLICIES

        if self.sub_policy not in OVERFLOW_POLICIES:
            raise ValueError(f"unknown overflow policy {self.sub_policy!r}")
        self.sub_queue_max = int(self.sub_queue_max)
        if self.sub_queue_max < 1:
            raise ValueError(f"subscription queue bound must be >= 1, got {self.sub_queue_max}")


def _wire_array(message, field):
    """The array *field* of *message*, empty when absent: anything else
    (a string would iterate as its characters) is a protocol error."""
    value = message.get(field)
    if value is None:
        return []
    if not isinstance(value, (list, tuple)):
        raise ProtocolError(f"{field!r} must be an array, got {value!r}")
    return value


def _wire_value(value, what):
    """*value*, a node, edge endpoint, label or ``source``: a JSON object
    or array is no value of the store."""
    if isinstance(value, (dict, list, tuple)):
        raise ProtocolError(f"{what} must be a string, number, boolean or null; got {value!r}")
    return value


def _wire_edge(entry):
    """A wire edge ``[source, label, target]`` in the store's argument
    order ``(source, target, label)``."""
    if not isinstance(entry, (list, tuple)) or len(entry) != 3:
        raise ProtocolError(f"edge entries are [source, label, target]; got {entry!r}")
    source, label, target = (_wire_value(value, "an edge's source, label or target")
                             for value in entry)
    return source, target, label


class QueryService:
    """The synchronous request executor over one :class:`HAMStore`."""

    def __init__(self, store=None, config=None, metrics=None):
        self.config = config or ServiceConfig()
        self.metrics = metrics or MetricsRegistry()
        self.durability = None
        if self.config.replica_of and self.config.data_dir:
            raise StoreError(
                "replica mode is incompatible with --data-dir: a replica's "
                "durable history is the primary's WAL, not its own"
            )
        if self.config.data_dir:
            from repro.persist import DurabilityManager, PersistenceConfig

            self.durability = DurabilityManager(
                PersistenceConfig(
                    self.config.data_dir,
                    fsync=self.config.fsync,
                    fsync_interval=self.config.fsync_interval,
                    checkpoint_every=self.config.checkpoint_every,
                ),
                metrics=self.metrics,
            )
            # Recovery happens before the caches/views attach below, so
            # every commit subscriber starts against the recovered graph.
            self.store = self.durability.recover(store=store)
        else:
            self.store = store if store is not None else HAMStore()
        # The store times its own commit phases (commit.stage /
        # commit.dispatch) into the same histograms as the request phases.
        self.store.metrics = self.metrics
        # Node identity: stable (persisted next to epoch.json) when durable,
        # random per boot otherwise.  It prefixes request ids so ids from
        # different nodes never collide in aggregated logs, tags every span
        # this node contributes to a distributed trace, and shows up in
        # stats / healthz / log records.
        self.node_id = obs.load_or_create_node_id(self.config.data_dir)
        logs.set_node_prefix(self.node_id)
        self.sampler = obs.RateSampler(self.config.trace_sample)
        self.span_sink = obs.SpanSink(self.config.span_path) if self.config.span_path else None
        self.plans = PreparedQueryCache(self.config.plan_cache_size)
        self.results = ResultCache(self.config.result_cache_size)
        self.traces = obs.TraceRing()
        self.slowlog = SlowQueryLog(
            threshold_ms=self.config.slow_ms,
            capacity=self.config.slowlog_capacity,
            path=self.config.slowlog_path,
        )
        # Per-predicate store statistics (fact counts, churn) are published
        # into the exposition registry as scrape-time collectors — no
        # bookkeeping on the request path.
        self.metrics.exposition.collector(self._store_families)
        # The store's relational image: built on the first evaluation that
        # reads relations, then advanced by commit deltas, and shared by
        # every plan (and subscription view) evaluated at a version.
        self.images = StoreImages(self.store)
        # The table of long-lived answers and the service's one commit hook:
        # shared maintained views, fanned out as delta frames over client
        # connections (docs/SUBSCRIPTIONS.md) and pinned by maintained
        # result-cache entries, then the result cache's own commit handling.
        # Works on replicas too — apply_replicated dispatches commit hooks,
        # so a replica is a natural fanout tier for watchers.
        from repro.subs import SubscriptionManager

        self.subs = SubscriptionManager(
            self.store,
            images=self.images,
            results=self.results,
            metrics=self.metrics,
            queue_max=self.config.sub_queue_max,
            policy=self.config.sub_policy,
        )
        self.metrics.exposition.collector(self.subs.metric_families)
        # Replication: every service can act as a replication source (an
        # in-memory primary serves tails from the store's retained log; a
        # durable one also serves bootstrap checkpoints and WAL history).
        # With replica_of set, a ReplicaApplier marks the store read-only
        # and keeps it converged with the primary; it is created here but
        # started by the network server (or explicitly, in tests).
        from repro.replication import ReplicaApplier, ReplicationSource

        self.replication = ReplicationSource(self.store, self.durability)
        self.applier = None
        if self.config.replica_of:
            from repro.replication.router import parse_address

            primary_host, primary_port = parse_address(self.config.replica_of)
            self.applier = ReplicaApplier(
                self.store,
                primary_host,
                primary_port,
                wait_ms=self.config.repl_wait_ms,
                traces=self.traces,
                sampler=self.sampler,
                node_id=self.node_id,
            )
            self.applier.on_rebootstrap(self._on_rebootstrap)
        # Promotion (repro promote) flips a replica into a writable primary
        # under a fresh epoch; the lock serializes concurrent promote ops.
        self._promote_lock = threading.Lock()
        self._promotion = None

    def _on_rebootstrap(self, *_args):
        """A re-bootstrap may regress the store version; every version-stamped
        cache must drop its entries or risk serving a *future* stamp as
        current."""
        self.results.clear()
        self.images.reset("rebootstrap")
        # Subscribers hold version-stamped materialized state; after a
        # regression they must be re-seeded, not fed deltas.  The pins the
        # cleared cache released are let go of their views here too.
        self.subs.resync_all()
        self.metrics.incr("replication.rebootstraps")

    # ------------------------------------------------------------- execute

    def execute(self, message, sink=None, wire=False, resident=False):
        """Execute one decoded request; returns the ``ok`` response body.

        Raises the service error taxonomy on failure; the caller (server
        or test) turns exceptions into failure responses.  *sink* is the
        connection's push-frame outlet (see :mod:`repro.subs`); only the
        ``subscribe``/``unsubscribe`` ops use it.  With *wire* (the network
        front) a query answer's body carries ``encoded``, the bytes of its
        ``result``, in place of the object, so the response line splices
        them; in-process callers get the object, decoded afresh.

        With *resident* (the event loop) a request runs only if it is a query
        whose plan and current answer are cached and whose ``min_version`` is
        reached — no compile, wait, evaluation or store lock; anything else
        returns None, having counted nothing, for a worker to take.

        Distributed tracing happens here: a request carrying a ``trace``
        context is *adopted* (its trace id becomes the correlation id and
        the sender's sampling decision is honored); without one, the local
        head sampler decides.  A sampled request runs under a full span
        tree that lands in the trace ring (queryable via ``trace_get``)
        and the span sink.
        """
        op = message.get("op")
        started = time.perf_counter()
        # Request context, the second argument of every op handler: the
        # phase samples, the push sink and *wire* go in; the handlers drop the
        # version, cache disposition, fingerprint and (when tracing ran)
        # the span tree in here so the finally block can build a slowlog
        # entry.
        ctx = {"phases": [], "sink": sink, "wire": wire}
        if resident:
            try:
                ctx["found"] = self._lookup(message, ctx, resident=True)
            except ReproError:  # not a query, invalid, or min_version not reached
                ctx["found"] = None
            if ctx["found"] is None:
                return None
        self.metrics.request_started()
        rid_token = None
        tc_token = None
        tc = trace_context.current()
        if tc is None:
            wire = message.get("trace")
            if wire is not None:
                tc = trace_context.TraceContext.from_wire(wire)
        # Every request runs under a correlation ID; the network server binds
        # one around this call, on the loop or in a worker (adopting the trace
        # id when the request carries a context), so this only assigns for
        # direct in-process callers (tests, benchmarks, the shell).
        if logs.get_request_id() is None:
            rid_token = logs.set_request_id(
                tc.trace_id if tc is not None else logs.new_request_id()
            )
        if tc is None and self.sampler.enabled and self.sampler.sample():
            # Locally-originated sampled trace: the request id doubles as
            # the trace id, so logs and the trace share one handle.
            tc = trace_context.TraceContext(logs.get_request_id(), None, True)
        if tc is not None:
            tc_token = trace_context.set_current(tc)
        tr = None
        try:
            if tc is not None and tc.sampled:
                with obs.tracing(
                    "request", context=tc, op=op, node=self.node_id
                ) as tr:
                    body = self._dispatch(op, message, ctx)
            else:
                body = self._dispatch(op, message, ctx)
            if tc is not None:
                body.setdefault("trace_id", tc.trace_id)
            return body
        finally:
            elapsed = time.perf_counter() - started
            elapsed_ms = elapsed * 1000.0
            self.metrics.request_completed(op, elapsed, ctx["phases"], resident)
            trace_id = tc.trace_id if tc is not None else logs.get_request_id()
            if tr is not None:
                ctx["trace"] = tr.root
                self._record_trace(op, elapsed_ms, ctx, trace_id)
            if self.slowlog.should_record(elapsed_ms):
                self._record_slow(op, elapsed_ms, ctx, trace_id)
                if tr is None and self.span_sink is not None and ctx.get("trace") is not None:
                    # Always-sample-on-slow: head sampling skipped this
                    # request, but the slowlog armed a trace on the miss
                    # path and it crossed the threshold — export it.
                    self._record_trace(op, elapsed_ms, ctx, trace_id, slow=True)
            if tc_token is not None:
                trace_context.reset_current(tc_token)
            if rid_token is not None:
                logs.reset_request_id(rid_token)

    def _dispatch(self, op, message, ctx):
        """Route one decoded request to its ``_op_<name>`` handler.

        Every handler takes ``(message, ctx)`` and returns the response
        body.  A ``cluster`` op this node keeps no slice of has no handler
        here: the router answers it.
        """
        protocol.op_spec(op)
        handler = getattr(self, "_op_" + op, None)
        if handler is None:
            raise ProtocolError(
                f"op {op!r} is answered by the router, not by a "
                "single node; send it to a repro route endpoint"
            )
        return handler(message, ctx)

    def _op_ping(self, _message, _ctx):
        return {"result": {"pong": True}, "version": self.store.version}

    def _op_stats(self, message, _ctx):
        include_histograms = message.get("include_histograms", False)
        if not isinstance(include_histograms, bool):
            raise ProtocolError(
                "'include_histograms' must be a boolean, "
                f"got {include_histograms!r}"
            )
        return {
            "result": self.stats(include_histograms=include_histograms),
            "version": self.store.version,
        }

    def _op_repl_bootstrap(self, _message, _ctx):
        return {"result": self.replication.bootstrap(), "version": self.store.version}

    def _op_promote(self, _message, _ctx):
        return {"result": self.promote(), "version": self.store.version}

    def _op_repl_tail(self, message, _ctx):
        from_version = message.get("from_version")
        if isinstance(from_version, bool) or not isinstance(from_version, int):
            raise ProtocolError(
                f"op 'repl_tail' needs an integer 'from_version', got {from_version!r}"
            )
        body = self.replication.tail(
            from_version,
            max_records=message.get("max_records"),
            wait_ms=message.get("wait_ms", 0),
        )
        return {"result": body, "version": self.store.version}

    def _op_subscribe(self, message, ctx):
        """Register a live subscription; the response carries the initial
        snapshot, subsequent ``delta`` frames arrive through the sink."""
        sink = ctx["sink"]
        if sink is None:
            raise SubscriptionError(
                "subscriptions need a streaming connection; this entry point "
                "has no push channel"
            )
        allow_fallback = message.get("allow_fallback", False)
        if not isinstance(allow_fallback, bool):
            raise ProtocolError(
                f"'allow_fallback' must be a boolean, got {allow_fallback!r}"
            )
        target = message.get("target", "graphlog")
        text, params = self._query_request(message, target)
        plan = self.plans.get(target, text)
        sub, snapshot, version = self.subs.subscribe(
            plan,
            params,
            sink,
            queue_max=message.get("queue_max"),
            policy=message.get("policy"),
            allow_fallback=allow_fallback,
        )
        view = sub.view
        return {
            "result": {
                "subscription": sub.id,
                "snapshot": protocol.relations_to_wire(snapshot),
                "predicates": sorted(snapshot),
                "mode": view.mode,
                "fallback_reason": view.fallback_reason,
                "policy": sub.policy,
                "queue_max": sub.queue_max,
            },
            "version": version,
        }

    def _op_unsubscribe(self, message, ctx):
        sink = ctx["sink"]
        sub_id = message.get("subscription")
        if isinstance(sub_id, bool) or not isinstance(sub_id, int):
            raise ProtocolError(
                f"op 'unsubscribe' needs an integer 'subscription', got {sub_id!r}"
            )
        if sink is None:
            raise SubscriptionError(
                "unsubscribe must arrive on the subscription's own connection"
            )
        self.subs.unsubscribe(sub_id, sink)
        return {
            "result": {"unsubscribed": sub_id},
            "version": self.store.version,
        }

    def promote(self):
        """Flip this replica into a writable primary under a fresh epoch.

        An *operator* action (``repro promote``), not a consensus protocol:
        the caller is asserting the old primary is dead (or fenced off).
        Ordering matters — the tail applier is stopped before anything
        else, so no replicated record can land mid-promotion; a fresh epoch
        is minted *before* writes are accepted, so the very first
        post-promotion commit is already on the new history line and every
        downstream consumer (tailing replicas of this server, the rejoining
        old primary) re-bootstraps off version arithmetic it cannot trust.
        """
        with self._promote_lock:
            if self.applier is None:
                raise ProtocolError(
                    "cannot promote: this server is not a replica"
                    + (
                        f" (already promoted from {self._promotion['promoted_from']})"
                        if self._promotion
                        else ""
                    )
                )
            applier = self.applier
            old_primary = applier.primary_address
            applier.stop()
            self.applier = None
            epoch = new_epoch()
            self.store.set_epoch(epoch)
            self.store.set_read_only(False)
            self.config.replica_of = None
            self._promotion = {
                "promoted": True,
                "promoted_from": old_primary,
                "applied_version": self.store.version,
                "epoch": epoch,
            }
            self.metrics.incr("replication.promotions")
            logger.warning(
                "promoted to primary at version %d under epoch %s "
                "(was replicating from %s)",
                self.store.version,
                epoch,
                old_primary,
            )
            return dict(self._promotion)

    def _await_min_version(self, message, wait=True):
        """Session-consistency gate: a read carrying ``min_version`` waits
        (bounded) for this store to reach it, else fails ``replica_stale``
        so a router can redirect — read-your-writes through replicas.  With
        *wait* false (the event loop) it fails at once, uncounted."""
        min_version = message.get("min_version")
        if min_version is None or min_version <= self.store.version:
            return
        if not wait:
            raise ReplicaStale(f"store has not reached version {min_version}")
        wait_ms = self.config.version_wait_ms or 0
        if not self.store.wait_for_version(min_version, wait_ms / 1000.0):
            self.metrics.incr("replication.stale_reads")
            raise ReplicaStale(
                f"store is at version {self.store.version}, read requires "
                f"{min_version} (waited {wait_ms}ms)"
            )

    def _query_request(self, message, target, wait=True):
        """``(text, params)`` of a request that names a query in language
        *target*, once the store has reached the request's ``min_version``."""
        if target not in QUERY_OPS:
            raise ProtocolError(
                f"'target' must be one of {', '.join(QUERY_OPS)}, got {target!r}"
            )
        text = message.get("query")
        if not isinstance(text, str) or not text.strip():
            raise ProtocolError(
                f"op {message['op']!r} needs a non-empty 'query' string"
            )
        _wire_value(message.get("source"), "'source'")
        self._await_min_version(message, wait)
        return text, {k: message[k] for k in _PARAM_FIELDS if message.get(k) is not None}

    def _lookup(self, message, ctx, resident=False):
        """``(plan, params, key, found)`` of a query request: its plan and the
        cache's :meth:`~repro.service.cache.ResultCache.lookup` of its answer
        at ``store.version``, read without the store lock.  A worker waits
        for a dispatch its maintained entry is behind; *resident* (the event
        loop) never waits, compiles or counts a miss, and is None where a
        worker must go on (or raises ``replica_stale`` for a ``min_version``
        not yet reached)."""
        op = message["op"]
        text, params = self._query_request(message, op, wait=not resident)
        # Phase samples collect into ctx's phases and land in the registry in
        # one batch with the request's closing bookkeeping — the hot path
        # pays perf_counter reads here, never extra lock acquisitions.
        t0 = time.perf_counter()
        plan = self.plans.get(op, text, prepare=not resident)
        if plan is None:
            return None
        t1 = time.perf_counter()
        key = result_key(plan.fingerprint, params)
        ctx["version"] = self.store.version
        wait = None if resident else lambda v: self.store.wait_dispatched(v, _DISPATCH_WAIT_S)
        found = self.results.lookup(key, ctx["version"], wait)
        if resident:
            if not isinstance(found, Entry):
                return None
            self.plans.count_hit()
        ctx["fingerprint"] = plan.fingerprint
        ctx["phases"] += [("plan", t1 - t0), ("cache_lookup", time.perf_counter() - t1)]
        return plan, params, key, found

    def _op_query(self, message, ctx):
        plan, params, key, found = ctx.get("found") or self._lookup(message, ctx)
        op = message["op"]
        phases = ctx["phases"]
        max_rows = message.get("max_rows", self.config.max_rows)
        max_bytes = message.get("max_bytes", self.config.max_bytes)
        entry = found if isinstance(found, Entry) else None
        if entry is not None:
            self.metrics.incr("result_cache.hits")
            ctx["cache"] = "hit"
        else:
            self.metrics.incr("result_cache.misses")
            ctx["cache"] = "miss"
            t2 = time.perf_counter()
            # Only a miss needs the graph, so only a miss takes the store
            # lock; it evaluates, and stores its answer, at that snapshot.
            version, graph = self.store.snapshot_versioned()
            ctx["version"] = version
            # Only the miss path is traced: a cache hit does no evaluation
            # work, so it cannot be meaningfully slow, and tracing it would
            # tax the ~12µs hot path the result cache exists to protect.
            with self._work_span(
                ctx, op, "evaluate", version=version, fingerprint=plan.fingerprint
            ):
                image = self._edb_for(plan, version, graph, params, phases)
                if found is PROMOTE:
                    # The first miss after a commit made this answer stale: it
                    # becomes a maintained entry, evaluated once, by its
                    # view's refresh (and encoded with it) — if it has one.
                    entry = self.subs.pin(plan, params)
                if entry is None:
                    answer = plan.evaluate(graph, image, params)
            t3 = time.perf_counter()
            phases.append(("evaluate", t3 - t2))
            if entry is None:
                # A refused answer is never serialised; an accepted one once,
                # straight from the rows evaluation left, into the bytes
                # max_bytes measures, the entry holds and lines carry.
                self._check_budgets(sum(map(len, answer.relations.values())), max_rows)
                encoded, total = protocol.encode_answer(*answer)
                phases.append(("encode", time.perf_counter() - t3))
        if entry is not None:
            ctx["version"] = entry.version
            encoded, total = entry.encoded, entry.count
        self._check_budgets(total, max_rows, len(encoded), max_bytes)
        if entry is None:
            self.results.put(key, encoded, total, version, plan.footprint)
        # Spliced into a network line; decoded afresh for each in-process call.
        field, value = ("encoded", encoded) if ctx["wire"] else ("result", json.loads(encoded))
        return {field: value, "version": ctx["version"], "cache": ctx["cache"]}

    _op_graphlog = _op_datalog = _op_rpq = _op_query

    @contextmanager
    def _work_span(self, ctx, op, name, **attrs):
        """Run a request's real work (evaluation, commit) under a span.

        A sampled request already runs under the request-level tracer, so
        the span nests there instead of starting a second tree; otherwise
        an armed slowlog collects a tree of its own (rooted at *op*) into
        ``ctx["trace"]``; otherwise nothing is traced.
        """
        active = obs.tracer()
        if active.enabled:
            with active.span(name, **attrs):
                yield
        elif self.slowlog.enabled:
            with obs.tracing(op, **attrs) as tr:
                with tr.span(name):
                    yield
            ctx["trace"] = tr.root
        else:
            yield

    def _op_explain(self, message, _ctx):
        """Run a query under full tracing; returns the span tree, not rows.

        Both caches are bypassed: a fresh plan is prepared so the trace
        covers parse/translate/safety/stratify, and evaluation always runs
        so the trace covers the engine's per-stratum iterations.  The trace
        is recorded in the bounded ring (``stats`` reports ring occupancy)
        and returned inline; ``explain`` adds the rendered ASCII tree,
        ``profile`` returns just the structured form.
        """
        target = message.get("target", "graphlog")
        text, params = self._query_request(message, target)
        version, graph = self.store.snapshot_versioned()
        # explain always traces, whatever the sampler said; when the request
        # carries a distributed context, link this tree under the request's
        # root span so trace_get finds it as part of the same trace.
        ambient = trace_context.current()
        nested = None
        if ambient is not None:
            request_tracer = obs.tracer()
            parent = (
                request_tracer.root.span_id
                if request_tracer.enabled and request_tracer.root is not None
                else ambient.parent_span_id
            )
            nested = trace_context.TraceContext(
                ambient.trace_id, parent, ambient.sampled
            )
        with obs.tracing("explain", context=nested, target=target, version=version) as tr:
            plan = PreparedQuery(target, text)
            with tr.span("evaluate"):
                image = self._edb_for(plan, version, graph, params)
                answer = plan.evaluate(graph, image, params)
            with tr.span("encode") as enc:
                enc.annotate(bytes=len(protocol.encode_answer(*answer)[0]))
        relations = answer.relations
        root = tr.root
        phases = {child.name: child.elapsed_ms for child in root.children}
        for name, elapsed_ms in phases.items():
            self.metrics.observe_phase(f"explain.{name}", elapsed_ms / 1000.0)
        trace = root.to_dict()
        self.traces.record(
            {
                "target": target,
                "fingerprint": plan.fingerprint,
                "version": version,
                "elapsed_ms": root.elapsed_ms,
                "trace_id": ambient.trace_id if ambient else logs.get_request_id(),
                "request_id": logs.get_request_id(),
                "node_id": self.node_id,
                "trace": trace,
            }
        )
        result = {
            "count": sum(len(rows) for rows in relations.values()),
            "relations": {name: len(rows) for name, rows in sorted(relations.items())},
            "phases": phases,
            "trace": trace,
        }
        if message["op"] == "explain":
            result["text"] = root.render().rstrip()
        return {"result": result, "version": version, "cache": "bypass"}

    _op_profile = _op_explain

    def _op_checkpoint(self, _message, _ctx):
        """Force a durability checkpoint (snapshot + WAL pruning)."""
        if self.durability is None:
            raise ProtocolError(
                "service has no durability; start the server with --data-dir"
            )
        info = self.durability.checkpoint()
        self.metrics.incr("checkpoints.requested")
        return {"result": info, "version": self.store.version}

    def _op_slowlog(self, message, _ctx):
        """Return the most recent slow-query records (newest first)."""
        return {
            "result": {
                "entries": self.slowlog.snapshot(message.get("limit")),
                "stats": self.slowlog.stats(),
            },
            "version": self.store.version,
        }

    def _record_slow(self, op, elapsed_ms, ctx, trace_id=None):
        """Capture one over-threshold request into the slow-query log."""
        entry = {
            "request_id": logs.get_request_id(),
            "trace_id": trace_id,
            "op": op,
            "elapsed_ms": round(elapsed_ms, 3),
            "threshold_ms": self.slowlog.threshold_ms,
            "version": ctx.get("version"),
            "cache": ctx.get("cache"),
            "fingerprint": ctx.get("fingerprint"),
        }
        root = ctx.get("trace")
        if root is not None:
            entry["trace"] = root.to_dict()
        self.slowlog.record(entry)
        self.metrics.incr("slowlog.recorded")
        logger.warning(
            "slow %s request took %.1fms (threshold %.1fms)",
            op,
            elapsed_ms,
            self.slowlog.threshold_ms,
            extra={"op": op, "elapsed_ms": round(elapsed_ms, 3)},
        )

    def _record_trace(self, op, elapsed_ms, ctx, trace_id, slow=False):
        """Land one finished span tree.  A sampled request's goes to the
        trace ring (for ``trace_get``) plus the span sink when configured;
        the slowlog-armed tree of an *unsampled* slow request (*slow*) is
        only exported."""
        extra = {"version": ctx.get("version")}
        if slow:
            extra["slow"] = True
            self.metrics.incr("trace.slow_sampled")
        entry = obs.trace_entry(
            ctx["trace"],
            trace_id,
            self.node_id,
            op,
            request_id=logs.get_request_id(),
            elapsed_ms=elapsed_ms,
            **extra,
        )
        if not slow:
            self.traces.record(entry)
            self.metrics.incr("trace.sampled")
        if self.span_sink is not None:
            exported = self.span_sink.export(entry)
            self.metrics.incr("trace.exported" if exported else "trace.export_errors")

    def _op_trace_get(self, message, _ctx):
        """Return this node's spans for one trace id.

        Primary source is the bounded trace ring; when the ring has
        evicted the id, fall back to the slow-query log (whose entries
        carry their request's trace id and span tree) so slow traces stay
        reachable longer than the ring's churn window.
        """
        trace_id = message.get("trace_id")
        if not isinstance(trace_id, str) or not trace_id:
            raise ProtocolError(
                f"op 'trace_get' needs a non-empty 'trace_id' string, got {trace_id!r}"
            )
        spans = []
        source = None
        for entry in self.traces.find(trace_id):
            entry_spans = entry.get("spans")
            if entry_spans is None and entry.get("trace") is not None:
                entry_spans = obs.flatten_span_tree(
                    entry["trace"], node_id=self.node_id
                )
            spans.extend(entry_spans or [])
        if spans:
            source = "ring"
        else:
            for entry in self.slowlog.snapshot():
                if trace_id in (entry.get("trace_id"), entry.get("request_id")):
                    root = entry.get("trace")
                    if root is not None:
                        spans.extend(
                            obs.flatten_span_tree(root, node_id=self.node_id)
                        )
                        source = "slowlog"
        return {
            "result": {
                "trace_id": trace_id,
                "node_id": self.node_id,
                "found": bool(spans),
                "source": source,
                "spans": spans,
            },
            "version": self.store.version,
        }

    def _op_update(self, message, ctx):
        if self.store.read_only:
            primary = self.applier.primary_address if self.applier else None
            hint = f"; send writes to the primary at {primary}" if primary else ""
            raise ReadOnlyError(
                f"this service is a read-only replica{hint}", primary=primary
            )
        nodes = _wire_array(message, "nodes")
        edges = _wire_array(message, "edges")
        remove_nodes = _wire_array(message, "remove_nodes")
        remove_edges = _wire_array(message, "remove_edges")
        if not nodes and not edges and not remove_nodes and not remove_edges:
            raise ProtocolError(
                "op 'update' needs 'nodes', 'edges', 'remove_nodes' and/or "
                "'remove_edges'"
            )
        with self._work_span(
            ctx, "update", "commit", nodes=len(nodes), edges=len(edges)
        ):
            self._apply_update(nodes, edges, remove_nodes, remove_edges)
        ctx["version"] = self.store.version
        self.metrics.incr("updates.committed")
        result = {"added_nodes": len(nodes), "added_edges": len(edges)}
        if remove_nodes or remove_edges:
            result["removed_nodes"] = len(remove_nodes)
            result["removed_edges"] = len(remove_edges)
        return {"result": result, "version": self.store.version}

    def _apply_update(self, nodes, edges, remove_nodes=(), remove_edges=()):
        session = self.store.session()
        with session.transaction() as txn:
            for entry in nodes:
                if isinstance(entry, (list, tuple)):
                    if not 1 <= len(entry) <= 2:
                        raise ProtocolError(
                            f"node entries are value or [value, label]; got {entry!r}"
                        )
                    node = entry[0]
                    label = entry[1] if len(entry) == 2 else None
                else:
                    node, label = entry, None
                txn.add_node(_wire_value(node, "a node"), _wire_value(label, "a node label"))
            for entry in edges:
                txn.add_edge(*_wire_edge(entry))
            # Removals after additions, so one transaction can atomically
            # replace an edge (add the new one, drop the old).
            for entry in remove_edges:
                txn.remove_edge(*_wire_edge(entry))
            for entry in remove_nodes:
                txn.remove_node(_wire_value(entry, "a remove_nodes entry"))

    # -------------------------------------------------------------- helpers

    @staticmethod
    def _check_budgets(rows, max_rows, encoded_size=None, max_bytes=None):
        if max_rows is not None and rows > max_rows:
            raise ResultTooLarge(f"result has {rows} rows, limit is {max_rows}")
        if max_bytes is not None and encoded_size > max_bytes:
            raise ResultTooLarge(
                f"result encodes to {encoded_size} bytes, limit is {max_bytes}"
            )

    def _edb_for(self, plan, version, graph, params, phases=None):
        """The store image *plan* evaluates against under *params*
        (:meth:`PreparedQuery.image`).  Phase ``edb`` (part of
        ``evaluate``) times the graph → database bridge: a lookup, a fold,
        or a build."""
        started = time.perf_counter()
        with obs.span("edb", version=version):
            image = plan.image(self.images, version, graph, params)
        if phases is not None:
            phases.append(("edb", time.perf_counter() - started))
        return image

    def stats(self, include_histograms=False):
        result_cache = self.results.stats()
        # Mirror the counters kept outside the request path into the metrics
        # registry so one snapshot carries them alongside request counters.
        self.metrics.set_counter(
            "result_cache.delta_reuse_hits", result_cache["delta_reuse_hits"]
        )
        store_stats = self.store.stats()
        self.metrics.set_counter(
            "store.subscriber_failures", store_stats["subscriber_failures"]
        )
        traces = self.traces.stats()
        traces["sample_rate"] = self.sampler.rate
        if self.span_sink is not None:
            traces["sink"] = self.span_sink.stats()
        stats = {
            "node_id": self.node_id,
            "metrics": self.metrics.snapshot(include_histograms=include_histograms),
            "plan_cache": self.plans.stats(),
            "result_cache": result_cache,
            "traces": traces,
            "slowlog": self.slowlog.stats(),
            "store": store_stats,
            "edb": self.images.stats(),
            "replication": self.replication_status(),
            "subs": self.subs.stats(),
            "gc": gc_stats(),
        }
        return stats

    def replication_status(self):
        """One document describing this node's replication role.

        A replica reports its applier state (``role: replica``, applied
        version, lag) with the local tail-serving counters nested under
        ``source``; a primary reports the source counters directly.
        """
        source = self.replication.stats()
        if self.applier is None:
            if self._promotion is not None:
                source = dict(source)
                source["promotion"] = dict(self._promotion)
            return source
        status = self.applier.status()
        status["source"] = source
        return status

    def health(self):
        """The ``/healthz`` document: ``status`` is ``"ok"`` or ``"degraded"``.

        Degraded means the durability layer reports trouble — it is closed
        (writes would fail) or recovery truncated a torn WAL tail.  A
        purely in-memory service is always ok.
        """
        doc = {
            "status": "ok",
            "node_id": self.node_id,
            "version": self.store.version,
            "in_flight": self.metrics.in_flight,
        }
        if self.durability is not None:
            info = self.durability.health_info()
            doc["durability"] = info
            if not info["ok"]:
                doc["status"] = "degraded"
        if self.applier is not None:
            status = self.applier.status()
            doc["replication"] = status
            max_lag = self.config.repl_max_lag
            lag = status["lag_versions"]
            if not status["bootstrapped"]:
                doc["status"] = "degraded"
            elif max_lag is not None and (lag is None or lag > max_lag):
                doc["status"] = "degraded"
            if not status["tail_connected"]:
                # While the tail is down, lag_versions is the *last known*
                # lag — the primary may be racing ahead (or be gone).  A
                # short blip is tolerated; past the grace period the
                # replica can no longer vouch for its own staleness.
                grace = self.config.repl_disconnect_grace
                seconds = status["seconds_since_poll"]
                if grace is not None and (seconds is None or seconds > grace):
                    doc["status"] = "degraded"
        return doc

    def prometheus_text(self):
        """The full exposition document served at ``/metrics``."""
        return self.metrics.render_prometheus()

    def _store_families(self):
        """Scrape-time collector: per-predicate store statistics, store
        size gauges and replication role/lag/throughput."""
        store = self.store.stats(top_predicates=None)
        predicates = [
            ({"predicate": name}, info) for name, info in sorted(store["predicates"].items())
        ]
        edb = self.images.stats()
        families = [
            *table_families(_PREDICATE_FAMILIES, predicates),
            *table_families(_STORE_FAMILIES, [(None, store)]),
            *table_families(_RESULT_CACHE_FAMILIES, [(None, self.results.stats())]),
            *table_families(_EDB_FAMILIES, [(None, edb)], missing=-1),
            *table_families(
                _EDB_FALLBACK_FAMILIES,
                [({"reason": r}, {"count": n}) for r, n in sorted(edb["fallbacks"].items())],
            ),
            *table_families(_REPL_SOURCE_FAMILIES, [(None, self.replication.stats())]),
            *table_families(
                _GC_FAMILIES,
                [({"generation": str(g)}, doc) for g, doc in enumerate(gc_stats())],
            ),
            MetricFamily(
                "repro_repl_epoch",
                "gauge",
                "The replication epoch naming this store's history line",
            ).add_sample(1, {"epoch": self.store.epoch}),
            MetricFamily(
                "repro_repl_promoted",
                "gauge",
                "1 once this server has been promoted from replica to primary",
            ).add_sample(1 if self._promotion is not None else 0),
        ]
        if self.applier is not None:
            status = [(None, self.applier.status())]
            families += table_families(_REPL_APPLIER_FAMILIES, status, missing=-1)
        return families

    def close(self):
        """Stop replication, detach the commit hook, and flush/close
        durability (idempotent)."""
        if self.applier is not None:
            self.applier.stop()
        self.subs.close()
        if self.durability is not None:
            self.durability.close()


class _ConnectionSink:
    """One connection's push outlet: commit threads poke it thread-safely,
    the connection's sender task wakes and drains the subscription queues."""

    __slots__ = ("_loop", "event")

    def __init__(self, loop):
        self._loop = loop
        self.event = asyncio.Event()

    def notify(self):
        try:
            self._loop.call_soon_threadsafe(self.event.set)
        except RuntimeError:  # pragma: no cover - loop already closed
            pass


class ServiceServer:
    """Asyncio JSON-lines TCP front for a :class:`QueryService`."""

    def __init__(self, service=None, store=None, config=None):
        self.config = config or (service.config if service else ServiceConfig())
        self.service = service or QueryService(store=store, config=self.config)
        self._server = None
        self._executor = None
        self._thread = None
        self._loop = None
        self._telemetry = None
        self.host = self.config.host
        self.port = self.config.port
        #: Bound telemetry port once started (None when not configured).
        self.metrics_port = None

    # --------------------------------------------------------------- async

    async def start(self):
        self._executor = ThreadPoolExecutor(
            max_workers=self.config.workers, thread_name_prefix="repro-service"
        )
        self._server = await asyncio.start_server(
            self._handle_connection,
            host=self.config.host,
            port=self.config.port,
            limit=protocol.MAX_REQUEST_BYTES,
        )
        self.host, self.port = self._server.sockets[0].getsockname()[:2]
        if self.config.metrics_port is not None and self._telemetry is None:
            from repro.obs.export import TelemetryHTTPServer

            self._telemetry = TelemetryHTTPServer(
                self.service.prometheus_text,
                self.service.health,
                host=self.config.metrics_host,
                port=self.config.metrics_port,
            ).start()
            self.metrics_port = self._telemetry.port
        applier = self.service.applier
        if applier is not None and not applier.running:
            applier.start()
        return self

    async def serve_forever(self):
        if self._server is None:
            await self.start()
        async with self._server:
            await self._server.serve_forever()

    async def aclose(self):
        if self._telemetry is not None:
            self._telemetry.stop()
            self._telemetry = None
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        if self._executor is not None:
            # cancel_futures: requests still queued behind the workers must
            # not start executing after shutdown — a late-running execute()
            # would decrement in_flight on a registry the service considers
            # quiesced, dragging the gauge below zero.
            self._executor.shutdown(wait=False, cancel_futures=True)
            self._executor = None

    async def _handle_connection(self, reader, writer):
        # Every connection gets a push sink and a sender task: request
        # handling stays a serial read→execute→respond loop, while delta
        # frames (enqueued by commit threads) are drained and written
        # whenever the sink is poked.  Each frame/response is written with
        # a single write() call — no await between encode and write — so
        # the two writers can never interleave inside one JSON line.
        sink = _ConnectionSink(asyncio.get_running_loop())
        sender = asyncio.create_task(self._send_frames(sink, writer))
        try:
            while True:
                try:
                    line = await reader.readline()
                except (ValueError, asyncio.LimitOverrunError):
                    writer.write(
                        protocol.encode(
                            protocol.error_response(
                                None, ProtocolError("request line too long")
                            )
                        )
                    )
                    await writer.drain()
                    break
                if not line:
                    break
                if not line.strip():
                    continue
                response, encoded = await self._handle_request(line, sink)
                responding = time.perf_counter()
                writer.write(protocol.encode_response(response, encoded))
                await writer.drain()
                self.service.metrics.observe_phase(
                    "respond", time.perf_counter() - responding
                )
        except (ConnectionResetError, BrokenPipeError):
            pass
        except asyncio.CancelledError:
            # Shutdown cancels in-flight handler tasks (a replica's tail
            # long-poll is routinely parked here); finishing normally keeps
            # asyncio's connection callback from logging the cancellation.
            pass
        finally:
            sender.cancel()
            try:
                await sender
            except asyncio.CancelledError:
                pass
            self.service.subs.drop_sink(sink)
            writer.close()
            try:
                await writer.wait_closed()
            except (
                ConnectionResetError,
                BrokenPipeError,
                asyncio.CancelledError,
            ):  # pragma: no cover
                pass

    async def _send_frames(self, sink, writer):
        """Drain-and-write loop for one connection's push frames."""
        try:
            while True:
                await sink.event.wait()
                sink.event.clear()
                frames, disconnect = self.service.subs.drain(sink)
                for frame in frames:
                    writer.write(protocol.encode(frame))
                if frames:
                    await writer.drain()
                if disconnect:
                    # The 'disconnect' overflow policy: the closed frame has
                    # been written; drop the connection.
                    writer.close()
                    return
        except (ConnectionResetError, BrokenPipeError):
            pass

    async def _handle_request(self, line, sink=None):
        """``(response, encoded)``: the response to one request line and, for
        a query answer, the already-encoded bytes of its ``result``."""
        request_id = None
        started = time.perf_counter()
        try:
            message = protocol.decode_request(line)
            request_id = message.get("id")
            timeout = message.get("timeout", self.config.timeout)
            # The correlation ID is minted on the event loop and bound around
            # each execute call — here, and inside the worker closure, since
            # contextvars do not propagate into run_in_executor threads on
            # their own.  A request carrying a trace context is *adopted*:
            # its trace id becomes the correlation id instead of a freshly
            # minted one, so one grep follows the request across every node
            # it touched.
            trace_doc = message.get("trace")
            if isinstance(trace_doc, dict) and trace_doc.get("trace_id"):
                rid = trace_doc["trace_id"]
            else:
                rid = logs.new_request_id()

            def run(resident=False):
                token = logs.set_request_id(rid)
                try:
                    if not resident:
                        # Time spent queued behind busy workers, measured from
                        # the worker thread the moment it picks the request up.
                        self.service.metrics.observe_phase(
                            "queue_wait", time.perf_counter() - submitted
                        )
                    return self.service.execute(message, sink=sink, wire=True, resident=resident)
                finally:
                    logs.reset_request_id(token)

            # A resident answer is served right here, on the loop; everything
            # else goes to a worker, and only that wait is bounded by *timeout*.
            body = run(resident=True) if message["op"] in QUERY_OPS else None
            if body is None:
                submitted = time.perf_counter()
                future = asyncio.get_running_loop().run_in_executor(self._executor, run)
                try:
                    body = await asyncio.wait_for(future, timeout)
                except asyncio.TimeoutError:
                    self.service.metrics.incr("errors.timeout")
                    raise QueryTimeout(f"request exceeded its {timeout}s deadline") from None
            elapsed_ms = (time.perf_counter() - started) * 1000.0
            response = protocol.ok_response(
                request_id,
                body.get("result"),
                version=body.get("version"),
                elapsed_ms=elapsed_ms,
                cache=body.get("cache"),
                trace_id=body.get("trace_id"),
            )
            return response, body.get("encoded")
        except ReproError as exc:
            if not isinstance(exc, QueryTimeout):
                self.service.metrics.incr(f"errors.{getattr(exc, 'code', 'evaluation')}")
            return protocol.error_response(getattr(exc, "request_id", request_id), exc), None
        except Exception as exc:  # noqa: BLE001 — a serving loop must not die
            self.service.metrics.incr("errors.internal")
            return protocol.error_response(request_id, exc), None

    # ----------------------------------------------------------- threading

    def start_background(self):
        """Run the server on a dedicated event-loop thread; returns self.

        ``self.port`` is the bound port once this returns.  Stop with
        :meth:`stop`.
        """
        if self._thread is not None:
            raise RuntimeError("server already running")
        ready = threading.Event()
        failure = []

        def runner():
            loop = asyncio.new_event_loop()
            asyncio.set_event_loop(loop)
            self._loop = loop
            try:
                loop.run_until_complete(self.start())
            except Exception as exc:  # pragma: no cover - bind errors
                failure.append(exc)
                ready.set()
                return
            ready.set()
            try:
                loop.run_forever()
            finally:
                loop.run_until_complete(self.aclose())
                pending = asyncio.all_tasks(loop)
                for task in pending:
                    task.cancel()
                if pending:
                    loop.run_until_complete(
                        asyncio.gather(*pending, return_exceptions=True)
                    )
                loop.close()

        self._thread = threading.Thread(
            target=runner, name="repro-service-server", daemon=True
        )
        self._thread.start()
        ready.wait()
        if failure:
            self._thread = None
            raise failure[0]
        return self

    def stop(self):
        """Stop a background server started with :meth:`start_background`."""
        if self._thread is None:
            return
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=10)
        self._thread = None
        self._loop = None
        self.service.close()
