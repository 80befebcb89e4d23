"""The subscription manager: shared views, delta fanout, backpressure.

Threading model: commits dispatch store hooks *outside* the store lock, so
two commits' hooks can reach :meth:`SubscriptionManager._on_commit` out of
order.  The manager serializes through its own lock and an applied-version
watermark: an in-order record is applied directly, a gap is filled from
``store.records_since`` (which returns the retained log in version order),
and a hook arriving late for an already-applied version returns without
work.  Every mutation of view state and subscription queues happens under
the manager lock; delivery happens on the connection's sender task, which
calls :meth:`SubscriptionManager.drain` after being poked through the
sink's ``notify()``.

A *sink* is the manager's handle for one client connection: any object
usable as a dict key with a ``notify()`` method that is safe to call from
commit threads.  The network server backs it with
``loop.call_soon_threadsafe``; tests use a plain object with an event.
"""

from __future__ import annotations

import logging
import threading
import time

from repro import obs
from repro.core.translate import DOMAIN_PREDICATE
from repro.obs import context as trace_context
from repro.errors import NotMaintainable, ProtocolError, SubscriptionError
from repro.ham.image import StoreImages
from repro.obs.metrics import HistogramData, MetricFamily
from repro.service import protocol
from repro.service.cache import result_key

logger = logging.getLogger(__name__)

#: Queue-overflow policies.  ``resync`` drops the queued deltas and marks
#: the subscription so its next frame is a fresh snapshot at the current
#: version (the client replaces its state wholesale — nothing is silently
#: skipped); ``disconnect`` sends a ``closed`` frame and drops the
#: connection.
OVERFLOW_POLICIES = ("resync", "disconnect")

#: Domain predicate for datalog-backed views.  Datalog requests evaluate
#: against the raw EDB (no active-domain injection), so the maintained view
#: must refcount the domain under a name no user program can reference —
#: injecting under ``node`` would diverge from the request path whenever a
#: program mentions that predicate.
_DATALOG_DOMAIN = "\x00dom"


def view_key(plan, params):
    """The shared-view registry key: plan fingerprint + result-shaping
    params.  ``method`` is excluded — backends are differentially tested to
    produce identical answers, so subscribers asking through different
    engines share one view (and one maintenance pass)."""
    shaped = {k: v for k, v in (params or {}).items() if k != "method"}
    return result_key(plan.fingerprint, shaped)


class SharedView:
    """One refcounted materialized result, shared by all subscribers to the
    same (plan, params).

    ``mode`` is ``"maintained"`` (a :class:`~repro.ham.views.MaterializedView`
    updated by the counting/DRed engine; the per-commit delta is read off
    :class:`~repro.datalog.dred.MaintenanceStats`) or ``"diff"`` (the
    documented fallback for non-maintainable queries: re-evaluate on
    relevant commits and set-diff against the previous answer).
    """

    __slots__ = (
        "key",
        "plan",
        "eval_params",
        "mode",
        "fallback_reason",
        "view",
        "predicates",
        "rows",
        "version",
        "refcount",
        "subs",
        "maintenance_passes",
        "diff_refreshes",
        "deltas_emitted",
        "skipped_empty",
        "maintenance_errors",
    )

    def __init__(self, key, plan, params):
        from repro.ham.views import MaterializedView

        self.key = key
        self.plan = plan
        self.eval_params = dict(params or {})
        self.mode = "diff"
        self.fallback_reason = None
        self.view = None
        self.predicates = ()
        self.rows = {}
        self.version = -1
        self.refcount = 0
        self.subs = set()
        self.maintenance_passes = 0
        self.diff_refreshes = 0
        self.deltas_emitted = 0
        self.skipped_empty = 0
        self.maintenance_errors = 0

        if plan.op == "rpq":
            self.fallback_reason = (
                "rpq answers are computed by automaton search, not by a "
                "maintainable Datalog view"
            )
        elif plan.has_summaries:
            self.fallback_reason = "aggregation/summarization is not maintainable"
        else:
            domain = DOMAIN_PREDICATE if plan.op == "graphlog" else _DATALOG_DOMAIN
            view = MaterializedView(
                f"sub:{plan.fingerprint[:12]}",
                plan.graphical,
                domain_predicate=domain,
                program=plan.program,
            )
            if view.maintainable:
                self.mode = "maintained"
                self.view = view
                self.predicates = plan._requested_predicates(self.eval_params)
            else:
                self.fallback_reason = view.fallback_reason

    @property
    def footprint(self):
        return self.plan.footprint

    def refresh(self, version, graph, image):
        """(Re)materialize from scratch at *version*, from the store's
        relational *image* of it."""
        if self.mode == "maintained":
            self.view.refresh_full(image.database)
            self.rows = {p: set(self.view.state.facts(p)) for p in self.predicates}
        else:
            result = self.plan.evaluate(graph, image, self.eval_params)
            self.rows = {p: set(rows) for p, rows in result.items()}
            self.predicates = tuple(sorted(self.rows))
            self.diff_refreshes += 1
        self.version = version

    def stats(self):
        return {
            "mode": self.mode,
            "fallback_reason": self.fallback_reason,
            "subscribers": self.refcount,
            "version": self.version,
            "rows": sum(len(r) for r in self.rows.values()),
            "predicates": list(self.predicates),
            "maintenance_passes": self.maintenance_passes,
            "diff_refreshes": self.diff_refreshes,
            "deltas_emitted": self.deltas_emitted,
            "skipped_empty": self.skipped_empty,
            "maintenance_errors": self.maintenance_errors,
        }


class Subscription:
    """One subscriber: a bounded outbound frame queue on one sink."""

    __slots__ = (
        "id",
        "view",
        "sink",
        "queue_max",
        "policy",
        "pending",
        "needs_resync",
        "closed",
    )

    def __init__(self, sub_id, view, sink, queue_max, policy):
        self.id = sub_id
        self.view = view
        self.sink = sink
        self.queue_max = queue_max
        self.policy = policy
        self.pending = []  # [(frame dict, enqueue monotonic time)]
        self.needs_resync = False
        self.closed = None  # reason string once closed


class SubscriptionManager:
    """Owns every shared view and subscription for one service instance."""

    def __init__(self, store, metrics=None, queue_max=256, policy="resync",
                 images=None):
        if policy not in OVERFLOW_POLICIES:
            raise ValueError(f"unknown overflow policy {policy!r}")
        self.store = store
        #: Owner of the store's relational image — the service's, so views
        #: and request evaluations at one version share one image.
        self.images = images if images is not None else StoreImages(store)
        self.metrics = metrics
        self.default_queue_max = int(queue_max)
        self.default_policy = policy
        self._lock = threading.Lock()
        self._views_by_key = {}
        self._subs = {}
        self._by_sink = {}
        self._disconnect_sinks = set()
        self._next_id = 1
        self._applied = store.version
        # Cumulative counters (exposed via stats() and /metrics).
        self.deltas_pushed = 0
        self.snapshots_sent = 0
        self.overflows = 0
        self.resyncs = 0
        self.disconnects = 0
        self.forced_resyncs = 0
        self.push_latency = HistogramData()
        self._hook = store.subscribe(self._on_commit)
        self._closed = False

    # ----------------------------------------------------------- subscribe

    def subscribe(self, plan, params, sink, queue_max=None, policy=None,
                  allow_fallback=False):
        """Register one subscriber; returns ``(subscription, snapshot, version)``.

        The snapshot is ``{predicate: set of rows}`` at ``version``; every
        later ``delta`` frame for the subscription carries a strictly
        greater version.  Raises :class:`NotMaintainable` when the query
        has no maintainable view and *allow_fallback* is false.
        """
        if sink is None:
            raise SubscriptionError(
                "subscriptions need a streaming connection (no sink)"
            )
        policy = policy if policy is not None else self.default_policy
        if policy not in OVERFLOW_POLICIES:
            raise ProtocolError(
                f"'policy' must be one of {', '.join(OVERFLOW_POLICIES)}, "
                f"got {policy!r}"
            )
        if queue_max is None:
            queue_max = self.default_queue_max
        if isinstance(queue_max, bool) or not isinstance(queue_max, int) or queue_max < 1:
            raise ProtocolError(
                f"'queue_max' must be a positive integer, got {queue_max!r}"
            )
        key = view_key(plan, params)
        candidate = None
        while True:
            with self._lock:
                if self._closed:
                    raise SubscriptionError("the subscription manager is closed")
                shared = self._views_by_key.get(key)
                if shared is None and candidate is not None:
                    self._catch_up_locked(candidate)
                    self._views_by_key[key] = candidate
                    shared = candidate
                if shared is not None:
                    if shared.fallback_reason is not None and not allow_fallback:
                        if shared.refcount == 0:
                            self._views_by_key.pop(key, None)
                        raise NotMaintainable(
                            "this query has no incrementally maintainable view: "
                            f"{shared.fallback_reason} (pass allow_fallback to "
                            "subscribe through per-commit re-evaluation)",
                            reason=shared.fallback_reason,
                        )
                    sub = Subscription(
                        self._next_id, shared, sink, queue_max, policy
                    )
                    self._next_id += 1
                    shared.refcount += 1
                    shared.subs.add(sub)
                    self._subs[sub.id] = sub
                    self._by_sink.setdefault(sink, set()).add(sub.id)
                    snapshot = {p: set(rows) for p, rows in shared.rows.items()}
                    if self.metrics is not None:
                        self.metrics.incr("subs.subscribed")
                    return sub, snapshot, shared.version
            # Materialize outside the lock: first evaluation can be slow and
            # must not stall commits.  A racing duplicate is discarded above.
            candidate = SharedView(key, plan, params)
            if candidate.fallback_reason is not None and not allow_fallback:
                raise NotMaintainable(
                    "this query has no incrementally maintainable view: "
                    f"{candidate.fallback_reason} (pass allow_fallback to "
                    "subscribe through per-commit re-evaluation)",
                    reason=candidate.fallback_reason,
                )
            version, graph = self.store.snapshot_versioned()
            candidate.refresh(version, graph, self._image_for(candidate, version, graph))

    def _image_for(self, view, version, graph):
        """The store image *view* (re)materializes from; None for a plan
        that reads the graph only."""
        if not view.plan.reads_relations:
            return None
        return self.images.at(version, graph)

    def unsubscribe(self, sub_id, sink):
        """Drop one subscription; tears the shared view down on last ref."""
        with self._lock:
            sub = self._subs.get(sub_id)
            if sub is None or sub.sink is not sink:
                raise SubscriptionError(
                    f"no subscription {sub_id!r} on this connection"
                )
            self._remove_locked(sub)
            if self.metrics is not None:
                self.metrics.incr("subs.unsubscribed")

    def drop_sink(self, sink):
        """Release everything a closed connection held (idempotent)."""
        with self._lock:
            for sub_id in list(self._by_sink.get(sink, ())):
                sub = self._subs.get(sub_id)
                if sub is not None:
                    self._remove_locked(sub)
            self._by_sink.pop(sink, None)
            self._disconnect_sinks.discard(sink)

    def _remove_locked(self, sub):
        self._subs.pop(sub.id, None)
        ids = self._by_sink.get(sub.sink)
        if ids is not None:
            ids.discard(sub.id)
            if not ids:
                self._by_sink.pop(sub.sink, None)
        view = sub.view
        view.subs.discard(sub)
        view.refcount -= 1
        if view.refcount <= 0:
            # Last unsubscribe tears the view down: no subscriber, no
            # maintenance pass.
            self._views_by_key.pop(view.key, None)

    def _catch_up_locked(self, view):
        """Bring a freshly materialized view level with the dispatch
        watermark.  Its snapshot was taken outside the lock, so commits may
        have been dispatched (to the *other* views) in between; the view's
        own version guard in :meth:`_apply_record_to_view_locked` makes the
        overlap idempotent."""
        if view.version >= self._applied:
            return
        records = self.store.records_since(view.version)
        if records is None:
            version, graph = self.store.snapshot_versioned()
            view.refresh(version, graph, self._image_for(view, version, graph))
            return
        for record in sorted(records, key=lambda r: r.version):
            self._apply_record_to_view_locked(view, record)

    # ------------------------------------------------------------ dispatch

    def _on_commit(self, record):
        """Store commit hook (runs on the committing thread)."""
        with self._lock:
            if record.version <= self._applied:
                return
            if not self._views_by_key:
                self._applied = record.version
                return
            if record.version == self._applied + 1:
                records = (record,)
            else:
                # Dispatch raced: a later commit's hook got here first.
                since = self.store.records_since(self._applied)
                if since is None:
                    # History truncated under us — replay is impossible, so
                    # every subscriber gets a fresh snapshot instead.
                    self._resync_all_locked()
                    self._applied = self.store.version
                    sinks = {sub.sink for sub in self._subs.values()}
                    self._notify(sinks)
                    return
                records = sorted(since, key=lambda r: r.version)
            sinks = set()
            # The committing request's distributed trace context is ambient
            # on this thread (the hook runs on the committing thread); stamp
            # only the frames for *this* commit's record with its trace id —
            # gap-filled records belong to other commits' traces.
            ambient = trace_context.current()
            trace_id = ambient.trace_id if ambient is not None else None
            with obs.span(
                "subs.dispatch",
                version=record.version,
                views=len(self._views_by_key),
                subscribers=len(self._subs),
            ):
                for rec in records:
                    sinks |= self._dispatch_record_locked(
                        rec, trace_id if rec is record else None
                    )
            self._applied = max(self._applied, records[-1].version)
        self._notify(sinks)

    def _dispatch_record_locked(self, record, trace_id=None):
        """Apply one commit record to every view; returns sinks to poke."""
        sinks = set()
        now = time.monotonic()
        for view in list(self._views_by_key.values()):
            changed = self._apply_record_to_view_locked(view, record)
            if changed is None:
                continue
            inserted, deleted = changed
            view.deltas_emitted += 1
            # The row payload is shared across the fanout: one wire encoding
            # per view per commit, one tiny per-subscriber frame dict.
            wire_inserted = protocol.relations_to_wire(inserted)
            wire_deleted = protocol.relations_to_wire(deleted)
            for sub in view.subs:
                frame = {
                    "frame": "delta",
                    "subscription": sub.id,
                    "version": record.version,
                    "inserted": wire_inserted,
                    "deleted": wire_deleted,
                }
                if trace_id is not None:
                    frame["trace_id"] = trace_id
                self._enqueue_locked(sub, frame, now)
                sinks.add(sub.sink)
        return sinks

    def _apply_record_to_view_locked(self, view, record):
        """Advance one view past *record*; returns ``(inserted, deleted)``
        dicts of net row changes, or None when the answer did not change."""
        if record.version <= view.version:
            return None
        delta = record.delta
        if delta is not None and delta.is_empty:
            view.version = record.version
            view.skipped_empty += 1
            return None
        if view.mode == "maintained" and delta is not None:
            try:
                stats = view.view.apply_delta(delta)
            except Exception:
                view.maintenance_errors += 1
                logger.exception(
                    "maintenance of subscribed view %s failed; diffing instead",
                    view.plan.fingerprint[:12],
                )
                return self._diff_refresh_locked(view, record)
            view.maintenance_passes += 1
            inserted = {}
            deleted = {}
            for predicate in view.predicates:
                add = stats.added.get(predicate)
                rem = stats.deleted.get(predicate)
                if add:
                    inserted[predicate] = add
                    view.rows.setdefault(predicate, set()).update(add)
                if rem:
                    deleted[predicate] = rem
                    view.rows.setdefault(predicate, set()).difference_update(rem)
            view.version = record.version
            if not inserted and not deleted:
                return None
            return inserted, deleted
        # Diff fallback (and maintained views facing a delta-less record):
        # skip commits that provably miss the plan's footprint, otherwise
        # re-evaluate at the record's version and diff.
        if (
            delta is not None
            and view.footprint is not None
            and not (view.footprint & delta.touched_predicates(DOMAIN_PREDICATE))
        ):
            view.version = record.version
            return None
        return self._diff_refresh_locked(view, record)

    def _diff_refresh_locked(self, view, record):
        version, graph = self.store.snapshot_versioned()
        if version != record.version:
            graph = self.store.graph_at(record.version)
        image = self._image_for(view, record.version, graph)
        if view.mode == "maintained":
            # Keep the MaterializedView's internal state in step, or the
            # next apply_delta would maintain off a stale base.
            view.view.refresh_full(image.database)
            new_rows = {p: set(view.view.state.facts(p)) for p in view.predicates}
        else:
            result = view.plan.evaluate(graph, image, view.eval_params)
            new_rows = {p: set(rows) for p, rows in result.items()}
        inserted = {}
        deleted = {}
        for predicate in set(new_rows) | set(view.rows):
            added = new_rows.get(predicate, set()) - view.rows.get(predicate, set())
            removed = view.rows.get(predicate, set()) - new_rows.get(predicate, set())
            if added:
                inserted[predicate] = added
            if removed:
                deleted[predicate] = removed
        view.rows = new_rows
        view.predicates = tuple(sorted(set(view.predicates) | set(new_rows)))
        view.version = record.version
        view.diff_refreshes += 1
        if not inserted and not deleted:
            return None
        return inserted, deleted

    # -------------------------------------------------------- backpressure

    def _enqueue_locked(self, sub, frame, now):
        if sub.closed is not None:
            return
        if sub.needs_resync:
            # The pending snapshot (taken at drain time from the live view)
            # already covers this commit.
            return
        if len(sub.pending) >= sub.queue_max:
            self.overflows += 1
            if self.metrics is not None:
                self.metrics.incr(f"subs.overflow.{sub.policy}")
            if sub.policy == "disconnect":
                sub.closed = "overflow"
                sub.pending.clear()
                sub.pending.append(
                    (protocol.closed_frame(sub.id, "overflow"), now)
                )
                self._disconnect_sinks.add(sub.sink)
                self.disconnects += 1
            else:
                sub.pending.clear()
                sub.needs_resync = True
                self.resyncs += 1
            return
        sub.pending.append((frame, now))
        self.deltas_pushed += 1

    def drain(self, sink):
        """Pop every pending frame for *sink*'s subscriptions.

        Returns ``(frames, disconnect)``; *disconnect* asks the caller to
        close the connection after writing the frames (the ``disconnect``
        overflow policy).  Called by the connection's sender task after a
        ``notify()``.
        """
        with self._lock:
            frames = []
            now = time.monotonic()
            for sub_id in sorted(self._by_sink.get(sink, ())):
                sub = self._subs.get(sub_id)
                if sub is None:
                    continue
                if sub.needs_resync:
                    sub.needs_resync = False
                    frames.append(
                        protocol.snapshot_frame(
                            sub.id, sub.view.version, sub.view.rows, resync=True
                        )
                    )
                    self.snapshots_sent += 1
                for frame, enqueued in sub.pending:
                    self.push_latency.observe(now - enqueued)
                    frames.append(frame)
                sub.pending.clear()
            disconnect = sink in self._disconnect_sinks
            self._disconnect_sinks.discard(sink)
            return frames, disconnect

    # --------------------------------------------------------------- admin

    def resync_all(self):
        """Re-materialize every view and force snapshot frames to every
        subscriber.  Called when version arithmetic can no longer be
        trusted: a replica re-bootstrap (the store version may regress) or
        history truncation below the dispatch watermark."""
        with self._lock:
            self._resync_all_locked()
            self._applied = self.store.version
            sinks = {sub.sink for sub in self._subs.values()}
        self._notify(sinks)

    def _resync_all_locked(self):
        if not self._views_by_key:
            return
        version, graph = self.store.snapshot_versioned()
        for view in self._views_by_key.values():
            view.refresh(version, graph, self._image_for(view, version, graph))
        for sub in self._subs.values():
            if sub.closed is None:
                sub.pending.clear()
                sub.needs_resync = True
        self.forced_resyncs += 1

    def _notify(self, sinks):
        for sink in sinks:
            try:
                sink.notify()
            except Exception:  # noqa: BLE001 — a dying connection must not stall commits
                logger.exception("subscription sink notify failed")

    def close(self):
        """Detach from the store and drop all state (idempotent)."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            self._views_by_key.clear()
            self._subs.clear()
            self._by_sink.clear()
            self._disconnect_sinks.clear()
        try:
            self.store.unsubscribe(self._on_commit)
        except ValueError:  # pragma: no cover - already detached
            pass

    # --------------------------------------------------------------- stats

    def stats(self):
        with self._lock:
            views = {
                view.plan.fingerprint[:12]: view.stats()
                for view in self._views_by_key.values()
            }
            return {
                "active_subscriptions": len(self._subs),
                "shared_views": len(self._views_by_key),
                "queue_depth": sum(len(s.pending) for s in self._subs.values()),
                "deltas_pushed": self.deltas_pushed,
                "snapshots_sent": self.snapshots_sent,
                "overflows": self.overflows,
                "resyncs": self.resyncs,
                "disconnects": self.disconnects,
                "forced_resyncs": self.forced_resyncs,
                "maintenance_passes": sum(
                    v["maintenance_passes"] for v in views.values()
                ),
                "diff_refreshes": sum(v["diff_refreshes"] for v in views.values()),
                "push_p50_ms": round(self.push_latency.quantile(0.5) * 1000.0, 3)
                if self.push_latency.count
                else None,
                "push_p99_ms": round(self.push_latency.quantile(0.99) * 1000.0, 3)
                if self.push_latency.count
                else None,
                "views": views,
            }

    def metric_families(self):
        """Scrape-time collector: the ``repro_subs_*`` exposition series."""
        with self._lock:
            active = len(self._subs)
            shared = len(self._views_by_key)
            depth = sum(len(s.pending) for s in self._subs.values())
            passes = sum(v.maintenance_passes for v in self._views_by_key.values())
            refreshes = sum(v.diff_refreshes for v in self._views_by_key.values())
            latency = self.push_latency.copy()
            deltas = self.deltas_pushed
            snapshots = self.snapshots_sent
            resyncs = self.resyncs
            disconnects = self.disconnects
        overflow = MetricFamily(
            "repro_subs_overflow_total",
            "counter",
            "Subscription queue overflows by policy outcome",
        )
        overflow.add_sample(resyncs, {"policy": "resync"})
        overflow.add_sample(disconnects, {"policy": "disconnect"})
        return [
            MetricFamily(
                "repro_subs_active", "gauge", "Active subscriptions"
            ).add_sample(active),
            MetricFamily(
                "repro_subs_shared_views", "gauge", "Materialized shared views"
            ).add_sample(shared),
            MetricFamily(
                "repro_subs_queue_depth",
                "gauge",
                "Delta frames queued across all subscriptions",
            ).add_sample(depth),
            MetricFamily(
                "repro_subs_deltas_pushed_total",
                "counter",
                "Delta frames enqueued to subscribers",
            ).add_sample(deltas),
            MetricFamily(
                "repro_subs_snapshots_total",
                "counter",
                "Snapshot (resync) frames sent to subscribers",
            ).add_sample(snapshots),
            overflow,
            MetricFamily(
                "repro_subs_maintenance_passes_total",
                "counter",
                "Incremental maintenance passes over shared views",
            ).add_sample(passes),
            MetricFamily(
                "repro_subs_diff_refreshes_total",
                "counter",
                "Fallback re-evaluations of non-maintainable views",
            ).add_sample(refreshes),
            MetricFamily(
                "repro_subs_push_latency_seconds",
                "histogram",
                "Enqueue-to-drain latency of pushed frames",
            ).add_histogram(latency),
        ]
