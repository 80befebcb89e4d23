"""The subscription manager: shared views, delta fanout, backpressure.

The manager's view table is the service's one table of long-lived answers:
one :class:`~repro.ham.views.MaterializedView` per view program, under its
:class:`~repro.service.prepared.ViewDefinition` key, held by its
:class:`~repro.ham.views.Holder` s: subscriptions, whose sink queues
frames, and the pins of maintained result-cache entries
(:meth:`SubscriptionManager.pin`), whose sink re-encodes the entry.  A
pin's plan may be a copy of the program under other IDB names, read under
its own names, while the store holds facts under neither's.  A view nobody
holds leaves the table and is maintained no more; so does one whose pass
raised, after its subscribers are sent a ``closed`` frame (``error``).

Threading model: the store delivers every commit record to
:meth:`SubscriptionManager._on_commit` — the service's only commit hook —
exactly once, in version order, on the committing thread
(:meth:`repro.ham.store.HAMStore.subscribe` states the contract), so the
hook applies the record it is handed and nothing else: the result cache is
told what it touched (:meth:`~repro.service.cache.ResultCache.apply_commit`),
every view advances once, and its holders get its change (a pin left
behind goes back to the cache, which demotes its entry).  Every mutation
of view state, holders and subscription queues happens under the manager
lock (taken before the cache's, never after); a pin the cache releases by
evicting its entry is let go at its view's next visit.  Delivery happens
on the connection's sender task, which calls
:meth:`SubscriptionManager.drain` after being poked through the sink's
``notify()``.

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
from repro.errors import ArityError, NotMaintainable, ProtocolError, StoreError, SubscriptionError
from repro.ham.image import StoreImages
from repro.ham.views import Holder, MaterializedView, ViewReset
from repro.obs.metrics import HistogramData, MetricFamily, table_families
from repro.service import protocol
from repro.service.cache import result_key

logger = logging.getLogger(__name__)

#: Queue-overflow policies.  ``resync`` drops the queued deltas and marks
#: the subscription so its next frame is a fresh snapshot at the current
#: version (the client replaces its state wholesale — nothing is silently
#: skipped); ``disconnect`` sends a ``closed`` frame and drops the
#: connection.
OVERFLOW_POLICIES = ("resync", "disconnect")

#: ``(name, kind, help, key)`` rows for :func:`table_families`: the series
#: :meth:`SubscriptionManager.metric_families` reads off its ``stats()``.
_FAMILIES = (
    ("repro_subs_active", "gauge", "Active subscriptions", "active_subscriptions"),
    ("repro_subs_shared_views", "gauge", "Materialized shared views", "shared_views"),
    ("repro_subs_queue_depth", "gauge",
     "Delta frames queued across all subscriptions", "queue_depth"),
    ("repro_subs_deltas_pushed_total", "counter",
     "Delta frames enqueued to subscribers", "deltas_pushed"),
    ("repro_subs_snapshots_total", "counter",
     "Snapshot (resync) frames sent to subscribers", "snapshots_sent"),
    ("repro_subs_maintenance_passes_total", "counter",
     "Incremental maintenance passes over shared views", "maintenance_passes"),
    ("repro_subs_diff_refreshes_total", "counter",
     "Fallback re-evaluations of non-maintainable views", "diff_refreshes"),
)


def _require_maintainable(reason, allow_fallback):
    if reason is not None and not allow_fallback:
        raise NotMaintainable(
            "this query has no incrementally maintainable view: "
            f"{reason} (pass allow_fallback to "
            "subscribe through per-commit re-evaluation)",
            reason=reason,
        )


class Subscription(Holder):
    """One subscriber: a holder whose sink is a bounded frame queue."""

    __slots__ = ("id", "sink", "queue_max", "policy", "pending", "needs_resync", "closed")

    def __init__(self, sub_id, view, definition, sink, queue_max, policy):
        super().__init__(view, definition)
        self.id = sub_id
        self.sink = sink
        self.queue_max = queue_max
        self.policy = policy
        self.pending = []  # [(frame dict, enqueue monotonic time)]
        self.needs_resync = False
        self.closed = None  # reason string once closed


class SubscriptionManager:
    """Owns every shared view and subscription for one service instance,
    and drives the commit handling of its result cache, *results*."""

    def __init__(self, store, metrics=None, queue_max=256, policy="resync",
                 images=None, results=None):
        if policy not in OVERFLOW_POLICIES:
            raise ValueError(f"unknown overflow policy {policy!r}")
        self.store = store
        #: Owner of the store's relational image — the service's, so views
        #: and request evaluations at one version share one image.
        self.images = images if images is not None else StoreImages(store)
        self.results = results
        self.metrics = metrics
        self.default_queue_max = int(queue_max)
        self.default_policy = policy
        self._lock = threading.Lock()
        self._views_by_key = {}  # ViewDefinition key -> MaterializedView
        self._by_sink = {}  # sink -> {subscription id: its Subscription}
        self._disconnect_sinks = set()
        self._next_id = 1
        # Cumulative counters (exposed via stats() and /metrics).
        self.deltas_pushed = 0
        self.snapshots_sent = 0
        self.overflows = 0
        self.resyncs = 0
        self.disconnects = 0
        self.forced_resyncs = 0
        self.push_latency = HistogramData()
        store.subscribe(self._on_commit)
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

        definition = plan.view(params)
        _require_maintainable(definition.reason, allow_fallback)  # before materializing

        def attach(view):
            _require_maintainable(view.fallback_reason, allow_fallback)  # the store's arities
            sub = Subscription(self._next_id, view, definition, sink, queue_max, policy)
            self._next_id += 1
            view.hold(sub)
            self._by_sink.setdefault(sink, {})[sub.id] = sub
            if self.metrics is not None:
                self.metrics.incr("subs.subscribed")
            return sub, view.snapshot(sub.seed), view.version

        return self._with_view(plan, params, definition, attach)

    def pin(self, plan, params):
        """Promote the result-cache entry of *plan* under *params*: pin the
        shared view of their program (or of a renamed copy) — materialized
        first when the table has none, this answer's one evaluation — and
        cache its answer as a maintained entry, which every later commit
        keeps current.  Returns the entry; None for a plan with no view.

        A view the store rules out — it holds a relation the program reads
        at another arity, found only once the view is materialized — demotes
        the key instead: cached is a plain entry of that one evaluation, or
        nothing when the store's relations have no image at all."""
        definition = plan.view(params)
        if definition.reason is not None:
            return None
        key = result_key(plan.fingerprint, params)

        def attach(view):
            # Encoded under the lock: the entry's bytes must be the view's
            # answer at the version they are stamped with.
            pin = Holder(view, definition, key)
            view.hold(pin)
            encoded, count = protocol.encode_answer(*pin.answer())
            if view.maintenance is not None:
                entry = self.results.put(key, encoded, count, view.version, plan.footprint, pin)
                for evicted in self.results.trim(view):
                    self._release_locked(evicted.view, [evicted])
                return entry
            view.release([pin])  # the store's arities say no
            self.results.demote(key)
            return self.results.put(key, encoded, count, view.version, plan.footprint)

        try:
            return self._with_view(plan, params, definition, attach, renamed=True)
        except ArityError:  # one label at two arities: the request evaluates
            self.results.demote(key)
            return None

    def _with_view(self, plan, params, definition, attach, renamed=False):
        """``attach(view)``, under the lock, on the table's view of
        *definition* (*plan*'s under *params*) — with *renamed*, on a view
        of a copy of its program if it has none and the store allows
        (:meth:`_shareable_copy`, asking an image taken outside the lock);
        a view *attach* left unheld leaves the table again.  A missing view
        is materialized outside the lock, since a first evaluation can be
        slow and must not stall commits, then caught up and registered; a
        racing duplicate is discarded."""
        key = definition.key
        candidate = image = None
        while True:
            with self._lock:
                if self._closed:
                    raise SubscriptionError("the subscription manager is closed")
                shared = self._views_by_key.get(key)
                copies = []
                if shared is None and renamed and candidate is None:
                    copies = [v for (shape, _), v in self._views_by_key.items() if shape == key[0]]
                    shared = self._shareable_copy(definition, copies, image)
                if shared is None and candidate is not None:
                    self._catch_up_locked(candidate)
                    shared = self._views_by_key[key] = candidate
                if shared is not None:
                    try:
                        return attach(shared)
                    finally:
                        self._release_locked(shared, ())
            if copies and image is None:
                image = self.images.at(*self.store.snapshot_versioned())
                continue
            candidate = MaterializedView(plan, self.images, params, definition)
            candidate.refresh()

    def unsubscribe(self, sub_id, sink):
        """Drop one subscription; tears the shared view down on last ref."""
        with self._lock:
            sub = self._by_sink.get(sink, {}).get(sub_id)
            if sub is None:
                raise SubscriptionError(
                    f"no subscription {sub_id!r} on this connection"
                )
            self._remove_locked(sub)
            if self.metrics is not None:
                self.metrics.incr("subs.unsubscribed")

    def drop_sink(self, sink):
        """Release everything a closed connection held (idempotent)."""
        with self._lock:
            for sub in self._by_sink.pop(sink, {}).values():
                self._release_locked(sub.view, [sub])
            self._disconnect_sinks.discard(sink)

    def _remove_locked(self, sub):
        subs = self._by_sink[sub.sink]
        del subs[sub.id]
        if not subs:
            del self._by_sink[sub.sink]
        self._release_locked(sub.view, [sub])

    def _release_locked(self, view, holders):
        """Let *holders* go of *view*; one nobody holds leaves the table."""
        if not view.release(holders) and self._views_by_key.get(view.definition.key) is view:
            del self._views_by_key[view.definition.key]

    @staticmethod
    def _shareable_copy(definition, copies, image):
        """The view among *copies* — of *definition*'s program under other
        IDB names — current at *image*'s version, if the store held facts
        under neither's names then: each reads those as base facts."""
        for view in copies if image is not None else ():
            if view.version == image.version and not any(
                map(image.facts.relations.get, view.definition.idb | definition.idb)
            ):
                return view
        return None

    def _catch_up_locked(self, view):
        """Bring a freshly materialized view level with the views already
        registered.  Its snapshot was taken outside the lock, so commits may
        have been dispatched (to the *other* views) in between; the view's
        own version guard (:meth:`MaterializedView.apply`) makes a record it
        is later handed again a no-op.

        Read outside dispatch, the records are not held by the trim's mark
        (the dispatched version, maybe ahead of the view): one a commit trims
        meanwhile fails ``apply``'s fallback, and the view, held by nobody
        yet, re-materializes at the current version instead."""
        records = self.store.records_since(view.version)
        try:
            for record in records or ():
                view.apply(record)
        except StoreError:  # ViewReset is one
            records = None
        if records is None:  # the history between is no longer retained
            view.refresh()

    # ------------------------------------------------------------ dispatch

    def _on_commit(self, record):
        """Store commit hook: *record* is the next one, on its committing
        thread — whose ambient trace context is that commit's request, so
        its trace id stamps exactly this record's frames.  The result cache
        is told which predicates the commit touched; every view advances."""
        sinks = set()
        touched = record.delta.touched_predicates(DOMAIN_PREDICATE)
        if self.results is not None:
            self.results.apply_commit(record.version, touched)
        with self._lock:
            if self._views_by_key:
                self._dispatch_locked(record, touched, sinks)
        self._notify(sinks)

    def _dispatch_locked(self, record, touched, sinks):
        """:meth:`_advance_locked` every view past *record*, collecting the
        *sinks* to poke.  A view that raised leaves the table, its
        subscriptions closed with reason ``error`` (its pins, left behind,
        go to the cache to demote); the others still apply the record."""
        ambient = trace_context.current()
        trace_id = ambient.trace_id if ambient is not None else None
        now = time.monotonic()
        with obs.span(
            "subs.dispatch",
            version=record.version,
            views=len(self._views_by_key),
            subscribers=sum(map(len, self._by_sink.values())),
        ):
            for view in list(self._views_by_key.values()):
                try:
                    self._advance_locked(view, record, touched, trace_id, sinks, now)
                except Exception:  # noqa: BLE001 — one view must not stall the rest
                    logger.exception(
                        "view %s failed at version %d; closing its subscriptions",
                        view.plan.fingerprint[:12],
                        record.version,
                    )
                    holders = list(view.holders)
                    self._release_locked(view, holders)
                    for holder in holders:
                        if isinstance(holder, Subscription):
                            self._close_locked(holder, "error", now)
                            sinks.add(holder.sink)
                        else:
                            self.results.demote(holder.key, holder)

    def _advance_locked(self, view, record, touched, trace_id, sinks, now):
        """Advance *view* past *record*, which *touched* those predicates
        (None: unknown): each subscriber gets its delta frame (a resync if
        the view reset), each pin its entry re-stamped or re-encoded, and
        the pins the cache released are let go.  A pass that overdeleted
        plus rederived more rows than the view holds cost more than
        evaluating afresh: its entries are demoted — and so is an entry
        under other IDB names once the commit touched those or the view's."""
        try:
            changed, reset = view.apply(record), False
        except ViewReset:
            changed, reset = None, True
        costly = view.maintenance is not None and view.churn > view.held_rows()
        own = view.definition.idb
        # The seeds whose rows (first column) changed; None: every holder's
        # answer may have.
        moved = set() if changed is None and not reset else None
        if changed is not None and view.seeds:
            moved = {row[0] for side in changed for rows in side.values() for row in rows}
        # The row payload is shared across the fanout: one wire encoding
        # per view and seed per commit, one tiny per-subscriber frame dict.
        wire = {}  # seed -> (inserted, deleted), None if it has no rows
        resync, gone = [], []
        for holder in view.holders:
            if holder.released:
                gone.append(holder)
            elif isinstance(holder, Subscription):
                if reset:
                    resync.append(holder)
                    continue
                if changed is None:
                    continue
                if holder.seed not in wire:
                    inserted, deleted = (
                        {p: r for p, r in holder.read(side).items() if r} for side in changed
                    )
                    wire[holder.seed] = (
                        tuple(map(protocol.relations_to_wire, (inserted, deleted)))
                        if inserted or deleted
                        else None
                    )
                if wire[holder.seed] is None:
                    continue
                frame = {
                    "frame": "delta",
                    "subscription": holder.id,
                    "version": record.version,
                    "inserted": wire[holder.seed][0],
                    "deleted": wire[holder.seed][1],
                }
                if trace_id is not None:
                    frame["trace_id"] = trace_id
                self._enqueue_locked(holder, frame, now)
                sinks.add(holder.sink)
            elif costly or holder.idb != own and touched & (holder.idb | own):
                self.results.demote(holder.key, holder)  # left behind
                gone.append(holder)
            elif moved is not None and holder.seed not in moved:
                self.results.refresh(holder)
            else:
                self.results.refresh(holder, protocol.encode_answer(*holder.answer()))
        if resync:
            self._resync_locked(resync)
            sinks.update(sub.sink for sub in resync)
        self._release_locked(view, gone)

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
                self._close_locked(sub, "overflow", now)
                self._disconnect_sinks.add(sub.sink)
                self.disconnects += 1
            else:
                sub.pending.clear()
                sub.needs_resync = True
                self.resyncs += 1
            return
        sub.pending.append((frame, now))
        self.deltas_pushed += 1

    @staticmethod
    def _close_locked(sub, reason, now):
        """*sub*'s next and last frame is ``closed`` with *reason*; draining
        it ends the subscription."""
        sub.closed = reason
        sub.needs_resync = False
        sub.pending[:] = [(protocol.closed_frame(sub.id, reason), now)]

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
            for _id, sub in sorted(self._by_sink.get(sink, {}).items()):
                if sub.needs_resync:
                    sub.needs_resync = False
                    frames.append(
                        protocol.snapshot_frame(
                            sub.id, sub.view.version, sub.view.snapshot(sub.seed), resync=True
                        )
                    )
                    self.snapshots_sent += 1
                for frame, enqueued in sub.pending:
                    self.push_latency.observe(now - enqueued)
                    frames.append(frame)
                sub.pending.clear()
                if sub.closed is not None:
                    self._remove_locked(sub)
            disconnect = sink in self._disconnect_sinks
            self._disconnect_sinks.discard(sink)
            return frames, disconnect

    # --------------------------------------------------------------- admin

    def resync_all(self):
        """Re-materialize every view and force snapshot frames to every
        subscriber.  Called when version arithmetic can no longer be
        trusted: a replica re-bootstrap (the store version may regress).
        The pins the cleared result cache released are let go first."""
        with self._lock:
            for view in list(self._views_by_key.values()):
                self._release_locked(view, [h for h in view.holders if h.released])
            if not self._views_by_key:
                return
            for view in self._views_by_key.values():
                view.refresh()
            self._resync_locked([s for subs in self._by_sink.values() for s in subs.values()])
            sinks = set(self._by_sink)
        self._notify(sinks)

    def _resync_locked(self, subs):
        """The next frame of each of *subs* is a snapshot of its view."""
        for sub in subs:
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
            self._by_sink.clear()
            self._disconnect_sinks.clear()
        try:
            self.store.unsubscribe(self._on_commit)
        except ValueError:  # pragma: no cover - already detached
            pass

    # --------------------------------------------------------------- stats

    def stats(self):
        with self._lock:
            # Named by the query and the params that materialized the view.
            views = {
                view.plan.fingerprint[:12]
                + "".join(f" {k}={v}" for k, v in sorted(view.eval_params.items())): dict(
                    view.stats(),
                    subscribers=sum(isinstance(h, Subscription) for h in view.holders),
                    pins=sum(h.key is not None and not h.released for h in view.holders),
                )
                for view in self._views_by_key.values()
            }
            return {
                "active_subscriptions": sum(map(len, self._by_sink.values())),
                "shared_views": len(self._views_by_key),
                "queue_depth": sum(
                    len(s.pending) for subs in self._by_sink.values() for s in subs.values()
                ),
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
        stats = self.stats()
        with self._lock:
            latency = self.push_latency.copy()
        overflow = MetricFamily(
            "repro_subs_overflow_total",
            "counter",
            "Subscription queue overflows by policy outcome",
        )
        overflow.add_sample(stats["resyncs"], {"policy": "resync"})
        overflow.add_sample(stats["disconnects"], {"policy": "disconnect"})
        return [
            *table_families(_FAMILIES, [(None, stats)]),
            overflow,
            MetricFamily(
                "repro_subs_push_latency_seconds",
                "histogram",
                "Enqueue-to-drain latency of pushed frames",
            ).add_histogram(latency),
        ]
