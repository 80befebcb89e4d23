"""``repro top`` — a live terminal dashboard over the service ``stats`` op.

Polls a running service and renders QPS (from request-counter deltas
between polls), per-op and per-phase latency quantiles, cache hit rates,
the in-flight gauge, WAL fsync latency, durable-state counters, the
highest-churn predicates, replication role and lag (replica: versions
behind its primary; primary: tail/bootstrap traffic), and slow-query log
occupancy.  Pure text — the
screen is cleared with ANSI codes only when stdout is a TTY, so piping a
single iteration into a file or a test stays clean.
"""

from __future__ import annotations

import sys
import time

from repro.service.metrics import ON_LOOP

_CLEAR = "\x1b[2J\x1b[H"


def _fmt_ms(value):
    return "-" if value is None else f"{value:9.3f}"


def _rate(hits, misses):
    total = hits + misses
    return f"{hits / total:6.1%}" if total else "     -"


class _Dashboard:
    """The poll loop of both panels: each tick fetches one stats document
    (:meth:`_poll`), derives request rates from its counters' deltas since
    the previous tick (:meth:`_qps`) and redraws (:meth:`render`)."""

    #: The key :meth:`snapshot` holds the raw stats document under.
    key = None

    def __init__(self, client, interval=2.0, out=None):
        self.client = client
        self.interval = interval
        self.out = out if out is not None else sys.stdout

    # ------------------------------------------------------------- polling

    def run(self, iterations=None):
        """Poll and redraw until *iterations* (None = until interrupted)."""
        remaining = iterations
        try:
            while remaining is None or remaining > 0:
                self.tick()
                if remaining is not None:
                    remaining -= 1
                    if remaining == 0:
                        break
                time.sleep(self.interval)
        except KeyboardInterrupt:
            pass

    def tick(self):
        """One poll + redraw; returns the rendered text."""
        doc = self._poll()
        text = self.render(doc, self._qps(doc, time.monotonic()))
        if self.out.isatty():
            self.out.write(_CLEAR)
        self.out.write(text)
        self.out.flush()
        return text

    def snapshot(self):
        """One poll as a machine-readable document (``repro top --json``):
        the raw stats plus the QPS computed from counter deltas (None on
        the first poll — there is no previous sample to diff against)."""
        doc = self._poll()
        return {self.key: doc, "qps": self._qps(doc, time.monotonic())}


class TopDashboard(_Dashboard):
    """Render loop over a :class:`~repro.service.client.ServiceClient`."""

    key = "stats"

    def __init__(self, client, interval=2.0, out=None):
        super().__init__(client, interval, out)
        self._last_requests = None
        self._last_time = None

    def _poll(self):
        return self.client.stats()

    def _qps(self, stats, now):
        counters = stats.get("metrics", {}).get("counters", {})
        total = sum(
            value for name, value in counters.items() if name.startswith("requests.")
        ) - counters.get(ON_LOOP, 0)
        qps = None
        if self._last_requests is not None and now > self._last_time:
            qps = (total - self._last_requests) / (now - self._last_time)
        self._last_requests = total
        self._last_time = now
        return qps

    # ----------------------------------------------------------- rendering

    def render(self, stats, qps=None):
        metrics = stats.get("metrics", {})
        lines = []

        store = stats.get("store", {})
        qps_text = "-" if qps is None else f"{qps:.1f}"
        lines.append(
            f"repro top — version {store.get('version', '?')}  "
            f"qps {qps_text}  in-flight {metrics.get('in_flight', 0)}  "
            f"nodes {store.get('nodes', '?')}  edges {store.get('edges', '?')}"
        )
        lines.append("")

        lines.append("requests            count       p50ms     p95ms     p99ms     maxms")
        for op, entry in sorted(metrics.get("latency", {}).items()):
            lines.append(
                f"  {op:<16} {entry['count']:>8}   "
                f"{_fmt_ms(entry.get('p50_ms'))} {_fmt_ms(entry.get('p95_ms'))} "
                f"{_fmt_ms(entry.get('p99_ms'))} {_fmt_ms(entry.get('max_ms'))}"
            )
        lines.append("")

        lines.append("phases              count       p50ms     p99ms   totalms")
        for phase, entry in sorted(metrics.get("phases", {}).items()):
            lines.append(
                f"  {phase:<16} {entry['count']:>8}   "
                f"{_fmt_ms(entry.get('p50_ms'))} {_fmt_ms(entry.get('p99_ms'))} "
                f"{_fmt_ms(entry.get('total_ms'))}"
            )
        lines.append("")

        plan = stats.get("plan_cache", {})
        result = stats.get("result_cache", {})
        lines.append(
            f"caches    plan {plan.get('size', 0)}/{plan.get('capacity', 0)} "
            f"hit {_rate(plan.get('hits', 0), plan.get('misses', 0)).strip()}    "
            f"result {result.get('size', 0)}/{result.get('capacity', 0)} "
            f"hit {_rate(result.get('hits', 0), result.get('misses', 0)).strip()} "
            f"(delta-reuse {result.get('delta_reuse_hits', 0)}, "
            f"maintained {result.get('maintained', 0)})"
        )

        durability = store.get("durability")
        if durability:
            wal = durability.get("wal", {})
            checkpoint = durability.get("checkpoint", {})
            fsync = metrics.get("phases", {}).get("wal.fsync", {})
            fsync_text = (
                f"fsync p50 {_fmt_ms(fsync.get('p50_ms')).strip()}ms "
                f"p99 {_fmt_ms(fsync.get('p99_ms')).strip()}ms"
                if fsync
                else "fsync -"
            )
            lines.append(
                f"wal       appends {wal.get('appends', 0)}  "
                f"bytes {wal.get('bytes', 0)}  segments {wal.get('segments', 0)}  "
                f"ckpt v{checkpoint.get('last_version', 0)}  {fsync_text}"
            )

        predicates = store.get("predicates") or {}
        if predicates:
            lines.append("")
            lines.append("top predicates       facts    churn rows  commits")
            ranked = sorted(
                predicates.items(),
                key=lambda kv: (kv[1]["churn_rows"], kv[1]["facts"]),
                reverse=True,
            )
            for name, info in ranked[:10]:
                lines.append(
                    f"  {name:<16} {info['facts']:>9}   {info['churn_rows']:>9}  "
                    f"{info['churn_commits']:>7}"
                )

        replication = stats.get("replication") or {}
        if replication.get("role") == "replica":
            lag = replication.get("lag_versions")
            lag_text = "?" if lag is None else str(lag)
            if replication.get("connected"):
                state = "connected"
            else:
                # While disconnected the lag is the last *known* value;
                # show how stale the estimate itself is.
                stale = replication.get("seconds_since_poll")
                state = (
                    "DISCONNECTED"
                    if stale is None
                    else f"DISCONNECTED {stale:.0f}s"
                )
            line = (
                f"replica   of {replication.get('primary', '?')}  {state}  "
                f"lag {lag_text} versions  "
                f"applied v{replication.get('applied_version', '?')}  "
                f"records {replication.get('records_applied', 0)}  "
                f"errors {replication.get('tail_errors', 0)}"
            )
            epoch = replication.get("primary_epoch")
            if epoch:
                line += f"  epoch {epoch[:8]}"
            lines.append("")
            lines.append(line)
        elif replication.get("tail_requests") or replication.get("bootstraps_served"):
            line = (
                f"primary   bootstraps {replication.get('bootstraps_served', 0)}  "
                f"tails {replication.get('tail_requests', 0)}  "
                f"shipped {replication.get('records_shipped', 0)}  "
                f"resets {replication.get('resets_signaled', 0)}"
            )
            epoch = replication.get("epoch")
            if epoch:
                line += f"  epoch {epoch[:8]}"
            if replication.get("promotion"):
                line += "  PROMOTED"
            lines.append("")
            lines.append(line)

        subs = stats.get("subs") or {}
        if subs.get("active_subscriptions") or subs.get("deltas_pushed"):
            p50 = subs.get("push_p50_ms")
            p99 = subs.get("push_p99_ms")
            push_text = (
                f"push p50 {p50:.3f}ms p99 {p99:.3f}ms"
                if p50 is not None
                else "push -"
            )
            lines.append("")
            lines.append(
                f"subs      active {subs.get('active_subscriptions', 0)}  "
                f"views {subs.get('shared_views', 0)}  "
                f"queued {subs.get('queue_depth', 0)}  "
                f"deltas {subs.get('deltas_pushed', 0)}  "
                f"snapshots {subs.get('snapshots_sent', 0)}  "
                f"overflows {subs.get('overflows', 0)}  {push_text}"
            )
            lines.append(
                f"          maintenance passes {subs.get('maintenance_passes', 0)}  "
                f"diff refreshes {subs.get('diff_refreshes', 0)}  "
                f"resyncs {subs.get('resyncs', 0)}  "
                f"disconnects {subs.get('disconnects', 0)}"
            )

        slowlog = stats.get("slowlog") or {}
        if slowlog:
            threshold = slowlog.get("threshold_ms")
            threshold_text = "off" if threshold is None else f"{threshold}ms"
            lines.append("")
            lines.append(
                f"slowlog   threshold {threshold_text}  "
                f"held {slowlog.get('size', 0)}/{slowlog.get('capacity', 0)}  "
                f"recorded {slowlog.get('recorded', 0)}"
            )

        return "\n".join(lines) + "\n"


class ClusterDashboard(_Dashboard):
    """``repro top --cluster`` — one panel over the router's ``cluster_stats``.

    Polls a :class:`~repro.service.client.ServiceClient` pointed at a
    router, renders one row per node (role, epoch, version, lag, request
    rate) plus the aggregate latency table whose quantiles come from
    histograms *merged across nodes* (never quantiles of quantiles), and
    the router's own counters.  Per-node QPS is computed from
    request-counter deltas between polls, keyed by node address so nodes
    can come and go between ticks.
    """

    key = "cluster"

    def __init__(self, client, interval=2.0, out=None):
        super().__init__(client, interval, out)
        self._last = {}  # address -> (requests_total, monotonic)

    def _poll(self):
        return self.client.cluster_stats()

    def _qps(self, doc, now):
        qps = {}
        seen = set()
        for node in doc.get("nodes", ()):
            address = node.get("address")
            total = node.get("requests_total")
            if address is None or total is None:
                continue
            seen.add(address)
            previous = self._last.get(address)
            if previous is not None and now > previous[1]:
                qps[address] = (total - previous[0]) / (now - previous[1])
            else:
                qps[address] = None
            self._last[address] = (total, now)
        # Forget nodes that left the topology so a rejoin doesn't diff
        # against a stale counter from a previous life.
        for address in list(self._last):
            if address not in seen:
                del self._last[address]
        return qps

    # ----------------------------------------------------------- rendering

    def render(self, doc, qps=None):
        qps = qps or {}
        router = doc.get("router", {})
        aggregate = doc.get("aggregate", {})
        nodes = doc.get("nodes", [])
        lines = []

        max_lag = aggregate.get("max_lag_versions")
        lines.append(
            f"repro top --cluster — router {router.get('address', '?')}  "
            f"nodes {aggregate.get('nodes_ok', 0)}/{aggregate.get('nodes_total', 0)}  "
            f"requests {aggregate.get('requests_total', 0)}  "
            f"max-lag {'-' if max_lag is None else max_lag}"
        )
        lines.append("")

        lines.append(
            "node                    role     state  epoch      version"
            "      lag      qps  inflight"
        )
        for node in nodes:
            address = node.get("address", "?")
            if not node.get("ok"):
                error = str(node.get("error", "unreachable"))[:40]
                lines.append(f"  {address:<21} {node.get('role', '?'):<8} DOWN   {error}")
                continue
            epoch = node.get("epoch") or "-"
            lag = node.get("lag_versions")
            rate = qps.get(address)
            lines.append(
                f"  {address:<21} {node.get('role', '?'):<8} up     "
                f"{str(epoch)[:8]:<9}  {node.get('version', '?'):>7}  "
                f"{'-' if lag is None else lag:>7}  "
                f"{'-' if rate is None else format(rate, '.1f'):>7}  "
                f"{node.get('in_flight', 0):>8}"
            )
        lines.append("")

        lines.append(
            "cluster latency (merged)   count       p50ms     p95ms     p99ms     maxms"
        )
        for op, entry in sorted((aggregate.get("latency") or {}).items()):
            lines.append(
                f"  {op:<22} {entry['count']:>8}   "
                f"{_fmt_ms(entry.get('p50_ms'))} {_fmt_ms(entry.get('p95_ms'))} "
                f"{_fmt_ms(entry.get('p99_ms'))} {_fmt_ms(entry.get('max_ms'))}"
            )
        skipped = aggregate.get("histograms_skipped")
        if skipped:
            lines.append(f"  ({skipped} histogram(s) skipped: incompatible bucket layouts)")
        lines.append("")

        counters = router.get("counters") or {}
        lines.append(
            f"router    reads {counters.get('reads_routed', 0)}  "
            f"writes {counters.get('writes_routed', 0)}  "
            f"stale-redirects {counters.get('stale_redirects', 0)}  "
            f"ejections {counters.get('ejections', 0)}  "
            f"fallbacks {counters.get('primary_fallbacks', 0)}  "
            f"failovers {counters.get('failovers', 0)}"
        )
        traces = router.get("traces") or {}
        lines.append(
            f"          connections {router.get('connections', 0)}  "
            f"uptime {router.get('uptime_seconds', 0):.0f}s  "
            f"trace-ring {traces.get('size', 0)}/{traces.get('capacity', 0)} "
            f"(sample {traces.get('sample_rate', 0)})"
        )
        return "\n".join(lines) + "\n"
