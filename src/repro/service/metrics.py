"""Service metrics: counters, an in-flight gauge, and latency histograms.

Latencies and phase durations are held in mergeable fixed-bucket
histograms (:class:`repro.obs.metrics.HistogramData`): every observation
since process start contributes, quantiles are interpolated inside the
owning bucket and clamped to the observed extremes, and the same data
renders as Prometheus text exposition through :attr:`exposition`.

The dict-shaped :meth:`snapshot` carries ``counters``, ``latency`` with
``count/p50_ms/p95_ms/p99_ms/max_ms``, ``phases`` with
``count/p50_ms/p95_ms/p99_ms/total_ms`` and ``in_flight``.  All methods are
thread-safe; the asyncio server updates the registry from worker threads.
"""

from __future__ import annotations

import threading
from collections import defaultdict

from repro.obs.metrics import (
    HistogramData,
    MetricFamily,
    Registry,
    sanitize_metric_name,
)

#: Requests answered on the event loop: a share of ``requests.<op>``, not an op.
ON_LOOP = "requests.on_loop"


class MetricsRegistry:
    """Counts, gauges and latency histograms for the query service."""

    def __init__(self):
        self._lock = threading.Lock()
        self._counters = defaultdict(int)
        self._pinned = set()  # names set via set_counter (gauge semantics)
        self._latency = defaultdict(HistogramData)
        self._phases = defaultdict(HistogramData)
        self._in_flight = 0
        #: Prometheus exposition registry; the service adds its own
        #: collectors (store statistics) and renders this on scrape.
        self.exposition = Registry()
        self.exposition.collector(self._families)

    # ------------------------------------------------------------ updates

    def incr(self, name, amount=1):
        with self._lock:
            self._counters[name] += amount

    def set_counter(self, name, value):
        """Pin a counter to an externally-tracked value (e.g. a cache's
        commit-driven counters, mirrored into snapshots on demand)."""
        with self._lock:
            self._counters[name] = value
            self._pinned.add(name)

    def observe_phase(self, phase, seconds):
        """Record one pipeline-phase duration (plan, cache_lookup, evaluate,
        encode, queue_wait, respond, ...) for the per-phase latency breakdown.
        A request's own phases arrive batched through :meth:`request_completed`."""
        with self._lock:
            self._phases[phase].observe(seconds)

    def request_started(self):
        with self._lock:
            self._in_flight += 1

    def request_completed(self, op, seconds, phases=(), on_loop=False):
        """End-of-request bookkeeping — the ``requests.<op>`` (and, *on_loop*,
        :data:`ON_LOOP`) counters, the latency sample, the in-flight decrement
        and the request's phase samples — under one lock grab (separate
        acquisitions are measurable on the ~12µs cache-hit path)."""
        with self._lock:
            self._counters[f"requests.{op}"] += 1
            self._counters[ON_LOOP] += on_loop
            self._latency[op].observe(seconds)
            # Clamp: the gauge must never read negative, even if shutdown
            # races ever unbalance a started/completed pair (the clamp
            # events are counted so the imbalance stays visible).
            if self._in_flight > 0:
                self._in_flight -= 1
            else:
                self._counters["gauge.in_flight_clamped"] += 1
            for phase, elapsed in phases:
                self._phases[phase].observe(elapsed)

    # ------------------------------------------------------------- export

    @property
    def in_flight(self):
        with self._lock:
            return self._in_flight

    def counter(self, name):
        with self._lock:
            return self._counters[name]

    def snapshot(self, include_histograms=False):
        """A JSON-ready dict of everything the registry knows.

        With *include_histograms*, each per-op latency entry additionally
        carries the raw histogram in its mergeable wire form
        (:meth:`HistogramData.to_wire`) under ``"histogram"`` — the
        router's ``cluster_stats`` merges these across nodes to compute
        true cluster-wide quantiles (quantiles of quantiles would be
        meaningless).
        """
        with self._lock:
            latency = {}
            for op, hist in self._latency.items():
                entry = hist.summary_ms(max_ms=hist.max)
                if include_histograms:
                    entry["histogram"] = hist.to_wire()
                latency[op] = entry
            phases = {
                phase: hist.summary_ms(total_ms=hist.sum)
                for phase, hist in self._phases.items()
            }
            return {
                "counters": dict(self._counters),
                "latency": latency,
                "phases": phases,
                "in_flight": self._in_flight,
            }

    def render_prometheus(self):
        """The exposition registry as Prometheus text format 0.0.4."""
        return self.exposition.render()

    # ----------------------------------------------------- exposition map

    def _families(self):
        """Map internal dotted names onto Prometheus families.

        ``requests.<op>`` and ``errors.<code>`` become labeled counter
        families; counters pinned via :meth:`set_counter` are mirrors of
        external point-in-time values and export as gauges; everything
        else incremented via :meth:`incr` is a monotonic ``_total``
        counter.  Latency and phase histograms export with ``op``/``phase``
        labels, and the ``wal.fsync`` phase additionally exports under its
        own name so fsync latency is scrapable without a phase join.
        """
        with self._lock:
            counters = dict(self._counters)
            pinned = set(self._pinned)
            latency = {op: h.copy() for op, h in self._latency.items()}
            phases = {ph: h.copy() for ph, h in self._phases.items()}
            in_flight = self._in_flight

        families = [
            MetricFamily(
                "repro_in_flight_requests",
                "gauge",
                "Requests currently executing or queued in the service",
            ).add_sample(in_flight)
        ]

        requests = MetricFamily(
            "repro_requests_total", "counter", "Requests handled, by wire op"
        )
        errors = MetricFamily(
            "repro_errors_total", "counter", "Failed requests, by error code"
        )
        plain = {}
        for name, value in sorted(counters.items()):
            if name.startswith("requests.") and name != ON_LOOP:
                requests.add_sample(value, {"op": name[len("requests."):]})
            elif name.startswith("errors."):
                errors.add_sample(value, {"code": name[len("errors."):]})
            elif name in pinned:
                metric = "repro_" + sanitize_metric_name(name)
                plain.setdefault(
                    metric,
                    MetricFamily(metric, "gauge", f"Mirror of service stat {name}"),
                ).add_sample(value)
            else:
                metric = "repro_" + sanitize_metric_name(name) + "_total"
                plain.setdefault(
                    metric,
                    MetricFamily(metric, "counter", f"Total of service counter {name}"),
                ).add_sample(value)
        if requests.samples:
            families.append(requests)
        if errors.samples:
            families.append(errors)
        families.extend(plain.values())

        if latency:
            fam = MetricFamily(
                "repro_request_seconds",
                "histogram",
                "Request wall-clock latency, by wire op",
            )
            for op, hist in sorted(latency.items()):
                fam.add_histogram(hist, {"op": op})
            families.append(fam)
        if phases:
            fam = MetricFamily(
                "repro_phase_seconds",
                "histogram",
                "Pipeline phase duration (queue_wait, plan, evaluate, ...)",
            )
            for phase, hist in sorted(phases.items()):
                fam.add_histogram(hist, {"phase": phase})
            families.append(fam)
            fsync = phases.get("wal.fsync")
            if fsync is not None:
                families.append(
                    MetricFamily(
                        "repro_wal_fsync_seconds",
                        "histogram",
                        "WAL fsync latency (alias of phase wal.fsync)",
                    ).add_histogram(fsync)
                )
        return families
