"""Typed telemetry instruments and Prometheus text exposition.

The serving stack used to keep latency in bounded sample windows and compute
sliding-window percentiles on demand (:mod:`repro.service.metrics`).  That
representation has two problems a production scraper cares about:

- **window bias** — a 2048-sample deque forgets everything older than the
  last 2048 requests, so a burst of fast cache hits silently evicts the slow
  tail a dashboard most wants to see, and two windows from two processes
  cannot be combined into a fleet-wide percentile;
- **non-mergeability** — percentiles of percentiles are meaningless, so the
  window representation cannot be aggregated across shards or scrapes.

This module replaces it with *mergeable fixed-bucket histograms* (the
Prometheus model): each observation increments one of a fixed set of bucket
counters, plus an exact running ``sum``/``count``/``min``/``max``.  Two
histograms with the same bounds merge by adding counters, quantiles are
estimated by linear interpolation inside the owning bucket (clamped to the
observed ``[min, max]``, so single-sample histograms report the exact
sample), and the whole thing renders as standard Prometheus text exposition
format (version 0.0.4) for any scraper to pull.

Telemetry has one path to the scraper: producers register a *collector*
callback with a :class:`Registry`, returning :class:`MetricFamily` rows
(counter / gauge samples, or a :class:`HistogramData` rendered as
``_bucket``/``_sum``/``_count`` series) built on demand at scrape time from
the counts they already keep.
"""

from __future__ import annotations

import math
import re
import threading

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_SANITIZE_RE = re.compile(r"[^a-zA-Z0-9_:]")

#: Default latency buckets in seconds (the Prometheus client defaults with a
#: couple of extra sub-millisecond bounds — this service answers cache hits
#: in ~10µs, and a histogram whose first bound is 5ms would flatten the
#: entire hot path into one bucket).
DEFAULT_BUCKETS = (
    0.00005,
    0.0001,
    0.00025,
    0.0005,
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
)


def sanitize_metric_name(name):
    """A dotted internal name as a legal Prometheus metric name component."""
    return _SANITIZE_RE.sub("_", str(name))


def escape_label_value(value):
    """Escape a label value per the text exposition format."""
    return (
        str(value)
        .replace("\\", r"\\")
        .replace("\n", r"\n")
        .replace('"', r"\"")
    )


def escape_help(text):
    """Escape a HELP string per the text exposition format."""
    return str(text).replace("\\", r"\\").replace("\n", r"\n")


def format_value(value):
    """Render a sample value (integers without a trailing ``.0``)."""
    if value is None or (isinstance(value, float) and math.isnan(value)):
        return "NaN"
    if isinstance(value, float) and math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(value) if isinstance(value, float) else str(value)


def format_labels(labels):
    """``{name="value",...}`` (empty string for no labels), keys sorted."""
    if not labels:
        return ""
    body = ",".join(
        f'{key}="{escape_label_value(value)}"' for key, value in sorted(labels.items())
    )
    return "{" + body + "}"


class HistogramMergeError(ValueError):
    """Merging histograms with incompatible bucket layouts.

    A ``ValueError`` subclass so existing callers that catch broadly keep
    working, while cluster-stats aggregation can catch this specifically
    and skip the offending node instead of dropping the whole merge.
    """


class HistogramData:
    """One mergeable fixed-bucket histogram (no lock; owners synchronize).

    ``bounds`` are inclusive upper bucket bounds; an implicit ``+Inf``
    bucket catches the rest.  ``counts[i]`` is the number of observations
    ``<= bounds[i]`` but greater than the previous bound (i.e. *per-bucket*
    counts, not cumulative — exposition cumulates on render).
    """

    __slots__ = ("bounds", "counts", "count", "sum", "min", "max")

    def __init__(self, bounds=DEFAULT_BUCKETS):
        bounds = tuple(sorted(float(b) for b in bounds))
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        self.bounds = bounds
        self.counts = [0] * (len(bounds) + 1)  # + the +Inf bucket
        self.count = 0
        self.sum = 0.0
        self.min = None
        self.max = None

    def observe(self, value):
        value = float(value)
        self.counts[self._bucket_index(value)] += 1
        self.count += 1
        self.sum += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    def _bucket_index(self, value):
        lo, hi = 0, len(self.bounds)
        while lo < hi:
            mid = (lo + hi) // 2
            if value <= self.bounds[mid]:
                hi = mid
            else:
                lo = mid + 1
        return lo

    def merge(self, other):
        """Fold *other* into this histogram (bounds must match)."""
        if other.bounds != self.bounds:
            raise HistogramMergeError(
                "cannot merge histograms with different bounds: "
                f"{len(self.bounds)} bounds vs {len(other.bounds)}"
            )
        for i, c in enumerate(other.counts):
            self.counts[i] += c
        self.count += other.count
        self.sum += other.sum
        if other.min is not None and (self.min is None or other.min < self.min):
            self.min = other.min
        if other.max is not None and (self.max is None or other.max > self.max):
            self.max = other.max
        return self

    def copy(self):
        clone = HistogramData(self.bounds)
        clone.counts = list(self.counts)
        clone.count = self.count
        clone.sum = self.sum
        clone.min = self.min
        clone.max = self.max
        return clone

    def summary_ms(self, **seconds):
        """``count`` and p50/p95/p99 in milliseconds (``None`` while empty)
        — the shape ``stats`` and ``cluster_stats`` report a histogram in —
        plus any further *seconds* values (``max_ms=hist.max``) likewise
        converted."""
        values = dict(
            p50_ms=self.quantile(0.50),
            p95_ms=self.quantile(0.95),
            p99_ms=self.quantile(0.99),
            **seconds,
        )
        doc = {"count": self.count}
        for name, value in values.items():
            doc[name] = None if value is None else round(value * 1000.0, 3)
        return doc

    def quantile(self, q):
        """Estimate the *q*-quantile by interpolating inside the owning
        bucket, clamped to the observed ``[min, max]`` (so a single-sample
        histogram reports the sample exactly, and no estimate ever exceeds
        the true extremes the way raw bucket bounds would)."""
        if self.count == 0:
            return None
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        target = q * self.count
        cumulative = 0
        for i, bucket_count in enumerate(self.counts):
            if bucket_count == 0:
                continue
            if cumulative + bucket_count >= target:
                if i < len(self.bounds):
                    upper = self.bounds[i]
                    lower = self.bounds[i - 1] if i > 0 else 0.0
                else:
                    # +Inf bucket: interpolate toward the observed max.
                    upper = self.max
                    lower = self.bounds[-1]
                position = (target - cumulative) / bucket_count
                estimate = lower + position * (upper - lower)
                return min(max(estimate, self.min), self.max)
            cumulative += bucket_count
        return self.max  # pragma: no cover - q=1.0 exits in the loop

    def to_wire(self):
        """The histogram as a JSON-ready dict for cross-node shipping."""
        return {
            "bounds": list(self.bounds),
            "counts": list(self.counts),
            "count": self.count,
            "sum": self.sum,
            "min": self.min,
            "max": self.max,
        }

    @classmethod
    def from_wire(cls, doc):
        """Rebuild a histogram shipped by :meth:`to_wire`.

        Raises :class:`HistogramMergeError` on a malformed document — the
        cluster-stats merger treats that exactly like a bucket-layout
        mismatch (skip the node, keep the merge).
        """
        if not isinstance(doc, dict):
            raise HistogramMergeError(
                f"histogram wire form must be an object, got {type(doc).__name__}"
            )
        bounds = doc.get("bounds")
        counts = doc.get("counts")
        if not isinstance(bounds, (list, tuple)) or not bounds:
            raise HistogramMergeError("histogram wire form missing bucket bounds")
        if not isinstance(counts, (list, tuple)) or len(counts) != len(bounds) + 1:
            raise HistogramMergeError(
                "histogram wire form counts must have len(bounds)+1 entries"
            )
        try:
            data = cls(bounds)
            data.counts = [int(c) for c in counts]
            data.count = int(doc.get("count", 0))
            data.sum = float(doc.get("sum", 0.0))
            data.min = None if doc.get("min") is None else float(doc["min"])
            data.max = None if doc.get("max") is None else float(doc["max"])
        except (TypeError, ValueError) as exc:
            raise HistogramMergeError(
                f"malformed histogram wire form: {exc}"
            ) from None
        return data

    def cumulative_buckets(self):
        """``[(le_bound, cumulative_count), ...]`` ending with ``+Inf``."""
        out = []
        running = 0
        for bound, count in zip(self.bounds, self.counts):
            running += count
            out.append((bound, running))
        out.append((math.inf, self.count))
        return out

    def __repr__(self):
        return f"HistogramData(count={self.count}, sum={self.sum:.6f})"


class MetricFamily:
    """One exposition family: a name, a type, help text, and samples.

    ``samples`` is a list of ``(suffix, labels, value)`` — suffix is ``""``
    for plain counters/gauges, ``"_bucket"``/``"_sum"``/``"_count"`` for
    histogram series.
    """

    __slots__ = ("name", "kind", "help", "samples")

    KINDS = ("counter", "gauge", "histogram", "untyped")

    def __init__(self, name, kind, help="", samples=()):
        if not _NAME_RE.match(name):
            raise ValueError(f"invalid metric name {name!r}")
        if kind not in self.KINDS:
            raise ValueError(f"invalid metric kind {kind!r}")
        self.name = name
        self.kind = kind
        self.help = help
        self.samples = list(samples)

    def add_sample(self, value, labels=None, suffix=""):
        self.samples.append((suffix, dict(labels or {}), value))
        return self

    def add_histogram(self, data, labels=None):
        """Append the ``_bucket``/``_sum``/``_count`` series for one
        :class:`HistogramData` under *labels*."""
        labels = dict(labels or {})
        for bound, cumulative in data.cumulative_buckets():
            le = "+Inf" if math.isinf(bound) else format_value(bound)
            self.samples.append(("_bucket", {**labels, "le": le}, cumulative))
        self.samples.append(("_sum", labels, data.sum))
        self.samples.append(("_count", labels, data.count))
        return self

    def render(self):
        lines = []
        if self.help:
            lines.append(f"# HELP {self.name} {escape_help(self.help)}")
        lines.append(f"# TYPE {self.name} {self.kind}")
        for suffix, labels, value in self.samples:
            lines.append(
                f"{self.name}{suffix}{format_labels(labels)} {format_value(value)}"
            )
        return "\n".join(lines)


def table_families(table, rows, missing=None):
    """Families for a ``(name, kind, help, key)`` *table*, one per row of
    the table, each sampled once per ``(labels, doc)`` in *rows* at
    ``doc[key]``.  Booleans export as 0/1; a ``None`` value exports as
    *missing*, or is left out when *missing* is ``None`` too."""
    families = []
    for name, kind, help_text, key in table:
        family = MetricFamily(name, kind, help_text)
        for labels, doc in rows:
            value = doc.get(key)
            if value is None:
                value = missing
            if value is not None:
                family.add_sample(int(value) if isinstance(value, bool) else value, labels)
        families.append(family)
    return families


class Registry:
    """A set of collector callbacks — zero-arg callables returning an
    iterable of :class:`MetricFamily` — called and rendered on scrape."""

    def __init__(self):
        self._lock = threading.Lock()
        self._collectors = []

    def collector(self, callback):
        """Register (and return) a callback yielding MetricFamily rows."""
        with self._lock:
            self._collectors.append(callback)
        return callback

    def collect(self):
        """Every family currently known, sorted by name."""
        with self._lock:
            collectors = list(self._collectors)
        families = []
        for callback in collectors:
            families.extend(callback())
        return sorted(families, key=lambda family: family.name)

    def render(self):
        """The full registry as Prometheus text exposition format 0.0.4."""
        chunks = [family.render() for family in self.collect() if family.samples]
        return "\n".join(chunks) + "\n" if chunks else ""


#: Content type of the text exposition format (for HTTP responses).
CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"
