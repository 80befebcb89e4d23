"""``repro.obs`` — observability: tracing, metrics, logs, slow-query log.

The pipeline (parse → λ-translation → stratify → magic/optimize → engine →
DRed maintenance → service request handling) is instrumented with ambient
spans; :func:`tracing` turns collection on for a ``with`` body and the
disabled path is a module-level no-op (see :mod:`repro.obs.trace`).

Beyond spans, the package provides:

- :mod:`repro.obs.context` — the distributed trace context (``trace_id``,
  ``parent_span_id``, sampled flag) carried across wire hops, plus the
  head-based :class:`RateSampler`;
- :mod:`repro.obs.assemble` — cross-node trace assembly and rendering;
- :mod:`repro.obs.nodeid` — stable per-node identity for aggregated logs;
- :mod:`repro.obs.spansink` — the bounded rotating JSONL span exporter;
- :mod:`repro.obs.metrics` — typed counter/gauge/histogram registry with
  mergeable fixed-bucket histograms and Prometheus text exposition;
- :mod:`repro.obs.export` — the ``/metrics`` + ``/healthz`` HTTP endpoint;
- :mod:`repro.obs.logs` — structured JSON logging and the per-request
  correlation-ID contextvar;
- :mod:`repro.obs.slowlog` — the bounded slow-query log.
"""

from repro.obs import assemble, context, nodeid
from repro.obs.context import RateSampler, TraceContext, new_span_id, new_trace_id
from repro.obs.logs import (
    JsonLogFormatter,
    RequestIdFilter,
    configure_logging,
    get_node_id,
    get_request_id,
    new_request_id,
    request_context,
    reset_request_id,
    set_node_prefix,
    set_request_id,
)
from repro.obs.metrics import (
    HistogramData,
    HistogramMergeError,
    MetricFamily,
    Registry,
)
from repro.obs.nodeid import load_or_create_node_id, new_node_id
from repro.obs.slowlog import SlowQueryLog
from repro.obs.spansink import SpanSink
from repro.obs.trace import (
    NULL_SPAN,
    NULL_TRACER,
    NullTracer,
    TraceRing,
    TraceSpan,
    Tracer,
    flatten_span_tree,
    span,
    trace_entry,
    tracer,
    tracing,
)

__all__ = [
    "NULL_SPAN",
    "NULL_TRACER",
    "HistogramData",
    "HistogramMergeError",
    "JsonLogFormatter",
    "MetricFamily",
    "NullTracer",
    "RateSampler",
    "Registry",
    "RequestIdFilter",
    "SlowQueryLog",
    "SpanSink",
    "TraceContext",
    "TraceRing",
    "TraceSpan",
    "Tracer",
    "assemble",
    "configure_logging",
    "context",
    "flatten_span_tree",
    "get_node_id",
    "get_request_id",
    "load_or_create_node_id",
    "new_node_id",
    "new_request_id",
    "new_span_id",
    "new_trace_id",
    "nodeid",
    "request_context",
    "reset_request_id",
    "set_node_prefix",
    "set_request_id",
    "span",
    "trace_entry",
    "tracer",
    "tracing",
]
