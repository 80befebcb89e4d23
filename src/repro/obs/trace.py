"""Span-based tracing for the evaluation pipeline.

One :class:`Tracer` records one tree of :class:`TraceSpan` nodes — parse,
λ-translation, stratification, per-stratum fixpoint rounds, maintenance,
cache lookups, encoding — each with wall-clock duration and arbitrary
attributes.  The tree renders as JSON (``to_dict``) or as an ASCII tree
(``render``), and powers the service's ``explain``/``profile`` ops.

Cost model: tracing is *ambient* (a :mod:`contextvars` variable) so deep
pipeline code never threads a tracer parameter around, and it is **off by
default**.  The disabled path is a module-level no-op fast path: the active
"tracer" is a shared :data:`NULL_TRACER` whose ``span()`` returns the one
shared :data:`NULL_SPAN`, whose enter/exit/annotate do nothing and which is
*falsy* — hot loops guard per-iteration recording with ``if span:`` so the
disabled cost is one attribute truth-test.  The ``abl7`` benchmark bounds
the end-to-end overhead of the disabled path.

Usage::

    from repro import obs

    with obs.tracing("request", op="graphlog") as tracer:
        run_pipeline()                  # instrumented code calls obs.span()
    print(tracer.root.render())

Instrumented code::

    with obs.span("engine.stratum", stratum=1) as span:
        while not fixpoint:
            ...
            if span:                    # falsy when tracing is disabled
                span.append("iterations", {"delta": sizes})
"""

from __future__ import annotations

import contextvars
import threading
import time
from collections import deque
from contextlib import contextmanager

from repro.obs.context import new_span_id as _new_span_id


class TraceSpan:
    """One timed node in a trace tree.

    Spans are context managers: entering starts the clock and attaches the
    span to the active tracer's current span; exiting records
    ``elapsed_ms``.  Attributes are free-form JSON-serializable values.
    """

    __slots__ = (
        "name",
        "attrs",
        "children",
        "elapsed_ms",
        "span_id",
        "parent_span_id",
        "start_ts",
        "_tracer",
        "_started",
    )

    def __init__(self, name, attrs, tracer):
        self.name = name
        self.attrs = attrs
        self.children = []
        self.elapsed_ms = None
        self.span_id = None
        self.parent_span_id = None
        self.start_ts = None
        self._tracer = tracer
        self._started = None

    # ------------------------------------------------------------ lifecycle

    def __enter__(self):
        self.span_id = _new_span_id()
        self.start_ts = time.time()
        self._tracer._push(self)
        self._started = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, _tb):
        self.elapsed_ms = (time.perf_counter() - self._started) * 1000.0
        if exc_type is not None:
            self.attrs["error"] = f"{exc_type.__name__}: {exc}"
        self._tracer._pop(self)
        return False

    def __bool__(self):
        return True

    # ----------------------------------------------------------- annotation

    def annotate(self, **attrs):
        """Merge *attrs* into the span's attributes."""
        self.attrs.update(attrs)

    def append(self, key, item):
        """Append *item* to the list-valued attribute *key*."""
        self.attrs.setdefault(key, []).append(item)

    def count(self, key, amount=1):
        """Increment the numeric attribute *key* by *amount*."""
        self.attrs[key] = self.attrs.get(key, 0) + amount

    # ------------------------------------------------------------ rendering

    def to_dict(self):
        """The span subtree as a JSON-ready dict."""
        doc = {
            "name": self.name,
            "elapsed_ms": None if self.elapsed_ms is None else round(self.elapsed_ms, 3),
            "attrs": dict(self.attrs),
            "children": [child.to_dict() for child in self.children],
        }
        if self.span_id is not None:
            doc["span_id"] = self.span_id
            doc["parent_span_id"] = self.parent_span_id
            doc["start_ts"] = self.start_ts
        return doc

    def render(self, max_attr_len=120):
        """The span subtree as an ASCII tree, one span per line."""
        lines = []
        self._render_into(lines, prefix="", branch="", max_attr_len=max_attr_len)
        return "\n".join(lines)

    def _render_into(self, lines, prefix, branch, max_attr_len):
        elapsed = "?" if self.elapsed_ms is None else f"{self.elapsed_ms:.3f}ms"
        attrs = _format_attrs(self.attrs, max_attr_len)
        lines.append(f"{prefix}{branch}{self.name} ({elapsed}){attrs}")
        if branch == "":
            child_prefix = prefix
        else:
            child_prefix = prefix + ("    " if branch.startswith("└") else "│   ")
        for i, child in enumerate(self.children):
            last = i == len(self.children) - 1
            child._render_into(
                lines, child_prefix, "└── " if last else "├── ", max_attr_len
            )

    def find(self, name):
        """Depth-first search for the first descendant span named *name*."""
        for child in self.children:
            if child.name == name:
                return child
            found = child.find(name)
            if found is not None:
                return found
        return None

    def find_all(self, name):
        """Every descendant span named *name*, depth-first."""
        out = []
        for child in self.children:
            if child.name == name:
                out.append(child)
            out.extend(child.find_all(name))
        return out

    def __repr__(self):
        return f"TraceSpan({self.name!r}, {len(self.children)} children)"


def _format_attrs(attrs, max_attr_len):
    if not attrs:
        return ""
    parts = []
    for key, value in attrs.items():
        text = f"{key}={value!r}" if isinstance(value, str) else f"{key}={value}"
        if len(text) > max_attr_len:
            text = text[: max_attr_len - 1] + "…"
        parts.append(text)
    return " " + " ".join(parts)


class _NullSpan:
    """The shared no-op span: falsy, zero-cost enter/exit/annotate."""

    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *_exc):
        return False

    def __bool__(self):
        return False

    def annotate(self, **_attrs):
        pass

    def append(self, _key, _item):
        pass

    def count(self, _key, _amount=1):
        pass


NULL_SPAN = _NullSpan()


class NullTracer:
    """The disabled tracer: ``span()`` always returns :data:`NULL_SPAN`."""

    __slots__ = ()
    enabled = False
    root = None

    def span(self, _name, **_attrs):
        return NULL_SPAN


NULL_TRACER = NullTracer()


class Tracer:
    """An enabled tracer: collects one span tree for one traced operation.

    Not thread-safe: one tracer traces one logical operation on one thread
    (the service activates a fresh tracer inside each traced request's
    worker thread).
    """

    __slots__ = ("root", "trace_id", "remote_parent", "_stack")
    enabled = True

    def __init__(self, trace_id=None, remote_parent=None):
        self.root = None
        # The distributed identity: set when tracing a request that carries a
        # trace context (adopted or locally minted); None for a purely local
        # explain/profile tracer.
        self.trace_id = trace_id
        # The sender-side span id this tracer's root nests under when the
        # cross-node tree is assembled.
        self.remote_parent = remote_parent
        self._stack = []

    def span(self, name, **attrs):
        return TraceSpan(name, attrs, self)

    def _push(self, span):
        if self._stack:
            parent = self._stack[-1]
            parent.children.append(span)
            span.parent_span_id = parent.span_id
        elif self.root is None:
            self.root = span
            span.parent_span_id = self.remote_parent
        else:
            # A second top-level span joins the existing root's children so
            # no timing is ever silently dropped.
            self.root.children.append(span)
            span.parent_span_id = self.root.span_id
        self._stack.append(span)

    def _pop(self, span):
        if self._stack and self._stack[-1] is span:
            self._stack.pop()


_ACTIVE = contextvars.ContextVar("repro.obs.tracer", default=NULL_TRACER)


def tracer():
    """The ambient tracer: a :class:`Tracer` inside :func:`tracing`, else
    the shared no-op :data:`NULL_TRACER`."""
    return _ACTIVE.get()


def span(name, **attrs):
    """Open a span on the ambient tracer (no-op when tracing is disabled)."""
    return _ACTIVE.get().span(name, **attrs)


@contextmanager
def tracing(name="trace", context=None, **attrs):
    """Enable tracing for the ``with`` body; yields the :class:`Tracer`.

    The body's pipeline calls (engine, translator, maintenance, caches)
    record spans under a root span *name*; afterwards ``tracer.root`` holds
    the finished tree.  Passing a
    :class:`~repro.obs.context.TraceContext` as *context* binds the tree to
    that distributed trace: the tracer carries its ``trace_id`` and the root
    span links under the sender's ``parent_span_id``.
    """
    if context is not None:
        active = Tracer(
            trace_id=context.trace_id, remote_parent=context.parent_span_id
        )
    else:
        active = Tracer()
    token = _ACTIVE.set(active)
    try:
        with active.span(name, **attrs):
            yield active
    finally:
        _ACTIVE.reset(token)


def flatten_span_tree(root, node_id=None):
    """A span tree (:class:`TraceSpan` or its ``to_dict`` form) as a flat
    list of span dicts, parent links intact, ready for cross-node assembly.

    Each dict carries ``span_id`` / ``parent_span_id`` / ``start_ts`` /
    ``elapsed_ms`` / ``name`` / ``attrs`` plus ``node_id`` when given, and
    drops the nested ``children`` — :mod:`repro.obs.assemble` rebuilds the
    tree from the parent links after merging lists from several nodes.
    """
    flat = []
    stack = [root.to_dict() if isinstance(root, TraceSpan) else root]
    while stack:
        doc = stack.pop()
        span = {
            "span_id": doc.get("span_id"),
            "parent_span_id": doc.get("parent_span_id"),
            "name": doc.get("name"),
            "start_ts": doc.get("start_ts"),
            "elapsed_ms": doc.get("elapsed_ms"),
            "attrs": doc.get("attrs") or {},
        }
        if node_id is not None:
            span["node_id"] = node_id
        flat.append(span)
        children = doc.get("children") or []
        # Reverse so pop() walks children in recorded order.
        stack.extend(reversed(children))
    return flat


def trace_entry(root, trace_id, node_id, op, request_id=None, elapsed_ms=None, **extra):
    """One finished span tree as the record a :class:`TraceRing` holds and
    a span sink exports: who recorded it (*node_id*), for which *op*, and
    the tree flattened for cross-node assembly.

    ``request_id`` defaults to the trace id and ``elapsed_ms`` to the root
    span's own duration; *extra* (``version``, ``slow``) lands before
    ``spans``.
    """
    return {
        "trace_id": trace_id,
        "request_id": trace_id if request_id is None else request_id,
        "node_id": node_id,
        "op": op,
        "elapsed_ms": round(root.elapsed_ms if elapsed_ms is None else elapsed_ms, 3),
        **extra,
        "spans": flatten_span_tree(root, node_id=node_id),
    }


class TraceRing:
    """A bounded, thread-safe ring of recent trace records.

    The service records one entry per traced request (``explain`` /
    ``profile`` ops); ``stats`` exposes the ring's counters and clients can
    page through :meth:`snapshot` for post-hoc debugging.
    """

    def __init__(self, capacity=64):
        if capacity < 1:
            raise ValueError("trace ring capacity must be >= 1")
        self.capacity = capacity
        self._entries = deque(maxlen=capacity)
        self._lock = threading.Lock()
        self.recorded = 0

    def __len__(self):
        with self._lock:
            return len(self._entries)

    def record(self, entry):
        with self._lock:
            self._entries.append(entry)
            self.recorded += 1

    def snapshot(self, limit=None):
        """The most recent entries, newest last (all when *limit* is None)."""
        with self._lock:
            entries = list(self._entries)
        return entries if limit is None else entries[-limit:]

    def find(self, trace_id):
        """Every held entry recorded under *trace_id*, oldest first.

        A trace can appear more than once on a node (e.g. a router that
        forwarded, failed over, and retried), so this returns a list.
        """
        with self._lock:
            return [e for e in self._entries if e.get("trace_id") == trace_id]

    def stats(self):
        with self._lock:
            return {
                "capacity": self.capacity,
                "size": len(self._entries),
                "recorded": self.recorded,
            }
