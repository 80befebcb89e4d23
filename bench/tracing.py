"""The traced pass: spans around the program's public entry points.

The harness wraps the functions named in :data:`ENTRY_POINTS` at run time,
boots the workload's topology *inside this process*, replays the first
fifth of the measured window and records one span per wrapped call: name,
layer, thread, start, end, CPU time, parent span and the index of the
client op in flight.  Spans stay in memory and are written to
``trace-<workload>.json`` at the end.

A layer's **self time** is its spans' CPU time minus the CPU time of their
child spans.  CPU (``time.thread_time``), not wall: the topology's threads
interleave in one process, and a parked ``repl_tail`` long-poll or a
read-your-writes wait is wall time in which the layer does nothing.

End-to-end metrics never come from here.  What the spans cost is reported
as ``trace.overhead_ratio``: traced / untraced throughput of the same
replay on the same in-process topology.
"""

from __future__ import annotations

import importlib
import itertools
import json
import os
import threading
import time
from contextlib import ExitStack, closing

#: layer → (module, owner class or None, attribute).  A name that no longer
#: exists is skipped, and its layer then reports fewer calls — renaming a
#: function must not break the benchmark of the commit that renames it.
ENTRY_POINTS = {
    "protocol": [
        ("repro.service.protocol", None, "decode_request"),
        ("repro.service.protocol", None, "encode"),
    ],
    "client": [
        ("repro.service.client", "ServiceClient", "call"),
        ("repro.service.client", "SubscriptionHandle", "next_event"),
    ],
    "server": [("repro.service.server", "QueryService", "execute")],
    "prepared": [
        ("repro.service.prepared", "PreparedQueryCache", "get"),
        ("repro.service.prepared", "PreparedQuery", "evaluate"),
    ],
    "cache": [
        ("repro.service.cache", "ResultCache", "get"),
        ("repro.service.cache", "ResultCache", "put"),
        ("repro.service.cache", "ResultCache", "apply_commit"),
    ],
    "bridge": [("repro.graphs.bridge", None, "database_from_graph")],
    "columnar": [
        ("repro.datalog.columnar", None, "encode_database"),
        ("repro.datalog.columnar", None, "evaluate_columnar"),
    ],
    "rpq": [
        ("repro.rpq.evaluate", "RPQEvaluator", "__init__"),
        ("repro.rpq.evaluate", "RPQEvaluator", "targets"),
        ("repro.rpq.evaluate", "RPQEvaluator", "pairs"),
    ],
    "dred": [("repro.datalog.dred", "MaintenancePlan", "maintain")],
    "store": [
        ("repro.ham.store", "HAMStore", "snapshot_versioned"),
        ("repro.ham.store", "Transaction", "commit"),
    ],
    "wal": [
        ("repro.persist.manager", "DurabilityManager", "log_commit"),
        ("repro.persist.wal", "WalWriter", "append"),
        ("repro.persist.wal", "WalWriter", "sync"),
    ],
    "subs": [("repro.subs.manager", "SubscriptionManager", "drain")],
    "primary": [("repro.replication.primary", "ReplicationSource", "tail")],
    "replica": [("repro.ham.store", "HAMStore", "apply_replicated")],
    "router": [("repro.replication.router", "RoutingClient", "call")],
}

#: Share of the measured window the traced pass replays.
REPLAY_SLICES = 4


class Recorder:
    """In-memory span store.  One record per wrapped call:
    ``[id, parent, op, layer, name, thread, start, end, cpu]``."""

    def __init__(self):
        self.spans = []
        self.current_op = -1
        self._ids = itertools.count()
        self._local = threading.local()
        self._installed = []

    # ------------------------------------------------------------- wrapping

    def install(self):
        for layer, points in ENTRY_POINTS.items():
            for module_name, owner_name, attribute in points:
                owner = importlib.import_module(module_name)
                if owner_name is not None:
                    owner = getattr(owner, owner_name, None)
                original = getattr(owner, attribute, None) if owner else None
                if original is None:
                    continue
                label = f"{owner_name}.{attribute}" if owner_name else attribute
                setattr(owner, attribute, self._wrap(original, layer, label))
                self._installed.append((owner, attribute, original))

    def uninstall(self):
        for owner, attribute, original in reversed(self._installed):
            setattr(owner, attribute, original)
        self._installed = []

    def _wrap(self, original, layer, label):
        spans = self.spans
        ids = self._ids
        local = self._local
        wall = time.perf_counter
        cpu = time.thread_time
        recorder = self

        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            span_id = next(ids)
            parent = stack[-1] if stack else -1
            stack.append(span_id)
            op = recorder.current_op
            cpu_started = cpu()
            started = wall()
            try:
                return original(*args, **kwargs)
            finally:
                ended = wall()
                used = cpu() - cpu_started
                stack.pop()
                spans.append(
                    [span_id, parent, op, layer, label, threading.get_ident(),
                     started, ended, used]
                )

        traced.__name__ = getattr(original, "__name__", label)
        traced.__doc__ = getattr(original, "__doc__", None)
        return traced

    def reset(self):
        del self.spans[:]

    # ------------------------------------------------------------- analysis

    def layer_totals(self):
        """{layer: (self CPU seconds, calls)} over the recorded spans."""
        children = {}
        for span in self.spans:
            if span[1] >= 0:
                children[span[1]] = children.get(span[1], 0.0) + span[8]
        totals = {layer: [0.0, 0] for layer in ENTRY_POINTS}
        for span in self.spans:
            entry = totals[span[3]]
            entry[0] += max(0.0, span[8] - children.get(span[0], 0.0))
            entry[1] += 1
        return totals


def _replay(workload, recorder, tag):
    """Boot *workload* in process, warm up, replay the first
    ``REPLAY_SLICES`` slices of its window and run its closing checks.
    Returns ``(latencies, seconds, attempted, failed)``."""
    from loadgen import run_ops
    from topology import InProcessTopology, make_workdir

    latencies = []
    with ExitStack() as stack:
        topology = stack.enter_context(
            InProcessTopology(make_workdir(f"{workload.name}-{tag}"))
        )
        session = stack.enter_context(closing(workload.boot(topology)))
        failed = workload.prime(session)
        failed += run_ops(session, workload.warmup)
        recorder.reset()
        started = time.perf_counter()
        index = 0
        for ops in workload.window[:REPLAY_SLICES]:
            for op in ops:
                recorder.current_op = index
                failed += run_ops(session, [op], latencies)
                index += 1
        seconds = time.perf_counter() - started
        # Spans of background threads outside the replay (a replica's tail
        # poll during the closing checks) carry op -1 and are dropped.
        recorder.current_op = -1
        closing_attempted, closing_failed, _extra = workload.finish(session)
    return latencies, seconds, len(latencies) + closing_attempted, failed + closing_failed


def traced_pass(workload, out_dir):
    """Replay the first fifth of *workload*'s window on an in-process
    topology twice — spans off, then on.  Returns the ``<layer>.*`` and
    ``trace.*`` per-layer metrics plus the replays' attempted/failed."""
    recorder = Recorder()
    _, plain_seconds, attempted, failed = _replay(workload, recorder, "plain")
    recorder.install()
    try:
        latencies, traced_seconds, traced_attempted, traced_failed = _replay(
            workload, recorder, "traced"
        )
    finally:
        recorder.uninstall()
    recorder.spans[:] = [span for span in recorder.spans if span[2] >= 0]

    ops = len(latencies)
    metrics = {}
    accounted = 0.0
    for layer, (self_seconds, calls) in recorder.layer_totals().items():
        metrics[f"{layer}.self_ms_per_op"] = self_seconds / ops * 1000.0
        metrics[f"{layer}.calls_per_op"] = calls / ops
        accounted += self_seconds
    metrics["trace.unaccounted_share"] = 1.0 - accounted / sum(latencies)
    # Same ops, same in-process topology: the ratio is what the spans cost.
    metrics["trace.overhead_ratio"] = plain_seconds / traced_seconds

    path = os.path.join(out_dir, f"trace-{workload.name}.json")
    with open(path, "w") as handle:
        json.dump(
            {
                "workload": workload.name,
                "seed": workload.seed,
                "ops": ops,
                "columns": ["id", "parent", "op", "layer", "name", "thread",
                            "start", "end", "cpu"],
                "spans": recorder.spans,
            },
            handle,
        )
    return {
        "attempted": attempted + traced_attempted,
        "failed": failed + traced_failed,
        "per_layer": metrics,
        "trace_file": path,
    }
