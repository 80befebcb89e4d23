"""Per-layer numbers measured from outside the program.

Three sources, none of which needs a change under ``src/``:

- ``/proc/<pid>/stat`` CPU time of each topology process and of the
  loadgen, around the window (pinned to one core: Σ cpu + idle = window);
- the client's own timers (the unscaled estimators, whole-window totals,
  tails, per-kind medians) and the speed probe;
- deltas of the ``stats`` / ``cluster_stats`` ops across the window.  With
  one client the counts repeat exactly from run to run.

:func:`snapshot` is taken immediately before and after the measured window;
:func:`layer_metrics` turns the pair into the named numbers.
"""

from __future__ import annotations

import statistics
import time

#: Ops that are the workload's own (as opposed to ``stats``, ``repl_tail``
#: long-polls, ``subscribe`` …) when reading per-op latency histograms.
_WORKLOAD_OPS = ("graphlog", "datalog", "rpq", "update")


def snapshot(session, workload):
    """Everything the per-layer metrics are deltas of, at one instant."""
    topology = session.topology
    doc = {
        "wall": time.perf_counter(),
        "loadgen_cpu": time.process_time(),
        "cpu": topology.cpu_seconds(),
        "bytes": session.counter.total,
        "nodes": {
            name: session.stats_client(name).stats(include_histograms=True)
            for name in workload.nodes
        },
        "router": None,
    }
    if "router" in topology.ports:
        doc["router"] = session.stats_client("router").cluster_stats()["router"]
    return doc


def _path(doc, *keys):
    for key in keys:
        if not isinstance(doc, dict):
            return 0
        doc = doc.get(key)
    return doc or 0


def _delta(before, after, *keys):
    """after − before of one numeric field, summed over the nodes."""
    return sum(
        _path(after["nodes"][name], *keys) - _path(before["nodes"][name], *keys)
        for name in after["nodes"]
    )


def _ratio(numerator, denominator):
    return numerator / denominator if denominator else 0.0


def _median_ms(values):
    return statistics.median(values) * 1000.0 if values else 0.0


def layer_metrics(before, after, summary, by_kind):
    """The untraced pass's per-layer metrics, by name."""
    ops = summary["ops"]
    window = after["wall"] - before["wall"]
    metrics = {}

    # -- /proc -------------------------------------------------------------
    cpu = {
        name: after["cpu"].get(name, 0.0) - before["cpu"].get(name, 0.0)
        for name in after["cpu"]
    }
    loadgen = after["loadgen_cpu"] - before["loadgen_cpu"]
    serving = cpu.get("server", 0.0) + cpu.get("primary", 0.0)
    metrics["proc.loadgen_cpu_ms_per_op"] = loadgen / ops * 1000.0
    metrics["proc.server_cpu_ms_per_op"] = serving / ops * 1000.0
    metrics["proc.router_cpu_ms_per_op"] = cpu.get("router", 0.0) / ops * 1000.0
    metrics["proc.replica_cpu_ms_per_op"] = cpu.get("replica", 0.0) / ops * 1000.0
    metrics["proc.idle_share"] = max(0.0, 1.0 - (loadgen + sum(cpu.values())) / window)

    # -- client timers -----------------------------------------------------
    metrics["client.speed"] = summary["speed_median"]
    metrics["client.raw_ops_per_s"] = summary["raw_ops_per_s"]
    metrics["client.raw_latency_p50_ms"] = summary["raw_latency_p50_ms"]
    metrics["client.raw_latency_p90_ms"] = summary["raw_latency_p90_ms"]
    metrics["client.latency_p99_ms"] = summary["latency_p99_ms"]
    metrics["client.latency_max_ms"] = summary["latency_max_ms"]
    metrics["client.ops_per_s_total"] = summary["ops_per_s_total"]
    metrics["client.slice_drift"] = summary["slice_drift"]
    metrics["client.ack_p50_ms"] = _median_ms(by_kind.get("ack"))
    metrics["client.read_p50_ms"] = _median_ms(by_kind.get("read"))
    metrics["client.write_p50_ms"] = _median_ms(by_kind.get("write"))

    # -- stats deltas ------------------------------------------------------
    def phase(name, field):
        return _delta(before, after, "metrics", "phases", name, field)

    request_s = sum(
        _delta(before, after, "metrics", "latency", op, "histogram", "sum")
        for op in _WORKLOAD_OPS
    )
    metrics["server.request_ms_per_op"] = request_s / ops * 1000.0
    metrics["server.queue_wait_ms_per_op"] = phase("queue_wait", "total_ms") / ops
    metrics["server.unaccounted_ms_per_op"] = (
        summary["latency_mean_ms"] - metrics["server.request_ms_per_op"]
    )

    plan_hits = _delta(before, after, "plan_cache", "hits")
    plan_misses = _delta(before, after, "plan_cache", "misses")
    metrics["prepared.plan_ms_per_op"] = phase("plan", "total_ms") / ops
    metrics["prepared.hit_ratio"] = _ratio(plan_hits, plan_hits + plan_misses)
    metrics["prepared.evictions"] = float(_delta(before, after, "plan_cache", "evictions"))

    commits = _delta(before, after, "metrics", "counters", "updates.committed")
    hits = _delta(before, after, "result_cache", "hits")
    misses = _delta(before, after, "result_cache", "misses")
    reuse = _delta(before, after, "result_cache", "delta_reuse_hits")
    metrics["cache.lookup_ms_per_op"] = phase("cache_lookup", "total_ms") / ops
    metrics["cache.hit_ratio"] = _ratio(hits, hits + misses)
    metrics["cache.evictions"] = float(_delta(before, after, "result_cache", "evictions"))
    metrics["cache.invalidations_per_commit"] = _ratio(
        _delta(before, after, "result_cache", "invalidations"), commits
    )
    metrics["cache.delta_reuse_ratio"] = _ratio(reuse, hits)

    evaluations = phase("evaluate", "count")
    metrics["engine.evaluations_per_op"] = evaluations / ops
    metrics["engine.evaluate_ms_per_miss"] = _ratio(
        phase("evaluate", "total_ms"), evaluations
    )
    metrics["protocol.encode_ms_per_miss"] = _ratio(
        phase("encode", "total_ms"), phase("encode", "count")
    )

    wal = ("store", "durability", "wal")
    metrics["wal.bytes_per_commit"] = _ratio(_delta(before, after, *wal, "bytes"), commits)
    metrics["wal.fsyncs_per_commit"] = _ratio(
        _delta(before, after, *wal, "fsyncs"), commits
    )
    metrics["wal.fsync_ms_per_commit"] = _ratio(phase("wal.fsync", "total_ms"), commits)

    metrics["subs.maintenance_passes_per_commit"] = _ratio(
        _delta(before, after, "subs", "maintenance_passes"), commits
    )
    metrics["subs.deltas_pushed_per_commit"] = _ratio(
        _delta(before, after, "subs", "deltas_pushed"), commits
    )
    metrics["subs.push_p50_ms"] = float(
        max(_path(node, "subs", "push_p50_ms") for node in after["nodes"].values())
    )

    metrics["primary.records_shipped_per_commit"] = _ratio(
        _delta(before, after, "replication", "records_shipped"), commits
    )
    metrics["primary.tail_requests_per_commit"] = _ratio(
        _delta(before, after, "replication", "tail_requests"), commits
    )
    router = {
        name: _path(after["router"], "counters", name)
        - _path(before["router"], "counters", name)
        for name in ("reads_routed", "stale_redirects", "primary_fallbacks")
    }
    metrics["router.replica_read_share"] = _ratio(
        router["reads_routed"] - router["primary_fallbacks"], router["reads_routed"]
    )
    metrics["router.stale_redirects"] = float(router["stale_redirects"])
    metrics["router.primary_fallbacks"] = float(router["primary_fallbacks"])

    # Filled in by the closing checks of the workloads that have them.
    metrics["replica.lag_versions_end"] = 0.0
    metrics["persist.recovery_ms"] = 0.0
    metrics["persist.wal_bytes_total"] = 0.0
    return metrics
