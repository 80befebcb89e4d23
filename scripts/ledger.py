"""Print the benchmark trajectory from the committed ``BENCH_*.json`` files.

    python3 scripts/ledger.py [DIR]        # DIR defaults to the repo root

One column per ledger file, in PR order; per workload one row of
end-to-end medians (ops/s · p50 · p90 ms) and one of per-layer self time
(``dred.self`` · ``store.self`` · ``server.self`` ms/op), plus the traced
rows one workload is read by: ``trace.unaccounted_share`` for ``hot_read``,
``columnar.self`` · ``prepared.self`` ms/op for ``cold_eval``, and for
``routed_mixed`` its cache layer (``engine.evaluations_per_op`` ·
``cache.invalidations_per_commit`` · ``cache.delta_reuse_ratio``) and its
write path (``client.write_p50_ms`` · ``proc.replica_cpu_ms_per_op`` ·
``proc.router_cpu_ms_per_op``) — the tables ROADMAP.md quotes at each
re-anchor.  A file whose seed or command
differs from the rest is flagged below the table: its numbers are not
comparable.
"""

from __future__ import annotations

import glob
import json
import os
import re
import statistics
import sys
from collections import Counter

WORKLOADS = ("hot_read", "cold_eval", "commit_stream", "routed_mixed")
ROWS = (
    (
        "ops/s · p50 · p90 ms",
        "end_to_end",
        ("ops_per_s", "latency_p50_ms", "latency_p90_ms"),
    ),
    (
        "`dred.self` · `store.self` · `server.self` ms/op",
        "per_layer",
        ("dred.self_ms_per_op", "store.self_ms_per_op", "server.self_ms_per_op"),
    ),
)
#: Rows printed for one workload only.
WORKLOAD_ROWS = {
    "hot_read": (("`trace.unaccounted_share`", "per_layer", ("trace.unaccounted_share",)),),
    "cold_eval": (
        (
            "`columnar.self` · `prepared.self` ms/op",
            "per_layer",
            ("columnar.self_ms_per_op", "prepared.self_ms_per_op"),
        ),
    ),
    "routed_mixed": (
        (
            "`engine.evaluations_per_op` · `cache.invalidations_per_commit` · "
            "`cache.delta_reuse_ratio`",
            "per_layer",
            (
                "engine.evaluations_per_op",
                "cache.invalidations_per_commit",
                "cache.delta_reuse_ratio",
            ),
        ),
        (
            "`client.write_p50_ms` · `proc.replica_cpu_ms_per_op` · "
            "`proc.router_cpu_ms_per_op`",
            "per_layer",
            (
                "client.write_p50_ms",
                "proc.replica_cpu_ms_per_op",
                "proc.router_cpu_ms_per_op",
            ),
        ),
    ),
}


def load(directory):
    """``[(file name, document)]`` of every ``BENCH_<n>.json``, by ``n``."""
    found = []
    for path in glob.glob(os.path.join(directory, "BENCH_*.json")):
        match = re.fullmatch(r"BENCH_(\d+)\.json", os.path.basename(path))
        if match:
            with open(path) as handle:
                found.append((int(match.group(1)), os.path.basename(path), json.load(handle)))
    return [(name, doc) for _n, name, doc in sorted(found)]


def value(doc, workload, section, metric):
    """The median over *doc*'s runs of *workload* of one metric, or None."""
    values = [
        run[section][metric]
        for run in doc.get("runs", ())
        if run.get("workload") == workload and metric in run.get(section, {})
    ]
    return statistics.median(values) if values else None


def cell(doc, workload, section, metrics):
    parts = []
    for metric in metrics:
        number = value(doc, workload, section, metric)
        if number is None:
            parts.append("–")
        else:
            parts.append(f"{number:.0f}" if metric == "ops_per_s" else f"{number:.2f}")
    return " · ".join(parts)


def table(ledger):
    names = [name.removesuffix(".json") for name, _doc in ledger]
    lines = [
        "| workload | metric | " + " | ".join(names) + " |",
        "|---|---|" + "---|" * len(names),
    ]
    for workload in WORKLOADS:
        rows = ROWS + WORKLOAD_ROWS.get(workload, ())
        for index, (label, section, metrics) in enumerate(rows):
            cells = [cell(doc, workload, section, metrics) for _name, doc in ledger]
            first = f"| `{workload}` |" if index == 0 else "| |"
            lines.append(f"{first} {label} | " + " | ".join(cells) + " |")
    return lines


def flags(ledger):
    """One line per file whose seed or command differs from the majority."""
    lines = []
    for label, key in (
        ("seed", lambda doc: doc.get("fingerprint", {}).get("seed")),
        ("command", lambda doc: doc.get("command")),
    ):
        common = Counter(key(doc) for _name, doc in ledger).most_common(1)[0][0]
        for name, doc in ledger:
            if key(doc) != common:
                lines.append(f"{name}: {label} {key(doc)!r}, the others {common!r}")
    return lines


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    directory = argv[0] if argv else os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    ledger = load(directory)
    if not ledger:
        print(f"no BENCH_*.json in {directory}", file=sys.stderr)
        return 1
    for line in table(ledger) + flags(ledger):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
