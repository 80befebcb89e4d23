#!/usr/bin/env python3
"""Compare two directories of run JSONs: the A/A and A/B tool.

    python3 bench/compare.py PARENT_DIR CHANGE_DIR

For every workload × end-to-end metric it prints each side's median and
quartiles, the relative gap (positive = the second directory is worse),
the bound from ``BENCHMARK.json`` and a verdict:

- ``ok``          the change's median is no worse than the parent's by more
                  than the bound;
- ``regressed``   it is;
- ``unresolved``  the parent's own runs spread (distance between quartiles
                  over median) wider than the bound, so the comparison
                  cannot tell — reported, never counted as unchanged.

Exits non-zero when any pairing regressed.  Runs made with ``--quick`` are
refused: they are smoke checks, not measurements.
"""

from __future__ import annotations

import glob
import json
import os
import sys

import stats
from topology import ROOT


def load_runs(directory):
    """{workload: [run documents]} for every ``run-*.json`` in *directory*."""
    runs = {}
    for path in sorted(glob.glob(os.path.join(directory, "run-*.json"))):
        with open(path) as handle:
            doc = json.load(handle)
        if doc.get("quick"):
            raise SystemExit(f"{path}: a --quick run is not a measurement")
        runs.setdefault(doc["workload"], []).append(doc)
    if not runs:
        raise SystemExit(f"{directory}: no run-*.json files")
    return runs


def worsening(parent, change, better):
    """Relative change of the median in the *worse* direction."""
    if better == "higher":
        return (parent - change) / parent
    return (change - parent) / parent


def compare(parent_runs, change_runs, contract):
    """One row (a dict) per workload × end-to-end metric both sides ran."""
    rows = []
    for spec in contract["workloads"]:
        workload = spec["name"]
        if workload not in parent_runs or workload not in change_runs:
            continue
        for metric in contract["end_to_end"]:
            name = metric["name"]
            parent = [run["end_to_end"][name] for run in parent_runs[workload]]
            change = [run["end_to_end"][name] for run in change_runs[workload]]
            row = {
                "workload": workload,
                "metric": name,
                "bound": metric["bound"],
                "parent": stats.quartiles(parent),
                "change": stats.quartiles(change),
                "parent_spread": stats.relative_iqr(parent),
                "change_spread": stats.relative_iqr(change),
                "runs": (len(parent), len(change)),
            }
            row["gap"] = worsening(row["parent"][1], row["change"][1], metric["better"])
            if row["parent_spread"] > row["bound"]:
                row["verdict"] = "unresolved"
            elif row["gap"] > row["bound"]:
                row["verdict"] = "regressed"
            else:
                row["verdict"] = "ok"
            rows.append(row)
    return rows


def render(rows):
    lines = [
        f"{'workload':<14} {'metric':<18} {'parent q1/med/q3':<32} "
        f"{'change q1/med/q3':<32} {'gap':>7} {'bound':>6} {'spread A/B':>13}  verdict"
    ]
    for row in rows:
        lines.append(
            f"{row['workload']:<14} {row['metric']:<18} "
            f"{_triple(row['parent']):<32} {_triple(row['change']):<32} "
            f"{row['gap'] * 100:>+6.1f}% {row['bound'] * 100:>5.0f}% "
            f"{row['parent_spread'] * 100:>5.1f}%/{row['change_spread'] * 100:>4.1f}%  "
            f"{row['verdict']} (n={row['runs'][0]}/{row['runs'][1]})"
        )
    return "\n".join(lines)


def _triple(quartiles):
    return "/".join(f"{value:.4g}" for value in quartiles)


def main():
    argv = sys.argv[1:]
    if len(argv) != 2:
        sys.stderr.write(__doc__)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        contract = json.load(handle)
    rows = compare(load_runs(argv[0]), load_runs(argv[1]), contract)
    print(render(rows))
    verdicts = [row["verdict"] for row in rows]
    print(f"{len(rows)} pairings: {verdicts.count('regressed')} regressed, "
          f"{verdicts.count('unresolved')} unresolved")
    return 1 if "regressed" in verdicts else 0


if __name__ == "__main__":
    sys.exit(main())
