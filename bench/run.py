#!/usr/bin/env python3
"""The repo's load benchmark: four fixed-work closed-loop workloads over
the real wire path, pinned to one core.  See bench/README.md.

    python3 bench/run.py                       # all workloads, both passes
    python3 bench/run.py --workload hot_read --seed 3 --seconds 20 --trace 0
    python3 bench/run.py --quick               # smoke check, < 40 s

With ``--workload`` the last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``: the end-to-end metrics
with ``--trace 0``, the per-layer metrics with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import sys
import time
from contextlib import ExitStack, closing

from topology import OUT_DIR, ROOT, SRC, SubprocessTopology, child_env, make_workdir, pin_to_one_cpu

#: Set-ups per untraced run; ``setup_s`` is their median.
SETUPS = 3


def load_contract():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def fingerprint(pinning, seed, seconds, quick):
    doc = {
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "seed": seed,
        "seconds": seconds,
        "quick": quick,
        "hashseed": os.environ.get("PYTHONHASHSEED"),
        "commit": _commit(),
    }
    doc.update(pinning)
    return doc


def _commit():
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as handle:
            ref = handle.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:])) as handle:
                return handle.read().strip()[:12]
        return ref[:12]
    except OSError:
        return None  # a bare checkout, as the driver makes


# ------------------------------------------------------------------- passes


def untraced_pass(workload, setups):
    """Boot the subprocess topology *setups* times, timing each set-up;
    measure the window on the last one.  Returns the run document."""
    import layers
    from loadgen import measure_window, run_ops
    from probe import SpeedProbe, speed

    setup_seconds = []
    raw_setup_seconds = []
    failed = 0
    with SpeedProbe(child_env()) as probe:
        for index in range(setups):
            # Unwinds session first, then topology, on success, failure and
            # Ctrl-C alike.
            with ExitStack() as stack:
                topology = stack.enter_context(
                    SubprocessTopology(make_workdir(f"{workload.name}-{index}"))
                )
                probe_before = probe.measure()
                started = time.perf_counter()
                session = stack.enter_context(closing(workload.boot(topology)))
                failed += workload.prime(session)
                failed += run_ops(session, workload.warmup)
                elapsed = time.perf_counter() - started
                raw_setup_seconds.append(elapsed)
                setup_seconds.append(elapsed * speed(probe_before, probe.measure()))
                if index < setups - 1:
                    continue
                before = layers.snapshot(session, workload)
                summary, window_failed, by_kind = measure_window(
                    session, workload.window, probe
                )
                after = layers.snapshot(session, workload)
                topology.check_alive()
                peak_rss = topology.peak_rss_mb()
                closing_attempted, closing_failed, extra = workload.finish(session)
    wire_bytes = after["bytes"] - before["bytes"]
    per_layer = layers.layer_metrics(before, after, summary, by_kind)
    per_layer["client.raw_setup_s"] = statistics.median(raw_setup_seconds)
    per_layer.update(extra)
    return {
        "attempted": summary["ops"] + closing_attempted,
        "failed": failed + window_failed + closing_failed,
        "ops": summary["ops"],
        "samples_per_slice": summary["samples_per_slice"],
        "highest_supported_percentile": summary["highest_supported_percentile"],
        "per_slice": summary["per_slice"],
        "end_to_end": {
            "setup_s": statistics.median(setup_seconds),
            "ops_per_s": summary["ops_per_s"],
            "latency_p50_ms": summary["latency_p50_ms"],
            "latency_p90_ms": summary["latency_p90_ms"],
            "peak_rss_mb": peak_rss,
            "wire_bytes_per_op": wire_bytes / summary["ops"],
        },
        "per_layer": per_layer,
    }


def run_workload(name, seed, seconds, trace, out_dir):
    """One workload, one or both passes; returns its run document."""
    import tracing
    from workloads import WORKLOADS

    workload = WORKLOADS[name](seed, seconds)
    doc = untraced_pass(workload, SETUPS if trace != 1 else 1)
    if trace != 0:
        traced = tracing.traced_pass(workload, out_dir)
        doc["failed"] += traced["failed"]
        doc["attempted"] += traced["attempted"]
        doc["per_layer"].update(traced["per_layer"])
        doc["trace_file"] = traced["trace_file"]
    return doc


# ----------------------------------------------------------------- printing


def result_line(doc, trace, contract):
    """The driver-facing JSON object for one workload."""
    section = "end_to_end" if trace == 0 else "per_layer"
    metrics = {
        spec["name"]: {"value": float(doc[section][spec["name"]]), "unit": spec["unit"]}
        for spec in contract[section]
    }
    return {
        "correct": doc["failed"] == 0,
        "attempted": doc["attempted"],
        "failed": doc["failed"],
        "metrics": metrics,
    }


def print_report(name, doc, contract):
    print(f"== {name}: ops {doc['ops']}  failed {doc['failed']}  "
          f"samples/slice {doc['samples_per_slice']}  "
          f"highest percentile with >=10 samples beyond: "
          f"p{doc['highest_supported_percentile']:g}")
    for section in ("end_to_end", "per_layer"):
        for spec in contract[section]:
            if spec["name"] in doc[section]:
                value = doc[section][spec["name"]]
                print(f"  {spec['name']:<40} {value:>14.4f} {spec['unit']}")


# --------------------------------------------------------------------- main


def parse_args(argv, contract):
    names = [spec["name"] for spec in contract["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names, default=None,
                        help="run one workload (default: all four)")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=contract["run_seconds"],
                        help="length of the measured window the op counts are sized for")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0: end-to-end metrics only; 1: per-layer metrics only "
                             "(default: both)")
    parser.add_argument("--quick", action="store_true",
                        help="op counts / 20: a smoke check, never compared against bounds")
    parser.add_argument("--out", default=OUT_DIR,
                        help="directory for run JSONs and trace files")
    return parser.parse_args(argv)


def _terminate(_signum, _frame):
    raise SystemExit(143)  # unwinds through the topology's finally blocks


def main():
    if not os.path.isdir(os.path.join(SRC, "repro")):
        sys.stderr.write(f"bench: no program to measure: {SRC}/repro is missing\n")
        return 2
    if os.environ.get("PYTHONHASHSEED") != "0":
        # The traced pass runs the servers inside this process; set iteration
        # order must not vary between runs there either.
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable, os.path.abspath(__file__), *sys.argv[1:]])
    sys.path.insert(0, SRC)
    contract = load_contract()
    args = parse_args(sys.argv[1:], contract)
    signal.signal(signal.SIGTERM, _terminate)

    seconds = args.seconds / 20.0 if args.quick else args.seconds
    print(json.dumps({"fingerprint": fingerprint(
        pin_to_one_cpu(), args.seed, seconds, args.quick)}), flush=True)
    os.makedirs(args.out, exist_ok=True)
    names = [args.workload] if args.workload else [
        spec["name"] for spec in contract["workloads"]
    ]
    failed = 0
    lines = []
    for name in names:
        doc = run_workload(name, args.seed, seconds, args.trace, args.out)
        doc.update(workload=name, seed=args.seed, seconds=seconds, quick=args.quick)
        failed += doc["failed"]
        print_report(name, doc, contract)
        path = os.path.join(args.out, f"run-{name}-seed{args.seed}.json")
        with open(path, "w") as handle:
            json.dump(doc, handle, indent=1, sort_keys=True)
        lines.append(result_line(doc, 0 if args.trace is None else args.trace, contract))
    sys.stdout.flush()
    for line in lines:
        print(json.dumps(line))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
