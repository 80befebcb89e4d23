#!/usr/bin/env python
"""CI smoke test for the telemetry endpoint.

Boots ``repro serve --metrics-port 0`` as a real subprocess, drives a few
requests through a :class:`ServiceClient`, scrapes ``/metrics``, lints
every line of the exposition document against the text format, checks the
required series are present, and verifies ``/healthz`` reports ok.

Run from the repository root::

    PYTHONPATH=src python scripts/metrics_smoke.py

Exits non-zero (with a diagnostic on stderr) on any failure.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import time
import urllib.request

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

LISTEN = re.compile(r"listening on [\d.]+:(\d+)")
TELEMETRY = re.compile(r"telemetry on http://[\d.]+:(\d+)/metrics")

# One exposition line: a HELP/TYPE comment or `name{labels} value`.
EXPOSITION_LINE = re.compile(
    r"^(# (HELP|TYPE) [a-zA-Z_:][a-zA-Z0-9_:]*( .*)?"
    r"|[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^{}]*\})? (-?[0-9.eE+-]+|NaN|\+Inf|-Inf))$"
)

REQUIRED = [
    'repro_request_seconds_bucket{le="+Inf",op="datalog"}',
    "repro_request_seconds_sum",
    "repro_requests_total{op=",
    "repro_requests_on_loop_total",
    "repro_result_cache_hits_total",
    "repro_in_flight_requests",
    "repro_store_version",
    "repro_store_retained_records",
    "repro_store_base_version",
    'repro_store_facts{predicate="link"}',
    'repro_store_churn_rows_total{predicate="link"}',
    'repro_gc_collections_total{generation="0"}',
    'repro_gc_collected_total{generation="2"}',
    'repro_gc_uncollectable_total{generation="1"}',
]


#: Reads of one already-answered query: every one must be answered on the
#: event loop from the result cache, none handed to a worker.
RESIDENT_READS = 50
RESIDENT_DELTAS = {
    "repro_requests_on_loop_total": RESIDENT_READS,
    "repro_result_cache_hits_total": RESIDENT_READS,
    'repro_phase_seconds_count{phase="queue_wait"}': 0,
}


def fail(message):
    sys.stderr.write(f"metrics_smoke: FAIL: {message}\n")
    sys.exit(1)


def scrape(metrics_port):
    """One ``/metrics`` document.  Scrapes are served by a side thread, so
    they add nothing to the request counters they read."""
    url = f"http://127.0.0.1:{metrics_port}/metrics"
    return urllib.request.urlopen(url, timeout=10).read().decode()


def sample(body, series):
    """The value of the exposition sample *series* (0 when absent)."""
    for line in body.splitlines():
        if line.startswith(series + " "):
            return float(line.rsplit(" ", 1)[1])
    return 0.0


def check_resident_reads(before, after):
    """Counts only, no timing: the resident reads moved exactly these."""
    for series, expected in RESIDENT_DELTAS.items():
        moved = sample(after, series) - sample(before, series)
        if moved != expected:
            fail(f"{RESIDENT_READS} resident reads moved {series} by {moved:g}, expected {expected}")


def wait_for_ports(proc, deadline):
    port = metrics_port = None
    while time.time() < deadline:
        line = proc.stdout.readline()
        if not line:
            fail(f"server exited early (rc={proc.poll()})")
        sys.stdout.write(line)
        match = LISTEN.search(line)
        if match:
            port = int(match.group(1))
        match = TELEMETRY.search(line)
        if match:
            metrics_port = int(match.group(1))
        if port and metrics_port:
            return port, metrics_port
    fail("timed out waiting for the server to announce its ports")


def main():
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"), PYTHONUNBUFFERED="1")
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve",
            "--port", "0", "--metrics-port", "0", "--slow-ms", "0",
        ],
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    try:
        port, metrics_port = wait_for_ports(proc, time.time() + 20)

        from repro.service.client import ServiceClient

        with ServiceClient(port=port) as client:
            client.update(edges=[["a", "link", "b"], ["b", "link", "c"]])
            program = "hop(X, Y) :- link(X, Y)."
            client.datalog(program, predicate="hop")
            before = scrape(metrics_port)
            for _ in range(RESIDENT_READS):  # result-cache hits
                client.datalog(program, predicate="hop")
            body = scrape(metrics_port)
            check_resident_reads(before, body)
            slow = client.slowlog()
            if not slow["entries"]:
                fail("slow_ms=0 recorded no slowlog entries")
            if not slow["entries"][0].get("request_id"):
                fail("slowlog entry has no request_id")

        if not body.endswith("\n"):
            fail("exposition document must end with a newline")
        for line in body.rstrip("\n").splitlines():
            if not EXPOSITION_LINE.match(line):
                fail(f"invalid exposition line: {line!r}")
        for needle in REQUIRED:
            if needle not in body:
                fail(f"required series missing from /metrics: {needle}")

        health = urllib.request.urlopen(
            f"http://127.0.0.1:{metrics_port}/healthz", timeout=10
        )
        if health.status != 200:
            fail(f"/healthz returned {health.status}")
        doc = json.loads(health.read())
        if doc.get("status") != "ok":
            fail(f"/healthz status is {doc.get('status')!r}")

        print(
            f"metrics_smoke: OK — {len(body.splitlines())} exposition lines, "
            f"{len(slow['entries'])} slowlog entries, healthz ok"
        )
        return 0
    finally:
        proc.terminate()
        try:
            proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            proc.kill()


if __name__ == "__main__":
    sys.exit(main())
