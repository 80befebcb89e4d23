#!/usr/bin/env python
"""CI smoke test for live query subscriptions.

Boots one server as a real subprocess, then runs N subscriber clients
concurrently with two writer connections (so the store's ordered commit
delivery is exercised over the wire) and asserts the contract the
subsystem promises:

- **no missed versions**: every subscriber sees one delta frame per
  answer-changing commit, with strictly contiguous versions starting just
  past its snapshot — deltas are never silently skipped;
- **convergence**: after the writer stops, every subscriber's locally
  materialized result set equals a fresh query against the server, and its
  version equals the store's final version;
- **shared registry**: the server reports one shared view and exactly one
  maintenance pass per commit, however many subscribers are attached;
- **CLI**: ``repro watch --count`` subscribes, streams one delta, exits 0.

Run from the repository root::

    PYTHONPATH=src python scripts/subscription_smoke.py

Exits non-zero (with a diagnostic on stderr) on any failure.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
import tempfile
import threading
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

LISTEN = re.compile(r"listening on [\d.]+:(\d+)")

SUBSCRIBERS = 6
WRITERS = 2
COMMITS = 40  # in total, split evenly between the writers

QUERY = "define (X) -[reach]-> (Y) { (X) -[link+]-> (Y); }"

PROCS = []


def fail(message):
    sys.stderr.write(f"subscription_smoke: FAIL: {message}\n")
    for proc in PROCS:
        if proc.poll() is None:
            proc.kill()
    sys.exit(1)


def spawn(*args):
    """Start a ``repro`` subcommand; returns (process, announced port)."""
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"), PYTHONUNBUFFERED="1")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", *args],
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    PROCS.append(proc)
    deadline = time.time() + 30
    while time.time() < deadline:
        line = proc.stdout.readline()
        if not line:
            fail(f"{args[0]} exited before listening (rc={proc.poll()})")
        sys.stdout.write(line)
        match = LISTEN.search(line)
        if match:
            return proc, int(match.group(1))
    fail(f"{args[0]} never announced its port")


class Writer(threading.Thread):
    """One writer connection: its share of the commits, on its own chain.
    Every commit changes the answer (adds extend the chain; every 5th
    commit also deletes the previous chain edge)."""

    def __init__(self, port, index):
        super().__init__(daemon=True)
        self.port = port
        self.index = index
        self.versions = []
        self.error = None

    def run(self):
        from repro.service.client import ServiceClient

        chain = f"c{self.index}."
        try:
            with ServiceClient(port=self.port, timeout=30) as client:
                for i in range(COMMITS // WRITERS):
                    change = {"edges": [[f"{chain}{i}", "link", f"{chain}{i + 1}"]]}
                    if i and i % 5 == 0:
                        change["remove_edges"] = [
                            [f"{chain}{i - 1}", "link", f"{chain}{i}"]
                        ]
                    self.versions.append(client.update(**change))
        except Exception as exc:  # noqa: BLE001 — surfaced by the main thread
            self.error = exc


class Watcher(threading.Thread):
    """One subscriber client: applies every event, records the versions."""

    def __init__(self, port, final_version):
        super().__init__(daemon=True)
        self.port = port
        self.final_version = final_version
        self.versions = []
        self.snapshot_version = None
        self.rows = None
        self.resyncs = 0
        self.error = None

    def run(self):
        from repro.service.client import ServiceClient

        try:
            with ServiceClient(port=self.port, timeout=60) as client:
                handle = client.subscribe(QUERY, predicate="reach")
                self.snapshot_version = handle.version
                deadline = time.time() + 60
                while handle.version < self.final_version:
                    event = handle.next_event(timeout=1.0)
                    if event is None:
                        if time.time() > deadline:
                            raise RuntimeError(
                                f"stuck at version {handle.version}, "
                                f"waiting for {self.final_version}"
                            )
                        continue
                    if event["type"] == "delta":
                        self.versions.append(event["version"])
                    elif event["type"] == "snapshot":
                        self.resyncs += 1
                    else:
                        raise RuntimeError(f"subscription closed: {event['reason']}")
                self.rows = handle.result("reach")
                handle.unsubscribe()
        except Exception as exc:  # noqa: BLE001 — surfaced by the main thread
            self.error = exc


def main():
    from repro.service.client import ServiceClient

    _proc, port = spawn("serve", "--port", "0")

    # Seed two edges so every subscriber snapshot is non-trivial.
    with ServiceClient(port=port, timeout=30) as writer:
        writer.update(edges=[["a", "link", "b"], ["b", "link", "c"]])
        base_version = writer.stats()["store"]["version"]

    # An anchor subscription owned by this thread keeps the shared view
    # alive (and its counters readable) after the watcher threads finish
    # and unsubscribe.
    anchor = ServiceClient(port=port, timeout=60)
    anchor.subscribe(QUERY, predicate="reach")

    final_version = base_version + COMMITS
    watchers = [Watcher(port, final_version) for _ in range(SUBSCRIBERS)]
    for watcher in watchers:
        watcher.start()

    # Wait until every subscriber is registered so all of them must see the
    # full commit sequence.
    with ServiceClient(port=port, timeout=30) as writer:
        deadline = time.time() + 30
        while True:
            stats = writer.stats()["subs"]
            if stats["active_subscriptions"] == SUBSCRIBERS + 1:
                break
            if time.time() > deadline:
                fail(f"subscribers never registered: {stats}")
            time.sleep(0.05)
        if stats["shared_views"] != 1:
            fail(f"expected one shared view, got {stats['shared_views']}")

        writers = [Writer(port, index) for index in range(WRITERS)]
        for thread in writers:
            thread.start()
        for thread in writers:
            thread.join(timeout=90)
            if thread.is_alive() or thread.error is not None:
                fail(f"writer {thread.index} did not finish: {thread.error!r}")
            # An acknowledgement names the store version the reply was
            # built at: its own commit's or, behind the other writer, later.
            if thread.versions != sorted(set(thread.versions)) or not (
                base_version < thread.versions[0]
                and thread.versions[-1] <= final_version
            ):
                fail(f"writer {thread.index} acknowledged {thread.versions}")

        expected = writer.graphlog(QUERY, predicate="reach")["reach"]
        stats = writer.stats()
        if stats["store"]["version"] != final_version:
            fail(f"store at version {stats['store']['version']}, not {final_version}")
        (view_stats,) = stats["subs"]["views"].values()
        if view_stats["maintenance_passes"] != COMMITS:
            fail(
                f"expected {COMMITS} maintenance passes (one per commit, "
                f"shared by {SUBSCRIBERS} subscribers), got "
                f"{view_stats['maintenance_passes']}"
            )
        if view_stats["maintenance_errors"] or stats["store"]["subscriber_failures"]:
            fail(
                f"commit hooks failed: {view_stats['maintenance_errors']} maintenance "
                f"errors, {stats['store']['subscriber_failures']} subscriber failures"
            )

    for watcher in watchers:
        watcher.join(timeout=90)
        if watcher.is_alive():
            fail("subscriber thread did not finish")
        if watcher.error is not None:
            fail(f"subscriber failed: {watcher.error!r}")
        if watcher.rows != expected:
            fail(
                f"subscriber diverged: {len(watcher.rows)} rows locally, "
                f"{len(expected)} on the server"
            )
        if watcher.resyncs == 0:
            wanted = list(range(watcher.snapshot_version + 1, final_version + 1))
            if watcher.versions != wanted:
                fail(
                    f"missed versions: saw {watcher.versions[:5]}... "
                    f"({len(watcher.versions)} deltas), wanted "
                    f"{len(wanted)} contiguous from {wanted[0]}"
                )
    anchor.close()

    # The CLI path: watch one delta and exit cleanly.
    with tempfile.NamedTemporaryFile("w", suffix=".gl", delete=False) as handle:
        handle.write(QUERY)
        query_path = handle.name
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"), PYTHONUNBUFFERED="1")
    watch = subprocess.Popen(
        [sys.executable, "-m", "repro", "watch", query_path,
         "--port", str(port), "--predicate", "reach", "--count", "1"],
        cwd=ROOT, env=env, stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT, text=True,
    )
    PROCS.append(watch)
    deadline = time.time() + 30
    while "subscribed #" not in (watch.stdout.readline() or ""):
        if time.time() > deadline or watch.poll() is not None:
            fail("repro watch never subscribed")
    with ServiceClient(port=port, timeout=30) as writer:
        writer.update(edges=[["z1", "link", "z2"]])
    out, _ = watch.communicate(timeout=30)
    if watch.returncode != 0:
        fail(f"repro watch exited {watch.returncode}: {out}")
    if "+ reach" not in out:
        fail(f"repro watch printed no delta: {out!r}")
    os.unlink(query_path)

    for proc in PROCS:
        if proc.poll() is None:
            proc.terminate()
    print(
        f"subscription_smoke: OK — {SUBSCRIBERS} subscribers x {COMMITS} "
        f"commits from {WRITERS} writers, zero missed versions, one maintenance "
        f"pass per commit"
    )


if __name__ == "__main__":
    main()
