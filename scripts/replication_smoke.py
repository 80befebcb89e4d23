#!/usr/bin/env python
"""CI smoke test for the replication subsystem.

Boots one primary, two replicas, and one router — all as real
subprocesses, exactly as an operator would — then asserts the
properties the subsystem promises:

- **read-your-writes through the router**: a write followed immediately
  by a read on the same router connection sees the written data, even
  though the read is served by a replica that may not have applied the
  commit yet when the read arrives (the router attaches a min-version
  token; the replica waits).
- **bounded convergence**: shortly after the write burst stops, every
  replica reports ``lag_versions == 0`` and the exact primary version.
- **forwarding**: a routed closure read carries the primary's result,
  and a routed parse error keeps the node's ``kind``.
- **failover**: after the primary is SIGKILLed and a replica is promoted
  (``repro promote``), the same router connection resumes both writes and
  reads with zero wrong answers, and a fresh replica of the promoted
  primary converges (the rejoin path).

Run from the repository root::

    PYTHONPATH=src python scripts/replication_smoke.py

Exits non-zero (with a diagnostic on stderr) on any failure.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

LISTEN = re.compile(r"listening on [\d.]+:(\d+)")

WRITES = 30
FAILOVER_WRITES = 10
CONVERGE_SECONDS = 30

PROCS = []


def fail(message):
    sys.stderr.write(f"replication_smoke: FAIL: {message}\n")
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


def main():
    from repro.errors import ReadOnlyError, ServiceError
    from repro.service.client import ServiceClient

    primary_proc, primary_port = spawn("serve", "--port", "0")
    address = f"127.0.0.1:{primary_port}"
    replica_procs = []
    replica_ports = []
    for _ in range(2):
        proc, port = spawn(
            "serve", "--port", "0", "--replica-of", address,
            "--repl-wait-ms", "500", "--version-wait-ms", "5000",
        )
        replica_procs.append(proc)
        replica_ports.append(port)
    _router, router_port = spawn(
        "route", "--port", "0", "--primary", address,
        *(arg for port in replica_ports for arg in ("--replica", f"127.0.0.1:{port}")),
    )

    program = "tc(X,Y) :- e(X,Y).\ntc(X,Y) :- tc(X,Z), e(Z,Y)."
    with ServiceClient(port=router_port, timeout=30) as client:
        # Write burst through the router; after every single write, a read
        # on the same connection must already see it (read-your-writes).
        for i in range(WRITES):
            version = client.update(edges=[[f"n{i}", "e", f"n{i + 1}"]])
            if version != i + 1:
                fail(f"write {i} acknowledged version {version}, expected {i + 1}")
            rows = client.datalog(program)["tc"]
            if (f"n{i}", f"n{i + 1}") not in rows:
                fail(f"read after write {i} is missing edge n{i}->n{i + 1}")
        if ("n0", f"n{WRITES}") not in client.datalog(program)["tc"]:
            fail("transitive closure over the full chain is missing")

    # Writes sent straight to a replica must be rejected with the typed error.
    with ServiceClient(port=replica_ports[0], timeout=10) as reader:
        try:
            reader.update(edges=[["x", "e", "y"]])
        except ReadOnlyError as exc:
            if address not in str(exc):
                fail(f"read_only error does not name the primary: {exc}")
        else:
            fail("replica accepted a write")

    # Both replicas converge to the primary's exact version with zero lag.
    deadline = time.time() + CONVERGE_SECONDS
    for port in replica_ports:
        with ServiceClient(port=port, timeout=10) as reader:
            while True:
                status = reader.stats()["replication"]
                if (
                    status["applied_version"] == WRITES
                    and status["lag_versions"] == 0
                ):
                    break
                if time.time() > deadline:
                    fail(f"replica :{port} stuck at {status}")
                time.sleep(0.1)

    # The router forwards the node's answer: a routed closure read carries
    # the primary's result, and a node's parse error keeps its own kind.
    with ServiceClient(port=router_port, timeout=30) as client:
        with ServiceClient(port=primary_port, timeout=30) as direct:
            expected = direct.call("datalog", query=program)["result"]
        if client.call("datalog", query=program)["result"] != expected:
            fail("a routed closure read differs from the primary's answer")
        try:
            client.call("datalog", query="p(X :- e(X, Y).")
        except ServiceError as exc:
            kind = exc.response["error"]["kind"]
            if kind != "ParseError":
                fail(f"a routed parse error came back as kind {kind!r}")
        else:
            fail("the router answered a malformed program")

    # ---- failover: SIGKILL the primary, promote replica 1, keep serving ----
    primary_proc.kill()
    primary_proc.wait(timeout=10)
    # Replica 2 is retired with its primary (an operator would retarget it);
    # the rejoin path is exercised below with a fresh replica instead.
    replica_procs[1].terminate()
    replica_procs[1].wait(timeout=10)

    promoted_port = replica_ports[0]
    promote = subprocess.run(
        [sys.executable, "-m", "repro", "promote", "--port", str(promoted_port)],
        cwd=ROOT,
        env=dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src")),
        capture_output=True,
        text=True,
        timeout=30,
    )
    if promote.returncode != 0 or '"promoted": true' not in promote.stdout:
        fail(f"repro promote failed: rc={promote.returncode} {promote.stdout}"
             f"{promote.stderr}")

    # The router never restarted: its next write hits the dead primary,
    # fails over to the promoted replica, and every read-after-write must
    # still see its own data — zero wrong answers across the transition.
    total = WRITES + FAILOVER_WRITES
    with ServiceClient(port=router_port, timeout=30) as client:
        for i in range(WRITES, total):
            version = client.update(edges=[[f"n{i}", "e", f"n{i + 1}"]])
            if version != i + 1:
                fail(f"post-failover write {i} acknowledged version {version}, "
                     f"expected {i + 1}")
            rows = client.datalog(program)["tc"]
            if (f"n{i}", f"n{i + 1}") not in rows:
                fail(f"post-failover read {i} is missing edge n{i}->n{i + 1}")
        if ("n0", f"n{total}") not in client.datalog(program)["tc"]:
            fail("transitive closure across the failover boundary is missing")

    # Rejoin: a fresh replica of the PROMOTED primary (the role a recovered
    # old primary would take) bootstraps under the new epoch and converges.
    promoted_address = f"127.0.0.1:{promoted_port}"
    _proc, rejoin_port = spawn(
        "serve", "--port", "0", "--replica-of", promoted_address,
        "--repl-wait-ms", "500",
    )
    with ServiceClient(port=promoted_port, timeout=10) as reader:
        promoted_epoch = reader.stats()["store"]["epoch"]
    deadline = time.time() + CONVERGE_SECONDS
    with ServiceClient(port=rejoin_port, timeout=10) as reader:
        while True:
            status = reader.stats()["replication"]
            if (
                status["applied_version"] == total
                and status["lag_versions"] == 0
                and status["primary_epoch"] == promoted_epoch
            ):
                break
            if time.time() > deadline:
                fail(f"rejoined replica :{rejoin_port} stuck at {status}")
            time.sleep(0.1)

    for proc in PROCS:
        if proc.poll() is None:
            proc.terminate()
    for proc in PROCS:
        try:
            proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            proc.kill()
    print(
        f"replication_smoke: OK ({WRITES} read-your-writes round trips, "
        f"2 replicas converged, replica rejected the write, routed answers "
        f"and errors are the nodes', "
        f"{FAILOVER_WRITES} writes+reads across promote/failover, "
        f"rejoined replica converged under epoch {promoted_epoch})"
    )


if __name__ == "__main__":
    main()
