"""A speed probe: how fast is this machine *right now*?

The sandbox's speed drifts by ±20 % over minutes and by as much between
one-second stretches (neighbours on the host contend for the memory system;
there is no steal time to read).  Two sets of runs of the same code then
disagree by more than any useful bound.  A pure arithmetic spin does not
track the slowdown; work that leans on the memory system and on the
kernel's socket path does (measured: r = 0.9 between this probe and a run's
time per op, see README).

One :meth:`SpeedProbe.measure` is a fixed piece of such work, owned by the
harness and independent of everything under ``src/``:

- build, sort, group and JSON-round-trip a few thousand small tuples
  (interpreter + allocator + cache traffic), then
- a burst of JSON request/response round trips over loopback TCP with an
  echo child pinned to the same core (system calls, context switches).

The harness measures it at every slice boundary and scales each slice's
timings to what they would have been at :data:`REFERENCE_SECONDS` per
probe.  A change to the program cannot move the probe, so a ratio of two
commits' scaled numbers is the ratio of their speeds.
"""

from __future__ import annotations

import json
import os
import socket
import statistics
import subprocess
import sys
import time

#: The probe's duration on the reference sandbox in its quiet state; the
#: scale that keeps normalised numbers readable as that sandbox's ms.  A
#: constant of the benchmark: changing it rescales every timing metric.
REFERENCE_SECONDS = 0.0108

#: Bursts per measurement.  The speed plateaus being tracked last seconds;
#: what disturbs a single 12 ms burst (an interrupt, a kernel thread) lasts
#: less than one, so the median burst is the plateau.
_BURSTS = 3

_TUPLES = 6000
_ROUND_TRIPS = 48
_ROWS = [[f"city{i % 40}", f"city{i // 40}"] for i in range(400)]


def echo_server():
    """The probe's echo child: answer each JSON line with a small (or,
    every fourth time, a 400-row) JSON document."""
    listener = socket.socket()
    listener.bind(("127.0.0.1", 0))
    listener.listen(1)
    print(listener.getsockname()[1], flush=True)
    connection, _ = listener.accept()
    listener.close()
    with connection, connection.makefile("rwb") as stream:
        for line in stream:
            message = json.loads(line)
            rows = _ROWS if message["big"] else _ROWS[:8]
            reply = {"id": message["id"], "ok": True, "result": {"rows": rows}}
            stream.write(
                (json.dumps(reply, separators=(",", ":"), sort_keys=True) + "\n").encode()
            )
            stream.flush()


class SpeedProbe:
    """Owns the echo child; :meth:`measure` times one probe."""

    def __init__(self, env):
        self._child = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__)],
            env=env,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE,
        )
        try:
            port = int(self._child.stdout.readline())
            self._sock = socket.create_connection(("127.0.0.1", port), timeout=10.0)
        except (ValueError, OSError):
            self._child.kill()
            self._child.wait()
            self._child.stdout.close()
            raise
        self._stream = self._sock.makefile("rwb")
        self.measure()  # the first bursts pay for imports and cold caches

    def measure(self):
        """Seconds one probe burst takes now (median of a few)."""
        return statistics.median(self._burst() for _ in range(_BURSTS))

    def _burst(self):
        started = time.perf_counter()
        rows = {(i % 97, f"n{i % 389}") for i in range(_TUPLES)}
        ordered = sorted(rows)
        groups = {}
        for key, name in ordered:
            groups.setdefault(key, []).append(name)
        json.loads(json.dumps(ordered))
        stream = self._stream
        for i in range(_ROUND_TRIPS):
            stream.write(json.dumps({"id": i, "big": i % 4 == 0}).encode() + b"\n")
            stream.flush()
            json.loads(stream.readline())
        return time.perf_counter() - started

    def close(self):
        self._stream.close()
        self._sock.close()
        try:
            self._child.wait(timeout=5)
        except subprocess.TimeoutExpired:
            self._child.kill()
            self._child.wait()
        self._child.stdout.close()

    def __enter__(self):
        return self

    def __exit__(self, *_exc):
        self.close()


def speed(before, after):
    """The machine's speed over an interval bracketed by two probes, as a
    multiple of the reference speed (below 1 = slower than reference)."""
    return REFERENCE_SECONDS / ((before + after) / 2.0)


if __name__ == "__main__":
    echo_server()
