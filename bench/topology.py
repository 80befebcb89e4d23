"""Booting and tearing down the serving topology a workload runs against.

Two implementations of one small interface (``start_node`` /
``start_router`` / ``close``):

- :class:`SubprocessTopology` runs real ``python -m repro serve`` /
  ``repro route`` processes, exactly as an operator would.  Every
  end-to-end number comes from this one.
- :class:`InProcessTopology` builds the same nodes inside the harness
  process (``ServiceServer.start_background()``, ``RouterServer.start()``)
  so the traced pass can wrap spans around their public functions.

Everything a run writes (fact files, WAL directories, server logs) lives in
one scratch directory under ``bench/out/`` and is removed on close.
"""

from __future__ import annotations

import os
import re
import select
import shutil
import signal
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")

_LISTEN = re.compile(r"listening on [\d.]+:(\d+)")
_BOOT_TIMEOUT = 60.0
_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")


class TopologyError(RuntimeError):
    """A topology process failed to start or died."""


def pin_to_one_cpu():
    """Pin this process (and every child it spawns) to one CPU.

    With loadgen and server on different vCPUs every request is two
    halt/wake round trips through the hypervisor, which is both slower and
    far noisier than sharing one core (see README, "noise floor").  Returns
    the fingerprint fields describing what happened.
    """
    try:
        allowed = sorted(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {allowed[-1]})
        return {"pinned": True, "cpu": allowed[-1], "cpus_allowed": len(allowed)}
    except (AttributeError, OSError):
        return {"pinned": False, "cpu": None, "cpus_allowed": os.cpu_count()}


def child_env():
    """The environment every topology process runs under."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONUNBUFFERED"] = "1"
    return env


def make_workdir(tag):
    """A fresh scratch directory for one topology under ``bench/out/``."""
    path = os.path.join(OUT_DIR, f"run-{os.getpid()}-{tag}")
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def process_cpu_seconds(pid):
    """User + system CPU seconds of *pid* from ``/proc/<pid>/stat``."""
    with open(f"/proc/{pid}/stat") as handle:
        text = handle.read()
    # The command name may contain spaces; fields are counted after it.
    fields = text[text.rindex(")") + 2 :].split()
    return (int(fields[11]) + int(fields[12])) / _CLOCK_TICKS


def process_peak_rss_mb(pid):
    """``VmHWM`` (peak resident set) of *pid* in MB."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise TopologyError(f"/proc/{pid}/status has no VmHWM line")


class SubprocessTopology:
    """Real ``repro serve`` / ``repro route`` subprocesses."""

    def __init__(self, workdir):
        self.workdir = workdir
        self.ports = {}
        self._procs = {}
        self._logs = []

    # ------------------------------------------------------------- spawning

    def _spawn(self, name, args):
        log = open(os.path.join(self.workdir, f"{name}-{len(self._logs)}.log"), "wb")
        self._logs.append(log)
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "--log-level", "warning", *args],
            cwd=self.workdir,
            env=child_env(),
            stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            stderr=log,
        )
        self._procs[name] = proc
        self.ports[name] = self._await_banner(name, proc)
        return self.ports[name]

    def _await_banner(self, name, proc):
        deadline = time.monotonic() + _BOOT_TIMEOUT
        buffered = b""
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise TopologyError(f"{name} never announced its port")
            ready, _, _ = select.select([proc.stdout], [], [], remaining)
            if not ready:
                continue
            chunk = os.read(proc.stdout.fileno(), 4096)
            if not chunk:
                raise TopologyError(
                    f"{name} exited before listening (rc={proc.wait()}); "
                    f"see {self.workdir}"
                )
            buffered += chunk
            match = _LISTEN.search(buffered.decode("utf-8", "replace"))
            if match and b"\n" in buffered[match.end() :]:
                return int(match.group(1))

    def start_node(self, name, data=None, data_dir=None, fsync=None, replica_of=None):
        args = ["serve", "--port", "0"]
        if data is not None:
            args += ["--data", data]
        if data_dir is not None:
            args += ["--data-dir", data_dir, "--fsync", fsync]
        if replica_of is not None:
            args += ["--replica-of", f"127.0.0.1:{replica_of}"]
        return self._spawn(name, args)

    def start_router(self, name, primary, replicas):
        args = ["route", "--port", "0", "--primary", f"127.0.0.1:{primary}"]
        for port in replicas:
            args += ["--replica", f"127.0.0.1:{port}"]
        return self._spawn(name, args)

    # ---------------------------------------------------------- observation

    def cpu_seconds(self):
        """{process name: CPU seconds so far} for every live process."""
        return {
            name: process_cpu_seconds(proc.pid)
            for name, proc in self._procs.items()
            if proc.poll() is None
        }

    def peak_rss_mb(self):
        """Sum of ``VmHWM`` over the live topology processes."""
        return sum(
            process_peak_rss_mb(proc.pid)
            for proc in self._procs.values()
            if proc.poll() is None
        )

    def check_alive(self):
        for name, proc in self._procs.items():
            if proc.poll() is not None:
                raise TopologyError(f"{name} died (rc={proc.returncode})")

    # ------------------------------------------------------------- teardown

    def kill(self, name):
        """SIGKILL one process (the durability check's crash) and reap it."""
        proc = self._procs.pop(name)
        proc.kill()
        proc.wait()
        proc.stdout.close()
        del self.ports[name]

    def close(self):
        """SIGTERM → wait → SIGKILL every process, then remove the scratch
        directory.  Safe to call twice and from an exception path."""
        procs, self._procs = self._procs, {}
        for proc in procs.values():
            if proc.poll() is None:
                proc.send_signal(signal.SIGTERM)
        for proc in procs.values():
            try:
                proc.wait(timeout=5)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        for log in self._logs:
            log.close()
        self._logs = []
        self.ports = {}
        shutil.rmtree(self.workdir, ignore_errors=True)

    def __enter__(self):
        return self

    def __exit__(self, *_exc):
        self.close()


class InProcessTopology:
    """The same nodes as threads of the harness process (traced pass)."""

    def __init__(self, workdir):
        self.workdir = workdir
        self.ports = {}
        self._servers = []
        self._routers = []

    def start_node(self, name, data=None, data_dir=None, fsync=None, replica_of=None):
        from repro.graphs.bridge import graph_from_database
        from repro.io import load_database
        from repro.service.server import ServiceConfig, ServiceServer

        config = ServiceConfig(
            data_dir=data_dir,
            fsync=fsync or "interval",
            replica_of=None if replica_of is None else f"127.0.0.1:{replica_of}",
        )
        server = ServiceServer(config=config)
        store = server.service.store
        if data is not None and store.version == 0:
            store.load_graph(graph_from_database(load_database(data)))
        server.start_background()
        self._servers.append(server)
        self.ports[name] = server.port
        return server.port

    def start_router(self, name, primary, replicas):
        from repro.replication.router import RouterServer

        router = RouterServer(
            f"127.0.0.1:{primary}", [f"127.0.0.1:{port}" for port in replicas]
        ).start()
        self._routers.append(router)
        self.ports[name] = router.port
        return router.port

    def close(self):
        routers, self._routers = self._routers, []
        servers, self._servers = self._servers, []
        for router in routers:
            router.stop()
        # Replicas first: a replica's tail long-poll is parked on the primary.
        for server in reversed(servers):
            server.stop()
        self.ports = {}
        shutil.rmtree(self.workdir, ignore_errors=True)

    def __enter__(self):
        return self

    def __exit__(self, *_exc):
        self.close()
