"""abl6: DRed deletion maintenance vs full recomputation.

The abl5 ablation shows semi-naive delta evaluation winning on *insertions*;
this one covers the other half of view maintenance.  A transitive-closure
view over a long chain loses one edge: delete-and-rederive should repair
the materialization in time proportional to the
delta's consequences, while recomputation pays for the whole closure again.
The headline test asserts the claimed gap — DRed at least 5x faster than
recomputing, median over repeated runs — on a chain of n >= 2000 edges.
"""

import statistics
import time

import pytest

from repro.datalog.database import Database
from repro.datalog.dred import MaintenancePlan
from repro.datalog.engine import Engine
from repro.datalog.parser import parse_program

from conftest import report

PROGRAM = parse_program(
    """
    tc(X, Y) :- e(X, Y).
    tc(X, Y) :- e(X, Z), tc(Z, Y).
    """
)


def chain_edb(n):
    db = Database()
    db.add_facts("e", [(f"n{i}", f"n{i+1}") for i in range(n)])
    return db


def timed(fn):
    start = time.perf_counter()
    value = fn()
    return time.perf_counter() - start, value


@pytest.mark.parametrize("size", [200, 400])
def test_abl6_dred_delete_readd_cycle(benchmark, size):
    """One delete + one re-insert of the chain's last edge, maintained."""
    edb = chain_edb(size)
    plan = MaintenancePlan(PROGRAM)
    state = plan.evaluate(edb)
    last = {"e": [(f"n{size-1}", f"n{size}")]}

    def cycle():
        plan.maintain(state, None, last)
        plan.maintain(state, last, None)

    benchmark(cycle)
    assert ("n0", f"n{size}") in state.facts("tc")


def test_abl6_dred_beats_recompute_on_single_edge_deletion():
    """The acceptance claim: >= 5x median speedup at n = 2000."""
    size = 2000
    edb = chain_edb(size)
    plan = MaintenancePlan(PROGRAM)
    state = plan.evaluate(edb)
    last = {"e": [(f"n{size-1}", f"n{size}")]}

    dred_times = []
    for _ in range(3):
        elapsed, _ = timed(lambda: plan.maintain(state, None, last))
        dred_times.append(elapsed)
        plan.maintain(state, last, None)  # restore for the next run
    dred_median = statistics.median(dred_times)

    recompute_time, recomputed = timed(
        lambda: Engine(check_safety=False).evaluate(PROGRAM, edb)
    )
    assert state.facts("tc") == recomputed.facts("tc")

    # Correctness of the deletion itself: the far pair disappears, the
    # surviving prefix closure does not.
    plan.maintain(state, None, last)
    tc = state.facts("tc")
    assert ("n0", f"n{size}") not in tc
    assert ("n0", f"n{size-1}") in tc

    speedup = recompute_time / dred_median
    report(
        f"abl6 single-edge deletion, chain n={size}",
        [
            ("dred_median_s", round(dred_median, 4)),
            ("recompute_s", round(recompute_time, 4)),
            ("speedup", round(speedup, 1)),
        ],
    )
    assert speedup >= 5.0
