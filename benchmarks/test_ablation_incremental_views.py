"""abl5: incremental view maintenance vs full recomputation.

A materialized transitive-closure view over a growing chain: maintaining it
through delete-and-rederive (:mod:`repro.datalog.dred`, the path
``MaterializedView.apply`` takes) after one edge insertion should beat
recomputing the whole closure, and the gap should widen with the database
size.
"""

import pytest

from repro.datalog.database import Database
from repro.datalog.dred import MaintenancePlan
from repro.datalog.engine import evaluate
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


def maintained(benchmark, size, inserts):
    """Time ``plan.maintain`` over *inserts* (one delta each) on a freshly
    evaluated chain of *size* per round — maintenance is in place, so a
    round must not see the previous round's insertions."""
    plan = MaintenancePlan(PROGRAM)
    edb = chain_edb(size)

    def setup():
        return (plan.evaluate(edb),), {}

    def maintain(state):
        for delta_plus in inserts:
            plan.maintain(state, delta_plus=delta_plus)
        return state

    return benchmark.pedantic(maintain, setup=setup, rounds=10)


@pytest.mark.parametrize("size", [40, 80])
def test_abl5_incremental_one_edge(benchmark, size):
    # The new edge extends the chain at the far end; the delta touches
    # every prefix, the worst case for an insertion.
    updated = maintained(benchmark, size, [{"e": [(f"n{size}", f"n{size+1}")]}])
    assert ("n0", f"n{size+1}") in updated.facts("tc")


@pytest.mark.parametrize("size", [40, 80])
def test_abl5_full_recompute(benchmark, size):
    edb = chain_edb(size + 1)

    def recompute():
        return evaluate(PROGRAM, edb)

    result = benchmark(recompute)
    assert ("n0", f"n{size+1}") in result.facts("tc")


def test_abl5_incremental_matches_recompute(benchmark):
    size = 30
    state = maintained(
        benchmark,
        size,
        [{"e": [(f"n{size+i}", f"n{size+i+1}")]} for i in range(3)],
    )
    expected = evaluate(PROGRAM, chain_edb(size + 3), "naive")
    assert state.facts("tc") == expected.facts("tc")
    report("abl5 |tc| after maintenance", [(len(state.facts("tc")),)])
