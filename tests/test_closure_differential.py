"""Randomized differential tests over the five transitive-closure kernels.

Every kernel in :mod:`repro.graphs.closure` must compute the same relation;
any disagreement on any input is a bug in at least one of them.  Random
graphs are drawn from seeded generators so failures replay exactly, and a
dead-simple per-source BFS serves as the independent reference.
"""

from __future__ import annotations

import random

import pytest

from repro.datalog.database import Database
from repro.datalog.engine import Engine
from repro.datalog.parser import parse_program
from repro.graphs.closure import closure_methods, transitive_closure

KERNELS = closure_methods()

TC_PROGRAM = parse_program(
    "tc(X,Y) :- edge(X,Y).\ntc(X,Y) :- edge(X,Z), tc(Z,Y)."
)


def bfs_reference(pairs):
    """Per-source BFS: the obviously-correct O(V·E) reference closure."""
    successors = {}
    for source, target in pairs:
        successors.setdefault(source, set()).add(target)
    closure = set()
    for start in successors:
        frontier = [start]
        seen = set()
        while frontier:
            node = frontier.pop()
            for nxt in successors.get(node, ()):
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
        closure.update((start, node) for node in seen)
    return closure


def random_graph(rng, nodes, density, dag=False, self_loops=False):
    pairs = set()
    for source in range(nodes):
        for target in range(nodes):
            if source == target and not self_loops:
                continue
            if dag and source >= target:
                continue
            if rng.random() < density:
                pairs.add((source, target))
    return pairs


def assert_all_kernels_agree(pairs):
    expected = bfs_reference(pairs)
    for method in KERNELS:
        assert transitive_closure(pairs, method=method) == expected, method
    # The engine backends must agree with the closure kernels too: the same
    # TC program through the naive walker and the columnar kernels.
    edb = Database.from_facts({"edge": pairs})
    for method in ("naive", "columnar"):
        result = Engine(method=method).evaluate(TC_PROGRAM, edb)
        assert result.facts("tc") == expected, method


def test_kernel_registry_is_complete():
    assert set(KERNELS) == {"naive", "seminaive", "warshall", "squaring", "scc"}


def test_empty_graph():
    for method in KERNELS:
        assert transitive_closure(set(), method=method) == set()


def test_single_self_loop():
    assert_all_kernels_agree({("a", "a")})


def test_two_cycle():
    assert_all_kernels_agree({("a", "b"), ("b", "a")})


@pytest.mark.parametrize("seed", range(8))
def test_random_cyclic_graphs(seed):
    rng = random.Random(seed)
    nodes = rng.randint(2, 14)
    pairs = random_graph(rng, nodes, density=rng.uniform(0.05, 0.4))
    assert_all_kernels_agree(pairs)


@pytest.mark.parametrize("seed", range(100, 106))
def test_random_dags(seed):
    rng = random.Random(seed)
    nodes = rng.randint(2, 14)
    pairs = random_graph(rng, nodes, density=rng.uniform(0.1, 0.5), dag=True)
    assert_all_kernels_agree(pairs)


@pytest.mark.parametrize("seed", range(200, 206))
def test_random_graphs_with_self_loops(seed):
    rng = random.Random(seed)
    nodes = rng.randint(1, 10)
    pairs = random_graph(
        rng, nodes, density=rng.uniform(0.1, 0.5), self_loops=True
    )
    assert_all_kernels_agree(pairs)


def test_disconnected_components():
    pairs = {("a", "b"), ("b", "a"), ("x", "y"), ("y", "z")}
    assert_all_kernels_agree(pairs)
    closure = transitive_closure(pairs)
    assert ("a", "z") not in closure and ("x", "a") not in closure
