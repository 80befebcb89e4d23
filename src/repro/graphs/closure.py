"""Transitive-closure kernels.

The paper argues (Section 6) that GraphLog implementations "can benefit from
the existing work on transitive closure computation"; this module provides
five interchangeable kernels over a set of pairs, compared in the ``abl2``
ablation benchmark:

- ``naive``: iterate ``T = T ∪ T∘E`` from scratch each round;
- ``seminaive``: delta iteration (only new pairs are re-joined);
- ``warshall``: Floyd–Warshall boolean closure over the node set;
- ``squaring``: logarithmic rounds of ``T = T ∪ T∘T`` ("smart" closure);
- ``scc``: strongly connected components (the iterative Tarjan of
  :func:`~repro.graphs.algorithms.condensation`, walking the successor map
  in its own order), then one reach set per
  component over the condensation — every node of a component reaches the
  same set, so no pair is derived twice.  The columnar engine computes
  its closure strata with it (:mod:`repro.datalog.columnar`).

All return the transitive (not reflexive) closure as a set of pairs; nodes
may be any hashable values.
"""

from __future__ import annotations

from collections import defaultdict
from itertools import chain, product

from repro.graphs.algorithms import _condensed, _tarjan


def _successor_map(pairs):
    successors = defaultdict(set)
    for source, target in pairs:
        successors[source].add(target)
    return successors


def transitive_closure_naive(pairs):
    closure = set(pairs)
    base = _successor_map(pairs)
    changed = True
    while changed:
        changed = False
        additions = set()
        for source, target in closure:
            for nxt in base.get(target, ()):
                candidate = (source, nxt)
                if candidate not in closure:
                    additions.add(candidate)
        if additions:
            closure |= additions
            changed = True
    return closure


def transitive_closure_seminaive(pairs):
    closure = set(pairs)
    base = _successor_map(pairs)
    delta = set(pairs)
    while delta:
        new_delta = set()
        for source, target in delta:
            for nxt in base.get(target, ()):
                candidate = (source, nxt)
                if candidate not in closure:
                    closure.add(candidate)
                    new_delta.add(candidate)
        delta = new_delta
    return closure


def transitive_closure_warshall(pairs):
    nodes = set()
    for source, target in pairs:
        nodes.add(source)
        nodes.add(target)
    successors = {node: set() for node in nodes}
    for source, target in pairs:
        successors[source].add(target)
    for middle in nodes:
        middle_successors = successors[middle]
        if not middle_successors:
            continue
        for node in nodes:
            if middle in successors[node]:
                successors[node] |= middle_successors
    return {(s, t) for s, targets in successors.items() for t in targets}


def transitive_closure_squaring(pairs):
    closure = set(pairs)
    while True:
        successors = _successor_map(closure)
        additions = set()
        for source, target in closure:
            for nxt in successors.get(target, ()):
                candidate = (source, nxt)
                if candidate not in closure:
                    additions.add(candidate)
        if not additions:
            return closure
        closure |= additions


def transitive_closure_scc(pairs):
    return set(closure_pairs(pairs))


def closure_pairs(pairs):
    """The pairs of :func:`transitive_closure_scc`, each exactly once, as an
    iterator: each component's sources times its reach set, so a caller
    that builds its own set of them hashes each pair once."""
    successors = _successor_map(pairs)
    # The answer is a set, so Tarjan walks the map in its own order: the
    # str-sorted walk of :func:`condensation` only fixes which reverse
    # topological order the components come in.
    components, below = _condensed(successors, _tarjan(successors, successors, iter))
    reach = []  # component index -> the nodes it reaches in >= 1 step
    for index, component in enumerate(components):
        # Tarjan lists a component after every component it points to, and
        # a component reached at all is reached whole.
        targets = set()
        for other in below[index]:
            targets |= components[other]
            targets |= reach[other]
        if len(component) > 1 or any(node in successors.get(node, ()) for node in component):
            targets |= component
        reach.append(targets)
    return chain.from_iterable(map(product, components, reach))


_METHODS = {
    "naive": transitive_closure_naive,
    "seminaive": transitive_closure_seminaive,
    "warshall": transitive_closure_warshall,
    "squaring": transitive_closure_squaring,
    "scc": transitive_closure_scc,
}


def transitive_closure(pairs, method="seminaive"):
    """Dispatch to one of the closure kernels by name."""
    try:
        kernel = _METHODS[method]
    except KeyError:
        raise ValueError(f"unknown closure method {method!r}") from None
    return kernel(pairs)


def closure_methods():
    """Names of the available kernels (for benchmarks)."""
    return tuple(_METHODS)


def reflexive_transitive_closure(pairs, nodes=(), method="seminaive"):
    """Kleene-star closure: the transitive closure plus ``(n, n)`` for every
    node in *nodes* and every endpoint of *pairs*."""
    closure = transitive_closure(pairs, method=method)
    all_nodes = set(nodes)
    for source, target in pairs:
        all_nodes.add(source)
        all_nodes.add(target)
    closure |= {(node, node) for node in all_nodes}
    return closure
