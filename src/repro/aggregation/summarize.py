"""Path summarization: aggregate a semiring value along all paths.

Implements the Section 4 capability "summarize information along paths"
(e.g. Example 4.1's *earlier-start*: the longest sum of durations over all
paths between two tasks).  Two solvers:

- fixpoint iteration for idempotent semirings bounded on every weight given
  (works on cyclic graphs; Bellman-Ford style);
- topological dynamic programming for the others (requires a DAG; raises
  :class:`AggregationError` on a cycle).
"""

from __future__ import annotations

from collections import defaultdict

from repro.aggregation.semiring import Semiring, semiring_by_name
from repro.errors import AggregationError
from repro.graphs.algorithms import topological_sort


def _normalize_edges(edges):
    """Accepts ``[(u, v, w)]`` triples; returns adjacency with weights."""
    adjacency = defaultdict(list)
    nodes = set()
    for u, v, w in edges:
        adjacency[u].append((v, w))
        nodes.add(u)
        nodes.add(v)
    return adjacency, nodes


def summarize_paths(edges, semiring, include_empty=False):
    """All-pairs path summary: ``{(u, v): value}`` over non-trivial paths.

    Args:
        edges: iterable of ``(source, target, weight)`` triples.
        semiring: a :class:`Semiring` or standard name ("shortest", ...).
        include_empty: also include ``(u, u): one`` for every node (the
            zero-length path), Kleene-star style.

    Only pairs with at least one path appear in the result (the semiring
    ``zero`` is never stored).
    """
    if isinstance(semiring, str):
        semiring = semiring_by_name(semiring)
    adjacency, nodes = _normalize_edges(edges)
    if _bounded(semiring, adjacency):
        table = _fixpoint_all_pairs(adjacency, nodes, semiring)
    else:
        table = _dag_all_pairs(adjacency, nodes, semiring)
    if include_empty:
        for node in nodes:
            table[(node, node)] = semiring.plus(
                table.get((node, node), semiring.zero), semiring.one
            )
    return dict(table)


def summarize_from(source, edges, semiring, include_empty=False):
    """Single-source path summary: ``{target: value}``."""
    if isinstance(semiring, str):
        semiring = semiring_by_name(semiring)
    adjacency, nodes = _normalize_edges(edges)
    if _bounded(semiring, adjacency):
        distances = _fixpoint_single_source(source, adjacency, semiring)
    else:
        distances = _dag_single_source(source, adjacency, nodes, semiring)
    if include_empty:
        distances[source] = semiring.plus(
            distances.get(source, semiring.zero), semiring.one
        )
    return distances


# ------------------------------------------------------------------ solvers


def _bounded(semiring, adjacency):
    """Whether no cycle of these weights can improve a value forever."""
    bounded = semiring.monotone_bounded
    weights = [w for targets in adjacency.values() for _t, w in targets]
    return semiring.idempotent and (all(map(bounded, weights)) if callable(bounded) else bounded)


def _fixpoint_single_source(source, adjacency, semiring):
    values = {}
    # Seed with one-edge paths, then relax to a fixpoint.
    frontier = set()
    for target, weight in adjacency.get(source, ()):
        candidate = semiring.times(semiring.one, weight)
        _improve(values, target, candidate, semiring, frontier)
    while frontier:
        node = frontier.pop()
        base = values[node]
        for target, weight in adjacency.get(node, ()):
            _improve(values, target, semiring.times(base, weight), semiring, frontier)
    return values


def _improve(values, node, candidate, semiring, frontier):
    current = values.get(node, semiring.zero)
    improved = semiring.plus(current, candidate)
    if improved != current or node not in values:
        values[node] = improved
        frontier.add(node)


def _fixpoint_all_pairs(adjacency, nodes, semiring):
    table = {}
    for node in nodes:
        for target, value in _fixpoint_single_source(node, adjacency, semiring).items():
            table[(node, target)] = value
    return table


def _dag_order(adjacency, nodes):
    plain = {node: {t for t, _w in targets} for node, targets in adjacency.items()}
    for node in nodes:
        plain.setdefault(node, set())
    try:
        return topological_sort(plain)
    except ValueError:
        raise AggregationError(
            "path summarization with a non-idempotent or unbounded semiring (e.g. "
            "longest path, path count, a negative shortest path) requires an acyclic graph"
        ) from None


def _dag_single_source(source, adjacency, nodes, semiring):
    order = _dag_order(adjacency, nodes)
    values = {}
    for node in order:
        if node == source:
            base = semiring.one
        elif node in values:
            base = values[node]
        else:
            continue
        for target, weight in adjacency.get(node, ()):
            candidate = semiring.times(base, weight)
            values[target] = semiring.plus(values.get(target, semiring.zero), candidate)
    return values


def _dag_all_pairs(adjacency, nodes, semiring):
    table = {}
    for node in nodes:
        for target, value in _dag_single_source(node, adjacency, nodes, semiring).items():
            table[(node, target)] = value
    return table


# --------------------------------------------------------- database facade


def weighted_edges_from_database(database, predicate, weight_position=2):
    """Extract ``(u, v, w)`` triples from a relation ``p(u, v, ..., w, ...)``.

    Default shape: arity-3 relation with the weight in the third column.
    """
    triples = []
    for row in database.facts(predicate):
        if len(row) <= weight_position:
            raise AggregationError(
                f"relation {predicate!r} has arity {len(row)}; no column "
                f"{weight_position} to use as weight"
            )
        triples.append((row[0], row[1], row[weight_position]))
    return triples


def path_summarize(database, predicate, semiring, out_predicate=None, weight_position=2):
    """Summarize a weighted edge relation into a new relation.

    Computes ``{(u, v): value}`` with :func:`summarize_paths` over the
    relation *predicate* and stores it as *out_predicate* (default
    ``<predicate>-summary``) with arity 3.  Returns the modified database
    copy.
    """
    edges = weighted_edges_from_database(database, predicate, weight_position)
    table = summarize_paths(edges, semiring)
    name = out_predicate or f"{predicate}-summary"
    result = database.copy()
    result.add_facts(name, [(u, v, value) for (u, v), value in table.items()])
    return result
