"""Classic graph algorithms over adjacency mappings.

All functions operate on plain ``{node: set(successors)}`` adjacency dicts
(as produced by :meth:`LabeledMultigraph.adjacency`) so they are reusable by
the Datalog stratifier, Algorithm 3.1, and the closure kernels without
conversion overhead.
"""

from __future__ import annotations

from collections import deque


def _nodes_of(adjacency):
    nodes = set(adjacency)
    for successors in adjacency.values():
        nodes |= set(successors)
    return nodes


def _by_str(nodes):
    return sorted(nodes, key=str)


def strongly_connected_components(adjacency):
    """Tarjan's algorithm, iterative.

    Returns a list of frozensets in reverse topological order (a component
    appears before any component that points to it).  Roots and successors
    are visited in ``str`` order, so the list is deterministic.
    """
    return _tarjan(adjacency, _by_str(_nodes_of(adjacency)), _by_str)


def _tarjan(adjacency, roots, order):
    """Tarjan's components of *adjacency*, walking from each of *roots* (which
    must reach every node) and visiting successors as ``order(successors)``
    lists them."""
    index_of = {}
    lowlink = {}
    on_stack = set()
    stack = []
    components = []
    counter = 0

    for root in roots:
        if root in index_of:
            continue
        work = [(root, iter(order(adjacency.get(root, ()))))]
        index_of[root] = lowlink[root] = counter
        counter += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            node, successors = work[-1]
            advanced = False
            for successor in successors:
                if successor not in index_of:
                    index_of[successor] = lowlink[successor] = counter
                    counter += 1
                    stack.append(successor)
                    on_stack.add(successor)
                    work.append((successor, iter(order(adjacency.get(successor, ())))))
                    advanced = True
                    break
                if successor in on_stack and index_of[successor] < lowlink[node]:
                    lowlink[node] = index_of[successor]
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                if lowlink[node] < lowlink[parent]:
                    lowlink[parent] = lowlink[node]
            if lowlink[node] == index_of[node]:
                component = set()
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.add(member)
                    if member == node:
                        break
                components.append(frozenset(component))
    return components


def condensation(adjacency):
    """The DAG of SCCs: returns ``(components, component_adjacency)`` where
    components is the Tarjan list and component_adjacency maps component
    index -> set of component indexes it points to."""
    return _condensed(adjacency, strongly_connected_components(adjacency))


def _condensed(adjacency, components):
    index_of = {}
    for i, component in enumerate(components):
        for node in component:
            index_of[node] = i
    component_adjacency = {i: set() for i in range(len(components))}
    for source, successors in adjacency.items():
        for target in successors:
            si, ti = index_of[source], index_of[target]
            if si != ti:
                component_adjacency[si].add(ti)
    return components, component_adjacency


def topological_sort(adjacency):
    """Kahn's algorithm; raises ValueError on a cycle."""
    nodes = _nodes_of(adjacency)
    indegree = {node: 0 for node in nodes}
    for successors in adjacency.values():
        for target in successors:
            indegree[target] += 1
    queue = deque(sorted((n for n in nodes if indegree[n] == 0), key=str))
    order = []
    while queue:
        node = queue.popleft()
        order.append(node)
        for target in sorted(adjacency.get(node, ()), key=str):
            indegree[target] -= 1
            if indegree[target] == 0:
                queue.append(target)
    if len(order) != len(nodes):
        raise ValueError("graph has a cycle; no topological order exists")
    return order


def is_acyclic(adjacency):
    try:
        topological_sort(adjacency)
    except ValueError:
        return False
    return True


def reachable_from(adjacency, start):
    """BFS set of nodes reachable from *start* (excluding start unless on a
    cycle back to itself)."""
    seen = set()
    queue = deque(adjacency.get(start, ()))
    while queue:
        node = queue.popleft()
        if node in seen:
            continue
        seen.add(node)
        queue.extend(adjacency.get(node, ()))
    return seen


def shortest_path_lengths(adjacency, start):
    """BFS hop counts from *start*: ``{node: hops}`` (start included at 0)."""
    distances = {start: 0}
    queue = deque([start])
    while queue:
        node = queue.popleft()
        for target in adjacency.get(node, ()):
            if target not in distances:
                distances[target] = distances[node] + 1
                queue.append(target)
    return distances
