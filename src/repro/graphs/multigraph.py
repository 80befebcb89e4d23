"""Directed labeled multigraphs (Definition 2.1 of the paper).

A graph is the septuple ``(N, E, L_N, L_E, iota, nu, epsilon)``: finite node
and edge sets, label sets, an incidence function assigning each edge a source
and target node, and node/edge labeling functions.  This module keeps the
definition's shape (explicit edge identities, so parallel edges with the same
label coexist) while also maintaining adjacency indexes for fast traversal.

For *database graphs* (Section 2): nodes are tuples of domain values, and an
edge label is a pair ``(predicate, extra_args)`` so that a tuple
``P(a₁..aᵢ, b₁..bⱼ, c₁..cₖ)`` becomes an edge from node ``(a₁..aᵢ)`` to node
``(b₁..bⱼ)`` labeled ``P(c₁..cₖ)``.  The :mod:`repro.graphs.bridge` module
performs that encoding.
"""

from __future__ import annotations

from collections import Counter


class Edge:
    """An edge identity with source, target, and label.

    Never mutated after construction: the versions of a graph derived by
    :meth:`LabeledMultigraph.copy` hold the *same* ``Edge`` objects, so an
    edge equals itself and nothing else (object identity — which also keeps
    ``list.remove`` / ``list.index`` over an adjacency list at C speed).
    ``key`` is unique within any one graph.
    """

    __slots__ = ("key", "source", "target", "label")

    def __init__(self, key, source, target, label):
        self.key = key
        self.source = source
        self.target = target
        self.label = label

    def __repr__(self):
        return f"Edge({self.source!r} -[{self.label!r}]-> {self.target!r})"

    def as_tuple(self):
        return (self.source, self.target, self.label)


#: Positions in ``LabeledMultigraph._shared``.
_OUT, _IN, _BY_LABEL = range(3)

#: ``_shared`` of a graph copied since its last write.
_COPIED = object()


class LabeledMultigraph:
    """A directed labeled multigraph with adjacency indexes.

    Nodes are arbitrary hashable values; each node may carry a label
    (``nu``).  Edges have identities (auto-assigned integer keys), so two
    edges with identical endpoints and label are distinct objects, exactly as
    in Definition 2.1.

    Versions share structure: :meth:`copy` copies the five top-level
    indexes (C-speed ``dict`` copies) and nothing below them — ``Edge``
    objects and the per-node / per-label edge lists belong to both graphs
    until one of them first writes to *that* list, which copies it then.
    ``_shared`` says which lists those are: the three list-valued indexes
    as they were when this graph was copied from or to (a list still found
    there under its key is shared), ``None`` for a graph that never was, or
    ``_COPIED`` for one copied since its last write.  A graph that is only
    read (a published store version) is never written by its copies, apart
    from that one attribute.
    """

    def __init__(self):
        self._node_labels = {}  # node -> label (may be None)
        self._edges = {}  # key -> Edge
        # Non-empty lists only: the last edge out takes its entry with it.
        self._out = {}  # node -> [Edge]
        self._in = {}  # node -> [Edge]
        self._by_label = {}  # label -> [Edge]
        self._shared = None
        self._next_key = 0

    # -------------------------------------------------------------- nodes

    @property
    def nodes(self):
        return self._node_labels.keys()

    def node_count(self):
        return len(self._node_labels)

    def has_node(self, node):
        return node in self._node_labels

    def add_node(self, node, label=None):
        """Add a node (idempotent); a non-None label overwrites."""
        if node not in self._node_labels or label is not None:
            self._node_labels[node] = label
        return node

    def node_label(self, node):
        return self._node_labels[node]

    def set_node_label(self, node, label):
        if node not in self._node_labels:
            raise KeyError(node)
        self._node_labels[node] = label

    # -------------------------------------------------------------- edges

    @property
    def edges(self):
        return self._edges.values()

    def edge_count(self):
        return len(self._edges)

    def add_edge(self, source, target, label):
        """Insert a new edge (always a distinct identity); returns it."""
        if self._shared is _COPIED:
            self._continue_on_copies()
        self.add_node(source)
        self.add_node(target)
        edge = Edge(self._next_key, source, target, label)
        self._next_key += 1
        self._edges[edge.key] = edge
        self._writable(self._out, _OUT, source).append(edge)
        self._writable(self._in, _IN, target).append(edge)
        self._writable(self._by_label, _BY_LABEL, label).append(edge)
        return edge

    def remove_edge(self, edge):
        if self._edges.get(edge.key) is not edge:
            raise KeyError(edge)
        if self._shared is _COPIED:
            self._continue_on_copies()
        del self._edges[edge.key]
        self._drop(self._out, _OUT, edge.source, edge)
        self._drop(self._in, _IN, edge.target, edge)
        self._drop(self._by_label, _BY_LABEL, edge.label, edge)

    def remove_node(self, node):
        """Remove a node and every incident edge."""
        if node not in self._node_labels:
            raise KeyError(node)
        for edge in self.out_edges(node) + self.in_edges(node):
            if edge.key in self._edges:  # a self-loop is in both lists
                self.remove_edge(edge)
        del self._node_labels[node]

    def _continue_on_copies(self):
        """First write since :meth:`copy` copied this graph: the indexes its
        copies compare against stay as they are, this graph goes on with
        copies of them (and shares every list in them from here on)."""
        self._shared = shared = (self._out, self._in, self._by_label)
        self._out, self._in, self._by_label = (index.copy() for index in shared)

    def _writable(self, index, which, key):
        """The edge list under *key* in *index* (position *which* of
        ``_shared``), private to this graph: created if absent, copied first
        if still shared."""
        edges = index.get(key)
        if edges is None:
            edges = index[key] = []
        elif self._shared is not None and self._shared[which].get(key) is edges:
            edges = index[key] = edges.copy()
        return edges

    def _drop(self, index, which, key, edge):
        if len(index[key]) == 1:
            del index[key]
        else:
            self._writable(index, which, key).remove(edge)

    def out_edges(self, node):
        return list(self._out.get(node, ()))

    def in_edges(self, node):
        return list(self._in.get(node, ()))

    def successors(self, node):
        return {edge.target for edge in self._out.get(node, ())}

    def predecessors(self, node):
        return {edge.source for edge in self._in.get(node, ())}

    def edges_with_label(self, label):
        return list(self._by_label.get(label, ()))

    def labels(self):
        """Edge labels actually in use."""
        return set(self._by_label)

    def has_edge(self, source, target, label=None):
        for edge in self._out.get(source, ()):
            if edge.target == target and (label is None or edge.label == label):
                return True
        return False

    def edge_triples(self):
        """The set of ``(source, target, label)`` triples (identities dropped)."""
        return {edge.as_tuple() for edge in self._edges.values()}

    # ------------------------------------------------------------ utility

    def isolated_nodes(self):
        """Nodes with no incident edge (forbidden in query graphs, Def 2.3)."""
        return {
            node
            for node in self._node_labels
            if node not in self._out and node not in self._in
        }

    def subgraph(self, nodes):
        """The induced subgraph on *nodes* (labels preserved)."""
        nodes = set(nodes)
        sub = LabeledMultigraph()
        for node in nodes:
            if node in self._node_labels:
                sub.add_node(node, self._node_labels[node])
        for edge in self._edges.values():
            if edge.source in nodes and edge.target in nodes:
                sub.add_edge(edge.source, edge.target, edge.label)
        return sub

    def copy(self):
        """An independent graph equal to this one, sharing its structure.

        O(nodes + edges) in C-level ``dict`` copies, no per-node or per-edge
        Python work.  Neither graph owns an edge list afterwards, so the
        first write to a list on either side copies that list; writing to
        one never shows in the other.
        """
        clone = LabeledMultigraph()
        clone._node_labels = self._node_labels.copy()
        clone._edges = self._edges.copy()
        clone._out = self._out.copy()
        clone._in = self._in.copy()
        clone._by_label = self._by_label.copy()
        clone._shared = (self._out, self._in, self._by_label)
        clone._next_key = self._next_key
        # The one write to the source, a single attribute store: concurrent
        # copies of a published graph may each do it, readers never see it.
        self._shared = _COPIED
        return clone

    def reverse(self):
        """A new graph with every edge direction flipped."""
        rev = LabeledMultigraph()
        for node, label in self._node_labels.items():
            rev.add_node(node, label)
        for edge in self._edges.values():
            rev.add_edge(edge.target, edge.source, edge.label)
        return rev

    def adjacency(self, label=None):
        """``{node: set of successors}`` restricted to *label* when given."""
        adjacency = {node: set() for node in self._node_labels}
        for edge in self._edges.values():
            if label is None or edge.label == label:
                adjacency[edge.source].add(edge.target)
        return adjacency

    def __eq__(self, other):
        if not isinstance(other, LabeledMultigraph):
            return NotImplemented
        return self._node_labels == other._node_labels and Counter(
            edge.as_tuple() for edge in self._edges.values()
        ) == Counter(edge.as_tuple() for edge in other._edges.values())

    def __repr__(self):
        return f"LabeledMultigraph({self.node_count()} nodes, {self.edge_count()} edges)"
