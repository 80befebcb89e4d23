"""Regular path query evaluation by product-graph search.

Evaluating an edge query (Section 5 / [MW89]) amounts to reachability in
the product of the database graph and the query's DFA: a pair ``(x, y)`` is
an answer iff some accepting product state ``(y, q_f)`` is reachable from
``(x, q_0)``.  This is the NLOGSPACE-style evaluation that Lemma 3.5 relies
on — the searcher only remembers its frontier of (node, state) pairs.

Two searches run that product.  :class:`RPQEvaluator` walks the graph's
dict adjacency: it is the graph-level specification, and the only one that
knows edge identities (witness paths, highlighting).  :func:`image_reach`
walks a store image's encoded relations instead, where Section 2 makes an
``a``-labeled edge a row of relation ``a``; the service answers an RPQ miss
with it, over the ids every other plan reads.

Labels are matched through a *label key*: for
:class:`~repro.graphs.bridge.EdgeLabel` labels the predicate name, otherwise
the label itself.  Inverted symbols traverse edges backwards.
"""

from __future__ import annotations

from collections import defaultdict, deque
from itertools import chain, repeat
from operator import itemgetter

from repro.graphs.bridge import EdgeLabel
from repro.rpq.automaton import compile_regex
from repro.rpq.regex import Regex, parse_regex


def default_label_key(label):
    if isinstance(label, EdgeLabel):
        return label.predicate
    return label


def _as_regex(regex):
    if isinstance(regex, str):
        return parse_regex(regex)
    if isinstance(regex, Regex):
        return regex
    raise TypeError(f"expected a Regex or string, got {type(regex).__name__}")


class RPQEvaluator:
    """Evaluates regular path queries over a :class:`LabeledMultigraph`.

    Every entry point walks the dict adjacency breadth first
    (:meth:`_forward_product`), which makes this the graph-level [MW89]
    specification the service's image search is tested against.
    """

    def __init__(self, graph, label_key=default_label_key):
        self.graph = graph
        self.label_key = label_key

    # ------------------------------------------------------------------ API

    def pairs(self, regex, sources=None):
        """All ``(x, y)`` such that some path from x to y matches *regex*.

        With *sources* given, only pairs starting there are returned (and
        only those rows of the product are explored).
        """
        dfa = compile_regex(_as_regex(regex))
        return {(s, t) for s in self._source_nodes(sources) for t in self._reach(s, dfa)}

    def targets(self, regex, source):
        """All y reachable from one *source* along a matching path."""
        return self._reach(source, compile_regex(_as_regex(regex)))

    def holds(self, regex, source, target):
        """Does some path from *source* to *target* match *regex*?"""
        return target in self.targets(regex, source)

    def witness_path(self, regex, source, target):
        """One matching path as a list of edges, or None.

        The path is a shortest one in edge count.  Used by the visual layer
        to highlight answers like the prototype of Section 5.
        """
        dfa = compile_regex(_as_regex(regex))
        parents = self._forward_product([source], dfa)
        # Breadth-first insertion order: the first accepting state at
        # *target* is a nearest one.
        cursor = next(
            (
                pair
                for pair in parents
                if pair[0] == target and pair[1] in dfa.accept
            ),
            None,
        )
        if cursor is None:
            return None
        path = []
        while parents[cursor] is not None:
            cursor, edge = parents[cursor]
            path.append(edge)
        path.reverse()
        return path

    def matching_edges(self, regex, sources=None):
        """Every database edge lying on some matching path (for
        highlighting).  Computed by forward/backward product reachability."""
        dfa = compile_regex(_as_regex(regex))
        forward = self._forward_product(sources, dfa)
        backward = self._backward_product(dfa)
        edges = set()
        for node, state in forward:
            for edge, next_state, is_forward in self._product_moves(node, state, dfa):
                nxt = ((edge.target if is_forward else edge.source), next_state)
                if nxt in backward:
                    edges.add(edge)
        return edges

    # ------------------------------------------------------------ internals

    def _source_nodes(self, sources):
        if sources is None:
            return list(self.graph.nodes)
        return list(sources)

    def _product_moves(self, node, state, dfa):
        """Yield ``(edge, next_state, forward)`` product transitions."""
        for edge in self.graph.out_edges(node):
            next_state = dfa.step(state, (self.label_key(edge.label), False))
            if next_state is not None:
                yield edge, next_state, True
        for edge in self.graph.in_edges(node):
            next_state = dfa.step(state, (self.label_key(edge.label), True))
            if next_state is not None:
                yield edge, next_state, False

    def _reach(self, source, dfa):
        """Nodes y with an accepting product path from (source, q0) — an
        unknown source has no edges, so only its empty path."""
        reached = self._forward_product([source], dfa)
        return {node for node, state in reached if state in dfa.accept}

    def _forward_product(self, sources, dfa):
        """Dict-adjacency BFS of the product from every ``(source, q0)``.

        Maps each reached ``(node, state)`` to the ``(previous pair, edge)``
        that first reached it (None for a start), in breadth-first order.
        """
        parents = {
            (source, dfa.start): None for source in self._source_nodes(sources)
        }
        queue = deque(parents)
        while queue:
            pair = queue.popleft()
            for edge, next_state, forward in self._product_moves(*pair, dfa):
                nxt = ((edge.target if forward else edge.source), next_state)
                if nxt not in parents:
                    parents[nxt] = (pair, edge)
                    queue.append(nxt)
        return parents

    def _backward_product(self, dfa):
        """Product states that can reach acceptance (backward BFS)."""
        # Build reverse product moves on demand: a backward step over a
        # forward edge, or a forward step over an inverted edge.
        seen = {(node, state) for node in self.graph.nodes for state in dfa.accept}
        queue = deque(seen)
        while queue:
            node, state = queue.popleft()
            steps = [(edge, edge.source, False) for edge in self.graph.in_edges(node)]
            steps += [(edge, edge.target, True) for edge in self.graph.out_edges(node)]
            for edge, previous, inverted in steps:
                symbol = (self.label_key(edge.label), inverted)
                for prev_state in self._states_stepping_to(dfa, symbol, state):
                    pair = (previous, prev_state)
                    if pair not in seen:
                        seen.add(pair)
                        queue.append(pair)
        return seen

    @staticmethod
    def _states_stepping_to(dfa, symbol, target_state):
        return [
            source
            for (source, sym), target in dfa.transitions.items()
            if sym == symbol and target == target_state
        ]


def image_reach(relations, dfa, sources=None):
    """``{source: target ids}`` of the product search over a store image.

    *relations* are the image's encoded relations (name → sealed
    :class:`~repro.datalog.columnar.ColumnarRelation`), *sources* ids of its
    catalog; None searches from every node with a first step, which answers
    a non-nullable *dfa* in full.  The relation of a symbol ``(label,
    inverted)`` is named by the label's text, as the image names it; a
    symbol steps from column 0 to column 1 through the relation's sealed
    index on column 0, or back through the one on column 1 when inverted.
    Relations of arity < 2 are node labels, not edges, and are not read.
    """
    moves = defaultdict(list)  # state -> [(index, column reached, state)]
    for (state, (label, inverted)), target in dfa.transitions.items():
        relation = relations.get(str(label))
        if relation is not None and relation.arity >= 2:
            index = relation.index((int(inverted),))
            moves[state].append((index, itemgetter(1 - inverted), target))
    if sources is None:
        sources = set().union(*(index.keys() for index, _c, _t in moves[dfa.start]))
    accept = dfa.accept
    reached = {}
    for source in sources:
        seen = {dfa.start: {source}}
        frontier = [(dfa.start, {source})]
        while frontier:
            advance = defaultdict(set)
            for state, nodes in frontier:
                for index, column, target in moves[state]:
                    # One frontier step, every loop in C: the rows of each
                    # node's index bucket, then their far column.
                    rows = chain.from_iterable(map(index.get, nodes, repeat(())))
                    advance[target].update(map(column, rows))
            frontier = []
            for state, nodes in advance.items():
                known = seen.setdefault(state, set())
                nodes -= known
                if nodes:
                    known |= nodes
                    frontier.append((state, nodes))
        reached[source] = set().union(*(seen[s] for s in accept if s in seen))
    return reached


def rpq_pairs(graph, regex, sources=None, label_key=default_label_key):
    """One-shot convenience for :meth:`RPQEvaluator.pairs`."""
    return RPQEvaluator(graph, label_key).pairs(regex, sources)
