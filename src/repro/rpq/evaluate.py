"""Regular path query evaluation by product-graph search.

Evaluating an edge query (Section 5 / [MW89]) amounts to reachability in
the product of the database graph and the query's DFA: a pair ``(x, y)`` is
an answer iff some accepting product state ``(y, q_f)`` is reachable from
``(x, q_0)``.  This is the NLOGSPACE-style evaluation that Lemma 3.5 relies
on — the searcher only remembers its frontier of (node, state) pairs.

Labels are matched through a *label key*: for
:class:`~repro.graphs.bridge.EdgeLabel` labels the predicate name, otherwise
the label itself.  Inverted symbols traverse edges backwards.
"""

from __future__ import annotations

from collections import deque

from repro.graphs.bridge import EdgeLabel
from repro.rpq.automaton import compile_regex
from repro.rpq.csr import csr_index
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

    The reachability entry points (:meth:`pairs`, :meth:`targets`,
    :meth:`holds`) run over the CSR adjacency index with bitset frontiers
    (:mod:`repro.rpq.csr`).  :meth:`witness_path` and :meth:`matching_edges`
    walk the dict adjacency — they need edge *identities*, which the
    compacted index deliberately drops.
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
        index = csr_index(self.graph, self.label_key)
        out = set()
        for source in self._source_nodes(sources):
            for target in self._csr_reach_from(index, source, dfa):
                out.add((source, target))
        return out

    def targets(self, regex, source):
        """All y reachable from one *source* along a matching path."""
        dfa = compile_regex(_as_regex(regex))
        return self._csr_reach_from(
            csr_index(self.graph, self.label_key), source, dfa
        )

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

    def _csr_reach_from(self, index, source, dfa):
        """Nodes y with an accepting product path from (source, q0)."""
        if source not in index:
            # Unknown sources have no edges; only the empty path applies.
            return {source} if dfa.start in dfa.accept else set()
        mask = index.reach(dfa, (index.node_ids[source],))
        answers = index.decode(mask)
        if dfa.start in dfa.accept:
            answers.add(source)
        return answers

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
        seen = set()
        queue = deque()
        for node in self.graph.nodes:
            for state in dfa.accept:
                pair = (node, state)
                seen.add(pair)
                queue.append(pair)
        while queue:
            node, state = queue.popleft()
            for edge in self.graph.in_edges(node):
                for prev_state in self._states_stepping_to(
                    dfa, (self.label_key(edge.label), False), state
                ):
                    pair = (edge.source, prev_state)
                    if pair not in seen:
                        seen.add(pair)
                        queue.append(pair)
            for edge in self.graph.out_edges(node):
                for prev_state in self._states_stepping_to(
                    dfa, (self.label_key(edge.label), True), state
                ):
                    pair = (edge.target, prev_state)
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


def rpq_pairs(graph, regex, sources=None, label_key=default_label_key):
    """One-shot convenience for :meth:`RPQEvaluator.pairs`."""
    return RPQEvaluator(graph, label_key).pairs(regex, sources)
