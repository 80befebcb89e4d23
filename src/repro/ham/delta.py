"""Typed commit deltas: the fact-level difference a transaction made.

A :class:`Delta` describes one committed transaction as *net* insertions and
deletions of relational facts (via the Section 2 graph encoding), plus the
node additions/removals that affect the active domain.  It is computed
from the commit's operations wherever a version is made of its predecessor
— :meth:`repro.ham.store.HAMStore._stage_locked` for a local commit and a
replicated apply, WAL replay at recovery — against the pre-commit graph, so
multiplicity questions ("was that the last parallel copy of this edge?")
and old-label lookups are exact.

Net semantics: inserting a fact that is pending deletion cancels the
deletion (and vice versa), so replaying ``deletions`` then ``insertions``
on the old state yields the new state.  Downstream consumers — DRed view
maintenance (:mod:`repro.ham.views`) and the delta-scoped service result
cache (:mod:`repro.service.cache`) — only ever see the net effect.
"""

from __future__ import annotations

from collections import Counter, defaultdict


class Delta:
    """Net fact-level insertions/deletions of one commit.

    Attributes:
        insertions: ``{predicate: set of rows}`` newly-true facts.
        deletions: ``{predicate: set of rows}`` no-longer-true facts.
        nodes_added: set of node values added to the graph.
        nodes_removed: set of node values removed from the graph.
    """

    __slots__ = ("insertions", "deletions", "nodes_added", "nodes_removed")

    def __init__(self):
        self.insertions = defaultdict(set)
        self.deletions = defaultdict(set)
        self.nodes_added = set()
        self.nodes_removed = set()

    # ------------------------------------------------------------- building

    def insert(self, predicate, row):
        row = tuple(row)
        pending = self.deletions.get(predicate)
        if pending and row in pending:
            pending.discard(row)
            if not pending:
                del self.deletions[predicate]
        else:
            self.insertions[predicate].add(row)

    def delete(self, predicate, row):
        row = tuple(row)
        pending = self.insertions.get(predicate)
        if pending and row in pending:
            pending.discard(row)
            if not pending:
                del self.insertions[predicate]
        else:
            self.deletions[predicate].add(row)

    def add_node(self, node):
        if node in self.nodes_removed:
            self.nodes_removed.discard(node)
        else:
            self.nodes_added.add(node)

    def remove_node(self, node):
        if node in self.nodes_added:
            self.nodes_added.discard(node)
        else:
            self.nodes_removed.add(node)

    # ------------------------------------------------------------ consuming

    @property
    def is_empty(self):
        return not (
            self.insertions or self.deletions
            or self.nodes_added or self.nodes_removed
        )

    def touched_predicates(self, domain_predicate=None):
        """Predicates whose extension this delta may change.

        When *domain_predicate* is given it is included whenever the delta
        is non-empty: the active domain is derived from the values of
        *every* fact, so any insertion or deletion can grow or shrink it —
        a conservative but sound footprint for cache invalidation.
        """
        touched = set(self.insertions) | set(self.deletions)
        if domain_predicate is not None and not self.is_empty:
            touched.add(domain_predicate)
        return touched

    def __eq__(self, other):
        """Structural equality — used to check that a replica and WAL
        replay derive the delta the primary's commit derived."""
        if not isinstance(other, Delta):
            return NotImplemented
        return (
            dict(self.insertions) == dict(other.insertions)
            and dict(self.deletions) == dict(other.deletions)
            and self.nodes_added == other.nodes_added
            and self.nodes_removed == other.nodes_removed
        )

    __hash__ = None

    def __repr__(self):
        ins = sum(len(r) for r in self.insertions.values())
        dels = sum(len(r) for r in self.deletions.values())
        return (
            f"Delta(+{ins} facts, -{dels} facts, "
            f"+{len(self.nodes_added)}/-{len(self.nodes_removed)} nodes)"
        )


def net_delta(deltas):
    """The one :class:`Delta` that equals applying *deltas* in order.

    Rows inserted by one delta and deleted by a later one (or the reverse)
    cancel, exactly as they do inside a single transaction.
    """
    deltas = list(deltas)
    if len(deltas) == 1:
        return deltas[0]
    net = Delta()
    for delta in deltas:
        for predicate, rows in delta.deletions.items():
            for row in rows:
                net.delete(predicate, row)
        for predicate, rows in delta.insertions.items():
            for row in rows:
                net.insert(predicate, row)
        for node in delta.nodes_removed:
            net.remove_node(node)
        for node in delta.nodes_added:
            net.add_node(node)
    return net


def domain_refs(database):
    """``Counter`` of value → occurrences across every fact of *database*.

    The active domain is its key set; the counts are what lets
    :func:`fold_domain_refs` keep it in O(delta).
    """
    return Counter(
        value
        for predicate in database
        for row in database.facts(predicate)
        for value in row
    )


def fold_domain_refs(refs, delta):
    """Advance the refcount *refs* (see :func:`domain_refs`) past *delta*,
    in place; returns ``(entered, left)``.

    A value enters the domain with its first occurrence and leaves with its
    last, which only reference counting can tell without rescanning the
    database.
    """
    changed = Counter()
    for rows in delta.insertions.values():
        for row in rows:
            for value in row:
                changed[value] += 1
    for rows in delta.deletions.values():
        for row in rows:
            for value in row:
                changed[value] -= 1
    entered = set()
    left = set()
    for value, change in changed.items():
        if change == 0:
            continue
        before = refs[value]
        after = before + change
        if after > 0:
            refs[value] = after
        else:
            del refs[value]
        if before == 0 and after > 0:
            entered.add(value)
        elif before > 0 and after <= 0:
            left.add(value)
    return entered, left


def _annotation_names(label):
    """The set of annotation predicate names a node label carries.

    Mirrors :func:`repro.graphs.bridge.database_from_graph`: labels that are
    sets/frozensets of names become unary facts, anything falsy contributes
    none.
    """
    if not label:
        return frozenset()
    if isinstance(label, (set, frozenset)):
        return frozenset(str(name) for name in label)
    return frozenset((str(label),))


def _edge_fact(source, target, label):
    """``(predicate, row)`` for one edge via the Section 2 encoding."""
    from repro.graphs.bridge import EdgeLabel, _wrap_node

    if not isinstance(label, EdgeLabel):
        label = EdgeLabel(str(label))
    row = _wrap_node(source) + _wrap_node(target) + label.extra
    return label.predicate, row


def _edge_multiplicity(graph, source, target, label):
    """Copies of the edge currently encoding the same fact as (s, t, label).

    Compares at the *fact* level — a plain-string label and the equivalent
    :class:`~repro.graphs.bridge.EdgeLabel` encode the same tuple, so they
    count as copies of one fact even though the stored labels differ.
    """
    if not graph.has_node(source):
        return 0
    fact = _edge_fact(source, target, label)
    return sum(
        1
        for edge in graph.out_edges(source)
        if edge.target == target
        and _edge_fact(edge.source, edge.target, edge.label) == fact
    )


def compute_delta(graph, operations):
    """The :class:`Delta` of applying *operations* to *graph*.

    *graph* is mutated (the operations are applied to it as a side effect) —
    the store calls this on its staged copy, folding validation and delta
    computation into one pass.  Raises whatever ``op.apply`` raises on a
    conflicting operation, leaving the partial mutation to be discarded by
    the caller.
    """
    from repro.ham.store import _Op

    delta = Delta()
    for op in operations:
        if op.kind == _Op.ADD_EDGE:
            source, target, label = op.args
            before = _edge_multiplicity(graph, source, target, label)
            had_source = graph.has_node(source)
            had_target = graph.has_node(target)
            op.apply(graph)
            if before == 0:
                predicate, row = _edge_fact(source, target, label)
                delta.insert(predicate, row)
            if not had_source:
                delta.add_node(source)
            if not had_target and target != source:
                delta.add_node(target)
        elif op.kind == _Op.REMOVE_EDGE:
            source, target, label = op.args
            before = _edge_multiplicity(graph, source, target, label)
            op.apply(graph)
            if before == 1:
                predicate, row = _edge_fact(source, target, label)
                delta.delete(predicate, row)
        elif op.kind in (_Op.ADD_NODE, _Op.SET_NODE_LABEL):
            node, label = op.args
            existed = graph.has_node(node)
            old_names = (
                _annotation_names(graph.node_label(node)) if existed else frozenset()
            )
            op.apply(graph)
            new_names = _annotation_names(graph.node_label(node))
            from repro.graphs.bridge import _wrap_node

            row = _wrap_node(node)
            for name in new_names - old_names:
                delta.insert(name, row)
            for name in old_names - new_names:
                delta.delete(name, row)
            if not existed:
                delta.add_node(node)
        elif op.kind == _Op.REMOVE_NODE:
            (node,) = op.args
            incident = {
                edge.key: edge
                for edge in graph.out_edges(node) + graph.in_edges(node)
            }
            # Fact-level: a fact disappears only when its *last* parallel
            # copy goes; count surviving copies of each (s, t, label) triple.
            triples = defaultdict(int)
            for edge in incident.values():
                triples[(edge.source, edge.target, edge.label)] += 1
            old_names = _annotation_names(graph.node_label(node))
            op.apply(graph)
            for (source, target, label), removed in triples.items():
                if _edge_multiplicity(graph, source, target, label) == 0:
                    predicate, row = _edge_fact(source, target, label)
                    delta.delete(predicate, row)
            from repro.graphs.bridge import _wrap_node

            row = _wrap_node(node)
            for name in old_names:
                delta.delete(name, row)
            delta.remove_node(node)
        else:  # pragma: no cover - closed set, mirrors _Op.apply
            op.apply(graph)
    return delta
