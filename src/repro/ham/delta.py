"""Typed commit deltas: the fact-level difference a transaction made.

A :class:`Delta` describes one committed transaction as *net* insertions and
deletions of relational facts (via the Section 2 graph encoding), plus the
node additions/removals and the values that entered or left the active
domain.  The facts and nodes are computed from the commit's operations
in one place, :meth:`repro.ham.store.HAMStore._stage_locked` — a local
commit, a replicated apply and WAL replay at recovery all stage there —
against the pre-commit graph and the store's count of the graph items
encoding each fact (:func:`fact_counts`).  A fact is inserted when its
count leaves zero and deleted when it returns there, so multiplicity
questions ("was that the last item encoding this fact?") and old-label
lookups are exact.  The domain change is derived once, where
the store installs the record, from the one value refcount the store keeps
(:func:`fold_domain_refs`).

Net semantics: inserting a fact that is pending deletion cancels the
deletion (and vice versa), so replaying ``deletions`` then ``insertions``
on the old state yields the new state.  Downstream consumers — DRed view
maintenance (:mod:`repro.ham.views`) and the delta-scoped service result
cache (:mod:`repro.service.cache`) — only ever see the net effect.
"""

from __future__ import annotations

from collections import Counter, defaultdict

from repro.graphs.bridge import _annotation_names, _edge_fact, _wrap_node

#: The ``entered`` / ``left`` of a delta that moves no value: one shared
#: empty set, since the store retains every record's delta.
_NONE = frozenset()


def _net(into, undone, item):
    """Add *item* to the set *into*, unless it undoes a pending *item* of
    the opposite set *undone*: then both forget it."""
    if item in undone:
        undone.discard(item)
    else:
        into.add(item)


def _net_row(into, undone, predicate, row):
    """:func:`_net` for the ``{predicate: rows}`` maps of a delta."""
    pending = undone.get(predicate)
    if pending and row in pending:
        pending.discard(row)
        if not pending:
            del undone[predicate]
    else:
        into[predicate].add(row)


class Delta:
    """Net fact-level insertions/deletions of one commit.

    Attributes:
        insertions: ``{predicate: set of rows}`` newly-true facts.
        deletions: ``{predicate: set of rows}`` no-longer-true facts.
        nodes_added: set of node values added to the graph.
        nodes_removed: set of node values removed from the graph.
        entered: values whose first fact the commit made (the active
            domain grew by them); set by the store as it installs the record.
        left: values whose last fact the commit took away.
    """

    __slots__ = ("insertions", "deletions", "nodes_added", "nodes_removed", "entered", "left")

    def __init__(self):
        self.insertions = defaultdict(set)
        self.deletions = defaultdict(set)
        self.nodes_added = set()
        self.nodes_removed = set()
        self.entered = self.left = _NONE

    # ------------------------------------------------------------- building

    def insert(self, predicate, row):
        _net_row(self.insertions, self.deletions, predicate, tuple(row))

    def delete(self, predicate, row):
        _net_row(self.deletions, self.insertions, predicate, tuple(row))

    def add_node(self, node):
        _net(self.nodes_added, self.nodes_removed, node)

    def remove_node(self, node):
        _net(self.nodes_removed, self.nodes_added, node)

    # ------------------------------------------------------------ consuming

    @property
    def is_empty(self):
        return not (
            self.insertions or self.deletions
            or self.nodes_added or self.nodes_removed
        )

    def touched_predicates(self, domain_predicate=None):
        """Predicates whose extension this delta may change.

        When *domain_predicate* is given it is included when the active
        domain changed (``entered`` / ``left``) or the node set did: a
        nullable path expression without a source pairs every graph node,
        isolated ones included.
        """
        touched = set(self.insertions) | set(self.deletions)
        if domain_predicate is not None and (
            self.entered or self.left or self.nodes_added or self.nodes_removed
        ):
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
            and self.entered == other.entered
            and self.left == other.left
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
    net.entered, net.left = set(), set()
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
        for value in delta.left:
            _net(net.left, net.entered, value)
        for value in delta.entered:
            _net(net.entered, net.left, value)
    return net


def fact_counts(graph):
    """``Counter`` of each Section 2 fact ``(predicate, row)`` of *graph* →
    the number of graph items encoding it.

    Several items can encode one fact: parallel copies of an edge, an
    :class:`~repro.graphs.bridge.EdgeLabel` and its plain-string label, two
    endpoint splits of a tuple node (``(a, b) -p-> c`` and ``a -p-> (b,
    c)``), an edge and the annotation of a tuple node.  The fact holds while
    its count is positive.  Read off the graph, not ``database_from_graph``,
    which refuses a label at two arities — a store may hold one.
    """
    counts = Counter(_edge_fact(edge.source, edge.target, edge.label) for edge in graph.edges)
    for node in graph.nodes:
        for name in _annotation_names(graph.node_label(node)):
            counts[name, _wrap_node(node)] += 1
    return counts


def domain_refs(facts):
    """``Counter`` of value → occurrences across the distinct *facts* (the
    keys of :func:`fact_counts`).

    The active domain is its key set; the counts are what lets
    :func:`fold_domain_refs` keep it in O(delta).
    """
    return Counter(value for _predicate, row in facts for value in row)


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
    entered, left = set(), set()
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
    return entered or _NONE, left or _NONE


def compute_delta(graph, operations, facts):
    """``(delta, changes)``: the :class:`Delta` of applying *operations* to
    *graph*, whose :func:`fact_counts` are *facts* (only read), and
    ``{fact: nonzero change}`` of those counts.

    Each item an operation adds counts +1 for its fact, each it removes −1:
    an edge, a node label's annotation names (a relabel removes the old
    ones), a removed node's annotations and incident edges.  The delta is
    the facts whose count crosses zero.  *graph* is mutated — the store
    calls this on its staged copy, folding validation into the same pass;
    whatever ``op.apply`` raises leaves the partial mutation to the caller.
    """
    from repro.ham.store import _Op

    changes = Counter()
    existed = {}  # each node an operation names -> whether it was there before
    for op in operations:
        if op.kind == _Op.REMOVE_NODE:
            (node,) = op.args
            present = graph.has_node(node)
            existed.setdefault(node, present)
            names = _annotation_names(graph.node_label(node)) if present else ()
            incident = {edge.key: edge for edge in graph.out_edges(node) + graph.in_edges(node)}
            op.apply(graph)
            for edge in incident.values():
                changes[_edge_fact(edge.source, edge.target, edge.label)] -= 1
            for name in names:
                changes[name, _wrap_node(node)] -= 1
        elif op.kind in (_Op.ADD_EDGE, _Op.REMOVE_EDGE):
            source, target, label = op.args
            existed.setdefault(source, graph.has_node(source))
            existed.setdefault(target, graph.has_node(target))
            op.apply(graph)
            changes[_edge_fact(source, target, label)] += 1 if op.kind == _Op.ADD_EDGE else -1
        else:  # ADD_NODE, SET_NODE_LABEL
            node, _label = op.args
            existed.setdefault(node, graph.has_node(node))
            old = _annotation_names(graph.node_label(node)) if graph.has_node(node) else ()
            op.apply(graph)
            row = _wrap_node(node)
            for name in old:
                changes[name, row] -= 1
            for name in _annotation_names(graph.node_label(node)):
                changes[name, row] += 1
    delta = Delta()
    moved = {}
    for fact, change in changes.items():
        if change:
            moved[fact] = change
            before = facts[fact]
            if before == 0:
                delta.insertions[fact[0]].add(fact[1])
            elif before + change == 0:
                delta.deletions[fact[0]].add(fact[1])
    for node, was in existed.items():
        if was != graph.has_node(node):
            (delta.nodes_removed if was else delta.nodes_added).add(node)
    return delta, moved
