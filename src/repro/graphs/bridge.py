"""Relational database <-> graph encoding (Section 2 of the paper).

The paper's mapping: a tuple ``P(a₁..aᵢ, b₁..bⱼ, c₁..cₖ)`` is an edge from
node ``(a₁..aᵢ)`` to node ``(b₁..bⱼ)`` labeled ``P(c₁..cₖ)``.  A
:class:`GraphSchema` records, per predicate, the split ``(i, j, k)``;
the default treats binary predicates as plain ``1/1/0`` edges and unary
predicates as node annotations (as in Figure 1, where ``capital`` marks
city nodes).
"""

from __future__ import annotations

from repro.datalog.database import Database
from repro.graphs.multigraph import LabeledMultigraph


class PredicateShape:
    """How one predicate's columns split into source/target/label parts."""

    __slots__ = ("source_arity", "target_arity", "label_arity")

    def __init__(self, source_arity, target_arity, label_arity=0):
        if source_arity < 0 or target_arity < 0 or label_arity < 0:
            raise ValueError("arities must be non-negative")
        self.source_arity = source_arity
        self.target_arity = target_arity
        self.label_arity = label_arity

    @property
    def total_arity(self):
        return self.source_arity + self.target_arity + self.label_arity

    def split(self, row):
        i, j = self.source_arity, self.target_arity
        source = tuple(row[:i])
        target = tuple(row[i : i + j])
        extra = tuple(row[i + j :])
        return source, target, extra

    def join(self, source, target, extra=()):
        return tuple(source) + tuple(target) + tuple(extra)

    def __repr__(self):
        return f"PredicateShape({self.source_arity}/{self.target_arity}/{self.label_arity})"

    def __eq__(self, other):
        return isinstance(other, PredicateShape) and (
            (self.source_arity, self.target_arity, self.label_arity)
            == (other.source_arity, other.target_arity, other.label_arity)
        )


class GraphSchema:
    """Per-predicate shapes, with paper-faithful defaults.

    Defaults: arity 2 -> ``1/1/0`` edge; arity 1 -> node annotation
    (``1/0/0``); arity n>2 -> ``1/1/(n-2)`` (the first two columns are the
    endpoints, the rest label the edge, as in the ``flight(21:45,23:15)``
    example of Section 2).
    """

    def __init__(self, shapes=None):
        self._shapes = dict(shapes or {})

    def declare(self, predicate, source_arity, target_arity, label_arity=0):
        self._shapes[predicate] = PredicateShape(source_arity, target_arity, label_arity)
        return self

    def shape_for(self, predicate, arity):
        shape = self._shapes.get(predicate)
        if shape is not None:
            if shape.total_arity != arity:
                raise ValueError(
                    f"schema shape for {predicate!r} covers {shape.total_arity} columns, "
                    f"relation has arity {arity}"
                )
            return shape
        if arity == 1:
            return PredicateShape(1, 0, 0)
        if arity == 2:
            return PredicateShape(1, 1, 0)
        return PredicateShape(1, 1, arity - 2)

    def __contains__(self, predicate):
        return predicate in self._shapes


class EdgeLabel:
    """A graph edge label: predicate name plus extra label arguments."""

    __slots__ = ("predicate", "extra")

    def __init__(self, predicate, extra=()):
        self.predicate = predicate
        self.extra = tuple(extra)

    def __eq__(self, other):
        return isinstance(other, EdgeLabel) and (
            (self.predicate, self.extra) == (other.predicate, other.extra)
        )

    def __hash__(self):
        return hash((self.predicate, self.extra))

    def __repr__(self):
        return f"EdgeLabel({self})"

    def __str__(self):
        if not self.extra:
            return self.predicate
        args = ",".join(str(value) for value in self.extra)
        return f"{self.predicate}({args})"


def _unwrap_node(node):
    """Single-value nodes are stored unwrapped for readability."""
    return node[0] if len(node) == 1 else node


def _wrap_node(node):
    return node if isinstance(node, tuple) else (node,)


def _edge_fact(source, target, label):
    """``(predicate, row)``: the fact the edge ``source -label-> target``
    encodes.  A label that is no :class:`EdgeLabel` names a predicate with
    no extra columns; a tuple node spreads over several columns."""
    if not isinstance(label, EdgeLabel):
        label = EdgeLabel(str(label))
    return label.predicate, _wrap_node(source) + _wrap_node(target) + label.extra


def _annotation_names(label):
    """The unary predicates a node label makes true of its node: one per
    name of a set label, the label itself for any other truthy label (a
    string label is one name, not a sequence of characters)."""
    if not label:
        return frozenset()
    if isinstance(label, (set, frozenset)):
        return frozenset(str(name) for name in label)
    return frozenset((str(label),))


def graph_from_database(database, schema=None, predicates=None):
    """Encode *database* as a labeled multigraph.

    Node-annotation predicates (e.g. unary ``capital``) become node labels:
    the node's label is the frozenset of annotation predicate names that hold
    for it.  Every other predicate contributes edges with
    :class:`EdgeLabel` labels.
    """
    schema = schema or GraphSchema()
    graph = LabeledMultigraph()
    annotations = {}
    chosen = predicates if predicates is not None else sorted(database.predicates)
    for predicate in chosen:
        relation = database.relation(predicate)
        shape = schema.shape_for(predicate, relation.arity)
        for row in relation:
            source, target, extra = shape.split(row)
            if shape.target_arity == 0:
                node = _unwrap_node(source)
                graph.add_node(node)
                annotations.setdefault(node, set()).add(predicate)
            else:
                graph.add_edge(
                    _unwrap_node(source),
                    _unwrap_node(target),
                    EdgeLabel(predicate, extra),
                )
    for node, names in annotations.items():
        graph.set_node_label(node, frozenset(names))
    return graph


def database_from_graph(graph, schema=None):
    """Decode a labeled multigraph back into a relational database.

    Inverse of :func:`graph_from_database` for graphs it produced: edges
    become tuples (:func:`_edge_fact`), node labels unary facts
    (:func:`_annotation_names`).  The store's commit deltas and value
    refcount (:mod:`repro.ham.delta`) encode facts by the same two helpers.
    """
    database = Database()
    for edge in graph.edges:
        predicate, row = _edge_fact(edge.source, edge.target, edge.label)
        database.add_fact(predicate, *row)
    for node in graph.nodes:
        for name in _annotation_names(graph.node_label(node)):
            database.add_fact(name, *_wrap_node(node))
    return database


def node_relation(database, name="node"):
    """Add a unary *name* relation holding every active-domain value.

    GraphLog's Kleene star and optional operators expand to an equality
    alternative (Section 2); translating that safely needs a domain
    predicate, which this helper materializes.
    """
    values = database.active_domain()
    database.add_facts(name, [(value,) for value in values])
    return database
