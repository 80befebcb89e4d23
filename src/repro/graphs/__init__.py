"""Graph data model: labeled multigraphs, relational bridge, algorithms."""

from repro.graphs.algorithms import (
    condensation,
    is_acyclic,
    reachable_from,
    shortest_path_lengths,
    strongly_connected_components,
    topological_sort,
)
from repro.graphs.bridge import (
    EdgeLabel,
    GraphSchema,
    PredicateShape,
    database_from_graph,
    graph_from_database,
    node_relation,
)
from repro.graphs.closure import (
    closure_methods,
    reflexive_transitive_closure,
    transitive_closure,
    transitive_closure_naive,
    transitive_closure_scc,
    transitive_closure_seminaive,
    transitive_closure_squaring,
    transitive_closure_warshall,
)
from repro.graphs.multigraph import Edge, LabeledMultigraph

__all__ = [
    "Edge",
    "EdgeLabel",
    "GraphSchema",
    "LabeledMultigraph",
    "PredicateShape",
    "closure_methods",
    "condensation",
    "database_from_graph",
    "graph_from_database",
    "is_acyclic",
    "node_relation",
    "reachable_from",
    "reflexive_transitive_closure",
    "shortest_path_lengths",
    "strongly_connected_components",
    "topological_sort",
    "transitive_closure",
    "transitive_closure_naive",
    "transitive_closure_scc",
    "transitive_closure_seminaive",
    "transitive_closure_squaring",
    "transitive_closure_warshall",
]
