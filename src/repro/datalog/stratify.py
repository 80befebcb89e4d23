"""Dependence graphs and stratification of Datalog programs.

The *dependence graph* of a program has one node per predicate and an edge
``q -> p`` whenever ``q`` appears in the body of a rule for ``p`` (Definition
2.6 of the paper, stated there for graphical queries).  The edge is *negative*
when some such occurrence is negated.  A program is stratified when no cycle
of the dependence graph contains a negative edge; the strata give the
bottom-up evaluation order.
"""

from __future__ import annotations

from collections import defaultdict

from repro import obs
from repro.datalog.ast import Literal
from repro.errors import StratificationError
from repro.graphs.algorithms import strongly_connected_components


class DependenceGraph:
    """Predicate-level dependence graph with positive/negative edges."""

    def __init__(self):
        self.nodes = set()
        self._positive = defaultdict(set)  # target -> {sources}
        self._negative = defaultdict(set)

    @classmethod
    def of_program(cls, program, negative_extra=None):
        """Build the dependence graph of *program*.

        ``negative_extra`` optionally maps head predicates to body predicates
        whose dependence must be treated as negative even when the literal is
        positive (used for aggregate rules, which stratify like negation).
        """
        graph = cls()
        negative_extra = negative_extra or {}
        for rule in program:
            head = rule.head.predicate
            graph.nodes.add(head)
            for element in rule.body:
                if not isinstance(element, Literal):
                    continue
                body_pred = element.predicate
                graph.nodes.add(body_pred)
                forced = body_pred in negative_extra.get(head, ())
                graph.add_edge(body_pred, head, negative=element.negative or forced)
        return graph

    def add_edge(self, source, target, negative=False):
        self.nodes.add(source)
        self.nodes.add(target)
        if negative:
            self._negative[target].add(source)
        else:
            self._positive[target].add(source)

    def dependencies(self, predicate):
        """All predicates that *predicate* depends on (pos or neg)."""
        return self._positive[predicate] | self._negative[predicate]

    def negative_dependencies(self, predicate):
        return set(self._negative[predicate])

    def edges(self):
        """Iterate over ``(source, target, negative)`` triples."""
        for target, sources in self._positive.items():
            for source in sources:
                yield (source, target, False)
        for target, sources in self._negative.items():
            for source in sources:
                yield (source, target, True)

    def strongly_connected_components(self):
        """Tarjan's algorithm (:func:`repro.graphs.algorithms.strongly_connected_components`);
        returns a list of frozensets.

        With edges directed body-predicate -> head-predicate, components are
        emitted dependents-first (a head's component appears before the
        components of the predicates it depends on); reverse the list for a
        dependencies-first evaluation order."""
        forward = {node: set() for node in self.nodes}
        for source, target, _negative in self.edges():
            forward[source].add(target)
        return strongly_connected_components(forward)

    def is_acyclic(self, ignore_self_loops=False):
        """True when the graph has no cycles (optionally allowing p -> p)."""
        for component in self.strongly_connected_components():
            if len(component) > 1:
                return False
            (node,) = component
            if not ignore_self_loops and node in self.dependencies(node):
                return False
        return True


class Strata(dict):
    """``{predicate: stratum}``, and ``groups``: the IDB predicates'
    evaluation groups in evaluation order — by stratum, then SCC
    condensation topological order inside each stratum — as tuples, so a
    plan that keeps its strata keeps them small."""

    __slots__ = ("groups",)


def stratify(program, negative_extra=None):
    """Assign a stratum number to every predicate of *program*.

    Returns :class:`Strata` with EDB predicates at stratum 0.
    Raises :class:`StratificationError` when negation occurs through
    recursion (an SCC containing a negative edge).
    """
    with obs.span("stratify") as span:
        graph = DependenceGraph.of_program(program, negative_extra=negative_extra)
        components = graph.strongly_connected_components()
        component_of = {}
        for component in components:
            for node in component:
                component_of[node] = component

        # Reject negative edges inside a strongly connected component.
        for source, target, negative in graph.edges():
            if negative and component_of[source] == component_of[target]:
                raise StratificationError(
                    f"negation through recursion: {target!r} depends negatively on "
                    f"{source!r} within the same recursive component"
                )

        strata = Strata()
        # Tarjan emits dependents before their dependencies; reverse so each
        # component's dependencies have their strata assigned first.
        for component in reversed(components):
            level = 0
            for node in component:
                for dep in graph.dependencies(node):
                    if component_of[dep] == component:
                        continue
                    dep_level = strata.get(dep, 0)
                    bump = 1 if dep in graph.negative_dependencies(node) else 0
                    level = max(level, dep_level + bump)
            for node in component:
                strata[node] = level
        for predicate in graph.nodes:
            strata.setdefault(predicate, 0)
        # Reversed, Tarjan's list is dependencies-first (topological): the
        # evaluation order within a stratum, which the stable sort keeps.
        idb = program.idb_predicates
        groups = [tuple(c & idb) for c in reversed(components) if not c.isdisjoint(idb)]
        groups.sort(key=lambda group: max(strata[p] for p in group))
        strata.groups = tuple(groups)
        if span:
            span.annotate(
                predicates=len(strata),
                sccs=len(components),
                strata=len(set(strata.values())),
            )
        return strata


def is_stratified(program, negative_extra=None):
    """True when the program admits a stratification."""
    try:
        stratify(program, negative_extra=negative_extra)
    except StratificationError:
        return False
    return True


def recursive_components(program):
    """The SCCs of the IDB dependence graph that are actually recursive.

    A component is recursive when it has more than one predicate or its
    single predicate depends on itself.
    """
    graph = DependenceGraph.of_program(program)
    out = []
    for component in graph.strongly_connected_components():
        if len(component) > 1:
            out.append(component)
            continue
        (node,) = component
        if node in graph.dependencies(node):
            out.append(component)
    return out
