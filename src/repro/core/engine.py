"""Evaluation of graphical queries: translate with λ, run the Datalog engine.

Closure edges need no special handling here: λ emits each ``p+`` as the TC
rule pair of Definition 3.2, and the columnar core recognises that pair and
computes it with a transitive-closure kernel (:mod:`repro.datalog.columnar`)
— the paper's Section 6 remark that implementations can benefit from
specialized transitive-closure computation.  The ``abl3`` benchmark compares
it with the naive specification and the RPQ automaton.
"""

from __future__ import annotations

from repro.core.query_graph import GraphicalQuery, QueryGraph
from repro.core.translate import DOMAIN_PREDICATE, translate, translate_extended
from repro.datalog.database import Database
from repro.datalog.engine import Engine, match_atom
from repro.graphs.bridge import database_from_graph


def prepare_database(database, domain_predicate=DOMAIN_PREDICATE):
    """Return a copy of *database* with the unary domain relation populated.

    Kleene star and optional edges translate to rules with a zero-step
    branch guarded by ``node(X)``; this helper materializes that relation
    over the active domain.
    """
    prepared = database.copy()
    values = prepared.active_domain()
    prepared.add_facts(domain_predicate, [(value,) for value in values])
    return prepared


class GraphLogEngine:
    """Evaluates GraphLog graphical queries over relational databases.

    Parameters:
        method: Datalog evaluation strategy — ``columnar`` (the int-encoded
            semi-naive kernels) or ``naive`` (the tuple walker that specifies
            them; see docs/ENGINE.md).
        domain_predicate: name of the auto-maintained node-domain relation.
        optimize: run the rule optimizer (dedupe, view inlining, pruning)
            on the translated program before evaluation; the defined
            relations are kept as roots, auxiliaries may be folded away.
    """

    def __init__(self, method="columnar", domain_predicate=DOMAIN_PREDICATE,
                 optimize=False):
        self.method = method
        self.domain_predicate = domain_predicate
        self.optimize = optimize

    # ------------------------------------------------------------------ API

    def translate(self, query):
        """λ-translate a query graph or graphical query to a Program."""
        return translate(_as_graphical(query), domain_predicate=self.domain_predicate)

    def run(self, query, database):
        """Evaluate *query*; returns a Database with all derived relations.

        *database* may be a relational :class:`Database` or a
        :class:`~repro.graphs.multigraph.LabeledMultigraph` (converted via
        the Section 2 encoding).
        """
        database = _as_database(database)
        graphical = _as_graphical(query)
        prepared = prepare_database(database, self.domain_predicate)
        if any(graph.summaries for graph in graphical.graphs):
            from repro.aggregation.aggregates import AggregateEngine

            program = translate_extended(graphical, self.domain_predicate)
            return AggregateEngine(method=self.method).evaluate(program, prepared)
        program = self.translate(graphical)
        if self.optimize:
            from repro.datalog.optimize import optimize as optimize_program

            program = optimize_program(
                program, roots=sorted(graphical.idb_predicates)
            )
        return Engine(method=self.method).evaluate(program, prepared)

    def answers(self, query, database, predicate=None):
        """Evaluate and return the defined relation's tuples.

        With several query graphs, *predicate* picks which defined relation
        to return (default: the last graph's head predicate).
        """
        graphical = _as_graphical(query)
        if predicate is None:
            predicate = graphical.graphs[-1].head_predicate
        result = self.run(graphical, database)
        return set(result.facts(predicate))

    def run_with_provenance(self, query, database):
        """Evaluate recording derivations; returns ``(result, provenance)``.

        The provenance map feeds :mod:`repro.datalog.provenance` — e.g.
        ``explain(provenance, "not-desc-of", row)`` — and the GraphLog
        answer-highlighting of :func:`repro.visual.highlight.highlight_graphlog`.
        """
        database = _as_database(database)
        program = self.translate(query)
        prepared = prepare_database(database, self.domain_predicate)
        # Provenance needs the naive walker's per-derivation support sets;
        # the columnar backend derives in batches and records none.
        engine = Engine("naive", record_provenance=True)
        result = engine.evaluate(program, prepared)
        return result, engine.provenance

    def explain(self, query, database, predicate, row):
        """The derivation tree of one answer tuple (see provenance module)."""
        from repro.datalog.provenance import explain as _explain

        _result, provenance = self.run_with_provenance(query, database)
        return _explain(provenance, predicate, tuple(row))

    def match(self, query, database, goal):
        """Evaluate and match an arbitrary goal atom (see ``match_atom``)."""
        result = self.run(query, database)
        if isinstance(goal, str):
            from repro.datalog.parser import parse_atom

            goal = parse_atom(goal)
        return match_atom(result, goal)


def _as_graphical(query):
    if isinstance(query, QueryGraph):
        return GraphicalQuery([query])
    if isinstance(query, GraphicalQuery):
        return query
    raise TypeError(f"expected a QueryGraph or GraphicalQuery, got {type(query).__name__}")


def _as_database(database):
    if isinstance(database, Database):
        return database
    # Duck-type the multigraph to avoid a hard dependency cycle.
    if hasattr(database, "edge_triples"):
        return database_from_graph(database)
    raise TypeError(
        f"expected a Database or LabeledMultigraph, got {type(database).__name__}"
    )


def run(query, database, method="columnar"):
    """One-shot convenience: evaluate a query and return the database."""
    return GraphLogEngine(method=method).run(query, database)


def answers(query, database, predicate=None, method="columnar"):
    """One-shot convenience: evaluate and return the defined relation."""
    return GraphLogEngine(method=method).answers(query, database, predicate)
