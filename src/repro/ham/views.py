"""Materialized GraphLog views over the HAM store, maintained incrementally.

The prototype (Section 5) turns query answers into new graphs that can be
queried again; a server-backed implementation wants those derived graphs
kept up to date as transactions commit.  This module maintains materialized
views through the typed fact-level :class:`~repro.ham.delta.Delta` each
commit record carries:

- stratified views — including recursion and negation — are maintained
  under insertions, deletions, and label updates by the counting / DRed
  engine (:mod:`repro.datalog.dred`): support counts for non-recursive
  strata, overdelete → rederive for recursive ones;
- views whose λ-translation aggregates or summarizes (Section 4) are *not*
  insert-monotone (a new tuple can change an aggregate's value, deleting
  the old answer), so they fall back to full recomputation — the fallback
  reason is logged once at registration time;
- the active domain is maintained by reference counting the values in the
  view's EDB, so star/optional edges see nodes appear and disappear without
  rescanning the database.

The ``abl5`` benchmark compares incremental maintenance against recompute.
"""

from __future__ import annotations

import logging
import time

from repro.core.engine import GraphLogEngine, prepare_database
from repro.core.query_graph import GraphicalQuery, QueryGraph
from repro.core.translate import DOMAIN_PREDICATE, translate, translate_extended
from repro.datalog.ast import Literal
from repro.datalog.dred import MaintenancePlan
from repro.errors import AggregationError, TranslationError
from repro.graphs.bridge import database_from_graph
from repro.ham.delta import domain_refs, fold_domain_refs

logger = logging.getLogger(__name__)


def is_monotone_program(program):
    """Insertions can only add answers: no negation, and no aggregation.

    Accepts both plain :class:`~repro.datalog.ast.Program` and the extended
    :class:`~repro.aggregation.aggregates.AggregateProgram`.  Aggregate and
    path-summary rules are *not* monotone even though they contain no
    negated literal — a new tuple changes ``count``/``sum``/``min`` answers,
    deleting the old one — so any program carrying them reports False.
    """
    from repro.aggregation.aggregates import AggregateProgram

    if isinstance(program, AggregateProgram):
        if program.aggregate_rules or program.summary_rules:
            return False
        rules = program.plain_rules
    else:
        rules = program
    return all(
        element.positive
        for rule in rules
        for element in rule.body
        if isinstance(element, Literal)
    )


class MaterializedView:
    """One registered view: the query, its program, and the current state."""

    def __init__(self, name, query, domain_predicate=DOMAIN_PREDICATE, program=None):
        if isinstance(query, QueryGraph):
            query = GraphicalQuery([query])
        self.name = name
        self.query = query
        self.domain_predicate = domain_predicate
        if program is not None:
            # Pre-translated program (e.g. a datalog subscription that has
            # no graphical query to translate from).
            self.program = program
        else:
            try:
                self.program = translate(query, domain_predicate=domain_predicate)
            except TranslationError:
                # Blobs/path summaries need the extended engine; they are not
                # insert-monotone, so the view is recompute-only.
                self.program = translate_extended(
                    query, domain_predicate=domain_predicate
                )
        self.monotone = is_monotone_program(self.program)
        self.plan = None
        self.fallback_reason = None
        from repro.aggregation.aggregates import AggregateProgram

        if isinstance(self.program, AggregateProgram):
            # Summary/aggregate rules are opaque to the Datalog maintenance
            # planner (and not insert-monotone in the first place).
            self.fallback_reason = "aggregation/summarization is not maintainable"
        else:
            try:
                self.plan = MaintenancePlan(self.program)
            except Exception as exc:  # StratificationError and kin
                self.fallback_reason = f"not maintainable: {exc}"
        if self.fallback_reason is not None:
            logger.info(
                "view %r falls back to full recomputation: %s",
                name,
                self.fallback_reason,
            )
        self.state = None  # evaluated Database
        self.counts = None  # support counts for the maintenance plan
        self._domain_refs = None  # value -> occurrences across EDB facts
        self.full_refreshes = 0
        self.incremental_updates = 0
        self.overdeleted = 0
        self.rederived = 0
        self.maintenance_ms = 0.0

    @property
    def maintainable(self):
        return self.plan is not None

    def answers(self, predicate=None):
        if self.state is None:
            raise RuntimeError(f"view {self.name!r} has not been refreshed")
        if predicate is None:
            predicate = self.query.graphs[-1].head_predicate
        return set(self.state.facts(predicate))

    def refresh_full(self, edb):
        if self.plan is not None:
            prepared = prepare_database(edb, self.domain_predicate)
            self.state, self.counts = self.plan.evaluate(prepared)
        else:
            self.state = GraphLogEngine().run(self.query, edb)
        self._domain_refs = domain_refs(edb)
        self.full_refreshes += 1
        return self.state

    def apply_delta(self, delta):
        """Maintain the view under one commit's :class:`Delta`, in place."""
        if self.state is None:
            raise RuntimeError(f"view {self.name!r} has not been refreshed")
        if self.plan is None:
            raise AggregationError(
                f"view {self.name!r} is not maintainable: {self.fallback_reason}"
            )
        started = time.perf_counter()
        delta_plus = {p: set(rows) for p, rows in delta.insertions.items()}
        delta_minus = {p: set(rows) for p, rows in delta.deletions.items()}
        self._fold_domain_changes(delta, delta_plus, delta_minus)
        stats = self.plan.maintain(
            self.state,
            delta_plus=delta_plus,
            delta_minus=delta_minus,
            counts=self.counts,
        )
        self.incremental_updates += 1
        self.overdeleted += stats.overdeleted
        self.rederived += stats.rederived
        self.maintenance_ms += (time.perf_counter() - started) * 1000.0
        return stats

    def _fold_domain_changes(self, delta, delta_plus, delta_minus):
        """Turn EDB fact changes into domain-predicate facts: a value's
        domain fact appears with its first occurrence and disappears with
        its last (:func:`~repro.ham.delta.fold_domain_refs`)."""
        entered, left = fold_domain_refs(self._domain_refs, delta)
        domain = self.domain_predicate
        if entered:
            delta_plus.setdefault(domain, set()).update((v,) for v in entered)
        if left:
            delta_minus.setdefault(domain, set()).update((v,) for v in left)

    def stats(self):
        return {
            "maintainable": self.maintainable,
            "fallback_reason": self.fallback_reason,
            "full_refreshes": self.full_refreshes,
            "incremental_updates": self.incremental_updates,
            "overdeleted": self.overdeleted,
            "rederived": self.rederived,
            "maintenance_ms": round(self.maintenance_ms, 3),
        }


class ViewManager:
    """Keeps a set of materialized views in sync with a HAM store.

    Subscribe-on-commit: each commit's typed delta is routed through the
    counting/DRed maintenance engine, for deletions and label updates as
    much as insertions.  Only views the planner cannot handle (aggregation,
    summaries, non-stratifiable translations) fall back to full
    recomputation — with the reason logged.
    """

    def __init__(self, store):
        self.store = store
        self.views = {}
        store.subscribe(self._on_commit)

    def register(self, name, query):
        view = MaterializedView(name, query)
        view.refresh_full(self._current_edb())
        self.views[name] = view
        return view

    def answers(self, name, predicate=None):
        return self.views[name].answers(predicate)

    def stats(self):
        """Aggregate and per-view maintenance counters (service `stats` op)."""
        views = {name: view.stats() for name, view in self.views.items()}
        totals = {
            "full_refreshes": sum(v["full_refreshes"] for v in views.values()),
            "incremental_updates": sum(
                v["incremental_updates"] for v in views.values()
            ),
            "overdeleted": sum(v["overdeleted"] for v in views.values()),
            "rederived": sum(v["rederived"] for v in views.values()),
            "view_maintenance_ms": round(
                sum(v["maintenance_ms"] for v in views.values()), 3
            ),
        }
        return {"count": len(views), "totals": totals, "views": views}

    def _current_edb(self):
        return database_from_graph(self.store.graph)

    def _on_commit(self, record):
        delta = record.delta
        if delta is not None and delta.is_empty:
            return
        for view in self.views.values():
            if delta is not None and view.maintainable:
                try:
                    view.apply_delta(delta)
                    continue
                except Exception:
                    logger.exception(
                        "incremental maintenance of view %r failed; "
                        "falling back to full refresh",
                        view.name,
                    )
            view.refresh_full(self._current_edb())
