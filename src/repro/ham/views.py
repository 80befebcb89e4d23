"""Materialized views over the HAM store, kept current commit by commit.

The prototype (Section 5) turns query answers into new graphs that can be
queried again; a server-backed implementation wants those derived graphs
kept up to date as transactions commit.  A :class:`MaterializedView` is one
such answer — a prepared plan (:class:`~repro.service.prepared.PreparedQuery`)
plus the state that keeps it current — advanced by the commit records an
ordered ``store.subscribe`` hook delivers (``store.subscribe(view.apply)``;
in a service, :mod:`repro.subs`'s one hook advances every view its table
holds for subscriptions and result-cache entries alike):

- a plan's view program (:meth:`~repro.service.prepared.PreparedQuery.view`:
  a stratified GraphLog / Datalog program, recursion and negation included,
  or an RPQ's λ, magic-seeded for a bound source) is *maintained* through
  the typed fact-level :class:`~repro.ham.delta.Delta` each record carries,
  by the counting / DRed engine (:mod:`repro.datalog.dred`): support counts
  for non-recursive strata, overdelete → rederive for recursive ones, over
  int rows encoded in the catalog of the image the view materialized from.
  The view keeps that catalog and interns delta values into it; the values
  of the EDB are reference counted, so star/optional edges see nodes
  appear and disappear without a rescan, and a catalog bloated by values
  that left is shed by re-materializing (the rule the image uses,
  :func:`~repro.ham.image.catalog_bloated`);
- a plan without one *diffs* — re-evaluates on commits that touch its
  footprint and set-diffs against the previous answer — and
  ``fallback_reason`` says why: λ of an aggregate or summary (Section 4)
  is not insert-monotone, an RPQ has no p.r.e. image or is nullable with
  no source, or — found at the first refresh — the store holds a relation
  the program reads at another arity, or one relation at two arities.

Either way :meth:`MaterializedView.apply` returns the same thing: the net
rows the commit inserted into and deleted from the requested predicates.

The ``abl5`` benchmark compares incremental maintenance against recompute.
"""

from __future__ import annotations

import contextlib
import logging

from repro.core.translate import DOMAIN_PREDICATE
from repro.datalog.dred import MaintenancePlan
from repro.errors import ArityError, StoreError
from repro.ham.delta import domain_refs, fold_domain_refs
from repro.ham.image import catalog_bloated

logger = logging.getLogger(__name__)

_EMPTY = frozenset()


def _minus(new, old):
    """``{predicate: rows of *new* that *old* lacks}``, empty ones omitted."""
    missing = {}
    for predicate, rows in new.items():
        rows = rows - old.get(predicate, _EMPTY)
        if rows:
            missing[predicate] = rows
    return missing


class ViewReset(StoreError):
    """:meth:`MaterializedView.apply` re-materialized at the record's
    version with no previous answer to diff against: the view is current,
    but whoever holds its old rows must read them again."""


class MaterializedView:
    """One maintained answer of *plan* under *params*, over the store whose
    relational images *images* (a :class:`~repro.ham.image.StoreImages`)
    owns, as *definition* (default: ``plan.view(params)``) has it: the rows
    of its ``predicates``.  ``mode`` is ``"maintained"`` or ``"diff"`` (see
    the module docstring); ``version`` is the store version the answer is
    current at (-1 before the first :meth:`refresh`)."""

    def __init__(self, plan, images, params=None, definition=None):
        self.plan = plan
        self.images = images
        self.eval_params = dict(params or {})
        self.definition = definition or plan.view(self.eval_params)
        self.predicates = self.definition.predicates
        self.maintenance = None  # the MaintenancePlan of a maintained view
        self.fallback_reason = self.definition.reason
        self.version = -1
        self.state = None  # maintained: the MaintainedState ...
        self._refs = None  # ... value -> occurrences across the EDB ...
        self._dead = None  # ... and the values that left it since
        self._rows = {}  # diff: {predicate: set of rows}
        self.maintenance_passes = 0
        self.diff_refreshes = 0
        self.deltas_emitted = 0
        self.skipped_empty = 0
        self.maintenance_errors = 0
        #: Rows the last :meth:`apply`'s pass overdeleted plus rederived —
        #: its cost beyond the net change.
        self.churn = 0
        if self.fallback_reason is None:
            self.maintenance = MaintenancePlan(self.definition.program, self.predicates)

    @property
    def mode(self):
        return "maintained" if self.maintenance is not None else "diff"

    # ------------------------------------------------------------- answers

    def _live(self):
        """``{predicate: rows}``: decoded from the maintained state (fresh
        sets), or the diff-mode sets the view itself holds."""
        if self.maintenance is not None:
            return {p: self.state.facts(p) for p in self.predicates}
        return self._rows

    def rows(self, predicate):
        """The current answer for one requested *predicate* (a copy)."""
        if self.maintenance is not None:
            return self.state.facts(predicate)
        return set(self._rows.get(predicate, ()))

    def snapshot(self):
        """``{predicate: set of rows}`` for every requested predicate."""
        return {p: set(rows) for p, rows in self._live().items()}

    def held_rows(self):
        """Rows a maintained view keeps: every relation of its state."""
        return sum(map(len, self.state.relations.values()))

    # ------------------------------------------------------------- advance

    def refresh(self, version=None):
        """(Re)materialize from scratch: at the store's current version, or
        at the retained *version* a commit record names."""
        store = self.images.store
        current, graph = store.snapshot_versioned()
        if version is None:
            version = current
        elif version != current:
            graph = store.graph_at(version)
        if self.maintenance is not None:
            try:
                image, edb = self._maintained_edb(version, graph)
            except ArityError as why:
                if self.state is not None:
                    raise
                # Found only at the first refresh: the view diffs instead.
                self.maintenance = None
                self.fallback_reason = f"the store's relations are not the program's: {why}"
        if self.maintenance is not None:
            self.state = self.maintenance.evaluate(edb)
            self._refs = domain_refs(image.database)
            self._dead = set()
        else:
            image = self.images.at(version, graph) if self.plan.reads_relations else None
            self._rows = self.plan.evaluate(graph, image, self.eval_params)
            self.diff_refreshes += 1
        self.version = version

    def _maintained_edb(self, version, graph):
        """``(image, edb)``: the store's image at *version* and the database
        of it the program is evaluated over.  Raises :class:`ArityError`
        when the store holds one relation at two arities, or one at another
        arity than the program reads it (an RPQ label over edges with label
        arguments)."""
        image = self.images.at(version, graph)
        if (
            self.state is not None
            and self.state.catalog is image.catalog
            and catalog_bloated(self._dead, self._refs)
        ):
            # The catalog the state shares with the image is bloated by
            # values that left the store: both start over.
            self.images.reset("catalog_bloat")
            image = self.images.at(version, graph)
        # λ's programs read the active domain (``node``); a Datalog
        # request evaluates against the raw EDB, and so does its view.
        edb = image.database if self.plan.op == "datalog" else image.prepared
        program = self.definition.program
        misread = [p for p in program.edb_predicates
                   if p in edb and edb.arity_of(p) != program.arity_of(p)]
        if misread:
            raise ArityError(f"it holds {misread} at other arities than the program reads")
        return image, edb

    def apply(self, record):
        """Advance past one commit *record* — the store's next, as an
        ordered hook delivers them; a record at or below ``version`` is
        skipped.  Returns ``(inserted, deleted)``, the net
        ``{predicate: rows}`` the commit made of the requested predicates,
        or None when the answer did not change; raises :class:`ViewReset`
        when the change is unknown (see there)."""
        self.churn = 0
        if record.version <= self.version:
            return None
        delta = record.delta
        if delta is not None and delta.is_empty:
            self.version = record.version
            self.skipped_empty += 1
            return None
        if self.maintenance is not None and delta is not None:
            try:
                stats = self._maintain(delta)
            except Exception:
                self.maintenance_errors += 1
                logger.exception(
                    "maintenance of view %s failed; re-evaluating instead",
                    self.plan.fingerprint[:12],
                )
                # The pass may have left the state half-updated: restore the
                # answer the subscribers hold, then diff as below.
                try:
                    self.refresh(record.version - 1)
                except Exception as exc:  # noqa: BLE001 — e.g. history truncated
                    self.refresh(record.version)
                    raise ViewReset(
                        f"view re-materialized at version {record.version}"
                    ) from exc
            else:
                self.version = record.version
                if catalog_bloated(self._dead, self._refs):
                    # Same rows over a fresh catalog; with the version's
                    # graph no longer retained, a later commit retries.
                    with contextlib.suppress(StoreError):
                        self.refresh(record.version)
                return self._emit(stats.added, stats.deleted)
        elif (
            delta is not None
            and self.plan.footprint is not None
            and not (self.plan.footprint & delta.touched_predicates(DOMAIN_PREDICATE))
        ):
            # The commit provably misses everything the plan reads.
            self.version = record.version
            return None
        # Re-evaluate at the record's version and diff: the documented
        # fallback, a delta-less record, or a failed maintenance pass.
        before = self._live()
        self.refresh(record.version)
        after = self._live()
        return self._emit(_minus(after, before), _minus(before, after))

    def _emit(self, inserted, deleted):
        if not inserted and not deleted:
            return None
        self.deltas_emitted += 1
        return inserted, deleted

    def _maintain(self, delta):
        """One counting/DRed pass under *delta*, in place.  The delta's row
        sets are handed over as they are (``maintain`` encodes them once); a
        value's domain fact appears with its first occurrence in the EDB and
        disappears with its last (:func:`~repro.ham.delta.fold_domain_refs`)
        — for a λ program, whatever the delta says of facts named like
        the domain relation (a node label ``node``): the prepared EDB's
        domain relation is the active domain, which holds their values."""
        delta_plus = dict(delta.insertions)
        delta_minus = dict(delta.deletions)
        entered, left = fold_domain_refs(self._refs, delta)
        self._dead |= left
        self._dead -= entered
        if self.plan.op != "datalog":
            delta_plus[DOMAIN_PREDICATE] = {(value,) for value in entered}
            delta_minus[DOMAIN_PREDICATE] = {(value,) for value in left}
        stats = self.maintenance.maintain(
            self.state, delta_plus=delta_plus, delta_minus=delta_minus
        )
        self.maintenance_passes += 1
        self.churn = stats.overdeleted + stats.rederived
        return stats

    def stats(self):
        return {
            "mode": self.mode,
            "fallback_reason": self.fallback_reason,
            "version": self.version,
            "rows": (
                sum(map(self.state.count, self.predicates))
                if self.maintenance is not None
                else sum(map(len, self._rows.values()))
            ),
            "predicates": list(self.predicates),
            "maintenance_passes": self.maintenance_passes,
            "diff_refreshes": self.diff_refreshes,
            "deltas_emitted": self.deltas_emitted,
            "skipped_empty": self.skipped_empty,
            "maintenance_errors": self.maintenance_errors,
        }
