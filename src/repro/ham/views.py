"""Materialized views over the HAM store, kept current commit by commit.

The prototype (Section 5) turns query answers into new graphs that can be
queried again; a server-backed implementation wants those derived graphs
kept up to date as transactions commit.  A :class:`MaterializedView` is one
such answer — a prepared plan (:class:`~repro.service.prepared.PreparedQuery`)
plus the state that keeps it current — advanced by the commit records an
ordered ``store.subscribe`` hook delivers (``store.subscribe(view.apply)``;
in a service, :mod:`repro.subs`'s one hook advances every view its table
holds):

- a plan's view program (:meth:`~repro.service.prepared.PreparedQuery.view`:
  a stratified GraphLog / Datalog program, recursion and negation included,
  or an RPQ's λ, magic-seeded with each bound source in ``seeds``) is
  *maintained* through the typed fact-level :class:`~repro.ham.delta.Delta`
  each record carries, by delete-and-rederive (:mod:`repro.datalog.dred`):
  overdelete → rederive → insert for every evaluation group, recursive or
  not, over int rows encoded in the catalog of the image the view
  materialized from.
  The view keeps that catalog and interns delta values into it; star and
  optional edges see values enter and leave the active domain through the
  delta's ``entered`` / ``left`` (the store derives them once per commit),
  and a catalog bloated by values that left is shed by re-materializing
  (the rule the image uses, :func:`~repro.ham.image.catalog_bloated`);
- a plan without one *diffs* — re-evaluates on commits that touch its
  footprint and set-diffs against the previous answer — and
  ``fallback_reason`` says why: λ of an aggregate or summary (Section 4)
  is not insert-monotone, an RPQ has no p.r.e. image or is nullable with
  no source, or — found at the first refresh — the store holds a relation
  the program reads at another arity, or one relation at two arities.

Either way :meth:`MaterializedView.apply` returns the same thing: the net
rows the commit inserted into and deleted from the requested predicates.

Whoever reads a view's rows is one of its :class:`Holder` s.  The view
counts them per seed and reseeds only when a count crosses 0 ↔ 1, so its
seeds are those its holders read.

The ``abl5`` benchmark compares incremental maintenance against recompute.
"""

from __future__ import annotations

import logging
from collections import Counter

from repro.core.translate import DOMAIN_PREDICATE
from repro.datalog.dred import MaintenancePlan
from repro.errors import ArityError, StoreError
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


def select(relations, seed):
    """``{predicate: rows}`` of a seeded view as a definition whose seed is
    *seed* reads them: the rows whose first column is *seed*, without it.
    No seed (None) reads every row."""
    if seed is None:
        return relations
    return {p: {row[1:] for row in rows if row[0] == seed} for p, rows in relations.items()}


class Holder:
    """One reader of a view's rows — a subscription, or a maintained
    result-cache entry's pin (with its *key*) — those of *definition*'s
    seed, under its names.  The cache sets ``released`` on a pin whose entry
    it dropped; the view's next visitor lets it go."""

    __slots__ = ("view", "seed", "names", "idb", "key", "released")

    def __init__(self, view, definition, key=None):
        self.view = view
        self.seed = definition.seed
        self.names = definition.predicates
        self.idb = definition.idb
        self.key = key
        self.released = False

    def read(self, relations):
        """*relations* of its view, ``{predicate: rows}``, as this holder
        reads them: its seed's rows, under its names."""
        rows = select(relations, self.seed)
        return {name: rows[p] for p, name in zip(self.view.predicates, self.names) if p in rows}

    def answer(self):
        """``(relations, values)``: what :meth:`read` reads of its view now,
        as :func:`~repro.service.protocol.encode_answer` takes it.  A
        maintained view's are the int rows of its state over its catalog's
        ``values`` — its seed's picked out by id, nothing decoded; a
        diffing view's are rows of values (``values`` None)."""
        view = self.view
        if view.maintenance is None:
            return self.read(view.snapshot()), None
        state = view.state
        seed = None if self.seed is None else state.catalog.intern(self.seed)
        relations = {}
        for p, name in zip(view.predicates, self.names):
            relation = state.relations.get(p)
            rows = relation.keys if relation is not None else ()
            relations[name] = rows if seed is None else [r[1:] for r in rows if r[0] == seed]
        return relations, state.catalog.values


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
    current at (-1 before the first :meth:`refresh`).  A seeded definition's
    view answers for each seed in ``seeds``: the definition's own to begin
    with, then those of its ``holders``."""

    def __init__(self, plan, images, params=None, definition=None):
        self.plan = plan
        self.images = images
        self.eval_params = dict(params or {})
        self.definition = definition or plan.view(self.eval_params)
        self.predicates = self.definition.predicates
        self.seeds = {self.definition.seed} - {None}
        self.holders = set()
        self._holds = Counter()  # seed -> holders reading it
        self.maintenance = None  # the MaintenancePlan of a maintained view
        self.fallback_reason = self.definition.reason
        self.version = -1
        self.state = None  # maintained: the MaintainedState ...
        self._domain_size = 0  # ... the size of the active domain ...
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

    def snapshot(self, seed=None):
        """``{predicate: set of rows}`` for every requested predicate, as
        :func:`select` reads them for *seed*."""
        return {p: set(rows) for p, rows in select(self._live(), seed).items()}

    def held_rows(self):
        """Rows a maintained view keeps: every relation of its state."""
        return sum(map(len, self.state.relations.values()))

    # ------------------------------------------------------------- advance

    def _graph(self, version=None):
        """``(version, graph)``: the store's current graph, or the one at the
        retained *version*."""
        store = self.images.store
        current, graph = store.snapshot_versioned()
        if version is None:
            return current, graph
        return version, graph if version == current else store.graph_at(version)

    def refresh(self, version=None):
        """(Re)materialize from scratch: at the store's current version, or
        at the retained *version* a commit record names."""
        version, graph = self._graph(version)
        if self.maintenance is not None:
            try:
                image = self.images.at(version, graph)
                if (
                    self.state is not None
                    and self.state.catalog is image.catalog
                    and catalog_bloated(self._dead, self._domain_size)
                ):
                    # The catalog the state shares with the image is bloated
                    # by values that left the store: both start over.
                    self.images.reset("catalog_bloat")
                    image = self.images.at(version, graph)
                edb = image.edb(self.definition.program, raw=self.plan.op == "datalog")
            except ArityError as why:
                if self.state is not None:
                    raise
                # Found only at the first refresh: the view diffs instead.
                self.maintenance = None
                self.fallback_reason = f"the store's relations are not the program's: {why}"
        if self.maintenance is not None:
            self.state = self.maintenance.evaluate(edb)
            self._domain_size = len(image.domain)
            self._dead = set()
            if self.definition.seed_relation is not None:
                # The store's own rows under the seed relation's name are
                # none of the view's.
                stored = edb.relations.get(self.definition.seed_relation)
                rows = stored.rows if stored is not None else ()
                self._seed(self.seeds, list(map(edb.catalog.decode_row, rows)))
        else:
            self._rows = self._evaluate(version, graph)
            self.diff_refreshes += 1
        self.version = version

    def _evaluate(self, version, graph, seeds=None):
        """The plan's answer at *version*, or a seeded view's: that of each
        of *seeds* (default: the view's), every row prefixed by the seed."""
        image = self.plan.image(self.images, version, graph, self.eval_params)
        if self.definition.seed_relation is None:
            return self.plan.evaluate(graph, image, self.eval_params).decoded()
        rows = {p: set() for p in self.predicates}
        for seed in self.seeds if seeds is None else seeds:
            params = {**self.eval_params, "source": seed}
            answer = self.plan.evaluate(graph, image, params).decoded()
            for p in self.predicates:
                rows[p] |= {(seed, *row) for row in answer[p]}
        return rows

    def _seed(self, plus, minus=()):
        """One pass adding the seeds *plus* and the rows *minus* to and from
        the seed relation."""
        relation = self.definition.seed_relation
        self.maintenance.maintain(self.state, {relation: {(s,) for s in plus}}, {relation: minus})

    def hold(self, holder):
        """Count *holder* among the view's holders, seeding its seed first
        if no holder read it yet."""
        self.holders.add(holder)
        if holder.seed is not None:
            self._holds[holder.seed] += 1
            if holder.seed not in self.seeds:
                self._reseed({holder.seed}, set())

    def release(self, holders):
        """Let *holders* go: seeds no holder reads any more leave in one pass
        (unless none is left).  Returns whether the view is still held."""
        seeds = [h.seed for h in holders if h in self.holders and h.seed is not None]
        self.holders.difference_update(holders)
        self._holds -= Counter(seeds)  # keeps the seeds still held
        left = {seed for seed in seeds if seed not in self._holds}
        if self.holders and left:
            self._reseed(set(), left)
        return bool(self.holders)

    def _reseed(self, plus, minus):
        """Answer for the seeds *plus* too, and no more for *minus*.  A
        maintained view runs one pass over its state, and re-materializes
        at its version should the pass raise; a diffing view evaluates the
        new seeds alone and drops the rows of the old."""
        self.seeds = (self.seeds | plus) - minus
        if self.maintenance is None:
            added = self._evaluate(*self._graph(self.version), plus)
            self._rows = {
                p: {row for row in rows if row[0] not in minus} | added[p]
                for p, rows in self._rows.items()
            }
            return
        try:
            self._seed(plus, {(s,) for s in minus})
        except Exception:
            self.maintenance_errors += 1
            logger.exception(
                "reseeding view %s failed; re-evaluating instead", self.plan.fingerprint[:12]
            )
            self.refresh(self.version)

    def apply(self, record):
        """Advance past one commit *record* — the store's next, as an
        ordered hook delivers them; a record at or below ``version`` is
        skipped.  Returns ``(inserted, deleted)``, the net
        ``{predicate: rows}`` the commit made of the requested predicates,
        or None when the answer did not change; raises :class:`ViewReset`
        when the change is unknown (see there).

        A fallback reads ``record.version`` and the version before it, which
        the trim keeps for a record a commit hook hands over; one read
        outside dispatch may be trimmed away (:class:`StoreError`)."""
        self.churn = 0
        if record.version <= self.version:
            return None
        delta = record.delta
        if delta.is_empty:
            self.version = record.version
            self.skipped_empty += 1
            return None
        if self.maintenance is not None:
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
                except Exception as exc:  # noqa: BLE001 — whatever failed, the view resets
                    self.refresh(record.version)
                    raise ViewReset(
                        f"view re-materialized at version {record.version}"
                    ) from exc
            else:
                self.version = record.version
                if catalog_bloated(self._dead, self._domain_size):
                    # Same rows over a fresh catalog.
                    self.refresh(record.version)
                return self._emit(stats.added, stats.deleted)
        elif not self.plan.footprint & delta.touched_predicates(DOMAIN_PREDICATE):
            # The commit provably misses everything the plan reads.
            self.version = record.version
            return None
        # Re-evaluate at the record's version and diff: the documented
        # fallback, or a failed maintenance pass.
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
        """One DRed pass under *delta*, in place.  The delta's row
        sets are handed over as they are (``maintain`` encodes them once); a
        value's domain fact appears with its first occurrence in the EDB and
        disappears with its last (the delta's ``entered`` / ``left``) — for
        a λ program, whatever the delta says of facts named like the domain
        relation (a node label ``node``): the prepared EDB's domain relation
        is the active domain, which holds their values."""
        delta_plus = dict(delta.insertions)
        delta_minus = dict(delta.deletions)
        delta_plus.pop(self.definition.seed_relation, None)
        delta_minus.pop(self.definition.seed_relation, None)
        entered, left = delta.entered, delta.left
        self._domain_size += len(entered) - len(left)
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
            "seeds": len(self.seeds),
            "maintenance_passes": self.maintenance_passes,
            "diff_refreshes": self.diff_refreshes,
            "deltas_emitted": self.deltas_emitted,
            "skipped_empty": self.skipped_empty,
            "maintenance_errors": self.maintenance_errors,
        }
