"""Incremental maintenance of stratified Datalog fixpoints, over int rows.

:meth:`MaintenancePlan.evaluate` runs the columnar core and keeps its result
encoded: a :class:`MaintainedState` holds every relation the program
mentions as int rows over the EDB's
:class:`~repro.datalog.columnar.TermCatalog` (a store view's: the image's)
in :class:`_Rows`, whose indexes ``add`` / ``discard`` keep current, and
compiles once every join maintenance runs as a columnar pipeline.
:meth:`MaintenancePlan.maintain` then updates the state in place under a
fact-level EDB delta — in time proportional to the change, not the database
— by delete-and-rederive (DRed), one evaluation group (SCC within a
stratum, as the engine evaluates) at a time, recursive or not:
*overdelete* every fact with a derivation that touched the delta (semi-naive
rounds against the old state), then *rederive* — one batch semijoin per
rule and round, seeded with every overdeleted fact at once — what is still
derivable from what remains, then propagate insertions semi-naive against
the new state.  Stratified negation is handled in both directions: a fact
*appearing* under a negated literal triggers overdeletion, a fact
*disappearing* triggers insertion.  A group that is exactly the transitive
closure of one base relation (:func:`~repro.datalog.classify.closure_base`)
skips overdeletion and rederivation when every edge the pass removed from
the base still has a detour — its source reaches its target over the base
as it is now: every old path can take the detours, so the closure loses
nothing, and only the insertions are left to propagate.

The old state is never copied: it is the current rows minus what the pass
added plus what it removed (:class:`_Old`).  The net effect of a run is
recorded per predicate, so downstream groups and callers see only real
changes — a fact deleted and rederived is no change at all — and only the
net change of the predicates a plan reports is decoded back to values.
"""

from __future__ import annotations

from collections import deque
from operator import itemgetter

from repro import obs
from repro.datalog.columnar import _compile_pipeline, encode_database, fixpoint
from repro.datalog.engine import EvaluationStats
from repro.datalog.plan import ProgramPlan
from repro.errors import ArityError


class MaintenanceStats:
    """Counters from one :meth:`MaintenancePlan.maintain` run.

    ``added``/``deleted`` carry the net per-predicate row changes of the
    run (``{predicate: set of rows}``, empty predicates omitted) for the
    predicates the plan reports, so callers — live subscriptions in
    particular — can stream the exact view delta without diffing
    before/after snapshots.
    """

    __slots__ = (
        "overdeleted", "rederived", "facts_inserted", "facts_deleted",
        "dred_groups", "added", "deleted",
    )

    def __init__(self):
        self.overdeleted = 0
        self.rederived = 0
        self.facts_inserted = 0
        self.facts_deleted = 0
        self.dred_groups = 0
        self.added = {}
        self.deleted = {}

    def __repr__(self):
        return (
            f"MaintenanceStats(+{self.facts_inserted}/-{self.facts_deleted}, "
            f"overdeleted={self.overdeleted}, rederived={self.rederived})"
        )


class _KeySet(set):
    """A row set that is also its own full-width index (``get`` by the whole
    row), so a fully-bound probe needs no second copy of the rows."""

    __slots__ = ()

    def get(self, key, default=None):
        return {key} if key in self else default


class _Rows:
    """A mutable set of encoded rows of one arity, read by the columnar
    kernels like a :class:`~repro.datalog.columnar.ColumnarRelation`.

    ``index(positions)`` has the same key shapes, but its buckets are sets
    that :meth:`add` / :meth:`discard` keep current in O(1) per row and
    built index; an emptied bucket is dropped, so ``key in index`` is
    membership.
    """

    __slots__ = ("arity", "keys", "_indexes")

    def __init__(self, arity, rows=()):
        self.arity = arity
        self.keys = _KeySet(rows)
        self._indexes = {}

    @property
    def rows(self):
        return self.keys

    def __len__(self):
        return len(self.keys)

    def index(self, positions):
        if len(positions) == self.arity > 1:
            return self.keys
        entry = self._indexes.get(positions)
        if entry is None:
            entry = self._indexes[positions] = (itemgetter(*positions), {})
            _file(entry, self.keys)
        return entry[1]

    def add(self, rows):
        """Add *rows*; returns the set of those that were new."""
        new = set(rows)
        new -= self.keys
        if new:
            self.keys |= new
            for entry in self._indexes.values():
                _file(entry, new)
        return new

    def discard(self, rows):
        """Discard *rows*; returns the set of those that were present."""
        gone = self.keys.intersection(rows)
        if gone:
            self.keys -= gone
            for key_of, mapping in self._indexes.values():
                for row in gone:
                    key = key_of(row)
                    bucket = mapping[key]
                    if len(bucket) == 1:
                        del mapping[key]
                    else:
                        bucket.discard(row)
        return gone


def _file(entry, rows):
    key_of, mapping = entry
    for row in rows:
        key = key_of(row)
        bucket = mapping.get(key)
        if bucket is None:
            mapping[key] = {row}
        else:
            bucket.add(row)


class _Old:
    """A predicate's extension as the running pass found it: ``(current −
    added) ∪ removed``, where ``added`` / ``removed`` are the pass's net
    changes so far.  Read by overdeletion; a predicate the pass has not
    touched answers straight from its current indexes."""

    __slots__ = ("current", "added", "removed")

    def __init__(self, current):
        self.current = current
        self.added = set()
        self.removed = _Rows(current.arity)

    @property
    def rows(self):
        return (self.current.keys - self.added) | self.removed.keys

    def __len__(self):
        return len(self.current) - len(self.added) + len(self.removed)

    def index(self, positions):
        current = self.current.index(positions)
        if not self.added and not self.removed.keys:
            return current
        return _OldIndex(current, self.added, self.removed.index(positions))


class _OldIndex:
    """One index of an :class:`_Old` extension, merged per probe."""

    __slots__ = ("current", "added", "removed")

    def __init__(self, current, added, removed):
        self.current = current
        self.added = added
        self.removed = removed

    def get(self, key, default=None):
        rows = self.current.get(key)
        if rows and self.added:
            rows = rows - self.added
        extra = self.removed.get(key)
        if extra:
            rows = rows | extra if rows else extra
        return rows or default

    def __contains__(self, key):
        return bool(self.get(key))


class MaintenancePlan:
    """The reusable, per-program half of incremental maintenance.

    The program's :class:`~repro.datalog.plan.ProgramPlan` (its groups,
    their closure bases and every maintenance join's order) is built once
    here; :meth:`evaluate` runs the fixpoint by it and compiles the groups'
    joins against a state, and :meth:`maintain` then costs only the joins
    the delta touches.  *report* names the predicates whose net change
    :meth:`maintain` decodes into its stats (default: all of the program's).
    Raises what the plan raises for non-stratifiable programs — callers
    fall back to full recomputation in that case.
    """

    def __init__(self, program, report=None):
        self.program = program
        self.plan = ProgramPlan(program)
        self.groups = self.plan.groups
        self.report = frozenset(program.predicates if report is None else report)
        self.idb = program.idb_predicates
        #: Program facts are axioms: maintenance never deletes them.
        self.axioms = self.plan.facts

    def evaluate(self, edb):
        """Full evaluation by the columnar core, kept encoded: a
        :class:`MaintainedState` over the catalog of *edb*'s encoding (for
        a store view, *edb* is the image's and is that encoding)."""
        encoded = encode_database(edb)
        evaluated = fixpoint(self.plan, encoded, EvaluationStats())
        relations = {}
        for predicate in self.program.predicates:
            relation = evaluated.relation(predicate)
            relations[predicate] = _Rows(relation.arity, relation.rows)
        return MaintainedState(self, encoded, relations)

    def maintain(self, state, delta_plus=None, delta_minus=None):
        """Update *state* (in place) under an EDB delta; returns stats.

        ``delta_plus``/``delta_minus`` map predicate names to iterables of
        rows that became true / false; predicates the program does not
        mention are ignored.  Deltas naming an IDB predicate are treated as
        assertions/retractions of base facts under that name.
        """
        stats = MaintenanceStats()
        plus = state.encode(delta_plus)
        minus = state.encode(delta_minus)
        tracer = obs.tracer()
        with tracer.span(
            "dred.maintain",
            delta_plus={p: len(rows) for p, rows in sorted(plus.items())},
            delta_minus={p: len(rows) for p, rows in sorted(minus.items())},
        ) as root:
            state.begin()
            # Pure-EDB deltas apply immediately; IDB-named deltas are handled
            # by their own group below (they interact with derived support).
            for predicate in plus.keys() | minus.keys():
                added, removed = plus.get(predicate, ()), minus.get(predicate, ())
                if predicate in self.idb:
                    state.reassert(predicate, added, removed)
                else:
                    state.remove(predicate, removed)
                    state.insert(predicate, added)

            for group, compiled in zip(self.groups, state.compiled):
                own_plus = {p: plus[p] for p in group.predicates if p in plus}
                own_minus = {p: minus[p] for p in group.predicates if p in minus}
                touched = (state.old[p] for p in group.body_predicates)
                if not (own_plus or own_minus) and not any(
                    old.added or old.removed.keys for old in touched
                ):
                    continue
                stats.dred_groups += 1
                with tracer.span("dred.group", predicates=sorted(group.predicates)) as span:
                    _dred(state, group, compiled, own_plus, own_minus, stats, span)

            for predicate, old in state.old.items():
                stats.facts_inserted += len(old.added)
                stats.facts_deleted += len(old.removed)
                if predicate in self.report:
                    if old.added:
                        stats.added[predicate] = state.decode(old.added)
                    if old.removed.keys:
                        stats.deleted[predicate] = state.decode(old.removed.keys)
            if root:
                root.annotate(
                    inserted=stats.facts_inserted,
                    deleted=stats.facts_deleted,
                    overdeleted=stats.overdeleted,
                    rederived=stats.rederived,
                    dred_groups=stats.dred_groups,
                )
        return stats


def _dred(state, group, compiled, own_plus, own_minus, stats, span):
    overdelete, insert, rederive = compiled
    # Phase 0: base-fact deltas aimed directly at this group's predicates.
    for predicate, rows in own_minus.items():
        state.remove(predicate, rows)
    for predicate, rows in own_plus.items():
        state.insert(predicate, rows)

    if group.closure is not None and not (own_plus or own_minus) and _detoured(
        state, *group.closure
    ):
        # Every old path survives on detours: nothing to overdelete.
        if span:
            span.annotate(detoured=True)
    else:
        _overdelete_rederive(state, group, overdelete, rederive, stats, span)

    # Phase 3: insert propagation against the new state.  Triggers:
    # net-added rows under positive literals, net-removed rows under negated
    # ones (the appended literal re-checks against the new state).
    _rounds(
        insert,
        state.changes(group.body_predicates, removed=False),
        state.changes(group.body_predicates, removed=True),
        state.insert,
        span,
        "insert_rounds",
    )


def _detoured(state, base, k):
    """Whether every edge the pass removed from a closure's *base* relation
    (rows ``row[:k] -> row[k:]``) still has a detour: one breadth-first
    search per removed source over the base's index on its first *k*
    columns, as the base is now, reaches every removed target.  Then each
    path of the old closure can replace its removed edges by detours, and
    the closure loses no row."""
    removed = state.old[base].removed.keys
    if not removed:
        return True
    edges = state.relations[base].index(tuple(range(k)))
    # Index keys are what itemgetter returns: a value for k == 1, else a tuple.
    source_of = itemgetter(*range(k))
    target_of = itemgetter(*range(k, 2 * k))
    wanted = {}
    for row in removed:
        wanted.setdefault(source_of(row), set()).add(target_of(row))
    for source, targets in wanted.items():
        seen = set()
        frontier = deque([source])
        while frontier and not targets <= seen:
            for row in edges.get(frontier.popleft(), ()):
                node = target_of(row)
                if node not in seen:
                    seen.add(node)
                    frontier.append(node)
        if not targets <= seen:
            return False
    return True


def _overdelete_rederive(state, group, overdelete, rederive, stats, span):
    # Phase 1: overdelete.  Triggers: net-removed rows under positive
    # literals, net-added rows under negated ones; the joins read the old
    # state.
    stats.overdeleted += _rounds(
        overdelete,
        state.changes(group.body_predicates, removed=True),
        state.changes(group.body_predicates, removed=False),
        state.remove,
        span,
        "overdelete_rounds",
    )

    # Phase 2: rederive.  An overdeleted fact still derivable from what
    # remains goes back (net: it never changed) — every candidate of a head
    # in one batch semijoin per rule; iterate, since a rederived fact can
    # support another candidate.
    candidates = state.changes(group.predicates, removed=True, copy=set)
    while candidates:
        rederived = 0
        for head, pipeline in rederive:
            rows = candidates.get(head)
            if rows:
                back = state.insert(head, pipeline.fire(list(rows)))
                rows -= back
                rederived += len(back)
        if not rederived:
            break
        stats.rederived += rederived
        if span:
            span.append("rederive_rounds", rederived)


def _rounds(joins, triggers, negated, apply, span, label):
    """Semi-naive rounds: fire every join whose delta literal has trigger
    rows (positive literals on *triggers*, negated ones on *negated*), keep
    the head rows ``apply(predicate, rows)`` says changed the state, and
    feed them back as the next round's triggers.  Returns how many
    changed."""
    total = 0
    while True:
        frontier = {}
        for head, predicate, positive, pipeline in joins:
            rows = (triggers if positive else negated).get(predicate)
            if rows:
                changed = apply(head, pipeline.fire(rows))
                if changed:
                    frontier.setdefault(head, []).extend(changed)
        produced = sum(map(len, frontier.values()))
        total += produced
        if span:
            span.append(label, produced)
        if not frontier:
            return total
        triggers, negated = frontier, {}


class MaintainedState:
    """A program's fixpoint as int rows, with the joins that maintain it.

    ``relations`` maps every predicate the program mentions to its
    :class:`_Rows` over ``catalog`` — the catalog the EDB was encoded over,
    kept for the state's lifetime: delta values are interned into it.
    ``old`` holds each predicate's :class:`_Old` view and, through it, the
    running pass's net changes.  :meth:`facts` decodes on demand.
    """

    def __init__(self, plan, encoded, relations):
        self.catalog = encoded.catalog
        self.relations = relations
        self.old = {p: _Old(rows) for p, rows in relations.items()}
        self.axioms = {}
        for predicate, row in plan.axioms:
            self.axioms.setdefault(predicate, set()).add(self.catalog.intern_row(row))
        #: Rows no overdeletion may take: the axioms, and what the EDB
        #: itself asserts under an IDB name.
        self.kept = {p: set(rows) for p, rows in self.axioms.items()}
        for predicate in plan.idb:
            base = encoded.relations.get(predicate)
            if base is not None and base.keys:
                self.kept.setdefault(predicate, set()).update(base.keys)
        self.compiled = [self._compile(group) for group in plan.groups]

    def _compile(self, group):
        """*group*'s joins as pipelines over this state: DRed's
        (overdelete, insert, rederive) triple."""

        def compiled(resolve):
            return [
                (
                    rule.head.predicate,
                    predicate,
                    positive,
                    _compile_pipeline(rule, ordered, resolve, self.catalog, (), True),
                )
                for rule, predicate, positive, ordered in group.joins
            ]

        rederive = [
            (
                rule.head.predicate,
                _compile_pipeline(rule, ordered, self.relations.get, self.catalog, (), True),
            )
            for rule, ordered in group.rederive
        ]
        return compiled(self.old.get), compiled(self.relations.get), rederive

    # ------------------------------------------------------------- a pass

    def encode(self, delta):
        """*delta* (``{predicate: rows}``) as ``{predicate: set of int rows}``
        over this state's catalog, for the predicates the state holds."""
        encoded = {}
        intern = self.catalog.intern
        for predicate, rows in (delta or {}).items():
            relation = self.relations.get(predicate)
            if relation is None:
                continue
            out = set()
            for row in rows:
                if len(row) != relation.arity:
                    raise ArityError(
                        f"relation {predicate!r} has arity {relation.arity}, "
                        f"got tuple of length {len(row)}"
                    )
                out.add(tuple([intern(value) for value in row]))
            if out:
                encoded[predicate] = out
        return encoded

    def begin(self):
        """Forget the previous pass's net changes."""
        for old in self.old.values():
            old.added = set()
            old.removed = _Rows(old.current.arity)

    def insert(self, predicate, rows):
        """Add *rows* and note the net change; returns the rows that were new."""
        new = self.relations[predicate].add(rows)
        if new:
            old = self.old[predicate]
            back = old.removed.discard(new)
            old.added |= new - back if back else new
        return new

    def reassert(self, predicate, plus, minus):
        """The EDB's own rows under IDB name *predicate* gained *plus* and
        lost *minus* (never an axiom)."""
        kept = self.kept.setdefault(predicate, set())
        kept.difference_update(set(minus) - self.axioms.get(predicate, set()))
        kept.update(plus)

    def remove(self, predicate, rows):
        """Discard *rows* — never a kept one — and note the net change;
        returns the rows that were present."""
        kept = self.kept.get(predicate)
        gone = self.relations[predicate].discard(set(rows) - kept if kept else rows)
        if gone:
            old = self.old[predicate]
            undone = old.added & gone
            old.added -= undone
            old.removed.add(gone - undone if undone else gone)
        return gone

    def changes(self, predicates, removed, copy=list):
        """``{predicate: rows}``: the pass's net removals (or additions) so
        far among *predicates*, each copied by *copy*."""
        out = {}
        for predicate in predicates:
            old = self.old[predicate]
            rows = old.removed.keys if removed else old.added
            if rows:
                out[predicate] = copy(rows)
        return out

    # ------------------------------------------------------------- reading

    def count(self, predicate):
        relation = self.relations.get(predicate)
        return len(relation) if relation is not None else 0

    def decode(self, rows):
        values = self.catalog.values
        return {tuple([values[i] for i in row]) for row in rows}

    def facts(self, predicate):
        """The decoded rows of *predicate* (a fresh set; empty when absent)."""
        relation = self.relations.get(predicate)
        return self.decode(relation.keys) if relation is not None else set()
