"""Incremental maintenance of stratified Datalog fixpoints.

Given a fully-evaluated database for a program and a fact-level EDB delta
(insertions and deletions), :class:`MaintenancePlan` updates the database
*in place* to the fixpoint over the new EDB — in time proportional to the
change, not the database.  Two complementary techniques, chosen per
evaluation group (SCC within a stratum, the same grouping the engine
evaluates in):

- **Support counting** for non-recursive groups: every derived fact carries
  the number of rule instantiations deriving it (plus one "extensional"
  support when the fact is also asserted directly).  A delta adjusts the
  counts through signed telescoping delta-joins — the delta at one body
  position, earlier positions against the new state, later positions
  against the old — and a fact is deleted exactly when its count reaches
  zero.  Exact, no rederivation needed; unsound for recursive groups
  (cyclic support) and for negated literals with projected (anonymous)
  variables, which therefore take the DRed path.

- **Delete-and-rederive (DRed)** for recursive groups: *overdelete* every
  fact with a derivation that touched the delta (an overestimate, computed
  semi-naive style against the old state), then *rederive* overdeleted
  facts still derivable from what remains, then propagate insertions
  semi-naive.  Stratified negation is handled in both directions: a fact
  *appearing* under a negated literal triggers overdeletion, a fact
  *disappearing* triggers insertion.

The net effect of a run is recorded per predicate so downstream strata (and
callers, e.g. materialized views) see only real changes: a fact deleted and
rederived is no change at all.
"""

from __future__ import annotations

from collections import defaultdict

from repro import obs
from repro.datalog.ast import ArithmeticAssign, Atom, Comparison, Literal
from repro.datalog.database import Relation
from repro.datalog.engine import Engine, _declare_relations, _evaluation_groups
from repro.datalog.safety import schedule_body
from repro.datalog.stratify import stratify
from repro.datalog.terms import Variable

_OLD = "\x00old"
_NEW = "\x00new"


class MaintenanceStats:
    """Counters from one :meth:`MaintenancePlan.maintain` run.

    ``added``/``deleted`` carry the net per-predicate row changes of the
    run (``{predicate: set of rows}``, empty predicates omitted) so callers
    — live subscriptions in particular — can stream the exact view delta
    without diffing before/after snapshots.
    """

    __slots__ = (
        "overdeleted",
        "rederived",
        "count_updates",
        "facts_inserted",
        "facts_deleted",
        "counting_groups",
        "dred_groups",
        "added",
        "deleted",
    )

    def __init__(self):
        self.overdeleted = 0
        self.rederived = 0
        self.count_updates = 0
        self.facts_inserted = 0
        self.facts_deleted = 0
        self.counting_groups = 0
        self.dred_groups = 0
        self.added = {}
        self.deleted = {}

    def __repr__(self):
        return (
            f"MaintenanceStats(+{self.facts_inserted}/-{self.facts_deleted}, "
            f"overdeleted={self.overdeleted}, rederived={self.rederived}, "
            f"count_updates={self.count_updates})"
        )


class _UnionRelation:
    """Read-only union of a live relation and a live extra relation.

    Used as the *old* view of a predicate while its rows are being moved
    from the current relation into the removed set: ``current ∪ removed``
    equals the pre-commit extension exactly as long as nothing has been
    added to the predicate yet.
    """

    __slots__ = ("_base", "_extra", "arity")

    def __init__(self, base, extra):
        self._base = base
        self._extra = extra
        self.arity = base.arity

    def lookup(self, positions, values):
        base = self._base.lookup(positions, values)
        extra = self._extra.lookup(positions, values)
        if not extra:
            return base
        if not base:
            return extra
        return list(base) + list(extra)


class _Facade:
    """A Database stand-in resolving predicate names through a callable."""

    __slots__ = ("_resolve",)

    def __init__(self, resolve):
        self._resolve = resolve

    def relation(self, predicate):
        return self._resolve(predicate)


def _delta_orders(schedule):
    """``{index: ordered}`` — for every literal of *schedule*, the join order
    that enumerates a delta at that literal first (``ordered[0]``).

    A delta under a negated literal is enumerated through its positive twin
    — the rows that *became* true — and the original literal, appended last,
    re-checks the negation against the state the join reads.  A pure
    function of the schedule, so a plan computes it once.
    """
    orders = {}
    for index, element in enumerate(schedule):
        if not isinstance(element, Literal):
            continue
        others = [e for j, e in enumerate(schedule) if j != index]
        if element.positive:
            orders[index] = schedule_body(others, first=element)
        else:
            twin = Literal(element.atom, positive=True)
            orders[index] = schedule_body(others, first=twin) + [element]
    return orders


def _counting_orders(schedule):
    """``{index: (ordered, aliases)}`` for the counting technique's hybrid
    joins: the delta literal first, every other literal renamed to read the
    new (before the delta's position) or old (after it) extension of its
    predicate; ``aliases`` lists ``(alias, predicate, old)``."""
    orders = {}
    for index, element in enumerate(schedule):
        if not isinstance(element, Literal):
            continue
        others = []
        aliases = []
        for j, other in enumerate(schedule):
            if j == index:
                continue
            if isinstance(other, Literal):
                old = j > index
                alias = other.predicate + (_OLD if old else _NEW)
                aliases.append((alias, other.predicate, old))
                other = Literal(Atom(alias, other.atom.args), positive=other.positive)
            others.append(other)
        orders[index] = (
            schedule_body(others, first=Literal(element.atom, positive=True)),
            aliases,
        )
    return orders


def _bind_head(head, row):
    """The binding making *head* equal *row*, or None on mismatch."""
    binding = {}
    for term, value in zip(head.args, row):
        if isinstance(term, Variable):
            seen = binding.get(term)
            if seen is None:
                binding[term] = value
            elif seen != value:
                return None
        elif term.value != value:
            return None
    return binding


class MaintenancePlan:
    """The reusable, per-program half of incremental maintenance.

    Stratification, evaluation grouping, body schedules, the delta-first
    join order of every (rule, body literal) and per-group technique
    selection run once here; :meth:`maintain` then costs only the joins the
    delta actually touches.  Raises whatever :func:`stratify`
    raises for non-stratifiable programs — callers fall back to full
    recomputation in that case.
    """

    def __init__(self, program):
        self.program = program
        #: The tuple walker every maintenance join runs through.
        self.engine = Engine("naive", check_safety=False)
        self.strata = stratify(program)
        self.idb = program.idb_predicates
        self.groups = _evaluation_groups(program, self.strata, self.idb)
        #: Program facts are axioms: maintenance never deletes them.
        self.axioms = {
            (rule.head.predicate, tuple(t.value for t in rule.head.args))
            for rule in program
            if rule.is_fact
        }
        self._group_plans = []
        for group in self.groups:
            schedules = [
                (rule, schedule_body(rule))
                for rule in program
                if not rule.is_fact and rule.head.predicate in group
            ]
            eligible = self._counting_eligible(
                group, [schedule for _rule, schedule in schedules]
            )
            # (rule, schedule, delta orders, counting orders or None)
            rules = [
                (
                    rule,
                    schedule,
                    _delta_orders(schedule),
                    _counting_orders(schedule) if eligible else None,
                )
                for rule, schedule in schedules
            ]
            self._group_plans.append((group, rules, body_preds_of(rules), eligible))

    @staticmethod
    def _counting_eligible(group, schedules):
        """Counting is exact only without recursion and with fully-bound
        negated literals (a projected negation flips per *instance*, not per
        row, so per-row signed counting would overcount)."""
        for schedule in schedules:
            for element in schedule:
                if not isinstance(element, Literal):
                    continue
                if element.positive and element.predicate in group:
                    return False
                if element.negative and any(
                    isinstance(t, Variable) and t.is_anonymous
                    for t in element.atom.args
                ):
                    return False
        return True

    # ------------------------------------------------------------- evaluate

    def evaluate(self, edb):
        """Full evaluation plus initial support counts.

        Returns ``(database, counts)``: the evaluated database (a new copy,
        as :meth:`Engine.evaluate`) and the derivation-count map for every
        counting-eligible group's facts.  Facts present without any rule
        derivation (program facts, or EDB rows under an IDB name) get one
        extensional support so a count of zero always means "gone".
        """
        database = Engine(check_safety=False).evaluate(self.program, edb)
        counts = {}
        for group, rules, _body_preds, eligible in self._group_plans:
            if not eligible:
                continue
            for rule, schedule, _orders, _counting in rules:
                head_pred = rule.head.predicate
                for row, _support in self.engine._fire(rule, schedule, database):
                    key = (head_pred, row)
                    counts[key] = counts.get(key, 0) + 1
            for predicate in group:
                edb_rows = edb.facts(predicate) if hasattr(edb, "facts") else ()
                for row in database.facts(predicate):
                    key = (predicate, row)
                    extensional = (row in edb_rows) + ((predicate, row) in self.axioms)
                    total = counts.get(key, 0) + extensional
                    # Every present row has some support; a derivation-free,
                    # non-extensional row can only come from a caller-seeded
                    # database, so pin it rather than let its count read 0.
                    counts[key] = total if total else 1
        self.warm(database)
        return database, counts

    def warm(self, database):
        """Pre-build every column index the maintenance joins will probe.

        A first delta join against a large relation would otherwise pay a
        full lazy index build — O(database) hiding inside a supposedly
        O(delta) maintain() call.  Amortized here, where evaluation already
        paid a proportional cost.
        """
        for _group, rules, _body_preds, _eligible in self._group_plans:
            for rule, schedule, orders, _counting in rules:
                for ordered in orders.values():
                    bound = {
                        v for v in ordered[0].variables() if not v.is_anonymous
                    }
                    self._warm_schedule(ordered[1:], bound, database)
                # Rederivation probes run with the head variables bound.
                head_vars = {
                    v for v in rule.head_variables() if not v.is_anonymous
                }
                self._warm_schedule(schedule, head_vars, database)

    @staticmethod
    def _warm_schedule(elements, bound, database):
        bound = set(bound)
        for element in elements:
            if isinstance(element, Literal):
                positions = tuple(
                    i
                    for i, term in enumerate(element.atom.args)
                    if not isinstance(term, Variable)
                    or (not term.is_anonymous and term in bound)
                )
                if element.predicate in database:
                    database.relation(element.predicate).ensure_index(positions)
                if element.positive:
                    bound.update(
                        v for v in element.variables() if not v.is_anonymous
                    )
            elif isinstance(element, Comparison):
                if element.op == "==":
                    bound.update(element.variables())
            elif isinstance(element, ArithmeticAssign):
                bound.update(element.variables())

    # ------------------------------------------------------------- maintain

    def maintain(self, database, delta_plus=None, delta_minus=None, counts=None):
        """Update *database* (in place) under an EDB delta; returns stats.

        ``delta_plus``/``delta_minus`` map predicate names to iterables of
        rows that became true / false.  ``counts`` is the support-count map
        from :meth:`evaluate`, updated in place; without it every group
        takes the DRed path (still correct, counting is the fast path for
        the non-recursive groups).  Deltas naming an IDB predicate are
        treated as assertions/retractions of base facts under that name.
        """
        stats = MaintenanceStats()
        tracer = obs.tracer()
        delta_plus = {
            p: {tuple(r) for r in rows} for p, rows in (delta_plus or {}).items()
        }
        delta_minus = {
            p: {tuple(r) for r in rows} for p, rows in (delta_minus or {}).items()
        }
        with tracer.span(
            "dred.maintain",
            delta_plus={p: len(rows) for p, rows in sorted(delta_plus.items())},
            delta_minus={p: len(rows) for p, rows in sorted(delta_minus.items())},
            # Maintenance joins run the native walker: deltas are small by
            # design, so per-row encoding into the columnar form would cost
            # more than the joins it accelerates (see docs/ENGINE.md).
            backend="native",
        ) as root:
            added = {}
            removed = {}

            def note_add(predicate, row):
                out = removed.get(predicate)
                if out is not None and out.discard(row):
                    return
                into = added.get(predicate)
                if into is None:
                    into = added[predicate] = Relation(predicate, len(row))
                into.add(row)

            def note_remove(predicate, row):
                out = added.get(predicate)
                if out is not None and out.discard(row):
                    return
                into = removed.get(predicate)
                if into is None:
                    into = removed[predicate] = Relation(predicate, len(row))
                into.add(row)

            # Pure-EDB deltas apply immediately; IDB-named deltas are handled
            # by their own group below (they interact with derived support).
            for predicate in set(delta_plus) | set(delta_minus):
                if predicate in self.idb:
                    continue
                for row in delta_minus.get(predicate, ()):
                    if predicate in database and database.relation(predicate).discard(row):
                        note_remove(predicate, row)
                for row in delta_plus.get(predicate, ()):
                    if database.relation(predicate, len(row)).add(row):
                        note_add(predicate, row)

            for group, rules, body_preds, eligible in self._group_plans:
                group_plus = {p: delta_plus[p] for p in group if p in delta_plus}
                group_minus = {p: delta_minus[p] for p in group if p in delta_minus}
                touched = group_plus or group_minus or any(
                    added.get(p) or removed.get(p) for p in body_preds
                )
                if not touched:
                    continue
                _declare_relations((rule for rule, *_plan in rules), database.relation)
                if eligible and counts is not None:
                    stats.counting_groups += 1
                    with tracer.span(
                        "dred.group", technique="counting", predicates=sorted(group)
                    ) as span:
                        self._maintain_counting(
                            group, rules, database, added, removed,
                            group_plus, group_minus, counts, note_add, note_remove,
                            stats,
                        )
                        if span:
                            span.annotate(count_updates=stats.count_updates)
                else:
                    stats.dred_groups += 1
                    with tracer.span(
                        "dred.group", technique="dred", predicates=sorted(group)
                    ) as span:
                        self._maintain_dred(
                            group, rules, database, added, removed,
                            group_plus, group_minus, note_add, note_remove, stats,
                            span=span,
                        )

            stats.facts_inserted = sum(len(r) for r in added.values())
            stats.facts_deleted = sum(len(r) for r in removed.values())
            stats.added = {p: set(r) for p, r in added.items() if len(r)}
            stats.deleted = {p: set(r) for p, r in removed.items() if len(r)}
            if root:
                root.annotate(
                    inserted=stats.facts_inserted,
                    deleted=stats.facts_deleted,
                    overdeleted=stats.overdeleted,
                    rederived=stats.rederived,
                    counting_groups=stats.counting_groups,
                    dred_groups=stats.dred_groups,
                )
        return stats

    # ------------------------------------------------------------- internals

    def _old_resolver(self, database, added, removed):
        """Per-phase resolver mapping predicates to their *old* extension.

        While a group's own rows only move from current to removed, the
        union view tracks the old state exactly and costs nothing to build;
        a predicate that also gained rows needs a materialized snapshot.
        """
        cache = {}

        def resolve(predicate):
            view = cache.get(predicate)
            if view is not None:
                return view
            relation = database.relation(predicate)
            add = added.get(predicate)
            rem = removed.get(predicate)
            if not add and not rem:
                view = relation
            elif not add:
                view = _UnionRelation(relation, rem)
            else:
                view = Relation(predicate, relation.arity)
                for row in relation:
                    if row not in add:
                        view.add(row)
                if rem:
                    view.add_many(rem.tuples)
            cache[predicate] = view
            return view

        return _Facade(resolve)

    def _maintain_dred(
        self, group, rules, database, added, removed,
        group_plus, group_minus, note_add, note_remove, stats,
        span=obs.NULL_SPAN,
    ):
        engine = self.engine

        # Phase 0: base-fact deltas aimed directly at this group's predicates.
        for predicate, rows in group_minus.items():
            relation = database.relation(predicate)
            for row in rows:
                if (predicate, row) in self.axioms:
                    continue
                if relation.discard(row):
                    note_remove(predicate, row)
        for predicate, rows in group_plus.items():
            relation = database.relation(predicate, None)
            for row in rows:
                if relation.add(row):
                    note_add(predicate, row)

        # Phase 1: overdelete.  Triggers: net-removed rows under positive
        # literals, net-added rows under negated literals; joins run against
        # the old state (current ∪ removed while nothing is re-added).
        old_state = self._old_resolver(database, added, removed)
        minus_triggers = {
            p: set(removed[p].tuples)
            for p in body_preds_of(rules)
            if removed.get(p)
        }
        plus_triggers = {
            p: set(added[p].tuples)
            for p in body_preds_of(rules)
            if added.get(p)
        }

        def overdelete_round(triggers, negated_triggers):
            produced = defaultdict(set)
            for rule, schedule, orders, _counting in rules:
                head_pred = rule.head.predicate
                relation = database.relation(head_pred)
                for index, ordered in orders.items():
                    element = schedule[index]
                    # A negated literal fires on the rows that *became*
                    # true; its appended original re-checks the old state.
                    fired_by = triggers if element.positive else negated_triggers
                    rows = fired_by.get(element.predicate)
                    if not rows:
                        continue
                    delta = Relation(element.predicate, len(next(iter(rows))))
                    delta.add_many(rows)
                    for row, _support in engine._fire(
                        rule, ordered, old_state,
                        delta_position=0, delta_relation=delta,
                    ):
                        if (head_pred, row) in self.axioms:
                            continue
                        if relation.discard(row):
                            note_remove(head_pred, row)
                            produced[head_pred].add(row)
                            stats.overdeleted += 1
            return produced

        frontier = overdelete_round(minus_triggers, plus_triggers)
        if span:
            span.append(
                "overdelete_rounds", sum(len(rows) for rows in frontier.values())
            )
        while frontier:
            frontier = overdelete_round(frontier, {})
            if span:
                span.append(
                    "overdelete_rounds", sum(len(rows) for rows in frontier.values())
                )

        # Phase 2: rederive.  An overdeleted fact still derivable from the
        # remaining state goes back (net: it never changed); iterate, since
        # a rederived fact can support another candidate.
        candidates = {
            p: set(removed[p].tuples) for p in group if removed.get(p)
        }
        progressed = True
        while progressed and any(candidates.values()):
            progressed = False
            round_rederived = 0
            for predicate, rows in candidates.items():
                relation = database.relation(predicate)
                for row in list(rows):
                    if self._derivable(rules, database, predicate, row):
                        relation.add(row)
                        note_add(predicate, row)  # cancels the removal
                        rows.discard(row)
                        stats.rederived += 1
                        round_rederived += 1
                        progressed = True
            if span and round_rederived:
                span.append("rederive_rounds", round_rederived)

        # Phase 3: insert propagation against the new state.  Triggers:
        # net-added rows under positive literals, net-removed rows under
        # negated ones (the appended literal re-checks against new state).
        plus_triggers = {
            p: set(added[p].tuples)
            for p in body_preds_of(rules)
            if added.get(p)
        }
        minus_triggers = {
            p: set(removed[p].tuples)
            for p in body_preds_of(rules)
            if removed.get(p)
        }

        def insert_round(triggers, negated_triggers):
            produced = defaultdict(set)
            for rule, schedule, orders, _counting in rules:
                head_pred = rule.head.predicate
                relation = database.relation(head_pred)
                for index, ordered in orders.items():
                    element = schedule[index]
                    fired_by = triggers if element.positive else negated_triggers
                    rows = fired_by.get(element.predicate)
                    if not rows:
                        continue
                    delta = Relation(element.predicate, len(next(iter(rows))))
                    delta.add_many(rows)
                    for row, _support in engine._fire(
                        rule, ordered, database,
                        delta_position=0, delta_relation=delta,
                    ):
                        if relation.add(row):
                            note_add(head_pred, row)
                            produced[head_pred].add(row)
            return produced

        frontier = insert_round(plus_triggers, minus_triggers)
        if span:
            span.append("insert_rounds", sum(len(rows) for rows in frontier.values()))
        while frontier:
            frontier = insert_round(frontier, {})
            if span:
                span.append(
                    "insert_rounds", sum(len(rows) for rows in frontier.values())
                )

    def _derivable(self, rules, database, predicate, row):
        for rule, schedule, _orders, _counting in rules:
            if rule.head.predicate != predicate:
                continue
            binding = _bind_head(rule.head, row)
            if binding is not None and self.engine._fire(
                rule, schedule, database, binding=binding, first_only=True
            ):
                return True
        return False

    def _maintain_counting(
        self, group, rules, database, added, removed,
        group_plus, group_minus, counts, note_add, note_remove, stats,
    ):
        """Exact signed-delta count maintenance for a non-recursive group.

        For the delta at body position *i*, positions before *i* read the
        new state and positions after it the old state (the telescoping
        decomposition of new ⋈ − old ⋈), so each lost or gained rule
        instantiation is counted exactly once.
        """
        engine = self.engine
        old_state = self._old_resolver(database, added, removed)
        new_state = database
        changes = defaultdict(int)

        # Base-fact deltas on this group's own predicates: one extensional
        # support each.
        for predicate, rows in group_minus.items():
            for row in rows:
                if (predicate, row) in self.axioms:
                    continue  # the program still asserts it
                if counts.get((predicate, row), 0) > 0:
                    changes[(predicate, row)] -= 1
        for predicate, rows in group_plus.items():
            for row in rows:
                changes[(predicate, row)] += 1

        def views(predicate, old):
            return (old_state if old else new_state).relation(predicate)

        for rule, schedule, _orders, counting in rules:
            head_pred = rule.head.predicate
            for index, (ordered, aliases) in counting.items():
                element = schedule[index]
                if element.positive:
                    signed = (
                        (removed.get(element.predicate), -1),
                        (added.get(element.predicate), +1),
                    )
                else:
                    signed = (
                        (added.get(element.predicate), -1),
                        (removed.get(element.predicate), +1),
                    )
                if not any(rel for rel, _sign in signed):
                    continue
                # Hybrid schedule: every other literal reads the new or the
                # old extension by its position relative to the delta.
                alias_map = {
                    alias: views(predicate, old) for alias, predicate, old in aliases
                }
                facade = _Facade(alias_map.__getitem__)
                for delta_rel, sign in signed:
                    if not delta_rel:
                        continue
                    for row, _support in engine._fire(
                        rule, ordered, facade,
                        delta_position=0, delta_relation=delta_rel,
                    ):
                        changes[(head_pred, row)] += sign

        for (predicate, row), change in changes.items():
            if change == 0:
                continue
            stats.count_updates += 1
            key = (predicate, row)
            before = counts.get(key, 0)
            after = before + change
            if after <= 0:
                counts.pop(key, None)
                if before > 0 and database.relation(predicate).discard(row):
                    note_remove(predicate, row)
            else:
                counts[key] = after
                if before == 0 and database.relation(predicate, len(row)).add(row):
                    note_add(predicate, row)


def body_preds_of(rules):
    """Every predicate referenced in the bodies of *rules*."""
    return {
        element.predicate
        for _rule, schedule, *_orders in rules
        for element in schedule
        if isinstance(element, Literal)
    }


def evaluate_with_counts(program, edb):
    """Convenience: build a plan, evaluate, return (plan, database, counts)."""
    plan = MaintenancePlan(program)
    database, counts = plan.evaluate(edb)
    return plan, database, counts


def maintain(program, database, delta_plus=None, delta_minus=None, counts=None):
    """One-shot maintenance without a reusable plan (testing convenience)."""
    return MaintenancePlan(program).maintain(
        database, delta_plus=delta_plus, delta_minus=delta_minus, counts=counts
    )
