"""One plan per program: its strata, evaluation groups, closure groups
(Theorem 3.3) and join orders, decided once for the columnar fixpoint and
DRed alike.  What only one of them reads is planned on first use: a closure
group's rule schedules (its kernel needs none) and DRed's joins."""

from __future__ import annotations

from functools import cached_property

from repro.datalog.ast import Atom, Literal
from repro.datalog.classify import closure_base
from repro.datalog.safety import schedule_body
from repro.datalog.stratify import stratify

#: The pseudo-literal that seeds a rederivation join with candidate heads.
HEAD = "\x00head"


class ProgramPlan:
    """*program*'s ``strata`` (one SCC pass; raises what :func:`stratify`
    raises), ``stratum_count``, how many strata its IDB predicates take,
    ``facts``, its facts as ``(predicate, values)``, and ``groups``, its
    :class:`PlanGroup` objects in evaluation order."""

    __slots__ = ("program", "strata", "stratum_count", "facts", "groups")

    def __init__(self, program):
        self.program = program
        self.strata = strata = stratify(program)
        self.stratum_count = len({strata[p] for p in program.idb_predicates})
        facts = [r.head for r in program if r.is_fact]
        self.facts = tuple((head.predicate, tuple(t.value for t in head.args)) for head in facts)
        rules = [rule for rule in program if not rule.is_fact]
        self.groups = tuple(
            PlanGroup(group, strata, tuple(r for r in rules if r.head.predicate in group))
            for group in strata.groups
        )


class PlanGroup:
    """One evaluation group (an SCC within a stratum): its ``predicates``,
    ``stratum`` and derivation ``rules``, and ``closure``: ``(base, k)`` when
    it is one predicate defined as exactly the transitive closure of *base*,
    whose rows are edges ``row[:k] -> row[k:]``; None otherwise."""

    __slots__ = ("predicates", "stratum", "rules", "closure", "_schedules", "__dict__")

    def __init__(self, predicates, strata, rules):
        self.predicates = predicates
        self.stratum = max(strata[p] for p in predicates)
        self.rules = rules
        base = closure_base(rules, predicates[0]) if len(predicates) == 1 else None
        self.closure = None if base is None else (base, rules[0].head.arity // 2)
        self._schedules = tuple(map(self._schedule, rules)) if base is None else None

    @property
    def schedules(self):
        """Per rule, ``(schedule, positions, orders)``: its body order, its recursive
        literals' indexes and their delta orders; planned with any group but a closure."""
        if self._schedules is None:
            self._schedules = tuple(map(self._schedule, self.rules))
        return self._schedules

    def _schedule(self, rule):
        schedule = tuple(schedule_body(rule))
        positions = tuple(i for i, e in enumerate(schedule) if isinstance(e, Literal)
                          and e.positive and e.predicate in self.predicates)
        return schedule, positions, tuple(delta_order(schedule, i) for i in positions)

    @cached_property
    def body_predicates(self):
        return frozenset(e.predicate for r in self.rules for e in r.body if isinstance(e, Literal))

    @cached_property
    def joins(self):
        """DRed's ``(rule, predicate, positive, order)`` per literal of each rule."""
        return tuple(
            (rule, element.predicate, element.positive, delta_order(schedule, index))
            for rule, (schedule, _positions, _orders) in zip(self.rules, self.schedules)
            for index, element in enumerate(schedule)
            if isinstance(element, Literal)
        )

    @cached_property
    def rederive(self):
        """DRed's ``(rule, order)`` per rule, seeded with candidate head rows."""
        return tuple(
            (rule, schedule_body(rule.body, first=Literal(Atom(HEAD, rule.head.args))))
            for rule in self.rules
        )


def delta_order(schedule, index):
    """The order of *schedule* that enumerates a delta at its literal *index*
    first.  A delta under a negated literal is enumerated through its
    positive twin — the rows that *became* true — and the literal, appended
    last, re-checks the negation against the state the join reads."""
    element = schedule[index]
    others = [e for j, e in enumerate(schedule) if j != index]
    if element.positive:
        return tuple(schedule_body(others, first=element))
    return (*schedule_body(others, first=Literal(element.atom, positive=True)), element)
