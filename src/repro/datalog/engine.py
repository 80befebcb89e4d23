"""Bottom-up evaluation of stratified Datalog programs.

Two methods are provided:

- ``columnar`` (default): the semi-naive fixpoint over int-encoded relations
  in :mod:`repro.datalog.columnar` — the evaluator everything serves from;
- ``naive``: re-evaluate every rule until no new fact appears, one tuple at a
  time — the executable specification the columnar core (and incremental
  maintenance, :mod:`repro.datalog.dred`, which runs the core's kernels) is
  tested against, and the method that can record provenance.  No request
  path runs it, so its strata open no spans.

Evaluation proceeds stratum by stratum and, within a stratum, SCC by SCC in
topological order, so negated literals always refer to fully-computed
relations (stratified semantics, Definition 2.7 of the paper).
"""

from __future__ import annotations

import operator
from typing import NamedTuple

from repro import obs
from repro.datalog.ast import ArithmeticAssign, Comparison, Literal
from repro.datalog.plan import ProgramPlan
from repro.datalog.safety import check_program_safety, schedule_body
from repro.datalog.stratify import stratify
from repro.datalog.terms import Constant, Variable
from repro.errors import EvaluationError

_COMPARATORS = {
    "==": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}

def _divide(left, right):
    """Division that stays in ``int`` when it can.

    ``operator.truediv`` over integer facts derives float tuples (``8 / 2``
    → ``4.0``) that break set-equality against int-derived facts downstream,
    so exact integer division returns an ``int``.  An *inexact* integer
    division (``7 / 2``) — and any division involving a float — follows
    Python and yields the true-division float.
    """
    if isinstance(left, int) and isinstance(right, int):
        quotient, remainder = divmod(left, right)
        if remainder == 0:
            return quotient
    return operator.truediv(left, right)


_ARITHMETIC = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "/": _divide,
    "%": operator.mod,
    "min": min,
    "max": max,
}


#: The evaluation methods: the production core and its specification.
METHODS = ("columnar", "naive")


class EvaluationStats:
    """Counters collected during one evaluation run.  A closure stratum the
    columnar core computes with its kernel counts one iteration, no rule
    firings, and its closure rows as ``rows_produced`` and ``facts_derived``."""

    def __init__(self):
        self.iterations = 0
        self.rule_firings = 0
        self.facts_derived = 0
        #: Head rows produced by rule firings before deduplication against
        #: the database; the gap to ``facts_derived`` is wasted re-derivation.
        self.rows_produced = 0
        self.strata = 0

    def __repr__(self):
        return (
            f"EvaluationStats(iterations={self.iterations}, "
            f"rule_firings={self.rule_firings}, facts_derived={self.facts_derived}, "
            f"rows_produced={self.rows_produced}, strata={self.strata})"
        )


class Answer(NamedTuple):
    """The rows of a query's requested predicates, as evaluation left them.

    ``relations`` maps each predicate to its rows.  With ``values`` — a
    :class:`~repro.datalog.columnar.TermCatalog`'s id → value list — those
    are the columnar core's int rows over it, which the wire encodes
    without decoding (:func:`repro.service.protocol.encode_answer` takes
    both fields); without, they are rows of values."""

    relations: dict
    values: list | None = None

    def decoded(self):
        """``{predicate: set of rows of values}``."""
        if self.values is None:
            return self.relations
        value = self.values.__getitem__
        return {p: {tuple(map(value, row)) for row in rows} for p, rows in self.relations.items()}


class Engine:
    """Evaluator for stratified Datalog programs over a :class:`Database`.

    ``method`` is ``"columnar"`` — the int-encoded semi-naive kernels of
    :mod:`repro.datalog.columnar` — or ``"naive"``, the tuple walker in this
    module (same semantics, pinned by the differential suite), the only one
    that sees the per-derivation support ``record_provenance`` asks for.
    """

    def __init__(self, method="columnar", check_safety=True, record_provenance=False):
        if method not in METHODS:
            raise ValueError(f"unknown evaluation method {method!r}")
        if record_provenance and method != "naive":
            raise ValueError("provenance recording requires method='naive'")
        self.method = method
        self.check_safety = check_safety
        self.record_provenance = record_provenance
        #: {(predicate, row): (rule, ((predicate, row), ...))} — the *first*
        #: derivation of each derived fact; populated when record_provenance.
        self.provenance = {}
        self.stats = EvaluationStats()

    # ------------------------------------------------------------------ API

    def evaluate(self, program, edb):
        """Evaluate *program* against *edb*; returns a new Database holding
        the EDB facts plus every derived IDB fact.  The input database is not
        modified."""
        return self._run(program, edb, None)

    def answer(self, program, edb, predicates):
        """``{predicate: set of rows}`` for each of *predicates* — what
        :meth:`evaluate` would hold for them.  The columnar core decodes
        only those relations and never copies *edb*."""
        return self._run(program, edb, predicates).decoded()

    def encoded_answer(self, plan, edb, predicates):
        """The :class:`Answer` of *predicates* by *plan*, a :class:`ProgramPlan`
        (a prepared query keeps one): the columnar core's int rows over its
        catalog, never decoded; the naive walker's rows of values."""
        return self._run(plan.program, edb, predicates, plan)

    def _run(self, program, edb, predicates, plan=None):
        if self.check_safety:
            check_program_safety(program)
        self.stats = EvaluationStats()
        self.provenance = {}
        tracer = obs.tracer()
        with tracer.span("engine.evaluate", method=self.method) as root:
            if self.method == "columnar":
                # Imported lazily: columnar shares the builtin tables of
                # this module, so a top-level import would be circular.
                from repro.datalog.columnar import evaluate_columnar

                plan = plan or ProgramPlan(program)  # built once the program is safe
                result = evaluate_columnar(plan, edb, self.stats, tracer, predicates)
            else:
                result = self._evaluate_naive(program, edb)
                if predicates is not None:
                    result = Answer({p: set(result.facts(p)) for p in predicates})
            if root:
                root.annotate(
                    iterations=self.stats.iterations,
                    rule_firings=self.stats.rule_firings,
                    facts_derived=self.stats.facts_derived,
                    strata=self.stats.strata,
                )
        return result

    def query(self, program, edb, goal):
        """Evaluate and return the set of tuples matching *goal* (an Atom).

        Each answer is the tuple of values bound to the goal's variables in
        their order of first occurrence; for a ground goal the result is a
        set containing one empty tuple when it holds, else the empty set.
        """
        database = self.evaluate(program, edb)
        return match_atom(database, goal)

    # ------------------------------------------------------------ internals

    def _evaluate_naive(self, program, edb):
        database = edb.copy()

        # Facts in the program are loaded directly.
        derived_rules = []
        for rule in program:
            if rule.is_fact:
                database.add_fact(rule.head.predicate, *(t.value for t in rule.head.args))
            else:
                derived_rules.append(rule)
        _declare_relations(program, database.relation)

        strata = stratify(program)
        idb = program.idb_predicates
        self.stats.strata = len({strata[p] for p in idb}) if idb else 0

        for group in strata.groups:
            rules = [r for r in derived_rules if r.head.predicate in group]
            if rules:
                self._fixpoint_naive(rules, database)
        return database

    def _fixpoint_naive(self, rules, database):
        schedules = [(rule, schedule_body(rule)) for rule in rules]
        changed = True
        while changed:
            changed = False
            self.stats.iterations += 1
            for rule, schedule in schedules:
                for row, support in self._fire(rule, schedule, database):
                    if database.relation(rule.head.predicate).add(row):
                        self.stats.facts_derived += 1
                        self._record(rule, rule.head.predicate, row, support)
                        changed = True

    def _fire(self, rule, schedule, database):
        """``(head_row, support)`` pairs from one rule body evaluation;
        ``support`` is the tuple of positive body facts that matched, as
        ``(predicate, row)`` pairs, when ``record_provenance`` is on; None
        otherwise."""
        self.stats.rule_firings += 1
        head = rule.head
        results = []
        trail = [] if self.record_provenance else None
        end = len(schedule)

        def walk(index, binding):
            if index == end:
                row = tuple(
                    binding[term] if isinstance(term, Variable) else term.value
                    for term in head.args
                )
                results.append((row, tuple(trail) if trail is not None else None))
                return
            element = schedule[index]
            if isinstance(element, Literal):
                if element.positive:
                    relation = database.relation(element.predicate)
                    for extended, row in _match_against(
                        relation, element.atom, binding
                    ):
                        if trail is not None:
                            trail.append((element.predicate, row))
                        walk(index + 1, extended)
                        if trail is not None:
                            trail.pop()
                elif self._negative_holds(database, element, binding):
                    walk(index + 1, binding)
                return
            if isinstance(element, Comparison):
                extended = self._apply_comparison(element, binding)
            elif isinstance(element, ArithmeticAssign):
                extended = self._apply_arithmetic(element, binding)
            else:  # pragma: no cover - AST is closed
                raise EvaluationError(f"unknown body element {element!r}")
            if extended is not None:
                walk(index + 1, extended)

        walk(0, {})
        self.stats.rows_produced += len(results)
        return results

    def _record(self, rule, predicate, row, support):
        if self.record_provenance:
            key = (predicate, row)
            if key not in self.provenance:
                self.provenance[key] = (rule, support)

    @staticmethod
    def _negative_holds(database, literal, binding):
        relation = database.relation(literal.predicate)
        positions = []
        values = []
        for position, term in enumerate(literal.atom.args):
            if isinstance(term, Variable):
                if term.is_anonymous:
                    continue
                values.append(binding[term])
                positions.append(position)
            else:
                values.append(term.value)
                positions.append(position)
        matches = relation.lookup(tuple(positions), tuple(values))
        return not matches

    @staticmethod
    def _value_of(term, binding):
        if isinstance(term, Variable):
            return binding.get(term, _UNBOUND)
        return term.value

    def _apply_comparison(self, comparison, binding):
        left = self._value_of(comparison.left, binding)
        right = self._value_of(comparison.right, binding)
        if comparison.op == "==":
            if left is _UNBOUND and right is _UNBOUND:
                raise EvaluationError(f"equality with both sides unbound: {comparison}")
            if left is _UNBOUND:
                extended = dict(binding)
                extended[comparison.left] = right
                return extended
            if right is _UNBOUND:
                extended = dict(binding)
                extended[comparison.right] = left
                return extended
        if left is _UNBOUND or right is _UNBOUND:
            raise EvaluationError(f"comparison on unbound variable: {comparison}")
        try:
            holds = _COMPARATORS[comparison.op](left, right)
        except TypeError as exc:
            raise EvaluationError(f"incomparable values in {comparison}: {exc}") from exc
        return binding if holds else None

    def _apply_arithmetic(self, assign, binding):
        left = self._value_of(assign.left, binding)
        right = self._value_of(assign.right, binding)
        if left is _UNBOUND or right is _UNBOUND:
            raise EvaluationError(f"arithmetic on unbound variable: {assign}")
        try:
            value = _ARITHMETIC[assign.op](left, right)
        except (TypeError, ZeroDivisionError) as exc:
            raise EvaluationError(f"arithmetic failure in {assign}: {exc}") from exc
        result = assign.result
        if isinstance(result, Variable):
            existing = binding.get(result, _UNBOUND)
            if existing is _UNBOUND:
                extended = dict(binding)
                extended[result] = value
                return extended
            return binding if existing == value else None
        return binding if result.value == value else None


_UNBOUND = object()


def _declare_relations(program, declare):
    """Call ``declare(predicate, arity)`` for every atom *program* mentions,
    so negation over a relation nothing populates sees it empty."""
    for rule in program:
        declare(rule.head.predicate, rule.head.arity)
        for element in rule.body:
            if isinstance(element, Literal):
                declare(element.predicate, element.atom.arity)


def _match_against(relation, atom, binding):
    """Yield ``(extended binding, row)`` for each tuple of *relation* matching
    *atom* under *binding*, honouring repeated variables within the atom."""
    positions = []
    values = []
    for position, term in enumerate(atom.args):
        if isinstance(term, Constant):
            positions.append(position)
            values.append(term.value)
        elif not term.is_anonymous and term in binding:
            positions.append(position)
            values.append(binding[term])
    candidates = relation.lookup(tuple(positions), tuple(values))
    bound_positions = set(positions)
    for row in candidates:
        extended = dict(binding)
        ok = True
        for position, term in enumerate(atom.args):
            if position in bound_positions:
                continue
            if isinstance(term, Variable):
                if term.is_anonymous:
                    continue
                seen = extended.get(term, _UNBOUND)
                if seen is _UNBOUND:
                    extended[term] = row[position]
                elif seen != row[position]:
                    ok = False
                    break
        if ok:
            yield extended, row


def match_atom(database, goal):
    """All bindings of *goal*'s variables against *database*.

    Returns a set of tuples: the values of the goal's distinct variables in
    order of first occurrence.  A ground goal yields ``{()}`` when present.
    """
    if goal.predicate not in database:
        return set()
    relation = database.relation(goal.predicate)
    ordered_vars = []
    for term in goal.args:
        if isinstance(term, Variable) and not term.is_anonymous and term not in ordered_vars:
            ordered_vars.append(term)
    answers = set()
    for binding, _row in _match_against(relation, goal, {}):
        answers.add(tuple(binding[v] for v in ordered_vars))
    return answers


def evaluate(program, edb, method="columnar"):
    """One-shot convenience wrapper around :class:`Engine`."""
    return Engine(method=method).evaluate(program, edb)


def query(program, edb, goal, method="columnar"):
    """One-shot convenience wrapper: evaluate then match *goal*."""
    return Engine(method=method).query(program, edb, goal)
