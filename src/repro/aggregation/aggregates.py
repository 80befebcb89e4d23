"""Datalog with stratified aggregate functions (Section 4).

The paper extends Datalog with aggregates while keeping polynomial data
complexity (capturing Klug's first-order queries with aggregates).  We
implement aggregate rules of the form::

    p(G1, ..., Gk, agg<V>) :- body

where the ``Gi`` are group-by terms and ``agg`` is one of count, sum, min,
max, avg (count may omit the variable: ``count<*>``).  Aggregation
stratifies like negation: the head depends *negatively* on every body
predicate, so aggregates through recursion are rejected.
"""

from __future__ import annotations

from collections import defaultdict

from repro.datalog.ast import Atom, BodyLiteral, Literal, Program, Rule
from repro.datalog.engine import Engine
from repro.datalog.safety import check_rule_safety
from repro.datalog.stratify import stratify
from repro.datalog.terms import Constant, Variable, make_term
from repro.errors import AggregationError

AGGREGATE_FUNCTIONS = ("count", "sum", "min", "max", "avg")


class AggregateTerm:
    """An aggregate head position: ``AggregateTerm('max', 'V')``."""

    __slots__ = ("function", "variable")

    def __init__(self, function, variable=None):
        if function not in AGGREGATE_FUNCTIONS:
            raise AggregationError(f"unknown aggregate function {function!r}")
        if variable is None:
            if function != "count":
                raise AggregationError(f"{function} needs a variable")
            self.variable = None
        else:
            self.variable = (
                variable if isinstance(variable, Variable) else Variable(str(variable))
            )
        self.function = function

    def __repr__(self):
        return f"AggregateTerm({self})"

    def __str__(self):
        inner = self.variable.name if self.variable is not None else "*"
        return f"{self.function}<{inner}>"


class AggregateRule:
    """A rule whose head mixes group-by terms and aggregate terms."""

    def __init__(self, predicate, head_terms, body):
        self.predicate = str(predicate)
        self.head_terms = tuple(
            t if isinstance(t, AggregateTerm) else make_term(t) for t in head_terms
        )
        self.body = tuple(body)
        for element in self.body:
            if not isinstance(element, BodyLiteral):
                raise AggregationError(
                    f"aggregate rule body element must be a body literal: {element!r}"
                )
        self.aggregates = [
            (i, t) for i, t in enumerate(self.head_terms) if isinstance(t, AggregateTerm)
        ]
        if not self.aggregates:
            raise AggregationError("aggregate rule has no aggregate term; use a plain Rule")
        self.group_terms = [
            (i, t)
            for i, t in enumerate(self.head_terms)
            if not isinstance(t, AggregateTerm)
        ]

    @property
    def arity(self):
        return len(self.head_terms)

    def body_predicates(self):
        return {e.predicate for e in self.body if isinstance(e, Literal)}

    def needed_variables(self):
        out = {t for _i, t in self.group_terms if isinstance(t, Variable)}
        for _i, aggregate in self.aggregates:
            if aggregate.variable is not None:
                out.add(aggregate.variable)
        return out

    def __repr__(self):
        return f"AggregateRule({self})"

    def __str__(self):
        head_args = ", ".join(str(t) for t in self.head_terms)
        body = ", ".join(str(e) for e in self.body)
        return f"{self.predicate}({head_args}) :- {body}."


class PathSummaryRule:
    """A Section 4 path summarization as a rule: the output relation
    ``out(U, V, S)`` holds the semiring summary over all paths of the
    weighted edge relation ``weight(U, V, W)``.

    Stratifies like an aggregate: the output depends negatively on the
    weight predicate, so summarizing through recursion is rejected.
    """

    def __init__(self, predicate, weight_predicate, semiring, include_empty=False,
                 weight_position=2):
        from repro.aggregation.semiring import Semiring, semiring_by_name

        self.predicate = str(predicate)
        self.weight_predicate = str(weight_predicate)
        self.semiring = (
            semiring if isinstance(semiring, Semiring) else semiring_by_name(semiring)
        )
        self.include_empty = bool(include_empty)
        self.weight_position = int(weight_position)

    @property
    def arity(self):
        return 3

    def body_predicates(self):
        return {self.weight_predicate}

    def __repr__(self):
        return (
            f"PathSummaryRule({self.predicate} = {self.semiring.name} over "
            f"{self.weight_predicate})"
        )

    def __str__(self):
        return (
            f"{self.predicate}(U, V, S) :- S = {self.semiring.name} "
            f"over paths of {self.weight_predicate}(U, V, W)."
        )


class AggregateProgram:
    """A mixed program of plain rules, aggregate rules, and path summaries."""

    def __init__(self, rules=()):
        self.plain_rules = []
        self.aggregate_rules = []
        self.summary_rules = []
        for rule in rules:
            self.add(rule)

    def add(self, rule):
        if isinstance(rule, AggregateRule):
            self.aggregate_rules.append(rule)
        elif isinstance(rule, PathSummaryRule):
            self.summary_rules.append(rule)
        elif isinstance(rule, Rule):
            self.plain_rules.append(rule)
        else:
            raise TypeError(
                f"expected Rule, AggregateRule, or PathSummaryRule, "
                f"got {type(rule).__name__}"
            )
        return rule

    @property
    def idb_predicates(self):
        out = {rule.head.predicate for rule in self.plain_rules}
        out |= {rule.predicate for rule in self.aggregate_rules}
        out |= {rule.predicate for rule in self.summary_rules}
        return out

    @property
    def predicates(self):
        """Heads, body literals, and each summary's output and weight relation."""
        return self.idb_predicates.union(*(rule.body_predicates() for rule in self))

    def __iter__(self):
        return iter(self.plain_rules + self.aggregate_rules + self.summary_rules)

    def __len__(self):
        return (
            len(self.plain_rules)
            + len(self.aggregate_rules)
            + len(self.summary_rules)
        )


def _aggregate(function, values):
    if function == "count":
        return len(values)
    if not values:
        return None  # empty groups produce no output tuple
    if function == "sum":
        return sum(values)
    if function == "min":
        return min(values)
    if function == "max":
        return max(values)
    if function == "avg":
        return sum(values) / len(values)
    raise AggregationError(f"unknown aggregate {function!r}")  # pragma: no cover


class AggregateEngine:
    """Stratified evaluation of :class:`AggregateProgram`.

    Aggregation edges count as negative in the dependence graph, so an
    aggregate over a predicate mutually recursive with the aggregate's own
    head raises :class:`~repro.errors.StratificationError`.
    """

    def __init__(self, method="columnar"):
        self.method = method

    def evaluate(self, program, edb):
        if isinstance(program, (list, tuple)):
            program = AggregateProgram(program)
        shadow, negative_extra = self._shadow_program(program)
        strata = stratify(shadow, negative_extra=negative_extra)
        levels = sorted({strata[p] for p in program.idb_predicates}) if len(program) else []
        database = edb.copy()
        for level in levels:
            # Aggregate/summary heads sit strictly above their inputs, so
            # within a level their bodies are already complete.
            for rule in program.summary_rules:
                if strata.get(rule.predicate) == level:
                    self._apply_summary(rule, database)
            for rule in program.aggregate_rules:
                if strata.get(rule.predicate) == level:
                    self._apply_aggregate(rule, database)
            level_rules = [
                rule
                for rule in program.plain_rules
                if strata.get(rule.head.predicate) == level
            ]
            if level_rules:
                engine = Engine(method=self.method)
                database = engine.evaluate(Program(level_rules), database)
        return database

    # ------------------------------------------------------------ internals

    @staticmethod
    def _shadow_program(program):
        """A plain Program mirroring the aggregate program's dependencies,
        with forced-negative edges for aggregate rules."""
        shadow_rules = list(program.plain_rules)
        negative_extra = defaultdict(set)
        for rule in program.aggregate_rules:
            head_vars = sorted(rule.needed_variables(), key=lambda v: v.name)
            head = Atom(rule.predicate, tuple(head_vars) or (Constant(0),))
            literals = tuple(e for e in rule.body if isinstance(e, Literal))
            shadow_rules.append(Rule(head, literals))
            negative_extra[rule.predicate] |= rule.body_predicates()
        for rule in program.summary_rules:
            # Shadow rule for stratification only (never evaluated): the
            # summary output depends on its weight relation.
            u, v, w = Variable("U"), Variable("V"), Variable("W")
            head = Atom(rule.predicate, (u, v, w))
            body = (Literal(Atom(rule.weight_predicate, (u, v, w))),)
            shadow_rules.append(Rule(head, body))
            negative_extra[rule.predicate] |= rule.body_predicates()
        return Program(shadow_rules), dict(negative_extra)

    def _apply_aggregate(self, rule, database):
        # The probe head carries *every* body variable so that bindings
        # differing only in a non-grouped variable stay distinct rows
        # (count<*> counts bindings, not projected duplicates).
        body_variables = set()
        for element in rule.body:
            body_variables |= {
                v for v in element.variables() if not v.is_anonymous
            }
        needed = sorted(body_variables | rule.needed_variables(), key=lambda v: v.name)
        probe_head = Atom("__agg_probe__", tuple(needed))
        probe_rule = Rule(probe_head, rule.body)
        check_rule_safety(probe_rule)
        engine = Engine(method=self.method)
        result = engine.evaluate(Program([probe_rule]), database)
        rows = result.facts("__agg_probe__")
        position = {variable: i for i, variable in enumerate(needed)}

        groups = defaultdict(list)
        for row in rows:
            key = []
            for _i, term in rule.group_terms:
                if isinstance(term, Variable):
                    key.append(row[position[term]])
                else:
                    key.append(term.value)
            groups[tuple(key)].append(row)

        relation = database.relation(rule.predicate, rule.arity)
        for key, members in groups.items():
            output = []
            key_iter = iter(key)
            ok = True
            for index, term in enumerate(rule.head_terms):
                if isinstance(term, AggregateTerm):
                    if term.variable is None:
                        value = _aggregate(term.function, members)
                    else:
                        values = [m[position[term.variable]] for m in members]
                        value = _aggregate(term.function, values)
                    if value is None:
                        ok = False
                        break
                    output.append(value)
                else:
                    output.append(next(key_iter))
            if ok:
                relation.add(tuple(output))


    def _apply_summary(self, rule, database):
        from repro.aggregation.summarize import (
            summarize_paths,
            weighted_edges_from_database,
        )

        edges = []
        if rule.weight_predicate in database:
            arity = database.arity_of(rule.weight_predicate)
            if arity != 3:
                raise AggregationError(
                    f"a path summary reads {rule.weight_predicate!r} as (source, target, "
                    f"weight), but it has arity {arity}"
                )
            edges = weighted_edges_from_database(
                database, rule.weight_predicate, rule.weight_position
            )
        table = summarize_paths(edges, rule.semiring, include_empty=rule.include_empty)
        relation = database.relation(rule.predicate, 3)
        for (u, v), value in table.items():
            relation.add((u, v, value))


def evaluate_with_aggregates(program, edb, method="columnar"):
    """One-shot convenience around :class:`AggregateEngine`."""
    return AggregateEngine(method=method).evaluate(program, edb)
