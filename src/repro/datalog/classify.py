"""Structural classification of Datalog programs (Definition 3.2).

- *linear*: each rule has at most one recursive subgoal (a positive body
  literal whose predicate is in the same strongly connected component of the
  dependence graph as the rule's head).  These are the "piecewise linear"
  programs of [Ull89]; the paper calls them simply linear.
- *TC program*: a linear program in which every recursive IDB predicate ``p``
  is the head of exactly two rules of the transitive-closure shape

      p(X̄, Ȳ) :- p0(X̄, Ȳ).
      p(X̄, Ȳ) :- p0(X̄, Z̄), p(Z̄, Ȳ).

  for a single non-recursive predicate ``p0`` and ``|X̄| = |Ȳ| = |Z̄|``.
"""

from __future__ import annotations

from repro.datalog.ast import Literal
from repro.datalog.stratify import DependenceGraph, is_stratified
from repro.datalog.terms import Variable


def _component_of_map(program):
    graph = DependenceGraph.of_program(program)
    component_of = {}
    for component in graph.strongly_connected_components():
        for node in component:
            component_of[node] = component
    dependencies = {node: graph.dependencies(node) for node in graph.nodes}
    return component_of, dependencies


def recursive_predicates(program):
    """IDB predicates that participate in recursion (their SCC is recursive)."""
    component_of, dependencies = _component_of_map(program)
    recursive = set()
    for predicate in program.idb_predicates:
        component = component_of.get(predicate, frozenset({predicate}))
        if len(component) > 1:
            recursive.add(predicate)
        elif predicate in dependencies.get(predicate, ()):
            recursive.add(predicate)
    return recursive


def is_linear(program):
    """True when every rule has at most one recursive subgoal."""
    component_of, _dependencies = _component_of_map(program)
    # A predicate alone in its SCC without a self-loop is not recursive;
    # rebuild component sets restricted to genuinely recursive SCCs.
    recursive = recursive_predicates(program)
    for rule in program:
        count = 0
        for element in rule.body:
            if not (isinstance(element, Literal) and element.positive):
                continue
            if element.predicate not in recursive:
                continue
            if component_of.get(element.predicate) is component_of.get(rule.head.predicate):
                count += 1
        if count > 1:
            return False
    return True


def is_stratified_linear(program):
    """SL-DATALOG membership: stratified and linear."""
    return is_stratified(program) and is_linear(program)


def _is_distinct_variable_vector(terms):
    return all(isinstance(t, Variable) for t in terms) and len(set(terms)) == len(terms)


def _tc_shape(rules, predicate, mirrored=False):
    """If the two *rules* for *predicate* form a TC pair, return the base
    predicate name ``p0``; otherwise return None.  The step rule is
    ``p(X̄, Ȳ) :- p0(X̄, Z̄), p(Z̄, Ȳ)`` (Definition 3.2) or, *mirrored*, its
    left-linear form ``p(X̄, Ȳ) :- p(X̄, Z̄), p0(Z̄, Ȳ)``."""
    if len(rules) != 2:
        return None
    base_rule = None
    step_rule = None
    for rule in rules:
        literals = [e for e in rule.body if isinstance(e, Literal)]
        if len(literals) != len(rule.body):
            return None  # builtins not allowed in TC rules
        if any(not e.positive for e in literals):
            return None
        if len(literals) == 1:
            base_rule = rule
        elif len(literals) == 2:
            step_rule = rule
        else:
            return None
    if base_rule is None or step_rule is None:
        return None

    head = base_rule.head
    if head.arity % 2 != 0:
        return None
    half = head.arity // 2
    if not _is_distinct_variable_vector(head.args):
        return None
    x_vars = head.args[:half]
    y_vars = head.args[half:]

    (base_literal,) = [e for e in base_rule.body if isinstance(e, Literal)]
    if base_literal.predicate == predicate:
        return None
    if base_literal.atom.args != head.args:
        return None
    p0 = base_literal.predicate

    step_head = step_rule.head
    if step_head.args != head.args:
        # Allow alpha-variants: normalize by matching shapes instead.
        if step_head.arity != head.arity or not _is_distinct_variable_vector(step_head.args):
            return None
        x_vars = step_head.args[:half]
        y_vars = step_head.args[half:]
    first, second = [e for e in step_rule.body if isinstance(e, Literal)]
    if second.predicate != predicate:
        first, second = second, first
    if first.predicate != p0 or second.predicate != predicate:
        return None
    if not _is_distinct_variable_vector(first.atom.args) or not _is_distinct_variable_vector(
        second.atom.args
    ):
        return None
    # The literal leaving X̄ and the one reaching Ȳ.
    start, end = (second, first) if mirrored else (first, second)
    z_vars = start.atom.args[half:]
    if start.atom.args[:half] != x_vars:
        return None
    if end.atom.args != z_vars + y_vars:
        return None
    if set(z_vars) & (set(x_vars) | set(y_vars)):
        return None
    return p0


def closure_base(rules, predicate):
    """``p0`` when *rules* define *predicate* as exactly the transitive
    closure of ``p0``: the TC pair of Definition 3.2 or its left-linear
    mirror; otherwise None."""
    return _tc_shape(rules, predicate) or _tc_shape(rules, predicate, mirrored=True)


def is_tc_program(program):
    """TC-DATALOG membership test (Definition 3.2)."""
    if not is_linear(program):
        return False
    recursive = recursive_predicates(program)
    for predicate in recursive:
        rules = program.rules_for(predicate)
        if _tc_shape(rules, predicate) is None:
            return False
    # Additionally, recursion must be confined to self-loops: every
    # recursive SCC is a single predicate defined by its TC pair.
    component_of, _deps = _component_of_map(program)
    for predicate in recursive:
        if len(component_of[predicate]) > 1:
            return False
    return True


def is_stratified_tc_program(program):
    """STC-DATALOG membership: stratified and TC-shaped."""
    return is_stratified(program) and is_tc_program(program)


def tc_base_predicates(program):
    """Map each recursive predicate of a TC program to its base ``p0``."""
    mapping = {}
    for predicate in recursive_predicates(program):
        base = _tc_shape(program.rules_for(predicate), predicate)
        if base is not None:
            mapping[predicate] = base
    return mapping


def classification(program):
    """A summary dict with all membership flags, for reporting."""
    return {
        "stratified": is_stratified(program),
        "linear": is_linear(program),
        "stratified_linear": is_stratified_linear(program),
        "tc": is_tc_program(program),
        "stratified_tc": is_stratified_tc_program(program),
        "recursive_predicates": sorted(recursive_predicates(program)),
        "idb": sorted(program.idb_predicates),
        "edb": sorted(program.edb_predicates),
    }
