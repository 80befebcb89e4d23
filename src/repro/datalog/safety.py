"""Safety (range-restriction) checking and body-literal scheduling.

A rule is *safe* when every variable appearing in the head, in a negated
literal, or in a comparison is *limited*: bound by a positive relational
literal, by equality with a constant, or (transitively) by an arithmetic
built-in whose inputs are limited.

The same analysis yields an evaluation order for the body: positive literals
are scheduled greedily by how many of their variables are already bound,
and built-ins / negated literals run as soon as their variables are bound.
"""

from __future__ import annotations

from repro.datalog.ast import ArithmeticAssign, Comparison, Literal
from repro.datalog.terms import Constant, Variable
from repro.errors import SafetyError


def limited_variables(rule):
    """The set of variables limited by the rule body (see module docstring)."""
    limited = set()
    for element in rule.body:
        if isinstance(element, Literal) and element.positive:
            limited |= element.variables()
    # Equality with a constant limits a variable; arithmetic propagates
    # limitation from inputs to output.  Iterate to a fixpoint.
    changed = True
    while changed:
        changed = False
        for element in rule.body:
            if isinstance(element, Comparison) and element.op == "==":
                left, right = element.left, element.right
                if isinstance(left, Variable) and left not in limited:
                    if isinstance(right, Constant) or right in limited:
                        limited.add(left)
                        changed = True
                if isinstance(right, Variable) and right not in limited:
                    if isinstance(left, Constant) or left in limited:
                        limited.add(right)
                        changed = True
            elif isinstance(element, ArithmeticAssign):
                inputs = element.input_variables()
                if inputs <= limited and isinstance(element.result, Variable):
                    if element.result not in limited:
                        limited.add(element.result)
                        changed = True
    return limited


def check_rule_safety(rule):
    """Raise :class:`SafetyError` if *rule* is unsafe."""
    limited = limited_variables(rule)

    def require(variables, where):
        loose = {v for v in variables if not v.is_anonymous} - limited
        if loose:
            names = ", ".join(sorted(v.name for v in loose))
            raise SafetyError(f"unsafe rule {rule}: variable(s) {names} in {where} not limited")

    require(rule.head_variables(), "head")
    for element in rule.body:
        if isinstance(element, Literal) and element.negative:
            require(element.variables(), f"negated literal {element.atom}")
        elif isinstance(element, Comparison) and element.op != "==":
            require(element.variables(), f"comparison {element}")
        elif isinstance(element, ArithmeticAssign):
            require(element.input_variables(), f"arithmetic {element}")
    # Anonymous variables may appear in the head only if limited (they are
    # not, by definition, so reject them in heads outright).
    anonymous_in_head = {v for v in rule.head_variables() if v.is_anonymous}
    if anonymous_in_head:
        raise SafetyError(f"unsafe rule {rule}: anonymous variable in head")


def check_program_safety(program):
    """Check every rule of *program*; raises on the first unsafe rule."""
    for rule in program:
        check_rule_safety(rule)


def is_safe(rule_or_program):
    """Boolean form of the safety check."""
    try:
        if hasattr(rule_or_program, "rules"):
            check_program_safety(rule_or_program)
        else:
            check_rule_safety(rule_or_program)
    except SafetyError:
        return False
    return True


def schedule_body(rule, first=None):
    """Order the body for left-to-right evaluation with full binding info.

    Returns a list of body elements such that:

    - positive relational literals appear in a greedy most-bound-first order;
    - each built-in and negated literal appears as early as possible after
      its variables are bound.

    *rule* is a rule, or a bare sequence of body elements.  *first*, when
    given, is a positive literal that leads the schedule and seeds the bound
    variables — the delta literal of a semi-naive or maintenance join, put in
    front so the join enumerates the (small) delta, not a base relation.

    Raises :class:`SafetyError` when no valid schedule exists (which implies
    the rule is unsafe).
    """
    pending = list(getattr(rule, "body", rule))
    scheduled = []
    bound = set()

    def ready(element):
        if isinstance(element, Literal):
            if element.positive:
                return True
            return {v for v in element.variables() if not v.is_anonymous} <= bound
        if isinstance(element, Comparison):
            if element.op == "==":
                # Equality can bind one side from the other.
                sides = [element.left, element.right]
                unbound = [
                    s for s in sides if isinstance(s, Variable) and s not in bound
                ]
                return len(unbound) <= 1
            return element.variables() <= bound
        if isinstance(element, ArithmeticAssign):
            return element.input_variables() <= bound
        return False

    def bind(element):
        if isinstance(element, Literal) and element.positive:
            bound.update(v for v in element.variables() if not v.is_anonymous)
        elif isinstance(element, Comparison) and element.op == "==":
            bound.update(element.variables())
        elif isinstance(element, ArithmeticAssign):
            bound.update(element.variables())

    if first is not None:
        scheduled.append(first)
        bind(first)
    while pending:
        # Prefer non-relational elements (cheap filters) that are ready,
        # then the positive literal sharing the most bound variables.
        choice = None
        for element in pending:
            if not isinstance(element, Literal) and ready(element):
                choice = element
                break
            if isinstance(element, Literal) and element.negative and ready(element):
                choice = element
                break
        if choice is None:
            best_score = None
            for element in pending:
                if isinstance(element, Literal) and element.positive:
                    score = len(element.variables() & bound)
                    # Break ties toward fewer unbound variables.
                    score = score * 100 - len(element.variables() - bound)
                    if best_score is None or score > best_score:
                        best_score = score
                        choice = element
        if choice is None:
            names = ", ".join(str(e) for e in pending)
            raise SafetyError(f"cannot schedule body of {rule}: stuck on {names}")
        pending.remove(choice)
        scheduled.append(choice)
        bind(choice)
    return scheduled
