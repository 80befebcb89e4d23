"""Rule-level optimizations for Datalog programs.

The λ translation introduces auxiliary predicates for every composite path
expression; most are single-rule, view-shaped definitions that a classical
optimizer folds away.  Three semantics-preserving passes:

- :func:`eliminate_duplicate_rules` — drop alpha-equivalent duplicates;
- :func:`inline_views` — unfold non-recursive predicates defined by exactly
  one rule with a distinct-variable head, when never used under negation
  (the safe unfolding case; covers λ's composition/alternation-free
  auxiliaries);
- :func:`remove_unused` — keep only rules reachable from the root
  predicates in the dependence graph.

:func:`optimize` runs the pipeline; the ``abl14`` benchmark quantifies the
effect on translated GraphLog programs.
"""

from __future__ import annotations

from repro import obs
from repro.datalog.ast import ArithmeticAssign, Comparison, Literal, Program, Rule
from repro.datalog.classify import recursive_predicates
from repro.datalog.stratify import DependenceGraph
from repro.datalog.terms import Variable


def canonical_rule_key(rule):
    """A key identical for alpha-equivalent rules (variables renamed by
    order of first occurrence)."""
    mapping = {}

    def canon(term):
        if isinstance(term, Variable):
            if term.is_anonymous:
                return ("_",)
            if term not in mapping:
                mapping[term] = f"V{len(mapping)}"
            return ("var", mapping[term])
        return ("const", repr(term.value))

    parts = [("head", rule.head.predicate, tuple(canon(t) for t in rule.head.args))]
    for element in rule.body:
        if isinstance(element, Literal):
            parts.append(
                (
                    "lit",
                    element.predicate,
                    element.positive,
                    tuple(canon(t) for t in element.atom.args),
                )
            )
        elif isinstance(element, Comparison):
            parts.append(("cmp", element.op, canon(element.left), canon(element.right)))
        elif isinstance(element, ArithmeticAssign):
            parts.append(
                (
                    "arith",
                    element.op,
                    canon(element.result),
                    canon(element.left),
                    canon(element.right),
                )
            )
    return tuple(parts)


def eliminate_duplicate_rules(program):
    """Remove rules alpha-equivalent to an earlier rule."""
    seen = set()
    kept = []
    for rule in program:
        key = canonical_rule_key(rule)
        if key not in seen:
            seen.add(key)
            kept.append(rule)
    return Program(kept)


def _inlinable_predicates(program):
    """Predicates safe to unfold: IDB, one rule, non-recursive,
    distinct-variable head, never used negatively."""
    recursive = recursive_predicates(program)
    negated = set()
    for rule in program:
        for element in rule.body:
            if isinstance(element, Literal) and element.negative:
                negated.add(element.predicate)
    out = {}
    for predicate in program.idb_predicates:
        if predicate in recursive or predicate in negated:
            continue
        rules = program.rules_for(predicate)
        if len(rules) != 1:
            continue
        (definition,) = rules
        head_args = definition.head.args
        if not all(isinstance(t, Variable) for t in head_args):
            continue
        if len(set(head_args)) != len(head_args):
            continue
        if any(t.is_anonymous for t in head_args):
            continue
        out[predicate] = definition
    return out


def inline_views(program, keep=()):
    """Unfold every safely-inlinable predicate (except those in *keep*).

    Runs to a fixpoint: inlined definitions may themselves contain
    inlinable predicates.
    """
    keep = set(keep)
    current = program
    while True:
        views = {
            p: d for p, d in _inlinable_predicates(current).items() if p not in keep
        }
        if not views:
            return current
        # Each round folds every current view's definition away; the loop
        # terminates because the predicate count strictly decreases.
        new_rules = []
        for rule in current:
            if rule.head.predicate in views:
                continue
            new_rules.append(_unfold_rule(rule, views))
        current = Program(new_rules)


def _unfold_rule(rule, views):
    """Unfold view literals to a fixpoint: a spliced definition may itself
    reference further views (all definitions are dropped in the same round,
    so dangling references must not survive).  Terminates because views are
    non-recursive: unfolding depth is bounded by the view DAG's height."""
    changed = False
    counter = 0
    pending = list(rule.body)
    body = []
    while pending:
        element = pending.pop(0)
        if (
            isinstance(element, Literal)
            and element.positive
            and element.predicate in views
        ):
            definition = views[element.predicate]
            # The "#" suffix cannot appear in parsed variable names, so the
            # renamed definition variables are collision-free by construction.
            renamed = definition.rename_variables(f"#i{counter}")
            counter += 1
            binding = dict(zip(renamed.head.args, element.atom.args))
            spliced = renamed.substitute(binding)
            pending = list(spliced.body) + pending
            changed = True
        else:
            body.append(element)
    if not changed:
        return rule
    return Rule(rule.head, tuple(body))


def remove_unused(program, roots):
    """Keep only rules for predicates the *roots* transitively depend on."""
    graph = DependenceGraph.of_program(program)
    needed = set(roots)
    frontier = list(roots)
    while frontier:
        predicate = frontier.pop()
        for dependency in graph.dependencies(predicate):
            if dependency not in needed:
                needed.add(dependency)
                frontier.append(dependency)
    return Program([r for r in program if r.head.predicate in needed])


def optimize(program, roots=None):
    """Dedupe, inline views, and (with *roots*) prune unreachable rules.

    Roots default to every IDB predicate, in which case pruning is a no-op
    but inlining still simplifies rule bodies.  The roots are kept
    un-inlined so their relations stay queryable.
    """
    with obs.span("optimize") as span:
        if roots is None:
            roots = sorted(program.idb_predicates)
        deduped = eliminate_duplicate_rules(program)
        inlined = inline_views(deduped, keep=roots)
        pruned = remove_unused(inlined, roots)
        if span:
            span.annotate(
                rules_in=len(program),
                after_dedupe=len(deduped),
                after_inline=len(inlined),
                rules_out=len(pruned),
            )
        return pruned
