"""Magic-sets transformation for goal-directed Datalog evaluation.

Section 6 of the paper notes that GraphLog implementations "can benefit from
the existing work on transitive closure computation and linear Datalog
optimization (see [Ull89])".  This module implements the classic
supplementary-free magic-sets rewriting of [Ull89] for *positive* programs:
given a goal with some bound arguments, the rewritten program computes only
the part of each IDB relevant to the goal, which bottom-up evaluation then
explores like a top-down engine would.

Restrictions: the transformation is applied to positive relational rules
(no negation, no built-ins) — the fragment where magic sets is sound without
further machinery.  Programs outside the fragment raise
:class:`~repro.errors.TranslationError`; callers fall back to full
evaluation.  The ``abl4`` benchmark quantifies the win on bound-argument
closure goals.
"""

from __future__ import annotations

from repro import obs
from repro.datalog.ast import Atom, Literal, Program, Rule
from repro.datalog.engine import Engine, match_atom
from repro.datalog.terms import Constant, Variable
from repro.errors import TranslationError

MAGIC_PREFIX = "magic#"


def adornment_of(goal):
    """The bound/free pattern of a goal atom: 'b' for constants, 'f' else."""
    return "".join("b" if isinstance(t, Constant) else "f" for t in goal.args)


def _adorned_name(predicate, adornment):
    return f"{predicate}@{adornment}"


def _magic_name(predicate, adornment):
    return f"{MAGIC_PREFIX}{predicate}@{adornment}"


def _bound_args(atom, adornment):
    return tuple(t for t, a in zip(atom.args, adornment) if a == "b")


def _check_fragment(program):
    for rule in program:
        for element in rule.body:
            if not isinstance(element, Literal):
                raise TranslationError(
                    f"magic sets supports relational literals only, found {element}"
                )
            if element.negative:
                raise TranslationError(
                    "magic sets is implemented for positive programs; "
                    f"negated literal {element} found"
                )


class MagicProgram:
    """Result of the rewriting: the program, seed facts, and goal mapping."""

    def __init__(self, program, seed_predicate, seed_values, answer_predicate, goal):
        self.program = program
        self.seed_predicate = seed_predicate
        self.seed_values = seed_values
        self.answer_predicate = answer_predicate
        self.goal = goal

    def seed_database(self, edb):
        """A copy of *edb* with the magic seed fact inserted."""
        database = edb.copy()
        database.relation(self.seed_predicate, max(len(self.seed_values), 0) or 0)
        if self.seed_values:
            database.add_fact(self.seed_predicate, *self.seed_values)
        else:
            # Zero bound arguments: seed is the 0-ary magic fact.
            database.relation(self.seed_predicate, 0).add(())
        return database

    def __repr__(self):
        return f"MagicProgram({len(self.program)} rules, goal={self.goal})"


def magic_rewrite(program, goal):
    """Rewrite *program* for the ground-prefix *goal* atom.

    Returns a :class:`MagicProgram`; evaluate with :func:`magic_query` or
    manually: evaluate ``result.program`` over ``result.seed_database(edb)``
    and match ``goal`` against ``result.answer_predicate``.
    """
    with obs.span("magic.rewrite", goal=str(goal)) as span:
        _check_fragment(program)
        if goal.predicate not in program.idb_predicates:
            raise TranslationError(f"goal predicate {goal.predicate!r} is not an IDB")

        idb = program.idb_predicates
        root_adornment = adornment_of(goal)
        rewritten = []
        pending = [(goal.predicate, root_adornment)]
        done = set()

        while pending:
            predicate, adornment = pending.pop()
            if (predicate, adornment) in done:
                continue
            done.add((predicate, adornment))
            for rule in program.rules_for(predicate):
                rewritten.extend(
                    _rewrite_rule(rule, adornment, idb, pending)
                )

        seed_predicate = _magic_name(goal.predicate, root_adornment)
        seed_values = tuple(t.value for t in goal.args if isinstance(t, Constant))
        answer_predicate = _adorned_name(goal.predicate, root_adornment)
        answer_goal = Atom(answer_predicate, goal.args)
        if span:
            span.annotate(
                adornment=root_adornment,
                rules_in=len(program),
                rules_out=len(rewritten),
                adorned_predicates=len(done),
            )
        return MagicProgram(
            Program(rewritten), seed_predicate, seed_values, answer_predicate, answer_goal
        )


def _rewrite_rule(rule, head_adornment, idb, pending):
    """Adorn one rule and emit its magic rules.

    Left-to-right sideways information passing: a body variable is bound if
    it occurs in a bound head position or in any earlier body literal.
    """
    out = []
    head = rule.head
    bound = {
        t
        for t, a in zip(head.args, head_adornment)
        if a == "b" and isinstance(t, Variable)
    }
    magic_head_literal = Literal(
        Atom(
            _magic_name(head.predicate, head_adornment),
            _bound_args(head, head_adornment),
        )
    )
    new_body = [magic_head_literal]
    prefix = [magic_head_literal]

    for element in rule.body:
        atom = element.atom
        if atom.predicate in idb:
            adornment = "".join(
                "b"
                if isinstance(t, Constant) or (isinstance(t, Variable) and t in bound)
                else "f"
                for t in atom.args
            )
            pending.append((atom.predicate, adornment))
            # Magic rule: the bound arguments of this subgoal are requested
            # whenever the prefix so far is derivable.
            magic_rule_head = Atom(
                _magic_name(atom.predicate, adornment), _bound_args(atom, adornment)
            )
            out.append(Rule(magic_rule_head, tuple(prefix)))
            adorned = Literal(Atom(_adorned_name(atom.predicate, adornment), atom.args))
            new_body.append(adorned)
            prefix.append(adorned)
        else:
            new_body.append(element)
            prefix.append(element)
        bound |= {t for t in atom.args if isinstance(t, Variable)}

    adorned_head = Atom(_adorned_name(head.predicate, head_adornment), head.args)
    out.append(Rule(adorned_head, tuple(new_body)))
    return out


def magic_query(program, edb, goal, method="columnar"):
    """Goal-directed evaluation: rewrite, seed, evaluate, match.

    Returns the same answer set as
    ``Engine(method).query(program, edb, goal)`` but touches only the
    goal-relevant part of each IDB.
    """
    rewritten = magic_rewrite(program, goal)
    database = rewritten.seed_database(edb)
    engine = Engine(method=method)
    result = engine.evaluate(rewritten.program, database)
    return match_atom(result, rewritten.goal), engine.stats


def magic_answers(program, edb, goal, method="columnar"):
    """Answers only (drops the stats)."""
    answers, _stats = magic_query(program, edb, goal, method=method)
    return answers
