"""Differential testing harness for Algorithm 3.1 (Theorem 3.2).

Verifies input/output program equivalence empirically: evaluate both on a
database and compare the relations of the *original* program's IDB
predicates.  Random stratified-linear program and database generators
support property-based testing at scale.
"""

from __future__ import annotations

import random

from repro.datalog.ast import Atom, Literal, Program, Rule
from repro.datalog.database import Database
from repro.datalog.engine import Engine
from repro.datalog.terms import Variable
from repro.translation.sl_to_stc import prepare_adom, sl_to_stc


def idb_snapshot(program, database, method="columnar"):
    """Evaluate and return ``{idb_predicate: frozenset(tuples)}``."""
    result = Engine(method=method).evaluate(program, database)
    return {
        predicate: frozenset(result.facts(predicate))
        for predicate in program.idb_predicates
    }


def check_equivalence(program, database, translation=None, method="columnar"):
    """Compare *program* against its Algorithm 3.1 translation on *database*.

    Returns ``(equal, details)`` where details maps each original IDB
    predicate to ``(original_tuples, translated_tuples)`` when they differ.
    """
    if translation is None:
        translation = sl_to_stc(program, use_predicate_name_signatures=False)
    original = idb_snapshot(program, database, method=method)
    translated_db = prepare_adom(database)
    translated = idb_snapshot(translation.program, translated_db, method=method)
    differences = {}
    for predicate, tuples in original.items():
        other = translated.get(predicate, frozenset())
        if tuples != other:
            differences[predicate] = (tuples, other)
    return (not differences), differences


def random_database(seed, predicates, domain_size=8, facts_per_predicate=10):
    """A random database for ``{predicate: arity}`` over a small domain."""
    rng = random.Random(seed)
    domain = [f"v{i}" for i in range(domain_size)]
    database = Database()
    for predicate, arity in predicates.items():
        relation = database.relation(predicate, arity)
        for _ in range(facts_per_predicate):
            relation.add(tuple(rng.choice(domain) for _ in range(arity)))
    return database


def random_sl_program(seed, n_idb=3, n_edb=3, max_arity=2, negation=True):
    """Generate a random *stratified linear* program.

    Construction guarantees stratified linearity: IDB predicates are created
    in order ``q0 < q1 < ...``; rule bodies use EDB predicates, strictly
    earlier IDB predicates (possibly negated), and at most one occurrence of
    the head predicate itself (direct linear recursion).  All rules are made
    safe by construction (every variable occurs in some positive literal).
    """
    rng = random.Random(seed)
    edb = {f"b{i}": rng.randint(1, max_arity) for i in range(n_edb)}
    # Binary EDBs make recursion interesting; force at least one.
    edb["b0"] = 2
    idb_arities = {}
    rules = []
    for index in range(n_idb):
        name = f"q{index}"
        arity = rng.randint(1, max_arity)
        idb_arities[name] = arity
        head_vars = [Variable(f"X{i}") for i in range(arity)]
        n_rules = rng.randint(1, 2)
        for _ in range(n_rules):
            rules.append(
                _random_rule(rng, name, head_vars, edb, idb_arities, index, negation)
            )
        # Half the time, add a direct linear recursive rule.
        if rng.random() < 0.6:
            rules.append(_random_recursive_rule(rng, name, head_vars, edb))
    return Program(rules)


def _random_rule(rng, name, head_vars, edb, idb_arities, index, negation):
    body = []
    bound = []
    # One or two positive EDB literals binding fresh variables.
    pool = list(head_vars)
    for literal_index in range(rng.randint(1, 2)):
        predicate = rng.choice(sorted(edb))
        arity = edb[predicate]
        args = []
        for position in range(arity):
            if pool and rng.random() < 0.7:
                args.append(rng.choice(pool))
            else:
                fresh = Variable(f"F{literal_index}{position}")
                pool.append(fresh)
                args.append(fresh)
        body.append(Literal(Atom(predicate, args)))
        bound.extend(args)
    # Ensure all head variables are bound: extend the last literal strategy —
    # bind leftovers through an extra EDB literal per missing variable.
    missing = [v for v in head_vars if v not in bound]
    for i, variable in enumerate(missing):
        predicate = rng.choice(sorted(edb))
        arity = edb[predicate]
        args = [variable] + [
            rng.choice(bound) if bound and rng.random() < 0.5 else variable
            for _ in range(arity - 1)
        ]
        body.append(Literal(Atom(predicate, args)))
        bound.extend(args)
    # Possibly reference an earlier IDB, maybe negated.
    if index > 0 and rng.random() < 0.7:
        earlier = f"q{rng.randrange(index)}"
        arity = idb_arities[earlier]
        args = [rng.choice(bound) for _ in range(arity)]
        positive = not (negation and rng.random() < 0.4)
        body.append(Literal(Atom(earlier, args), positive=positive))
    return Rule(Atom(name, head_vars), tuple(body))


def _random_recursive_rule(rng, name, head_vars, edb):
    """A safe direct-recursion rule: head q(X..) :- b(X.., Z..), q(Z-ish)."""
    arity = len(head_vars)
    recursive_args = []
    body = []
    bound = list(head_vars)
    binary_edbs = sorted(p for p, a in edb.items() if a == 2)
    for i in range(arity):
        fresh = Variable(f"R{i}")
        connector = rng.choice(binary_edbs)
        body.append(Literal(Atom(connector, (head_vars[i], fresh))))
        recursive_args.append(fresh)
        bound.append(fresh)
    body.append(Literal(Atom(name, recursive_args)))
    rng.shuffle(body)
    return Rule(Atom(name, head_vars), tuple(body))
