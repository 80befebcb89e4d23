"""The columnar fixpoint handles each derived row once.

Three shortcuts of the core are pinned here to ``Engine("naive")`` and to
DRed maintenance:

- ``ColumnarRelation.merge_run`` hashes a run once and returns exactly the
  rows it appended;
- a group none of whose rules reads the group fires its rules once and
  records that one round, also when its heads already hold program facts or
  EDB rows under the IDB name;
- a negated literal with every column bound probes the relation's key set
  (or, at arity 1, its bare-value index), over EDB and IDB relations and
  constants, at arity 1, 2 and 3.

The same programs then go through ``MaintenancePlan`` over random commits,
so DRed's ``_Rows`` / ``_Old`` indexes answer the same probes.
"""

from __future__ import annotations

import random

import pytest

from repro import obs
from repro.datalog.columnar import ColumnarRelation
from repro.datalog.database import Database
from repro.datalog.engine import Engine
from repro.datalog.parser import parse_program
from tests.test_dred import churn

VALUES = ["a", "b", "c", "d"]

#: EDB predicates and arities; ``hop``, ``mark`` and ``tri`` are IDB names
#: the EDB also holds rows under.
ARITIES = {"e": 2, "n": 1, "t": 3, "hop": 2, "mark": 1, "tri": 3}

NON_RECURSIVE = parse_program(
    """
    hop(a, b).
    hop(X, Y) :- e(X, Y).
    mark(d).
    mark(X) :- n(X), e(X, _).
    two(X, Z) :- hop(X, Y), e(Y, Z).
    tri(X, Y, Z) :- t(X, Y, Z), e(X, Y).
    """
)

NEGATED = parse_program(
    """
    mark(X) :- n(X), e(X, _).
    tri(X, Y, Z) :- t(X, Y, Z), e(X, Y).
    tc(X, Y) :- e(X, Y).
    tc(X, Y) :- tc(X, Z), e(Z, Y).
    lone(X) :- n(X), not mark(X).
    unseen(X) :- n(X), not n(X).
    quiet(X) :- n(X), not hop(X, X).
    nonedge(X, Y) :- n(X), n(Y), not e(X, Y).
    oneway(X, Y) :- e(X, Y), not e(Y, X).
    far(X, Y) :- tc(X, Y), not e(X, Y).
    shortcut(X, Y) :- e(X, Z), e(Z, Y), not tc(X, Y).
    open(X, Y, Z) :- e(X, Y), e(Y, Z), not t(X, Y, Z).
    untri(X, Y, Z) :- t(X, Y, Z), not tri(X, Y, Z).
    skew(X, Y, Z) :- t(X, Y, Z), not tri(Z, Y, X).
    noa(X) :- n(X), not e(X, a).
    nob(X) :- n(X), not t(X, b, X).
    nod(X) :- e(X, _), not mark(d).
    none(X, Y) :- e(X, Y), not t(a, b, c).
    """
)


def random_edb(rng):
    edb = Database()
    for predicate, arity in ARITIES.items():
        relation = edb.relation(predicate, arity)
        for _ in range(rng.randint(0, 8)):
            relation.add(tuple(rng.choice(VALUES) for _ in range(arity)))
    return edb


class TestMergeRun:
    def test_duplicates_inside_one_run_append_once(self):
        rel = ColumnarRelation("p", 2)
        fresh = rel.merge_run([(1, 2), (1, 2), (3, 4), (1, 2)])
        assert fresh == {(1, 2), (3, 4)}
        assert sorted(rel.rows) == [(1, 2), (3, 4)]
        assert rel.keys == {(1, 2), (3, 4)}

    def test_rows_already_held_are_not_appended(self):
        rel = ColumnarRelation("p", 2)
        rel.merge_run([(1, 2), (3, 4)])
        before = len(rel.rows)
        fresh = rel.merge_run([(3, 4), (5, 6), (1, 2), (5, 6)])
        assert fresh == set(rel.rows[before:]) == {(5, 6)}
        assert len(rel.rows) == before + 1
        assert not rel.merge_run([(1, 2), (5, 6)])
        assert len(rel.rows) == len(rel.keys) == 3

    def test_run_into_an_empty_relation(self):
        rel = ColumnarRelation("p", 1)
        run = [(i % 7,) for i in range(30)]
        fresh = rel.merge_run(run)
        assert fresh == set(run) == set(rel.rows) == rel.keys
        assert len(rel.rows) == 7

    @pytest.mark.parametrize("seed", range(6))
    def test_returned_set_is_exactly_the_rows_appended(self, seed):
        rng = random.Random(seed)
        rel = ColumnarRelation("p", 2)
        held = set()
        for _ in range(8):
            run = [(rng.randint(0, 9), rng.randint(0, 9)) for _ in range(rng.randint(0, 25))]
            before = len(rel.rows)
            fresh = rel.merge_run(iter(run))
            appended = rel.rows[before:]
            assert len(appended) == len(set(appended)) == len(fresh)
            assert fresh == set(appended) == set(run) - held
            held |= fresh
            assert rel.keys == held == set(rel.rows)


class TestFullWidthIndex:
    def test_key_set_is_the_index_over_every_position(self):
        rel = ColumnarRelation("p", 3)
        rel.merge_run([(1, 2, 3), (4, 5, 6)])
        index = rel.index((0, 1, 2))
        assert index is rel.keys
        assert index.get((1, 2, 3)) == [(1, 2, 3)] and index[(4, 5, 6)] == [(4, 5, 6)]
        assert index.get((1, 2, 4)) is None and (1, 2, 4) not in index
        rel.merge_run([(7, 8, 9)])
        assert (7, 8, 9) in index

    def test_arity_one_index_keys_are_bare_values(self):
        rel = ColumnarRelation("p", 1, sealed=True)
        rel.merge_run([(1,), (2,)])
        index = rel.index((0,))
        assert index is not rel.keys
        assert 1 in index and (1,) not in index


@pytest.mark.parametrize("program", [NON_RECURSIVE, NEGATED], ids=["non_recursive", "negated"])
@pytest.mark.parametrize("seed", range(12))
def test_columnar_equals_naive(program, seed):
    edb = random_edb(random.Random(seed))
    expected = Engine("naive").evaluate(program, edb)
    assert Engine().evaluate(program, edb) == expected
    predicates = sorted(program.idb_predicates)
    answer = Engine().answer(program, edb, predicates)
    assert answer == {p: expected.facts(p) for p in predicates}


@pytest.mark.parametrize("seed", range(6))
def test_a_non_recursive_stratum_records_one_round(seed):
    """Its span keeps ``seed_delta`` and one ``iterations`` entry whose
    ``delta_in`` is that seed, and the stats count one iteration per
    non-empty group, one firing per rule, and every row merged."""
    edb = random_edb(random.Random(seed))
    engine = Engine()
    with obs.tracing("t") as tracer:
        result = engine.evaluate(NON_RECURSIVE, edb)
    spans = tracer.root.find_all("engine.stratum")
    assert spans and all("kernel" not in span.attrs for span in spans)
    for span in spans:
        seed_delta = span.attrs["seed_delta"]
        rounds = span.attrs.get("iterations", [])
        if seed_delta:
            assert rounds == [{"iteration": 1, "delta_in": seed_delta, "derived": 0}]
        else:
            assert rounds == []
        assert seed_delta == {
            p: n for p, n in span.attrs["facts"].items() if n
        }
    stats = engine.stats
    assert stats.iterations == sum(1 for span in spans if span.attrs["seed_delta"])
    assert stats.rule_firings == sum(1 for rule in NON_RECURSIVE if not rule.is_fact)
    seeded = {p: set(edb.facts(p)) for p in NON_RECURSIVE.idb_predicates}
    for rule in NON_RECURSIVE:
        if rule.is_fact:
            seeded[rule.head.predicate].add(tuple(t.value for t in rule.head.args))
    assert stats.facts_derived == sum(
        len(result.facts(p) - rows) for p, rows in seeded.items()
    )


@pytest.mark.parametrize("program", [NON_RECURSIVE, NEGATED], ids=["non_recursive", "negated"])
@pytest.mark.parametrize("seed", range(6))
def test_maintenance_equals_fresh_evaluation(program, seed):
    """Random commits, IDB names included, through ``MaintenancePlan``:
    every state equals a fresh naive evaluation."""
    churn(program, ARITIES, VALUES, seed, rounds=8)
