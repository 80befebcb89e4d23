"""Tests for delete-and-rederive maintenance (repro.datalog.dred).

Unit tests pin down overdelete / rederive / insert on hand-built programs,
non-recursive and recursive; the differential tests then hammer the whole thing
with random stratified programs and random insert/delete sequences,
comparing every maintained database against a from-scratch evaluation.
"""

from __future__ import annotations

import random

import pytest

from repro import obs
from repro.core.dsl import parse_graphical_query
from repro.core.engine import GraphLogEngine
from repro.datalog.database import Database
from repro.datalog.dred import MaintenancePlan
from repro.datalog.engine import Engine
from repro.datalog.parser import parse_program
from repro.graphs.bridge import EdgeLabel
from repro.ham.store import HAMStore
from repro.translation.differential import random_database, random_sl_program
from tests.test_views import watch

TC = parse_program(
    """
    tc(X, Y) :- e(X, Y).
    tc(X, Z) :- e(X, Y), tc(Y, Z).
    """
)


def edb_arities(program):
    """``{edb_predicate: arity}`` for every base predicate a body reads."""
    idb = program.idb_predicates
    arities = {}
    for rule in program.rules:
        for literal in rule.body:
            atom = getattr(literal, "atom", None)
            if atom is not None and atom.predicate not in idb:
                arities[atom.predicate] = atom.arity
    return arities


def materialize(program, edb):
    """``(plan, state)``: *program* evaluated over *edb*, ready to maintain."""
    plan = MaintenancePlan(program)
    return plan, plan.evaluate(edb)


def snapshot(database, predicates):
    return {p: frozenset(database.facts(p)) for p in predicates}


class TestNonRecursiveGroups:
    PROGRAM = parse_program(
        """
        hop(X, Y) :- e(X, Y).
        two(X, Z) :- e(X, Y), e(Y, Z).
        """
    )

    def test_insert_lands(self):
        edb = Database.from_facts({"e": [("a", "b"), ("b", "c")]})
        plan, database = materialize(self.PROGRAM, edb)
        stats = plan.maintain(database, {"e": [("c", "d")]}, None)
        assert stats.dred_groups == 2
        assert (stats.overdeleted, stats.rederived) == (0, 0)
        assert ("c", "d") in database.facts("hop")
        assert ("b", "d") in database.facts("two")

    def test_shared_derivations_survive_single_deletion(self):
        # two("a","c") is derivable through b and through x: deleting one
        # path overdeletes it and rederives it from the other.
        edb = Database.from_facts(
            {"e": [("a", "b"), ("b", "c"), ("a", "x"), ("x", "c")]}
        )
        plan, database = materialize(self.PROGRAM, edb)
        with obs.tracing("t") as tracer:
            plan.maintain(database, None, {"e": [("a", "b")]})
        (two,) = [
            group
            for group in tracer.root.find_all("dred.group")
            if group.attrs["predicates"] == ["two"]
        ]
        assert sum(two.attrs["overdelete_rounds"]) == sum(two.attrs["rederive_rounds"]) == 1
        assert ("a", "c") in database.facts("two")
        plan.maintain(database, None, {"e": [("a", "x")]})
        assert ("a", "c") not in database.facts("two")

    def test_matches_recompute(self):
        edb = Database.from_facts({"e": [("a", "b"), ("b", "c"), ("c", "a")]})
        plan, database = materialize(self.PROGRAM, edb)
        plan.maintain(
            database, {"e": [("c", "d")]}, {"e": [("a", "b")]}
        )
        expected = Engine(check_safety=False).evaluate(
            self.PROGRAM,
            Database.from_facts({"e": [("b", "c"), ("c", "a"), ("c", "d")]}),
        )
        predicates = ("e", "hop", "two")
        assert snapshot(database, predicates) == snapshot(expected, predicates)


class TestDRedTransitiveClosure:
    def test_recursive_group_takes_dred_path(self):
        edb = Database.from_facts({"e": [("a", "b"), ("b", "c")]})
        plan, database = materialize(TC, edb)
        stats = plan.maintain(database, None, {"e": [("b", "c")]})
        assert stats.dred_groups > 0
        assert stats.overdeleted > 0
        assert set(database.facts("tc")) == {("a", "b")}

    def test_alternative_path_rederives(self):
        # a -> b -> d and a -> c -> d: deleting a->b overdeletes tc(a, d),
        # which the rederivation phase must bring back via c.
        edb = Database.from_facts(
            {"e": [("a", "b"), ("b", "d"), ("a", "c"), ("c", "d")]}
        )
        plan, database = materialize(TC, edb)
        stats = plan.maintain(database, None, {"e": [("a", "b")]})
        assert stats.rederived > 0
        assert ("a", "d") in database.facts("tc")
        assert ("a", "b") not in database.facts("tc")

    def test_insert_then_delete_roundtrip(self):
        edb = Database.from_facts({"e": [("a", "b")]})
        plan, database = materialize(TC, edb)
        before = snapshot(database, ("e", "tc"))
        plan.maintain(database, {"e": [("b", "c")]}, None)
        assert ("a", "c") in database.facts("tc")
        plan.maintain(database, None, {"e": [("b", "c")]})
        assert snapshot(database, ("e", "tc")) == before

    def test_cycle_deletion(self):
        edb = Database.from_facts({"e": [("a", "b"), ("b", "a")]})
        plan, database = materialize(TC, edb)
        plan.maintain(database, None, {"e": [("b", "a")]})
        expected = Engine(check_safety=False).evaluate(
            TC, Database.from_facts({"e": [("a", "b")]})
        )
        assert snapshot(database, ("e", "tc")) == snapshot(expected, ("e", "tc"))


class TestRederivationBatch:
    def test_rederive_fires_are_independent_of_candidates_and_alternatives(
        self, monkeypatch
    ):
        # a_j -> m_i -> z for j < k, i < n.  Deleting every a_j -> m0
        # overdeletes tc(a_j, m0) and tc(a_j, z); each tc(a_j, z) has n - 1
        # surviving alternatives.  Rederivation is one head-seeded batch
        # semijoin per rule and round, so the number of rederive pipeline
        # fires depends on neither k (candidates) nor n (alternatives).
        from repro.datalog import columnar

        fire = columnar._Pipeline.fire

        def rederive_fires(k, n):
            middles = [f"m{i}" for i in range(n)]
            edges = [(f"a{j}", m) for j in range(k) for m in middles]
            edb = Database.from_facts({"e": edges + [(m, "z") for m in middles]})
            plan, state = materialize(TC, edb)
            ((_overdelete, _insert, rederive),) = state.compiled
            pipelines = {id(pipeline) for _head, pipeline in rederive}
            seeds = []

            def counted(pipeline, delta_rows=None, old_keys=None):
                if id(pipeline) in pipelines:
                    seeds.append(len(delta_rows))
                return fire(pipeline, delta_rows, old_keys)

            gone = [(f"a{j}", "m0") for j in range(k)]
            with monkeypatch.context() as patch:
                patch.setattr(columnar._Pipeline, "fire", counted)
                stats = plan.maintain(state, None, {"e": gone})
            assert stats.rederived == k
            assert stats.deleted == {"e": set(gone), "tc": set(gone)}
            kept = [edge for edge in edb.facts("e") if edge not in gone]
            expected = Engine("naive").evaluate(TC, Database.from_facts({"e": kept}))
            assert state.facts("tc") == expected.facts("tc")
            assert max(seeds) == 2 * k  # every candidate in one batch
            return len(seeds)

        assert rederive_fires(1, 3) == rederive_fires(30, 40) <= 4


class TestStratifiedNegation:
    PROGRAM = parse_program(
        """
        tc(X, Y) :- e(X, Y).
        tc(X, Z) :- e(X, Y), tc(Y, Z).
        broken(X, Y) :- e(X, Y), not ok(X).
        ok(X) :- good(X).
        """
    )

    def _full(self, e_facts, good_facts):
        return Engine(check_safety=False).evaluate(
            self.PROGRAM, Database.from_facts({"e": e_facts, "good": good_facts})
        )

    def test_negated_support_gained_retracts(self):
        edb = Database.from_facts({"e": [("a", "b")], "good": []})
        plan, database = materialize(self.PROGRAM, edb)
        assert ("a", "b") in database.facts("broken")
        plan.maintain(database, {"good": [("a",)]}, None)
        assert ("a", "b") not in database.facts("broken")

    def test_negated_support_lost_derives(self):
        edb = Database.from_facts({"e": [("a", "b")], "good": [("a",)]})
        plan, database = materialize(self.PROGRAM, edb)
        assert set(database.facts("broken")) == set()
        plan.maintain(database, None, {"good": [("a",)]})
        assert ("a", "b") in database.facts("broken")

    def test_mixed_delta_across_strata(self):
        edb = Database.from_facts(
            {"e": [("a", "b"), ("b", "c")], "good": [("b",)]}
        )
        plan, database = materialize(self.PROGRAM, edb)
        plan.maintain(
            database,
            {"e": [("c", "d")], "good": [("a",)]},
            {"e": [("a", "b")], "good": [("b",)]},
        )
        expected = self._full([("b", "c"), ("c", "d")], [("a",)])
        predicates = ("e", "good", "tc", "broken", "ok")
        assert snapshot(database, predicates) == snapshot(expected, predicates)


class TestProgramFactsAndIdbDeltas:
    def test_program_fact_survives_edb_deletion(self):
        # e(a, b) is asserted by the program itself; retracting the very
        # same row from the EDB must not delete the axiom or its closure.
        program = parse_program(
            """
            e(a, b).
            tc(X, Y) :- e(X, Y).
            tc(X, Z) :- e(X, Y), tc(Y, Z).
            """
        )
        edb = Database.from_facts({"e": [("a", "b"), ("b", "c")]})
        plan, database = materialize(program, edb)
        plan.maintain(database, None, {"e": [("a", "b")]})
        assert ("a", "b") in database.facts("e")
        assert ("a", "c") in database.facts("tc")
        plan.maintain(database, None, {"e": [("b", "c")]})
        assert ("a", "c") not in database.facts("tc")
        assert ("a", "b") in database.facts("tc")

    def test_delta_under_idb_name_treated_as_base_fact(self):
        edb = Database.from_facts({"e": [("a", "b")], "tc": [("x", "y")]})
        plan, database = materialize(TC, edb)
        assert ("x", "y") in database.facts("tc")
        plan.maintain(database, None, {"tc": [("x", "y")]})
        assert ("x", "y") not in database.facts("tc")
        assert ("a", "b") in database.facts("tc")


class TestRandomizedDifferential:
    """DRed vs from-scratch evaluation on random stratified programs."""

    def _run(self, seed, negation, deletions=True):
        program = random_sl_program(seed, negation=negation)
        arities = edb_arities(program)
        if not arities:
            return
        edb = random_database(seed + 1, arities, domain_size=5, facts_per_predicate=6)
        plan = MaintenancePlan(program)
        database = plan.evaluate(edb)
        rng = random.Random(seed + 2)
        domain = [f"v{i}" for i in range(5)]
        for round_index in range(4):
            delta_plus = {}
            delta_minus = {}
            for predicate, arity in arities.items():
                existing = sorted(edb.facts(predicate))
                n_del = rng.randint(0, min(2, len(existing))) if deletions else 0
                removed = set(rng.sample(existing, n_del)) if n_del else set()
                added = set()
                for _ in range(rng.randint(0, 2)):
                    row = tuple(rng.choice(domain) for _ in range(arity))
                    if row not in existing and row not in removed:
                        added.add(row)
                if removed:
                    delta_minus[predicate] = removed
                if added:
                    delta_plus[predicate] = added
                relation = edb.relation(predicate, arity)
                for row in removed:
                    relation.discard(row)
                for row in added:
                    relation.add(row)
            plan.maintain(database, delta_plus, delta_minus)
            expected = Engine("naive", check_safety=False).evaluate(program, edb)
            predicates = sorted(program.predicates)
            assert snapshot(database, predicates) == snapshot(
                expected, predicates
            ), f"seed={seed} round={round_index}"

    @pytest.mark.parametrize("seed", range(10))
    def test_with_negation(self, seed):
        self._run(seed, negation=True)

    @pytest.mark.parametrize("seed", [101, 103, 107, 109, 113])
    def test_positive_only(self, seed):
        self._run(seed, negation=False)

    @pytest.mark.parametrize("seed", range(200, 206))
    def test_insert_only_sequences(self, seed):
        self._run(seed, negation=seed % 2 == 0, deletions=False)


def churn(program, arities, values, seed, rounds=6):
    """Random net insert / delete rounds on the predicates of *arities*
    (IDB names allowed: base facts under that name) with values drawn from
    *values*; after every round the maintained state equals
    ``Engine("naive")`` from scratch."""
    rng = random.Random(seed)
    edb = Database()
    for predicate, arity in arities.items():
        relation = edb.relation(predicate, arity)
        for _ in range(6):
            relation.add(tuple(rng.choice(values) for _ in range(arity)))
    plan, state = materialize(program, edb)
    for round_index in range(rounds):
        plus, minus = {}, {}
        for predicate, arity in arities.items():
            relation = edb.relation(predicate)
            present = sorted(relation, key=repr)
            gone = set(rng.sample(present, min(len(present), rng.randint(0, 2))))
            drawn = (
                tuple(rng.choice(values) for _ in range(arity))
                for _ in range(rng.randint(0, 2))
            )
            new = {row for row in drawn if row not in relation}
            for row in gone:
                relation.discard(row)
            for row in new:
                relation.add(row)
            if gone:
                minus[predicate] = gone
            if new:
                plus[predicate] = new
        plan.maintain(state, plus, minus)
        expected = Engine("naive", check_safety=False).evaluate(program, edb)
        for predicate in sorted(program.predicates):
            assert state.facts(predicate) == expected.facts(predicate), (
                f"seed={seed} round={round_index} predicate={predicate}"
            )


class TestEncodedDifferential:
    """The encoded state against the specification on the shapes an int
    encoding could get wrong."""

    MIXED = parse_program(
        """
        tc(X, Y) :- e(X, Y).
        tc(X, Z) :- e(X, Y), tc(Y, Z).
        loop(X) :- tc(X, X).
        pair(X, Y) :- e(X, Y), e(Y, X).
        """
    )
    ARITHMETIC = parse_program(
        """
        next(X, Y) :- n(X), Y = X + 1, n(Y).
        run(X, Y) :- next(X, Y).
        run(X, Z) :- run(X, Y), next(Y, Z).
        half(X, H) :- n(X), H = X / 2.
        product(X, Y, P) :- e(X, Y), P = X * Y.
        big(S) :- product(_, _, P), S = P + 1, S > 4.
        """
    )
    NEGATION = parse_program(
        """
        tc(X, Y) :- e(X, Y).
        tc(X, Z) :- e(X, Y), tc(Y, Z).
        sink(X) :- n(X), not e(X, _).
        lonely(X) :- n(X), not tc(_, X), not tc(X, _).
        cut(X, Y) :- tc(X, Y), not e(X, Y), not sink(Y).
        """
    )
    AXIOMS = parse_program(
        """
        e(a, b).
        tc(c, a).
        tc(X, Y) :- e(X, Y).
        tc(X, Z) :- e(X, Y), tc(Y, Z).
        hop(X, Y) :- tc(X, Y), not e(X, Y).
        """
    )

    CLOSURES = parse_program(
        """
        hop(X, Y) :- e(X, Y), not n(X).
        reach(X, Y) :- hop(X, Y).
        reach(X, Z) :- reach(X, Y), hop(Y, Z).
        path(A, B, C, D) :- step(A, B, C, D).
        path(A, B, C, D) :- step(A, B, E, F), path(E, F, C, D).
        """
    )

    @pytest.mark.parametrize("seed", range(8))
    def test_state_built_by_the_closure_kernel(self, seed):
        # A left-linear pair over a lower IDB stratum and a 4-ary pair: the
        # initial state comes from the closure kernel, DRed maintains it.
        with obs.tracing("t") as tracer:
            churn(self.CLOSURES, {"e": 2, "n": 1, "step": 4}, ["a", "b", "c", "d"], seed)
        kernel_strata = {
            tuple(s.attrs["predicates"])
            for s in tracer.root.find_all("engine.stratum")
            if s.attrs.get("kernel") == "closure"
        }
        assert kernel_strata == {("reach",), ("path",)}

    @pytest.mark.parametrize("seed", range(8))
    def test_mixed_type_values_collide_as_tuples_do(self, seed):
        # 1 == 1.0 == True and 0 == 0.0 == False: one catalog id each, so a
        # delta row equal to a stored one inserts or deletes that row.
        pool = [0, 1, 1.0, True, False, 0.0, 2, 2.0, "a", "1"]
        churn(self.MIXED, {"e": 2}, pool, seed)

    @pytest.mark.parametrize("seed", range(8))
    def test_arithmetic_heads_intern_computed_values(self, seed):
        pool = [0, 1, 2, 3, 4, 5, 7, 1.0, 2.0, True]
        churn(self.ARITHMETIC, {"n": 1, "e": 2}, pool, seed)

    @pytest.mark.parametrize("seed", range(8))
    def test_negation_with_anonymous_variables(self, seed):
        pool = ["a", "b", "c", "d"]
        churn(self.NEGATION, {"e": 2, "n": 1}, pool, seed)

    @pytest.mark.parametrize("seed", range(8))
    def test_idb_named_deltas_and_program_axioms(self, seed):
        # Deltas name tc and hop (base facts under an IDB name) and retract
        # rows the program asserts, which must survive.
        pool = ["a", "b", "c", "d"]
        churn(self.AXIOMS, {"e": 2, "tc": 2, "hop": 2}, pool, seed)


def planted_edges(rng, sccs=3, size=4, chain=2):
    """A random digraph: *sccs* strongly connected components of *size*
    nodes (a cycle plus up to 2 × *size* random chords), strung together
    by chains of *chain* fresh nodes."""
    edges = set()
    components = []
    for s in range(sccs):
        members = [f"s{s}m{i}" for i in range(size)]
        edges.update(zip(members, members[1:] + members[:1]))
        for _ in range(2 * size):
            edges.add((rng.choice(members), rng.choice(members)))
        components.append(members)
    for s in range(sccs - 1):
        path = [rng.choice(components[s])]
        path += [f"c{s}m{i}" for i in range(chain)]
        path.append(rng.choice(components[s + 1]))
        edges.update(zip(path, path[1:]))
    return edges


def detoured(old, new):
    """Whether every edge of *old* missing from *new* has its source still
    reach its target over *new*: the closure shortcut's condition, computed
    independently of it."""
    successors = {}
    for source, target in new:
        successors.setdefault(source, set()).add(target)
    for source, target in old - new:
        seen, frontier = set(), [source]
        while frontier and target not in seen:
            for node in successors.get(frontier.pop(), set()) - seen:
                seen.add(node)
                frontier.append(node)
        if target not in seen:
            return False
    return True


class TestClosureDetours:
    """A closure group skips overdelete / rederive when every removed base
    edge keeps a detour — differentially against ``Engine("naive")``, and
    with the closure group's own ``dred.group`` span marked ``detoured``
    exactly when the condition holds.  The binary closure is the
    left-linear mirror, the other two right-linear."""

    TC = parse_program(
        """
        tc(X, Y) :- e(X, Y).
        tc(X, Z) :- tc(X, Y), e(Y, Z).
        """
    )
    WIDE = parse_program(
        """
        path(A, B, C, D) :- step(A, B, C, D).
        path(A, B, C, D) :- step(A, B, E, F), path(E, F, C, D).
        """
    )

    @staticmethod
    def _lambda_program():
        from repro.service.prepared import PreparedQuery

        query = "define (X) -[c]-> (Y) { (X) -[(-from . to)+]-> (Y); }"
        return PreparedQuery("graphlog", query).program

    def _churn(self, program, to_edb, base_of, seed, batches=8):
        """Random batches of edge deletions and insertions on a planted
        graph; returns how many batches took the shortcut and how many did
        not.  *to_edb* maps an edge set to EDB facts, *base_of* maps the
        naive engine's database to the closure's base edges."""
        rng = random.Random(seed)
        edges = planted_edges(rng)
        nodes = sorted({node for edge in edges for node in edge})
        plan, state = materialize(program, Database.from_facts(to_edb(edges)))
        (closure,) = [sorted(g.predicates) for g in plan.groups if g.closure is not None]
        oracle = Engine("naive").evaluate(program, Database.from_facts(to_edb(edges)))
        took = {True: 0, False: 0}
        for batch in range(batches):
            gone = set(rng.sample(sorted(edges), rng.randint(1, 2)))
            new = {(rng.choice(nodes), rng.choice(nodes)) for _ in range(rng.randint(0, 2))}
            new -= edges
            after = (edges - gone) | new
            plus, minus = to_edb(new), to_edb(gone)
            with obs.tracing("t") as tracer:
                plan.maintain(state, plus, minus)
            (span,) = [
                group
                for group in tracer.root.find_all("dred.group")
                if group.attrs["predicates"] == closure
            ]
            expected = Engine("naive").evaluate(program, Database.from_facts(to_edb(after)))
            for predicate in sorted(program.predicates):
                assert state.facts(predicate) == expected.facts(predicate), (
                    f"seed={seed} batch={batch} predicate={predicate}"
                )
            shortcut = detoured(base_of(oracle), base_of(expected))
            assert span.attrs.get("detoured", False) == shortcut, f"seed={seed} batch={batch}"
            assert ("overdelete_rounds" in span.attrs) != shortcut, f"seed={seed} batch={batch}"
            took[shortcut] += 1
            edges, oracle = after, expected
        return took

    def test_binary_closure(self):
        self._seeds("binary")

    def test_arity_four_closure(self):
        self._seeds("arity four")

    def test_lambda_translated_closure(self):
        self._seeds("lambda")

    def _seeds(self, name):
        """Eight seeds of one shape; both outcomes must come up."""
        took = {True: 0, False: 0}
        for seed in range(8):
            for outcome, count in self._churn(*self._shape(name), seed).items():
                took[outcome] += count
        assert took[True] >= 8 and took[False] >= 8, took

    def _shape(self, name):
        """``(program, to_edb, base_of)`` of one closure shape."""
        if name == "binary":
            return self.TC, lambda edges: {"e": edges}, lambda db: set(db.facts("e"))
        if name == "arity four":
            # Node "s0m1" is the pair ("s0", "m1"): rows row[:2] -> row[2:].
            def pair(node):
                return (node[:2], node[2:])

            return (
                self.WIDE,
                lambda edges: {"step": {pair(a) + pair(b) for a, b in edges}},
                lambda db: {(row[:2], row[2:]) for row in db.facts("step")},
            )

        # One flight per edge: from(f, source), to(f, target); the closure's
        # base is the λ translation's auxiliary ``path`` relation.
        def flights(edges):
            return {
                "from": {(f"f-{a}-{b}", a) for a, b in edges},
                "to": {(f"f-{a}-{b}", b) for a, b in edges},
            }

        return self._lambda_program(), flights, lambda db: set(db.facts("path"))

    def test_edges_that_are_each_others_only_detour(self):
        # a -> b's only detour runs c -> d and c -> d's runs a -> b: either
        # alone keeps the closure, both together must fall through to DRed.
        ab, cd = ("a", "b"), ("c", "d")
        edges = {("a", "c"), ("c", "a"), ("d", "b"), ("b", "d"), ab, cd}
        plan, state = materialize(self.TC, Database.from_facts({"e": edges}))
        for gone in ({ab}, {cd}, {ab, cd}):
            stats = plan.maintain(state, None, {"e": gone})
            expected = Engine("naive").evaluate(
                self.TC, Database.from_facts({"e": edges - gone})
            )
            assert state.facts("tc") == expected.facts("tc")
            assert (stats.overdeleted == 0) == (len(gone) == 1)
            if len(gone) == 2:
                assert stats.deleted["tc"]
            plan.maintain(state, {"e": gone}, None)
            assert state.facts("tc") == Engine("naive").evaluate(
                self.TC, Database.from_facts({"e": edges})
            ).facts("tc")

    def test_the_pass_span_says_it_took_the_detour(self):
        edges = {("a", "b"), ("b", "c"), ("c", "a"), ("a", "c")}
        plan, state = materialize(self.TC, Database.from_facts({"e": edges}))
        with obs.tracing("t") as tracer:
            stats = plan.maintain(state, None, {"e": {("a", "c")}})
        (group,) = tracer.root.find_all("dred.group")
        assert group.attrs.get("detoured") is True
        assert "overdelete_rounds" not in group.attrs
        assert (stats.overdeleted, stats.rederived, stats.facts_deleted) == (0, 0, 1)


class TestWalkerFree:
    """Maintenance runs the columnar kernels only: with the tuple walker
    made to raise, every pass — a plan's and a store view's — still
    succeeds and matches the specification."""

    PROGRAM = parse_program(
        """
        tc(X, Y) :- e(X, Y).
        tc(X, Z) :- e(X, Y), tc(Y, Z).
        hop(X, Y) :- e(X, Y), not blocked(X).
        stuck(X) :- tc(X, _), not hop(X, _).
        """
    )
    STEPS = [
        ({"e": [("a", "b"), ("b", "c")]}, {}),
        ({"blocked": [("b",)]}, {}),
        ({"e": [("c", "a")]}, {"e": [("a", "b")]}),
        ({}, {"blocked": [("b",)], "e": [("b", "c")]}),
        ({"e": [("a", "b"), ("b", "d")]}, {"e": [("c", "a")]}),
    ]

    @staticmethod
    def _walker(*_args, **_kwargs):
        raise AssertionError("Engine._fire ran during maintenance")

    def test_passes_never_walk(self, monkeypatch):
        edb = Database.from_facts({"e": [("x", "y")], "blocked": [("x",)]})
        expected = []
        for plus, minus in self.STEPS:
            for predicate, rows in minus.items():
                for row in rows:
                    edb.relation(predicate).discard(row)
            for predicate, rows in plus.items():
                edb.add_facts(predicate, rows)
            expected.append(Engine("naive").evaluate(self.PROGRAM, edb))
        monkeypatch.setattr(Engine, "_fire", self._walker)
        plan, state = materialize(
            self.PROGRAM, Database.from_facts({"e": [("x", "y")], "blocked": [("x",)]})
        )
        for (plus, minus), oracle_db in zip(self.STEPS, expected):
            plan.maintain(state, plus, minus)
            for predicate in self.PROGRAM.predicates:
                assert state.facts(predicate) == oracle_db.facts(predicate)

    def test_store_view_never_walks(self, monkeypatch):
        query = TestStoreLevelDifferential.QUERY
        store = HAMStore()
        store.load_database(Database.from_facts({"link": [("n0", "n1")]}))
        monkeypatch.setattr(Engine, "_fire", self._walker)
        view, _ = watch(store, query)
        edits = [
            ("add", "n1", "n2", "link"),
            ("add", "n0", "n2", "fast"),
            ("remove", "n0", "n1", "link"),
            ("add", "n2", "n0", "link"),
            ("remove", "n0", "n2", "fast"),
        ]
        for kind, source, target, label in edits:
            with store.session().transaction() as txn:
                edit = txn.add_edge if kind == "add" else txn.remove_edge
                edit(source, target, EdgeLabel(label))
        monkeypatch.undo()
        assert view.maintenance_passes == len(edits)
        assert view.maintenance_errors == 0
        assert view.rows("risky") == GraphLogEngine("naive").answers(
            parse_graphical_query(query), store.graph, "risky"
        )


class TestStoreLevelDifferential:
    """Hook-fed views over random commits vs fresh evaluation of the query."""

    QUERY = """
        define (X) -[risky]-> (Y) {
            (X) -[link+]-> (Y);
            (X) -[~fast]-> (Y);
        }
    """
    MARKED = "define (X) -[marked]-> (Y) { (X) -[link]-> (Y); stop(Y); }"

    def test_random_commits_match_fresh_evaluation(self):
        rng = random.Random(17)
        nodes = [f"n{i}" for i in range(8)]
        store = HAMStore()
        store.load_database(Database.from_facts({"link": [("n0", "n1")]}))
        risky, _ = watch(store, self.QUERY)
        marked, _ = watch(store, self.MARKED)
        edges = [("n0", "n1", "link")]
        present = ["n0", "n1"]  # nodes known to exist (edges never remove them)
        labeled = set()
        for step in range(40):
            op = rng.random()
            with store.session().transaction() as txn:
                if op < 0.45 or not edges:
                    edge = (
                        rng.choice(nodes),
                        rng.choice(nodes),
                        rng.choice(["link", "fast"]),
                    )
                    txn.add_edge(edge[0], edge[1], EdgeLabel(edge[2]))
                    edges.append(edge)
                    for node in edge[:2]:
                        if node not in present:
                            present.append(node)
                elif op < 0.75:
                    edge = edges.pop(rng.randrange(len(edges)))
                    txn.remove_edge(edge[0], edge[1], EdgeLabel(edge[2]))
                else:
                    node = rng.choice(present)
                    if node in labeled:
                        txn.set_node_label(node, None)
                        labeled.discard(node)
                    else:
                        txn.set_node_label(node, "stop")
                        labeled.add(node)
            engine = GraphLogEngine()
            assert risky.rows("risky") == engine.answers(
                parse_graphical_query(self.QUERY), store.graph, "risky"
            ), step
            assert marked.rows("marked") == engine.answers(
                parse_graphical_query(self.MARKED), store.graph, "marked"
            ), step
        # Everything above must have gone through maintenance, not
        # re-evaluation: each commit is one pass or one skipped empty delta
        # (e.g. a duplicate parallel edge).
        for view in (risky, marked):
            assert view.maintenance_errors == 0
            assert view.maintenance_passes + view.skipped_empty == 40
        assert 30 <= risky.maintenance_passes <= 40
        assert marked.maintenance_passes == risky.maintenance_passes
