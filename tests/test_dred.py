"""Tests for delete-and-rederive maintenance (repro.datalog.dred).

Unit tests pin down the two maintenance modes (support counting for
non-recursive groups, DRed overdelete/rederive for recursive ones) on
hand-built programs; the differential tests then hammer the whole thing
with random stratified programs and random insert/delete sequences,
comparing every maintained database against a from-scratch evaluation.
"""

from __future__ import annotations

import random

import pytest

from repro.core.dsl import parse_graphical_query
from repro.core.engine import GraphLogEngine
from repro.datalog.database import Database
from repro.datalog.dred import (
    MaintenancePlan,
    evaluate_with_counts,
)
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


def snapshot(database, predicates):
    return {p: frozenset(database.facts(p)) for p in predicates}


class TestCountingMode:
    PROGRAM = parse_program(
        """
        hop(X, Y) :- e(X, Y).
        two(X, Z) :- e(X, Y), e(Y, Z).
        """
    )

    def test_nonrecursive_groups_use_counting(self):
        edb = Database.from_facts({"e": [("a", "b"), ("b", "c")]})
        plan, database, counts = evaluate_with_counts(self.PROGRAM, edb)
        stats = plan.maintain(database, {"e": [("c", "d")]}, None, counts)
        assert stats.counting_groups > 0
        assert stats.dred_groups == 0
        assert ("c", "d") in database.facts("hop")
        assert ("b", "d") in database.facts("two")

    def test_shared_derivations_survive_single_deletion(self):
        # two("a","c") is derivable through b and through x: deleting one
        # path decrements the support count but must not delete the fact.
        edb = Database.from_facts(
            {"e": [("a", "b"), ("b", "c"), ("a", "x"), ("x", "c")]}
        )
        plan, database, counts = evaluate_with_counts(self.PROGRAM, edb)
        plan.maintain(database, None, {"e": [("a", "b")]}, counts)
        assert ("a", "c") in database.facts("two")
        plan.maintain(database, None, {"e": [("a", "x")]}, counts)
        assert ("a", "c") not in database.facts("two")

    def test_counting_matches_recompute(self):
        edb = Database.from_facts({"e": [("a", "b"), ("b", "c"), ("c", "a")]})
        plan, database, counts = evaluate_with_counts(self.PROGRAM, edb)
        plan.maintain(
            database, {"e": [("c", "d")]}, {"e": [("a", "b")]}, counts
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
        plan, database, counts = evaluate_with_counts(TC, edb)
        stats = plan.maintain(database, None, {"e": [("b", "c")]}, counts)
        assert stats.dred_groups > 0
        assert stats.overdeleted > 0
        assert set(database.facts("tc")) == {("a", "b")}

    def test_alternative_path_rederives(self):
        # a -> b -> d and a -> c -> d: deleting a->b overdeletes tc(a, d),
        # which the rederivation phase must bring back via c.
        edb = Database.from_facts(
            {"e": [("a", "b"), ("b", "d"), ("a", "c"), ("c", "d")]}
        )
        plan, database, counts = evaluate_with_counts(TC, edb)
        stats = plan.maintain(database, None, {"e": [("a", "b")]}, counts)
        assert stats.rederived > 0
        assert ("a", "d") in database.facts("tc")
        assert ("a", "b") not in database.facts("tc")

    def test_insert_then_delete_roundtrip(self):
        edb = Database.from_facts({"e": [("a", "b")]})
        plan, database, counts = evaluate_with_counts(TC, edb)
        before = snapshot(database, ("e", "tc"))
        plan.maintain(database, {"e": [("b", "c")]}, None, counts)
        assert ("a", "c") in database.facts("tc")
        plan.maintain(database, None, {"e": [("b", "c")]}, counts)
        assert snapshot(database, ("e", "tc")) == before

    def test_cycle_deletion(self):
        edb = Database.from_facts({"e": [("a", "b"), ("b", "a")]})
        plan, database, counts = evaluate_with_counts(TC, edb)
        plan.maintain(database, None, {"e": [("b", "a")]}, counts)
        expected = Engine(check_safety=False).evaluate(
            TC, Database.from_facts({"e": [("a", "b")]})
        )
        assert snapshot(database, ("e", "tc")) == snapshot(expected, ("e", "tc"))


class TestRederivationProbe:
    def test_derivable_stops_at_the_first_derivation(self, monkeypatch):
        # tc(a, z) has N alternative derivations a -> m_i -> z.  Asking
        # whether it is derivable needs one of them: a constant number of
        # index probes, however many alternatives there are.
        from repro.datalog.database import Relation

        lookup = Relation.lookup

        def probes(n):
            middles = [f"m{i}" for i in range(n)]
            edb = Database.from_facts(
                {"e": [("a", m) for m in middles] + [(m, "z") for m in middles]}
            )
            plan, database, _counts = evaluate_with_counts(TC, edb)
            ((_group, rules, _body_preds, _eligible),) = plan._group_plans
            calls = []

            def counted(self, positions, values):
                calls.append(self.name)
                return lookup(self, positions, values)

            with monkeypatch.context() as patch:
                patch.setattr(Relation, "lookup", counted)
                assert plan._derivable(rules, database, "tc", ("a", "z"))
                assert not plan._derivable(rules, database, "tc", ("z", "a"))
            return len(calls)

        assert probes(40) == probes(4) <= 6


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
        plan, database, counts = evaluate_with_counts(self.PROGRAM, edb)
        assert ("a", "b") in database.facts("broken")
        plan.maintain(database, {"good": [("a",)]}, None, counts)
        assert ("a", "b") not in database.facts("broken")

    def test_negated_support_lost_derives(self):
        edb = Database.from_facts({"e": [("a", "b")], "good": [("a",)]})
        plan, database, counts = evaluate_with_counts(self.PROGRAM, edb)
        assert set(database.facts("broken")) == set()
        plan.maintain(database, None, {"good": [("a",)]}, counts)
        assert ("a", "b") in database.facts("broken")

    def test_mixed_delta_across_strata(self):
        edb = Database.from_facts(
            {"e": [("a", "b"), ("b", "c")], "good": [("b",)]}
        )
        plan, database, counts = evaluate_with_counts(self.PROGRAM, edb)
        plan.maintain(
            database,
            {"e": [("c", "d")], "good": [("a",)]},
            {"e": [("a", "b")], "good": [("b",)]},
            counts,
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
        plan, database, counts = evaluate_with_counts(program, edb)
        plan.maintain(database, None, {"e": [("a", "b")]}, counts)
        assert ("a", "b") in database.facts("e")
        assert ("a", "c") in database.facts("tc")
        plan.maintain(database, None, {"e": [("b", "c")]}, counts)
        assert ("a", "c") not in database.facts("tc")
        assert ("a", "b") in database.facts("tc")

    def test_delta_under_idb_name_treated_as_base_fact(self):
        edb = Database.from_facts({"e": [("a", "b")], "tc": [("x", "y")]})
        plan, database, counts = evaluate_with_counts(TC, edb)
        assert ("x", "y") in database.facts("tc")
        plan.maintain(database, None, {"tc": [("x", "y")]}, counts)
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
        database, counts = plan.evaluate(edb)
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
            plan.maintain(database, delta_plus, delta_minus, counts)
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
