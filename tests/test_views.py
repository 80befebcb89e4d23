"""Tests for materialized views and incremental maintenance."""

from repro.core.dsl import parse_graphical_query
from repro.core.translate import translate
from repro.core.engine import GraphLogEngine
from repro.datalog.database import Database
from repro.datalog.dred import evaluate_with_counts
from repro.datalog.engine import Engine
from repro.datalog.parser import parse_program
from repro.graphs.bridge import EdgeLabel
from repro.ham.delta import Delta
from repro.ham.store import HAMStore
from repro.ham.views import MaterializedView, ViewManager, is_monotone_program

REACH = parse_graphical_query(
    """
    define (X) -[reach]-> (Y) {
        (X) -[link+]-> (Y);
    }
    """
)

NONMONO = parse_graphical_query(
    """
    define (X) -[blocked]-> (Y) {
        (X) -[link]-> (Y);
        (X) -[~fast]-> (Y);
    }
    """
)


class TestMonotonicity:
    def test_positive_program_monotone(self):
        assert is_monotone_program(translate(REACH))

    def test_negation_not_monotone(self):
        assert not is_monotone_program(translate(NONMONO))


TC = parse_program(
    """
    tc(X, Y) :- e(X, Y).
    tc(X, Y) :- e(X, Z), tc(Z, Y).
    """
)


def _naive(program, facts):
    return Engine("naive").evaluate(program, Database.from_facts(facts))


class TestInsertOnlyMaintenance:
    """Insert-only deltas through the one maintenance path
    (``MaintenancePlan.maintain`` / ``MaterializedView.apply_delta``),
    against from-scratch naive evaluation."""

    def _maintained(self, program, facts, inserts):
        plan, database, counts = evaluate_with_counts(
            program, Database.from_facts(facts)
        )
        plan.maintain(database, delta_plus=inserts, counts=counts)
        return database

    def test_matches_recompute_simple(self):
        updated = self._maintained(
            TC, {"e": [("a", "b"), ("b", "c")]}, {"e": [("c", "d")]}
        )
        full = _naive(TC, {"e": [("a", "b"), ("b", "c"), ("c", "d")]})
        assert updated.to_dict() == full.to_dict()

    def test_bridging_edge_connects_components(self):
        updated = self._maintained(
            TC,
            {"e": [("a1", "a2"), ("a2", "a3"), ("b1", "b2"), ("b2", "b3")]},
            {"e": [("a3", "b1")]},
        )
        assert ("a1", "b3") in updated.facts("tc")

    def test_multi_stratum_like_chain_of_idbs(self):
        program = parse_program(
            """
            hop(X, Y) :- e(X, Y).
            two(X, Z) :- hop(X, Y), hop(Y, Z).
            far(X, Y) :- two(X, Y).
            far(X, Y) :- two(X, Z), far(Z, Y).
            """
        )
        edges = [("a", "b"), ("b", "c"), ("c", "d")]
        updated = self._maintained(program, {"e": edges}, {"e": [("d", "e")]})
        full = _naive(program, {"e": edges + [("d", "e")]})
        assert updated.to_dict() == full.to_dict()

    def test_duplicate_insert_noop(self):
        program = parse_program("p(X, Y) :- e(X, Y).")
        facts = {"e": [("a", "b")]}
        plan, database, counts = evaluate_with_counts(
            program, Database.from_facts(facts)
        )
        stats = plan.maintain(database, delta_plus=facts, counts=counts)
        assert stats.facts_inserted == 0
        assert database.to_dict() == _naive(program, facts).to_dict()

    def test_evaluated_edb_not_mutated(self):
        program = parse_program("p(X, Y) :- e(X, Y).")
        edb = Database.from_facts({"e": [("a", "b")]})
        before = edb.to_dict()
        plan, database, counts = evaluate_with_counts(program, edb)
        plan.maintain(database, delta_plus={"e": [("x", "y")]}, counts=counts)
        assert edb.to_dict() == before
        assert ("x", "y") in database.facts("p")

    def test_nonmonotone_insert_retracts_through_negation(self):
        view = MaterializedView("blocked", NONMONO)
        view.refresh_full(
            Database.from_facts({"link": [("a", "b"), ("b", "c")], "fast": [("a", "b")]})
        )
        assert view.answers() == {("b", "c")}
        delta = Delta()
        delta.insert("fast", ("b", "c"))
        view.apply_delta(delta)
        fresh = GraphLogEngine("naive").answers(
            NONMONO,
            Database.from_facts(
                {"link": [("a", "b"), ("b", "c")], "fast": [("a", "b"), ("b", "c")]}
            ),
        )
        assert view.answers() == fresh == set()

    def test_random_differential(self):
        import random

        rng = random.Random(5)
        nodes = [f"n{i}" for i in range(12)]
        edges = []
        edb = Database()
        edb.relation("e", 2)
        plan, database, counts = evaluate_with_counts(TC, edb)
        for step in range(25):
            new = (rng.choice(nodes), rng.choice(nodes))
            if new[0] == new[1]:
                continue
            edges.append(new)
            plan.maintain(database, delta_plus={"e": [new]}, counts=counts)
            assert database.facts("tc") == _naive(TC, {"e": edges}).facts("tc"), step


class TestViewManager:
    def _store(self):
        store = HAMStore()
        db = Database.from_facts({"link": [("a", "b"), ("b", "c")]})
        store.load_database(db)
        return store

    def test_register_evaluates(self):
        manager = ViewManager(self._store())
        manager.register("reach", REACH)
        assert ("a", "c") in manager.answers("reach")

    def test_incremental_on_insert(self):
        store = self._store()
        manager = ViewManager(store)
        view = manager.register("reach", REACH)
        with store.session().transaction() as txn:
            txn.add_edge("c", "d", EdgeLabel("link"))
        assert ("a", "d") in manager.answers("reach")
        assert view.incremental_updates == 1
        assert view.full_refreshes == 1  # the initial one

    def test_delete_maintained_incrementally(self):
        store = self._store()
        manager = ViewManager(store)
        view = manager.register("reach", REACH)
        with store.session().transaction() as txn:
            txn.remove_edge("b", "c", EdgeLabel("link"))
        assert ("a", "c") not in manager.answers("reach")
        assert ("a", "b") in manager.answers("reach")
        assert view.full_refreshes == 1  # only the initial one
        assert view.incremental_updates == 1
        assert view.overdeleted > 0

    def test_nonmonotone_view_maintained_incrementally(self):
        store = self._store()
        db = Database.from_facts({"fast": [("a", "b")]})
        store.load_database(db)
        manager = ViewManager(store)
        view = manager.register("blocked", NONMONO)
        assert manager.answers("blocked") == {("b", "c")}
        with store.session().transaction() as txn:
            txn.add_edge("c", "d", EdgeLabel("link"))
        assert ("c", "d") in manager.answers("blocked")
        # A new fast edge must *retract* the blocked answer, through the
        # negated literal, without a full refresh.
        with store.session().transaction() as txn:
            txn.add_edge("c", "d", EdgeLabel("fast"))
        assert ("c", "d") not in manager.answers("blocked")
        assert view.full_refreshes == 1
        assert view.incremental_updates == 2

    def test_relabel_maintained_incrementally(self):
        store = self._store()
        manager = ViewManager(store)
        manager.register(
            "marked",
            parse_graphical_query(
                "define (X) -[marked]-> (Y) { (X) -[link]-> (Y); stop(Y); }"
            ),
        )
        assert manager.answers("marked") == set()
        with store.session().transaction() as txn:
            txn.set_node_label("c", "stop")
        assert manager.answers("marked") == {("b", "c")}
        with store.session().transaction() as txn:
            txn.set_node_label("c", None)
        assert manager.answers("marked") == set()

    def test_summary_view_falls_back_to_full_refresh(self):
        # Aggregation/summarization is non-monotone in a way support counts
        # cannot track; such views must refuse maintenance and recompute.
        from repro.core.query_graph import GraphicalQuery

        query = GraphicalQuery()
        graph = query.define("X", "Y", "best", extra=["V"])
        graph.summarize("X", "Y", "hop", "longest", "V")

        store = HAMStore()
        store.load_database(Database.from_facts({"hop": [("a", "b", 3)]}))
        manager = ViewManager(store)
        view = manager.register("best", query)
        assert view.maintainable is False
        assert "not maintainable" in view.fallback_reason
        assert manager.answers("best") == {("a", "b", 3)}
        with store.session().transaction() as txn:
            txn.add_edge("b", "c", EdgeLabel("hop", (2,)))
        assert ("a", "c", 5) in manager.answers("best")
        assert view.full_refreshes == 2
        assert view.incremental_updates == 0

    def test_view_manager_stats_shape(self):
        store = self._store()
        manager = ViewManager(store)
        manager.register("reach", REACH)
        with store.session().transaction() as txn:
            txn.add_edge("c", "d", EdgeLabel("link"))
        stats = manager.stats()
        assert stats["count"] == 1
        assert stats["totals"]["incremental_updates"] == 1
        assert stats["totals"]["view_maintenance_ms"] >= 0
        assert stats["views"]["reach"]["maintainable"] is True

    def test_star_view_sees_new_nodes(self):
        store = self._store()
        manager = ViewManager(store)
        manager.register(
            "reach0",
            parse_graphical_query(
                "define (X) -[reach0]-> (Y) { (X) -[link*]-> (Y); }"
            ),
        )
        with store.session().transaction() as txn:
            txn.add_node("z")
            txn.add_edge("c", "z", EdgeLabel("link"))
        answers = manager.answers("reach0")
        assert ("z", "z") in answers
        assert ("a", "z") in answers

    def test_matches_fresh_evaluation_after_many_commits(self):
        store = self._store()
        manager = ViewManager(store)
        manager.register("reach", REACH)
        for edge in [("c", "d"), ("d", "e"), ("x", "y"), ("e", "a")]:
            with store.session().transaction() as txn:
                txn.add_edge(edge[0], edge[1], EdgeLabel("link"))
        fresh = GraphLogEngine().answers(REACH, store.graph, "reach")
        assert manager.answers("reach") == fresh
