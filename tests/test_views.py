"""Tests for materialized views and incremental maintenance."""

import threading

from repro.core.dsl import parse_graphical_query
from repro.core.engine import GraphLogEngine
from repro.datalog.database import Database
from repro.datalog.dred import MaintenancePlan
from repro.datalog.engine import Engine
from repro.datalog.parser import parse_program
from repro.errors import StoreError
from repro.graphs.bridge import EdgeLabel
from repro.ham.image import StoreImages
from repro.ham.store import HAMStore, TransactionRecord
from repro.ham.views import MaterializedView
from repro.service.prepared import PreparedQuery

REACH = """
    define (X) -[reach]-> (Y) {
        (X) -[link+]-> (Y);
    }
"""

NONMONO = """
    define (X) -[blocked]-> (Y) {
        (X) -[link]-> (Y);
        (X) -[~fast]-> (Y);
    }
"""


def watch(store, text, op="graphlog", **params):
    """A view of *text* over *store*, fed by an ordered commit hook; returns
    ``(view, changes)`` — *changes* collects what each ``apply`` returned."""
    view = MaterializedView(PreparedQuery(op, text), StoreImages(store), params)
    view.refresh()
    changes = []
    store.subscribe(lambda record: changes.append(view.apply(record)))
    return view, changes


def oracle(store, text, predicate):
    """From-scratch naive evaluation over the store's current graph."""
    return GraphLogEngine("naive").answers(
        parse_graphical_query(text), store.graph, predicate
    )


TC = parse_program(
    """
    tc(X, Y) :- e(X, Y).
    tc(X, Y) :- e(X, Z), tc(Z, Y).
    """
)


def _naive(program, facts):
    return Engine("naive").evaluate(program, Database.from_facts(facts))


def _facts(state, program):
    """``{predicate: rows}`` of every predicate *program* mentions."""
    return {p: state.facts(p) for p in program.predicates}


class TestInsertOnlyMaintenance:
    """Insert-only deltas through the one maintenance path
    (``MaintenancePlan.maintain``, which ``MaterializedView.apply`` runs),
    against from-scratch naive evaluation."""

    def _maintained(self, program, facts, inserts):
        plan = MaintenancePlan(program)
        state = plan.evaluate(Database.from_facts(facts))
        plan.maintain(state, delta_plus=inserts)
        return state

    def test_matches_recompute_simple(self):
        updated = self._maintained(
            TC, {"e": [("a", "b"), ("b", "c")]}, {"e": [("c", "d")]}
        )
        full = _naive(TC, {"e": [("a", "b"), ("b", "c"), ("c", "d")]})
        assert _facts(updated, TC) == _facts(full, TC)

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
        assert _facts(updated, program) == _facts(full, program)

    def test_duplicate_insert_noop(self):
        program = parse_program("p(X, Y) :- e(X, Y).")
        facts = {"e": [("a", "b")]}
        plan = MaintenancePlan(program)
        state = plan.evaluate(Database.from_facts(facts))
        stats = plan.maintain(state, delta_plus=facts)
        assert stats.facts_inserted == 0
        assert _facts(state, program) == _facts(_naive(program, facts), program)

    def test_evaluated_edb_not_mutated(self):
        program = parse_program("p(X, Y) :- e(X, Y).")
        edb = Database.from_facts({"e": [("a", "b")]})
        before = edb.to_dict()
        plan = MaintenancePlan(program)
        state = plan.evaluate(edb)
        plan.maintain(state, delta_plus={"e": [("x", "y")]})
        assert edb.to_dict() == before
        assert ("x", "y") in state.facts("p")

    def test_nonmonotone_insert_retracts_through_negation(self):
        store = HAMStore()
        store.load_database(
            Database.from_facts({"link": [("a", "b"), ("b", "c")], "fast": [("a", "b")]})
        )
        view, changes = watch(store, NONMONO)
        assert view.rows("blocked") == {("b", "c")}
        with store.session().transaction() as txn:
            txn.add_edge("b", "c", EdgeLabel("fast"))
        assert changes == [({}, {"blocked": {("b", "c")}})]
        assert view.rows("blocked") == oracle(store, NONMONO, "blocked") == set()

    def test_random_differential(self):
        import random

        rng = random.Random(5)
        nodes = [f"n{i}" for i in range(12)]
        edges = []
        edb = Database()
        edb.relation("e", 2)
        plan = MaintenancePlan(TC)
        state = plan.evaluate(edb)
        for step in range(25):
            new = (rng.choice(nodes), rng.choice(nodes))
            if new[0] == new[1]:
                continue
            edges.append(new)
            plan.maintain(state, delta_plus={"e": [new]})
            assert state.facts("tc") == _naive(TC, {"e": edges}).facts("tc"), step


class TestStoreLevelView:
    """A caller-held view fed by ``store.subscribe`` (what ``ViewManager``
    wrapped): the same cases, against the one view class."""

    def _store(self):
        store = HAMStore()
        db = Database.from_facts({"link": [("a", "b"), ("b", "c")]})
        store.load_database(db)
        return store

    def test_refresh_evaluates(self):
        view, _ = watch(self._store(), REACH)
        assert view.mode == "maintained"
        assert ("a", "c") in view.rows("reach")
        assert view.snapshot() == {"reach": view.rows("reach")}

    def test_incremental_on_insert(self):
        store = self._store()
        view, changes = watch(store, REACH)
        with store.session().transaction() as txn:
            txn.add_edge("c", "d", EdgeLabel("link"))
        assert ("a", "d") in view.rows("reach")
        assert changes == [({"reach": {("a", "d"), ("b", "d"), ("c", "d")}}, {})]
        assert view.maintenance_passes == 1
        assert view.version == store.version

    def test_delete_maintained_incrementally(self):
        store = self._store()
        view, changes = watch(store, REACH)
        with store.session().transaction() as txn:
            txn.remove_edge("b", "c", EdgeLabel("link"))
        assert view.rows("reach") == {("a", "b")}
        assert changes == [({}, {"reach": {("a", "c"), ("b", "c")}})]
        assert view.maintenance_passes == 1 and view.maintenance_errors == 0

    def test_nonmonotone_view_maintained_incrementally(self):
        store = self._store()
        db = Database.from_facts({"fast": [("a", "b")]})
        store.load_database(db)
        view, _ = watch(store, NONMONO)
        assert view.rows("blocked") == {("b", "c")}
        with store.session().transaction() as txn:
            txn.add_edge("c", "d", EdgeLabel("link"))
        assert ("c", "d") in view.rows("blocked")
        # A new fast edge must *retract* the blocked answer, through the
        # negated literal, by maintenance alone.
        with store.session().transaction() as txn:
            txn.add_edge("c", "d", EdgeLabel("fast"))
        assert ("c", "d") not in view.rows("blocked")
        assert view.maintenance_passes == 2

    def test_relabel_maintained_incrementally(self):
        store = self._store()
        view, _ = watch(
            store, "define (X) -[marked]-> (Y) { (X) -[link]-> (Y); stop(Y); }"
        )
        assert view.rows("marked") == set()
        with store.session().transaction() as txn:
            txn.set_node_label("c", "stop")
        assert view.rows("marked") == {("b", "c")}
        with store.session().transaction() as txn:
            txn.set_node_label("c", None)
        assert view.rows("marked") == set()

    def test_summary_view_recomputes_and_diffs(self):
        # Aggregation/summarization is non-monotone in a way DRed cannot
        # track; such views re-evaluate and report the set difference.
        store = HAMStore()
        store.load_database(Database.from_facts({"hop": [("a", "b", 3)]}))
        view, changes = watch(
            store, "define (X) -[best(V)]-> (Y) { (X) -[hop @ longest V]-> (Y); }"
        )
        assert view.mode == "diff"
        assert "not maintainable" in view.fallback_reason
        assert view.rows("best") == {("a", "b", 3)}
        with store.session().transaction() as txn:
            txn.add_edge("b", "c", EdgeLabel("hop", (2,)))
        assert changes == [({"best": {("b", "c", 2), ("a", "c", 5)}}, {})]
        assert view.diff_refreshes == 2  # the initial one and the commit's
        assert view.maintenance_passes == 0

    def test_summary_view_skips_commits_its_footprint_misses(self):
        store = HAMStore()
        store.load_database(Database.from_facts({"hop": [("a", "b", 3)]}))
        view, changes = watch(
            store, "define (X) -[best(V)]-> (Y) { (X) -[hop @ longest V]-> (Y); }"
        )
        with store.session().transaction() as txn:
            txn.add_edge("b", "c", EdgeLabel("link"))
        assert view.version == store.version
        assert (view.diff_refreshes, changes) == (1, [None])
        assert view.rows("best") == {("a", "b", 3)}

    def test_datalog_view_reads_the_raw_edb(self):
        store = self._store()
        view, _ = watch(
            store, "tc(X, Y) :- link(X, Y). tc(X, Y) :- link(X, Z), tc(Z, Y).",
            op="datalog", predicate="tc",
        )
        with store.session().transaction() as txn:
            txn.add_edge("c", "a", EdgeLabel("link"))
        assert view.rows("tc") == {(x, y) for x in "abc" for y in "abc"}
        assert "node" not in view.state.relations

    def test_stats_shape(self):
        store = self._store()
        view, _ = watch(store, REACH)
        with store.session().transaction() as txn:
            txn.add_edge("c", "d", EdgeLabel("link"))
        assert view.stats() == {
            "mode": "maintained",
            "fallback_reason": None,
            "version": store.version,
            "rows": 6,
            "predicates": ["reach"],
            "seeds": 0,
            "maintenance_passes": 1,
            "diff_refreshes": 0,
            "deltas_emitted": 1,
            "skipped_empty": 0,
            "maintenance_errors": 0,
        }

    def test_star_view_sees_new_nodes(self):
        store = self._store()
        view, _ = watch(
            store, "define (X) -[reach0]-> (Y) { (X) -[link*]-> (Y); }"
        )
        with store.session().transaction() as txn:
            txn.add_node("z")
            txn.add_edge("c", "z", EdgeLabel("link"))
        answers = view.rows("reach0")
        assert ("z", "z") in answers
        assert ("a", "z") in answers

    def test_a_node_label_named_like_the_domain_leaves_it_alone(self):
        # Dropping the label `node` from c deletes the fact node(c), but c
        # stays in the active domain — so in the domain relation, and (c, c)
        # in the answer — while it has an edge.
        store = self._store()
        query = "define (X) -[reach0]-> (Y) { (X) -[link*]-> (Y); }"
        view, _ = watch(store, query)
        for label in ("node", None):
            with store.session().transaction() as txn:
                txn.set_node_label("c", label)
            assert view.rows("reach0") == oracle(store, query, "reach0")
            assert ("c", "c") in view.rows("reach0")

    def test_matches_fresh_evaluation_after_many_commits(self):
        store = self._store()
        view, _ = watch(store, REACH)
        for edge in [("c", "d"), ("d", "e"), ("x", "y"), ("e", "a")]:
            with store.session().transaction() as txn:
                txn.add_edge(edge[0], edge[1], EdgeLabel("link"))
        assert view.rows("reach") == oracle(store, REACH, "reach")

    def test_a_replicated_record_is_maintained_with_the_delta_it_derives(self):
        # A replicated record that arrives without a typed delta (as the
        # wire decodes it) is staged like a local commit: the replica
        # derives the delta, and the view maintains it in one pass.
        primary, replica = self._store(), HAMStore()
        for record in primary.history():
            replica.apply_replicated(record)
        view, changes = watch(replica, REACH)
        with primary.session().transaction() as txn:
            txn.remove_edge("a", "b", EdgeLabel("link"))
        (record,) = primary.records_since(replica.version)
        replica.apply_replicated(
            TransactionRecord(
                record.txn_id, record.session_id, record.operations, record.version
            )
        )
        assert changes == [({}, {"reach": {("a", "b"), ("a", "c")}})]
        assert view.rows("reach") == oracle(replica, REACH, "reach") == {("b", "c")}
        assert view.maintenance_passes == 1

    def test_failed_maintenance_pass_still_reports_the_exact_change(self, monkeypatch):
        store = self._store()
        view, changes = watch(store, REACH)
        maintain = view.maintenance.maintain

        def half_done(state, **kwargs):
            maintain(state, **kwargs)  # the state is already updated ...
            raise RuntimeError("boom")  # ... when the pass fails

        monkeypatch.setattr(view.maintenance, "maintain", half_done)
        with store.session().transaction() as txn:
            txn.add_edge("c", "d", EdgeLabel("link"))
        monkeypatch.undo()
        assert view.maintenance_errors == 1
        assert changes == [({"reach": {("a", "d"), ("b", "d"), ("c", "d")}}, {})]
        with store.session().transaction() as txn:
            txn.remove_edge("a", "b", EdgeLabel("link"))
        assert view.rows("reach") == oracle(store, REACH, "reach")
        assert store.stats()["subscriber_failures"] == 0

    def test_failed_pass_with_the_previous_version_gone_resets_the_view(
        self, monkeypatch
    ):
        # No retained version to restore the old answer from: the view
        # re-materializes at the record's version and says so, once.
        store = self._store()
        view, changes = watch(store, REACH)

        def gone(version):  # the re-materialization at record.version - 1 raises
            raise StoreError(f"version {version} predates the retained history")

        def boom(state, **kwargs):
            raise RuntimeError("boom")

        monkeypatch.setattr(view.maintenance, "maintain", boom)
        monkeypatch.setattr(store, "graph_at", gone)
        with store.session().transaction() as txn:
            txn.add_edge("c", "d", EdgeLabel("link"))
        monkeypatch.undo()
        assert changes == [] and store.stats()["subscriber_failures"] == 1
        assert view.version == store.version and view.maintenance_errors == 1
        with store.session().transaction() as txn:
            txn.remove_edge("a", "b", EdgeLabel("link"))
        assert changes == [({}, {"reach": {("a", "b"), ("a", "c"), ("a", "d")}})]
        assert view.rows("reach") == oracle(store, REACH, "reach")


class TestOrderedDelivery:
    """The view has no reordering of its own: it relies on the store
    delivering records in version order (the reproduction of ISSUE 20)."""

    def test_insert_then_delete_with_the_first_hook_held_back(self):
        store = HAMStore()
        store.load_database(Database.from_facts({"link": [("a", "b")]}))
        held, release = threading.Event(), threading.Event()

        @store.subscribe  # before the view's hook, so it holds that too
        def hold_version_2(record):
            if record.version == 2:
                held.set()
                assert release.wait(10)

        view, _ = watch(store, REACH)

        def insert():
            with store.session().transaction() as txn:
                txn.add_edge("b", "c", EdgeLabel("link"))

        def delete():
            with store.session().transaction() as txn:
                txn.remove_edge("b", "c", EdgeLabel("link"))

        first = threading.Thread(target=insert)
        first.start()
        assert held.wait(10)  # version 2 is installed, its hooks are held
        second = threading.Thread(target=delete)
        second.start()
        assert store.wait_for_version(3, timeout=10)
        second.join(0.2)
        assert second.is_alive()  # version 3 waits its turn
        release.set()
        first.join(10)
        second.join(10)
        assert not first.is_alive() and not second.is_alive()
        assert view.version == 3
        assert view.rows("reach") == oracle(store, REACH, "reach") == {("a", "b")}


class TestCatalogLifetime:
    """A maintained view keeps the catalog it materialized over and interns
    delta values into it; it sheds that catalog by the image's own rule."""

    def _store(self):
        store = HAMStore()
        store.load_database(Database.from_facts({"link": [("a", "b")]}))
        return store

    @staticmethod
    def _step(store, i, images=None):
        """Link ``a`` to a never-seen name and drop the previous one; with
        *images*, a reader then folds the image up to the new version."""
        with store.session().transaction() as txn:
            txn.add_edge("a", f"x{i}", EdgeLabel("link"))
            if i:
                txn.remove_edge("a", f"x{i - 1}", EdgeLabel("link"))
        if images is not None:
            images.at(*store.snapshot_versioned())

    @staticmethod
    def _view(store, images):
        view = MaterializedView(PreparedQuery("graphlog", REACH), images)
        view.refresh()
        store.subscribe(view.apply)
        return view

    def test_view_outlives_the_images_catalog_bloat_rebuild(self):
        store = self._store()
        images = StoreImages(store)
        for i in range(40):  # the image folds 39 dead names before the view
            self._step(store, i, images)
        view = self._view(store, images)
        catalog = view.state.catalog
        i = 40
        while not images.fallbacks["catalog_bloat"]:
            self._step(store, i, images)
            i += 1
        image = images.at(*store.snapshot_versioned())
        assert image.catalog is not catalog and view.state.catalog is catalog
        for j in range(i, i + 5):
            self._step(store, j, images)
            assert view.rows("reach") == oracle(store, REACH, "reach")
        assert view.maintenance_errors == 0

    def test_view_outlives_an_image_reset(self):
        store = self._store()
        images = StoreImages(store)
        view = self._view(store, images)
        catalog = view.state.catalog
        images.reset("rebootstrap")
        for i in range(5):
            self._step(store, i, images)
            assert view.rows("reach") == oracle(store, REACH, "reach")
        assert images.at(*store.snapshot_versioned()).catalog is not catalog
        assert view.state.catalog is catalog
        assert view.maintenance_passes == 5 and view.maintenance_errors == 0

    def test_never_repeating_names_shed_the_catalog_by_the_image_rule(self):
        from repro.ham.image import _CATALOG_SLACK

        store = self._store()
        view = self._view(store, StoreImages(store))
        catalogs = [view.state.catalog]
        largest = 0
        for i in range(800):
            self._step(store, i)
            largest = max(largest, len(view.state.catalog))
            if view.state.catalog is not catalogs[-1]:
                catalogs.append(view.state.catalog)
        # Without shedding the catalog would hold all 800 names; with it a
        # catalog never holds more than the live values, the slack's worth
        # of dead ones and a handful of program constants.
        assert largest <= 2 * _CATALOG_SLACK
        assert len(catalogs) >= 800 // (_CATALOG_SLACK + 8)
        assert view.rows("reach") == oracle(store, REACH, "reach")
        assert view.maintenance_passes == 800 and view.maintenance_errors == 0
