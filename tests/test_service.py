"""Tests for the concurrent query service (repro.service)."""

from __future__ import annotations

import asyncio
import threading
import time
from collections import OrderedDict

import pytest

from repro.datasets.flights import figure1_database
from repro.errors import (
    ProtocolError,
    QueryTimeout,
    ResultTooLarge,
    ServiceError,
    StoreError,
)
from repro.datalog.database import Database
from repro.datalog.engine import Engine
from repro.datalog.parser import parse_program
from repro.graphs.bridge import EdgeLabel, graph_from_database
from repro.ham.store import HAMStore
from repro.rpq.evaluate import RPQEvaluator
from repro.service import cache as cache_module
from repro.service.cache import MISS, PROMOTE, ResultCache, result_key
from repro.service.client import ServiceClient
from repro.service.metrics import MetricsRegistry
from repro.service.prepared import PreparedQuery, PreparedQueryCache, fingerprint, normalize
from repro.service.server import QueryService, ServiceConfig, ServiceServer
from repro.service import protocol
from repro.subs import SubscriptionManager

REACH_QUERY = """
define (C1) -[reach]-> (C2) {
    (C1) <-[from]- (F); (F) -[to]-> (C2);
}
define (C1) -[connected]-> (C2) {
    (C1) -[reach+]-> (C2);
}
"""

CONN_PROGRAM = "conn(X, Y) :- from(F, X), to(F, Y)."

STARRED_QUERY = "define (X) -[near]-> (Y) { (X) -[link*]-> (Y); }"


def flights_store():
    store = HAMStore()
    store.load_graph(graph_from_database(figure1_database()))
    return store


@pytest.fixture(scope="module")
def server():
    """One background server over the Figure 1 flights data, module-wide.

    Tests that mutate the store append fresh edges, which only ever grows
    the reachability relations other tests assert membership in.
    """
    srv = ServiceServer(
        store=flights_store(),
        config=ServiceConfig(port=0, workers=4, timeout=10.0),
    ).start_background()
    yield srv
    srv.stop()


@pytest.fixture
def client(server):
    with ServiceClient(port=server.port) as c:
        yield c


class TestPrepared:
    def test_normalize_collapses_whitespace_and_comments(self):
        a = "conn(X, Y) :- from(F, X), to(F, Y)."
        b = "conn(X, Y) :-\n    from(F, X),  % the flight's origin\n    to(F, Y)."
        assert normalize(a) == normalize(b)
        assert fingerprint("datalog", a) == fingerprint("datalog", b)
        assert fingerprint("datalog", a) != fingerprint("graphlog", a)

    def test_plan_cache_reuses_compiled_plans(self):
        cache = PreparedQueryCache(capacity=8)
        first = cache.get("datalog", CONN_PROGRAM)
        again = cache.get("datalog", "conn(X, Y) :-   from(F, X), to(F, Y).")
        assert again is first
        assert cache.stats() == {
            "size": 1, "capacity": 8, "hits": 1, "misses": 1, "evictions": 0,
        }

    def test_plan_cache_evicts_lru(self):
        cache = PreparedQueryCache(capacity=2)
        cache.get("rpq", "a")
        cache.get("rpq", "b")
        cache.get("rpq", "a")  # refresh a
        cache.get("rpq", "c")  # evicts b
        assert cache.stats()["evictions"] == 1
        cache.get("rpq", "a")
        assert cache.stats()["hits"] == 2

    def test_unsafe_datalog_rejected_at_prepare_time(self):
        from repro.errors import SafetyError

        with pytest.raises(SafetyError):
            PreparedQueryCache().get("datalog", "bad(X, Y) :- from(F, X).")

    def test_graphlog_plan_records_head_and_idb(self):
        plan = PreparedQueryCache().get("graphlog", REACH_QUERY)
        assert plan.head_predicate == "connected"
        assert set(plan.idb_predicates) == {"reach", "connected"}

    def test_rpq_sources_of_one_type_share_a_view(self):
        plan = PreparedQuery("rpq", "link+")
        keys = [plan.view({"source": source}).key for source in ("a", "b", 1, True)]
        assert keys[0] == keys[1] and len(set(keys[1:])) == 3


def no_wait(_version):
    """A worker's ``wait`` where no commit dispatch is in flight."""


class TestResultCache:
    def test_version_stamp_prevents_stale_hits(self):
        cache = ResultCache(capacity=4)
        key = result_key("fp", {})
        cache.put(key, b"answer@1", 1, version=1)
        assert cache.lookup(key, 1).encoded == b"answer@1"
        assert cache.lookup(key, 2, no_wait) is MISS
        assert cache.stats()["hits"] == 1
        assert cache.stats()["misses"] == 1
        # The event loop's lookup (no wait) counts only hits.
        assert cache.lookup(key, 2) is MISS
        assert cache.stats()["misses"] == 1

    def test_params_are_part_of_the_key(self):
        cache = ResultCache(capacity=4)
        cache.put(result_key("fp", {"source": "a"}), b"from-a", 1, version=1)
        assert cache.lookup(result_key("fp", {"source": "b"}), 1) is MISS
        assert cache.lookup(result_key("fp", {"source": "a"}), 1).encoded == b"from-a"

    def test_param_normalization_is_type_tagged(self):
        # str(v) normalization used to collide all three, so a query with
        # limit="1" could be served the answer computed for limit=1.
        keys = {
            result_key("fp", {"limit": 1}),
            result_key("fp", {"limit": "1"}),
            result_key("fp", {"limit": True}),
        }
        assert len(keys) == 3
        assert result_key("fp", {"limit": 1}) == result_key("fp", {"limit": 1})
        assert result_key("fp", {"xs": [1, "1"]}) != result_key("fp", {"xs": ["1", 1]})

    def test_attach_drops_footprintless_entries_on_commit(self):
        store = HAMStore()
        cache = ResultCache(capacity=8)
        hook = SubscriptionManager(store, results=cache)  # the one commit hook
        key = result_key("fp", {})
        cache.put(key, b"old", 1, version=store.version)
        session = store.session()
        with session.transaction() as txn:
            txn.add_edge("a", "b", "x")
        # The commit visits no entry: the stale one goes at its next read.
        assert len(cache) == 1
        assert cache.lookup(key, store.version) is PROMOTE  # the event loop's
        assert len(cache) == 1
        assert cache.lookup(key, store.version, no_wait) is PROMOTE
        assert len(cache) == 0
        assert cache.stats()["invalidations"] == 1
        hook.close()

    def test_commit_missing_the_footprint_restamps_the_entry(self):
        store = HAMStore()
        cache = ResultCache(capacity=8)
        hook = SubscriptionManager(store, results=cache)
        key = result_key("fp", {})
        cache.put(key, b"answer", 1, store.version, footprint=frozenset({"from", "to"}))
        session = store.session()
        with session.transaction() as txn:
            txn.add_edge("a", "b", "unrelated")
        assert cache.lookup(key, store.version).encoded == b"answer"
        assert cache.stats()["delta_reuse_hits"] == 1
        with session.transaction() as txn:
            txn.add_edge("a", "c", "from")
        assert cache.lookup(key, store.version, no_wait) is PROMOTE  # stale: dropped
        assert len(cache) == 0
        hook.close()

    def test_lagging_entry_is_not_restamped(self):
        cache = ResultCache(capacity=8)
        key = result_key("fp", {})
        cache.put(key, b"stale", 1, version=1, footprint=frozenset({"from"}))
        # The entry was stamped at version 1 but the commit lands version 3:
        # some intervening commit was never checked against it, so even a
        # disjoint delta cannot prove it fresh.
        cache.apply_commit(3, frozenset({"other"}))
        assert cache.lookup(key, 3) is PROMOTE

    def test_apply_commit_touches_no_entry(self):
        class Unwalkable(OrderedDict):
            def __iter__(self):
                raise AssertionError("apply_commit walked the entries")

            items = values = keys = __iter__

        cache = ResultCache(capacity=8)
        key = result_key("fp", {})
        cache.put(key, b"answer", 1, version=1, footprint=frozenset({"from"}))
        cache._entries = Unwalkable(cache._entries)
        # Each entry is judged at its lookup instead: current at 2, stale at 3.
        cache.apply_commit(2, frozenset({"other"}))
        assert cache.lookup(key, 2).version == 2
        cache.apply_commit(3, frozenset({"from"}))
        assert cache.lookup(key, 3, no_wait) is PROMOTE
        assert (len(cache), cache.invalidations, cache.delta_reuse_hits) == (0, 1, 1)

    def test_lru_eviction(self):
        cache = ResultCache(capacity=2)
        cache.put(("a", ()), b"1", 1, version=1)
        cache.put(("b", ()), b"2", 1, version=1)
        cache.lookup(("a", ()), 1)
        cache.put(("c", ()), b"3", 1, version=1)
        assert cache.lookup(("b", ()), 1) is MISS
        assert cache.lookup(("a", ()), 1).encoded == b"1"
        assert cache.stats()["evictions"] == 1


TC_PROGRAM = "tc(X, Y) :- link(X, Y).\ntc(X, Z) :- link(X, Y), tc(Y, Z).\n"


def link(service, *edges, remove=False):
    field = "remove_edges" if remove else "edges"
    return service.execute(
        {"op": "update", field: [[a, "link", b] for a, b in edges]}
    )["version"]


def tc_rows(service):
    response = service.execute({"op": "datalog", "query": TC_PROGRAM, "predicate": "tc"})
    return response, {tuple(row) for row in response["result"]["relations"]["tc"]}


def closure_of(edges):
    return Engine("naive").evaluate(
        parse_program(TC_PROGRAM), Database.from_facts({"link": edges})
    ).facts("tc")


class _Sink:
    """A push sink for in-process subscriptions."""

    def notify(self):
        pass


class TestMaintainedEntries:
    """Admission, upkeep and demotion of result-cache entries that pin a
    maintained view (in process; the concurrent paths are in
    tests/test_cross_path.py)."""

    def test_the_first_reread_after_a_drop_promotes_and_later_reads_hit(self):
        service = QueryService(store=HAMStore())
        edges = {("a", "b")}
        link(service, *edges)
        assert tc_rows(service)[0]["cache"] == "miss"
        caches = []
        for new in (("b", "c"), ("c", "d")):
            edges.add(new)
            version = link(service, new)
            response, rows = tc_rows(service)
            assert rows == closure_of(edges) and response["version"] == version
            caches.append(response["cache"])
        # The first re-read promoted (its one evaluation); the second read
        # what the view made of the commit.
        assert caches == ["miss", "hit"]
        stats = service.stats()
        assert stats["metrics"]["phases"]["evaluate"]["count"] == 2
        cached = stats["result_cache"]
        assert (cached["maintained"], cached["promotions"], cached["demotions"]) == (1, 1, 0)
        assert cached["maintained_rows"] == len(edges) + len(closure_of(edges))  # link + tc
        (view,) = service.subs._views_by_key.values()
        assert view.maintenance_passes == 1
        assert stats["subs"]["active_subscriptions"] == 0

    def test_an_unchanged_answer_is_restamped_with_its_bytes(self):
        service = QueryService(store=HAMStore())
        link(service, ("a", "b"), ("b", "a"), ("a", "c"), ("c", "b"))
        tc_rows(service)
        link(service, ("b", "c"))
        tc_rows(service)  # promoted
        (key, entry), = service.results._entries.items()
        version = link(service, ("a", "c"), remove=True)  # a -> b -> c is its detour
        response, rows = tc_rows(service)
        assert response["cache"] == "hit" and response["version"] == version
        assert service.results._entries[key] is entry
        assert service.stats()["result_cache"]["delta_reuse_hits"] == 1

    def test_summary_reads_keep_stamp_and_drop(self):
        store = HAMStore()
        service = QueryService(store=store)
        request = {
            "op": "graphlog",
            "query": "define (X) -[best(V)]-> (Y) { (X) -[hop @ shortest V]-> (Y); }",
        }
        for weight, (a, b) in enumerate((("a", "b"), ("b", "c"), ("c", "d")), 1):
            with store.session().transaction() as txn:
                txn.add_edge(a, b, EdgeLabel("hop", (weight,)))
            assert service.execute(request)["cache"] == "miss"
        assert service.stats()["result_cache"]["maintained"] == 0
        assert not service.subs._views_by_key

    def test_summary_reads_survive_commits_their_footprint_misses(self):
        store = HAMStore()
        service = QueryService(store=store)
        request = {
            "op": "graphlog",
            "query": "define (X) -[best(V)]-> (Y) { (X) -[hop @ shortest V]-> (Y); }",
        }
        with store.session().transaction() as txn:
            txn.add_edge("a", "b", EdgeLabel("hop", (2,)))
        assert service.execute(request)["cache"] == "miss"
        reused = service.stats()["result_cache"]["delta_reuse_hits"]
        link(service, ("a", "b"))
        response = service.execute(request)
        assert (response["cache"], response["version"]) == ("hit", store.version)
        assert response["result"]["relations"]["best"] == [["a", "b", 2]]
        assert service.stats()["result_cache"]["delta_reuse_hits"] == reused + 1
        with store.session().transaction() as txn:
            txn.add_edge("b", "c", EdgeLabel("hop", (3,)))
        response = service.execute(request)
        assert response["cache"] == "miss"
        assert response["result"]["relations"]["best"] == [["a", "b", 2], ["a", "c", 5], ["b", "c", 3]]

    def test_rpq_reads_become_maintained_entries(self):
        store = HAMStore()
        service = QueryService(store=store)
        requests = {
            "link+": {"op": "rpq", "query": "link+", "source": "a"},
            "-link link": {"op": "rpq", "query": "-link link"},
            "link*": {"op": "rpq", "query": "link*", "source": "b"},
        }
        caches = []
        for a, b in (("a", "b"), ("b", "c"), ("c", "d"), ("a", "e")):
            with store.session().transaction() as txn:
                txn.add_edge(a, b, "link")
            evaluator = RPQEvaluator(store.graph)
            for text, request in requests.items():
                response = service.execute(request)
                caches.append(response["cache"])
                rows = {tuple(r) for r in response["result"]["relations"]["answers"]}
                if "source" in request:
                    assert rows == {(t,) for t in evaluator.targets(text, request["source"])}
                else:
                    assert rows == evaluator.pairs(text)
        # A plain miss, the promoting miss, then hits through every commit.
        assert caches == ["miss"] * 6 + ["hit"] * 6
        stats = service.stats()
        assert stats["metrics"]["phases"]["evaluate"]["count"] == 6
        assert (stats["result_cache"]["maintained"], stats["subs"]["shared_views"]) == (3, 3)

    def test_rpq_reads_from_many_sources_pin_one_seeded_view(self):
        store = HAMStore()
        service = QueryService(store=store)
        link(service, ("a", "b"), ("b", "c"), ("p", "q"))
        requests = {s: {"op": "rpq", "query": "link+", "source": s} for s in ("a", "b", "p")}
        self.promote_all(service, list(requests.values()), ["q", "link", "r"])
        fingerprint = service.plans.get("rpq", "link+").fingerprint
        keys = {s: result_key(fingerprint, {"source": s}) for s in requests}
        entries = {s: service.results._entries[key] for s, key in keys.items()}
        link(service, ("c", "d"))  # a and b reach d, p does not
        for source, request in requests.items():
            response = service.execute(request)
            assert response["cache"] == "hit"
            rows = {tuple(r) for r in response["result"]["relations"]["answers"]}
            assert rows == {(t,) for t in RPQEvaluator(store.graph).targets("link+", source)}
            # Re-encoded only where the source's rows changed, else re-stamped.
            assert (service.results._entries[keys[source]] is entries[source]) == (source == "p")
        stats = service.stats()
        (view,) = stats["subs"]["views"].values()
        assert (view["pins"], view["seeds"], view["maintenance_passes"]) == (3, 3, 1)
        assert stats["metrics"]["phases"]["evaluate"]["count"] == 6

    def test_a_seeded_view_keeps_the_seeds_of_its_entries_alone(self):
        service = QueryService(store=HAMStore(), config=ServiceConfig(result_cache_size=3))
        link(service, ("a", "b"), ("b", "c"))
        requests = [{"op": "rpq", "query": "link+", "source": s} for s in "abc"]
        self.promote_all(service, requests, ["c", "link", "d"])
        (view,) = service.subs._views_by_key.values()
        assert len(view.seeds) == 3
        service.execute({"op": "rpq", "query": "link", "source": "a"})  # evicts a's entry
        link(service, ("d", "e"))  # whose pin this commit's hook hands back
        assert view.seeds == {"b", "c"}
        assert view.rows("answers") == {("b", t) for t in "cde"} | {("c", t) for t in "de"}
        response = service.execute(requests[1])
        assert response["cache"] == "hit" and len(response["result"]["relations"]["answers"]) == 3

    def test_store_facts_under_the_seed_relation_are_not_the_views(self):
        store = HAMStore()
        service = QueryService(store=store)
        relation = PreparedQuery("rpq", "link+").view({"source": "a"}).seed_relation
        with store.session().transaction() as txn:
            txn.add_edge("a", "b", "link")
            txn.set_node_label("a", relation)  # the store's own seed fact of a
        request = {"op": "rpq", "query": "link+", "source": "a"}
        service.execute(request)
        link(service, ("b", "c"))
        assert service.execute(request)["cache"] == "miss"  # promoted
        with store.session().transaction() as txn:
            txn.set_node_label("a", None)  # leaves the store, not the view
        response = service.execute(request)
        assert response["cache"] == "hit"
        assert {tuple(r) for r in response["result"]["relations"]["answers"]} == {("b",), ("c",)}

    @pytest.mark.parametrize(
        "labels",
        [
            ["e", EdgeLabel("e", (1,)), "e", "e"],  # e/2 beside e/3: no relational image
            [EdgeLabel("e", (w,)) for w in range(4)],  # λ reads e/2, the store holds e/3
        ],
        ids=["two-arities", "label-arguments"],
    )
    def test_an_rpq_whose_view_the_store_rules_out_is_demoted_once(self, labels, monkeypatch):
        store = HAMStore()
        service = QueryService(store=store)
        evaluations = []
        evaluate = PreparedQuery.evaluate

        def counted(plan, *args):
            evaluations.append(plan.op)
            return evaluate(plan, *args)

        monkeypatch.setattr(PreparedQuery, "evaluate", counted)
        request = {"op": "rpq", "query": "e+", "source": "a"}
        caches = []
        for (a, b), label in zip((("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")), labels):
            with store.session().transaction() as txn:
                txn.add_edge(a, b, label)
            response = service.execute(request)
            caches.append(response["cache"])
            rows = {tuple(r) for r in response["result"]["relations"]["answers"]}
            assert rows == {(t,) for t in RPQEvaluator(store.graph).targets("e+", "a")}
        # The second read would promote; its view, materialized, finds the
        # store's relations are not the program's and diffs: that one
        # evaluation answers as a plain entry, and the key is never promoted
        # again.
        assert caches == ["miss"] * 4 and evaluations == ["rpq"] * 4
        cached = service.stats()["result_cache"]
        assert (cached["promotions"], cached["demotions"], cached["maintained"]) == (0, 1, 0)
        assert not service.subs._views_by_key

    @staticmethod
    def promote_all(service, requests, *edges):
        """Read every request, commit *edges* (``[source, label, target]``),
        read every request again (the promoting misses); returns the re-read
        responses."""
        for request in requests:
            service.execute(request)
        service.execute({"op": "update", "edges": list(edges)})
        return [service.execute(request) for request in requests]

    def test_renamed_copies_of_a_program_share_one_view(self):
        service = QueryService(store=HAMStore())
        link(service, ("a", "b"), ("b", "c"))
        names = ["connected0", "connected1"]
        requests = [
            {"op": "graphlog", "query": f"define (X) -[{n}]-> (Y) {{ (X) -[link+]-> (Y); }}"}
            for n in names
        ]
        edges = {("a", "b"), ("b", "c"), ("c", "d")}
        self.promote_all(service, requests, ["c", "link", "d"])
        for new in (("d", "e"), ("a", "b")):
            link(service, new, remove=new in edges)
            edges ^= {new}
            for name, request in zip(names, requests):
                response = service.execute(request)
                assert response["cache"] == "hit"
                assert set(response["result"]["relations"]) == {name}
                rows = {tuple(r) for r in response["result"]["relations"][name]}
                assert rows == closure_of(edges)
        stats = service.stats()
        (view,) = stats["subs"]["views"].values()
        assert (stats["subs"]["shared_views"], view["pins"]) == (1, 2)
        assert view["maintenance_passes"] == 2  # one per commit, not one per entry
        assert stats["result_cache"]["maintained"] == 2

    def test_renamed_copies_share_only_while_the_store_holds_none_of_their_names(self):
        # Each copy reads facts stored under its own head name as base facts
        # of its answer, so a copy whose name the store holds cannot share,
        # and a shared copy whose name a commit brings in is demoted.
        service = QueryService(store=HAMStore())
        edges = [["a", "link", "b"], ["b", "link", "c"], ["x", "c1", "y"]]
        service.execute({"op": "update", "edges": edges})
        requests = {
            n: {"op": "graphlog", "query": f"define (X) -[{n}]-> (Y) {{ (X) -[link+]-> (Y); }}"}
            for n in ("c0", "c1", "c2")
        }
        self.promote_all(service, list(requests.values()), ["c", "link", "d"])
        stats = service.stats()
        assert sorted(v["pins"] for v in stats["subs"]["views"].values()) == [1, 2]
        closure = {("a", "b"), ("a", "c"), ("a", "d"), ("b", "c"), ("b", "d"), ("c", "d")}

        def rows(name):
            response = service.execute(requests[name])
            return response["cache"], {tuple(r) for r in response["result"]["relations"][name]}

        assert rows("c1") == ("hit", closure | {("x", "y")})
        # c0 materialized the shared view; a c2 fact demotes the c2 entry.
        service.execute({"op": "update", "edges": [["p", "c2", "q"]]})
        assert rows("c0") == ("hit", closure)
        assert rows("c2") == ("miss", closure | {("p", "q")})
        assert service.stats()["result_cache"]["demotions"] == 1

    def test_a_renamed_entry_reads_a_subscriptions_view(self):
        service = QueryService(store=HAMStore())
        link(service, ("a", "b"))
        query = "define (X) -[{}]-> (Y) {{ (X) -[link+]-> (Y); }}"
        service.execute({"op": "subscribe", "query": query.format("watched")}, sink=_Sink())
        request = {"op": "graphlog", "query": query.format("read")}
        self.promote_all(service, [request], ["b", "link", "c"])
        link(service, ("c", "d"))
        response = service.execute(request)
        assert response["cache"] == "hit"
        assert len(response["result"]["relations"]["read"]) == 6
        (view,) = service.stats()["subs"]["views"].values()
        assert (view["subscribers"], view["pins"], view["maintenance_passes"]) == (1, 1, 2)

    def test_near_miss_copies_do_not_share(self):
        service = QueryService(store=HAMStore())
        link(service, ("a", "b"), ("b", "c"))
        service.execute({"op": "update", "edges": [["a", "road", "c"]]})
        requests = [
            {"op": "graphlog", "query": "define (X) -[c0]-> (Y) { (X) -[link+]-> (Y); }"},
            {"op": "graphlog", "query": "define (X) -[c1]-> (Y) { (X) -[road+]-> (Y); }"},
            {"op": "rpq", "query": "link+", "source": "a"},
            {"op": "rpq", "query": "link+", "source": "b"},
        ]
        responses = self.promote_all(service, requests, ["c", "link", "d"], ["c", "road", "d"])
        relations = [r["result"]["relations"] for r in responses]
        assert {tuple(r) for r in relations[1]["c1"]} == {("a", "c"), ("a", "d"), ("c", "d")}
        assert [len(r["answers"]) for r in relations[2:]] == [3, 2]
        # The two closures differ in a base label; the RPQs only in their
        # source, which is a seed of their one view.
        stats = service.stats()
        assert stats["subs"]["shared_views"] == 3
        assert sorted(v["pins"] for v in stats["subs"]["views"].values()) == [1, 1, 2]

    def test_entries_pinning_one_view_hold_its_rows_once(self, monkeypatch):
        service = QueryService(store=HAMStore())
        requests = [
            {"op": "graphlog", "query": f"define (X) -[c{i}]-> (Y) {{ (X) -[link+]-> (Y); }}"}
            for i in range(4)
        ]
        link(service, ("a", "b"), ("b", "c"))
        # 3 link + 3 domain + 6 closure rows (and the closure's two-row
        # relations), held once: four copies would be far over this budget.
        monkeypatch.setattr(cache_module, "MAINTAINED_ROW_BUDGET", 20)
        self.promote_all(service, requests, ["c", "link", "d"])
        (view,) = service.subs._views_by_key.values()
        cached = service.stats()["result_cache"]
        assert (cached["maintained"], cached["evictions"]) == (4, 0)
        assert cached["maintained_rows"] == view.held_rows() <= 20
        assert service.stats()["subs"]["views"].popitem()[1]["pins"] == 4

    def test_a_pass_costlier_than_the_view_demotes_for_good(self):
        # x_i -> u -> v -> y_j, and x_i -> w -> y_j beside it: deleting u -> v
        # overdeletes every (x_i, y_j) and rederives them all — more rows
        # than the view holds.
        m = 12
        xs, ys = [f"x{i}" for i in range(m)], [f"y{j}" for j in range(m)]
        edges = {("u", "v"), ("q", "r")} | {(x, "u") for x in xs} | {(x, "w") for x in xs}
        edges |= {("v", y) for y in ys} | {("w", y) for y in ys}
        service = QueryService(store=HAMStore())
        link(service, *edges - {("q", "r")})
        tc_rows(service)
        link(service, ("q", "r"))
        tc_rows(service)  # promoted
        link(service, ("u", "v"), remove=True)
        edges.discard(("u", "v"))
        assert not service.subs._views_by_key  # unpinned, and nothing else held it
        cached = service.stats()["result_cache"]
        assert (cached["maintained"], cached["promotions"], cached["demotions"]) == (0, 1, 1)
        for new in (("q", "s"), ("s", "t")):
            edges.add(new)
            link(service, new)
            response, rows = tc_rows(service)
            assert response["cache"] == "miss" and rows == closure_of(edges)
        assert service.stats()["result_cache"]["promotions"] == 1

    def test_a_join_row_losing_one_of_two_derivations_stays_maintained(self):
        # two(a, c) is derived through b and through x: losing a -> b
        # overdeletes it and rederives it through x — churn 2, no net change.
        program = "two(X, Z) :- link(X, Y), link(Y, Z)."
        request = {"op": "datalog", "query": program, "predicate": "two"}
        edges = {("a", "b"), ("b", "c"), ("a", "x")}
        service = QueryService(store=HAMStore())
        link(service, *edges)
        service.execute(request)
        edges.add(("x", "c"))
        link(service, ("x", "c"))
        assert service.execute(request)["cache"] == "miss"  # promoted
        link(service, ("a", "b"), remove=True)
        edges.discard(("a", "b"))
        (view,) = service.subs._views_by_key.values()
        assert view.churn == 2
        response = service.execute(request)
        assert response["cache"] == "hit"
        expected = Engine("naive").evaluate(
            parse_program(program), Database.from_facts({"link": edges})
        )
        rows = {tuple(r) for r in response["result"]["relations"]["two"]}
        assert rows == expected.facts("two") == {("a", "c")}
        cached = service.stats()["result_cache"]
        assert (cached["maintained"], cached["promotions"], cached["demotions"]) == (1, 1, 0)

    def test_the_row_budget_evicts_the_least_recently_used(self, monkeypatch):
        monkeypatch.setattr(cache_module, "MAINTAINED_ROW_BUDGET", 10)
        service = QueryService(store=HAMStore())
        reach = {"op": "graphlog", "query": "define (X) -[r]-> (Y) { (X) -[link+]-> (Y); }"}
        link(service, ("a", "b"), ("b", "c"))
        tc_rows(service)
        service.execute(reach)
        link(service, ("c", "d"))
        tc_rows(service)  # promoted: 3 link + 6 tc rows
        service.execute(reach)  # promoted: 3 + 6 + 6 more, over the budget
        cached = service.stats()["result_cache"]
        assert (cached["maintained"], cached["promotions"], cached["evictions"]) == (1, 2, 1)
        (view,) = service.subs._views_by_key.values()
        assert view.plan.op == "graphlog"
        link(service, ("d", "e"))
        assert tc_rows(service)[0]["cache"] == "miss"
        assert service.execute(reach)["cache"] == "hit"

    def test_metrics_export_the_maintained_entries(self):
        service = QueryService(store=HAMStore())
        link(service, ("a", "b"))
        tc_rows(service)
        link(service, ("b", "c"))
        tc_rows(service)
        lines = service.prometheus_text().splitlines()
        for line in (
            "repro_result_cache_maintained 1",
            "repro_result_cache_maintained_rows 5",
            "repro_result_cache_promotions_total 1",
            "repro_result_cache_demotions_total 0",
        ):
            assert line in lines, line


class SlowQueryService(QueryService):
    """A service whose requests can be stalled via a ``slow`` field — on the
    worker that runs them, never on the event loop's resident attempt."""

    def execute(self, message, **kwargs):
        delay = message.get("slow")
        if delay and not kwargs.get("resident"):
            time.sleep(delay)
        return super().execute(message, **kwargs)


@pytest.fixture
def slow_server():
    srv = ServiceServer(
        service=SlowQueryService(store=flights_store()),
        config=ServiceConfig(port=0, workers=1, timeout=10.0),
    ).start_background()
    yield srv
    srv.stop()


class TestMetrics:
    def test_snapshot_shape(self):
        registry = MetricsRegistry()
        registry.request_started()
        registry.request_started()
        registry.request_completed("rpq", 0.002)
        snap = registry.snapshot()
        assert snap["counters"]["requests.rpq"] == 1
        assert snap["in_flight"] == 1
        assert snap["latency"]["rpq"]["count"] == 1
        assert snap["latency"]["rpq"]["p50_ms"] == pytest.approx(2.0)
        registry.request_completed("rpq", 0.002)
        assert registry.in_flight == 0

    def test_in_flight_gauge_clamps_at_zero(self):
        registry = MetricsRegistry()
        registry.request_completed("rpq", 0.001)
        assert registry.in_flight == 0
        assert registry.counter("gauge.in_flight_clamped") == 1

    def test_phase_breakdown_in_snapshot(self):
        registry = MetricsRegistry()
        registry.observe_phase("evaluate", 0.004)
        registry.observe_phase("evaluate", 0.006)
        phases = registry.snapshot()["phases"]
        assert phases["evaluate"]["count"] == 2
        assert phases["evaluate"]["total_ms"] == pytest.approx(10.0)
        assert phases["evaluate"]["p95_ms"] == pytest.approx(6.0)


class TestProtocol:
    def test_decode_rejects_bad_requests(self):
        with pytest.raises(ProtocolError):
            protocol.decode_request(b"not json\n")
        with pytest.raises(ProtocolError):
            protocol.decode_request(b"[1, 2]\n")
        with pytest.raises(ProtocolError):
            protocol.decode_request(b'{"op": "no-such-op"}\n')

    def test_error_roundtrip(self):
        response = protocol.error_response(3, QueryTimeout("too slow"))
        with pytest.raises(QueryTimeout):
            protocol.raise_for_error(response)
        response = protocol.error_response(4, ResultTooLarge("too big"))
        with pytest.raises(ResultTooLarge):
            protocol.raise_for_error(response)

    @pytest.mark.parametrize(
        "field,value",
        [
            ("timeout", "5"),
            ("timeout", -1),
            ("timeout", -0.5),
            ("timeout", True),
            ("timeout", float("inf")),
            ("max_rows", "100"),
            ("max_rows", -1),
            ("max_rows", True),
            ("max_rows", 2.5),
            ("max_bytes", "big"),
            ("max_bytes", -10),
            ("max_bytes", False),
        ],
    )
    def test_decode_rejects_bad_budgets(self, field, value):
        """Bad budget fields must fail at decode time as protocol errors —
        they used to flow into asyncio.wait_for and crash as internal."""
        message = {"op": "ping", field: value}
        with pytest.raises(ProtocolError, match=field):
            protocol.decode_request(protocol.encode(message))

    def test_decode_accepts_valid_budgets(self):
        message = {"op": "ping", "timeout": 0, "max_rows": 10, "max_bytes": 1024}
        decoded = protocol.decode_request(protocol.encode(message))
        assert decoded["timeout"] == 0  # timeout=0 means "expire immediately"

    @staticmethod
    def handle(server, message):
        """The response a node's request loop gives one request line."""
        response, _encoded = asyncio.run(server._handle_request(protocol.encode(message)))
        return response

    @pytest.mark.parametrize(
        "payload",
        [
            {"op": "update", "nodes": [{"a": 1}]},
            {"op": "update", "nodes": [["a", ["label"]]]},
            {"op": "update", "edges": [[["a"], "e", "b"]]},
            {"op": "update", "edges": [["a", {"e": 1}, "b"]]},
            {"op": "update", "edges": [["a", "e", {"b": 1}]]},
            {"op": "update", "edges": ["aeb"]},
            {"op": "update", "remove_edges": [["a", ["e"], "b"]]},
            {"op": "update", "remove_nodes": [{"a": 1}]},
            {"op": "update", "remove_nodes": [["a"]]},
            {"op": "update", "nodes": "abc"},
            {"op": "update", "edges": {"a": "b"}},
            {"op": "update", "remove_nodes": "ac"},
            {"op": "update", "remove_edges": "aeb"},
            {"op": "rpq", "query": "e+", "source": {"a": 1}},
            {"op": "rpq", "query": "e+", "source": ["a"]},
            {"op": "explain", "target": "rpq", "query": "e+", "source": ["a"]},
        ],
    )
    def test_a_json_container_where_the_wire_wants_a_value(self, payload):
        store = HAMStore()
        with store.session().transaction() as txn:
            txn.add_edge("a", "b", "e")
            txn.add_edge("b", "c", "e")
        server = ServiceServer(store=store)
        response = self.handle(server, {"id": 3, **payload})
        assert response["error"]["code"] == "protocol_error", response
        assert server.service.metrics.snapshot()["counters"].get("errors.internal", 0) == 0
        assert store.version == 1

    @pytest.mark.parametrize(
        "payload",
        [
            {"op": "update", "remove_nodes": ["nope"]},
            {"op": "update", "edges": [["a", "e", "z"]], "remove_nodes": ["nope"]},
            {"op": "update", "remove_edges": [["a", "e", "nope"]]},
            {"op": "update", "nodes": [["nope", "hub"]], "remove_nodes": ["nope", "nope"]},
        ],
    )
    def test_an_update_naming_what_the_store_lacks_commits_nothing(self, payload):
        """A node or edge the store does not hold fails the commit as a
        typed store error (it used to answer ``KeyError`` and count
        ``errors.internal`` for a missing node)."""
        store = HAMStore()
        with store.session().transaction() as txn:
            txn.add_edge("a", "b", "e")
        graph = store.graph
        server = ServiceServer(store=store)
        response = self.handle(server, {"id": 4, **payload})
        assert response["error"]["kind"] == "TransactionError", response
        assert "not found" in response["error"]["message"]
        assert server.service.metrics.snapshot()["counters"].get("errors.internal", 0) == 0
        assert store.version == 1 and store.graph is graph

    @pytest.mark.parametrize(
        "payload",
        [
            {"op": "slowlog", "limit": "x"},
            {"op": "no-such-op"},
            {"op": "ping", "trace": {"trace_id": 5}},
        ],
    )
    def test_a_protocol_error_echoes_the_request_id(self, payload):
        server = ServiceServer(store=HAMStore())
        for request_id in (12, "r-12", None):
            response = self.handle(server, {"id": request_id, **payload})
            assert response["error"]["code"] == "protocol_error"
            assert response["id"] == request_id


class TestQueryServiceCore:
    """The synchronous core, driven without a network in between."""

    def test_graphlog_result_cache_hit_and_invalidation(self):
        service = QueryService(store=flights_store())
        first = service.execute({"op": "graphlog", "query": REACH_QUERY})
        assert first["cache"] == "miss"
        again = service.execute({"op": "graphlog", "query": REACH_QUERY})
        assert again["cache"] == "hit"
        assert again["result"] == first["result"]

        # A commit whose delta only touches "reach-test" (and the node
        # domain) misses the REACH plan's footprint entirely: the cached
        # answer is re-stamped to the new version and stays servable.
        session = service.store.session()
        with session.transaction() as txn:
            txn.add_edge("washington", "paris", "reach-test")
        after = service.execute({"op": "graphlog", "query": REACH_QUERY})
        assert after["cache"] == "hit"
        assert after["version"] == first["version"] + 1
        assert after["result"] == first["result"]
        assert service.results.stats()["delta_reuse_hits"] >= 1

        # A commit on an edge label the plan actually reads drops the entry.
        with session.transaction() as txn:
            txn.add_edge("f99", "washington", "from")
        final = service.execute({"op": "graphlog", "query": REACH_QUERY})
        assert final["cache"] == "miss"

    def test_a_starred_read_survives_a_commit_that_keeps_the_domain(self):
        # Its zero-step branch reads the `node` domain relation; a commit to
        # an unrelated label between stored values moves no value in or out.
        service = QueryService(store=HAMStore())
        link(service, ("a", "b"), ("b", "c"))
        request = {"op": "graphlog", "query": STARRED_QUERY}
        first = service.execute(request)
        assert first["cache"] == "miss"
        reused = service.stats()["result_cache"]["delta_reuse_hits"]
        version = service.execute({"op": "update", "edges": [["c", "other", "a"]]})["version"]
        again = service.execute(request)
        assert (again["cache"], again["version"]) == ("hit", version)
        assert again["result"] == first["result"]
        assert service.stats()["result_cache"]["delta_reuse_hits"] == reused + 1

    def test_a_starred_read_misses_after_a_commit_that_brings_a_value(self):
        service = QueryService(store=HAMStore())
        link(service, ("a", "b"))
        request = {"op": "graphlog", "query": STARRED_QUERY}
        assert service.execute(request)["cache"] == "miss"
        service.execute({"op": "update", "edges": [["b", "other", "d"]]})
        again = service.execute(request)
        assert again["cache"] == "miss"
        assert ["d", "d"] in again["result"]["relations"]["near"]

    def test_a_sourceless_nullable_rpq_misses_after_an_isolated_node(self):
        # It pairs every graph node with itself, isolated ones too: a node
        # no fact names is no value of the domain, but it is a new node.
        service = QueryService(store=HAMStore())
        link(service, ("a", "b"))
        request = {"op": "rpq", "query": "link*"}
        assert service.execute(request)["cache"] == "miss"
        assert service.execute(request)["cache"] == "hit"
        service.execute({"op": "update", "nodes": ["z"]})
        again = service.execute(request)
        assert again["cache"] == "miss"
        assert ["z", "z"] in again["result"]["relations"]["answers"]

    def test_update_changes_answers_not_stale(self):
        service = QueryService(store=flights_store())
        before = service.execute({"op": "rpq", "query": "hop+"})
        assert before["result"]["relations"]["answers"] == []
        service.execute({"op": "update", "edges": [["toronto", "hop", "ottawa"]]})
        after = service.execute({"op": "rpq", "query": "hop+"})
        assert after["result"]["relations"]["answers"] == [["toronto", "ottawa"]]

    def test_row_budget(self):
        service = QueryService(store=flights_store())
        with pytest.raises(ResultTooLarge):
            service.execute({"op": "graphlog", "query": REACH_QUERY, "max_rows": 2})

    def test_byte_budget_checked_on_cache_hit_too(self):
        service = QueryService(store=flights_store())
        service.execute({"op": "datalog", "query": CONN_PROGRAM})
        with pytest.raises(ResultTooLarge):
            service.execute({"op": "datalog", "query": CONN_PROGRAM, "max_bytes": 10})

    def test_unknown_predicate_param(self):
        service = QueryService(store=flights_store())
        with pytest.raises(ProtocolError):
            service.execute(
                {"op": "graphlog", "query": REACH_QUERY, "predicate": "nope"}
            )


class TestServerOverTheWire:
    def test_ping_and_stats(self, client):
        assert client.ping() is True
        stats = client.stats()
        assert stats["store"]["edges"] >= 32
        assert "plan_cache" in stats and "result_cache" in stats

    def test_graphlog_roundtrip(self, client):
        relations = client.graphlog(REACH_QUERY, predicate="reach")
        assert ("toronto", "ottawa") in relations["reach"]

    def test_datalog_roundtrip(self, client):
        relations = client.datalog(CONN_PROGRAM)
        assert ("montreal", "new-york") in relations["conn"]

    def test_rpq_roundtrip(self, client):
        pairs = client.rpq("-from . to")
        assert ("toronto", "ottawa") in pairs
        targets = client.rpq("(-from . to)+", source="toronto")
        assert ("new-york",) in targets

    def test_parse_error_surfaces_as_service_error(self, client):
        with pytest.raises(ServiceError, match="ParseError"):
            client.datalog("this is not datalog ((")

    def test_timeout_error_path(self, client):
        with pytest.raises(QueryTimeout):
            client.call("graphlog", query=REACH_QUERY, timeout=0)

    def test_row_limit_error_path(self, client):
        with pytest.raises(ResultTooLarge):
            client.graphlog(REACH_QUERY, max_rows=1)

    def test_result_cache_hits_reported_in_stats(self, server, client):
        query = CONN_PROGRAM + "  % stats-marker"
        client.datalog(query)
        response = client.call("datalog", query=query)
        assert response["cache"] == "hit"
        stats = client.stats()
        assert stats["result_cache"]["hits"] > 0
        assert stats["metrics"]["counters"]["result_cache.hits"] > 0

    def test_commit_between_identical_queries_forces_reevaluation(self, client):
        label = "fresh-leg"
        regex = f"{label}+"
        assert client.rpq(regex) == set()
        assert client.call("rpq", query=regex)["cache"] == "hit"
        version = client.update(edges=[["ottawa", label, "montreal"]])
        response = client.call("rpq", query=regex)
        assert response["cache"] == "miss"
        assert response["version"] == version
        assert ("ottawa", "montreal") in {
            tuple(r) for r in response["result"]["relations"]["answers"]
        }

    def test_concurrent_clients(self, server):
        """Four clients hammer one server concurrently; all answers agree."""
        errors = []
        results = []

        def worker(i):
            try:
                with ServiceClient(port=server.port) as c:
                    for _ in range(5):
                        relations = c.datalog(CONN_PROGRAM)
                        results.append(relations["conn"])
                        pairs = c.rpq("-from . to")
                        assert relations["conn"] == pairs
            except Exception as exc:  # noqa: BLE001 - surfaced below
                errors.append((i, exc))

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert not errors
        assert len(results) == 20
        assert all(r == results[0] for r in results)
        with ServiceClient(port=server.port) as c:
            stats = c.stats()
        assert stats["metrics"]["counters"]["requests.datalog"] >= 20

    def test_cli_call_roundtrip(self, server, tmp_path, capsys):
        from repro.cli import main

        program = tmp_path / "q.dl"
        program.write_text(CONN_PROGRAM)
        port = str(server.port)
        assert main(["call", "datalog", str(program), "--port", port]) == 0
        out = capsys.readouterr().out
        assert "conn" in out and "version=" in out
        assert main(["call", "rpq", "-from . to", "--port", port]) == 0
        assert "answers" in capsys.readouterr().out
        assert main(["call", "stats", "--port", port, "--json"]) == 0
        assert "result_cache" in capsys.readouterr().out

    def test_malformed_line_gets_protocol_error(self, server):
        import json
        import socket

        with socket.create_connection(("127.0.0.1", server.port), timeout=10) as sock:
            sock.sendall(b"this is not json\n")
            response = json.loads(sock.makefile("rb").readline())
        assert response["ok"] is False
        assert response["error"]["code"] == "protocol_error"

    def test_bad_budget_rejected_over_the_wire(self, client):
        with pytest.raises(ProtocolError, match="timeout"):
            client.call("ping", timeout="soon")
        with pytest.raises(ProtocolError, match="max_rows"):
            client.call("datalog", query=CONN_PROGRAM, max_rows=-5)
        # The connection survives a protocol_error (no desync: the error
        # response was read and matched normally).
        assert client.ping() is True

    def test_explain_over_the_wire(self, client):
        result = client.explain(REACH_QUERY)
        assert result["count"] > 0
        assert "engine.stratum" in result["text"]
        assert "prepare" in result["phases"]
        trace = result["trace"]
        assert trace["name"] == "explain"
        names = [child["name"] for child in trace["children"]]
        assert names == ["prepare", "evaluate", "encode"]
        stats = client.stats()
        assert stats["traces"]["recorded"] >= 1
        assert "explain.evaluate" in stats["metrics"]["phases"]

    def test_profile_over_the_wire(self, client):
        result = client.profile(CONN_PROGRAM, target="datalog")
        assert "text" not in result
        assert result["relations"] == {"conn": result["count"]}

    def test_queue_wait_phase_measured(self, client):
        client.ping()
        stats = client.stats()
        assert stats["metrics"]["phases"]["queue_wait"]["count"] >= 1

    def test_cli_explain_against_server(self, server, tmp_path, capsys):
        from repro.cli import main

        query = tmp_path / "reach.gl"
        query.write_text(REACH_QUERY)
        code = main(
            ["explain", str(query), "--host", "127.0.0.1", "--port", str(server.port)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "engine.stratum" in out and "phases:" in out
        code = main(
            ["call", "explain", str(query), "--port", str(server.port)]
        )
        assert code == 0
        assert "engine.stratum" in capsys.readouterr().out


class TestClientDesync:
    """A client-side socket timeout must poison the connection: the stale
    response it leaves buffered would otherwise be read by (and attributed
    to) the *next* call."""

    def test_timeout_poisons_the_connection(self, slow_server):
        client = ServiceClient(port=slow_server.port, timeout=0.3)
        try:
            with pytest.raises(ServiceError, match="timed out"):
                client.call("ping", slow=1.5)
            # The follow-up call fails fast instead of reading the stale
            # ping response that the server is still going to send.
            with pytest.raises(ServiceError, match="poisoned"):
                client.ping()
        finally:
            client.close()
        # The server itself is fine; a fresh connection works.
        time.sleep(1.5)
        with ServiceClient(port=slow_server.port, timeout=5.0) as fresh:
            assert fresh.ping() is True

    def test_id_mismatch_detected_before_error_decoding(self):
        """A stale *error* response must not be raised as the current
        call's failure: the id check runs before raise_for_error."""
        import socket as socket_module

        listener = socket_module.socket()
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)
        port = listener.getsockname()[1]
        responses = [
            protocol.encode(protocol.error_response(99, QueryTimeout("stale"))),
        ]

        def serve_one():
            conn, _ = listener.accept()
            conn.recv(65536)
            conn.sendall(responses[0])
            conn.close()

        worker = threading.Thread(target=serve_one)
        worker.start()
        try:
            client = ServiceClient(port=port, timeout=5.0)
            # Without the ordering fix this would raise QueryTimeout — the
            # stale response's error — misattributed to this request.
            with pytest.raises(ServiceError, match="does not match"):
                client.ping()
            with pytest.raises(ServiceError, match="poisoned"):
                client.ping()
        finally:
            worker.join()
            listener.close()


def conn_variant(name):
    """CONN_PROGRAM under another head: a distinct plan and cache key."""
    return CONN_PROGRAM.replace("conn", name)


def timed_call(client, op, **payload):
    started = time.perf_counter()
    response = client.call(op, **payload)
    return response, time.perf_counter() - started


class TestResidentAnswersOnTheLoop:
    """A query whose plan and current answer are both cached is answered on
    the event loop: it needs no free worker and never waits on the store
    lock; everything else still goes to the pool."""

    def test_hits_survive_a_saturated_pool(self, slow_server):
        port = slow_server.port
        with ServiceClient(port=port) as reader, ServiceClient(port=port) as stuck:
            assert reader.call("datalog", query=CONN_PROGRAM)["cache"] == "miss"
            # Times out, and keeps the one worker asleep for ~1.4 s more.
            with pytest.raises(QueryTimeout):
                stuck.call("ping", slow=1.5, timeout=0.1)
            miss = {}

            def send_miss():
                with ServiceClient(port=port) as other:
                    miss["response"], miss["seconds"] = timed_call(
                        other, "datalog", query=conn_variant("queued")
                    )

            sender = threading.Thread(target=send_miss)
            sender.start()
            hit, seconds = timed_call(reader, "datalog", query=CONN_PROGRAM)
            sender.join(timeout=10)
        assert hit["cache"] == "hit"
        assert seconds < 0.05
        # The miss sent at the same moment waited for the worker.
        assert miss["response"]["cache"] == "miss"
        assert miss["seconds"] > 0.5

    def test_timeout_bounds_only_the_wait_for_a_worker(self, client):
        resident = conn_variant("budget0")
        client.call("datalog", query=resident)
        assert client.call("datalog", query=resident, timeout=0)["cache"] == "hit"
        with pytest.raises(QueryTimeout):
            client.call("datalog", query=conn_variant("budget1"), timeout=0)

    def test_the_loop_never_waits_on_the_store_lock(self, server):
        store = server.service.store
        resident = conn_variant("locked0")
        with ServiceClient(port=server.port) as reader, ServiceClient(
            port=server.port
        ) as other:
            reader.call("datalog", query=resident)
            held = threading.Event()
            times = {}

            def hold_lock():  # as a commit does across its WAL append + fsync
                with store._lock:
                    held.set()
                    time.sleep(1.0)
                    times["released"] = time.perf_counter()

            def send_miss():
                other.call("datalog", query=conn_variant("locked1"))
                times["miss_answered"] = time.perf_counter()

            holder = threading.Thread(target=hold_lock)
            holder.start()
            assert held.wait(timeout=5)
            sender = threading.Thread(target=send_miss)
            sender.start()
            hit, seconds = timed_call(reader, "datalog", query=resident)
            sender.join(timeout=10)
            holder.join(timeout=10)
        assert hit["cache"] == "hit"
        assert seconds < 0.05
        assert times["miss_answered"] > times["released"]

    def test_every_query_request_is_counted_once(self):
        srv = ServiceServer(
            store=flights_store(), config=ServiceConfig(port=0, workers=2)
        ).start_background()
        program = conn_variant("counted")
        answers = []  # the cache disposition of every query request
        try:
            with ServiceClient(port=srv.port) as c, ServiceClient(port=srv.port) as w:

                def query(op, **payload):
                    answers.append(c.call(op, query=payload.pop("text"), **payload)["cache"])

                before = c.stats()
                query("datalog", text=program)  # plan miss → worker
                query("datalog", text=program)  # resident → loop
                query("graphlog", text=REACH_QUERY, predicate="reach")  # plan miss
                query("graphlog", text=REACH_QUERY, predicate="connected")  # plan hit, miss
                query("graphlog", text=REACH_QUERY, predicate="connected")  # loop
                query("rpq", text="from+")  # worker
                query("rpq", text="from+")  # loop
                # A commit the plan does not read re-stamps its answer.
                version = w.update(edges=[["a", "unrelated", "b"]])
                query("datalog", text=program, min_version=version)  # reached → loop
                # A version not yet reached: handed to a worker, which waits.
                commit = threading.Timer(
                    0.2, w.update, kwargs={"edges": [["c", "unrelated", "d"]]}
                )
                commit.start()
                query("datalog", text=program, min_version=version + 1)
                commit.join()
                # A commit the plan reads drops the answer: plan hit, miss.
                w.update(edges=[["f900", "from", "toronto"]])
                query("datalog", text=program)
                after = c.stats()
        finally:
            srv.stop()

        def delta(*path):
            def at(doc):
                for key in path:
                    doc = doc.get(key, {}) if isinstance(doc, dict) else doc
                return doc or 0

            return at(after) - at(before)

        requests = len(answers)
        on_loop = 4
        hits = answers.count("hit")
        assert hits in (on_loop, on_loop + 1)  # the min_version wait may miss
        for cache in ("result_cache", "plan_cache"):
            assert delta(cache, "hits") + delta(cache, "misses") == requests
        assert delta("result_cache", "hits") == hits
        counters = ("metrics", "counters")
        assert delta(*counters, "result_cache.hits") == hits
        assert delta(*counters, "result_cache.misses") == requests - hits
        assert sum(delta(*counters, f"requests.{op}") for op in ("datalog", "graphlog", "rpq")) == requests
        assert sum(
            delta("metrics", "latency", op, "count") for op in ("datalog", "graphlog", "rpq")
        ) == requests
        assert delta(*counters, "requests.on_loop") == on_loop
        # queue_wait: every request a worker ran — the workers' queries, the
        # four updates and the second stats call itself.
        assert delta("metrics", "phases", "queue_wait", "count") == requests - on_loop + 3 + 1

    def test_each_lookup_outcome_is_counted_once(self):
        store = HAMStore()
        with store.session().transaction() as txn:
            txn.add_edge("a", "b", "link")
        entered, release = threading.Event(), threading.Event()
        release.set()

        @store.subscribe  # before the service's hook: holds a dispatch at its start
        def gate(_record):
            if not release.is_set():
                entered.set()
                assert release.wait(10)

        srv = ServiceServer(
            store=store, config=ServiceConfig(port=0, workers=2)
        ).start_background()
        answers = []
        try:
            with ServiceClient(port=srv.port) as c, ServiceClient(port=srv.port) as w:

                def query(op, text):
                    answers.append(c.call(op, query=text)["cache"])

                before = c.stats()
                query("datalog", TC_PROGRAM)  # plain miss
                query("datalog", TC_PROGRAM)  # hit on the loop
                w.update(edges=[["b", "link", "c"]])
                query("datalog", TC_PROGRAM)  # promote
                release.clear()
                writer = threading.Thread(target=w.update, kwargs={"edges": [["c", "link", "d"]]})
                writer.start()
                assert entered.wait(10)  # the commit is installed, its dispatch held
                reader = threading.Thread(target=query, args=("datalog", TC_PROGRAM))
                reader.start()
                reader.join(0.2)
                assert reader.is_alive()  # behind: a worker waits for the dispatch
                release.set()
                reader.join(10)
                writer.join(10)
                query("rpq", "link+")  # an RPQ's plain miss
                after = c.stats()
        finally:
            release.set()
            srv.stop()
        assert answers == ["miss", "hit", "miss", "hit", "miss"]

        def delta(*path):
            return after[path[0]][path[1]] - before[path[0]][path[1]]

        for cache in ("result_cache", "plan_cache"):
            assert delta(cache, "hits") + delta(cache, "misses") == len(answers)
        assert delta("result_cache", "hits") == 2
        assert delta("result_cache", "promotions") == 1
        assert after["metrics"]["counters"]["requests.on_loop"] == 1
        assert after["metrics"]["phases"]["evaluate"]["count"] == 3

    def test_a_declined_loop_attempt_counts_nothing(self):
        service = QueryService(store=flights_store())
        try:
            service.execute({"op": "datalog", "query": CONN_PROGRAM})
            untouched = service.stats()
            declined = [
                {"op": "ping"},
                {"op": "datalog", "query": " "},  # invalid: the worker raises it
                {"op": "datalog", "query": conn_variant("unplanned")},
                {"op": "datalog", "query": CONN_PROGRAM, "min_version": 99},
                {"op": "datalog", "query": CONN_PROGRAM, "predicate": "other"},
            ]
            for message in declined:
                assert service.execute(message, wire=True, resident=True) is None
            assert service.stats() == untouched
            hit = service.execute({"op": "datalog", "query": CONN_PROGRAM}, resident=True)
            assert hit["cache"] == "hit"
            assert service.metrics.counter("requests.on_loop") == 1
        finally:
            service.close()

    def test_a_sampled_hit_on_the_loop_is_traced(self):
        srv = ServiceServer(
            store=flights_store(), config=ServiceConfig(port=0, trace_sample=1.0)
        ).start_background()
        try:
            with ServiceClient(port=srv.port) as c:
                c.call("datalog", query=CONN_PROGRAM)
                adopted = {"trace_id": "loop-trace-1", "sampled": True}
                hit = c.call("datalog", query=CONN_PROGRAM, trace=adopted)
                spans = c.call("trace_get", trace_id="loop-trace-1")["result"]["spans"]
                counters = c.stats()["metrics"]["counters"]
        finally:
            srv.stop()
        assert hit["cache"] == "hit"
        assert hit["trace_id"] == "loop-trace-1"
        assert counters["requests.on_loop"] == 1
        root = spans[0]
        assert root["name"] == "request"
        assert root["attrs"]["op"] == "datalog"

    def test_request_ids_on_the_loop(self, monkeypatch):
        from repro.obs import logs

        ambient = []
        decode = protocol.decode_request

        def recording_decode(line):
            # Runs on the loop before the request binds its own id: any id
            # seen here leaked from an earlier request.
            ambient.append(logs.get_request_id())
            return decode(line)

        monkeypatch.setattr(protocol, "decode_request", recording_decode)
        srv = ServiceServer(
            store=flights_store(), config=ServiceConfig(port=0, slow_ms=0)
        ).start_background()
        try:
            with ServiceClient(port=srv.port) as a, ServiceClient(port=srv.port) as b:
                a.call("datalog", query=CONN_PROGRAM)
                for client in (a, b, a, b):
                    assert client.call("datalog", query=CONN_PROGRAM)["cache"] == "hit"
                entries = a.slowlog()["entries"]
                counters = a.stats()["metrics"]["counters"]
        finally:
            srv.stop()
        hit_ids = [e["request_id"] for e in entries if e["cache"] == "hit"]
        assert len(hit_ids) == 4
        assert len(set(hit_ids)) == 4 and all(hit_ids)
        assert counters["requests.on_loop"] == 4
        assert ambient and set(ambient) == {None}


class TestShutdown:
    def test_stop_with_queued_requests_keeps_gauge_consistent(self):
        """Queued work is cancelled at shutdown; the in-flight gauge never
        goes negative and the running request still drains cleanly."""
        import socket as socket_module

        srv = ServiceServer(
            service=SlowQueryService(store=flights_store()),
            config=ServiceConfig(port=0, workers=1, timeout=10.0),
        ).start_background()
        socks = []
        try:
            # First request occupies the single worker; the rest queue.
            for i in range(3):
                sock = socket_module.create_connection(
                    ("127.0.0.1", srv.port), timeout=5
                )
                sock.sendall(protocol.encode({"id": i, "op": "ping", "slow": 0.8}))
                socks.append(sock)
            time.sleep(0.2)  # let the first request start executing
        finally:
            srv.stop()
            for sock in socks:
                sock.close()
        # The stalled request finishes on the daemon worker thread after
        # stop(); wait for it so its request_completed() has landed.
        time.sleep(1.2)
        metrics = srv.service.metrics
        assert metrics.in_flight >= 0
        snapshot = metrics.snapshot()
        assert snapshot["in_flight"] >= 0


class TestDurableService:
    def durable_config(self, data_dir, **overrides):
        params = dict(
            port=0, workers=2, timeout=10.0, data_dir=str(data_dir), fsync="always"
        )
        params.update(overrides)
        return ServiceConfig(**params)

    def test_checkpoint_without_data_dir_is_protocol_error(self):
        service = QueryService(store=flights_store())
        try:
            with pytest.raises(ProtocolError, match="--data-dir"):
                service.execute({"op": "checkpoint"})
        finally:
            service.close()

    def test_checkpoint_over_the_wire(self, tmp_path):
        srv = ServiceServer(config=self.durable_config(tmp_path)).start_background()
        try:
            with ServiceClient(port=srv.port) as c:
                c.update(edges=[["a", "hop", "b"]])
                info = c.checkpoint()
                assert info["version"] == 1
                assert "checkpoint-" in info["path"]
                stats = c.stats()
                assert stats["store"]["durability"]["checkpoint"]["last_version"] == 1
                assert stats["metrics"]["counters"]["checkpoints.requested"] == 1
        finally:
            srv.stop()

    def test_service_recovers_data_across_restarts(self, tmp_path):
        srv = ServiceServer(config=self.durable_config(tmp_path)).start_background()
        try:
            with ServiceClient(port=srv.port) as c:
                assert c.update(edges=[["a", "link", "b"], ["b", "link", "c"]]) == 1
                assert c.update(edges=[["c", "link", "d"]]) == 2
        finally:
            srv.stop()

        srv2 = ServiceServer(config=self.durable_config(tmp_path)).start_background()
        try:
            with ServiceClient(port=srv2.port) as c:
                # Recovered store serves queries: reachability spans all hops.
                rows = c.graphlog(
                    "define (X) -[reach]-> (Y) { (X) -[link+]-> (Y); }",
                    predicate="reach",
                )
                assert ("a", "d") in rows["reach"]
                # And keeps versioning where it left off.
                assert c.update(edges=[["d", "link", "e"]]) == 3
        finally:
            srv2.stop()

    def test_views_and_cache_rebuilt_against_recovered_store(self, tmp_path):
        config = self.durable_config(tmp_path)
        service = QueryService(config=config)
        try:
            service.execute({"op": "update", "edges": [["a", "link", "b"]]})
        finally:
            service.close()

        service2 = QueryService(config=self.durable_config(tmp_path))
        try:
            query = "define (X) -[reach]-> (Y) { (X) -[link+]-> (Y); }"
            first = service2.execute({"op": "graphlog", "query": query})
            assert ["a", "b"] in first["result"]["relations"]["reach"]
            # Cache is alive on the recovered store: second call hits...
            second = service2.execute({"op": "graphlog", "query": query})
            assert second["cache"] == "hit"
            # ...and commits on the recovered store still invalidate it.
            service2.execute({"op": "update", "edges": [["b", "link", "c"]]})
            third = service2.execute({"op": "graphlog", "query": query})
            assert third["cache"] == "miss"
            assert ["a", "c"] in third["result"]["relations"]["reach"]
        finally:
            service2.close()

    def test_close_is_idempotent(self, tmp_path):
        service = QueryService(config=self.durable_config(tmp_path))
        service.close()
        service.close()


class TestTelemetry:
    """Prometheus endpoint, request IDs, slow-query log over the wire."""

    _SAMPLE_LINE = __import__("re").compile(
        r"^(# (HELP|TYPE) [a-zA-Z_:][a-zA-Z0-9_:]*( .*)?"
        r"|[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^{}]*\})? (-?[0-9.eE+-]+|NaN|\+Inf|-Inf))$"
    )

    def _traced_server(self, **overrides):
        params = dict(
            port=0, workers=2, timeout=10.0, metrics_port=0, slow_ms=0.0
        )
        params.update(overrides)
        return ServiceServer(
            store=flights_store(), config=ServiceConfig(**params)
        ).start_background()

    def test_gc_counts_per_generation_in_stats_and_metrics(self):
        import gc

        service = QueryService()
        before = service.stats()["gc"]
        assert len(before) == len(gc.get_stats()) == 3
        for generation in before:
            assert set(generation) == {"collections", "collected", "uncollectable"}
            assert all(isinstance(n, int) and n >= 0 for n in generation.values())
        gc.collect()  # a collection of the oldest generation
        after = service.stats()["gc"]
        assert after[2]["collections"] > before[2]["collections"]
        assert all(a["collections"] >= b["collections"] for a, b in zip(after, before))
        lines = service.prometheus_text().splitlines()
        for name in ("collections", "collected", "uncollectable"):
            assert f"# TYPE repro_gc_{name}_total counter" in lines
            samples = [line for line in lines if line.startswith(f"repro_gc_{name}_total{{")]
            assert [line.split(" ")[0] for line in samples] == [
                f'repro_gc_{name}_total{{generation="{g}"}}' for g in range(3)
            ]
            assert all(self._SAMPLE_LINE.match(line) for line in samples)
        service.close()

    def test_scrape_is_valid_exposition(self):
        import urllib.request

        srv = self._traced_server()
        try:
            assert srv.metrics_port  # ephemeral port was bound and published
            with ServiceClient(port=srv.port) as c:
                c.update(edges=[["zrh", "hop", "muc"]])
                c.datalog(CONN_PROGRAM, predicate="conn")
                c.datalog(CONN_PROGRAM, predicate="conn")  # cache hit
            body = (
                urllib.request.urlopen(
                    f"http://127.0.0.1:{srv.metrics_port}/metrics", timeout=5
                )
                .read()
                .decode()
            )
            for line in body.rstrip("\n").splitlines():
                assert self._SAMPLE_LINE.match(line), f"bad line: {line!r}"
            # The acceptance quartet: latency histogram, cache counters,
            # WAL-less fsync series absent, per-predicate fact gauges.
            assert 'repro_request_seconds_bucket{le="+Inf",op="datalog"}' in body
            assert "repro_result_cache_hits_total" in body
            assert 'repro_store_facts{predicate="from"}' in body
            assert 'repro_requests_total{op="update"} 1' in body
            assert 'repro_store_churn_rows_total{predicate="hop"} 1' in body
        finally:
            srv.stop()

    def test_healthz_ok_over_http(self):
        import json as _json
        import urllib.request

        srv = self._traced_server()
        try:
            resp = urllib.request.urlopen(
                f"http://127.0.0.1:{srv.metrics_port}/healthz", timeout=5
            )
            assert resp.status == 200
            doc = _json.loads(resp.read())
            assert doc["status"] == "ok"
            assert "in_flight" in doc
        finally:
            srv.stop()

    def test_wal_fsync_histogram_exported(self, tmp_path):
        srv = ServiceServer(
            config=ServiceConfig(
                port=0,
                workers=2,
                timeout=10.0,
                data_dir=str(tmp_path),
                fsync="always",
                metrics_port=0,
            )
        ).start_background()
        try:
            with ServiceClient(port=srv.port) as c:
                c.update(edges=[["a", "link", "b"]])
            body = srv.service.prometheus_text()
            assert "repro_wal_fsync_seconds_count 1" in body
            assert 'repro_phase_seconds_bucket{le="+Inf",phase="wal.fsync"} 1' in body
        finally:
            srv.stop()

    def test_commit_phases_once_per_commit_and_per_replicated_apply(self):
        """The store times its own layers: `commit.stage` / `commit.dispatch`
        get one sample per commit on the primary and per applied record on a
        replica; an aborted transaction leaves none."""
        primary = QueryService()
        replica = QueryService()
        for i in range(3):
            primary.execute({"op": "update", "edges": [[f"n{i}", "link", f"n{i + 1}"]]})
        with pytest.raises(StoreError):
            primary.execute({"op": "update", "remove_edges": [["x", "link", "y"]]})
        for record in primary.store.history():
            replica.store.apply_replicated(record)
        for service in (primary, replica):
            phases = service.stats()["metrics"]["phases"]
            assert phases["commit.stage"]["count"] == 3
            assert phases["commit.dispatch"]["count"] == 3
        body = primary.prometheus_text()
        assert 'repro_phase_seconds_bucket{le="+Inf",phase="commit.stage"} 3' in body

    def test_health_degraded_after_durability_close(self, tmp_path):
        service = QueryService(
            config=ServiceConfig(port=0, data_dir=str(tmp_path), fsync="always")
        )
        try:
            service.execute({"op": "update", "edges": [["a", "link", "b"]]})
            assert service.health()["status"] == "ok"
            service.durability.close()
            doc = service.health()
            assert doc["status"] == "degraded"
            assert doc["durability"]["closed"] is True
        finally:
            service.close()

    def test_slowlog_wire_op_carries_trace_and_request_id(self):
        import io
        import json as _json
        import logging

        from repro.obs.logs import JsonLogFormatter, RequestIdFilter

        # Capture the server's slow-request WARNINGs as JSON, the way the
        # CLI handler would, so the request_id stamped in the worker
        # thread is observable.
        stream = io.StringIO()
        handler = logging.StreamHandler(stream)
        handler.setFormatter(JsonLogFormatter())
        handler.addFilter(RequestIdFilter())
        server_logger = logging.getLogger("repro.service.server")
        server_logger.addHandler(handler)
        srv = self._traced_server()
        try:
            with ServiceClient(port=srv.port) as c:
                c.datalog(CONN_PROGRAM, predicate="conn")
                doc = c.slowlog()
            entries = doc["entries"]
            assert doc["stats"]["enabled"] is True
            assert entries, "slow_ms=0.0 must record every request"
            entry = entries[0]
            assert entry["op"] == "datalog"
            assert entry["threshold_ms"] == 0.0
            assert entry["elapsed_ms"] >= 0.0
            # The cache-miss evaluation captured its span tree.
            traced = [e for e in entries if e.get("trace")]
            assert traced
            assert traced[0]["trace"]["name"] == "datalog"
            names = [child["name"] for child in traced[0]["trace"]["children"]]
            assert "evaluate" in names
            # Every recorded entry has a request id, and the JSON log line
            # for the same request carries the identical id.
            logged = [
                _json.loads(line) for line in stream.getvalue().splitlines()
            ]
            logged_ids = {rec["request_id"] for rec in logged}
            assert "-" not in logged_ids
            for e in entries:
                assert e["request_id"] in logged_ids
        finally:
            server_logger.removeHandler(handler)
            srv.stop()

    def test_request_ids_distinct_across_executor_threads(self):
        srv = self._traced_server(workers=4)
        try:
            errors = []

            def hammer():
                try:
                    with ServiceClient(port=srv.port) as c:
                        for _ in range(3):
                            c.ping()
                except Exception as exc:  # pragma: no cover - surfaced below
                    errors.append(exc)

            threads = [threading.Thread(target=hammer) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert not errors
            entries = srv.service.slowlog.snapshot()
            ids = [e["request_id"] for e in entries]
            assert len(ids) >= 12
            assert len(set(ids)) == len(ids), "request ids must be unique"
        finally:
            srv.stop()

    def test_slowlog_op_validates_limit(self, client):
        with pytest.raises(ProtocolError):
            client.call("slowlog", limit=-1)
        with pytest.raises(ProtocolError):
            client.call("slowlog", limit="ten")
        # Disabled by default on the shared server: empty but well-formed.
        doc = client.slowlog()
        assert doc["entries"] == []
        assert doc["stats"]["enabled"] is False

    def test_snapshot_has_p99(self):
        registry = MetricsRegistry()
        registry.request_started()
        registry.request_completed("rpq", 0.002)
        registry.observe_phase("evaluate", 0.004)
        snapshot = registry.snapshot()
        assert snapshot["latency"]["rpq"]["p99_ms"] == pytest.approx(2.0)
        assert snapshot["phases"]["evaluate"]["p99_ms"] == pytest.approx(4.0)

    def test_store_predicate_stats_track_churn(self):
        store = HAMStore()
        session = store.session()
        with session.transaction() as txn:
            txn.add_edge("a", "b", "link")
            txn.add_edge("b", "c", "link")
        with session.transaction() as txn:
            txn.add_edge("c", "d", "rel")
        stats = store.predicate_stats()
        assert stats["link"]["facts"] == 2
        assert stats["link"]["churn_rows"] == 2
        assert stats["link"]["churn_commits"] == 1
        assert stats["rel"]["churn_commits"] == 1
        top = store.predicate_stats(top=1)
        assert list(top) == ["link"]
        # And stats() carries the ranked summary for `repro top`.
        assert store.stats()["predicates"]["link"]["facts"] == 2
