"""Cross-path differential (ROADMAP 4c, first slice).

For seeded random insert / delete / relabel sequences committed by four
concurrent writers, at every store version five things agree for a
recursive, a negated and an aggregate (diff-fallback) query: a
subscription's accumulated delta frames, the maintained view's rows, a
fresh ``graphlog`` request (result cache and delta re-stamping included),
the answer a maintained result-cache entry serves, and ``Engine("naive")``
over ``store.graph_at(version)`` from scratch.  RPQs get the same
treatment, a replica's plain and ``min_version`` reads included, against
both the automaton search and the naive walk of their λ.  The tests after
it race a maintained entry's life — promotion, eviction, the wait for an
in-flight dispatch, a replica re-bootstrap — against commits.
"""

from __future__ import annotations

import random
import sys
import threading

import pytest

from repro.core.dsl import parse_graphical_query
from repro.core.engine import GraphLogEngine
from repro.core.pre import regex_to_pre
from repro.core.query_graph import GraphicalQuery, QueryGraph
from repro.graphs.bridge import EdgeLabel
from repro.ham import views as views_module
from repro.ham.store import HAMStore
from repro.rpq.automaton import compile_regex
from repro.rpq.evaluate import RPQEvaluator
from repro.rpq.regex import parse_regex
from repro.service.cache import result_key
from repro.service.server import QueryService, ServiceConfig

QUERIES = {
    "reach": "define (X) -[reach]-> (Y) { (X) -[link+]-> (Y); }",
    "risky": (
        "define (X) -[risky]-> (Y) "
        "{ (X) -[link+]-> (Y); (X) -[~fast]-> (Y); ~stop(Y); }"
    ),
    "best": "define (X) -[best(V)]-> (Y) { (X) -[hop @ shortest V]-> (Y); }",
}
NODES = [f"n{i}" for i in range(7)]
WRITERS = 4
COMMITS = 12


class Sink:
    def notify(self):
        pass


def writer(store, seed, errors, first=None):
    """COMMITS random single-operation transactions.  A writer deletes only
    edges it added itself, so no commit conflicts with another writer's;
    nodes and their labels are shared.  What it dies of lands in *errors*.

    With *first*, the writer's k-th commit waits to become version
    ``first + k * WRITERS``: writers whose *first* versions are consecutive
    take turns, so every run commits the same edits in the same order.  A
    commit to a version ``v ≡ 2 (mod WRITERS)`` also waits for the hooks of
    ``v - 1`` to run, so a hook reading the store at ``v - 1`` reads that
    version; every other commit installs while the previous one's hooks
    run."""
    try:
        _write(store, random.Random(seed), first)
    except Exception as exc:  # noqa: BLE001 — re-raised by the test
        errors.append(exc)


def _write(store, rng, first):
    mine = []
    for k in range(COMMITS):
        if first is not None:
            version = first + k * WRITERS
            assert store.wait_for_version(version - 1, 10)
            if version % WRITERS == 2:
                assert store.wait_dispatched(version - 1, 10)
        with store.session().transaction() as txn:
            op = rng.random()
            if op < 0.5 or not mine:
                kind = rng.choice(["link", "link", "fast", "hop"])
                label = (
                    EdgeLabel("hop", (rng.randint(1, 9),))
                    if kind == "hop"
                    else EdgeLabel(kind)
                )
                edge = (rng.choice(NODES), rng.choice(NODES), label)
                txn.add_edge(*edge)
                mine.append(edge)
            elif op < 0.8:
                txn.remove_edge(*mine.pop(rng.randrange(len(mine))))
            else:
                txn.set_node_label(rng.choice(NODES), rng.choice(["stop", None]))


def wire_rows(rows):
    return {tuple(row) for row in rows}


@pytest.mark.parametrize("seed", range(4))
def test_every_path_agrees_at_every_version(seed):
    store = HAMStore()
    with store.session().transaction() as txn:
        for node in NODES:
            txn.add_node(node)
        txn.add_edge("n0", "n1", EdgeLabel("link"))
        txn.add_edge("n0", "n1", EdgeLabel("hop", (2,)))
    service = QueryService(store=store)
    try:
        sink = Sink()
        accumulated = {}  # name -> rows, advanced frame by frame below
        subscription = {}
        for name, text in QUERIES.items():
            response = service.execute(
                {"op": "subscribe", "query": text, "allow_fallback": True}, sink=sink
            )
            assert response["version"] == 1
            subscription[response["result"]["subscription"]] = name
            accumulated[name] = wire_rows(response["result"]["snapshot"].get(name, ()))
        views = {
            view.plan.head_predicate: view
            for view in service.subs._views_by_key.values()
        }
        assert {name: view.mode for name, view in views.items()} == {
            "reach": "maintained", "risky": "maintained", "best": "diff",
        }

        view_rows = {}  # version -> name -> rows
        fresh = {}  # version -> name -> rows
        maintained = {}  # version -> name -> rows a maintained entry served
        keys = {
            name: result_key(service.plans.get("graphlog", text).fingerprint, {})
            for name, text in QUERIES.items()
        }

        costly = set()  # names whose view ran a pass costlier than the view
        behind = set()  # whether a probe read a later version than its record's

        @store.subscribe  # after the service's hooks: the views are at record.version
        def probe(record):
            # Off the writers' settled turns, read once the next commit is
            # installed: its entries are then behind the store, on purpose.
            if record.version % WRITERS != 1:
                assert store.wait_for_version(record.version + 1, 10)
            view_rows[record.version] = {n: v.rows(n) for n, v in views.items()}
            costly.update(
                name for name, view in views.items()
                if view.mode == "maintained" and view.churn > view.held_rows()
            )
            for name, text in QUERIES.items():
                response = service.execute({"op": "graphlog", "query": text})
                rows = wire_rows(response["result"]["relations"].get(name, ()))
                fresh.setdefault(response["version"], {})[name] = rows
                behind.add(response["version"] > record.version)
                entry = service.results._entries.get(keys[name])
                if response["cache"] == "hit" and entry is not None and entry.pin is not None:
                    maintained.setdefault(response["version"], {})[name] = rows

        errors = []
        threads = [
            threading.Thread(target=writer, args=(store, 100 * seed + index, errors, 2 + index))
            for index in range(WRITERS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60)
        assert not any(thread.is_alive() for thread in threads)
        if errors:
            raise errors[0]
        last = 1 + WRITERS * COMMITS
        assert store.version == last and sorted(view_rows) == list(range(2, last + 1))
        assert behind == {False, True}  # probes at their own version and behind it
        assert set(fresh[last]) == set(QUERIES)

        frames, _ = service.subs.drain(sink)
        by_version = {}
        for frame in frames:
            assert frame["frame"] == "delta"
            by_version.setdefault(frame["version"], []).append(frame)
        engine = GraphLogEngine("naive")
        for version in range(2, last + 1):
            for frame in by_version.get(version, ()):
                name = subscription[frame["subscription"]]
                accumulated[name] -= wire_rows(frame["deleted"].get(name, ()))
                accumulated[name] |= wire_rows(frame["inserted"].get(name, ()))
            graph = store.graph_at(version)
            for name, text in QUERIES.items():
                oracle = engine.answers(parse_graphical_query(text), graph, name)
                where = f"seed={seed} version={version} query={name}"
                assert accumulated[name] == oracle, where
                assert view_rows[version][name] == oracle, where
                if name in fresh.get(version, ()):  # asked while it was current
                    assert fresh[version][name] == oracle, where
                if name in maintained.get(version, ()):
                    assert maintained[version][name] == oracle, where
        # The recursive and the negated query became maintained entries (the
        # subscriptions' own views, pinned) and served reads; the aggregate
        # never does.  A pass that overdeleted and rederived more rows than
        # its view holds demotes the entry for good: in the writers' fixed
        # order, seed 3's reach at version 24 (4 rows of churn, 3 held).
        served = {name for answers in maintained.values() for name in answers}
        assert served == {"reach", "risky"}
        demoted = {name for name, key in keys.items() if service.results._marks.get(key) is False}
        assert demoted <= costly
        stats = service.stats()
        assert stats["result_cache"]["promotions"] >= 2
        pins = {name: sum(h.key is not None for h in views[name].holders) for name in served}
        assert pins == {name: int(name not in demoted) for name in served}
        assert stats["store"]["subscriber_failures"] == 0
        assert all(
            view["maintenance_errors"] == 0 for view in stats["subs"]["views"].values()
        )
    finally:
        service.close()


#: name -> (path expression, source or None for every pair).  ``lonely``
#: starts at a node no edge ever touches: the graph has it, the EDB's
#: active domain does not.
RPQS = {
    "single": ("link+", "n0"),
    "pairs": ("link fast*", None),
    "nullable": ("link*", "n1"),
    "inverted": ("(-link | fast)+", "n2"),
    "lonely": ("link* fast?", "lonely"),
}


def rpq_oracles(text, source, graph):
    """The automaton's answer and the naive walker's of λ (plus the empty
    path, which the walker ranges over the active domain alone)."""
    regex = parse_regex(text)
    evaluator = RPQEvaluator(graph)
    query = QueryGraph()
    query.edge("X", "Y", regex_to_pre(regex))
    query.distinguished("X", "Y", "out")
    pairs = GraphLogEngine("naive").answers(GraphicalQuery([query]), graph, "out")
    if source is None:
        return evaluator.pairs(regex), pairs
    naive = {(y,) for x, y in pairs if x == source}
    dfa = compile_regex(regex)
    if dfa.start in dfa.accept:
        naive.add((source,))
    return {(t,) for t in evaluator.targets(regex, source)}, naive


@pytest.mark.parametrize("seed", range(3))
def test_every_rpq_path_agrees_at_every_version(seed):
    store = HAMStore()
    with store.session().transaction() as txn:
        for node in NODES + ["lonely"]:
            txn.add_node(node)
        txn.add_edge("n0", "n1", EdgeLabel("link"))
        txn.add_edge("n1", "n2", EdgeLabel("fast"))
    replica = HAMStore()
    replica.set_read_only(True)
    for record in store.records_since(0):
        replica.apply_replicated(record)
    service = QueryService(store=store)
    follower = QueryService(store=replica, config=ServiceConfig(version_wait_ms=10_000))
    requests = {
        name: {"op": "rpq", "query": text, **({"source": source} if source else {})}
        for name, (text, source) in RPQS.items()
    }
    try:
        sink = Sink()
        accumulated, subscription = {}, {}
        for name, request in requests.items():
            response = service.execute({**request, "op": "subscribe", "target": "rpq"}, sink=sink)
            assert response["result"]["mode"] == "maintained", name
            subscription[response["result"]["subscription"]] = name
            accumulated[name] = wire_rows(response["result"]["snapshot"]["answers"])
        keys = {
            name: result_key(
                service.plans.get("rpq", text).fingerprint, {"source": source} if source else {}
            )
            for name, (text, source) in RPQS.items()
        }
        seen = {}  # (path, version answered at) -> name -> rows
        errors = []

        def read(path, svc, request, name):
            try:
                response = svc.execute(request)
            except Exception as exc:  # noqa: BLE001 — re-raised by the test
                errors.append(exc)
                return
            version = response["version"]
            rows = wire_rows(response["result"]["relations"]["answers"])
            seen.setdefault((path, version), {})[name] = rows
            entry = svc.results._entries.get(keys[name])
            if response["cache"] == "hit" and entry is not None and entry.pin is not None:
                seen.setdefault((f"{path}-maintained", version), {})[name] = rows

        @store.subscribe  # after the service's hooks: the views are at record.version
        def probe(record):
            v = record.version
            routed = [
                threading.Thread(
                    target=read,
                    args=("routed", follower, {**request, "min_version": v}, name),
                )
                for name, request in requests.items()
            ]
            for thread in routed:  # each waits for v to reach the replica
                thread.start()
            replica.apply_replicated(record)
            for thread in routed:
                thread.join(10)
            for name, request in requests.items():
                read("primary", service, request, name)  # at v, or a later commit's
                read("replica", follower, request, name)  # at v: only this hook advances it

        threads = [
            threading.Thread(target=writer, args=(store, 700 + 10 * seed + index, errors))
            for index in range(WRITERS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60)
        assert not any(thread.is_alive() for thread in threads)
        if errors:
            raise errors[0]
        last = 1 + WRITERS * COMMITS
        assert store.version == replica.version == last

        frames, _ = service.subs.drain(sink)
        by_version = {}
        for frame in frames:
            assert frame["frame"] == "delta"
            by_version.setdefault(frame["version"], []).append(frame)
        for version in range(2, last + 1):
            for frame in by_version.get(version, ()):
                name = subscription[frame["subscription"]]
                accumulated[name] -= wire_rows(frame["deleted"].get("answers", ()))
                accumulated[name] |= wire_rows(frame["inserted"].get("answers", ()))
            graph = store.graph_at(version)
            for name, (text, source) in RPQS.items():
                automaton, naive = rpq_oracles(text, source, graph)
                where = f"seed={seed} version={version} rpq={name}"
                assert naive == automaton, where
                assert accumulated[name] == automaton, where
                for path in ("replica", "routed"):
                    assert seen[path, version][name] == automaton, (path, where)
                for path in ("primary", "primary-maintained", "replica-maintained"):
                    if name in seen.get((path, version), ()):
                        assert seen[path, version][name] == automaton, (path, where)
        # Every RPQ became a maintained entry on both nodes and served reads
        # from it — unless a pass costlier than its view demoted it for good.
        for path, svc in (("primary-maintained", service), ("replica-maintained", follower)):
            served = {name for (p, _v), answers in seen.items() if p == path for name in answers}
            demoted = {name for name, key in keys.items() if svc.results._marks.get(key) is False}
            assert served | demoted == set(RPQS), path
            stats = svc.stats()
            assert stats["result_cache"]["maintained"] == len(RPQS) - len(demoted)
            assert all(v["mode"] == "maintained" for v in stats["subs"]["views"].values())
            assert all(v["maintenance_errors"] == 0 for v in stats["subs"]["views"].values())
            assert stats["store"]["subscriber_failures"] == 0
        assert not errors
    finally:
        follower.close()
        service.close()


# ---------------------------------------------- a maintained entry's life


REACH = QUERIES["reach"]


def reach_rows(service):
    response = service.execute({"op": "graphlog", "query": REACH})
    return response, wire_rows(response["result"]["relations"]["reach"])


def oracle_rows(store):
    return GraphLogEngine("naive").answers(parse_graphical_query(REACH), store.graph, "reach")


def add_link(store, source, target, remove=False):
    with store.session().transaction() as txn:
        (txn.remove_edge if remove else txn.add_edge)(source, target, EdgeLabel("link"))


def promoted(service, store):
    """Read REACH, commit an edge it sees, and re-read it: the re-read
    promotes.  Returns the pinned view."""
    reach_rows(service)
    add_link(store, "n1", "n2")
    assert reach_rows(service)[0]["cache"] == "miss"
    assert service.stats()["result_cache"]["maintained"] == 1
    (view,) = service.subs._views_by_key.values()
    return view


def linked_store():
    store = HAMStore()
    with store.session().transaction() as txn:
        for node in NODES:
            txn.add_node(node)
        txn.add_edge("n0", "n1", EdgeLabel("link"))
    return store


def held(view, entered, release):
    """Make *view*'s next pass signal *entered* and wait for *release*."""
    apply = view.apply

    def slow_apply(record):
        entered.set()
        assert release.wait(10)
        return apply(record)

    view.apply = slow_apply


def test_an_entry_evicted_during_a_commit_unpins_its_view():
    store = linked_store()
    service = QueryService(store=store, config=ServiceConfig(result_cache_size=2))
    try:
        view = promoted(service, store)
        entered, release = threading.Event(), threading.Event()
        held(view, entered, release)
        writer = threading.Thread(target=add_link, args=(store, "n2", "n3"))
        writer.start()
        assert entered.wait(10)
        # Mid-commit (the manager lock held): two plain misses push the
        # maintained entry out of a two-entry cache.
        for source in ("n0", "n1"):
            service.execute({"op": "rpq", "query": "link+", "source": source})
        assert result_key(view.plan.fingerprint, {}) not in service.results._entries
        release.set()
        writer.join(10)
        assert not writer.is_alive()
        # The hook re-encoded nothing for the gone entry and unpinned its
        # view, which nothing else held.
        assert not service.subs._views_by_key
        response, rows = reach_rows(service)
        assert response["cache"] == "miss" and rows == oracle_rows(store)
        stats = service.stats()
        assert stats["result_cache"]["maintained"] == 0
        assert stats["result_cache"]["evictions"] >= 1
        assert stats["store"]["subscriber_failures"] == 0
    finally:
        service.close()


def test_a_promotion_racing_a_commit_catches_up_through_the_log(monkeypatch):
    store = linked_store()
    service = QueryService(store=store)
    try:
        reach_rows(service)
        add_link(store, "n1", "n2")  # drops the entry: the next read promotes
        refreshed, committed = threading.Event(), threading.Event()
        refresh = views_module.MaterializedView.refresh

        def racing_refresh(view, version=None):
            refresh(view, version)
            if not refreshed.is_set():
                refreshed.set()  # materialized at v, registered after v + 1
                assert committed.wait(10)

        monkeypatch.setattr(views_module.MaterializedView, "refresh", racing_refresh)
        answers = []
        reader = threading.Thread(target=lambda: answers.append(reach_rows(service)))
        reader.start()
        assert refreshed.wait(10)
        version = store.version
        add_link(store, "n2", "n3")  # dispatched while no view is registered
        committed.set()
        reader.join(10)
        (response, rows), = answers
        # The promotion applied v + 1 from records_since before it
        # registered: its entry is current at v + 1, not stale at v.
        assert response["cache"] == "miss" and response["version"] == version + 1
        assert rows == oracle_rows(store)
        (view,) = service.subs._views_by_key.values()
        assert view.version == version + 1 and view.maintenance_passes == 1
        add_link(store, "n3", "n4")
        response, rows = reach_rows(service)
        assert response["cache"] == "hit" and rows == oracle_rows(store)
    finally:
        service.close()


def test_a_promotion_caught_up_past_a_label_at_two_arities_demotes(monkeypatch):
    # The RPQ's view materializes over e/2 alone; before it registers, a
    # commit stores e/3 beside it, which leaves the store no relational
    # image: catching up fails, and the read answers from the automaton.
    store = HAMStore()
    service = QueryService(store=store)
    request = {"op": "rpq", "query": "e+", "source": "a"}

    def add(source, target, label="e"):
        with store.session().transaction() as txn:
            txn.add_edge(source, target, label)

    try:
        add("a", "b")
        service.execute(request)
        add("b", "c")  # drops the entry: the next read promotes
        refreshed, committed = threading.Event(), threading.Event()
        refresh = views_module.MaterializedView.refresh

        def racing_refresh(view, version=None):
            refresh(view, version)
            if not refreshed.is_set():
                refreshed.set()
                assert committed.wait(10)

        monkeypatch.setattr(views_module.MaterializedView, "refresh", racing_refresh)
        answers = []
        reader = threading.Thread(target=lambda: answers.append(service.execute(request)))
        reader.start()
        assert refreshed.wait(10)
        add("c", "d", EdgeLabel("e", (1,)))
        committed.set()
        reader.join(10)
        (response,) = answers  # evaluated at the version the miss read
        rows = wire_rows(response["result"]["relations"]["answers"])
        graph = store.graph_at(response["version"])
        assert rows == {(t,) for t in RPQEvaluator(graph).targets("e+", "a")} != set()
        assert not service.subs._views_by_key
        cached = service.stats()["result_cache"]
        assert (cached["promotions"], cached["demotions"]) == (0, 1)
    finally:
        service.close()


def test_a_read_one_dispatch_behind_waits_for_it_instead_of_evaluating():
    store = linked_store()
    entered, release = threading.Event(), threading.Event()

    @store.subscribe  # before the service's hook: holds every dispatch at its start
    def gate(record):
        if not release.is_set():
            entered.set()
            assert release.wait(10)

    release.set()
    service = QueryService(store=store)
    try:
        promoted(service, store)
        evaluations = service.stats()["metrics"]["phases"]["evaluate"]["count"]
        release.clear()
        writer = threading.Thread(target=add_link, args=(store, "n2", "n3"))
        writer.start()
        assert entered.wait(10)  # v + 1 is installed; its hooks have not run
        answers = []
        reader = threading.Thread(target=lambda: answers.append(reach_rows(service)))
        reader.start()
        reader.join(0.2)
        assert reader.is_alive()  # waiting for the dispatch, not evaluating
        release.set()
        reader.join(10)
        writer.join(10)
        (response, rows), = answers
        assert response["cache"] == "hit" and response["version"] == store.version
        assert rows == oracle_rows(store)
        assert service.stats()["metrics"]["phases"]["evaluate"]["count"] == evaluations
    finally:
        service.close()


def test_a_renamed_copy_promoting_behind_a_commit_of_its_name_does_not_share():
    # c1 reads the stored x -c1-> y as a base fact of its answer.  A commit
    # removing it is installed, its dispatch held, when c1 promotes: at the
    # store's version c1 could read c0's view, at the view's it could not.
    store = linked_store()
    with store.session().transaction() as txn:
        txn.add_edge("x", "y", EdgeLabel("c1"))
    entered, release = threading.Event(), threading.Event()

    @store.subscribe  # before the service's hook: holds every dispatch at its start
    def gate(record):
        if not release.is_set():
            entered.set()
            assert release.wait(10)

    release.set()
    service = QueryService(store=store)
    texts = {name: REACH.replace("reach", name) for name in ("c0", "c1")}

    def read(name):
        response = service.execute({"op": "graphlog", "query": texts[name]})
        return response, wire_rows(response["result"]["relations"][name])

    def oracle(name):
        query = parse_graphical_query(texts[name])
        return GraphLogEngine("naive").answers(query, store.graph, name)

    try:
        for name in texts:
            read(name)
        add_link(store, "n1", "n2")  # drops both entries: their next reads promote
        assert read("c0")[0]["cache"] == "miss"  # c0's view, current at v
        release.clear()
        writer = threading.Thread(target=_remove_c1, args=(store,))
        writer.start()
        assert entered.wait(10)  # v + 1 is installed; its hooks have not run
        response, rows = read("c1")
        assert response["version"] == store.version and rows == oracle("c1")
        release.set()
        writer.join(10)
        for name in texts:
            response, rows = read(name)
            assert response["cache"] == "hit" and rows == oracle(name)
        stats = service.stats()
        assert stats["subs"]["shared_views"] == 2
        assert stats["store"]["subscriber_failures"] == 0
    finally:
        release.set()
        service.close()


def _remove_c1(store):
    with store.session().transaction() as txn:
        txn.remove_edge("x", "y", EdgeLabel("c1"))


def test_a_rebootstrap_unpins_every_maintained_view():
    store = linked_store()
    service = QueryService(store=store)
    try:
        sink = Sink()
        risky = service.execute({"op": "subscribe", "query": QUERIES["risky"]}, sink=sink)
        assert risky["result"]["mode"] == "maintained"
        for text in (REACH, QUERIES["risky"]):
            service.execute({"op": "graphlog", "query": text})
        add_link(store, "n1", "n2")
        for text in (REACH, QUERIES["risky"]):
            assert service.execute({"op": "graphlog", "query": text})["cache"] == "miss"
        stats = service.stats()
        assert stats["result_cache"]["maintained"] == 2
        assert sorted(v["pins"] for v in stats["subs"]["views"].values()) == [1, 1]
        service._on_rebootstrap()
        stats = service.stats()
        assert stats["result_cache"]["maintained"] == stats["result_cache"]["size"] == 0
        # The watched view stays, unpinned; the other one is gone.
        (view,) = stats["subs"]["views"].values()
        assert (view["pins"], view["subscribers"]) == (0, 1)
        add_link(store, "n2", "n3")
        response, rows = reach_rows(service)
        assert response["cache"] == "miss" and rows == oracle_rows(store)
        assert service.stats()["result_cache"]["promotions"] == 2  # marks were cleared too
    finally:
        service.close()


def test_racing_readers_get_the_answer_of_the_version_they_are_told():
    # Four readers race four writers through promotions, re-stamped and
    # re-encoded hits, waits for a dispatch and plain misses: every answer
    # is the naive one at the version its response names.
    store = linked_store()
    service = QueryService(store=store)
    answers, errors = [], []
    writers_done = threading.Event()

    def read_both():
        for name in ("reach", "risky"):
            response = service.execute({"op": "graphlog", "query": QUERIES[name]})
            rows = wire_rows(response["result"]["relations"].get(name, ()))
            answers.append((name, response["version"], response["cache"], rows))

    def reader():
        try:
            for _ in range(200):
                done = writers_done.is_set()
                read_both()
                if done:
                    # That round ran after the last commit, so this one hits.
                    read_both()
                    return
        except Exception as exc:  # noqa: BLE001 — re-raised by the test
            errors.append(exc)

    readers = [threading.Thread(target=reader) for _ in range(WRITERS)]
    writers = [
        threading.Thread(target=writer, args=(store, 500 + index, errors))
        for index in range(WRITERS)
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in readers + writers:
            thread.start()
        for thread in writers:
            thread.join(60)
        writers_done.set()
        for thread in readers:
            thread.join(60)
    finally:
        sys.setswitchinterval(interval)
        service.close()
    assert not any(thread.is_alive() for thread in readers + writers)
    if errors:
        raise errors[0]
    engine = GraphLogEngine("naive")
    oracles = {}
    for name, version, _cache, rows in answers:
        if (name, version) not in oracles:
            graph = store.graph_at(version)
            oracles[name, version] = engine.answers(parse_graphical_query(QUERIES[name]), graph, name)
        assert rows == oracles[name, version], f"{name} at version {version}"
    assert {cache for _name, _version, cache, _rows in answers} == {"hit", "miss"}
    assert service.stats()["result_cache"]["promotions"] >= 1
