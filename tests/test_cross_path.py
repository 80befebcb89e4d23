"""Cross-path differential (ROADMAP 4c, first slice).

For seeded random insert / delete / relabel sequences committed by four
concurrent writers, at every store version four things agree for a
recursive, a negated and an aggregate (diff-fallback) query: a
subscription's accumulated delta frames, the maintained view's rows, a
fresh ``graphlog`` request (result cache and delta re-stamping included),
and ``Engine("naive")`` over ``store.graph_at(version)`` from scratch.
"""

from __future__ import annotations

import random
import threading

import pytest

from repro.core.dsl import parse_graphical_query
from repro.core.engine import GraphLogEngine
from repro.graphs.bridge import EdgeLabel
from repro.ham.store import HAMStore
from repro.service.server import QueryService

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


def writer(store, seed, errors):
    """COMMITS random single-operation transactions.  A writer deletes only
    edges it added itself, so no commit conflicts with another writer's;
    nodes and their labels are shared.  What it dies of lands in *errors*."""
    try:
        _write(store, random.Random(seed))
    except Exception as exc:  # noqa: BLE001 — re-raised by the test
        errors.append(exc)


def _write(store, rng):
    mine = []
    for _ in range(COMMITS):
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

        @store.subscribe  # after the service's hooks: the views are at record.version
        def probe(record):
            view_rows[record.version] = {n: v.rows(n) for n, v in views.items()}
            for name, text in QUERIES.items():
                response = service.execute({"op": "graphlog", "query": text})
                fresh.setdefault(response["version"], {})[name] = wire_rows(
                    response["result"]["relations"].get(name, ())
                )

        errors = []
        threads = [
            threading.Thread(target=writer, args=(store, 100 * seed + index, errors))
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
        stats = service.stats()
        assert stats["store"]["subscriber_failures"] == 0
        assert all(
            view["maintenance_errors"] == 0 for view in stats["subs"]["views"].values()
        )
    finally:
        service.close()
