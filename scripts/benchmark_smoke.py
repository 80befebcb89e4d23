#!/usr/bin/env python
"""CI smoke test for the columnar evaluation core.

Runs the abl6 and abl7 benchmark workloads through the production core and
checks every answer against the naive walker, its specification:

- abl6: transitive closure over a chain (the DRed ablation's evaluation
  hot path), ``Engine()`` against ``Engine("naive")`` directly;
- abl7: the flights ``reach``/``connected`` GraphLog query and the RPQ op
  through a real :class:`QueryService` against in-process
  ``Engine("naive")``, including an ``explain`` pass asserting that the
  closure's stratum ran on the ``kernel="closure"`` path.

- the store's relational image (``repro.ham.image``), by counts alone: 50 ×
  (commit, closure miss, RPQ miss) on one service must end with one build,
  50 folds, no fallback and every answer equal to the naive engine's — so a
  refactor that silently drops back to rebuilding the image per commit fails
  here instead of only moving a latency.

- the closure kernel, by counts alone: 50 closure misses (each a query text
  the service has never seen) must each record exactly one
  ``kernel="closure"`` stratum in their slowlog trace and answer what the
  naive engine answers — so a change that sends closure strata back to the
  generic semi-naive loop fails here.

- answers as bytes, by counts alone: 50 never-seen closure misses and 50
  never-seen Datalog misses through ``execute(..., wire=True)`` must each
  carry exactly the bytes the keyed-sort oracle writes for the naive
  engine's answer, and ``stats.result_cache.encoded_bytes`` must be the sum
  of their lengths — so a change that goes back to caching row lists, or
  orders a row differently, fails here.

- maintained result-cache entries, by counts alone: over the bench's
  flights data with 4 closures and 2 RPQs primed, 50 × (add flight, read
  all, remove flight, read all) may run one more ``evaluate`` phase per
  read — its first re-read, which promotes it to an entry its view keeps
  current: 12 in all — with the 4 closures (one program under four head
  names) pinning one shared view; every answer equals the naive oracle's.
  A change that drops maintained entries on a commit, or stops sharing a
  renamed program's view, fails here instead of only moving
  ``routed_mixed``'s numbers.

- structure sharing between store versions, by counts alone: 50 × (remove
  edge, re-add edge) through a durable :class:`QueryService` with one
  subscriber, on a 750-edge and on a 7 500-edge chains graph, may call
  ``LabeledMultigraph.add_edge`` — the only place an ``Edge`` is made —
  exactly twice per added edge (once in the transaction's workspace, once in
  the version the commit publishes), whatever the graph's size; and the
  final graph, the subscriber's rows and a fresh query all equal the naive
  oracle.  A refactor that goes back to rebuilding the graph per commit
  fails here instead of only moving a latency.

Any divergence from the naive oracle fails the job.  Timings are printed
for trend-watching but are *not* gated here.

Run from the repository root::

    PYTHONPATH=src python scripts/benchmark_smoke.py

Exits non-zero (with a diagnostic on stderr) on any failure.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from repro.core.dsl import parse_graphical_query  # noqa: E402
from repro.core.engine import GraphLogEngine  # noqa: E402
from repro.datalog.database import Database  # noqa: E402
from repro.datalog.engine import Engine  # noqa: E402
from repro.datalog.parser import parse_program  # noqa: E402
from repro.datasets.flights import random_flights  # noqa: E402
from repro.graphs.bridge import database_from_graph, graph_from_database  # noqa: E402
from repro.graphs.multigraph import LabeledMultigraph  # noqa: E402
from repro.ham.store import HAMStore  # noqa: E402
from repro.service.server import QueryService, ServiceConfig  # noqa: E402

CHAIN_PROGRAM = parse_program(
    """
    tc(X, Y) :- e(X, Y).
    tc(X, Y) :- e(X, Z), tc(Z, Y).
    """
)

FLIGHTS_QUERY = """
define (C1) -[reach]-> (C2) {
    (C1) <-[from]- (F); (F) -[to]-> (C2);
}
define (C1) -[connected]-> (C2) {
    (C1) -[reach+]-> (C2);
}
"""

# City-to-city hops: follow a `from` edge backwards onto the flight node,
# then its `to` edge forwards.
RPQ_EXPRESSION = "-from . to"


def fail(message):
    sys.stderr.write(f"benchmark_smoke: FAIL: {message}\n")
    sys.exit(1)


def timed(fn):
    started = time.perf_counter()
    value = fn()
    return time.perf_counter() - started, value


def check_abl6_chain():
    size = 150
    edb = Database()
    edb.add_facts("e", [(f"n{i}", f"n{i+1}") for i in range(size)])

    naive_s, naive = timed(lambda: Engine("naive").evaluate(CHAIN_PROGRAM, edb))
    columnar_s, columnar = timed(lambda: Engine().evaluate(CHAIN_PROGRAM, edb))
    if naive != columnar:
        fail("abl6 chain closure: columnar result diverges from naive")
    if ("n0", f"n{size}") not in columnar.facts("tc"):
        fail("abl6 chain closure: expected far pair missing")
    print(
        f"abl6 chain n={size}: naive={naive_s:.3f}s "
        f"columnar={columnar_s:.3f}s speedup={naive_s / columnar_s:.1f}x"
    )


def execute(service, request):
    response = service.execute(request)
    if "result" not in response:
        fail(f"service error for {request.get('op')}: {response!r}")
    return response


def check_abl7_service():
    database = random_flights(7, n_cities=40, n_flights=500)
    store = HAMStore()
    store.load_graph(graph_from_database(database))
    service = QueryService(store=store, config=ServiceConfig())
    graphlog = {"op": "graphlog", "query": FLIGHTS_QUERY}

    execute(service, graphlog)  # warm the plan cache
    service.results.clear()
    service_s, response = timed(lambda: execute(service, graphlog))
    naive_s, oracle = timed(
        lambda: GraphLogEngine("naive").run(
            parse_graphical_query(FLIGHTS_QUERY), database
        )
    )
    connected = {tuple(row) for row in response["result"]["relations"]["connected"]}
    answers = execute(service, {"op": "rpq", "query": RPQ_EXPRESSION})
    answers = {tuple(row) for row in answers["result"]["relations"]["answers"]}
    if not connected or not answers:
        fail("abl7 workload returned empty answers")
    if connected != oracle.facts("connected"):
        fail("abl7 flights service: graphlog answer diverges from the naive oracle")
    if answers != oracle.facts("reach"):
        fail("abl7 flights service: RPQ answer diverges from the naive oracle")
    explain = {"op": "explain", "query": FLIGHTS_QUERY, "target": "graphlog"}
    if len(kernel_strata(execute(service, explain)["result"]["trace"])) != 1:
        fail("explain trace of the closure query lacks its kernel=\"closure\" stratum")
    print(
        f"abl7 flights graphlog: naive={naive_s:.3f}s "
        f"service={service_s:.3f}s speedup={naive_s / service_s:.1f}x"
    )


CLOSURE_QUERY = "define (X) -[connected]-> (Y) { (X) -[(-from . to)+]-> (Y); }"
CLOSURE_PROGRAM = parse_program(
    """
    leg(X, Y) :- from(F, X), to(F, Y).
    connected(X, Y) :- leg(X, Y).
    connected(X, Y) :- connected(X, Z), leg(Z, Y).
    """
)


def check_image_folds():
    """50 × (commit, closure miss, RPQ miss): the image is built once and
    folded 50 times, and both answers track the naive oracle throughout.
    Each round's closure and RPQ are texts never seen before: a re-read one
    would be a maintained entry and need no image (``check_maintained_entries``)."""
    rounds = 50
    database = random_flights(7, n_cities=12, n_flights=40)
    store = HAMStore()
    store.load_graph(graph_from_database(database))
    service = QueryService(store=store, config=ServiceConfig())
    source = sorted(city for _flight, city in database.facts("from"))[0]
    execute(service, {"op": "graphlog", "query": CLOSURE_QUERY})  # the one build
    for i in range(rounds):
        closure = {"op": "graphlog", "query": CLOSURE_QUERY.replace("connected", f"conn{i:02d}")}
        rpq = {"op": "rpq", "query": f"{RPQ_EXPRESSION} | nolabel{i:02d}", "source": source}
        # Alternately add and remove one flight's from/to edges.
        edges = [[f"extra{i // 2}", "from", source], [f"extra{i // 2}", "to", f"new{i // 2}"]]
        execute(service, {"op": "update", "remove_edges" if i % 2 else "edges": edges})
        if i % 2:
            database.relation("from").discard((edges[0][0], edges[0][2]))
            database.relation("to").discard((edges[1][0], edges[1][2]))
        else:
            database.add_fact("from", edges[0][0], edges[0][2])
            database.add_fact("to", edges[1][0], edges[1][2])
        oracle = Engine(method="naive").evaluate(CLOSURE_PROGRAM, database)
        answers = {}
        for request, relation in ((closure, f"conn{i:02d}"), (rpq, "answers")):
            response = execute(service, request)
            if response["cache"] != "miss":
                fail(f"image round {i}: {request['op']} was not re-evaluated")
            answers[relation] = {tuple(row) for row in response["result"]["relations"][relation]}
        if answers[f"conn{i:02d}"] != oracle.facts("connected"):
            fail(f"image round {i}: closure answer diverges from the naive oracle")
        if answers["answers"] != {(y,) for x, y in oracle.facts("leg") if x == source}:
            fail(f"image round {i}: RPQ answer diverges from the naive oracle")
    edb = service.stats()["edb"]
    if (edb["builds"], edb["folds"], edb["fallbacks"]) != (1, rounds, {}):
        fail(f"image was not advanced by folding alone: {edb!r}")
    print(
        f"image: builds={edb['builds']} folds={edb['folds']} "
        f"folded_rows={edb['folded_rows']} catalog_terms={edb['catalog_terms']}"
    )


def kernel_strata(span):
    """The ``kernel="closure"`` engine strata in a slowlog span tree."""
    found = []
    if span["name"] == "engine.stratum" and span["attrs"].get("kernel") == "closure":
        found.append(span)
    for child in span["children"]:
        found.extend(kernel_strata(child))
    return found


def check_closure_kernel():
    """50 closure misses, each a text the service has never seen: every
    slowlog trace has exactly one ``kernel="closure"`` stratum and every
    answer equals the naive oracle."""
    rounds = 50
    database = random_flights(7, n_cities=20, n_flights=120)
    store = HAMStore()
    store.load_graph(graph_from_database(database))
    service = QueryService(
        store=store, config=ServiceConfig(slow_ms=0, slowlog_capacity=rounds)
    )
    oracle = Engine(method="naive").evaluate(CLOSURE_PROGRAM, database).facts("connected")
    for i in range(rounds):
        name = f"conn{i:02d}"
        query = CLOSURE_QUERY.replace("connected", name)
        response = execute(service, {"op": "graphlog", "query": query})
        if response["cache"] != "miss":
            fail(f"closure round {i}: the never-seen query was not evaluated")
        if {tuple(row) for row in response["result"]["relations"][name]} != oracle:
            fail(f"closure round {i}: answer diverges from the naive oracle")
    entries = service.slowlog.snapshot()
    counts = [len(kernel_strata(entry["trace"])) for entry in entries if "trace" in entry]
    if counts != [1] * rounds:
        fail(f"closure misses did not each run one kernel stratum: {counts!r}")
    print(f"closure kernel: {rounds} misses, {sum(counts)} kernel strata, all equal to naive")


INDIRECT_PROGRAM = """
leg(X, Y) :- from(F, X), to(F, Y).
connected(X, Y) :- leg(X, Y).
connected(X, Y) :- connected(X, Z), leg(Z, Y).
indirect(X, Y) :- connected(X, Y), not leg(X, Y).
"""


def keyed_answer_bytes(relations):
    """The bytes of an answer the old way: row lists sorted by each value's
    ``(type name, str(value))``, then one ``json.dumps`` over them."""
    wire = {
        name: [
            list(row)
            for row in sorted(rows, key=lambda r: tuple((type(v).__name__, str(v)) for v in r))
        ]
        for name, rows in relations.items()
    }
    count = sum(len(rows) for rows in relations.values())
    return json.dumps(
        {"relations": wire, "count": count}, separators=(",", ":"), sort_keys=True
    ).encode("utf-8")


def check_answers_are_bytes():
    """50 closure and 50 Datalog misses (texts never seen) on the network
    path: each answer's bytes are the keyed-sort oracle's bytes over the
    naive engine's answer, and the result cache holds exactly those bytes."""
    rounds = 50
    database = random_flights(7, n_cities=20, n_flights=120)
    store = HAMStore()
    store.load_graph(graph_from_database(database))
    service = QueryService(store=store, config=ServiceConfig())
    naive = Engine(method="naive").evaluate(parse_program(INDIRECT_PROGRAM), database)
    total = 0
    for i in range(rounds):
        name = f"conn{i:02d}"
        requests = (
            ({"op": "graphlog", "query": CLOSURE_QUERY.replace("connected", name)},
             {name: naive.facts("connected")}),
            ({"op": "datalog", "query": INDIRECT_PROGRAM.replace("connected", name)},
             {"leg": naive.facts("leg"), name: naive.facts("connected"),
              "indirect": naive.facts("indirect")}),
        )
        for request, oracle in requests:
            body = service.execute(request, wire=True)
            if body.get("cache") != "miss":
                fail(f"bytes round {i}: the never-seen {request['op']} was not evaluated")
            if body["encoded"] != keyed_answer_bytes(oracle):
                fail(f"bytes round {i}: {request['op']} bytes differ from the oracle's")
            total += len(body["encoded"])
    cached = service.stats()["result_cache"]
    if (cached["encoded_entries"], cached["encoded_bytes"]) != (2 * rounds, total):
        fail(f"the result cache does not hold exactly the answers' bytes: {cached!r}")
    print(f"answer bytes: {2 * rounds} misses, {total} bytes, all equal to the oracle's")


def check_maintained_entries():
    """50 × (add flight, read all, remove flight, read all) over the bench's
    flights data, 4 closures and 2 RPQs primed: each read evaluates once
    more — its first re-read, which promotes it — and is a hit ever after;
    the 4 closures, one program under four head names, pin one shared
    view; every answer equals the naive oracle."""
    sys.path.insert(0, os.path.join(ROOT, "bench"))
    from workloads import flights_database  # noqa: E402 — the bench's dataset

    rounds = 50
    database = flights_database(7)
    store = HAMStore()
    store.load_graph(graph_from_database(database))
    service = QueryService(store=store, config=ServiceConfig())
    cities = sorted({city for _flight, city in database.facts("from")})
    origin = cities[0]
    taken = {city for flight, city in database.facts("to") if (flight, origin) in database.facts("from")}
    # The added flight alternates between a city pair with no leg (the
    # closure, all 1 600 pairs, does not change) and a new city (it does).
    targets = [next(c for c in cities if c != origin and c not in taken), "Nowhere"]
    closures = [
        ({"op": "graphlog", "query": CLOSURE_QUERY.replace("connected", f"conn{j}")}, f"conn{j}")
        for j in range(4)
    ]
    rpqs = [
        ({"op": "rpq", "query": RPQ_EXPRESSION, "source": source}, source)
        for source in (origin, cities[1])
    ]
    oracles = {}

    def oracle(target):
        if target not in oracles:
            extended = database.copy()
            if target is not None:
                extended.add_fact("from", "extra", origin)
                extended.add_fact("to", "extra", target)
            oracles[target] = Engine(method="naive").evaluate(CLOSURE_PROGRAM, extended)
        return oracles[target]

    def read_all(label, target, promoting=False):
        expected = oracle(target)
        for request, name in closures + rpqs:
            response = execute(service, request)
            if response["cache"] != ("miss" if promoting else "hit"):
                fail(f"{label}: {request['op']} {name} answered {response['cache']!r}")
            if request["op"] == "graphlog":
                rows, wanted = response["result"]["relations"][name], expected.facts("connected")
            else:
                rows = response["result"]["relations"]["answers"]
                wanted = {(y,) for x, y in expected.facts("leg") if x == name}
            if {tuple(r) for r in rows} != wanted:
                fail(f"{label}: {request['op']} {name} diverges from the naive oracle")

    for request, _name in closures + rpqs:
        execute(service, request)
    for i in range(rounds):
        target = targets[i % 2]
        edges = [["extra", "from", origin], ["extra", "to", target]]
        execute(service, {"op": "update", "edges": edges})
        read_all(f"maintained round {i} (added)", target, promoting=i == 0)
        execute(service, {"op": "update", "remove_edges": edges})
        read_all(f"maintained round {i} (removed)", None)
    stats = service.stats()
    cached = stats["result_cache"]
    evaluations = stats["metrics"]["phases"]["evaluate"]["count"]
    reads = len(closures + rpqs)
    views = sorted(view["pins"] for view in stats["subs"]["views"].values())
    if (cached["maintained"], cached["promotions"], cached["demotions"]) != (reads, reads, 0):
        fail(f"the reads are not {reads} maintained entries: {cached!r}")
    if views != [1] * len(rpqs) + [len(closures)]:
        fail(f"the closures do not share one view (pins per view: {views})")
    if evaluations != 2 * reads:
        fail(f"{evaluations} evaluate phases, expected {2 * reads}: a maintained entry re-evaluated")
    print(
        f"maintained entries: {len(closures)} closures on 1 shared view with {views[-1]} pins, "
        f"{len(rpqs)} RPQs, {cached['promotions']} promotions, {evaluations} evaluations, "
        "all equal to naive"
    )


REACH_QUERY = "define (X) -[reach]-> (Y) { (X) -[link+]-> (Y); }"
REACH_PROGRAM = parse_program(
    """
    reach(X, Y) :- link(X, Y).
    reach(X, Y) :- reach(X, Z), link(Z, Y).
    """
)


class _Sink:
    """A subscriber's push channel: frames are drained, not pushed, here."""

    def notify(self):
        pass


def check_commits_share_structure():
    """50 × (remove edge, re-add edge) on 750 and on 7 500 edges: two
    ``add_edge`` calls per added edge, at either size."""
    rounds, chain_nodes = 50, 16
    calls = []
    original = LabeledMultigraph.add_edge

    def counted(self, source, target, label):
        calls.append((source, target))
        return original(self, source, target, label)

    for chains in (50, 500):
        database = Database()
        for chain in range(chains):
            database.add_facts(
                "link",
                [(f"c{chain}n{i}", f"c{chain}n{i + 1}") for i in range(chain_nodes - 1)],
            )
        edges = chains * (chain_nodes - 1)
        store = HAMStore()
        store.load_graph(graph_from_database(database))
        with tempfile.TemporaryDirectory() as data_dir:
            service = QueryService(
                store=store, config=ServiceConfig(data_dir=data_dir, fsync="always")
            )
            sink = _Sink()
            subscribed = service.execute({"op": "subscribe", "query": REACH_QUERY}, sink=sink)
            if "result" not in subscribed:
                fail(f"sharing {edges} edges: subscribe failed: {subscribed!r}")
            rows = {tuple(row) for row in subscribed["result"]["snapshot"]["reach"]}
            del calls[:]
            LabeledMultigraph.add_edge = counted
            try:
                for i in range(rounds):
                    chain = i % chains
                    edge = [[f"c{chain}n7", "link", f"c{chain}n8"]]
                    execute(service, {"op": "update", "remove_edges": edge})
                    execute(service, {"op": "update", "edges": edge})
            finally:
                LabeledMultigraph.add_edge = original
            frames, _disconnect = service.subs.drain(sink)
            for frame in frames:
                rows -= {tuple(row) for row in frame.get("deleted", {}).get("reach", ())}
                rows |= {tuple(row) for row in frame.get("inserted", {}).get("reach", ())}
            fresh = execute(service, {"op": "graphlog", "query": REACH_QUERY})
            fresh = {tuple(row) for row in fresh["result"]["relations"]["reach"]}
            final = service.store.graph
            service.subs.close()
            service.durability.close()
        if len(calls) != 2 * rounds:
            fail(
                f"sharing {edges} edges: {rounds} added edges took {len(calls)} "
                f"add_edge calls, expected {2 * rounds} — is a commit rebuilding "
                "the graph again?"
            )
        if len(frames) != 2 * rounds:
            fail(f"sharing {edges} edges: {len(frames)} delta frames for {2 * rounds} commits")
        oracle = Engine(method="naive").evaluate(REACH_PROGRAM, database).facts("reach")
        if not (rows == fresh == oracle):
            fail(f"sharing {edges} edges: subscriber / fresh query / oracle diverge")
        if (
            database_from_graph(final).facts("link") != database.facts("link")
            or final.edge_count() != edges
        ):
            fail(f"sharing {edges} edges: final graph differs from the loaded one")
        print(f"sharing: {edges} edges, {rounds} re-added: add_edge calls={len(calls)}")


def main():
    check_abl6_chain()
    check_abl7_service()
    check_image_folds()
    check_closure_kernel()
    check_answers_are_bytes()
    check_maintained_entries()
    check_commits_share_structure()
    print("benchmark_smoke: OK")


if __name__ == "__main__":
    main()
