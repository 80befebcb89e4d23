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
  (commit, closure miss, RPQ miss, summary miss) on one service must end
  with one build, 50 folds, no fallback and every answer equal to the naive
  engine's — so a refactor that silently drops back to rebuilding the image
  per commit fails here instead of only moving a latency.  Inside
  ``QueryService.execute``, the whole check may call ``database_from_graph``
  once (the build), so a summary miss that converts the graph again fails
  here, and the closure and RPQ misses of the 50 rounds after it may
  construct no ``Relation``: the image is one encoded database, and a
  change that keeps a decoded twin of it fails here.

- facts encoded by several graph items, by counts alone: two sequences
  commit a fact twice through different items — the endpoint splits
  ``(a, b) -p-> c`` and ``a -p-> (b, c)``, an edge ``t -mark-> 1`` and the
  annotation of the tuple node ``(t, 1)`` — then remove one of them.  The
  image must advance by folds alone, and every never-seen miss and re-read
  must answer what the naive engine answers over the graph: the fact still
  holds, so a delta that drops it (and the image that folds that delta)
  fails here.

- summary misses beside unrelated data, by one timer: the median of 15
  never-seen summary reads over 200 weighted ``hop`` edges is printed beside
  1 000 and beside 40 000 unrelated edges, and may grow at most 1.5× — a
  summary miss decodes only the relations it names from the image.

- the closure kernel, by counts alone: 50 closure misses (each a query text
  the service has never seen) must each record exactly one
  ``kernel="closure"`` stratum in their slowlog trace and answer what the
  naive engine answers — so a change that sends closure strata back to the
  generic semi-naive loop fails here.

- each derived row handled once, by counts alone: 50 never-seen closure
  misses and 50 never-seen stratified-negation Datalog misses must record
  exactly one round in every stratum off the closure kernel (none of their
  rules reads its own group), read no relation's index over all its
  columns as anything but its key set (``not leg(X, Y)`` probes ``leg``'s
  keys), and answer what the naive engine answers — so a fixpoint that
  stops recording a non-recursive stratum's one round, or builds a
  full-width index of a relation it already holds as a key set, fails here.

- answers as bytes, by counts alone: 50 never-seen closure misses, 50
  never-seen stratified-negation Datalog misses and 50 never-seen
  single-source RPQ misses through ``execute(..., wire=True)`` must each
  carry exactly the bytes the keyed-sort oracle writes for the naive
  engine's answer, decode 0 answer rows into tuples of values (they are
  encoded from the int rows of the fixpoint or of the search over the store
  image), and leave ``stats.result_cache.encoded_bytes`` at the sum of their
  lengths — so a change that goes back to decoding a miss's answer, to
  caching row lists, to searching an RPQ on a graph-side index, or orders a
  row differently, fails here.

- maintained result-cache entries, by counts alone: over the bench's
  flights data with 4 closures and 2 RPQs primed, 50 × (add flight, read
  all, remove flight, read all) may run one more ``evaluate`` phase per
  read — its first re-read, which promotes it to an entry its view keeps
  current: 12 in all — with the 4 closures (one program under four head
  names) pinning one shared view; every answer equals the naive oracle's.
  A change that drops maintained entries on a commit, or stops sharing a
  renamed program's view, fails here instead of only moving
  ``routed_mixed``'s numbers.

- plain entries a commit does not touch, by counts alone: 64 distinct
  Datalog reads of ``hop``, then 50 commits to ``from``/``to``, must leave
  every re-read a hit at the final version with no new ``evaluate`` phase.
  ``ResultCache.apply_commit``'s median at 64 and 1 024 entries is printed.

- structure sharing between store versions, by counts alone: 50 × (remove
  edge, re-add edge) through a durable :class:`QueryService` with one
  subscriber, on a 750-edge and on a 7 500-edge chains graph, may call
  ``LabeledMultigraph.add_edge`` — the only place an ``Edge`` is made —
  exactly once per added edge (in the version the commit publishes) and
  ``LabeledMultigraph.copy`` exactly once per commit (the version it
  derives; 100 commits stay below the log's trim), whatever the graph's
  size; and the final graph, the subscriber's rows and a fresh query all
  equal the naive oracle.  A refactor that goes back to rebuilding the
  graph per commit, or that gives a transaction a graph of its own again,
  fails here instead of only moving a latency.  Every WAL payload those
  commits wrote holds exactly ``txn``, ``session``, ``version`` and
  ``ops``, and recovering the data directory into a fresh store derives
  the live store's delta at every version — so a change that writes the
  derived delta back into the log, or a replay that stages a commit
  differently, fails here too.  The WAL bytes per commit are printed.

- a cold miss passes over its program once, by counts alone: 30
  never-seen misses of each of ``cold_eval``'s Datalog and GraphLog shapes
  through ``ServiceServer._handle_request`` must each answer what the naive
  engine answers, build one program dependence graph with one SCC pass
  over it, call none of ``stratify``, ``closure_base`` and
  ``schedule_body`` inside ``PreparedQuery.evaluate`` (the fixpoint runs
  the ``ProgramPlan`` built at prepare), fingerprint the text once (the
  event loop's resident peek, the worker's lookup and the new plan share
  one memoized digest), and make one set in each merge into an empty
  relation; building a maintained ``MaterializedView`` of a prepared
  query and evaluating it runs one SCC pass — so a change that re-plans
  at evaluation, fingerprints a text again, or copies a first merge's
  rows into a second set fails here.

- a serving store's memory is bounded: 20 000 one-edge churn commits
  through ``ServiceServer._handle_request``, with a live subscriber, a
  never-seen closure miss every 50 commits (checked against the naive
  engine) and an in-process replica, must keep ``retained_records`` at or
  under twice ``repro.ham.store.HISTORY_WINDOW`` throughout, fold the image
  across the log's trims (one build), and grow traced memory by < 1 MB
  from the first trim to the last — so a store that keeps every record it
  committed fails here, with its retained count.

Any divergence from the naive oracle fails the job.  Timings are printed
for trend-watching and, but for the summary-miss ratio, *not* gated here.

Run from the repository root::

    PYTHONPATH=src python scripts/benchmark_smoke.py

Exits non-zero (with a diagnostic on stderr) on any failure.
"""

from __future__ import annotations

import asyncio
import gc
import json
import os
import random
import statistics
import sys
import tempfile
import time
import tracemalloc
from collections import Counter
from contextlib import contextmanager

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from repro.core.dsl import parse_graphical_query  # noqa: E402
from repro.core import engine as graphlog  # noqa: E402
from repro.core.engine import GraphLogEngine  # noqa: E402
from repro.datalog import classify, columnar, safety  # noqa: E402
from repro.datalog.database import Database, Relation  # noqa: E402
from repro.datalog.dred import MaintainedState  # noqa: E402
from repro.datalog.engine import Answer, Engine  # noqa: E402
from repro.datalog.parser import parse_program  # noqa: E402
from repro.datasets.flights import random_flights  # noqa: E402
from repro.graphs import bridge  # noqa: E402
from repro.graphs.bridge import database_from_graph, graph_from_database  # noqa: E402
from repro.graphs.multigraph import LabeledMultigraph  # noqa: E402
from repro.ham.image import StoreImages  # noqa: E402
from repro.ham.store import HISTORY_WINDOW, HAMStore  # noqa: E402
from repro.ham.views import MaterializedView  # noqa: E402
from repro.io import graph_from_json  # noqa: E402
from repro.persist import DurabilityManager, PersistenceConfig, wal  # noqa: E402
from repro.persist.serde import record_from_json  # noqa: E402
from repro.service import protocol  # noqa: E402
from repro.service.cache import ResultCache, result_key  # noqa: E402
from repro.service.server import QueryService, ServiceConfig, ServiceServer  # noqa: E402

prepared_module = sys.modules["repro.service.prepared"]
stratify_module = sys.modules["repro.datalog.stratify"]

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


def execute(service, request, sink=None):
    response = service.execute(request, sink=sink)
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
# The earliest departure over all itineraries between two cities: a path
# summary over a defined relation of legs weighted by departure time.
SUMMARY_QUERY = """
define (C1) -[leg(T)]-> (C2) { (C1) <-[from]- (F); (F) -[to]-> (C2); (F) -[departure]-> (T); }
define (C1) -[soonest(V)]-> (C2) { (C1) -[leg @ shortest V]-> (C2); }
"""
CLOSURE_PROGRAM = parse_program(
    """
    leg(X, Y) :- from(F, X), to(F, Y).
    connected(X, Y) :- leg(X, Y).
    connected(X, Y) :- connected(X, Z), leg(Z, Y).
    """
)


#: What the image check counts inside ``QueryService.execute``: a decoded
#: relation constructed, and a graph decoded into a database.
RELATION_BUILT = (Relation, "__init__")
#: The graph decoder is counted under each name a module binds it to.
GRAPH_DECODED = ((bridge, "database_from_graph"), (graphlog, "database_from_graph"))


@contextmanager
def calls_inside(host, method, *points):
    """A :class:`Counter` that, while inside, counts the calls to each
    ``(owner, name)`` of *points* made inside ``host.method``."""
    counts = Counter()
    depth = [0]
    execute = getattr(host, method)
    originals = [(owner, name, getattr(owner, name)) for owner, name in points]

    def executing(*args, **kwargs):
        depth[0] += 1
        try:
            return execute(*args, **kwargs)
        finally:
            depth[0] -= 1

    setattr(host, method, executing)
    for owner, name, original in originals:

        def counted(*args, _point=(owner, name), _original=original, **kwargs):
            counts[_point] += depth[0] > 0
            return _original(*args, **kwargs)

        setattr(owner, name, counted)
    try:
        yield counts
    finally:
        setattr(host, method, execute)
        for owner, name, original in originals:
            setattr(owner, name, original)


def check_image_folds():
    """50 × (commit, closure miss, RPQ miss, summary miss): the image is
    built once — the one ``database_from_graph`` call a request makes — and
    folded 50 times with no ``Relation`` constructed by the closure and RPQ
    misses, and every answer tracks the naive oracle throughout.  Each
    round's queries are texts never seen before: a re-read one would be a
    cached or maintained entry and need no image
    (``check_maintained_entries``)."""
    rounds = 50
    database = random_flights(7, n_cities=12, n_flights=40)
    store = HAMStore()
    store.load_graph(graph_from_database(database))
    service = QueryService(store=store, config=ServiceConfig())
    source = sorted(city for _flight, city in database.facts("from"))[0]
    with calls_inside(QueryService, "execute", RELATION_BUILT, *GRAPH_DECODED) as calls:
        execute(service, {"op": "graphlog", "query": CLOSURE_QUERY})  # the one build
        calls[RELATION_BUILT] = 0
        for i in range(rounds):
            query = CLOSURE_QUERY.replace("connected", f"conn{i:02d}")
            closure = {"op": "graphlog", "query": query}
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
                rows = response["result"]["relations"][relation]
                answers[relation] = {tuple(row) for row in rows}
            if answers[f"conn{i:02d}"] != oracle.facts("connected"):
                fail(f"image round {i}: closure answer diverges from the naive oracle")
            if answers["answers"] != {(y,) for x, y in oracle.facts("leg") if x == source}:
                fail(f"image round {i}: RPQ answer diverges from the naive oracle")
            # A summary decodes the relations it names into Relations; only
            # the closure and RPQ misses are held to constructing none.
            built, name = calls[RELATION_BUILT], f"soon{i:02d}"
            query = SUMMARY_QUERY.replace("soonest", name)
            response = execute(service, {"op": "graphlog", "query": query})
            calls[RELATION_BUILT] = built
            rows = {tuple(row) for row in response["result"]["relations"][name]}
            graphical = parse_graphical_query(query)
            if response["cache"] != "miss" or rows != GraphLogEngine("naive").answers(
                graphical, database, name
            ):
                fail(f"image round {i}: summary miss diverges from the naive oracle")
    edb = service.stats()["edb"]
    if (edb["builds"], edb["folds"], edb["fallbacks"]) != (1, rounds, {}):
        fail(f"image was not advanced by folding alone: {edb!r}")
    decoded = sum(calls[point] for point in GRAPH_DECODED)
    if calls[RELATION_BUILT] or decoded != 1:
        fail(
            f"a miss decodes the store: {calls[RELATION_BUILT]} Relation constructions "
            f"in {rounds} rounds, {decoded} database_from_graph calls"
        )
    print(
        f"image: builds={edb['builds']} folds={edb['folds']} "
        f"folded_rows={edb['folded_rows']} catalog_terms={edb['catalog_terms']} "
        f"relations_built={calls[RELATION_BUILT]} database_from_graph={decoded}"
    )


ALIASED_FACTS = (
    (
        "q(X, Y, Z) :- p(X, Y, Z).",
        [
            [("add_edge", ("a", "b"), "c", "p")],
            [("add_edge", "a", ("b", "c"), "p")],
            [("remove_edge", "a", ("b", "c"), "p")],
        ],
    ),
    (
        "q(X, Y) :- mark(X, Y).",
        [
            [("add_node", ("t", 1), "mark")],
            [("add_edge", "t", 1, "mark")],
            [("remove_edge", "t", 1, "mark")],
        ],
    ),
)


def check_aliased_facts_fold():
    """Both aliasing sequences, committed through ``service.store`` sessions
    (the wire carries no tuple nodes): after every commit a never-seen miss
    and a re-read of one query answer what the naive engine answers over
    the committed graph, and the image is built once and folded after."""
    misses = 0
    for number, (query, commits) in enumerate(ALIASED_FACTS):
        service = QueryService(store=HAMStore(), config=ServiceConfig())
        for step, edits in enumerate(commits):
            with service.store.session().transaction() as txn:
                for kind, *args in edits:
                    getattr(txn, kind)(*args)
            database = database_from_graph(service.store.graph)
            oracle = Engine(method="naive").evaluate(parse_program(query), database)
            fresh = query.replace("q(", f"q{step}(")
            for text, head in ((fresh, f"q{step}"), (query, "q")):
                response = execute(service, {"op": "datalog", "query": text, "predicate": head})
                misses += response["cache"] == "miss"
                rows = {tuple(row) for row in response["result"]["relations"].get(head, ())}
                if rows != oracle.facts("q"):
                    fail(
                        f"aliased facts {number}, commit {step}: {head} answers "
                        f"{sorted(rows)!r}, the naive oracle {sorted(oracle.facts('q'))!r}"
                    )
        edb = service.stats()["edb"]
        if (edb["builds"], edb["folds"], edb["fallbacks"]) != (1, len(commits) - 1, {}):
            fail(f"aliased facts {number}: image was not advanced by folding alone: {edb!r}")
    print(f"aliased facts: 2 sequences, {misses} misses, every answer the naive oracle's")


def summary_service(hops, unrelated):
    """A service over the weighted *hops* plus *unrelated* edges no summary
    names."""
    database = hops.copy()
    database.add_facts("other", [(f"u{i}", f"u{i + 1}") for i in range(unrelated)])
    store = HAMStore()
    store.load_graph(graph_from_database(database))
    return QueryService(store=store, config=ServiceConfig())


def check_summary_misses_ignore_unrelated_data(reads=15):
    """A summary miss reads only what it names: over 200 weighted ``hop``
    edges (40 chains of 5), the median of *reads* misses — each a
    never-seen text, each answer checked against the naive oracle — beside
    40 000 unrelated edges stays within 1.5× of the one beside 1 000.  The
    two services answer in turn, so both medians see the same box."""
    rng = random.Random(7)
    hops = Database.from_facts(
        {"hop": [(f"n{c}.{k}", f"n{c}.{k + 1}", rng.randint(1, 9))
                 for c in range(40) for k in range(5)]}
    )
    sizes = (1_000, 40_000)
    services = [summary_service(hops, unrelated) for unrelated in sizes]
    texts = [
        f"define (X) -[best{i:02d}(V)]-> (Y) {{ (X) -[hop @ shortest V]-> (Y); }}"
        for i in range(reads + 1)
    ]
    oracle = GraphLogEngine("naive").answers(parse_graphical_query(texts[0]), hops, "best00")
    times = [[], []]
    try:
        for i, text in enumerate(texts):  # the first read builds the image
            for service, unrelated, samples in zip(services, sizes, times):
                request = {"op": "graphlog", "query": text}
                elapsed, response = timed(lambda: execute(service, request))
                rows = {tuple(row) for row in response["result"]["relations"][f"best{i:02d}"]}
                if response["cache"] != "miss" or rows != oracle:
                    fail(f"summary read {i} beside {unrelated} edges diverges from the naive oracle")
                samples.append(elapsed)
    finally:
        for service in services:
            service.close()
    small, large = (statistics.median(samples[1:]) * 1e3 for samples in times)
    print(
        f"summary miss p50: {small:.2f} ms beside 1 000 unrelated edges, "
        f"{large:.2f} ms beside 40 000 ({large / small:.2f}x)"
    )
    if large > 1.5 * small:
        fail(f"a summary miss grows with unrelated data: {large:.2f} vs {small:.2f} ms")


def engine_strata(span):
    """The engine strata in a slowlog span tree."""
    found = [span] if span["name"] == "engine.stratum" else []
    for child in span["children"]:
        found.extend(engine_strata(child))
    return found


def kernel_strata(span):
    """The ``kernel="closure"`` engine strata in a slowlog span tree."""
    return [s for s in engine_strata(span) if s["attrs"].get("kernel") == "closure"]


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


@contextmanager
def full_width_indexes():
    """A list that, while inside, gets the arity of each relation whose
    index over all its columns is read as anything but its key set."""
    built = []
    original = columnar.ColumnarRelation.index

    def counted(relation, positions):
        index = original(relation, positions)
        if len(positions) == relation.arity and index is not relation.keys:
            built.append(relation.arity)
        return index

    columnar.ColumnarRelation.index = counted
    try:
        yield built
    finally:
        columnar.ColumnarRelation.index = original


def check_rows_once():
    """50 never-seen closure misses and 50 never-seen stratified-negation
    Datalog misses: every stratum off the closure kernel (none of their
    rules reads its own group) records exactly one round, ``not leg(X, Y)``
    probes ``leg``'s key set, so no relation's index over all its columns
    is built, and every answer equals the naive oracle."""
    rounds = 50
    database = random_flights(7, n_cities=20, n_flights=120)
    store = HAMStore()
    store.load_graph(graph_from_database(database))
    service = QueryService(
        store=store, config=ServiceConfig(slow_ms=0, slowlog_capacity=2 * rounds)
    )
    naive = Engine(method="naive").evaluate(parse_program(INDIRECT_PROGRAM), database)
    with full_width_indexes() as built:
        for i in range(rounds):
            closure, negation = f"conn{i:02d}", f"indirect{i:02d}"
            for op, query, head, oracle in (
                ("graphlog", CLOSURE_QUERY.replace("connected", closure), closure, "connected"),
                ("datalog", INDIRECT_PROGRAM.replace("indirect", negation), negation, "indirect"),
            ):
                response = execute(service, {"op": op, "query": query})
                if response["cache"] != "miss":
                    fail(f"rows-once round {i}: the never-seen {op} query was not evaluated")
                rows = {tuple(row) for row in response["result"]["relations"][head]}
                if rows != naive.facts(oracle):
                    fail(f"rows-once round {i}: {head} diverges from the naive oracle")
    if built:
        fail(f"misses built {len(built)} full-width indexes, arities {sorted(set(built))!r}")
    traces = [entry["trace"] for entry in service.slowlog.snapshot() if "trace" in entry]
    strata = [s for trace in traces for s in engine_strata(trace) if "kernel" not in s["attrs"]]
    rounds_each = Counter(len(s["attrs"].get("iterations", ())) for s in strata)
    if len(traces) != 2 * rounds or set(rounds_each) != {1}:
        fail(f"{len(traces)} traces; rounds per non-recursive stratum: {dict(rounds_each)!r}")
    print(
        f"rows once: {2 * rounds} misses, {len(strata)} non-recursive strata of "
        f"one round each, 0 full-width indexes built, all equal to naive"
    )


@contextmanager
def cold_miss_counts():
    """A dict that, while inside, counts the program dependence graphs built
    (``graphs``) and their SCC passes (``sccs``), the fingerprints computed
    (``fingerprints``: texts normalized and hashed, which a memoized repeat
    skips), and the sets each merge into an empty
    relation makes (``first_merges``, one entry per such merge): the set
    builds go through a counting ``set`` in the columnar module, whose sets
    count their ``difference`` too."""
    counts = {"graphs": 0, "sccs": 0, "fingerprints": 0, "first_merges": []}
    built = []

    class CountedSet(set):
        def difference(self, *others):
            built.append(1)
            return CountedSet(set.difference(self, *others))

    def counting_set(*args):
        built.append(1)
        return CountedSet(*args)

    of_program = stratify_module.DependenceGraph.of_program.__func__
    scc = stratify_module.DependenceGraph.strongly_connected_components
    merge_run = columnar.ColumnarRelation.merge_run
    normalize = prepared_module.normalize

    def counted_graph(cls, program, negative_extra=None):
        counts["graphs"] += 1
        graph = of_program(cls, program, negative_extra)
        graph.counted = True
        return graph

    def counted_scc(graph):
        counts["sccs"] += getattr(graph, "counted", False)
        return scc(graph)

    def counted_merge(relation, rows):
        first, before = not relation.keys, len(built)
        fresh = merge_run(relation, rows)
        if first:
            counts["first_merges"].append(len(built) - before)
        return fresh

    def counted_normalize(text):
        counts["fingerprints"] += 1
        return normalize(text)

    patches = [
        (stratify_module.DependenceGraph, "of_program", classmethod(counted_graph)),
        (stratify_module.DependenceGraph, "strongly_connected_components", counted_scc),
        (columnar.ColumnarRelation, "merge_run", counted_merge),
        (columnar, "set", counting_set),
        (prepared_module, "normalize", counted_normalize),
    ]
    saved = [(owner, name, owner.__dict__.get(name)) for owner, name, _ in patches]
    for owner, name, value in patches:
        setattr(owner, name, value)
    try:
        yield counts
    finally:
        for owner, name, value in saved:
            if value is None:
                delattr(owner, name)
            else:
                setattr(owner, name, value)


def planner_bindings():
    """Every ``(module, name)`` binding of ``stratify``, ``closure_base`` or
    ``schedule_body`` in a loaded ``repro`` module: the defining one and
    each that imported it by name."""
    planners = (stratify_module.stratify, classify.closure_base, safety.schedule_body)
    return [
        (module, name)
        for module_name, module in list(sys.modules.items())
        if module_name.startswith("repro.")
        for name, value in list(vars(module).items())
        if any(value is planner for planner in planners)
    ]


def check_cold_miss_passes(rounds=30):
    """30 never-seen misses of each of ``cold_eval``'s Datalog and GraphLog
    shapes through a node's request handler: each answers what the naive
    engine answers, builds one program dependence graph and runs one SCC
    pass over it, all at prepare (``PreparedQuery.evaluate`` calls no
    ``stratify``, ``closure_base`` or ``schedule_body``: the fixpoint runs
    the plan's ``ProgramPlan``), fingerprints its text once (the event
    loop's peek, the worker's lookup and the new plan share one memoized
    digest), and makes one set per merge into an empty relation.  Then a
    maintained view of a prepared closure query, built and evaluated, runs
    one SCC pass: its maintenance and its fixpoint share one plan."""
    database = random_flights(7, n_cities=20, n_flights=120)
    store = HAMStore()
    store.load_graph(graph_from_database(database))
    server = ServiceServer(store=store)
    naive = Engine(method="naive").evaluate(parse_program(INDIRECT_PROGRAM), database)
    loop = asyncio.new_event_loop()
    requests = []
    for i in range(rounds):
        tag = f"m{i:02d}"  # no other check's text: fingerprints are memoized
        program = INDIRECT_PROGRAM
        for name in ("indirect", "connected", "leg"):
            program = program.replace(name, f"{name}{tag}")
        closure = CLOSURE_QUERY.replace("connected", f"conn{tag}")
        requests.append(("datalog", program, f"indirect{tag}", "indirect"))
        requests.append(("graphlog", closure, f"conn{tag}", "connected"))
    planning = calls_inside(prepared_module.PreparedQuery, "evaluate", *planner_bindings())
    try:
        with cold_miss_counts() as counts, planning as planned:
            for op, query, head, oracle in requests:
                line = protocol.encode({"id": 1, "op": op, "query": query, "predicate": head})
                response, encoded = loop.run_until_complete(server._handle_request(line))
                if not response["ok"] or response["cache"] != "miss":
                    fail(f"cold miss passes: {op} {head} was not a miss: {response!r}")
                rows = {tuple(row) for row in json.loads(encoded)["relations"][head]}
                if rows != naive.facts(oracle):
                    fail(f"cold miss passes: {head} diverges from the naive oracle")
        prepared = prepared_module.PreparedQuery(
            "graphlog", CLOSURE_QUERY.replace("connected", "connview")
        )
        with cold_miss_counts() as view_counts:
            view = MaterializedView(prepared, StoreImages(store))
            view.refresh()
    finally:
        loop.run_until_complete(loop.shutdown_default_executor())
        loop.close()
        server.service.close()
    misses = len(requests)
    per_merge = Counter(counts["first_merges"])
    if (counts["graphs"], counts["sccs"], counts["fingerprints"]) != (misses, misses, misses):
        fail(
            f"{misses} misses built {counts['graphs']} program dependence graphs, ran "
            f"{counts['sccs']} SCC passes over them and {counts['fingerprints']} fingerprints"
        )
    if set(per_merge) != {1}:
        fail(f"sets built per first merge: {dict(per_merge)!r}")
    replanned = {f"{module.__name__}.{name}": n for (module, name), n in planned.items() if n}
    if replanned:
        fail(f"{misses} misses planned again while evaluating: {replanned!r}")
    if view.mode != "maintained" or view_counts["sccs"] != 1:
        fail(
            f"a {view.mode} view of a prepared closure query ran {view_counts['sccs']} "
            "SCC passes to build and evaluate"
        )
    print(
        f"cold miss passes: {misses} misses, 1 dependence graph, 1 SCC pass and "
        f"1 fingerprint each, 0 planning calls while evaluating; "
        f"{len(counts['first_merges'])} first merges of one set each; "
        f"a maintained view: 1 SCC pass"
    )


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


@contextmanager
def decoded_rows():
    """A list that, while inside, gets the number of rows each decoding
    entry point of the evaluation core turns from ids into tuples of
    values, and of the rows of values (not ids) an answer hands the
    encoder — an RPQ searched on the graph instead of the store image."""
    counts = []
    points = (
        (Answer, "decoded", lambda answer: answer.relations if answer.values is not None else {}),
        (protocol, "encode_answer", lambda relations, values=None: relations if values is None else {}),
        (columnar, "decode_rows", lambda relation, _values: {None: relation.rows}),
        (columnar.TermCatalog, "decode_row", lambda _catalog, row: {None: [row]}),
        (MaintainedState, "decode", lambda _state, rows: {None: rows}),
    )
    originals = []
    for owner, name, decoding in points:
        original = getattr(owner, name)
        originals.append((owner, name, original))

        def counted(*args, _original=original, _decoding=decoding):
            counts.append(sum(map(len, _decoding(*args).values())))
            return _original(*args)

        setattr(owner, name, counted)
    try:
        yield counts
    finally:
        for owner, name, original in originals:
            setattr(owner, name, original)


def check_answers_are_bytes():
    """50 closure, 50 stratified-negation Datalog and 50 single-source RPQ
    misses (texts never seen) on the network path: each answer's bytes are
    the keyed-sort oracle's bytes over the naive engine's answer, no answer
    row is decoded into a tuple of values or handed to the encoder as one,
    and the result cache holds exactly those bytes."""
    rounds = 50
    database = random_flights(7, n_cities=20, n_flights=120)
    store = HAMStore()
    store.load_graph(graph_from_database(database))
    service = QueryService(store=store, config=ServiceConfig())
    naive = Engine(method="naive").evaluate(parse_program(INDIRECT_PROGRAM), database)
    cities = sorted({city for _flight, city in database.facts("from")})
    total = 0
    for i in range(rounds):
        name = f"conn{i:02d}"
        source = cities[i % len(cities)]
        requests = (
            ({"op": "graphlog", "query": CLOSURE_QUERY.replace("connected", name)},
             {name: naive.facts("connected")}),
            ({"op": "datalog", "query": INDIRECT_PROGRAM.replace("connected", name)},
             {"leg": naive.facts("leg"), name: naive.facts("connected"),
              "indirect": naive.facts("indirect")}),
            ({"op": "rpq", "query": f"({RPQ_EXPRESSION})+ | nolabel{i:02d}", "source": source},
             {"answers": {(y,) for x, y in naive.facts("connected") if x == source}}),
        )
        for request, oracle in requests:
            with decoded_rows() as decoded:
                body = service.execute(request, wire=True)
            if sum(decoded):
                fail(f"bytes round {i}: the {request['op']} miss decoded {sum(decoded)} rows")
            if body.get("cache") != "miss":
                fail(f"bytes round {i}: the never-seen {request['op']} was not evaluated")
            if body["encoded"] != keyed_answer_bytes(oracle):
                fail(f"bytes round {i}: {request['op']} bytes differ from the oracle's")
            total += len(body["encoded"])
    cached = service.stats()["result_cache"]
    if (cached["encoded_entries"], cached["encoded_bytes"]) != (3 * rounds, total):
        fail(f"the result cache does not hold exactly the answers' bytes: {cached!r}")
    print(
        f"answer bytes: {3 * rounds} misses, {total} bytes, 0 rows decoded, "
        "all equal to the oracle's"
    )


def check_maintained_entries():
    """50 × (add flight, read all, remove flight, read all) over the bench's
    flights data, 4 closures and 2 RPQs primed: each read evaluates once
    more — its first re-read, which promotes it — and is a hit ever after;
    the 4 closures, one program under four head names, pin one shared
    view, and the 2 RPQs, one path expression from two sources, one seeded
    view — so each commit after the promotions runs two view passes; every
    answer equals the naive oracle."""
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
    passes = {view["maintenance_passes"] for view in stats["subs"]["views"].values()}
    if (cached["maintained"], cached["promotions"], cached["demotions"]) != (reads, reads, 0):
        fail(f"the reads are not {reads} maintained entries: {cached!r}")
    if views != [len(rpqs), len(closures)]:
        fail(f"the closures, and the RPQs, do not share one view each (pins per view: {views})")
    if passes != {2 * rounds - 1}:
        fail(f"view passes {passes}: expected one per view per commit after the promotions")
    if evaluations != 2 * reads:
        fail(f"{evaluations} evaluate phases, expected {2 * reads}: a maintained entry re-evaluated")
    print(
        f"maintained entries: {len(closures)} closures on 1 shared view with {views[-1]} pins, "
        f"{len(rpqs)} RPQs on 1 seeded view, {cached['promotions']} promotions, "
        f"{evaluations} evaluations, all equal to naive"
    )


def apply_commit_median_ms(entries, commits=200):
    """The median time of ``ResultCache.apply_commit`` over *commits*
    commits none of the cache's *entries* plain answers reads."""
    cache = ResultCache(capacity=entries)
    for i in range(entries):
        cache.put(result_key(f"q{i}", {}), b"answer", 1, 0, frozenset({"hop"}))
    times = []
    for version in range(1, commits + 1):
        started = time.perf_counter()
        cache.apply_commit(version, {"from", "to"})
        times.append(time.perf_counter() - started)
    return statistics.median(times) * 1e3


def check_unread_entries_survive_commits():
    """64 distinct Datalog reads of ``hop``, then 50 commits to
    ``from``/``to``: every re-read is a hit at the final version and no
    read evaluates again — a commit never drops an answer whose footprint
    it misses.  Then 8 starred GraphLog reads of ``hop``, whose zero-step
    branch reads the active domain, and 50 commits that add and remove a
    ``from`` edge between stored values: the domain never moves, so every
    read is still a hit and none evaluates."""
    rounds, reads, starred = 50, 64, 8
    store = HAMStore()
    hops = {("a", "b"), ("b", "c"), ("c", "a")}
    with store.session().transaction() as txn:
        for a, b in sorted(hops):
            txn.add_edge(a, b, "hop")
    service = QueryService(store=store, config=ServiceConfig())
    requests = [{"op": "datalog", "query": f"p{i}(X, Y) :- hop(X, Y)."} for i in range(reads)]
    stars = [
        {"op": "graphlog", "query": f"define (X) -[s{i}]-> (Y) {{ (X) -[hop*]-> (Y); }}"}
        for i in range(starred)
    ]

    def evaluations():
        return service.stats()["metrics"]["phases"]["evaluate"]["count"]

    def reread(requests, names, expected):
        for i, request in enumerate(requests):
            response = execute(service, request)
            if (response["cache"], response["version"]) != ("hit", store.version):
                fail(f"re-read {i} answered {response['cache']!r} at {response['version']}")
            rows = {tuple(row) for row in response["result"]["relations"][f"{names}{i}"]}
            if rows != expected:
                fail(f"re-read {i} of {names} diverges from the hop edges")

    for request in requests:
        execute(service, request)
    before = evaluations()
    for i in range(rounds):
        edges = [[f"f{i}", "from", "a"], [f"f{i}", "to", "b"]]
        execute(service, {"op": "update", "edges": edges})
    reread(requests, "p", hops)
    if evaluations() != before:
        fail(f"{evaluations() - before} evaluate phases after {rounds} commits no read depends on")
    for request in stars:
        execute(service, request)
    before = evaluations()
    for _ in range(rounds):
        execute(service, {"op": "update", "edges": [["a", "from", "b"]]})
        execute(service, {"op": "update", "remove_edges": [["a", "from", "b"]]})
    domain = {"a", "b", "c"} | {f"f{i}" for i in range(rounds)}
    reread(stars, "s", {(x, y) for x in "abc" for y in "abc"} | {(v, v) for v in domain})
    if evaluations() != before:
        fail(f"{evaluations() - before} evaluate phases after {2 * rounds} commits that "
             "keep the domain")
    print(
        f"unread entries: {reads} reads hit after {rounds} commits, {starred} starred reads "
        f"after {2 * rounds} more, 0 evaluations, delta reuse "
        f"{service.stats()['result_cache']['delta_reuse_hits']}; apply_commit median "
        f"{apply_commit_median_ms(64):.4f} ms at 64 entries, "
        f"{apply_commit_median_ms(1024):.4f} ms at 1024"
    )


REACH_QUERY = "define (X) -[reach]-> (Y) { (X) -[link+]-> (Y); }"
REACH_PROGRAM = parse_program(
    """
    reach(X, Y) :- link(X, Y).
    reach(X, Y) :- reach(X, Z), link(Z, Y).
    """
)


#: A WAL payload is a record's ids, version and operations; its delta is
#: derived again on replay, never written.
WAL_KEYS = {"txn", "session", "version", "ops"}


class _Sink:
    """A subscriber's push channel: frames are drained, not pushed, here."""

    def notify(self):
        pass


def check_commits_share_structure():
    """50 × (remove edge, re-add edge) on 750 and on 7 500 edges: one
    ``add_edge`` call per added edge and one graph copy per commit, at
    either size; WAL payloads of operations only, from which recovery
    derives the live deltas."""
    rounds, chain_nodes = 50, 16
    calls, copies = [], []
    original, original_copy = LabeledMultigraph.add_edge, LabeledMultigraph.copy

    def counted(self, source, target, label):
        calls.append((source, target))
        return original(self, source, target, label)

    def counted_copy(self):
        copies.append(self.edge_count())
        return original_copy(self)

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
            loaded = service.store.version
            del calls[:], copies[:]
            LabeledMultigraph.add_edge, LabeledMultigraph.copy = counted, counted_copy
            try:
                for i in range(rounds):
                    chain = i % chains
                    edge = [[f"c{chain}n7", "link", f"c{chain}n8"]]
                    execute(service, {"op": "update", "remove_edges": edge})
                    execute(service, {"op": "update", "edges": edge})
            finally:
                LabeledMultigraph.add_edge, LabeledMultigraph.copy = original, original_copy
            frames, _disconnect = service.subs.drain(sink)
            for frame in frames:
                rows -= {tuple(row) for row in frame.get("deleted", {}).get("reach", ())}
                rows |= {tuple(row) for row in frame.get("inserted", {}).get("reach", ())}
            fresh = execute(service, {"op": "graphlog", "query": REACH_QUERY})
            fresh = {tuple(row) for row in fresh["result"]["relations"]["reach"]}
            final = service.store.graph
            live = {record.version: record.delta for record in service.store.history()}
            wal_bytes = service.durability.stats()["wal"]["bytes"]
            service.close()
            wal_dir = os.path.join(data_dir, "wal")
            for _version, payload in wal.iter_records(wal_dir, loaded):
                if set(payload) != WAL_KEYS:
                    fail(f"sharing {edges} edges: a WAL payload holds {sorted(payload)}")
            recovery = DurabilityManager(PersistenceConfig(data_dir))
            recovered = {r.version: r.delta for r in recovery.recover().history()}
            recovery.close()
        if len(recovered) != 2 * rounds or any(
            live.get(version) != delta for version, delta in recovered.items()
        ):
            fail(
                f"sharing {edges} edges: recovery derived deltas other than the "
                "live store's — does replay stage a commit differently?"
            )
        if len(calls) != rounds:
            fail(
                f"sharing {edges} edges: {rounds} added edges took {len(calls)} "
                f"add_edge calls, expected {rounds} — is a commit rebuilding "
                "the graph, or applying its operations twice, again?"
            )
        if len(copies) != 2 * rounds:
            fail(
                f"sharing {edges} edges: {2 * rounds} commits took {len(copies)} "
                f"graph copies, expected {2 * rounds} — does a transaction "
                "derive a graph of its own again?"
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
        print(
            f"sharing: {edges} edges, {rounds} re-added: add_edge calls={len(calls)}, "
            f"graph copies={len(copies)}, WAL bytes/commit={wal_bytes / (2 * rounds):.0f}"
        )


#: The most commit records a store whose log trims itself holds, with every
#: reader inside the window.
RETAINED_BOUND = 2 * HISTORY_WINDOW


def check_bounded_history(commits=20_000, every=50, chains=20, length=5):
    """20 000 one-edge churn commits through a node's request handler, with
    a live subscriber, a never-seen closure miss every 50 commits (checked
    against the naive oracle) and an in-process replica tailing every 10
    commits: the store keeps at most ``RETAINED_BOUND`` records throughout,
    the image folds across its trims, and memory traced from the first trim
    to the last grows < 1 MB — so a store that keeps every record it
    committed fails here."""
    links = {(f"c{c}n{i}", f"c{c}n{i + 1}") for c in range(chains) for i in range(length - 1)}
    store = HAMStore()
    store.load_graph(graph_from_database(Database.from_facts({"link": sorted(links)})))
    # Small caches: every miss is a never-seen text, and a full cache must
    # not read as the store's growth.
    server = ServiceServer(store=store, config=ServiceConfig(plan_cache_size=4, result_cache_size=4))
    service = server.service
    sink = _Sink()
    subscribed = execute(service, {"op": "subscribe", "query": REACH_QUERY}, sink=sink)
    rows = {tuple(row) for row in subscribed["result"]["snapshot"]["reach"]}
    document = service.replication.bootstrap()
    replica = HAMStore()
    replica.replace_state(
        graph_from_json(document["graph"]), document["version"], document["last_txn_id"],
        epoch=document["epoch"],
    )
    loop = asyncio.new_event_loop()
    retained, base, traced = 0, 0, []
    tracemalloc.start()
    try:
        for i in range(commits):
            # Cut one chain in the middle, or join it again.
            chain = i % chains
            edge = (f"c{chain}n{length // 2}", f"c{chain}n{length // 2 + 1}")
            key = "remove_edges" if edge in links else "edges"
            links ^= {edge}
            line = protocol.encode({"id": i, "op": "update", key: [[edge[0], "link", edge[1]]]})
            response, _encoded = loop.run_until_complete(server._handle_request(line))
            if not response["ok"]:
                fail(f"bounded history: commit {i} failed: {response!r}")
            window = store.stats(top_predicates=0)
            retained = max(retained, window["retained_records"])
            if window["retained_records"] > RETAINED_BOUND:
                fail(
                    f"bounded history: {window['retained_records']} records retained "
                    f"after {i + 1} commits (bound {RETAINED_BOUND})"
                )
            trimmed = window["base_version"] != base
            if trimmed or i % 10 == 9:
                tail = service.replication.tail(replica.version)
                if tail.get("reset"):
                    fail(f"bounded history: the replica at {replica.version} was reset")
                for payload in tail["records"]:
                    replica.apply_replicated(record_from_json(payload))
                frames, _disconnect = service.subs.drain(sink)
                for frame in frames:
                    rows -= {tuple(row) for row in frame.get("deleted", {}).get("reach", ())}
                    rows |= {tuple(row) for row in frame.get("inserted", {}).get("reach", ())}
            if trimmed:
                # Measured with the replica caught up, so its log is at the
                # same point of its own trim cycle every time.
                base = window["base_version"]
                gc.collect()  # live memory, not cycles awaiting collection
                traced.append(tracemalloc.get_traced_memory()[0])
            if i % every == every - 1:
                head = f"reach{i // every:03d}"
                line = protocol.encode(
                    {"id": i, "op": "graphlog", "query": REACH_QUERY.replace("reach", head)}
                )
                response, encoded = loop.run_until_complete(server._handle_request(line))
                oracle = Engine(method="naive").evaluate(
                    REACH_PROGRAM, Database.from_facts({"link": sorted(links)})
                )
                answer = {tuple(row) for row in json.loads(encoded)["relations"][head]}
                if response.get("cache") != "miss" or not answer == oracle.facts("reach") == rows:
                    fail(f"bounded history: miss {head}, the subscriber and the oracle diverge")
    finally:
        tracemalloc.stop()
        loop.run_until_complete(loop.shutdown_default_executor())
        loop.close()
        service.close()
    if replica.graph.edge_count() != len(links) or replica.version != store.version:
        fail("bounded history: the replica diverges from the store")
    growth = traced[-1] - traced[0]
    if growth >= 1 << 20:
        fail(f"bounded history: traced memory grew {growth >> 10} KiB after the first trim")
    edb = service.images.stats()
    if edb["builds"] != 1:
        fail(f"bounded history: the image did not fold across trims: {edb!r}")
    print(
        f"bounded history: {commits} commits, at most {retained} records retained, "
        f"traced growth after the first trim {growth >> 10} KiB, "
        f"image builds={edb['builds']} folds={edb['folds']}"
    )


def main():
    check_abl6_chain()
    check_abl7_service()
    check_image_folds()
    check_aliased_facts_fold()
    check_summary_misses_ignore_unrelated_data()
    check_closure_kernel()
    check_rows_once()
    check_cold_miss_passes()
    check_answers_are_bytes()
    check_maintained_entries()
    check_unread_entries_survive_commits()
    check_commits_share_structure()
    check_bounded_history()
    print("benchmark_smoke: OK")


if __name__ == "__main__":
    main()
