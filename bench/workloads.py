"""The four workloads: datasets, op sequences, expected answers, boot.

Every input derives from the seed alone.  A workload's op sequence is
``WARMUP + SLICES`` slices; every slice is a seeded shuffle of the *same*
multiset of requests, so slices differ in order and never in composition,
and every write is paired with its inverse inside the slice, so the store
is back at its base contents at each slice boundary (per-commit cost grows
with retained history otherwise, and a time-boxed run would do different
work every time).

Expected answers come from ``Engine(method="naive")`` over the same
dataset — the executable specification — once per distinct request shape;
each response is then compared by content hash.
"""

from __future__ import annotations

import os
import random
import time

from repro.datalog.database import Database
from repro.datalog.engine import Engine
from repro.datalog.parser import parse_program
from repro.datasets.flights import random_flights
from repro.io import database_to_source

import stats
from loadgen import Session, content_hash, first_relation, run_ops

#: Ops per second of measured window (``--seconds``), sized once on the
#: reference sandbox so the window takes about that long.  Constants, so
#: the work is the same on every commit; a faster program just finishes
#: sooner.
OPS_PER_SECOND = {
    "hot_read": 1760,
    "cold_eval": 99,
    "commit_stream": 160,
    "routed_mixed": 160,
}

N_CITIES = 40
N_FLIGHTS = 400
HOT_CLOSURES = 4
HOT_SOURCES = 12

CHAINS = 50
CHAIN_NODES = 16

_ORACLE_PROGRAM = """
leg(X, Y) :- from(F, X), to(F, Y).
connected(X, Y) :- leg(X, Y).
connected(X, Y) :- connected(X, Z), leg(Z, Y).
indirect(X, Y) :- connected(X, Y), not leg(X, Y).
"""

_REACH_QUERY = "define (X) -[reach]-> (Y) { (X) -[link+]-> (Y); }"


def oracle(database, program_text):
    """Evaluate *program_text* over *database* with the naive engine."""
    return Engine(method="naive").evaluate(parse_program(program_text), database)


# ------------------------------------------------------------------ datasets


def flights_database(seed):
    """``random_flights`` (the paper's Figure 1 schema, 40 cities, 400
    flights, 1 600 fact rows), re-drawn until every city reaches every
    other: then the closure answer is all 1 600 pairs for every seed, and
    answer size — hence wire bytes and encode cost — does not depend on
    which seed the driver picked."""
    for attempt in range(100):
        database = random_flights(seed * 100 + attempt, N_CITIES, N_FLIGHTS)
        origin = dict(database.facts("from"))
        legs = {}
        for flight, destination in database.facts("to"):
            legs.setdefault(origin[flight], set()).add(destination)
        if all(_reachable(legs, city) == N_CITIES for city in list(legs)) and (
            len(legs) == N_CITIES
        ):
            return database
    raise RuntimeError(f"no strongly connected schedule for seed {seed}")


def _reachable(legs, start):
    seen = set()
    frontier = [start]
    while frontier:
        for city in legs.get(frontier.pop(), ()):
            if city not in seen:
                seen.add(city)
                frontier.append(city)
    return len(seen)


def chains_database(skip=None):
    """50 disjoint ``link`` chains of 16 nodes (750 edges); ``reach =
    link+`` has 6 000 rows.  Fixed-width names keep frame sizes equal.
    With *skip*, the edge leaving node *skip* of every chain is left out."""
    database = Database()
    for chain in range(CHAINS):
        for i in range(CHAIN_NODES - 1):
            if i != skip:
                database.add_fact("link", chain_node(chain, i), chain_node(chain, i + 1))
    return database


def chain_node(chain, i):
    return f"n{chain:02d}x{i:02d}"


# ---------------------------------------------------------------- sequences


def cycle_prefix(pool, count):
    """The first *count* items of *pool* repeated end to end."""
    return [pool[i % len(pool)] for i in range(count)]


def shuffled_slices(rng, multiset, slices):
    """*slices* independent shuffles of one multiset."""
    out = []
    for _ in range(slices):
        ops = list(multiset)
        rng.shuffle(ops)
        out.append(ops)
    return out


def ops_per_slice(name, seconds, unit):
    """Ops in one slice for a window of *seconds*, a multiple of *unit*
    (the smallest count that keeps a slice's writes paired)."""
    wanted = OPS_PER_SECOND[name] * seconds / stats.SLICES
    return max(unit, int(round(wanted / unit)) * unit)


# ---------------------------------------------------------------- workloads


class Workload:
    """Base: inputs, boot, prime, finish."""

    name = None
    #: Smallest slice that keeps the op multiset well-formed.
    unit = 1
    #: Name of the process the loadgen talks to.
    entry = "server"
    #: Processes whose ``stats`` describe the serving work.
    nodes = ("server",)

    def __init__(self, seed, seconds):
        self.seed = seed
        self.rng = random.Random(seed)
        self.per_slice = ops_per_slice(self.name, seconds, self.unit)
        self.facts = None
        #: ``1 + SLICES`` slices: the first is the warm-up, the rest the
        #: measured window.
        self.slices = None

    @property
    def warmup(self):
        return self.slices[0]

    @property
    def window(self):
        return self.slices[1:]

    # -- topology ---------------------------------------------------------

    def write_facts(self, topology):
        path = os.path.join(topology.workdir, "facts.dl")
        with open(path, "w") as handle:
            handle.write(self.facts)
        return path

    def boot(self, topology):
        """Start the processes, wait until they serve, connect."""
        topology.start_node("server", data=self.write_facts(topology))
        return Session(topology, self.entry)

    def prime(self, session):
        """Fill caches the window expects to find warm; returns failures."""
        return 0

    def finish(self, session):
        """Closing checks on the live topology.  Returns ``(attempted,
        failed, extra)`` where *extra* are per-layer numbers."""
        return 0, 0, {}


def _closure_query(name):
    return f"define (X) -[{name}]-> (Y) {{ (X) -[(-from . to)+]-> (Y); }}"


def _hot_pool(rng, database):
    """The 16 distinct reads of ``hot_read`` / ``routed_mixed`` with their
    expected digests: 4 closures of ~1.6 k rows and 12 single-source
    one-leg RPQs of a few rows each."""
    cities = sorted({city for _flight, city in database.facts("from")})
    sources = rng.sample(cities, HOT_SOURCES)
    pool = []
    for j in range(HOT_CLOSURES):
        name = f"connected{j}"
        pool.append(
            (
                "read",
                ("graphlog", {"query": _closure_query(name), "predicate": name}),
                "connected",
            )
        )
    for source in sources:
        pool.append(
            ("read", ("rpq", {"query": "-from . to", "source": source}), ("leg", source))
        )
    rng.shuffle(pool)
    return pool, sources


def _digest(relations, shape):
    """The expected content hash of a read of *shape* over *relations*."""
    if isinstance(shape, tuple):
        name, source = shape
        return content_hash({(y,) for x, y in relations.facts(name) if x == source})
    return content_hash(relations.facts(shape))


def _resolve(ops, relations):
    """Replace each read's shape by its digest over *relations*."""
    cache = {}
    resolved = []
    for kind, request, shape in ops:
        if kind == "read":
            if shape not in cache:
                cache[shape] = _digest(relations, shape)
            shape = cache[shape]
        resolved.append((kind, request, shape))
    return resolved


class HotRead(Workload):
    """16 distinct reads, all resident in the result cache."""

    name = "hot_read"
    unit = 16

    def __init__(self, seed, seconds):
        super().__init__(seed, seconds)
        database = flights_database(seed)
        self.facts = database_to_source(database)
        relations = oracle(database, _ORACLE_PROGRAM)
        pool, _sources = _hot_pool(self.rng, database)
        self.pool = _resolve(pool, relations)
        multiset = cycle_prefix(self.pool, self.per_slice)
        self.slices = shuffled_slices(self.rng, multiset, 1 + stats.SLICES)

    def prime(self, session):
        return run_ops(session, self.pool)


class ColdEval(Workload):
    """Every request is a text the server has never seen."""

    name = "cold_eval"
    unit = 3

    def __init__(self, seed, seconds):
        super().__init__(seed, seconds)
        database = flights_database(seed)
        self.facts = database_to_source(database)
        relations = oracle(database, _ORACLE_PROGRAM)
        cities = sorted({city for _flight, city in database.facts("from")})
        self.serial = 0
        self.slices = []
        for _ in range(1 + stats.SLICES):
            ops = []
            for i in range(self.per_slice):
                ops.append(self._fresh(i % 3, self.rng.choice(cities)))
            self.rng.shuffle(ops)
            self.slices.append(_resolve(ops, relations))

    def _fresh(self, shape, source):
        """One request whose text no server has seen: the per-request
        suffix renames the defined predicates (or, for RPQ, adds a label
        that matches nothing), so the answer is that of the unrenamed
        query and is checked against it."""
        self.serial += 1
        tag = f"{self.serial:05d}"
        if shape == 0:
            name = f"conn{tag}"
            return (
                "read",
                ("graphlog", {"query": _closure_query(name), "predicate": name}),
                "connected",
            )
        if shape == 1:
            program = (
                f"leg{tag}(X, Y) :- from(F, X), to(F, Y).\n"
                f"conn{tag}(X, Y) :- leg{tag}(X, Y).\n"
                f"conn{tag}(X, Y) :- conn{tag}(X, Z), leg{tag}(Z, Y).\n"
                f"indirect{tag}(X, Y) :- conn{tag}(X, Y), not leg{tag}(X, Y).\n"
            )
            return (
                "read",
                ("datalog", {"query": program, "predicate": f"indirect{tag}"}),
                "indirect",
            )
        return (
            "read",
            ("rpq", {"query": f"(-from . to)+ | nolabel{tag}", "source": source}),
            ("connected", source),
        )


class CommitStream(Workload):
    """Durable commits maintaining a closure for two subscribers."""

    name = "commit_stream"
    unit = 2
    subscribers = 2

    def __init__(self, seed, seconds):
        super().__init__(seed, seconds)
        middle = CHAIN_NODES // 2
        # An edge loaded from a fact file cannot be removed over the wire
        # (the loader labels it with an EdgeLabel, the wire with a string),
        # so the edges the workload cycles are committed by the client
        # during set-up and the file holds the rest.
        self.facts = database_to_source(chains_database(skip=middle - 1))
        self.cycled = [
            [chain_node(chain, middle - 1), "link", chain_node(chain, middle)]
            for chain in range(CHAINS)
        ]
        self.expected_reach = set(oracle(
            chains_database(),
            "reach(X, Y) :- link(X, Y).\nreach(X, Y) :- reach(X, Z), link(Z, Y).\n",
        ).facts("reach"))
        self.slices = []
        for _ in range(1 + stats.SLICES):
            ops = []
            chains = cycle_prefix(
                self.rng.sample(range(CHAINS), CHAINS), self.per_slice // 2
            )
            for chain in chains:
                edge = [self.cycled[chain]]
                rows = {
                    (chain_node(chain, a), chain_node(chain, b))
                    for a in range(middle)
                    for b in range(middle, CHAIN_NODES)
                }
                ops.append(("commit", {"remove_edges": edge}, ("deleted", rows)))
                ops.append(("commit", {"edges": edge}, ("inserted", rows)))
            self.slices.append(ops)

    def boot(self, topology):
        self.data_dir = os.path.join(topology.workdir, "state")
        topology.start_node(
            "server",
            data=self.write_facts(topology),
            data_dir=self.data_dir,
            fsync="always",
        )
        session = Session(topology, self.entry)
        session.version = session.client.update(edges=self.cycled)
        for _ in range(self.subscribers):
            session.add_subscriber(topology.ports["server"], query=_REACH_QUERY)
        return session

    def finish(self, session):
        """Subscribers' materialised rows equal a fresh query (and the
        oracle); then the durability check on a real subprocess node:
        SIGKILL, restart on the same directory, recovered version = last
        acknowledged version and the answer is unchanged."""
        attempted = failed = 0
        fresh = session.client.graphlog(_REACH_QUERY)["reach"]
        attempted += 1
        failed += fresh != self.expected_reach
        for handle in session.handles:
            attempted += 1
            failed += handle.result("reach") != fresh
        extra = {}
        topology = session.topology
        if hasattr(topology, "kill"):
            durability = session.stats_client("server").stats()["store"]["durability"]
            extra["persist.wal_bytes_total"] = float(durability["wal"]["bytes"])
            acknowledged = session.version
            session.close()
            topology.kill("server")
            topology.start_node("server", data_dir=self.data_dir, fsync="always")
            recovered = Session(topology, self.entry)
            try:
                response = recovered.client.call("graphlog", query=_REACH_QUERY)
                attempted += 2
                failed += response["version"] != acknowledged
                failed += (
                    content_hash(first_relation(response))
                    != content_hash(self.expected_reach)
                )
                recovery = recovered.stats_client("server").stats()["store"][
                    "durability"
                ]["recovery"]
                extra["persist.recovery_ms"] = float(recovery["elapsed_ms"])
            finally:
                recovered.close()
        return attempted, failed, extra


class RoutedMixed(Workload):
    """Router over primary + replica: hot-pool reads beside writes."""

    name = "routed_mixed"
    unit = 20
    entry = "router"
    nodes = ("primary", "replica")
    flight = 9001

    def __init__(self, seed, seconds):
        super().__init__(seed, seconds)
        database = flights_database(seed)
        self.facts = database_to_source(database)
        base = oracle(database, _ORACLE_PROGRAM)
        pool, sources = _hot_pool(self.rng, database)
        # The cyclic write adds a flight on a city pair that has none, from
        # one of the pool's RPQ sources, so a stale cached answer is wrong.
        origin = sources[0]
        taken = {y for x, y in base.facts("leg") if x == origin}
        target = next(
            city
            for city in sorted({c for _f, c in database.facts("from")})
            if city != origin and city not in taken
        )
        edges = [[self.flight, "from", origin], [self.flight, "to", target]]
        extended = database.copy()
        extended.add_fact("from", self.flight, origin)
        extended.add_fact("to", self.flight, target)
        states = (base, oracle(extended, _ORACLE_PROGRAM))
        self.pool = _resolve(pool, base)
        writes = self.per_slice // 10
        reads = cycle_prefix(pool, self.per_slice - writes)
        self.slices = []
        for _ in range(1 + stats.SLICES):
            order = list(reads)
            self.rng.shuffle(order)
            ops = []
            state = 0
            cache = ({}, {})
            for i in range(self.per_slice):
                # Mid-decade, so every slice ends in reads: they carry the
                # read-your-writes token, hence the replica has applied the
                # slice's last commit before the slice (and the window) ends
                # and counts taken at the boundary are exact.
                if i % 10 == 4:
                    payload = {"remove_edges": edges} if state else {"edges": edges}
                    ops.append(("write", payload, None))
                    state = 1 - state
                else:
                    kind, request, shape = order.pop()
                    if shape not in cache[state]:
                        cache[state][shape] = _digest(states[state], shape)
                    ops.append((kind, request, cache[state][shape]))
            self.slices.append(ops)

    def boot(self, topology):
        primary = topology.start_node(
            "primary",
            data=self.write_facts(topology),
            data_dir=os.path.join(topology.workdir, "state"),
            fsync="always",
        )
        replica = topology.start_node("replica", replica_of=primary)
        topology.start_router("router", primary, [replica])
        session = Session(topology, self.entry)
        self.await_replica(session)
        return session

    def await_replica(self, session):
        """Block until the replica has applied everything the primary has;
        returns the replica's replication status."""
        deadline = time.monotonic() + 30.0
        target = session.stats_client("primary").call("ping")["version"]
        while True:
            status = session.stats_client("replica").stats()["replication"]
            if status["bootstrapped"] and status["applied_version"] >= target:
                return status
            if time.monotonic() > deadline:
                raise RuntimeError(f"replica never caught up: {status}")
            time.sleep(0.02)

    def prime(self, session):
        return run_ops(session, self.pool)

    def finish(self, session):
        """Replica answer = primary answer for every pool read, at the
        same (final) version."""
        status = self.await_replica(session)
        attempted = failed = 0
        for _kind, (op, payload), digest in self.pool:
            answers = [
                session.stats_client(name).call(op, **payload)
                for name in ("primary", "replica")
            ]
            attempted += 1
            failed += not (
                content_hash(first_relation(answers[0]))
                == content_hash(first_relation(answers[1]))
                == digest
            )
        return attempted, failed, {"replica.lag_versions_end": float(status["lag_versions"] or 0)}


WORKLOADS = {cls.name: cls for cls in (HotRead, ColdEval, CommitStream, RoutedMixed)}
