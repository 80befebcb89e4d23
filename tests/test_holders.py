"""Holder lifecycle, model-checked.

Subscriptions and maintained result-cache entries hold two shared views, a
seeded RPQ's (``link+`` from one of several sources) and a closure's,
through subscribe, unsubscribe, dropped connections, promoting re-reads,
capacity evictions forced by plain misses in a small cache, commits that
add or remove ``link`` edges, and replica re-bootstraps.  After every
commit the service's public ``stats()`` agree with a model of who holds
what, and every answer served (a read, or a subscription's accumulated
frames) equals the oracle: the automaton search for an RPQ,
``Engine("naive")`` for the closure.
"""

from __future__ import annotations

from collections import OrderedDict

from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.datalog.database import Database
from repro.datalog.engine import Engine
from repro.datalog.parser import parse_program
from repro.graphs.bridge import EdgeLabel
from repro.ham.store import HAMStore
from repro.rpq.evaluate import RPQEvaluator
from repro.service.prepared import fingerprint
from repro.service.server import QueryService, ServiceConfig

NODES = [f"n{i}" for i in range(5)]
SOURCES = NODES[:3]
RPQ = "link+"
CLOSURE = "define (X) -[reach]-> (Y) { (X) -[link+]-> (Y); }"
TC = "reach(X, Y) :- link(X, Y).\nreach(X, Z) :- link(X, Y), reach(Y, Z).\n"
#: Nullable path expressions read without a source have no view: a read of
#: one is a plain entry, whatever commits came before.
PLAIN = ("link*", "(link link)*", "(-link)*", "(-link -link)*", "(link -link)*")
CAPACITY = 3
#: stats() names a view by its plan's fingerprint and materializing params.
VIEWS = {"rpq": fingerprint("rpq", RPQ)[:12], "closure": fingerprint("graphlog", CLOSURE)[:12]}


class Sink:
    def notify(self):
        pass


def rows_of(relations, name):
    return {tuple(row) for row in relations.get(name, ())}


class HolderLifecycle(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.store = HAMStore()
        with self.store.session().transaction() as txn:
            for node in NODES:
                txn.add_node(node)
        self.service = QueryService(
            store=self.store, config=ServiceConfig(result_cache_size=CAPACITY)
        )
        self.edges = set()
        self.sinks = (Sink(), Sink())
        #: subscription id -> (sink, view name, source or None)
        self.subs = {}
        self.accumulated = {}  # subscription id -> rows its frames add up to
        #: The cache, modelled: key -> the view name of a maintained entry,
        #: None for a plain one, least recently used first.
        self.cache = OrderedDict()

    def teardown(self):
        self.service.close()

    # --------------------------------------------------------------- oracle

    def oracle(self, view, source=None):
        graph = self.store.graph
        if view == "rpq":
            return {(t,) for t in RPQEvaluator(graph).targets(RPQ, source)}
        if view == "closure":
            edb = Database.from_facts({"link": sorted(self.edges)})
            return Engine("naive").evaluate(parse_program(TC), edb).facts("reach")
        return RPQEvaluator(graph).pairs(view)

    @staticmethod
    def request(view, source):
        if view == "rpq":
            return {"op": "rpq", "query": RPQ, "source": source}
        if view == "closure":
            return {"op": "graphlog", "query": CLOSURE}
        return {"op": "rpq", "query": view}

    def cached(self):
        return self.service.stats()["result_cache"]

    # ---------------------------------------------------------------- reads

    def read(self, view, source=None):
        before = self.cached()
        response = self.service.execute(self.request(view, source))
        after = self.cached()
        name = "reach" if view == "closure" else "answers"
        assert rows_of(response["result"]["relations"], name) == self.oracle(view, source)
        key = (view, source)
        if response["cache"] == "hit":
            self.cache.move_to_end(key)
            return
        assert key not in self.cache
        promoted = after["promotions"] - before["promotions"]
        assert promoted in (0, 1) and not (promoted and view in PLAIN)
        self.cache[key] = view if promoted else None
        evicted = 0
        while len(self.cache) > CAPACITY:
            self.cache.popitem(last=False)
            evicted += 1
        assert after["evictions"] - before["evictions"] == evicted

    @rule(source=st.sampled_from(SOURCES))
    def read_rpq(self, source):
        self.read("rpq", source)

    @rule()
    def read_closure(self):
        self.read("closure")

    @rule(text=st.sampled_from(PLAIN))
    def plain_miss(self, text):
        self.read(text)

    # -------------------------------------------------------- subscriptions

    @rule(sink=st.sampled_from((0, 1)), source=st.sampled_from((*SOURCES, None)))
    def subscribe(self, sink, source):
        view = "closure" if source is None else "rpq"
        message = {"op": "subscribe", "query": RPQ if view == "rpq" else CLOSURE}
        if view == "rpq":
            message.update(target="rpq", source=source)
        result = self.service.execute(message, sink=self.sinks[sink])["result"]
        assert result["mode"] == "maintained"
        self.subs[result["subscription"]] = (sink, view, source)
        self.accumulated[result["subscription"]] = rows_of(
            result["snapshot"], result["predicates"][0]
        )

    @rule(data=st.data(), how=st.sampled_from(("unsubscribe", "drop_sink", "rebootstrap")))
    def let_go(self, data, how):
        """Holders leave: one subscription, a connection's, or (a replica
        re-bootstrap) every maintained entry."""
        if how == "rebootstrap":
            self.service._on_rebootstrap()
            self.cache.clear()
            self.drain()
            self.check_holders()
        elif how == "drop_sink":
            sink = data.draw(st.sampled_from((0, 1)))
            self.service.subs.drop_sink(self.sinks[sink])
            for sub_id in [s for s, (k, _v, _s) in self.subs.items() if k == sink]:
                del self.subs[sub_id], self.accumulated[sub_id]
        elif self.subs:
            sub_id = data.draw(st.sampled_from(sorted(self.subs)))
            sink = self.sinks[self.subs[sub_id][0]]
            self.service.execute({"op": "unsubscribe", "subscription": sub_id}, sink=sink)
            del self.subs[sub_id], self.accumulated[sub_id]

    def drain(self):
        for sink in self.sinks:
            frames, disconnect = self.service.subs.drain(sink)
            assert not disconnect
            for frame in frames:
                sub_id = frame["subscription"]
                assert frame["frame"] in ("delta", "snapshot"), frame
                name = "reach" if self.subs[sub_id][1] == "closure" else "answers"
                if frame["frame"] == "snapshot":
                    self.accumulated[sub_id] = rows_of(frame["relations"], name)
                    continue
                self.accumulated[sub_id] -= rows_of(frame["deleted"], name)
                self.accumulated[sub_id] |= rows_of(frame["inserted"], name)
        for sub_id, (_sink, view, source) in self.subs.items():
            assert self.accumulated[sub_id] == self.oracle(view, source), sub_id

    # -------------------------------------------------------------- commits

    @rule(a=st.sampled_from(NODES), b=st.sampled_from(NODES))
    def commit(self, a, b):
        before = self.cached()
        remove = (a, b) in self.edges
        with self.store.session().transaction() as txn:
            (txn.remove_edge if remove else txn.add_edge)(a, b, EdgeLabel("link"))
        self.edges ^= {(a, b)}
        # Every query reads `link`: the commit drops every plain entry.
        for key in [k for k, view in self.cache.items() if view is None]:
            del self.cache[key]
        # A pass costlier than its view demotes every entry of that view.
        views = self.views()
        demoted = 0
        for view in VIEWS:
            keys = [k for k, v in self.cache.items() if v == view]
            pins = views[view]["pins"] if view in views else 0
            if pins < len(keys):
                assert pins == 0
                for key in keys:
                    del self.cache[key]
                demoted += len(keys)
        assert self.cached()["demotions"] - before["demotions"] == demoted
        self.drain()
        self.check_holders()

    # ----------------------------------------------------------- invariants

    def views(self):
        """``{view name: its stats}`` for the views stats() lists."""
        listed = self.service.stats()["subs"]["views"]
        named = {name.split(" ")[0]: stats for name, stats in listed.items()}
        assert len(named) == len(listed) and set(named) <= set(VIEWS.values())
        return {view: named[fp] for view, fp in VIEWS.items() if fp in named}

    def check_holders(self):
        views = self.views()
        cached = self.cached()
        for view in VIEWS:
            subs = [source for _k, v, source in self.subs.values() if v == view]
            entries = [key[1] for key, v in self.cache.items() if v == view]
            assert (view in views) == bool(subs or entries), view
            if view not in views:
                continue
            stats = views[view]
            assert stats["pins"] + stats["subscribers"] >= 1
            assert (stats["pins"], stats["subscribers"]) == (len(entries), len(subs))
            seeds = set(subs) | set(entries) if view == "rpq" else set()
            assert stats["seeds"] == len(seeds), view
        assert cached["maintained"] == sum(v["pins"] for v in views.values())
        assert cached["size"] == len(self.cache)

    @invariant()
    def cache_size_matches_the_model(self):
        assert self.cached()["size"] == len(self.cache)


HolderLifecycle.TestCase.settings = settings(
    max_examples=15, stateful_step_count=80, derandomize=True, deadline=None
)
TestHolderLifecycle = HolderLifecycle.TestCase
