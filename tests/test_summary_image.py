"""Summary misses read the store image (Section 4, Example 4.1).

``QueryService`` answers a GraphLog query with a path-summary edge by
decoding the relations its program names from the store image and running
the ``AggregateEngine`` on them.  ``GraphLogEngine(method="naive").run`` over
the store's graph specifies that answer: over random weighted stores, cyclic
and acyclic, every summary semiring must give the same rows, or the same
error type, on both sides.

Rows are compared as Python sets, never as bytes: the image's
``TermCatalog`` gives ``1``, ``1.0`` and ``True`` one id, so an answer may
carry another of those equal values than the graph stores.

The last tests pin the solver choice: a semiring bounded only on part of its
domain (``shortest`` on non-negative weights, ``reliable`` on weights in
[0, 1]) refuses a cycle of weights outside it at once, and answers a DAG of
such weights exactly.
"""

from __future__ import annotations

import random
import threading

import pytest

from repro.aggregation.semiring import STANDARD_SEMIRINGS
from repro.core.dsl import parse_graphical_query
from repro.core.engine import GraphLogEngine
from repro.errors import AggregationError
from repro.graphs.bridge import EdgeLabel
from repro.ham.store import HAMStore
from repro.service.server import QueryService

QUERIES = {
    "alone": "define (X) -[best(V)]-> (Y) {{ (X) -[hop @ {s} V]-> (Y); }}",
    "joined": (
        "define (X) -[best(V)]-> (Y) {{ (X) -[hop @ {s} V]-> (Y); (X) -[cost @ {s} W]-> (Y); }}"
    ),
    "starred": (
        "define (X) -[best(V)]-> (Y) {{ (X) -[hop @ {s} V]-> (Y); (X) -[link*]-> (Y); }}"
    ),
    "negated": (
        "define (X) -[best(V)]-> (Y) {{ (X) -[hop @ {s} V]-> (Y); (X) -[~link]-> (Y); }}"
    ),
    "defined": (
        "define (X) -[step(V)]-> (Y) {{ (X) -[hop(V)]-> (Y); ~stop(Y); }} "
        "define (X) -[best(V)]-> (Y) {{ (X) -[step @ {s} V]-> (Y); }}"
    ),
}
WEIGHTS = (1, 1.0, True, 2, 0.5)
NODES = ("a", "b", "c", "d", 1, 2)


def random_edges(rng, acyclic):
    """Weighted ``hop`` edges — parallel ones with different weights, in
    node order when *acyclic* — plus ``link`` edges, an unrelated weighted
    label, and now and then a tuple node: on a label of its own, or, at
    another arity, on ``hop`` itself."""
    edges = []
    for _ in range(rng.randint(0, 9)):
        i, j = sorted(rng.sample(range(len(NODES)), 2))
        if not acyclic and rng.random() < 0.4:
            i, j = j, i
        for weight in rng.sample(WEIGHTS, rng.choice((1, 1, 2))):
            edges.append((NODES[i], NODES[j], EdgeLabel("hop", (weight,))))
    for _ in range(rng.randint(0, 5)):
        edges.append((*rng.sample(NODES, 2), EdgeLabel("link")))
    for _ in range(rng.randint(0, 3)):
        edges.append((*rng.sample(NODES, 2), EdgeLabel("cost", (rng.choice(WEIGHTS),))))
    if rng.random() < 0.3:
        edges.append((("t", 1), ("t", 2), EdgeLabel("pair")))
    if rng.random() < 0.1:
        edges.append((("t", 1), NODES[0], EdgeLabel("hop", (1,))))
    return edges


def outcome(evaluate):
    """The rows *evaluate* returns, or the type of what it raises."""
    try:
        return evaluate()
    except Exception as exc:  # noqa: BLE001 — compared with the oracle's
        return type(exc)


def served(service, text):
    response = service.execute({"op": "graphlog", "query": text})
    return response["cache"], {tuple(r) for r in response["result"]["relations"].get("best", ())}


def oracle(store, text):
    result = GraphLogEngine(method="naive").run(parse_graphical_query(text), store.graph)
    return set(result.facts("best"))


@pytest.mark.parametrize("seed", range(8))
def test_summary_misses_match_the_graph_specification(seed):
    rng = random.Random(seed)
    texts = [q.format(s=s) for q in QUERIES.values() for s in sorted(STANDARD_SEMIRINGS)]
    outcomes = set()
    for acyclic in (True, False):
        edges = list(dict.fromkeys(random_edges(rng, acyclic)))
        store = HAMStore()
        service = QueryService(store=store)
        try:
            with store.session().transaction() as txn:
                for node in NODES:
                    txn.add_node(node)
                for edge in edges:
                    txn.add_edge(*edge)
                if rng.random() < 0.5:
                    txn.set_node_label(rng.choice(NODES), "stop")
            for round_ in range(2):
                if round_:  # the second round reads the image folded past these edits
                    with store.session().transaction() as txn:
                        for source, target, label in rng.sample(edges, min(2, len(edges))):
                            txn.remove_edge(source, target, label)
                        txn.add_edge("d", "a", EdgeLabel("hop", (rng.choice(WEIGHTS),)))
                        txn.add_edge("c", "d", EdgeLabel("cost", (2,)))
                for text in texts:
                    got = outcome(lambda: served(service, text))
                    if isinstance(got, tuple):
                        cache, got = got
                        assert round_ or cache == "miss", text
                    want = outcome(lambda: oracle(store, text))
                    assert got == want, f"seed={seed} acyclic={acyclic} round={round_} {text}"
                    outcomes.add(isinstance(want, set) and bool(want))
        finally:
            service.close()
    assert outcomes == {True, False}  # answers with rows, and empty or refused ones


def execute_within(service, text, seconds=1.0):
    """The response to *text*, or what executing it raised; fails if it
    takes longer than *seconds*."""
    results = []

    def run():
        results.append(outcome(lambda: service.execute({"op": "graphlog", "query": text})))

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    thread.join(seconds)
    assert not thread.is_alive(), f"{text} did not answer within {seconds} s"
    return results[0]


def weighted_service(*edges):
    store = HAMStore()
    with store.session().transaction() as txn:
        for source, target, weight in edges:
            txn.add_edge(source, target, EdgeLabel("hop", (weight,)))
    return QueryService(store=store)


@pytest.mark.parametrize("semiring, weight", [("shortest", -1), ("reliable", 1.001)])
def test_a_cycle_outside_the_bounded_domain_is_refused_at_once(semiring, weight):
    service = weighted_service(("a", "b", weight), ("b", "a", weight))
    try:
        text = QUERIES["alone"].format(s=semiring)
        assert execute_within(service, text) is AggregationError
    finally:
        service.close()


@pytest.mark.parametrize(
    "semiring, edges, expected",
    [
        (
            "shortest",
            (("a", "b", -1), ("b", "c", -2), ("a", "c", 1), ("c", "d", 4)),
            {("a", "b", -1), ("b", "c", -2), ("a", "c", -3), ("c", "d", 4),
             ("b", "d", 2), ("a", "d", 1)},
        ),
        (
            "reliable",
            (("a", "b", 2), ("b", "c", 0.75), ("a", "c", 0.5)),
            {("a", "b", 2), ("b", "c", 0.75), ("a", "c", 1.5)},
        ),
    ],
)
def test_a_dag_outside_the_bounded_domain_is_answered_exactly(semiring, edges, expected):
    service = weighted_service(*edges)
    try:
        response = execute_within(service, QUERIES["alone"].format(s=semiring))
        assert {tuple(row) for row in response["result"]["relations"]["best"]} == expected
    finally:
        service.close()
