"""Randomized naive-vs-columnar differentials.

The columnar core implements the entire evaluation pipeline — encoding,
join kernels, semi-naive bookkeeping, decode — so its only trustworthy
correctness argument is agreement with the naive walker (the executable
specification) on arbitrary programs.  Programs are drawn from seeded generators (failures
replay exactly) and cover recursion (linear and non-linear), stratified
negation, comparisons, arithmetic, repeated variables, and constants.  The
closure-strata half draws TC pairs — right- and left-linear, 2- and 4-ary,
over EDB and lower-IDB-stratum bases, on self-loops, DAGs, several SCCs and
empty graphs — and checks both the answer and which path ran: the closure
kernel, or the semi-naive loop for a relation seeded before its stratum.
The RPQ half pins the product search over a store image (the service's) to
``RPQEvaluator``'s dict-adjacency walk over random graphs, with a 3-ary
label and the equal values ``1`` / ``1.0`` / ``True`` beside ``"1"``, and
star/inverse-heavy expressions.
"""

from __future__ import annotations

import random

import pytest

from repro import obs
from repro.core.engine import GraphLogEngine, prepare_database
from repro.datalog import columnar as columnar_core
from repro.datalog.database import Database
from repro.datalog.engine import Engine
from repro.datalog.parser import parse_program
from repro.datasets.family import figure2_family
from repro.figures import fig02, fig03
from repro.graphs.bridge import EdgeLabel
from repro.graphs.multigraph import LabeledMultigraph
from repro.ham.image import StoreImage, StoreImages
from repro.rpq.automaton import compile_regex
from repro.rpq.evaluate import RPQEvaluator, image_reach
from repro.rpq.regex import parse_regex
from repro.service.prepared import PreparedQuery

VALUES = ["a", "b", "c", "d", "e"]


def random_edb(rng):
    edb = Database()
    for _ in range(rng.randint(3, 24)):
        edb.add_fact("edge", rng.choice(VALUES), rng.choice(VALUES))
    for _ in range(rng.randint(1, 6)):
        edb.add_fact("mark", rng.choice(VALUES))
    for _ in range(rng.randint(2, 8)):
        edb.add_fact("num", rng.randint(0, 6))
    return edb


def random_program(rng):
    """A safe, stratified program exercising the full feature surface."""
    rules = [
        "tc(X,Y) :- edge(X,Y).",
        rng.choice(
            [
                "tc(X,Y) :- edge(X,Z), tc(Z,Y).",  # linear, delta not first
                "tc(X,Y) :- tc(X,Z), edge(Z,Y).",  # linear, delta first
                "tc(X,Y) :- tc(X,Z), tc(Z,Y).",  # non-linear: old/new split
            ]
        ),
    ]
    if rng.random() < 0.7:
        rules.append("marked_pair(X,Y) :- tc(X,Y), mark(Y).")
    if rng.random() < 0.7:
        rules.append("unmarked(X) :- edge(X,_), not mark(X).")
    if rng.random() < 0.6:
        rules.append("unreached(X) :- mark(X), not tc(X,X).")
    if rng.random() < 0.7:
        rules.append(f"big(X) :- num(X), X > {rng.randint(0, 5)}.")
    if rng.random() < 0.7:
        rules.append("next(X,Y) :- num(X), Y = X + 1.")
    if rng.random() < 0.5:
        rules.append("double(X,Y) :- num(X), Y = X * 2.")
    if rng.random() < 0.5:
        rules.append("self(X) :- edge(X,X).")
    if rng.random() < 0.5:
        rules.append('tagged(X, "t") :- mark(X).')
    return parse_program("\n".join(rules))


@pytest.mark.parametrize("seed", range(25))
def test_random_programs_agree_across_backends(seed):
    rng = random.Random(seed)
    program = random_program(rng)
    edb = random_edb(rng)
    naive = Engine(method="naive").evaluate(program, edb)
    columnar = Engine(method="columnar").evaluate(program, edb)
    assert columnar == naive, {
        p: (
            sorted(naive.facts(p), key=repr),
            sorted(columnar.facts(p), key=repr),
        )
        for p in sorted(naive.predicates)
        if naive.facts(p) != columnar.facts(p)
    }


@pytest.mark.parametrize("seed", range(300, 310))
def test_mixed_type_values_agree(seed):
    # Ints, floats, bools, and strings in one column: the catalog must
    # intern by Python equality exactly as the walker's tuple sets hash.
    rng = random.Random(seed)
    pool = ["a", 1, 1.0, True, 0, False, 2.5, "1"]
    edb = Database()
    for _ in range(rng.randint(4, 16)):
        edb.add_fact("edge", rng.choice(pool), rng.choice(pool))
    program = parse_program(
        "tc(X,Y) :- edge(X,Y).\ntc(X,Y) :- edge(X,Z), tc(Z,Y).\nloop(X) :- tc(X,X)."
    )
    naive = Engine(method="naive").evaluate(program, edb)
    columnar = Engine(method="columnar").evaluate(program, edb)
    assert naive == columnar


# ------------------------------------------------------------ closure strata

GRAPH_SHAPES = ("random", "self_loops", "dag", "sccs", "empty")


def random_edges(rng, shape):
    """Edges over node numbers, drawn to a named shape."""
    if shape == "empty":
        return set()
    edges = set()
    if shape == "sccs":
        # Disjoint cycles (a one-node cycle is a self-loop) joined by
        # one-way bridges.
        blocks, start = [], 0
        for size in [rng.randint(1, 4) for _ in range(rng.randint(2, 3))]:
            block = list(range(start, start + size))
            edges |= {(block[i], block[(i + 1) % size]) for i in range(size)}
            blocks.append(block)
            start += size
        for earlier, later in zip(blocks, blocks[1:]):
            edges.add((rng.choice(earlier), rng.choice(later)))
        return edges
    n = rng.randint(1, 9)
    for _ in range(rng.randint(1, 14)):
        a, b = rng.randrange(n), rng.randrange(n)
        if shape == "dag":
            if a == b:
                continue
            a, b = min(a, b), max(a, b)
        edges.add((a, b))
    if shape == "self_loops":
        edges |= {(a, a) for a in rng.sample(range(n), rng.randint(1, n))}
    return edges


def random_closure_case(rng):
    """``(program, edb, seeded)``: one TC pair, drawn over right- and
    left-linear steps, 2- and 4-ary rows, EDB and lower-IDB-stratum bases
    and the graph shapes above; *seeded* cases give the closure relation
    rows before its stratum runs, which must keep the generic loop."""
    k = rng.choice([1, 2])
    xs, ys, zs = (",".join(f"{v}{i}" for i in range(k)) for v in "XYZ")

    def node(number):  # a k-ary node as k column values
        return (VALUES[number % len(VALUES)], number)[:k]

    edb = Database()
    edges = random_edges(rng, rng.choice(GRAPH_SHAPES))
    for a, b in edges:
        edb.add_fact("edge", *node(a), *node(b))
    rules = []
    base = "edge"
    if rng.random() < 0.5:  # the base is an IDB relation of a lower stratum
        base = "hop"
        rules.append(f"hop({xs},{ys}) :- edge({xs},{ys}), not cut({xs}).")
        for a, _b in rng.sample(sorted(edges), min(len(edges), 2)):
            edb.add_fact("cut", *node(a))
    rules.append(f"tc({xs},{ys}) :- {base}({xs},{ys}).")
    if rng.random() < 0.5:
        rules.append(f"tc({xs},{ys}) :- {base}({xs},{zs}), tc({zs},{ys}).")
    else:
        rules.append(f"tc({xs},{ys}) :- tc({xs},{zs}), {base}({zs},{ys}).")
    rules.append(f"loop({xs}) :- tc({xs},{xs}).")
    seeded = rng.random() < 0.3
    if seeded:
        row = node(rng.randrange(12)) + node(rng.randrange(12))
        if rng.random() < 0.5:
            rules.append(f"tc({','.join(map(str, row))}).")
        else:
            edb.add_fact("tc", *row)
    return parse_program("\n".join(rules)), edb, seeded


@pytest.mark.parametrize("seed", range(60))
def test_random_closure_strata_agree_with_the_specification(seed):
    rng = random.Random(seed)
    program, edb, seeded = random_closure_case(rng)
    with obs.tracing("t") as tracer:
        columnar = Engine().evaluate(program, edb)
    assert columnar == Engine(method="naive").evaluate(program, edb), program
    kernel_ran = any(
        s.attrs.get("kernel") == "closure" and s.attrs["predicates"] == ["tc"]
        for s in tracer.root.find_all("engine.stratum")
    )
    assert kernel_ran is not seeded, program


def test_closure_strata_never_reach_the_semi_naive_loop(monkeypatch):
    """The loop compiles a delta-first pipeline per recursive rule.  With that
    compile patched to raise, the Figure 2 query and its Figure 3 translation
    still evaluate — their closure strata run the kernel — and a recursion
    that is no TC pair does not."""
    original = columnar_core._compile_pipeline

    def guarded(rule, ordered, resolve, catalog, old_ids, delta_first):
        if delta_first:
            raise AssertionError(f"semi-naive loop reached for {rule}")
        return original(rule, ordered, resolve, catalog, old_ids, delta_first)

    monkeypatch.setattr(columnar_core, "_compile_pipeline", guarded)
    family = figure2_family()
    assert fig02.reproduce()["answers"] == GraphLogEngine("naive").answers(
        fig02.query(), family, "not-desc-of"
    )
    program, prepared = fig03.reproduce()["program"], prepare_database(family)
    assert Engine().evaluate(program, prepared) == Engine("naive").evaluate(program, prepared)
    with pytest.raises(AssertionError, match="semi-naive loop"):
        Engine().evaluate(parse_program("p(X,Y) :- e(X,Y). p(X,Y) :- p(X,Z), p(Z,Y)."), prepared)


# ------------------------------------------------------------- RPQ / image

RPQ_EXPRESSIONS = [
    "a",
    "a*",
    "a+",
    "-a",
    "(-a)*",
    "a.b",
    "a|b",
    "(a.b)+",
    "(a|-b)*",
    "a.(b|c)*.-a",
    "(-a.-b)+",
    "(a+.b)|(c.-a*)",
    "(a|-d)+",
]


#: Beyond n0, n1, …: 1, 1.0 and True are one graph node and one catalog
#: id, "1" is another.
ODD_NODES = [1, 1.0, True, "1"]
#: ``c`` carries a label argument, so the image holds it as a 3-ary relation;
#: ``d`` labels nodes only, a unary relation that holds no edges.
LABELS = ["a", "b", EdgeLabel("c", (7,))]


def random_labeled_graph(rng, tuple_nodes=False):
    """A random graph and its nodes.  With *tuple_nodes*, ``("n1",)`` joins
    the random edges and ``("n0", 7)`` sources a few plain ``c`` edges: the
    image flattens endpoints into columns, so ``("n1",)`` shares the rows
    of ``"n1"`` and ``("n0", 7) -c-> y`` is the row of ``"n0" -c(y)-> 7``."""
    graph = LabeledMultigraph()
    nodes = [f"n{i}" for i in range(rng.randint(2, 10))] + ODD_NODES
    scalar = list(nodes)
    nodes += [("n1",)] if tuple_nodes else []
    for node in nodes:
        graph.add_node(node, rng.choice([None, frozenset({"d"})]))
    for _ in range(rng.randint(0, 24)):
        graph.add_edge(rng.choice(nodes), rng.choice(nodes), rng.choice(LABELS))
    if tuple_nodes:
        for _ in range(rng.randint(1, 3)):
            graph.add_edge(("n0", 7), rng.choice(scalar), EdgeLabel("c"))
        nodes.append(("n0", 7))
    return graph, nodes


def image_pairs(image, expression, sources=None):
    """The ``(x, y)`` pairs :func:`image_reach` finds over *image* from
    *sources* (values its catalog holds; None: every node with a first
    step), decoded."""
    encoded = image.facts
    catalog = encoded.catalog
    ids = None if sources is None else [catalog.find(source) for source in sources]
    reached = image_reach(encoded.relations, compile_regex(parse_regex(expression)), ids)
    return {
        (catalog.values[source], catalog.values[target])
        for source, targets in reached.items()
        for target in targets
    }


@pytest.mark.parametrize("seed", range(28))
def test_rpq_csr_matches_dict_walk(seed):
    # The image search answers what the dict walk over the graph answers,
    # and so does the service's plan, which hands a graph with tuple nodes
    # (seeds from 20 on) to the walk: there the image search would step
    # between the columns of one flattened endpoint.
    rng = random.Random(seed)
    graph, nodes = random_labeled_graph(rng, tuple_nodes=seed >= 20)
    image = StoreImage.build(0, graph)
    assert image.tuple_nodes == (seed >= 20)
    images = StoreImages(None)
    held = [node for node in nodes if image.catalog.find(node) is not None]
    evaluator = RPQEvaluator(graph)
    for expression in RPQ_EXPRESSIONS:
        plan = PreparedQuery("rpq", expression)
        served = plan.evaluate(graph, plan.image(images, 0, graph, {}), {})
        assert served.decoded() == {"answers": evaluator.pairs(expression)}, expression
        for source in rng.sample(nodes, 3):
            params = {"source": source}
            served = plan.evaluate(graph, plan.image(images, 0, graph, params), params)
            assert served.decoded() == {
                "answers": {(t,) for t in evaluator.targets(expression, source)}
            }, (expression, source)
        if image.tuple_nodes:
            assert plan.image(images, 0, graph, {"source": nodes[0]}) is None
            continue
        assert image_pairs(image, expression, held) == evaluator.pairs(expression, held), expression
        if not compile_regex(parse_regex(expression)).accepts(()):
            # A nullable one's (v, v) pairs also hold the isolated nodes.
            assert image_pairs(image, expression) == evaluator.pairs(expression), expression
        if held:
            source = rng.choice(held)
            assert image_pairs(image, expression, [source]) == {
                (source, target) for target in evaluator.targets(expression, source)
            }, (expression, source)


def test_rpq_csr_restricted_and_unknown_sources():
    graph = LabeledMultigraph()
    graph.add_edge("x", "y", "a")
    graph.add_node("lone")
    image = StoreImage.build(0, graph)
    evaluator = RPQEvaluator(graph)
    for expression in ("a", "a*", "-a+"):
        assert image_pairs(image, expression, ["x"]) == evaluator.pairs(expression, ["x"])
        # The service's miss: an id search, or only the empty path from a
        # source the store's image does not hold.
        plan = PreparedQuery("rpq", expression)
        for source in ("x", "y", "lone", "ghost"):
            answer = plan.evaluate(graph, image, {"source": source}).decoded()
            assert answer == {"answers": {(t,) for t in evaluator.targets(expression, source)}}
    assert evaluator.targets("a*", "ghost") == {"ghost"}
