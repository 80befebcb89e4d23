"""Property test: the λ-translated Datalog evaluation of a variable-free
path regular expression agrees with the RPQ product-automaton evaluation.

This is the strongest oracle we have for the p.r.e. compiler: two completely
independent evaluation pipelines (stratified Datalog fixpoint vs automaton
reachability) must produce identical pair sets for every expression and
graph.  The converse direction, :func:`~repro.core.pre.regex_to_pre`, is
checked the same way from random label regexes, and so is the magic-seeded
view program a service maintains for a single-source RPQ.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.engine import GraphLogEngine, prepare_database
from repro.core.pre import (
    Alternation,
    Closure,
    Composition,
    Inversion,
    Optional,
    Pred,
    Star,
    regex_to_pre,
)
from repro.core.query_graph import GraphicalQuery, QueryGraph
from repro.datalog.engine import Engine
from repro.datasets.random_graphs import random_labeled_graph
from repro.errors import RegexError
from repro.graphs.bridge import database_from_graph
from repro.rpq.evaluate import RPQEvaluator
from repro.rpq import regex as rq
from repro.service.prepared import PreparedQuery

LABELS = ("a", "b", "c")

pre_exprs = st.recursive(
    st.sampled_from(LABELS).map(Pred),
    lambda inner: st.one_of(
        st.tuples(inner, inner).map(lambda t: Composition(*t)),
        st.tuples(inner, inner).map(lambda t: Alternation(*t)),
        inner.map(Closure),
        inner.map(Star),
        inner.map(Optional),
        inner.map(Inversion),
    ),
    max_leaves=6,
)


def pre_to_regex(expr):
    """Convert a variable-free p.r.e. into an equivalent label regex."""
    if isinstance(expr, Pred):
        return rq.Sym(expr.name)
    if isinstance(expr, Composition):
        return rq.Concat(pre_to_regex(expr.left), pre_to_regex(expr.right))
    if isinstance(expr, Alternation):
        return rq.Union(pre_to_regex(expr.left), pre_to_regex(expr.right))
    if isinstance(expr, Closure):
        return rq.Plus(pre_to_regex(expr.inner))
    if isinstance(expr, Star):
        return rq.Star(pre_to_regex(expr.inner))
    if isinstance(expr, Optional):
        return rq.Opt(pre_to_regex(expr.inner))
    if isinstance(expr, Inversion):
        return _invert_regex(pre_to_regex(expr.inner))
    raise AssertionError(expr)


def _invert_regex(regex):
    """Reverse a regex and flip every symbol's direction (path reversal)."""
    if isinstance(regex, rq.Sym):
        return rq.Sym(regex.label, inverted=not regex.inverted)
    if isinstance(regex, rq.Concat):
        return rq.Concat(_invert_regex(regex.right), _invert_regex(regex.left))
    if isinstance(regex, rq.Union):
        return rq.Union(_invert_regex(regex.left), _invert_regex(regex.right))
    if isinstance(regex, rq.Star):
        return rq.Star(_invert_regex(regex.inner))
    if isinstance(regex, rq.Plus):
        return rq.Plus(_invert_regex(regex.inner))
    if isinstance(regex, rq.Opt):
        return rq.Opt(_invert_regex(regex.inner))
    raise AssertionError(regex)


GRAPHS = [
    random_labeled_graph(seed, 8, 18, labels=LABELS) for seed in (3, 17)
]
DATABASES = [database_from_graph(graph) for graph in GRAPHS]


def lambda_pairs(expr, database):
    """What λ of the one-edge query labeled *expr* pairs over *database*."""
    query_graph = QueryGraph()
    query_graph.edge("X", "Y", expr)
    query_graph.distinguished("X", "Y", "out")
    return GraphLogEngine().answers(GraphicalQuery([query_graph]), database, "out")


@given(pre_exprs, st.integers(min_value=0, max_value=len(GRAPHS) - 1))
@settings(max_examples=60, deadline=None)
def test_datalog_pipeline_matches_automaton(expr, graph_index):
    graph = GRAPHS[graph_index]
    database = DATABASES[graph_index]
    datalog_pairs = lambda_pairs(expr, database)
    rpq_pairs = RPQEvaluator(graph).pairs(pre_to_regex(expr))
    assert datalog_pairs == rpq_pairs, f"divergence on {expr}"


# ------------------------------------------------------------ regex -> pre

#: Every symbol, inverted or not, and the empty word.
LEAVES = [rq.Sym(label, inverted) for label in LABELS for inverted in (False, True)]
LEAVES.append(rq.Epsilon())

regexes = st.recursive(
    st.sampled_from(LEAVES),
    lambda inner: st.one_of(
        st.builds(rq.Concat, inner, inner),
        st.builds(rq.Union, inner, inner),
        st.builds(rq.Plus, inner),
        st.builds(rq.Star, inner),
        st.builds(rq.Opt, inner),
    ),
    max_leaves=6,
)


def test_the_empty_word_alone_has_no_pre():
    with pytest.raises(RegexError, match="empty word"):
        regex_to_pre(rq.Epsilon())


@given(regexes, st.integers(min_value=0, max_value=len(GRAPHS) - 1))
@settings(max_examples=80, deadline=None)
def test_regex_to_pre_pairs_what_the_automaton_pairs(regex, graph_index):
    try:
        expr = regex_to_pre(regex)
    except RegexError:
        assert regex == rq.Epsilon()
        return
    if not any(isinstance(node, rq.Epsilon) for node in regex.walk()):
        assert pre_to_regex(expr) == regex  # the inverse, exactly
    pairs = RPQEvaluator(GRAPHS[graph_index]).pairs(regex)
    assert lambda_pairs(expr, DATABASES[graph_index]) == pairs, f"divergence on {regex}"


#: The graphs again, each with a node no edge touches: the automaton starts
#: a search there, λ's active domain does not hold it.
LONELY = "lonely"
ISOLATED = [graph.copy() for graph in GRAPHS]
for _graph in ISOLATED:
    _graph.add_node(LONELY)
SEEDED_DATABASES = [prepare_database(database_from_graph(graph)) for graph in ISOLATED]


@given(
    regexes,
    st.integers(min_value=0, max_value=len(GRAPHS) - 1),
    st.sampled_from(["n0", "n3", "n7", LONELY]),
)
@settings(max_examples=80, deadline=None)
def test_the_magic_seeded_view_holds_the_source_reach_set(regex, graph_index, source):
    definition = PreparedQuery("rpq", str(regex)).view({"source": source})
    graph = ISOLATED[graph_index]
    targets = {(t,) for t in RPQEvaluator(graph).targets(regex, source)}
    if definition.program is None:
        assert "empty word" in definition.reason
        return
    (predicate,) = definition.predicates
    result = Engine("naive").evaluate(definition.program, SEEDED_DATABASES[graph_index])
    assert result.facts(predicate) == targets, f"divergence on {regex} from {source}"
