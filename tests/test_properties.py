"""Property-based tests (hypothesis) for core data structures and invariants."""


from hypothesis import given, settings, strategies as st

from repro.aggregation.summarize import summarize_paths
from repro.datalog.database import Database
from repro.datalog.engine import evaluate
from repro.datalog.parser import parse_program
from repro.graphs.closure import closure_methods, transitive_closure
from repro.rpq.automaton import compile_regex, determinize, minimize, thompson
from repro.rpq.regex import Concat, Epsilon, Opt, Plus, Star, Sym, Union
from repro.translation.differential import (
    check_equivalence,
    random_database,
    random_sl_program,
)
from repro.datalog.classify import is_stratified_linear, is_stratified_tc_program
from repro.translation.sl_to_stc import sl_to_stc

# ------------------------------------------------------------ graph inputs

nodes = st.integers(min_value=0, max_value=9)
edge_sets = st.sets(st.tuples(nodes, nodes), max_size=25)


@given(edge_sets)
@settings(max_examples=60, deadline=None)
def test_closure_kernels_agree(pairs):
    results = [transitive_closure(pairs, method) for method in closure_methods()]
    assert all(result == results[0] for result in results)


@given(edge_sets)
@settings(max_examples=40, deadline=None)
def test_closure_is_transitive_and_contains_base(pairs):
    closure = transitive_closure(pairs)
    assert pairs <= closure
    index = {}
    for a, b in closure:
        index.setdefault(a, set()).add(b)
    for a, b in closure:
        for c in index.get(b, ()):
            assert (a, c) in closure


@given(edge_sets)
@settings(max_examples=40, deadline=None)
def test_closure_idempotent(pairs):
    once = transitive_closure(pairs)
    assert transitive_closure(once) == once


@given(edge_sets)
@settings(max_examples=30, deadline=None)
def test_datalog_tc_matches_kernel(pairs):
    program = parse_program(
        """
        tc(X, Y) :- e(X, Y).
        tc(X, Y) :- e(X, Z), tc(Z, Y).
        """
    )
    db = Database()
    db.add_facts("e", pairs)
    result = evaluate(program, db)
    assert set(result.facts("tc")) == transitive_closure(pairs)


@given(edge_sets)
@settings(max_examples=25, deadline=None)
def test_naive_equals_seminaive(pairs):
    program = parse_program(
        """
        tc(X, Y) :- e(X, Y).
        tc(X, Y) :- e(X, Z), tc(Z, Y).
        n(X) :- e(X, _).
        n(X) :- e(_, X).
        un(X, Y) :- n(X), n(Y), not tc(X, Y).
        """
    )
    db = Database()
    db.add_facts("e", pairs)
    assert evaluate(program, db, "naive").to_dict() == evaluate(program, db).to_dict()


# ------------------------------------------------------------- regex inputs

symbols = st.sampled_from("abc")


def regexes(depth=3):
    base = st.one_of(symbols.map(Sym), st.just(Epsilon()))
    return st.recursive(
        base,
        lambda inner: st.one_of(
            st.tuples(inner, inner).map(lambda t: Concat(*t)),
            st.tuples(inner, inner).map(lambda t: Union(*t)),
            inner.map(Star),
            inner.map(Plus),
            inner.map(Opt),
        ),
        max_leaves=8,
    )


def _brute_force_accepts(regex, word):
    """Direct recursive matcher used as the oracle."""
    if isinstance(regex, Sym):
        return len(word) == 1 and word[0] == regex.label
    if isinstance(regex, Epsilon):
        return not word
    if isinstance(regex, Concat):
        return any(
            _brute_force_accepts(regex.left, word[:i])
            and _brute_force_accepts(regex.right, word[i:])
            for i in range(len(word) + 1)
        )
    if isinstance(regex, Union):
        return _brute_force_accepts(regex.left, word) or _brute_force_accepts(
            regex.right, word
        )
    if isinstance(regex, Opt):
        return not word or _brute_force_accepts(regex.inner, word)
    if isinstance(regex, (Star, Plus)):
        if not word:
            # Star always accepts epsilon; Plus does iff its body is nullable.
            return isinstance(regex, Star) or _brute_force_accepts(regex.inner, ())
        return any(
            i > 0
            and _brute_force_accepts(regex.inner, word[:i])
            and _brute_force_accepts(Star(regex.inner), word[i:])
            for i in range(1, len(word) + 1)
        )
    raise AssertionError(regex)


@given(regexes(), st.lists(symbols, max_size=5))
@settings(max_examples=120, deadline=None)
def test_dfa_matches_brute_force(regex, word):
    dfa = compile_regex(regex)
    expected = _brute_force_accepts(regex, tuple(word))
    assert dfa.accepts([(c, False) for c in word]) == expected


@given(regexes(), st.lists(symbols, max_size=5))
@settings(max_examples=80, deadline=None)
def test_minimization_preserves_acceptance(regex, word):
    big = determinize(thompson(regex))
    small = minimize(big)
    symbols_word = [(c, False) for c in word]
    assert big.accepts(symbols_word) == small.accepts(symbols_word)
    assert small.n_states <= big.n_states


# --------------------------------------------- Algorithm 3.1 (Theorem 3.2)


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=25, deadline=None)
def test_algorithm31_equivalence_random_programs(seed):
    program = random_sl_program(seed)
    assert is_stratified_linear(program)
    translation = sl_to_stc(program, use_predicate_name_signatures=False)
    assert is_stratified_tc_program(translation.program)
    arities = {p: program.arity_of(p) for p in program.edb_predicates}
    db = random_database(seed + 1, arities, domain_size=5, facts_per_predicate=6)
    equal, diffs = check_equivalence(program, db, translation=translation)
    assert equal, diffs


# ------------------------------------------------------- path summarization


weighted_dag_edges = st.lists(
    st.tuples(nodes, nodes, st.integers(min_value=0, max_value=9)),
    max_size=15,
).map(lambda edges: [(a, b, w) for a, b, w in edges if a < b])  # a<b forces a DAG


@given(weighted_dag_edges)
@settings(max_examples=40, deadline=None)
def test_shortest_le_longest_on_dags(edges):
    shortest = summarize_paths(edges, "shortest")
    longest = summarize_paths(edges, "longest")
    assert set(shortest) == set(longest)
    for pair, value in shortest.items():
        assert value <= longest[pair]


@given(weighted_dag_edges)
@settings(max_examples=40, deadline=None)
def test_summaries_cover_exactly_reachable_pairs(edges):
    reach = transitive_closure({(a, b) for a, b, _w in edges})
    table = summarize_paths(edges, "shortest")
    assert set(table) == reach


@given(weighted_dag_edges)
@settings(max_examples=30, deadline=None)
def test_shortest_triangle_inequality(edges):
    table = summarize_paths(edges, "shortest")
    for (a, b), ab in table.items():
        for (b2, c), bc in table.items():
            if b2 == b:
                assert table[(a, c)] <= ab + bc + 1e-9


# -------------------------------------------------- magic sets (abl4 claim)


@given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=0, max_value=3))
@settings(max_examples=20, deadline=None)
def test_magic_sets_match_full_on_random_positive_programs(seed, goal_choice):
    from repro.datalog.engine import Engine
    from repro.datalog.magic import magic_answers
    from repro.datalog.ast import Atom
    from repro.datalog.terms import Constant, Variable

    program = random_sl_program(seed, negation=False)
    arities = {p: program.arity_of(p) for p in program.edb_predicates}
    db = random_database(seed + 13, arities, domain_size=5, facts_per_predicate=6)
    predicate = sorted(program.idb_predicates)[goal_choice % len(program.idb_predicates)]
    arity = program.arity_of(predicate)
    domain_value = sorted(db.active_domain(), key=str)[0]
    # Bind the first argument half the time; leave all free otherwise.
    if goal_choice % 2 == 0 and arity >= 1:
        args = [Constant(domain_value)] + [Variable(f"G{i}") for i in range(arity - 1)]
    else:
        args = [Variable(f"G{i}") for i in range(arity)]
    goal = Atom(predicate, args)
    assert magic_answers(program, db, goal) == Engine().query(program, db, goal)


# ------------------------------------------------------- optimizer soundness


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=20, deadline=None)
def test_optimizer_preserves_random_programs(seed):
    from repro.datalog.optimize import optimize

    program = random_sl_program(seed)
    roots = sorted(program.idb_predicates)
    optimized = optimize(program, roots=roots)
    arities = {p: program.arity_of(p) for p in program.edb_predicates}
    db = random_database(seed + 29, arities, domain_size=5, facts_per_predicate=6)
    full = evaluate(program, db)
    opt = evaluate(optimized, db)
    for predicate in roots:
        assert full.facts(predicate) == opt.facts(predicate)


# ----------------------------------------------------- DSL round-trip (text)


_pre_texts = st.sampled_from(
    [
        "a+",
        "a*",
        "a?",
        "a b",
        "(a | b)+",
        "-a b",
        "a (b | c)*",
        "~a+",
        "mother(_) father",
        "r(X)+",
    ]
)


@given(_pre_texts)
@settings(max_examples=30, deadline=None)
def test_dsl_roundtrip_through_render(pre_text):
    from repro.core.dsl import parse_graphical_query
    from repro.visual.ascii_art import render_graphical_query

    source = f"define (S) -[out]-> (T) {{ (S) -[{pre_text}]-> (T); }}"
    query = parse_graphical_query(source)
    rendered = render_graphical_query(query)
    reparsed = parse_graphical_query(rendered)
    assert reparsed.graphs[0].edges[0].pre == query.graphs[0].edges[0].pre


# ------------------------------------------------- incremental maintenance


@given(
    st.lists(st.tuples(nodes, nodes), min_size=1, max_size=12),
    st.lists(st.tuples(nodes, nodes), min_size=1, max_size=4),
)
@settings(max_examples=30, deadline=None)
def test_insert_only_maintenance_matches_recompute(base_edges, new_edges):
    from repro.datalog.dred import MaintenancePlan

    base_edges = [(a, b) for a, b in base_edges if a != b]
    new_edges = [(a, b) for a, b in new_edges if a != b]
    program = parse_program(
        """
        tc(X, Y) :- e(X, Y).
        tc(X, Y) :- e(X, Z), tc(Z, Y).
        """
    )
    db = Database()
    db.relation("e", 2)
    db.add_facts("e", base_edges)
    plan = MaintenancePlan(program)
    updated = plan.evaluate(db)
    plan.maintain(updated, delta_plus={"e": new_edges})
    full_db = Database()
    full_db.relation("e", 2)
    full_db.add_facts("e", base_edges + new_edges)
    assert updated.facts("tc") == evaluate(program, full_db, "naive").facts("tc")
