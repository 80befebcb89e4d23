"""Tests for dependence graphs and stratification."""

import pytest

from repro.datalog.parser import parse_program
from repro.datalog.stratify import (
    DependenceGraph,
    is_stratified,
    recursive_components,
    stratify,
)
from repro.errors import StratificationError


def program(text):
    return parse_program(text)


class TestDependenceGraph:
    def test_edges(self):
        p = program("h(X) :- p(X), not q(X).")
        g = DependenceGraph.of_program(p)
        assert g.dependencies("h") == {"p", "q"}
        assert g.negative_dependencies("h") == {"q"}

    def test_scc_of_mutual_recursion(self):
        p = program(
            """
            even(X) :- zero(X).
            even(Y) :- succ(X, Y), odd(X).
            odd(Y) :- succ(X, Y), even(X).
            """
        )
        assert [frozenset(group) for group in stratify(p).groups] == [frozenset({"even", "odd"})]

    def test_acyclic_check(self):
        p = program("h(X) :- p(X). g(X) :- h(X).")
        assert DependenceGraph.of_program(p).is_acyclic()
        p2 = program("h(X) :- h(X).")
        assert not DependenceGraph.of_program(p2).is_acyclic()
        assert DependenceGraph.of_program(p2).is_acyclic(ignore_self_loops=True)

    def test_negative_extra_forces_negative_edge(self):
        p = program("h(X) :- p(X).")
        g = DependenceGraph.of_program(p, negative_extra={"h": {"p"}})
        assert g.negative_dependencies("h") == {"p"}


class TestStratify:
    def test_edb_at_zero(self):
        strata = stratify(program("h(X) :- p(X)."))
        assert strata["p"] == 0
        assert strata["h"] == 0

    def test_negation_bumps(self):
        strata = stratify(program("h(X) :- p(X), not q(X). q(X) :- r(X)."))
        assert strata["h"] == strata["q"] + 1

    def test_chain_of_negations(self):
        strata = stratify(
            program(
                """
                a(X) :- e(X).
                b(X) :- e(X), not a(X).
                c(X) :- e(X), not b(X).
                """
            )
        )
        assert strata["a"] < strata["b"] < strata["c"]
        assert strata["c"] == 2

    def test_deep_chain_via_positive_then_negative(self):
        # Regression: strata must be computed dependencies-first.
        strata = stratify(
            program(
                """
                a(X) :- e(X), not z(X).
                z(X) :- e(X).
                b(X) :- a(X).
                c(X) :- b(X), not a(X).
                """
            )
        )
        assert strata["a"] == 1
        assert strata["b"] == 1
        assert strata["c"] == 2

    def test_recursion_through_negation_rejected(self):
        with pytest.raises(StratificationError):
            stratify(program("p(X) :- e(X), not p(X)."))

    def test_mutual_recursion_through_negation_rejected(self):
        with pytest.raises(StratificationError):
            stratify(
                program(
                    """
                    p(X) :- e(X), not q(X).
                    q(X) :- e(X), p(X).
                    """
                )
            )

    def test_positive_recursion_allowed(self):
        assert is_stratified(program("p(X, Y) :- e(X, Y). p(X, Y) :- e(X, Z), p(Z, Y)."))

    def test_stratum_order_groups(self):
        strata = stratify(
            program(
                """
                a(X) :- e(X).
                b(X) :- e(X), not a(X).
                """
            )
        )
        assert strata.groups == (("a",), ("b",))


class TestRecursiveComponents:
    def test_self_loop(self):
        comps = recursive_components(program("p(X) :- e(X). p(X) :- p(X)."))
        assert comps == [frozenset({"p"})]

    def test_non_recursive_excluded(self):
        comps = recursive_components(program("p(X) :- e(X)."))
        assert comps == []

    def test_mutual(self):
        comps = recursive_components(
            program(
                """
                even(X) :- zero(X).
                even(Y) :- succ(X, Y), odd(X).
                odd(Y) :- succ(X, Y), even(X).
                """
            )
        )
        assert frozenset({"even", "odd"}) in comps
