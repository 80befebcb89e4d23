"""Semiring path algebra for path summarization (Section 4).

A path summarization — "the longest sum of durations along all paths", "the
length of a shortest path" — is a semiring computation: edge weights combine
along a path with ⊗ and across paths with ⊕.  Each :class:`Semiring` bundles
the two operations with their identities and closure properties; the solver
in :mod:`repro.aggregation.summarize` picks an algorithm accordingly.
"""

from __future__ import annotations

import math


class Semiring:
    """A semiring ``(⊕, ⊗, zero, one)`` over edge weights.

    Attributes:
        plus: the across-paths combinator ⊕ (binary callable).
        times: the along-path combinator ⊗ (binary callable).
        zero: identity of ⊕ (the value for "no path").
        one: identity of ⊗ (the value of the empty path).
        idempotent: whether ``a ⊕ a == a`` (enables fixpoint iteration on
            cyclic graphs).
        monotone_bounded: whether repeated ⊗ along a cycle can never improve
            a ⊕-selected value: a bool, or a predicate on one weight (min-plus:
            non-negative); cyclic graphs are solvable iff idempotent and bounded.
    """

    def __init__(self, name, plus, times, zero, one, idempotent, monotone_bounded):
        self.name = name
        self.plus = plus
        self.times = times
        self.zero = zero
        self.one = one
        self.idempotent = idempotent
        self.monotone_bounded = monotone_bounded

    def plus_all(self, values):
        out = self.zero
        for value in values:
            out = self.plus(out, value)
        return out

    def __repr__(self):
        return f"Semiring({self.name})"


MIN_PLUS = Semiring(
    "min-plus (shortest path)",
    plus=min,
    times=lambda a, b: a + b,
    zero=math.inf,
    one=0,
    idempotent=True,
    monotone_bounded=lambda weight: weight >= 0,
)

MAX_PLUS = Semiring(
    "max-plus (longest path)",
    plus=max,
    times=lambda a, b: a + b,
    zero=-math.inf,
    one=0,
    idempotent=True,
    monotone_bounded=False,  # positive cycles diverge: DAG only
)

MAX_MIN = Semiring(
    "max-min (widest / bottleneck path)",
    plus=max,
    times=min,
    zero=-math.inf,
    one=math.inf,
    idempotent=True,
    monotone_bounded=True,
)

COUNT_PATHS = Semiring(
    "count (number of paths)",
    plus=lambda a, b: a + b,
    times=lambda a, b: a * b,
    zero=0,
    one=1,
    idempotent=False,
    monotone_bounded=False,  # DAG only
)

BOOLEAN = Semiring(
    "boolean (reachability)",
    plus=lambda a, b: bool(a or b),  # a truth value, whatever the weights:
    times=lambda a, b: bool(a and b),  # `or` would keep whichever came first
    zero=False,
    one=True,
    idempotent=True,
    monotone_bounded=True,
)

MAX_TIMES = Semiring(
    "max-times (most reliable path, probabilities in [0,1])",
    plus=max,
    times=lambda a, b: a * b,
    zero=0.0,
    one=1.0,
    idempotent=True,
    monotone_bounded=lambda weight: 0 <= weight <= 1,
)

STANDARD_SEMIRINGS = {
    "shortest": MIN_PLUS,
    "longest": MAX_PLUS,
    "widest": MAX_MIN,
    "count": COUNT_PATHS,
    "reach": BOOLEAN,
    "reliable": MAX_TIMES,
}


def semiring_by_name(name):
    """Look up one of the standard semirings by its short name."""
    try:
        return STANDARD_SEMIRINGS[name]
    except KeyError:
        known = ", ".join(sorted(STANDARD_SEMIRINGS))
        raise KeyError(f"unknown semiring {name!r}; known: {known}") from None
