"""Derivation provenance: why a derived fact holds.

With ``Engine("naive", record_provenance=True)`` the engine stores, for each derived
fact, the *first* rule instance that produced it together with the positive
body facts it matched.  Because a fact's first derivation can only use facts
derived strictly earlier, the recorded support relation is well-founded and
:func:`explain` always terminates with a finite derivation tree.

This powers GraphLog-level answer highlighting (Section 5's "highlighting
qualifying paths directly on the database graph"): the leaves of a
derivation tree are exactly the base facts — i.e. database edges — that
justify an answer.
"""

from __future__ import annotations


class Derivation:
    """A derivation tree node: one fact plus how it was derived.

    ``rule`` is None for base (EDB) facts; then ``children`` is empty.
    """

    __slots__ = ("predicate", "row", "rule", "children")

    def __init__(self, predicate, row, rule=None, children=()):
        self.predicate = predicate
        self.row = tuple(row)
        self.rule = rule
        self.children = list(children)

    @property
    def fact(self):
        return (self.predicate, self.row)

    @property
    def is_base(self):
        return self.rule is None

    def base_facts(self):
        """The set of EDB (leaf) facts supporting this derivation."""
        if self.is_base:
            return {self.fact}
        out = set()
        for child in self.children:
            out |= child.base_facts()
        return out

    def depth(self):
        if not self.children:
            return 0
        return 1 + max(child.depth() for child in self.children)

    def render(self, indent=0):
        """A printable proof tree."""
        pad = "  " * indent
        label = f"{self.predicate}({', '.join(map(str, self.row))})"
        if self.is_base:
            lines = [f"{pad}{label}   [base fact]"]
        else:
            lines = [f"{pad}{label}   [by {self.rule}]"]
        for child in self.children:
            lines.append(child.render(indent + 1))
        return "\n".join(lines)

    def __repr__(self):
        kind = "base" if self.is_base else "derived"
        return f"Derivation({self.predicate}{self.row}, {kind})"


def explain(provenance, predicate, row):
    """Build the derivation tree of ``predicate(row)``.

    ``provenance`` is the engine's ``{(pred, row): (rule, support)}`` map;
    facts absent from it are treated as base facts.  Shared sub-derivations
    are built once (the tree is really a DAG; children may be shared).
    """
    memo = {}

    def build(pred, values):
        key = (pred, tuple(values))
        if key in memo:
            return memo[key]
        entry = provenance.get(key)
        if entry is None:
            node = Derivation(pred, values)
        else:
            rule, support = entry
            children = [build(p, r) for p, r in (support or ())]
            node = Derivation(pred, values, rule, children)
        memo[key] = node
        return node

    return build(predicate, tuple(row))


def why(provenance, predicate, row):
    """The supporting base facts of one derived fact (the 'why' set)."""
    return explain(provenance, predicate, row).base_facts()
