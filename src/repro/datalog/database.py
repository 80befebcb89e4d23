"""Extensional database: named relations of ground tuples with hash indexes.

Tuples are stored as tuples of :class:`~repro.datalog.terms.Constant` values'
underlying Python objects (i.e. raw values, not Term wrappers) for speed; the
evaluation engine wraps/unwraps at its boundary.  Per-column hash indexes are
built lazily the first time a join probes that column.
"""

from __future__ import annotations

from collections import defaultdict

from repro.datalog.terms import Constant
from repro.errors import ArityError


class Relation:
    """A set of fixed-arity tuples with lazily-built column indexes."""

    __slots__ = ("name", "arity", "_tuples", "_indexes", "_mutations")

    def __init__(self, name, arity):
        self.name = name
        self.arity = int(arity)
        self._tuples = set()
        self._indexes = {}
        #: Bumped on every successful add/discard; consumers that cache a
        #: derived form of the relation (e.g. the columnar int encoding)
        #: key their cache on this counter.
        self._mutations = 0

    def __len__(self):
        return len(self._tuples)

    def __iter__(self):
        return iter(self._tuples)

    def __contains__(self, row):
        return tuple(row) in self._tuples

    def __eq__(self, other):
        if not isinstance(other, Relation):
            return NotImplemented
        return self.name == other.name and self._tuples == other._tuples

    # Defining __eq__ sets __hash__ to None; relations must stay usable as
    # dict keys / set members (identity semantics, like any mutable
    # container), so restore identity hashing explicitly.
    __hash__ = object.__hash__

    def __repr__(self):
        return f"Relation({self.name!r}/{self.arity}, {len(self)} tuples)"

    @property
    def tuples(self):
        """The underlying (live) set of tuples; treat as read-only."""
        return self._tuples

    def add(self, row):
        """Insert a tuple; returns True if it was new."""
        row = tuple(row)
        if len(row) != self.arity:
            raise ArityError(
                f"relation {self.name!r} has arity {self.arity}, got tuple of length {len(row)}"
            )
        if row in self._tuples:
            return False
        self._tuples.add(row)
        self._mutations += 1
        for position, index in self._indexes.items():
            index[self._key(row, position)].add(row)
        return True

    def add_many(self, rows):
        """Insert many tuples; returns the number actually inserted."""
        added = 0
        for row in rows:
            if self.add(row):
                added += 1
        return added

    def discard(self, row):
        row = tuple(row)
        if row not in self._tuples:
            return False
        self._tuples.discard(row)
        self._mutations += 1
        for position, index in self._indexes.items():
            index[self._key(row, position)].discard(row)
        return True

    @staticmethod
    def _key(row, positions):
        return tuple(row[p] for p in positions)

    def lookup(self, positions, values):
        """All tuples whose columns at *positions* equal *values*.

        ``positions`` is a sorted tuple of column indexes; an index over that
        column combination is created on first use.
        """
        positions = tuple(positions)
        if not positions:
            return self._tuples
        if len(positions) == self.arity:
            # Fully bound: a membership probe, no index needed.  Positions
            # cover every column but are not necessarily sorted, so the
            # probe row is assembled in column order, not argument order.
            row = tuple(values)
            if positions != _SORTED_POSITIONS.get(self.arity):
                by_position = sorted(zip(positions, values))
                row = tuple(v for _p, v in by_position)
            return (row,) if row in self._tuples else _EMPTY_SET
        index = self._indexes.get(positions)
        if index is None:
            index = defaultdict(set)
            for row in self._tuples:
                index[self._key(row, positions)].add(row)
            self._indexes[positions] = index
        return index.get(tuple(values), _EMPTY_SET)

    def copy(self):
        clone = Relation(self.name, self.arity)
        clone._tuples = set(self._tuples)
        return clone


_EMPTY_SET = frozenset()

#: Memoized identity position tuples: a fully-bound probe whose positions
#: already read ``(0, 1, ..., arity-1)`` needs no reordering.
_SORTED_POSITIONS = {n: tuple(range(n)) for n in range(1, 17)}


class Database:
    """A mapping from predicate name to :class:`Relation`.

    Fact values are raw Python objects (strings, numbers, sentinels), not
    Term wrappers.  ``Constant`` wrappers are unwrapped on insertion.
    """

    def __init__(self):
        self._relations = {}

    def __contains__(self, predicate):
        return predicate in self._relations

    def __iter__(self):
        return iter(self._relations)

    def __eq__(self, other):
        if not isinstance(other, Database):
            return NotImplemented
        mine = {n: r.tuples for n, r in self._relations.items() if r.tuples}
        theirs = {n: r.tuples for n, r in other._relations.items() if r.tuples}
        return mine == theirs

    def __repr__(self):
        total = sum(len(r) for r in self._relations.values())
        return f"Database({len(self._relations)} relations, {total} facts)"

    @property
    def predicates(self):
        return set(self._relations)

    def relation(self, predicate, arity=None):
        """Fetch (creating if *arity* is given) the relation for a predicate."""
        existing = self._relations.get(predicate)
        if existing is not None:
            if arity is not None and existing.arity != arity:
                raise ArityError(
                    f"relation {predicate!r} has arity {existing.arity}, requested {arity}"
                )
            return existing
        if arity is None:
            raise KeyError(f"unknown relation {predicate!r}")
        created = Relation(predicate, arity)
        self._relations[predicate] = created
        return created

    @staticmethod
    def _unwrap(value):
        return value.value if isinstance(value, Constant) else value

    def add_fact(self, predicate, *values):
        """Insert one fact; values may be raw or Constant-wrapped."""
        row = tuple(self._unwrap(v) for v in values)
        return self.relation(predicate, len(row)).add(row)

    def add_facts(self, predicate, rows):
        """Insert many facts for one predicate."""
        added = 0
        for row in rows:
            if self.add_fact(predicate, *row):
                added += 1
        return added

    def facts(self, predicate):
        """The tuple set of a predicate (empty frozen set when absent)."""
        relation = self._relations.get(predicate)
        return relation.tuples if relation is not None else _EMPTY_SET

    def count(self, predicate=None):
        if predicate is not None:
            return len(self.facts(predicate))
        return sum(len(r) for r in self._relations.values())

    def arity_of(self, predicate):
        return self.relation(predicate).arity

    def copy(self):
        clone = Database()
        clone._relations = {name: rel.copy() for name, rel in self._relations.items()}
        return clone

    def merge(self, other):
        """Add every fact of *other* into this database (in place)."""
        for predicate in other:
            relation = other.relation(predicate)
            self.relation(predicate, relation.arity).add_many(relation.tuples)
        return self

    def active_domain(self):
        """The set of all values occurring in any fact."""
        domain = set()
        for relation in self._relations.values():
            for row in relation:
                domain.update(row)
        return domain

    @classmethod
    def from_facts(cls, facts_by_predicate):
        """Build a database from ``{predicate: iterable of tuples}``."""
        database = cls()
        for predicate, rows in facts_by_predicate.items():
            database.add_facts(predicate, rows)
        return database

    def to_dict(self):
        """A plain ``{predicate: sorted list of tuples}`` snapshot."""
        return {
            name: sorted(relation.tuples, key=_sort_key)
            for name, relation in self._relations.items()
            if relation.tuples
        }


def _sort_key(row):
    return tuple((type(v).__name__, str(v)) for v in row)
