"""One relational image of the store, advanced by commit deltas.

The Section 2 encoding (tuple ``P(a, b, c)`` ⇄ edge ``a -P(c)-> b``) is what
lets λ-translated Datalog run over the HAM graph; this module keeps that
relational form *as a stored thing* instead of re-deriving it per
evaluation.  A :class:`StoreImage` is the image of one store version, kept
in one representation — sealed int relations over one append-only
``TermCatalog``:

- ``facts`` — the :class:`~repro.datalog.columnar.EncodedDatabase` of the
  graph's facts (the encoding of what ``database_from_graph`` returns);
- ``prepared`` — ``facts`` plus the ``node`` domain relation of the live
  values' ids (the encoding of what ``prepare_database`` returns), sharing
  every other relation by reference.

Either is what ``Engine(method="columnar")`` and the RPQ image search read
as they are: :func:`~repro.datalog.columnar.encode_database` hands an
encoding back unchanged.

:class:`StoreImages` owns the current image of one store and advances it
from version *u* to *v* by folding the typed deltas of
``store.records_since(u)``: relations a delta does not touch are the same
objects in both versions, built indexes included; touched relations are
copied and patched; the domain relation takes the values each record's
delta says entered or left it, which the store derives once per commit from
its one value refcount.  Published images
are immutable, so an evaluation at *u* is unaffected by the advance to *v*.
The advance is pull-based (:meth:`StoreImages.at`): a commit does no work
here, and a store nobody evaluates against never has an image.  Building
from the graph survives as the constructor, :meth:`StoreImage.build` — taken
on first use and whenever folding is impossible or not cheaper.
"""

from __future__ import annotations

import threading
from collections import Counter

from repro.core.translate import DOMAIN_PREDICATE
from repro.datalog.columnar import ColumnarRelation, EncodedDatabase
from repro.errors import ArityError
from repro.graphs import bridge
from repro.ham.delta import net_delta

#: Dead catalog terms tolerated beyond the size of the live domain before a
#: fold gives way to a rebuild over a fresh catalog (small stores churn
#: freely).
_CATALOG_SLACK = 64


def catalog_bloated(dead, live):
    """The rule by which a catalog is shed, for an image and for a view's
    maintained state alike: the values that left the store but stay
    interned (*dead*) outnumber the *live* ones (a count) plus the slack."""
    return len(dead) > live + _CATALOG_SLACK


class StoreImage:
    """The relational image of one store version; immutable once built."""

    __slots__ = ("version", "facts", "prepared", "dead", "tuple_nodes")

    def __init__(self, version, facts, domain, dead=frozenset(), tuple_nodes=False):
        self.version = version
        self.facts = facts
        #: A user relation named `node` holds domain values only, so the
        #: sealed domain relation *domain* stands in for it here rather than
        #: merging with it.
        self.prepared = facts.with_relation(domain)
        #: Values that left the store but are still interned in the catalog.
        self.dead = dead
        #: Whether the graph may hold a tuple node, whose edges spread an
        #: endpoint over several columns; once true, only a build clears it.
        self.tuple_nodes = tuple_nodes

    @classmethod
    def build(cls, version, graph):
        """The image of *graph*, from scratch, over a fresh catalog."""
        database = bridge.database_from_graph(graph)
        facts = EncodedDatabase.from_database(database)
        domain = ColumnarRelation(DOMAIN_PREDICATE, 1, sealed=True)
        domain.merge_run((facts.catalog.intern(value),) for value in database.active_domain())
        tuple_nodes = any(isinstance(node, tuple) for node in graph.nodes)
        return cls(version, facts, domain, tuple_nodes=tuple_nodes)

    @property
    def domain(self):
        """The sealed ``node`` relation of ``prepared``."""
        return self.prepared.relations[DOMAIN_PREDICATE]

    def advanced(self, version, delta):
        """The image *delta* (net, since this version) leads to."""
        facts = self.facts.patched(delta.insertions, delta.deletions)
        entered, left = delta.entered, delta.left
        domain = self.domain
        if entered or left:
            intern = facts.catalog.intern
            domain = domain.patched(
                [(intern(value),) for value in entered], [(intern(value),) for value in left]
            )
        tuple_nodes = self.tuple_nodes or any(isinstance(n, tuple) for n in delta.nodes_added)
        return StoreImage(version, facts, domain, (self.dead | left) - entered, tuple_nodes)

    def shared_with(self, other):
        """How many relations of this image are the same objects in *other*."""
        theirs = other.facts.relations
        return (self.domain is other.domain) + sum(
            relation is theirs.get(name) for name, relation in self.facts.relations.items()
        )

    def edb(self, program, raw=False):
        """What *program* reads: ``facts`` with *raw* (a Datalog request
        reads the raw EDB), else ``prepared`` (λ reads the active domain
        too).  Raises :class:`ArityError` for a relation at another arity,
        and without *raw* for a user relation ``node`` that is not unary,
        as ``prepare_database`` does."""
        node = self.facts.relations.get(DOMAIN_PREDICATE)
        if not raw and node is not None and node.arity != 1:
            raise ArityError(f"relation 'node' has arity {node.arity}, requested 1")
        edb = self.facts if raw else self.prepared
        misread = [p for p in program.edb_predicates
                   if p in edb.relations and edb.relations[p].arity != program.arity_of(p)]
        if misread:
            raise ArityError(f"it holds {misread} at other arities than the program reads")
        return edb

    @property
    def catalog(self):
        return self.facts.catalog

    @property
    def bloated(self):
        """The catalog outlives a version, so values that left the store
        stay interned; true once they outnumber the live ones."""
        return catalog_bloated(self.dead, len(self.domain))


class _Unfoldable(Exception):
    """Folding is impossible or not cheaper; the message is the reason."""


class StoreImages:
    """Owner of one store's current :class:`StoreImage`."""

    def __init__(self, store):
        self.store = store
        self._lock = threading.Lock()
        self._image = None
        #: ``(version, message)`` of the last version whose image raised
        #: ArityError, so later reads at it do not rebuild to fail again.
        self._unbuildable = None
        self.builds = 0
        self.folds = 0
        self.folded_rows = 0
        self.fallbacks = Counter()
        self.shared_relations = 0

    def at(self, version, graph):
        """The image of *graph*, the store's graph at *version*.  Raises
        :class:`ArityError` for a store holding a label at two arities."""
        with self._lock:
            image = self._image
            if image is not None and image.version == version:
                return image
            if self._unbuildable is not None and self._unbuildable[0] == version:
                raise ArityError(self._unbuildable[1])
            if image is None or version > image.version:
                try:
                    image = self._image = self._advance(image, version, graph)
                except ArityError as exc:
                    self._unbuildable = (version, str(exc))
                    raise
                return image
            # A reader pinned to a version the published image has moved
            # past (or a subscription diffing an old record): its own build,
            # never published.
            self.fallbacks["older_version"] += 1
            self.builds += 1
        return StoreImage.build(version, graph)

    def reset(self, reason):
        """Forget the image: version arithmetic no longer holds (a replica
        re-bootstrap may regress the version or swap the history)."""
        with self._lock:
            self._unbuildable = None
            if self._image is not None:
                self._image = None
                self.fallbacks[reason] += 1

    def _advance(self, image, version, graph):
        if image is not None:
            try:
                return self._fold(image, version)
            except _Unfoldable as why:
                self.fallbacks[str(why)] += 1
        image = StoreImage.build(version, graph)
        self.builds += 1
        self.shared_relations = 0
        return image

    def _fold(self, image, version):
        behind = version - image.version
        records = self.store.records_since(image.version)
        if records is None:
            raise _Unfoldable("history_truncated")
        deltas = [record.delta for record in records[:behind]]
        delta_rows = sum(
            len(rows)
            for delta in deltas
            for side in (delta.insertions, delta.deletions)
            for rows in side.values()
        )
        if delta_rows > sum(map(len, image.facts.relations.values())):
            raise _Unfoldable("large_delta")
        try:
            successor = image.advanced(version, net_delta(deltas))
        except ArityError:
            raise _Unfoldable("arity_conflict") from None
        if successor.bloated:
            raise _Unfoldable("catalog_bloat")
        self.folds += 1
        self.folded_rows += delta_rows
        self.shared_relations = successor.shared_with(image)
        return successor

    def stats(self):
        with self._lock:
            image = self._image
            return {
                "version": image.version if image is not None else None,
                "builds": self.builds,
                "folds": self.folds,
                "folded_rows": self.folded_rows,
                "fallbacks": dict(self.fallbacks),
                "shared_relations": self.shared_relations,
                "catalog_terms": len(image.catalog) if image is not None else 0,
            }
