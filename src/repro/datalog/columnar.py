"""Columnar int-encoded evaluation core (``Engine(method="columnar")``).

The one semi-naive fixpoint of the repository: all terms are
dictionary-encoded to dense ints once per database (a :class:`TermCatalog`),
a relation is a list of int rows plus their membership set
(:class:`ColumnarRelation`), and each rule body is compiled once per
fixpoint into a pipeline of flat join / anti-join / built-in kernels over
those ints (:func:`_compile_pipeline`).  Semi-naive deltas are deduplicated
against the membership set and appended between iterations, so an iteration
costs O(delta), never O(base).

- **Delta-first join ordering.**  Each (rule, delta position) variant is
  re-ordered greedily to enumerate the delta first, so a rule like
  ``tc(X,Y) :- e(X,Z), tc(Z,Y)`` costs an iteration proportional to the
  delta and its matches, not a re-scan of ``e``.
- **Old/new split.**  Rules with two or more recursive literals use the
  classical decomposition (positions before the delta read the full
  relation, positions after it the pre-iteration state), so each new
  combination is derived exactly once per iteration.
- **Closure strata.**  By Theorem 3.3 every recursion a GraphLog query
  expresses is the transitive closure of a non-recursive relation, and λ
  emits each ``p+`` as the TC rule pair of Definition 3.2.  A group that is
  one predicate defined by exactly that pair (or its left-linear mirror),
  still empty when its turn comes, is one reachability pass of the SCC
  kernel of :mod:`repro.graphs.closure` over the base relation's int rows
  (a 2k-ary row is the edge ``row[:k] -> row[k:]``) — Section 6's "existing
  work on transitive closure computation".  Other recursion, and relations
  seeded by program facts or EDB rows, keep the semi-naive loop.

Semantics are pinned to the naive walker of :mod:`repro.datalog.engine` by
randomized differential tests (tests/test_columnar_differential.py):
stratified negation, comparisons, arithmetic (including value interning of
computed results), repeated variables, constants and closure strata all
behave identically.  Results decode back into an ordinary
:class:`~repro.datalog.database.Database`, or — for a caller that reads a
few relations — into just those relations' row sets.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from itertools import chain
from operator import itemgetter

from repro import obs
from repro.datalog.ast import ArithmeticAssign, Comparison, Literal
from repro.datalog.terms import Variable
from repro.errors import ArityError, EvaluationError
from repro.graphs.closure import closure_pairs

# Comparison/arithmetic tables are shared with the naive walker so the two
# backends can never drift on built-in semantics.
from repro.datalog.engine import (
    _ARITHMETIC,
    Answer,
    _COMPARATORS,
    _declare_relations,
)


class TermCatalog:
    """Dictionary encoding of term values to dense non-negative ints.

    Interning follows Python equality (as the naive walker's tuple sets
    do), so ``1``, ``1.0`` and ``True`` share one id.  The catalog is
    append-only; ids are stable for its lifetime, which lets encoded
    databases and derived relations share one catalog across queries.
    Interning is thread-safe: the read path is a plain dict probe, the
    write path double-checks under a lock.
    """

    __slots__ = ("_ids", "values", "_lock")

    def __init__(self):
        import threading

        self._ids = {}
        #: id -> original value, index-aligned; kernels read this directly.
        self.values = []
        self._lock = threading.Lock()

    def __len__(self):
        return len(self.values)

    def intern(self, value):
        ident = self._ids.get(value)
        if ident is not None:
            return ident
        with self._lock:
            ident = self._ids.get(value)
            if ident is None:
                ident = len(self.values)
                self.values.append(value)
                self._ids[value] = ident
        return ident

    def find(self, value):
        """The id of *value*, or None if it was never interned."""
        return self._ids.get(value)

    def intern_row(self, row):
        return tuple(self.intern(v) for v in row)

    def value(self, ident):
        return self.values[ident]

    def decode_row(self, row):
        values = self.values
        return tuple(values[i] for i in row)


class _Keys(set):
    """A relation's row set, read as its index over every position: the
    bucket of a row it holds is ``[row]``, so a fully-bound probe needs no
    second copy of the rows."""

    __slots__ = ()

    def get(self, key, default=None):
        return [key] if key in self else default

    def __getitem__(self, key):
        if key in self:
            return [key]
        raise KeyError(key)


class ColumnarRelation:
    """A relation of fixed-arity int rows.

    ``rows`` is the list of encoded row tuples in insertion order; ``keys``
    is the membership set used for O(1) dedup when a delta merges in, and
    the index over all positions of a relation of arity > 1.  No code reads
    the rows in any particular order.  Other hash indexes over position
    subsets are built lazily and — for unsealed relations — extended
    incrementally as deltas merge, so index maintenance is O(delta) per
    iteration.

    A *sealed* relation is immutable (the encoded EDB): its indexes are
    built whole and may be shared by concurrent evaluations.  An unsealed
    relation (a fixpoint's working copy) is owned by one evaluation.
    """

    __slots__ = ("name", "arity", "rows", "keys", "sealed", "_indexes")

    def __init__(self, name, arity, sealed=False):
        self.name = name
        self.arity = int(arity)
        self.rows = []
        self.keys = _Keys()
        self.sealed = sealed
        self._indexes = {}

    def __len__(self):
        return len(self.rows)

    def __contains__(self, row):
        return row in self.keys

    def __repr__(self):
        return (
            f"ColumnarRelation({self.name!r}/{self.arity}, {len(self.rows)} rows"
            f"{', sealed' if self.sealed else ''})"
        )

    def fork(self, name=None):
        """An unsealed copy sharing row tuples but no indexes."""
        clone = ColumnarRelation(name or self.name, self.arity, sealed=False)
        clone.rows = list(self.rows)
        clone.keys = _Keys(self.keys)
        return clone

    def patched(self, inserted=(), deleted=()):
        """A new sealed relation: this one's rows minus *deleted* plus
        *inserted* (encoded rows).  This relation — and whatever evaluation
        is reading it — is left untouched; the copy builds its own indexes
        on first probe."""
        clone = ColumnarRelation(self.name, self.arity, sealed=True)
        deleted = self.keys.intersection(deleted)
        if deleted:
            clone.rows = [row for row in self.rows if row not in deleted]
        else:
            clone.rows = list(self.rows)
        clone.keys = _Keys(clone.rows)
        clone.merge_run(inserted)
        return clone

    def merge_run(self, candidate_rows):
        """Dedup *candidate_rows* against the relation and append the
        survivors; returns the set of genuinely-new rows.  Each is hashed
        once, into the one set this builds: into an empty relation the
        run's set is the new rows, and ``keys`` (the same object for the
        relation's life: pipelines hold it as an index) is filled from its
        stored hashes; otherwise ``difference`` probes ``keys`` with them,
        O(run)."""
        fresh = set(candidate_rows)
        if self.keys:
            fresh = fresh.difference(self.keys)
        self.rows.extend(fresh)
        self.keys.update(fresh)
        return fresh

    def index(self, positions):
        """``{key: [row, ...]}`` over the columns at *positions*.

        Keys are the bare column value for a single position and the value
        tuple otherwise (both built by C-level ``itemgetter``).  Sealed
        relations build once and publish atomically (safe under concurrent
        readers); unsealed relations extend the mapping from the rows
        appended since the last probe.  The index over every position of a
        relation of arity > 1 is ``keys`` itself.
        """
        if len(positions) == self.arity > 1:
            return self.keys
        if self.sealed:
            mapping = self._indexes.get(positions)
            if mapping is None:
                mapping = _build_index(self.rows, positions)
                self._indexes[positions] = mapping
            return mapping
        entry = self._indexes.get(positions)
        if entry is None:
            entry = self._indexes[positions] = [{}, 0]
        mapping, upto = entry
        total = len(self.rows)
        if upto < total:
            key_of = _key_fn(positions)
            get = mapping.get
            for row in self.rows[upto:]:
                key = key_of(row)
                bucket = get(key)
                if bucket is None:
                    mapping[key] = [row]
                else:
                    bucket.append(row)
            entry[1] = total
        return mapping


def _key_fn(positions):
    if len(positions) == 1:
        position = positions[0]
        return lambda row: row[position]
    return itemgetter(*positions)


def _build_index(rows, positions):
    mapping = {}
    key_of = _key_fn(positions)
    get = mapping.get
    for row in rows:
        key = key_of(row)
        bucket = get(key)
        if bucket is None:
            mapping[key] = [row]
        else:
            bucket.append(row)
    return mapping


class EncodedDatabase:
    """Named relations of int rows over one :class:`TermCatalog`, sealed.

    Read-only once built, so any number of evaluations may share it.  Who
    builds it decides how often that happens: :func:`encode_database` caches
    one per ``Database`` *object*, keyed by mutation stamp, so a caller that
    hands the engine a fresh copy per evaluation re-encodes per evaluation.
    The service's store image (:mod:`repro.ham.image`) is one of these and
    nothing else: built once per store from its graph's facts, then
    :meth:`patched` into each commit's successor, sharing untouched
    relations and their indexes.  The catalog is append-only, so
    evaluations and successors may intern new terms (arithmetic results,
    program constants, new store values) without invalidating earlier rows.
    """

    __slots__ = ("catalog", "relations")

    def __init__(self, catalog=None):
        self.catalog = catalog if catalog is not None else TermCatalog()
        self.relations = {}

    @classmethod
    def from_database(cls, database):
        encoded = cls()
        intern = encoded.catalog.intern
        for name in database:
            relation = database.relation(name)
            sealed = ColumnarRelation(name, relation.arity, sealed=True)
            sealed.merge_run(
                tuple(intern(value) for value in row) for row in relation.tuples
            )
            encoded.relations[name] = sealed
        return encoded

    def patched(self, insertions, deletions):
        """A database that differs from this one by ``{predicate: rows}``
        *deletions* and *insertions* of values (the shape of a commit
        ``Delta``), over the same catalog.

        Only the relations those mappings name are copied and patched; every
        other relation is *the same object* in both — rows and built indexes
        shared.  A relation left without rows is dropped, as if never
        declared.  An inserted row of another length than its relation's is
        an :class:`ArityError`.
        """
        clone = EncodedDatabase(self.catalog)
        relations = clone.relations = dict(self.relations)
        intern_row = self.catalog.intern_row
        for name in insertions.keys() | deletions.keys():
            inserted = [intern_row(row) for row in insertions.get(name, ())]
            relation = relations.get(name)
            if relation is None:
                if not inserted:
                    continue
                relation = ColumnarRelation(name, len(inserted[0]), sealed=True)
            if any(len(row) != relation.arity for row in inserted):
                raise ArityError(
                    f"relation {name!r} has arity {relation.arity}, got a row of another length"
                )
            relation = relation.patched(
                inserted, [intern_row(row) for row in deletions.get(name, ())]
            )
            if relation.rows:
                relations[name] = relation
            else:
                relations.pop(name, None)
        return clone

    def with_relation(self, relation):
        """A database sharing every relation of this one by reference, with
        the sealed *relation* in place of any relation of the same name."""
        clone = EncodedDatabase(self.catalog)
        clone.relations = dict(self.relations)
        clone.relations[relation.name] = relation
        return clone


def encode_database(database):
    """The sealed encoding of *database*: an :class:`EncodedDatabase` is its
    own, and a ``Database``'s is cached on it.

    The cache key is the per-relation mutation stamp, so any add/discard on
    any relation re-encodes; an unchanged database encodes exactly once no
    matter how many queries run.
    """
    if isinstance(database, EncodedDatabase):
        return database
    stamp = tuple(
        sorted(
            (name, database.relation(name)._mutations, len(database.relation(name)))
            for name in database
        )
    )
    cached = getattr(database, "_columnar_cache", None)
    if cached is not None and cached[0] == stamp:
        return cached[1]
    encoded = EncodedDatabase.from_database(database)
    database._columnar_cache = (stamp, encoded)
    return encoded


# --------------------------------------------------------------------------
# Rule compilation: one pipeline of batch kernels per (rule, delta position)


class _Pipeline:
    """A compiled rule body: seed provider plus batch transform steps."""

    __slots__ = ("rule", "steps", "seed", "head_project")

    def __init__(self, rule, seed, steps, head_project):
        self.rule = rule
        self.seed = seed  # callable (delta_rows) -> iterable of slot rows
        self.steps = steps  # [callable (rows, old_keys) -> rows]
        self.head_project = head_project

    def fire(self, delta_rows=None, old_keys=None):
        rows = self.seed(delta_rows)
        for step in self.steps:
            if not rows:
                return []
            rows = step(rows, old_keys)
        if not rows:
            return []
        # A fused final join already emitted head rows (head_project None).
        return self.head_project(rows) if self.head_project else rows


def _compile_pipeline(rule, ordered, resolve, catalog, old_ids, delta_first):
    """Compile *ordered* body elements into a :class:`_Pipeline`.

    ``resolve(predicate)`` yields the :class:`ColumnarRelation` to join
    against; ``old_ids`` is the set of ``id()``s of body literals that must
    read the *old* state (rows merged before this iteration) — their join
    steps subtract matches found in the current delta.  ``delta_first``
    marks the pipeline whose seed rows are supplied by the caller (the
    delta run) instead of scanned from the first literal's relation.
    """
    slots = {}
    steps = []
    elements = list(ordered)
    first = elements[0] if elements else None

    if first is not None and isinstance(first, Literal) and first.positive:
        seed = _compile_seed(
            first, resolve, catalog, slots, delta_first=delta_first
        )
        rest = elements[1:]
    else:
        # Body with no positive literal (ground/builtin-only rules): seed a
        # single empty row and let the steps filter it.
        def seed(_delta_rows, _single=[()]):
            return _single

        rest = elements

    for order, element in enumerate(rest):
        last = order == len(rest) - 1
        if isinstance(element, Literal):
            if element.positive:
                if last:
                    # The final join can emit deduplicated head tuples
                    # straight out of the probe loop, skipping the wide
                    # intermediate rows and the separate projection pass.
                    fused = _compile_fused_join_head(
                        element,
                        resolve(element.predicate),
                        catalog,
                        slots,
                        rule.head,
                        use_old=id(element) in old_ids,
                    )
                    if fused is not None:
                        steps.append(fused)
                        return _Pipeline(rule, seed, steps, None)
                steps.append(
                    _compile_join(
                        element,
                        resolve(element.predicate),
                        catalog,
                        slots,
                        use_old=id(element) in old_ids,
                    )
                )
            else:
                steps.append(
                    _compile_antijoin(element, resolve(element.predicate), catalog, slots)
                )
        elif isinstance(element, Comparison):
            steps.append(_compile_comparison(element, catalog, slots))
        elif isinstance(element, ArithmeticAssign):
            steps.append(_compile_arithmetic(element, catalog, slots))
        else:  # pragma: no cover - AST is closed
            raise EvaluationError(f"unknown body element {element!r}")

    head_project = _compile_head(rule.head, catalog, slots)
    return _Pipeline(rule, seed, steps, head_project)


def _literal_layout(literal, catalog, slots):
    """Classify one positive literal's argument positions.

    Returns ``(bound_positions, bound_sources, new_positions, dup_checks)``:
    positions whose value is already determined (constants and variables
    bound by earlier elements) with their value sources (slot index or
    interned constant), positions binding fresh variables (first
    occurrence, in position order), and within-literal equality checks for
    repeated fresh variables.
    """
    bound_positions = []
    bound_sources = []  # ("slot", i) | ("const", ident)
    new_positions = []
    dup_checks = []  # (position, earlier_position) both fresh in this literal
    first_seen = {}
    for position, term in enumerate(literal.atom.args):
        if isinstance(term, Variable):
            if term.is_anonymous:
                continue
            slot = slots.get(term)
            if slot is not None:
                bound_positions.append(position)
                bound_sources.append(("slot", slot))
            elif term in first_seen:
                dup_checks.append((position, first_seen[term]))
            else:
                first_seen[term] = position
                new_positions.append(position)
        else:
            bound_positions.append(position)
            bound_sources.append(("const", catalog.intern(term.value)))
    return bound_positions, bound_sources, new_positions, dup_checks


def _bind_new_slots(literal, slots, new_positions):
    for position in new_positions:
        slots[literal.atom.args[position]] = len(slots)


def _compile_seed(literal, resolve, catalog, slots, delta_first):
    """The pipeline's row source: scan the first literal.

    For the delta variant the rows come from the caller; otherwise they are
    read from the relation (through a constant-keyed index when the literal
    carries constants).  Rows are projected onto the fresh-variable slots.
    """
    relation = resolve(literal.predicate)
    bound_positions, bound_sources, new_positions, dup_checks = _literal_layout(
        literal, catalog, slots
    )
    # At seed time nothing is bound yet, so every bound source is a const.
    const_positions = tuple(bound_positions)
    const_values = tuple(ident for _kind, ident in bound_sources)
    _bind_new_slots(literal, slots, new_positions)
    project = _row_projector(new_positions, len(literal.atom.args))
    identity = project is None

    def source_rows(delta_rows):
        if delta_first:
            return delta_rows
        if const_positions:
            if len(const_positions) == len(literal.atom.args):
                # Fully-ground literal: membership test.
                return [const_values] if const_values in relation.keys else []
            key = const_values[0] if len(const_positions) == 1 else const_values
            return relation.index(const_positions).get(key, ())
        return relation.rows

    if not const_positions and not dup_checks and identity:
        return source_rows

    def seed(delta_rows):
        rows = source_rows(delta_rows)
        out = []
        append = out.append
        for row in rows:
            ok = True
            if delta_first and const_positions:
                for position, ident in zip(const_positions, const_values):
                    if row[position] != ident:
                        ok = False
                        break
                if not ok:
                    continue
            for position, earlier in dup_checks:
                if row[position] != row[earlier]:
                    ok = False
                    break
            if ok:
                append(row if identity else project(row))
        return out

    return seed


def _row_projector(positions, width):
    """A tuple projector onto *positions*, or None when it is the identity
    over rows of exactly *width* columns (positions ``0..width-1`` in order)."""
    positions = list(positions)
    if positions == list(range(width)):
        return None
    if not positions:
        return lambda _row: ()
    if len(positions) == 1:
        position = positions[0]
        return lambda row: (row[position],)
    return itemgetter(*positions)


def _probe_key_fn(bound_sources):
    """Build the probe-key constructor matching ``ColumnarRelation.index``
    key shapes: bare value for one position, tuples beyond."""
    if len(bound_sources) == 1:
        kind, payload = bound_sources[0]
        if kind == "slot":
            return lambda row, _s=payload: row[_s]
        return lambda _row, _c=payload: _c
    parts = tuple(bound_sources)
    if all(kind == "slot" for kind, _payload in parts):
        return itemgetter(*(payload for _kind, payload in parts))

    def key(row):
        return tuple(
            row[payload] if kind == "slot" else payload for kind, payload in parts
        )

    return key


def _compile_join(literal, relation, catalog, slots, use_old=False):
    bound_positions, bound_sources, new_positions, dup_checks = _literal_layout(
        literal, catalog, slots
    )
    _bind_new_slots(literal, slots, new_positions)
    positions = tuple(bound_positions)
    key_of = _probe_key_fn(bound_sources) if positions else None
    predicate = literal.predicate
    # Matched rows are appended column-wise onto the input row tuple.
    new_getters = (
        itemgetter(*new_positions)
        if len(new_positions) > 1
        else (
            (lambda row, _p=new_positions[0]: row[_p]) if new_positions else None
        )
    )
    single_new = len(new_positions) == 1

    if positions and not dup_checks:
        # The dominant shape: hash-probe with no intra-literal duplicate
        # variables.  Comprehensions keep the whole match loop in C.
        single_slot_key = (
            len(bound_sources) == 1 and bound_sources[0][0] == "slot"
        )
        if single_slot_key and single_new:
            slot = bound_sources[0][1]
            new_position = new_positions[0]

            def step(rows, old_keys):
                probe = relation.index(positions).get
                exclude = (
                    old_keys.get(predicate) if (use_old and old_keys) else None
                )
                if exclude is None:
                    return [
                        row + (match[new_position],)
                        for row in rows
                        for match in probe(row[slot]) or ()
                    ]
                return [
                    row + (match[new_position],)
                    for row in rows
                    for match in probe(row[slot]) or ()
                    if match not in exclude
                ]

            return step

        def step(rows, old_keys):
            probe = relation.index(positions).get
            exclude = (
                old_keys.get(predicate) if (use_old and old_keys) else None
            )
            if new_getters is None:
                # Fully bound: a semijoin.  Multiplicity is irrelevant (the
                # fixpoint dedups), so one surviving match keeps the row.
                if exclude is None:
                    return [row for row in rows if probe(key_of(row))]
                return [
                    row
                    for row in rows
                    if any(
                        match not in exclude
                        for match in probe(key_of(row)) or ()
                    )
                ]
            if single_new:
                new_position = new_positions[0]
                if exclude is None:
                    return [
                        row + (match[new_position],)
                        for row in rows
                        for match in probe(key_of(row)) or ()
                    ]
                return [
                    row + (match[new_position],)
                    for row in rows
                    for match in probe(key_of(row)) or ()
                    if match not in exclude
                ]
            if exclude is None:
                return [
                    row + new_getters(match)
                    for row in rows
                    for match in probe(key_of(row)) or ()
                ]
            return [
                row + new_getters(match)
                for row in rows
                for match in probe(key_of(row)) or ()
                if match not in exclude
            ]

        return step

    def step(rows, old_keys):
        exclude = old_keys.get(predicate) if (use_old and old_keys) else None
        out = []
        append = out.append
        if positions:
            probe = relation.index(positions).get
            for row in rows:
                matches = probe(key_of(row))
                if not matches:
                    continue
                for match in matches:
                    if exclude is not None and match in exclude:
                        continue
                    ok = True
                    for position, earlier in dup_checks:
                        if match[position] != match[earlier]:
                            ok = False
                            break
                    if not ok:
                        continue
                    if new_getters is None:
                        append(row)
                    elif single_new:
                        append(row + (new_getters(match),))
                    else:
                        append(row + new_getters(match))
        else:
            # No shared variables: a cross product with the whole relation.
            matches = relation.rows
            for row in rows:
                for match in matches:
                    if exclude is not None and match in exclude:
                        continue
                    ok = True
                    for position, earlier in dup_checks:
                        if match[position] != match[earlier]:
                            ok = False
                            break
                    if not ok:
                        continue
                    if new_getters is None:
                        append(row)
                    elif single_new:
                        append(row + (new_getters(match),))
                    else:
                        append(row + new_getters(match))
        return out

    return step


def _fused_emit(parts):
    """``(row, match) -> head tuple`` for a fused final join.

    *parts* entries are ``("row", slot)``, ``("match", position)``, or
    ``("const", ident)``.  The binary row/match shapes cover the
    transitive-closure family and get dedicated lambdas.
    """
    kinds = tuple(kind for kind, _ in parts)
    if kinds == ("row", "match"):
        a, b = parts[0][1], parts[1][1]
        return lambda row, match: (row[a], match[b])
    if kinds == ("match", "row"):
        a, b = parts[0][1], parts[1][1]
        return lambda row, match: (match[a], row[b])
    if kinds == ("row", "row"):
        a, b = parts[0][1], parts[1][1]
        return lambda row, match: (row[a], row[b])

    def emit(row, match):
        return tuple(
            row[payload]
            if kind == "row"
            else (match[payload] if kind == "match" else payload)
            for kind, payload in parts
        )

    return emit


def _compile_fused_join_head(literal, relation, catalog, slots, head, use_old):
    """Fuse a rule's *final* positive join with its head projection.

    Returns a step whose output is a deduplicated set of head tuples (the
    pipeline skips ``head_project``), or None when the shape is not
    eligible — duplicate fresh variables in the literal, no bound
    positions to probe on, or a head variable bound by neither the
    earlier slots nor this literal.
    """
    bound_positions, bound_sources, new_positions, dup_checks = _literal_layout(
        literal, catalog, slots
    )
    if dup_checks or not bound_positions:
        return None
    by_new_position = {}
    for position in new_positions:
        by_new_position.setdefault(literal.atom.args[position], position)
    parts = []
    for term in head.args:
        if isinstance(term, Variable):
            slot = slots.get(term)
            if slot is not None:
                parts.append(("row", slot))
            elif term in by_new_position:
                parts.append(("match", by_new_position[term]))
            else:
                return None  # unbound head variable: let _compile_head raise
        else:
            parts.append(("const", catalog.intern(term.value)))
    _bind_new_slots(literal, slots, new_positions)

    positions = tuple(bound_positions)
    predicate = literal.predicate
    single_slot_key = len(bound_sources) == 1 and bound_sources[0][0] == "slot"
    key_of = None if single_slot_key else _probe_key_fn(bound_sources)
    slot = bound_sources[0][1] if single_slot_key else None

    kinds = tuple(kind for kind, _ in parts)
    if single_slot_key and kinds in (("row", "match"), ("match", "row")):
        # The transitive-closure family: inline the binary head tuple so
        # the whole probe loop stays in one C-level set comprehension.
        a, b = parts[0][1], parts[1][1]
        if kinds == ("row", "match"):

            def step(rows, old_keys):
                probe = relation.index(positions).get
                exclude = (
                    old_keys.get(predicate) if (use_old and old_keys) else None
                )
                if exclude is None:
                    return {
                        (row[a], match[b])
                        for row in rows
                        for match in probe(row[slot]) or ()
                    }
                return {
                    (row[a], match[b])
                    for row in rows
                    for match in probe(row[slot]) or ()
                    if match not in exclude
                }

        else:

            def step(rows, old_keys):
                probe = relation.index(positions).get
                exclude = (
                    old_keys.get(predicate) if (use_old and old_keys) else None
                )
                if exclude is None:
                    return {
                        (match[a], row[b])
                        for row in rows
                        for match in probe(row[slot]) or ()
                    }
                return {
                    (match[a], row[b])
                    for row in rows
                    for match in probe(row[slot]) or ()
                    if match not in exclude
                }

        return step

    emit = _fused_emit(parts)

    def step(rows, old_keys):
        probe = relation.index(positions).get
        exclude = old_keys.get(predicate) if (use_old and old_keys) else None
        if single_slot_key:
            if exclude is None:
                return {
                    emit(row, match)
                    for row in rows
                    for match in probe(row[slot]) or ()
                }
            return {
                emit(row, match)
                for row in rows
                for match in probe(row[slot]) or ()
                if match not in exclude
            }
        if exclude is None:
            return {
                emit(row, match)
                for row in rows
                for match in probe(key_of(row)) or ()
            }
        return {
            emit(row, match)
            for row in rows
            for match in probe(key_of(row)) or ()
            if match not in exclude
        }

    return step


def _compile_antijoin(literal, relation, catalog, slots):
    """Negated literal: keep rows with no matching tuple.

    Anonymous variables and unbound positions are existential, so the probe
    covers only constants and bound variables; safety guarantees negated
    non-anonymous variables are bound by the time the literal runs.
    """
    bound_positions = []
    bound_sources = []
    for position, term in enumerate(literal.atom.args):
        if isinstance(term, Variable):
            if term.is_anonymous:
                continue
            slot = slots.get(term)
            if slot is None:
                raise EvaluationError(
                    f"negated literal {literal} probes unbound variable {term}"
                )
            bound_positions.append(position)
            bound_sources.append(("slot", slot))
        else:
            bound_positions.append(position)
            bound_sources.append(("const", catalog.intern(term.value)))
    positions = tuple(bound_positions)

    if not positions:
        def step(rows, _old_keys):
            return rows if not len(relation) else []

        return step

    key_of = _probe_key_fn(bound_sources)
    # A key that is the whole row (``not leg(X, Y)`` after ``conn(X, Y)``)
    # is probed as it is; one column's index keys are bare values.
    whole = len(slots) > 1 and bound_sources == [("slot", s) for s in range(len(slots))]

    def step(rows, _old_keys):
        probe = relation.index(positions)
        if whole:
            return [row for row in rows if row not in probe]
        return [row for row in rows if key_of(row) not in probe]

    return step


def _value_source(term, catalog, slots):
    """('slot', i) or ('value', decoded constant) for a builtin operand."""
    if isinstance(term, Variable):
        slot = slots.get(term)
        if slot is None:
            return ("unbound", term)
        return ("slot", slot)
    return ("value", term.value)


def _compile_comparison(comparison, catalog, slots):
    left = _value_source(comparison.left, catalog, slots)
    right = _value_source(comparison.right, catalog, slots)
    values = catalog.values

    if comparison.op == "==" and (left[0] == "unbound" or right[0] == "unbound"):
        if left[0] == "unbound" and right[0] == "unbound":
            def step(rows, _old_keys):
                if rows:
                    raise EvaluationError(
                        f"equality with both sides unbound: {comparison}"
                    )
                return rows

            return step
        unbound_term = left[1] if left[0] == "unbound" else right[1]
        bound = right if left[0] == "unbound" else left
        slots[unbound_term] = len(slots)
        if bound[0] == "slot":
            source_slot = bound[1]

            def step(rows, _old_keys):
                return [row + (row[source_slot],) for row in rows]

        else:
            ident = catalog.intern(bound[1])

            def step(rows, _old_keys):
                return [row + (ident,) for row in rows]

        return step

    if left[0] == "unbound" or right[0] == "unbound":
        def step(rows, _old_keys):
            if rows:
                raise EvaluationError(
                    f"comparison on unbound variable: {comparison}"
                )
            return rows

        return step

    compare = _COMPARATORS[comparison.op]
    lkind, lpayload = left
    rkind, rpayload = right

    def step(rows, _old_keys):
        out = []
        append = out.append
        try:
            for row in rows:
                lhs = values[row[lpayload]] if lkind == "slot" else lpayload
                rhs = values[row[rpayload]] if rkind == "slot" else rpayload
                if compare(lhs, rhs):
                    append(row)
        except TypeError as exc:
            raise EvaluationError(
                f"incomparable values in {comparison}: {exc}"
            ) from exc
        return out

    return step


def _compile_arithmetic(assign, catalog, slots):
    left = _value_source(assign.left, catalog, slots)
    right = _value_source(assign.right, catalog, slots)
    if left[0] == "unbound" or right[0] == "unbound":
        def step(rows, _old_keys):
            if rows:
                raise EvaluationError(f"arithmetic on unbound variable: {assign}")
            return rows

        return step

    operate = _ARITHMETIC[assign.op]
    values = catalog.values
    intern = catalog.intern
    lkind, lpayload = left
    rkind, rpayload = right
    result = assign.result

    if isinstance(result, Variable) and result not in slots:
        slots[result] = len(slots)

        def step(rows, _old_keys):
            out = []
            append = out.append
            try:
                for row in rows:
                    lhs = values[row[lpayload]] if lkind == "slot" else lpayload
                    rhs = values[row[rpayload]] if rkind == "slot" else rpayload
                    append(row + (intern(operate(lhs, rhs)),))
            except (TypeError, ZeroDivisionError) as exc:
                raise EvaluationError(
                    f"arithmetic failure in {assign}: {exc}"
                ) from exc
            return out

        return step

    if isinstance(result, Variable):
        result_slot = slots[result]

        def step(rows, _old_keys):
            out = []
            append = out.append
            try:
                for row in rows:
                    lhs = values[row[lpayload]] if lkind == "slot" else lpayload
                    rhs = values[row[rpayload]] if rkind == "slot" else rpayload
                    if row[result_slot] == intern(operate(lhs, rhs)):
                        append(row)
            except (TypeError, ZeroDivisionError) as exc:
                raise EvaluationError(
                    f"arithmetic failure in {assign}: {exc}"
                ) from exc
            return out

        return step

    expected = result.value

    def step(rows, _old_keys):
        out = []
        append = out.append
        try:
            for row in rows:
                lhs = values[row[lpayload]] if lkind == "slot" else lpayload
                rhs = values[row[rpayload]] if rkind == "slot" else rpayload
                if expected == operate(lhs, rhs):
                    append(row)
        except (TypeError, ZeroDivisionError) as exc:
            raise EvaluationError(f"arithmetic failure in {assign}: {exc}") from exc
        return out

    return step


def _compile_head(head, catalog, slots):
    sources = []
    for term in head.args:
        if isinstance(term, Variable):
            slot = slots.get(term)
            if slot is None:
                raise EvaluationError(
                    f"head variable {term} of {head} is unbound (unsafe rule?)"
                )
            sources.append(("slot", slot))
        else:
            sources.append(("const", catalog.intern(term.value)))

    if all(kind == "slot" for kind, _ in sources):
        positions = [payload for _kind, payload in sources]
        # Identity only when the head reads every slot in order — rows may
        # be wider than the head (auxiliary body variables).
        project = _row_projector(positions, len(slots))
        if project is None:
            def head_project(rows):
                return rows

            return head_project

        def head_project(rows):
            return list(map(project, rows))

        return head_project

    parts = tuple(sources)

    def head_project(rows):
        return [
            tuple(
                row[payload] if kind == "slot" else payload
                for kind, payload in parts
            )
            for row in rows
        ]

    return head_project


# --------------------------------------------------------------------------
# The fixpoint driver


class _EvalState:
    """Per-evaluation overlay over a sealed :class:`EncodedDatabase`.

    Head (IDB) predicates get unsealed working copies; everything else
    resolves to the shared sealed relation, so base indexes built for one
    query serve the next.
    """

    __slots__ = ("encoded", "catalog", "heads", "relations", "arities")

    def __init__(self, encoded, head_predicates):
        self.encoded = encoded
        self.catalog = encoded.catalog
        self.heads = set(head_predicates)
        self.relations = {}
        self.arities = {}

    def declare(self, predicate, arity):
        known = self.arities.setdefault(predicate, arity)
        if known != arity:  # pragma: no cover - Program checks arities
            raise EvaluationError(
                f"relation {predicate!r} used with arities {known} and {arity}"
            )
        base = self.encoded.relations.get(predicate)
        if base is not None and base.arity != arity:  # as Database.relation says
            raise ArityError(
                f"relation {predicate!r} has arity {base.arity}, requested {arity}"
            )
        self.relation(predicate)

    def relation(self, predicate):
        relation = self.relations.get(predicate)
        if relation is not None:
            return relation
        base = self.encoded.relations.get(predicate)
        arity = self.arities.get(
            predicate, base.arity if base is not None else None
        )
        if predicate in self.heads:
            relation = (
                base.fork() if base is not None else ColumnarRelation(predicate, arity)
            )
        elif base is not None:
            relation = base
        else:
            relation = ColumnarRelation(predicate, arity, sealed=True)
        self.relations[predicate] = relation
        return relation


def evaluate_columnar(plan, edb, stats, tracer=None, predicates=None):
    """Evaluate *plan*'s program over *edb* with the columnar backend.

    Returns a fresh :class:`~repro.datalog.database.Database` holding the
    EDB facts plus every derived fact — the same contract (and the same
    stratified semantics) as ``Engine.evaluate``.  Given *predicates* (of
    relations the program mentions or *edb* holds), it returns their
    :class:`~repro.datalog.engine.Answer`: the int rows the fixpoint left,
    over its catalog's values — no copy of *edb*, nothing decoded.
    *stats* is the calling engine's :class:`EvaluationStats`, updated in
    place.
    """
    state = fixpoint(plan, encode_database(edb), stats, tracer)
    if predicates is None:
        return _decode_result(state, plan.program, edb, plan.program.idb_predicates)
    return Answer({p: state.relation(p).rows for p in predicates}, state.catalog.values)


def fixpoint(plan, encoded, stats, tracer=None):
    """The stratified fixpoint of *plan* (a :class:`~repro.datalog.plan.ProgramPlan`)
    over the sealed *encoded* EDB, left encoded: an :class:`_EvalState` whose
    ``relation(p)`` holds the int rows of every predicate the program
    mentions (incremental maintenance keeps them as its state)."""
    tracer = tracer or obs.tracer()
    state = _EvalState(encoded, plan.program.idb_predicates)
    fact_rows = defaultdict(list)
    for predicate, row in plan.facts:
        fact_rows[predicate].append(state.catalog.intern_row(row))
    _declare_relations(plan.program, state.declare)
    for predicate, rows in fact_rows.items():
        state.relation(predicate).merge_run(rows)

    stats.strata = plan.stratum_count
    for group in plan.groups:
        if not group.rules:
            continue
        with tracer.span(
            "engine.stratum",
            stratum=group.stratum,
            predicates=sorted(group.predicates),
            rules=len(group.rules),
        ) as span:
            _fixpoint_group(state, group, stats, span)
            if span:
                span.annotate(facts={p: len(state.relation(p)) for p in sorted(group.predicates)})
    return state


def _fixpoint_group(state, group, stats, span=obs.NULL_SPAN):
    resolve = state.relation
    catalog = state.catalog

    if group.closure is not None:
        relation = resolve(group.predicates[0])
        if not relation.rows:  # a closure stratum
            base = resolve(group.closure[0])
            fresh = relation.merge_run(_closure_rows(base.rows, relation.arity))
            stats.iterations += 1
            stats.rows_produced += len(fresh)
            stats.facts_derived += len(fresh)
            if span:
                span.annotate(kernel="closure", base_rows=len(base), closure_rows=len(fresh))
            return

    recursive = []  # (rule, schedule, positions, pipelines: {delta_index: pipeline})
    init_only = []
    for rule, (schedule, positions, orders) in zip(group.rules, group.schedules):
        if positions:
            pipelines = {}
            for order, (index, ordered) in enumerate(zip(positions, orders)):
                # Old/new split: recursive occurrences after this one (in
                # schedule order) read the pre-iteration state.  The delta
                # comes first in *ordered*, so an iteration enumerates the
                # delta and its matches instead of re-scanning a base relation.
                old_ids = {id(schedule[j]) for j in positions[order + 1:]}
                pipelines[index] = _compile_pipeline(
                    rule, ordered, resolve, catalog, old_ids, delta_first=True
                )
            recursive.append((rule, schedule, positions, pipelines))
        else:
            pipeline = _compile_pipeline(
                rule, schedule, resolve, catalog, set(), delta_first=False
            )
            init_only.append((rule, pipeline))

    firings = Counter() if span else None
    candidates = defaultdict(list)  # predicate -> the runs its rules produced
    for rule, pipeline in init_only:
        stats.rule_firings += 1
        if firings is not None:
            firings[str(rule)] += 1
        produced = pipeline.fire()
        stats.rows_produced += len(produced)
        candidates[rule.head.predicate].append(produced)
    for predicate, runs in candidates.items():
        stats.facts_derived += len(resolve(predicate).merge_run(_one_run(runs)))

    # The seed delta is all the group predicates hold now (program facts,
    # EDB rows under an IDB name, the rules' rows).  A group none of whose
    # rules reads it records one round that fires nothing, so it reads the
    # rows in place.
    delta = {}
    for predicate in group.predicates:
        rows = resolve(predicate).rows
        if rows:
            delta[predicate] = list(rows) if recursive else rows
    if span:
        span.annotate(seed_delta={p: len(rows) for p, rows in sorted(delta.items())})
    # Only the old/new split reads the pre-iteration state.
    split = any(len(positions) > 1 for _r, _s, positions, _p in recursive)

    iteration = 0
    while delta:
        iteration += 1
        stats.iterations += 1
        old_keys = {p: set(rows) for p, rows in delta.items()} if split else None
        candidates = defaultdict(list)
        for rule, schedule, positions, pipelines in recursive:
            for index in positions:
                delta_rows = delta.get(schedule[index].predicate)
                if not delta_rows:
                    continue
                stats.rule_firings += 1
                if firings is not None:
                    firings[str(rule)] += 1
                produced = pipelines[index].fire(delta_rows, old_keys)
                stats.rows_produced += len(produced)
                if produced:
                    candidates[rule.head.predicate].append(produced)
        new_delta = {}
        for predicate, runs in candidates.items():
            fresh = resolve(predicate).merge_run(_one_run(runs))
            if fresh:
                stats.facts_derived += len(fresh)
                new_delta[predicate] = fresh
        if span:
            span.append(
                "iterations",
                {
                    "iteration": iteration,
                    "delta_in": {p: len(r) for p, r in sorted(delta.items())},
                    "derived": sum(len(rows) for rows in new_delta.values()),
                },
            )
        delta = new_delta
    if span:
        span.annotate(rule_firings=dict(firings))


def _one_run(runs):
    """The rows of *runs* as one run: a lone run as it is, so a fused join's
    set reaches ``merge_run`` with its hashes."""
    return runs[0] if len(runs) == 1 else chain.from_iterable(runs)


def _closure_rows(rows, arity):
    """The transitive closure of *rows*, each read as an edge from the node
    ``row[:k]`` to the node ``row[k:]`` (``k = arity // 2``), as rows of
    *arity* columns."""
    if arity == 2:
        return closure_pairs(rows)
    k = arity // 2
    pairs = closure_pairs([(row[:k], row[k:]) for row in rows])
    return [source + target for source, target in pairs]


def decode_rows(relation, values):
    """The term tuples of an encoded *relation*."""
    rows = relation.rows
    if relation.arity == 1:
        return {(values[a],) for (a,) in rows}
    if relation.arity == 2:
        return {(values[a], values[b]) for a, b in rows}
    getter = values.__getitem__
    return {tuple(map(getter, row)) for row in rows}


def _decode_result(state, program, edb, idb):
    result = edb.copy()
    _declare_relations(program, result.relation)
    values = state.catalog.values
    for predicate in idb:
        relation = state.relations.get(predicate)
        if relation is None or not relation.rows:
            continue
        target = result.relation(predicate, relation.arity)
        # Fresh copies carry no lazy indexes, so the tuple set can be
        # updated wholesale without index bookkeeping.
        missing = decode_rows(relation, values) - target._tuples
        if missing:
            target._tuples.update(missing)
            target._mutations += 1
    return result
