"""Store-coherent, delta-scoped result caching.

Answers are cached under ``(plan fingerprint, evaluation parameters)`` and
stamped with the store version they were computed at plus the plan's
*predicate footprint* — every predicate whose extension the answer can
depend on.  A lookup only serves an entry stamped with the current version.

Commits keep the cache warm instead of cold.  Each commit reaches
:meth:`ResultCache.apply_commit` from the service's one commit hook (the
subscription manager's, :mod:`repro.subs`), with the typed
:class:`~repro.ham.delta.Delta`'s touched predicates.  A *plain* entry whose
footprint misses them provably cannot have changed, so it is *re-stamped*
to the new version and stays servable (counted as ``delta_reuse_hits``);
intersecting (or footprint unknown) → the entry is dropped.

A *maintained* entry pins a shared
:class:`~repro.ham.views.MaterializedView` instead, read under the entry's
own relation names, which the same hook advances first: unchanged →
re-stamped, changed → its new answer's bytes replace the old.  Admission is
decided by the module constants: a key is promoted on its first miss after
a commit dropped it, demoted — for good — when a pass costs more than
re-evaluating, and maintained entries are evicted LRU-first beyond
:data:`MAINTAINED_ROW_BUDGET` rows of view state.  An entry leaving the
cache hands its pin back through :meth:`ResultCache.take_released`, for the
manager to unpin under its own lock.  :meth:`ResultCache.lookup` answers a
request with the entry, or with why there is none: :data:`BEHIND`,
:data:`PROMOTE` or :data:`MISS`.

Parameter normalization is type-tagged: ``{"limit": 1}``, ``{"limit": "1"}``
and ``{"limit": True}`` produce three distinct keys (plain ``str(v)``
normalization used to collide them, which could serve the wrong answer).
"""

from __future__ import annotations

import threading
from collections import OrderedDict

from repro import obs

#: Rows of view state (every relation a view keeps, EDB copies included) the
#: maintained entries' views may hold together, each view counted once; the
#: least recently used entries beyond it are evicted.  The benchmark's hot
#: pool pins ~14 800: its four alpha-renamed closures share one 4 755-row
#: view, and each of its twelve one-leg RPQs holds ~840 (800 of them its
#: ``from``/``to`` copies).  The budget keeps that and two more closures.
MAINTAINED_ROW_BUDGET = 24_576

#: A key's admission marks: a commit dropped its plain entry (its next miss
#: promotes it), or a view pass of its maintained entry cost more than the
#: view holds (never promoted again).
_DROPPED, _DEMOTED = "dropped", "demoted"

#: Why :meth:`ResultCache.lookup` found no entry current at the version
#: asked: a maintained entry the in-flight commit dispatch will re-stamp; a
#: key whose plain entry a commit dropped (this miss promotes it); or none.
BEHIND, PROMOTE, MISS = "behind", "promote", "miss"


def _canonical(value):
    """A hashable, type-tagged form of one parameter value.

    The tag comes first so values of different types can never compare
    equal (``True == 1`` and ``1.0 == 1`` in Python; ``bool`` is checked
    before ``int`` because it *is* an ``int``).
    """
    if value is None:
        return ("none",)
    if isinstance(value, bool):
        return ("bool", value)
    if isinstance(value, int):
        return ("int", value)
    if isinstance(value, float):
        return ("float", value)
    if isinstance(value, str):
        return ("str", value)
    if isinstance(value, (list, tuple)):
        return ("seq", tuple(_canonical(v) for v in value))
    if isinstance(value, (set, frozenset)):
        return ("set", tuple(sorted(_canonical(v) for v in value)))
    if isinstance(value, dict):
        return (
            "map",
            tuple(sorted((str(k), _canonical(v)) for k, v in value.items())),
        )
    return ("repr", type(value).__name__, repr(value))


def result_key(fingerprint, params):
    """The cache key for one evaluation of one plan: fingerprint + params.

    The store version is *not* part of the key — entries carry their version
    as a stamp so the commit hook can re-stamp still-valid answers instead
    of orphaning them under a dead key.
    """
    normalized = tuple(
        sorted((str(k), _canonical(v)) for k, v in (params or {}).items())
    )
    return (fingerprint, normalized)


class Entry:
    """One cached answer: *encoded*, the wire bytes of its ``result`` object
    — its only representation, spliced by a network hit and decoded by an
    in-process one — its row *count*, the *version* stamp, the plan's
    *footprint* and, for a maintained entry, its *pin* ``(view, names,
    idb)``: the view it answers from, read under *names* by a program with
    IDB predicates *idb*.  The envelope is never encoded, so the bytes stay
    valid when a commit re-stamps *version*."""

    __slots__ = ("encoded", "count", "version", "footprint", "pin")

    def __init__(self, encoded, count, version, footprint, pin=None):
        self.encoded = encoded
        self.count = count
        self.version = version
        self.footprint = footprint
        self.pin = pin


class ResultCache:
    """A thread-safe LRU of versioned answers: footprint-stamped plain
    entries and view-pinning maintained ones."""

    def __init__(self, capacity=1024):
        if capacity < 1:
            raise ValueError("result cache capacity must be >= 1")
        self.capacity = capacity
        self._entries = OrderedDict()
        self._lock = threading.Lock()
        #: key -> _DROPPED / _DEMOTED, oldest first, at most *capacity* keys.
        self._marks = OrderedDict()
        #: Pins of maintained entries that left the cache, to unpin.
        self._released = []
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0
        self.delta_reuse_hits = 0
        self.promotions = 0
        self.demotions = 0

    def __len__(self):
        return len(self._entries)

    def lookup(self, key, version, wait=None):
        """The :class:`Entry` of *key* current at *version* — a hit — or why
        there is none: :data:`BEHIND`, :data:`PROMOTE` or :data:`MISS`.

        A worker passes *wait*, ``wait(version)``, which returns once the
        dispatch of *version* ran (or gave up): a :data:`BEHIND` entry is
        waited for and looked at once more, and what is found then is
        counted, a miss included.  Without *wait* (the event loop, which
        hands a request it cannot answer to a worker) only a hit counts."""
        for waited in (False, True):
            with self._lock:
                entry = self._entries.get(key)
                if entry is not None and entry.version == version:
                    self._entries.move_to_end(key)
                    self.hits += 1
                    return entry
                if entry is not None and entry.pin is not None:
                    found = BEHIND if entry.version < version else MISS
                else:
                    found = PROMOTE if self._marks.get(key) == _DROPPED else MISS
                if wait is None:
                    return found
                if found is not BEHIND or waited:
                    self.misses += 1
                    return found
            wait(version)

    def put(self, key, encoded, count, version, footprint=None, pin=None):
        """Cache the *encoded* answer of *count* rows computed at *version* by
        a plan reading *footprint*, the predicates the answer depends on
        (``None``: unknown, which every later commit treats as intersecting).

        With *pin* the entry is maintained: the commit hook keeps it equal
        to that pinned view's answer, so a plain put never replaces it.
        Admitting one evicts the least recently used entries pinning other
        views while the views pinned hold more than
        :data:`MAINTAINED_ROW_BUDGET` rows.  Returns the entry stored (None
        when refused)."""
        with self._lock:
            old = self._entries.get(key)
            if old is not None and old.pin is not None:
                if pin is None:
                    return None
                self._released.append(old.pin)
            entry = self._entries[key] = Entry(encoded, count, version, footprint, pin)
            self._entries.move_to_end(key)
            if pin is not None:
                self.promotions += 1
                others = [k for k, e in self._entries.items() if e.pin and e.pin[0] is not pin[0]]
                for other in others:
                    if self._maintained_rows() <= MAINTAINED_ROW_BUDGET:
                        break
                    self._evict(other)
            while len(self._entries) > self.capacity:
                self._evict(next(iter(self._entries)))
            return entry

    def _evict(self, key):
        entry = self._entries.pop(key)
        if entry.pin is not None:
            self._released.append(entry.pin)
            self._marks.pop(key, None)
        self.evictions += 1

    def _mark(self, key, mark):
        self._marks[key] = mark
        self._marks.move_to_end(key)
        if len(self._marks) > self.capacity:
            self._marks.popitem(last=False)

    def _maintained_rows(self):
        """Rows the pinned views hold, each view once."""
        return sum(view.held_rows() for view in {e.pin[0] for e in self._entries.values() if e.pin})

    def apply_commit(self, version, touched, answers=None):
        """Re-stamp, re-encode or drop entries after a commit.

        *touched* is the set of predicates the commit's delta may have
        changed (``None`` = unknown → drop everything).  Plain entries whose
        footprint provably misses *touched* survive with the new version
        stamp; the rest are invalidated, and their keys marked for
        promotion.  Only entries current as of the previous version are
        re-stamped: versions bump by exactly one per commit, so an entry
        lagging further behind was computed before some commit this hook
        never cleared it against (a put racing a commit) and cannot be
        proven fresh.

        *answers* maps each pin ``(view, names, idb)`` of an entry, its
        view advanced past this commit, to None (unchanged: the entry is
        re-stamped to the view's version) or ``(encoded, count)``, its new
        answer under *names*.  A maintained entry whose pin it lacks is
        demoted: dropped, its key never promoted again.
        """
        answers = answers or {}
        with obs.span(
            "cache.apply_commit",
            version=version,
            touched=sorted(touched) if touched is not None else None,
        ) as span:
            with self._lock:
                dead = []
                demoted = []
                changed = []
                restamped = 0
                for key, entry in self._entries.items():
                    pin = entry.pin
                    if pin is not None and pin not in answers:
                        demoted.append(key)
                    elif pin is not None and answers[pin] is not None:
                        # A new entry, not new fields: a reader holding the
                        # old one keeps bytes that match its version.
                        encoded, count = answers[pin]
                        changed.append(
                            (key, Entry(encoded, count, pin[0].version, entry.footprint, pin))
                        )
                    elif pin is not None or (
                        touched is not None
                        and entry.footprint is not None
                        and entry.version == version - 1
                        and not (entry.footprint & touched)
                    ):
                        entry.version = version if pin is None else pin[0].version
                        self.delta_reuse_hits += 1
                        restamped += 1
                    else:
                        dead.append(key)
                for key, entry in changed:
                    self._entries[key] = entry
                for key in dead:
                    del self._entries[key]
                    if self._marks.get(key) != _DEMOTED:
                        self._mark(key, _DROPPED)
                for key in demoted:
                    self._released.append(self._entries.pop(key).pin)
                    self._mark(key, _DEMOTED)
                self.invalidations += len(dead)
                self.demotions += len(demoted)
                span.annotate(restamped=restamped, dropped=len(dead), demoted=len(demoted))

    def demote(self, key):
        """Never promote *key* again: its plan has no maintained view over
        this store."""
        with self._lock:
            self._mark(key, _DEMOTED)
            self.demotions += 1

    def take_released(self):
        """The pins ``(view, names, idb)`` of maintained entries that left the
        cache since the last call — one per entry."""
        with self._lock:
            released, self._released = self._released, []
            return released

    def clear(self):
        """Drop every entry and mark (a version regression makes all of
        them meaningless); maintained entries release their pins."""
        with self._lock:
            self._released += [e.pin for e in self._entries.values() if e.pin is not None]
            self._entries.clear()
            self._marks.clear()

    def stats(self):
        with self._lock:
            return {
                "size": len(self._entries),
                "capacity": self.capacity,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "invalidations": self.invalidations,
                "delta_reuse_hits": self.delta_reuse_hits,
                "encoded_entries": len(self._entries),
                "encoded_bytes": sum(len(e.encoded) for e in self._entries.values()),
                "maintained": sum(e.pin is not None for e in self._entries.values()),
                "maintained_rows": self._maintained_rows(),
                "promotions": self.promotions,
                "demotions": self.demotions,
            }
