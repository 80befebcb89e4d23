"""Store-coherent, delta-scoped result caching.

Answers are cached under ``(plan fingerprint, evaluation parameters)`` and
stamped with the store version they were computed at plus the plan's
*predicate footprint* — every predicate whose extension the answer can
depend on.  A lookup only serves an entry current at the version asked.

Commits keep the cache warm instead of cold.  The service's one commit
hook (the subscription manager's, :mod:`repro.subs`) hands each commit's
touched predicates to :meth:`ResultCache.apply_commit`, which moves one
clock per predicate and visits no entry.  A *plain* entry is judged when
read: if no commit since its stamp touched its footprint, it is
*re-stamped* and served (``delta_reuse_hits``); else it is stale.

A *maintained* entry instead holds a shared
:class:`~repro.ham.views.MaterializedView` by a *pin*, one of the view's
:class:`~repro.ham.views.Holder` s, read under the entry's own relation
names; the same hook advances the view and hands the pin its change
(:meth:`ResultCache.refresh`).  Admission is decided by the module
constants: a key is promoted on its first miss after a commit made it
stale, demoted — for good — when a pass costs more than re-evaluating, and
maintained entries are evicted LRU-first beyond
:data:`MAINTAINED_ROW_BUDGET` rows of view state.  An entry leaving the
cache marks its pin ``released``, for the view's next visitor to let go.
:meth:`ResultCache.lookup` answers a request with the entry, or with why
there is none: :data:`BEHIND`, :data:`PROMOTE` or :data:`MISS`.

Parameter normalization is type-tagged: ``{"limit": 1}``, ``{"limit": "1"}``
and ``{"limit": True}`` produce three distinct keys (plain ``str(v)``
normalization used to collide them, which could serve the wrong answer).
"""

from __future__ import annotations

import threading
from collections import Counter, OrderedDict

#: Rows of view state (every relation a view keeps, EDB copies included) the
#: maintained entries' views may hold together, each view counted once; the
#: least recently used entries beyond it are evicted.  The benchmark's hot
#: pool pins ~5 900: its four alpha-renamed closures share one 4 752-row
#: view, and its twelve one-leg RPQs, one path expression from twelve
#: sources, one seeded view of ~1 130 (800 of them its ``from``/``to``
#: copies).  The budget must also keep that pool if its twelve RPQs were
#: twelve path expressions, a ~840-row view each, plus two more closures:
#: 4 752 + 12 × 840 + 2 × 4 752 ≈ 24 300 rows.
MAINTAINED_ROW_BUDGET = 24_576

#: Why :meth:`ResultCache.lookup` found no entry current at the version
#: asked: a maintained entry the in-flight commit dispatch will re-stamp; a
#: key whose plain entry a commit made stale (this miss promotes it); or none.
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
    as a stamp so a lookup can re-stamp still-valid answers instead of
    orphaning them under a dead key.
    """
    normalized = tuple(
        sorted((str(k), _canonical(v)) for k, v in (params or {}).items())
    )
    return (fingerprint, normalized)


class Entry:
    """One cached answer: *encoded*, the wire bytes of its ``result`` object
    — its only representation, spliced by a network hit and decoded by an
    in-process one — its row *count*, the *version* stamp, the plan's
    *footprint* and, for a maintained entry, its *pin*.  The
    envelope is never encoded, so the bytes stay valid when *version* is
    re-stamped."""

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
        #: key -> its admission mark, oldest first, at most *capacity* keys:
        #: True once its stale plain entry was dropped (its next miss
        #: promotes it), False once demoted (never promoted again).
        self._marks = OrderedDict()
        #: view -> the maintained entries pinning it.
        self._views = Counter()
        #: predicate -> the last version told whose commit touched it.
        self._clock = {}
        self._told = self._unseen = -1  # the last version told; never told
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
        there is none: :data:`BEHIND`, :data:`PROMOTE` (a stale plain entry's
        key, unless demoted) or :data:`MISS`.

        A worker passes *wait*, ``wait(version)``, which returns once the
        dispatch of *version* ran (or gave up): a :data:`BEHIND` entry is
        waited for and looked at once more, a stale one is dropped, and what
        is found is counted, a miss included.  Without *wait* (the event
        loop, which hands a request it cannot answer to a worker) nothing is
        dropped and only a hit counts."""
        for waited in (False, True):
            with self._lock:
                entry = self._entries.get(key)
                fresh = None if entry is None else self._fresh(entry, version)
                if fresh:
                    self.delta_reuse_hits += entry.version != version  # re-stamped
                    entry.version = version
                    self._entries.move_to_end(key)
                    self.hits += 1
                    return entry
                if entry is not None and entry.pin is not None:
                    found = BEHIND if entry.version < version else MISS
                else:
                    found = PROMOTE if self._marks.get(key, fresh is False) else MISS
                if wait is None:
                    return found
                if fresh is False:
                    self._invalidate(key)
                if found is not BEHIND or waited:
                    self.misses += 1
                    return found
            wait(version)

    def _fresh(self, entry, version):
        """True if *entry*, stamped *u*, is *version*'s answer: *u* is
        *version*, or it is plain and no commit in (*u*, *version*] touched
        its known footprint (one never told touched all); False if stale;
        None if unjudged: maintained, newer, or no commit told yet."""
        stamp = entry.version
        if stamp == version:
            return True
        if entry.pin is not None or stamp > version or self._told < 0:
            return None
        footprint, clock = entry.footprint, self._clock
        return footprint is not None and self._unseen <= stamp and version <= self._told and all(
            clock.get(predicate, stamp) <= stamp for predicate in footprint
        )

    def _invalidate(self, key):
        """Drop *key*'s stale plain entry; its next miss promotes it."""
        del self._entries[key]
        self.invalidations += 1
        self._mark(key, self._marks.get(key, True))

    def put(self, key, encoded, count, version, footprint=None, pin=None):
        """Cache the *encoded* answer of *count* rows computed at *version* by
        a plan reading *footprint*, the predicates the answer depends on
        (``None``: unknown, which every later commit is taken to touch).

        With a *pin* the entry is maintained (admitted by :meth:`trim`): the
        commit hook keeps it equal to that view's answer, so a plain put
        never replaces it.  Returns the entry stored (None when refused)."""
        with self._lock:
            old = self._entries.get(key)
            if old is not None and old.pin is not None:
                if pin is None:
                    return None
                self._pop(key)
            entry = self._entries[key] = Entry(encoded, count, version, footprint, pin)
            self._entries.move_to_end(key)
            if pin is not None:
                self.promotions += 1
                self._views[pin.view] += 1
            while len(self._entries) > self.capacity:
                self._evict(next(iter(self._entries)))
            return entry

    def trim(self, view):
        """Admit a maintained entry of *view*: evict the least recently used
        entries pinning other views while the views pinned hold more than
        :data:`MAINTAINED_ROW_BUDGET` rows.  Returns the evicted pins."""
        with self._lock:
            over = self._maintained_rows() - MAINTAINED_ROW_BUDGET
            pinned, victims = Counter(self._views), []
            for key, entry in self._entries.items() if over > 0 else ():
                pin = entry.pin
                if pin is not None and pin.view is not view:
                    victims.append(key)
                    pinned[pin.view] -= 1
                    if not pinned[pin.view]:
                        over -= pin.view.held_rows()
                        if over <= 0:
                            break
            return [self._evict(key) for key in victims]

    def _pop(self, key):
        """Remove *key*'s entry; a maintained one releases its pin."""
        entry = self._entries.pop(key)
        if entry.pin is not None:
            entry.pin.released = True
            self._views -= Counter((entry.pin.view,))
        return entry

    def _evict(self, key):
        pin = self._pop(key).pin
        if pin is not None:
            self._marks.pop(key, None)
        self.evictions += 1
        return pin

    def _mark(self, key, promote):
        self._marks[key] = promote
        self._marks.move_to_end(key)
        if len(self._marks) > self.capacity:
            self._marks.popitem(last=False)

    def _maintained_rows(self):
        """Rows the pinned views hold, each view once."""
        return sum(view.held_rows() for view in self._views)

    def refresh(self, pin, answer=None):
        """*pin*'s sink, its view advanced past a commit: re-stamp its entry
        (*answer* None: unchanged) or replace it with *answer*, ``(encoded,
        count)``, at the view's version — unless the entry left."""
        with self._lock:
            entry = self._entries.get(pin.key)
            if entry is None or entry.pin is not pin:
                return
            if answer is None:
                entry.version = pin.view.version
                self.delta_reuse_hits += 1
            else:
                # A new entry, not new fields: a reader holding the old one
                # keeps bytes that match its version.
                self._entries[pin.key] = Entry(*answer, pin.view.version, entry.footprint, pin)

    def apply_commit(self, version, touched):
        """The commit of *version* changed the predicates in *touched*: move
        their clocks.  No entry is visited; a plain one is judged when read."""
        with self._lock:
            if version != self._told + 1:  # a gap: versions never told
                self._unseen = version - 1
            self._told = version
            for predicate in touched:
                self._clock[predicate] = version

    def demote(self, key, pin=None):
        """Never promote *key* again: its plan has no maintained view over
        this store — or its entry, pinning *pin*, was left behind: drop it."""
        with self._lock:
            if pin is not None:
                if getattr(self._entries.get(key), "pin", None) is not pin:
                    return
                self._pop(key)
            self._mark(key, False)
            self.demotions += 1

    def clear(self):
        """Drop every entry, mark and clock (a version regression makes all
        of them meaningless); maintained entries release their pins."""
        with self._lock:
            for key in list(self._entries):
                self._pop(key)
            self._marks.clear()
            self._clock.clear()
            self._told = self._unseen = -1

    def stats(self):
        """Counters and holdings, once stale plain entries are dropped."""
        with self._lock:
            for key in [k for k, e in self._entries.items() if self._fresh(e, self._told) is False]:
                self._invalidate(key)
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
                "maintained": sum(self._views.values()),
                "maintained_rows": self._maintained_rows(),
                "promotions": self.promotions,
                "demotions": self.demotions,
            }
