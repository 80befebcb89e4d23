"""Store-coherent, delta-scoped result caching.

Answers are cached under ``(plan fingerprint, evaluation parameters)`` and
stamped with the store version they were computed at plus the plan's
*predicate footprint* — every predicate whose extension the answer can
depend on.  A lookup only serves an entry stamped with the current version.

Commits keep the cache warm instead of cold: the commit hook
(:meth:`ResultCache.attach`) reads the typed :class:`~repro.ham.delta.Delta`
off each commit record and compares the delta's touched predicates against
each entry's footprint.  Disjoint → the answer provably cannot have changed,
so the entry is *re-stamped* to the new version and stays servable (counted
as ``delta_reuse_hits``); intersecting (or footprint unknown) → the entry is
dropped.  A commit touching one edge label no longer cold-starts every
cached answer — only the ones that could actually observe it.

Parameter normalization is type-tagged: ``{"limit": 1}``, ``{"limit": "1"}``
and ``{"limit": True}`` produce three distinct keys (plain ``str(v)``
normalization used to collide them, which could serve the wrong answer).
"""

from __future__ import annotations

import threading
from collections import OrderedDict

from repro import obs
from repro.core.translate import DOMAIN_PREDICATE


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
    in-process one — its row *count*, the *version* stamp and the plan's
    *footprint*.  The envelope is never encoded, so the bytes stay valid
    when a commit re-stamps *version*."""

    __slots__ = ("encoded", "count", "version", "footprint")

    def __init__(self, encoded, count, version, footprint):
        self.encoded = encoded
        self.count = count
        self.version = version
        self.footprint = footprint


class ResultCache:
    """A thread-safe LRU of versioned, footprint-stamped answers."""

    def __init__(self, capacity=1024):
        if capacity < 1:
            raise ValueError("result cache capacity must be >= 1")
        self.capacity = capacity
        self._entries = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0
        self.delta_reuse_hits = 0

    def __len__(self):
        return len(self._entries)

    def get(self, key, version, count_miss=True):
        """The :class:`Entry` if present *and* current; counts a hit, a miss if *count_miss*."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None or entry.version != version:
                self.misses += count_miss
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return entry

    def put(self, key, encoded, count, version, footprint=None):
        """Cache the *encoded* answer of *count* rows computed at *version* by
        a plan reading *footprint*, the predicates the answer depends on
        (``None``: unknown, which every later commit treats as intersecting)."""
        with self._lock:
            self._entries[key] = Entry(encoded, count, version, footprint)
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.evictions += 1

    def apply_commit(self, version, touched):
        """Re-stamp or drop entries after a commit.

        *touched* is the set of predicates the commit's delta may have
        changed (``None`` = unknown → drop everything).  Entries whose
        footprint provably misses *touched* survive with the new version
        stamp; the rest are invalidated.  Only entries current as of the
        previous version are re-stamped: versions bump by exactly one per
        commit, so an entry lagging further behind was computed before some
        commit this hook never cleared it against (a put racing a commit)
        and cannot be proven fresh.
        """
        with obs.span(
            "cache.apply_commit",
            version=version,
            touched=sorted(touched) if touched is not None else None,
        ) as span:
            with self._lock:
                dead = []
                restamped = 0
                for key, entry in self._entries.items():
                    if (
                        touched is not None
                        and entry.footprint is not None
                        and entry.version == version - 1
                        and not (entry.footprint & touched)
                    ):
                        entry.version = version
                        self.delta_reuse_hits += 1
                        restamped += 1
                    else:
                        dead.append(key)
                for key in dead:
                    del self._entries[key]
                self.invalidations += len(dead)
                span.annotate(restamped=restamped, dropped=len(dead))

    def attach(self, store, domain_predicate=DOMAIN_PREDICATE):
        """Subscribe to *store* commits; returns the unsubscribe callable."""

        def on_commit(record):
            delta = getattr(record, "delta", None)
            touched = (
                delta.touched_predicates(domain_predicate)
                if delta is not None
                else None
            )
            self.apply_commit(record.version, touched)

        store.subscribe(on_commit)
        return lambda: store.unsubscribe(on_commit)

    def clear(self):
        with self._lock:
            self._entries.clear()

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
            }
