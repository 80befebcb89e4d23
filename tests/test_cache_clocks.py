"""The result cache's freshness rule, model-checked.

A bare :class:`ResultCache` sees puts stamped at the current version or an
older one (a put racing a commit), footprints known or not (``None``),
commits touching random predicate sets — some of which it is never told of
— lookups with and without a worker's ``wait``, and ``clear()``.  Whatever
the interleaving, every hit is an answer put since the last ``clear()``
that no commit in (its stamp, the version asked] could have changed: none
touched its footprint, and an answer with no footprint is served only at
its own version.
"""

from __future__ import annotations

from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.service.cache import Entry, ResultCache, result_key

PREDICATES = ("p", "q", "r")
KEYS = [result_key(name, {}) for name in ("a", "b", "c")]
FOOTPRINTS = st.one_of(
    st.none(), st.frozensets(st.sampled_from(PREDICATES), max_size=len(PREDICATES))
)


def no_wait(_version):
    """A worker's ``wait`` where no commit dispatch is in flight."""


class ClockRule(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.cache = ResultCache(capacity=len(KEYS))
        self.version = 1
        #: version -> the predicates its commit touched (told or not).
        self.touched = {}
        #: The encoded bytes of each put -> (stamp, footprint, clears before it).
        self.puts = {}
        self.clears = 0

    @rule(key=st.sampled_from(KEYS), back=st.integers(0, 3), footprint=FOOTPRINTS)
    def put(self, key, back, footprint):
        stamp = max(1, self.version - back)
        encoded = b"%d" % len(self.puts)
        self.puts[encoded] = (stamp, footprint, self.clears)
        self.cache.put(key, encoded, 1, stamp, footprint)

    @rule(touched=st.frozensets(st.sampled_from(PREDICATES)), told=st.booleans())
    def commit(self, touched, told):
        """The next version; *told* False: a commit the cache never hears
        of, a gap in the versions it is told."""
        self.version += 1
        self.touched[self.version] = touched
        if told:
            self.cache.apply_commit(self.version, touched)

    @rule(key=st.sampled_from(KEYS), back=st.integers(0, 1), worker=st.booleans())
    def lookup(self, key, back, worker):
        version = self.version - back
        self.check(self.cache.lookup(key, version, no_wait if worker else None), version)

    @invariant()
    def every_hit_is_current(self):
        """What the event loop would be served now (it drops nothing)."""
        for key in KEYS:
            self.check(self.cache.lookup(key, self.version), self.version)

    def check(self, found, version):
        if not isinstance(found, Entry):
            return
        stamp, footprint, clears = self.puts[found.encoded]
        assert clears == self.clears, "served an answer put before clear()"
        assert found.version == version
        if footprint is None:
            assert stamp == version, "served an answer of unknown footprint at another version"
            return
        assert stamp <= version
        for commit in range(stamp + 1, version + 1):
            assert not self.touched[commit] & footprint, (
                f"served an answer stamped {stamp} at {version}; "
                f"the commit of {commit} touched {sorted(self.touched[commit] & footprint)}"
            )

    @rule()
    def stats(self):
        self.cache.stats()

    @rule()
    def clear(self):
        self.cache.clear()
        self.clears += 1

    @rule(key=st.sampled_from(KEYS), touched=st.sampled_from(PREDICATES))
    def reread_after_an_unrelated_commit(self, key, touched):
        """The rule keeps what it can prove: an answer whose footprint a
        told commit missed is still served, re-stamped."""
        self.put(key, 0, frozenset(PREDICATES) - {touched})
        self.commit(frozenset({touched}), True)
        entry = self.cache.lookup(key, self.version, no_wait)
        assert isinstance(entry, Entry) and entry.version == self.version


ClockRule.TestCase.settings = settings(
    max_examples=150, stateful_step_count=40, derandomize=True, deadline=None
)
TestClockRule = ClockRule.TestCase
