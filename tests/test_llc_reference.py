"""The flat-array LLC against ``SetAssocCache``, its reference.

The LLC keeps its lines in the flat arrays the PLB uses, which the C
front end indexes directly.  It must behave exactly like the true-LRU
``SetAssocCache(name="llc")`` it replaced, with the dirty-LRU scan IR-DWB
drives: for any sequence of operations both give the same return values
and victims, keep ``contents()`` in the same order, and count the same
``llc.*`` counters.
"""

from typing import Optional, Tuple

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import stats_keys as sk
from repro.cache.cache import SetAssocCache
from repro.cache.llc import LastLevelCache
from repro.config import CacheConfig
from repro.stats import Stats


class ReferenceLLC(SetAssocCache):
    """The LLC as it was: ``SetAssocCache`` plus its dirty-LRU scan."""

    SEARCH_PAUSE = LastLevelCache.SEARCH_PAUSE

    def __init__(self, config: CacheConfig) -> None:
        super().__init__(config, Stats(), name="llc")
        self._scan_set = 0
        self._paused_until = 0

    def find_dirty_lru(
        self, now: int, max_sets: Optional[int] = None
    ) -> Optional[Tuple[int, int]]:
        if now < self._paused_until:
            return None
        sets = self.config.sets
        budget = sets if max_sets is None else min(max_sets, sets)
        for _ in range(budget):
            index = self._scan_set
            self._scan_set = (self._scan_set + 1) % sets
            lru = self.lru_line(index)
            if lru is not None and lru[1]:
                self.stats.inc(sk.LLC_DWB_CANDIDATES_FOUND)
                return index, lru[0]
        if budget >= sets:
            self._paused_until = now + self.SEARCH_PAUSE
            self._scan_set = (now * 2654435761) % sets
            self.stats.inc(sk.LLC_DWB_SEARCH_PAUSES)
        return None

    def evict_for_writeback(self, block: int):
        return self.invalidate(block)


BLOCK_OPS = ("probe", "read", "write", "insert", "insert_dirty", "is_dirty",
             "mark_clean", "invalidate", "is_lru", "evict_for_writeback")

operations = st.lists(
    st.one_of(
        st.tuples(st.sampled_from(BLOCK_OPS), st.integers(0, 40)),
        st.tuples(st.just("lru_line"), st.integers(0, 7)),
        st.tuples(st.just("find_dirty_lru"),
                  st.tuples(st.integers(0, 3000), st.integers(0, 9))),
    ),
    max_size=100,
)


def _apply(cache, op, arg):
    if op == "read":
        return cache.access(arg, False)
    if op == "write":
        return cache.access(arg, True)
    if op == "insert":
        return cache.insert(arg, False)
    if op == "insert_dirty":
        return cache.insert(arg, True)
    if op == "lru_line":
        return cache.lru_line(arg % cache.config.sets)
    if op == "find_dirty_lru":
        now, budget = arg
        # Budget 0 stands for a full sweep (the default).
        return cache.find_dirty_lru(now, budget or None)
    return getattr(cache, op)(arg)


@settings(max_examples=150, deadline=None)
@given(
    sets=st.sampled_from([1, 2, 4, 8]),
    ways=st.integers(1, 4),
    ops=operations,
)
def test_flat_llc_matches_set_assoc_cache(sets, ways, ops):
    config = CacheConfig(sets=sets, ways=ways)
    flat = LastLevelCache(config, Stats())
    reference = ReferenceLLC(config)
    # Time moves forward, as the simulator's clock does.
    now = 0
    for op, arg in ops:
        if op == "find_dirty_lru":
            now += arg[0]
            arg = (now, arg[1])
        got, want = _apply(flat, op, arg), _apply(reference, op, arg)
        assert got == want, op
        assert list(flat.contents().items()) == list(
            reference.contents().items()
        )
        assert flat.occupancy() == reference.occupancy()
        assert flat.dirty_count() == reference.dirty_count()
        assert (flat._scan_set, flat._paused_until) == (
            reference._scan_set, reference._paused_until
        )
        assert flat.stats.counters == reference.stats.counters
