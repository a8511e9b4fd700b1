"""The flat-array PLB against ``SetAssocCache``, its reference.

The PLB keeps its lines in three ``array('q')`` buffers the kernels
index directly.  It must behave exactly like the true-LRU
``SetAssocCache(name="plb")`` it replaced: for any sequence of
``contains``, ``fill``, ``mark_dirty``, ``lookup`` and ``flush_dirty``
both give the same return values and victims, keep ``contents()`` in the
same order and count the same ``plb.*`` counters.
"""

from typing import List, Optional

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import stats_keys as sk
from repro.cache.cache import EvictedLine, SetAssocCache
from repro.config import CacheConfig, ORAMConfig
from repro.oram.plb import PLB
from repro.stats import Stats


class ReferencePLB:
    """The PLB's operations spelled over ``SetAssocCache``."""

    def __init__(self, sets: int, ways: int) -> None:
        self.stats = Stats()
        self._cache = SetAssocCache(
            CacheConfig(sets=sets, ways=ways, hit_latency=2), self.stats,
            name="plb",
        )

    def lookup(self, block: int) -> bool:
        hit = self._cache.probe(block)
        if hit:
            self._cache.access(block, is_write=False)
            self.stats.inc(sk.PLB_LOOKUP_HITS)
        else:
            self.stats.inc(sk.PLB_LOOKUP_MISSES)
        return hit

    def contains(self, block: int) -> bool:
        return self._cache.probe(block)

    def contents(self):
        return self._cache.contents()

    def fill(self, block: int, dirty: bool = False) -> Optional[EvictedLine]:
        return self._cache.insert(block, dirty)

    def mark_dirty(self, block: int) -> None:
        if self._cache.probe(block):
            self._cache.access(block, is_write=True)

    def flush_dirty(self) -> List[int]:
        dirty = [b for b, d in self._cache.contents().items() if d]
        for block in dirty:
            self._cache.mark_clean(block)
        return dirty

    def occupancy(self) -> int:
        return self._cache.occupancy()


operations = st.lists(
    st.tuples(
        st.sampled_from(
            ["contains", "fill", "fill_dirty", "mark_dirty", "lookup",
             "flush_dirty"]
        ),
        st.integers(0, 40),
    ),
    max_size=80,
)


@settings(max_examples=150, deadline=None)
@given(
    sets=st.sampled_from([1, 2, 4, 8]),
    ways=st.integers(1, 4),
    ops=operations,
)
def test_flat_plb_matches_set_assoc_cache(sets, ways, ops):
    oram = ORAMConfig.uniform(
        levels=4, user_blocks=8, plb_sets=sets, plb_ways=ways
    )
    flat = PLB(oram, Stats())
    reference = ReferencePLB(sets, ways)
    for op, block in ops:
        if op == "fill_dirty":
            got, want = flat.fill(block, dirty=True), reference.fill(
                block, dirty=True
            )
        elif op == "flush_dirty":
            got, want = flat.flush_dirty(), reference.flush_dirty()
        else:
            got = getattr(flat, op)(block)
            want = getattr(reference, op)(block)
        assert got == want, op
        assert list(flat.contents().items()) == list(
            reference.contents().items()
        )
        assert flat.occupancy() == reference.occupancy()
        assert flat.stats.counters == reference.stats.counters
