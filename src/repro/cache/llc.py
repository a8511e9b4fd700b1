"""The last-level cache, with the dirty-LRU scan machinery IR-DWB relies on.

The LLC is a true-LRU write-back cache over the flat arrays of
:class:`~repro.cache.flat.FlatLRUCache`, the PLB's layout, so the C
front end (``drain_slots``) probes, touches and fills the same lines.
Beyond that, the LLC exposes the small state machine of Section IV-D: a
register ``Ptr`` that round-robins across cache sets looking for a
*dirty LRU* line (autonomous eager-writeback style, Lee et al.).  IR-DWB
locks the pointed line while its staged write-back is in flight and
aborts if the line stops being the LRU or is evicted.
"""

from __future__ import annotations

from typing import Optional, Tuple

from .. import stats_keys as sk
from ..config import CacheConfig
from ..stats import Stats
from .cache import EvictedLine
from .flat import FlatLRUCache


class LastLevelCache(FlatLRUCache):
    """LLC with round-robin dirty-LRU candidate search."""

    #: cycles to pause after a full fruitless sweep (Section IV-D)
    SEARCH_PAUSE = 1000

    def __init__(self, config: CacheConfig, stats: Optional[Stats] = None) -> None:
        super().__init__(config.sets, config.ways, stats, name="llc")
        self.config = config
        self._scan_set = 0
        self._paused_until = 0

    # -- core operations --------------------------------------------------------
    def access(self, block: int, is_write: bool) -> Tuple[bool, Optional[EvictedLine]]:
        """Reference ``block``; allocate on miss.

        Returns ``(hit, evicted)`` where ``evicted`` describes the victim
        line if the fill displaced one.
        """
        slot = self._slot(block)
        if slot >= 0:
            self._touch(block, slot, self._dirty[slot] | bool(is_write))
            self.stats.inc(sk.LLC_HITS)
            return True, None
        self.stats.inc(sk.LLC_MISSES)
        return False, self._fill(block, int(bool(is_write)))

    def insert(self, block: int, dirty: bool) -> Optional[EvictedLine]:
        """Install a line without counting a hit/miss (e.g. a prefetch fill)."""
        slot = self._slot(block)
        if slot >= 0:
            self._touch(block, slot, self._dirty[slot] | bool(dirty))
            return None
        return self._fill(block, int(bool(dirty)))

    def probe(self, block: int) -> bool:
        """Check presence without touching LRU state."""
        return self._slot(block) >= 0

    def is_dirty(self, block: int) -> bool:
        slot = self._slot(block)
        return slot >= 0 and bool(self._dirty[slot])

    def mark_clean(self, block: int) -> None:
        """Clear the dirty bit (used by early write-back), keeping the
        line's LRU position."""
        slot = self._slot(block)
        if slot >= 0:
            self._dirty[slot] = 0

    def invalidate(self, block: int) -> Optional[EvictedLine]:
        """Drop a line; returns its state if it was present."""
        slot = self._slot(block)
        if slot < 0:
            return None
        evicted = EvictedLine(block, bool(self._dirty[slot]))
        # Move the line to the MRU end, then drop that slot.
        self._touch(block, slot, 0)
        index = block & self._mask
        self._fills[index] -= 1
        self._blocks[index * self.ways + self._fills[index]] = -1
        return evicted

    def evict_for_writeback(self, block: int) -> Optional[EvictedLine]:
        """Remove a line as part of a demand replacement (normal eviction)."""
        return self.invalidate(block)

    # -- LRU inspection -----------------------------------------------------------
    def lru_line(self, set_index: int) -> Optional[Tuple[int, bool]]:
        """The ``(block, dirty)`` of the LRU line of a set, if any."""
        if not self._fills[set_index]:
            return None
        base = set_index * self.ways
        return self._blocks[base], bool(self._dirty[base])

    def is_lru(self, block: int) -> bool:
        """True when ``block`` is present and is its set's LRU line."""
        index = block & self._mask
        return bool(self._fills[index]) and (
            self._blocks[index * self.ways] == block
        )

    def dirty_count(self) -> int:
        return sum(self.contents().values())

    # -- IR-DWB's dirty-LRU scan -----------------------------------------------------
    def find_dirty_lru(
        self, now: int, max_sets: Optional[int] = None
    ) -> Optional[Tuple[int, int]]:
        """Round-robin search for a dirty LRU line.

        Returns ``(set_index, block)`` of the first dirty LRU found starting
        from the scan cursor, advancing the cursor past it.  Scans at most
        ``max_sets`` sets (default: one full sweep).  If the sweep finds
        nothing, the search pauses for :data:`SEARCH_PAUSE` cycles and
        restarts from a pseudo-random set, as the paper describes.
        """
        if now < self._paused_until:
            return None
        sets = self.sets
        budget = sets if max_sets is None else min(max_sets, sets)
        ways = self.ways
        fills = self._fills
        for _ in range(budget):
            index = self._scan_set
            self._scan_set = (self._scan_set + 1) % sets
            base = index * ways
            if fills[index] and self._dirty[base]:
                self.stats.inc(sk.LLC_DWB_CANDIDATES_FOUND)
                return index, self._blocks[base]
        if budget >= sets:
            # A full fruitless sweep pauses the search and restarts it from
            # a deterministic pseudo-random set (reproducible simulation).
            self._paused_until = now + self.SEARCH_PAUSE
            self._scan_set = (now * 2654435761) % sets
            self.stats.inc(sk.LLC_DWB_SEARCH_PAUSES)
        return None
