"""A generic set-associative write-back cache with true-LRU replacement.

It is the reference the simulated LLC (Table I: 8-way, 2 MB) and the PLB
are held to: both keep their lines in the flat arrays of
:mod:`repro.cache.flat`, which the C kernels index, and must behave as
this cache does, counter for counter.  Lines are identified by block
address (cache-line granularity); no data payload is simulated — only
presence and dirtiness, which is all the ORAM study needs.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from .. import stats_keys as sk
from ..config import CacheConfig
from ..stats import Stats


@dataclass(frozen=True)
class EvictedLine:
    """A line pushed out of the cache by a fill."""

    block: int
    dirty: bool


class SetAssocCache:
    """Set-associative cache; each set is an LRU-ordered mapping.

    The OrderedDict for a set maps ``block -> dirty`` with least recently
    used first, most recently used last.
    """

    def __init__(
        self,
        config: CacheConfig,
        stats: Optional[Stats] = None,
        name: str = "cache",
    ) -> None:
        self.config = config
        self.stats = stats if stats is not None else Stats()
        self.name = name
        self._sets: Tuple[OrderedDict, ...] = tuple(
            OrderedDict() for _ in range(config.sets)
        )

    # -- indexing -------------------------------------------------------------
    def set_index(self, block: int) -> int:
        return block & (self.config.sets - 1)

    def _set(self, block: int) -> "OrderedDict[int, bool]":
        return self._sets[self.set_index(block)]

    # -- core operations --------------------------------------------------------
    def access(self, block: int, is_write: bool) -> Tuple[bool, Optional[EvictedLine]]:
        """Reference ``block``; allocate on miss.

        Returns ``(hit, evicted)`` where ``evicted`` describes the victim
        line if the fill displaced one.
        """
        lines = self._set(block)
        if block in lines:
            lines.move_to_end(block)
            if is_write:
                lines[block] = True
            self.stats.inc(sk.cache_key(self.name, "hits"))
            return True, None
        self.stats.inc(sk.cache_key(self.name, "misses"))
        evicted = self._fill(lines, block, is_write)
        return False, evicted

    def _fill(
        self, lines: "OrderedDict[int, bool]", block: int, dirty: bool
    ) -> Optional[EvictedLine]:
        evicted = None
        if len(lines) >= self.config.ways:
            victim, victim_dirty = lines.popitem(last=False)
            evicted = EvictedLine(victim, victim_dirty)
            self.stats.inc(sk.cache_key(self.name, "evictions"))
            if victim_dirty:
                self.stats.inc(sk.cache_key(self.name, "dirty_evictions"))
        lines[block] = dirty
        return evicted

    def insert(self, block: int, dirty: bool) -> Optional[EvictedLine]:
        """Install a line without counting a hit/miss (e.g. a prefetch fill)."""
        lines = self._set(block)
        if block in lines:
            lines.move_to_end(block)
            lines[block] = lines[block] or dirty
            return None
        return self._fill(lines, block, dirty)

    def probe(self, block: int) -> bool:
        """Check presence without touching LRU state."""
        return block in self._set(block)

    def is_dirty(self, block: int) -> bool:
        lines = self._set(block)
        return lines.get(block, False)

    def mark_clean(self, block: int) -> None:
        """Clear the dirty bit (used by early write-back)."""
        lines = self._set(block)
        if block in lines:
            # Preserve LRU position: direct assignment does not reorder.
            lines[block] = False

    def invalidate(self, block: int) -> Optional[EvictedLine]:
        """Drop a line; returns its state if it was present."""
        lines = self._set(block)
        if block in lines:
            dirty = lines.pop(block)
            return EvictedLine(block, dirty)
        return None

    # -- LRU inspection -----------------------------------------------------------
    def lru_line(self, set_index: int) -> Optional[Tuple[int, bool]]:
        """The ``(block, dirty)`` of the LRU line of a set, if any."""
        lines = self._sets[set_index]
        if not lines:
            return None
        block = next(iter(lines))
        return block, lines[block]

    def is_lru(self, block: int) -> bool:
        """True when ``block`` is present and is its set's LRU line."""
        lines = self._set(block)
        return bool(lines) and next(iter(lines)) == block

    # -- statistics ------------------------------------------------------------------
    def occupancy(self) -> int:
        return sum(len(lines) for lines in self._sets)

    def dirty_count(self) -> int:
        return sum(sum(1 for d in lines.values() if d) for lines in self._sets)

    def contents(self) -> Dict[int, bool]:
        """Snapshot of all resident lines (block -> dirty)."""
        snapshot: Dict[int, bool] = {}
        for lines in self._sets:
            snapshot.update(lines)
        return snapshot
