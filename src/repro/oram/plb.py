"""The PosMap lookaside buffer (PLB).

A small on-chip set-associative cache of PosMap *blocks* (Freecursive).
A hit means the needed mapping entry is on chip; a miss forces a full path
access for the PosMap block.  Remapping a child block dirties the cached
parent PosMap block; evicting a dirty PosMap block requires writing it back
through another full ORAM access, which the controller performs.

The state is the three flat ``array('q')`` buffers of
:class:`~repro.cache.flat.FlatLRUCache` (block ids set by set, least
recently used first; a dirty flag per slot; a fill count per set), so
the C kernels' PLB install and translation walk index it directly, as
they index the tree and the position map.  The methods behave, counter
for counter, as the true-LRU :class:`~repro.cache.cache.SetAssocCache`
named ``plb`` (``tests/test_plb_reference.py`` holds them to it): a hit
moves the block to the most recently used end, and ``plb.hits``,
``plb.evictions`` and ``plb.dirty_evictions`` count what that cache
counts.
"""

from __future__ import annotations

from typing import List, Optional

from .. import stats_keys as sk
from ..cache.cache import EvictedLine
from ..cache.flat import FlatLRUCache
from ..config import ORAMConfig
from ..obs import events as ev
from ..stats import Stats


class PLB(FlatLRUCache):
    """Set-associative true-LRU cache of PosMap block IDs."""

    def __init__(self, config: ORAMConfig, stats: Optional[Stats] = None) -> None:
        super().__init__(config.plb_sets, config.plb_ways, stats, name="plb")

    # -- cache operations ---------------------------------------------------
    def lookup(self, posmap_block: int) -> bool:
        """Probe without filling; counts a hit or miss."""
        slot = self._slot(posmap_block)
        hit = slot >= 0
        if hit:
            # A read reference: LRU touch, counted as a cache hit.
            self._touch(posmap_block, slot, self._dirty[slot])
            self.stats.inc(sk.PLB_HITS)
            self.stats.inc(sk.PLB_LOOKUP_HITS)
        else:
            self.stats.inc(sk.PLB_LOOKUP_MISSES)
        tracer = self.stats.tracer
        if tracer is not None:
            tracer.emit(
                ev.PLB_HIT if hit else ev.PLB_MISS,
                tracer.now,
                block=posmap_block,
            )
        return hit

    def contains(self, posmap_block: int) -> bool:
        """Presence check with no statistics or LRU side effects."""
        return self._slot(posmap_block) >= 0

    def fill(self, posmap_block: int, dirty: bool = False) -> Optional[EvictedLine]:
        """Install a PosMap block fetched through the ORAM.

        Returns the evicted line, if any; the caller must issue an ORAM
        write access when the victim is dirty.  A resident block is only
        touched, keeping its dirty flag when ``dirty`` is False.
        """
        slot = self._slot(posmap_block)
        if slot >= 0:
            self._touch(posmap_block, slot, self._dirty[slot] or int(dirty))
            return None
        return self._fill(posmap_block, int(dirty))

    def mark_dirty(self, posmap_block: int) -> None:
        """Record that a cached PosMap block's entries changed (remap)."""
        slot = self._slot(posmap_block)
        if slot >= 0:
            self._touch(posmap_block, slot, 1)
            self.stats.inc(sk.PLB_HITS)

    def flush_dirty(self) -> List[int]:
        """Return and clean all dirty blocks (context-switch style flush),
        in :meth:`contents` order, leaving LRU order alone."""
        dirty = [block for block, flag in self.contents().items() if flag]
        for block in dirty:
            self._dirty[self._slot(block)] = 0
        return dirty
