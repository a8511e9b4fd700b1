"""The PosMap lookaside buffer (PLB).

A small on-chip set-associative cache of PosMap *blocks* (Freecursive).
A hit means the needed mapping entry is on chip; a miss forces a full path
access for the PosMap block.  Remapping a child block dirties the cached
parent PosMap block; evicting a dirty PosMap block requires writing it back
through another full ORAM access, which the controller performs.

The state is three flat ``array('q')`` buffers, so the C kernels' PLB
install and translation walk index it directly, as they index the tree
and the position map:

* ``_blocks`` — ``sets * ways`` slots; set ``s`` owns slots
  ``s * ways`` to ``s * ways + ways - 1`` and holds its resident blocks
  in its first ``_fills[s]`` slots, least recently used first;
* ``_dirty`` — one dirty flag (0 or 1) per slot of ``_blocks``;
* ``_fills`` — the resident-block count of each set.

A block's set is ``block & (sets - 1)``.  The methods behave, counter for
counter, as the true-LRU :class:`~repro.cache.cache.SetAssocCache` named
``plb`` (``tests/test_plb_reference.py`` holds them to it): a hit moves
the block to the most recently used end, and ``plb.hits``,
``plb.evictions`` and ``plb.dirty_evictions`` count what that cache
counts.
"""

from __future__ import annotations

from array import array
from typing import Dict, List, Optional

from .. import stats_keys as sk
from ..cache.cache import EvictedLine
from ..config import ORAMConfig
from ..obs import events as ev
from ..stats import Stats


class PLB:
    """Set-associative true-LRU cache of PosMap block IDs."""

    def __init__(self, config: ORAMConfig, stats: Optional[Stats] = None) -> None:
        self.stats = stats if stats is not None else Stats()
        self.sets = config.plb_sets
        self.ways = config.plb_ways
        self._mask = self.sets - 1
        self._blocks = array("q", [-1]) * (self.sets * self.ways)
        self._dirty = array("q", [0]) * (self.sets * self.ways)
        self._fills = array("q", [0]) * self.sets

    # -- slot helpers ---------------------------------------------------------
    def _slot(self, block: int) -> int:
        """The slot holding ``block``, or -1 when it is not resident."""
        base = (block & self._mask) * self.ways
        blocks = self._blocks
        for slot in range(base, base + self._fills[block & self._mask]):
            if blocks[slot] == block:
                return slot
        return -1

    def _touch(self, block: int, slot: int, dirty: int) -> None:
        """Move the block in ``slot`` to its set's most recently used end
        with dirty flag ``dirty``.

        The kernel state holds these arrays, and ``array`` refuses even
        an empty slice assignment while exporting, so an MRU block is not
        shifted."""
        index = block & self._mask
        last = index * self.ways + self._fills[index] - 1
        blocks = self._blocks
        flags = self._dirty
        if slot < last:
            blocks[slot:last] = blocks[slot + 1:last + 1]
            flags[slot:last] = flags[slot + 1:last + 1]
        blocks[last] = block
        flags[last] = dirty

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

    def contents(self) -> Dict[int, bool]:
        """``{posmap_block: dirty}`` for every resident line, set by set,
        least recently used first (no side effects; used by the
        conformance auditor and flush logic)."""
        snapshot: Dict[int, bool] = {}
        blocks = self._blocks
        flags = self._dirty
        for index, fill in enumerate(self._fills):
            base = index * self.ways
            for slot in range(base, base + fill):
                snapshot[blocks[slot]] = bool(flags[slot])
        return snapshot

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
        index = posmap_block & self._mask
        base = index * self.ways
        fill = self._fills[index]
        if fill < self.ways:
            self._blocks[base + fill] = posmap_block
            self._dirty[base + fill] = int(dirty)
            self._fills[index] = fill + 1
            return None
        # A full set: the LRU line leaves and the block becomes the MRU.
        evicted = EvictedLine(self._blocks[base], bool(self._dirty[base]))
        self._touch(posmap_block, base, int(dirty))
        self.stats.inc(sk.PLB_EVICTIONS)
        if evicted.dirty:
            self.stats.inc(sk.PLB_CACHE_DIRTY_EVICTIONS)
        return evicted

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

    def occupancy(self) -> int:
        return sum(self._fills)
