"""A true-LRU set-associative cache kept in three flat arrays.

The PLB and the LLC both keep their lines this way, so the C kernels
index the same ``array('q')`` buffers the Python methods use:

* ``_blocks`` — ``sets * ways`` slots; set ``s`` owns slots
  ``s * ways`` to ``s * ways + ways - 1`` and holds its resident blocks
  in its first ``_fills[s]`` slots, least recently used first;
* ``_dirty`` — one dirty flag (0 or 1) per slot of ``_blocks``;
* ``_fills`` — the resident-block count of each set.

A block's set is ``block & (sets - 1)``.  The operations behave, counter
for counter, as :class:`~repro.cache.cache.SetAssocCache` of the same
name (``tests/test_plb_reference.py`` and ``tests/test_llc_reference.py``
hold each cache to it): a touch moves a block to the most recently used
end, and a fill into a full set evicts its LRU line, counting
``<name>.evictions`` and, for a dirty victim, ``<name>.dirty_evictions``.
"""

from __future__ import annotations

from array import array
from typing import Dict, Optional

from .. import stats_keys as sk
from ..stats import Stats
from .cache import EvictedLine


class FlatLRUCache:
    """Set-associative true-LRU cache over flat block/dirty/fill arrays."""

    def __init__(
        self, sets: int, ways: int, stats: Optional[Stats], name: str
    ) -> None:
        self.stats = stats if stats is not None else Stats()
        self.name = name
        self.sets = sets
        self.ways = ways
        self._mask = sets - 1
        self._blocks = array("q", [-1]) * (sets * ways)
        self._dirty = array("q", [0]) * (sets * ways)
        self._fills = array("q", [0]) * sets
        self._evictions_key = sk.cache_key(name, "evictions")
        self._dirty_evictions_key = sk.cache_key(name, "dirty_evictions")

    # -- slot helpers ---------------------------------------------------------
    def set_index(self, block: int) -> int:
        return block & self._mask

    def _slot(self, block: int) -> int:
        """The slot holding ``block``, or -1 when it is not resident."""
        index = block & self._mask
        base = index * self.ways
        blocks = self._blocks
        for slot in range(base, base + self._fills[index]):
            if blocks[slot] == block:
                return slot
        return -1

    def _touch(self, block: int, slot: int, dirty: int) -> None:
        """Move the block in ``slot`` to its set's most recently used end
        with dirty flag ``dirty``.

        The kernels hold these arrays exported, and ``array`` refuses
        even an empty slice assignment while exporting, so an MRU block
        is not shifted."""
        index = block & self._mask
        last = index * self.ways + self._fills[index] - 1
        blocks = self._blocks
        flags = self._dirty
        if slot < last:
            blocks[slot:last] = blocks[slot + 1:last + 1]
            flags[slot:last] = flags[slot + 1:last + 1]
        blocks[last] = block
        flags[last] = dirty

    def _fill(self, block: int, dirty: int) -> Optional[EvictedLine]:
        """Install an absent ``block`` as its set's MRU line; a full set
        evicts (and returns) its LRU line."""
        index = block & self._mask
        base = index * self.ways
        fill = self._fills[index]
        if fill < self.ways:
            self._blocks[base + fill] = block
            self._dirty[base + fill] = dirty
            self._fills[index] = fill + 1
            return None
        evicted = EvictedLine(self._blocks[base], bool(self._dirty[base]))
        self._touch(block, base, dirty)
        counters = self.stats.counters
        counters[self._evictions_key] += 1
        if evicted.dirty:
            counters[self._dirty_evictions_key] += 1
        return evicted

    # -- inspection -------------------------------------------------------------
    def contents(self) -> Dict[int, bool]:
        """``{block: dirty}`` for every resident line, set by set, least
        recently used first (no side effects)."""
        snapshot: Dict[int, bool] = {}
        blocks = self._blocks
        flags = self._dirty
        ways = self.ways
        for index, fill in enumerate(self._fills):
            base = index * ways
            for slot in range(base, base + fill):
                snapshot[blocks[slot]] = bool(flags[slot])
        return snapshot

    def occupancy(self) -> int:
        return sum(self._fills)
