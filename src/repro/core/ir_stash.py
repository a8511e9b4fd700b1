"""IR-Stash: the double-indexed set-associative sub-stash (Section IV-C).

The tree top is held in *S-Stash*, a set-associative structure indexed two
ways:

* by **block address** (hashed with MD5, as the paper specifies), so the
  LLC can ask "is block b on chip?" directly — eliminating the PosMap
  access that the dedicated-tree-top-cache baseline wastes whenever the
  requested block was sitting in the cached top;
* by **tree position** through the TT pointer table, so the ORAM
  controller can still walk the cached segment of a path bucket-by-bucket
  during read/write phases.

In the simulator the tree object itself stores top-level bucket contents
(that is the TT view); this class maintains the block-address index and
enforces the set-associativity constraint on placement: a block whose
target set is full is skipped for this write phase and retried later
("we skip picking this block for this round").

A block's set is its MD5 hash, computed once: ``set_of`` records it in a
per-S-Stash ``array('q')`` with one entry per namespace block (-1 = not
hashed yet).  The C placement engine reads that array directly and calls
``set_of`` only for a block it has not seen.
"""

from __future__ import annotations

import hashlib
from array import array
from typing import Dict, Optional

from .. import stats_keys as sk
from ..config import ORAMConfig
from ..errors import ProtocolError
from ..oram.treetop import TreeTopCache
from ..oram.types import Namespace
from ..stats import Stats


def md5_set_index(block: int, sets: int) -> int:
    """The MD5-based set index of ``block`` among ``sets`` sets."""
    digest = hashlib.md5(block.to_bytes(8, "little")).digest()
    return int.from_bytes(digest[:4], "little") % sets


class SStash(TreeTopCache):
    """Set-associative, double-indexed tree-top store."""

    addressable_by_block = True

    #: bits per TT pointer (the paper uses 12-bit pointers)
    POINTER_BITS = 12

    def __init__(
        self,
        config: ORAMConfig,
        stats: Optional[Stats] = None,
        ways: int = 4,
    ) -> None:
        super().__init__(config, stats)
        if ways < 1:
            raise ProtocolError("S-Stash needs at least one way")
        self.ways = ways
        capacity = self.capacity_entries()
        sets = max(1, capacity // ways)
        # round up to a power of two for clean indexing
        self.sets = 1 << (sets - 1).bit_length()
        self._set_count: Dict[int, int] = {}
        self._resident: Dict[int, int] = {}
        #: each namespace block's set, filled as ``set_of`` hashes it
        self._set_index = array("q", [-1]) * Namespace(config).total_blocks

    # -- block-address index -----------------------------------------------------
    def set_of(self, block: int) -> int:
        index = self._set_index[block]
        if index < 0:
            index = self._set_index[block] = md5_set_index(block, self.sets)
        return index

    def lookup_by_address(self, block: int) -> bool:
        hit = block in self._resident
        self.stats.inc(sk.SSTASH_PROBE_HITS if hit else sk.SSTASH_PROBE_MISSES)
        return hit

    def resident_count(self) -> int:
        return len(self._resident)

    # -- placement constraint ---------------------------------------------------
    def may_place(self, block: int) -> bool:
        return self._set_count.get(self.set_of(block), 0) < self.ways

    def on_place(self, block: int) -> None:
        if block in self._resident:
            raise ProtocolError(f"block {block} already in S-Stash")
        index = self.set_of(block)
        count = self._set_count.get(index, 0)
        if count >= self.ways:
            raise ProtocolError(f"S-Stash set {index} overfull")
        self._set_count[index] = count + 1
        self._resident[block] = index
        self.stats.inc(sk.SSTASH_PLACED)

    def on_remove(self, block: int) -> None:
        index = self._resident.pop(block, None)
        if index is None:
            raise ProtocolError(f"block {block} not in S-Stash")
        self._set_count[index] -= 1
        if self._set_count[index] == 0:
            del self._set_count[index]
        self.stats.inc(sk.SSTASH_REMOVED)

    # -- overheads (Section VI-F) ------------------------------------------------
    def tt_table_bits(self) -> int:
        """Size of the TT pointer table keeping the tree structure."""
        buckets = (1 << self.levels) - 1
        max_z = max(
            (self.config.z_per_level[level] for level in range(self.levels)),
            default=0,
        )
        return buckets * max_z * self.POINTER_BITS

    def describe(self) -> str:
        return (
            f"S-Stash: top {self.levels} levels, {self.sets} sets x "
            f"{self.ways} ways, TT table {self.tt_table_bits() // 8} bytes"
        )
