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

The S-Stash is two flat arrays.  ``_set_index`` has one entry per
namespace block: -1 until the block is first hashed (MD5, computed once),
then its set, plus :data:`RESIDENT` while the block sits in the S-Stash.
``_set_count`` holds each set's resident blocks.  The C kernels index
the same two arrays and hash a block themselves when its entry is -1;
these methods are the Python tier and the kernels' oracle.
"""

from __future__ import annotations

import hashlib
from array import array
from typing import List, Optional

from .. import stats_keys as sk
from ..config import ORAMConfig
from ..errors import ProtocolError
from ..oram.treetop import TreeTopCache
from ..oram.types import Namespace
from ..stats import Stats


#: added to a block's ``_set_index`` entry while it is resident; the
#: entry's set is the low 32 bits
RESIDENT = 1 << 32


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
        #: resident blocks per set
        self._set_count = array("q", [0]) * self.sets
        #: each namespace block's set, -1 until hashed, + RESIDENT while
        #: resident
        self._set_index = array("q", [-1]) * Namespace(config).total_blocks

    # -- block-address index -----------------------------------------------------
    def set_of(self, block: int) -> int:
        entry = self._set_index[block]
        if entry < 0:
            entry = self._set_index[block] = md5_set_index(block, self.sets)
        return entry & (RESIDENT - 1)

    def lookup_by_address(self, block: int) -> bool:
        hit = self._set_index[block] >= RESIDENT
        self.stats.inc(sk.SSTASH_PROBE_HITS if hit else sk.SSTASH_PROBE_MISSES)
        return hit

    def resident_count(self) -> int:
        return sum(self._set_count)

    def resident_blocks(self) -> List[int]:
        """Every resident block, in block order."""
        return [
            block for block, entry in enumerate(self._set_index)
            if entry >= RESIDENT
        ]

    # -- placement constraint ---------------------------------------------------
    def may_place(self, block: int) -> bool:
        return self._set_count[self.set_of(block)] < self.ways

    def on_place(self, block: int) -> None:
        if self._set_index[block] >= RESIDENT:
            raise ProtocolError(f"block {block} already in S-Stash")
        index = self.set_of(block)
        count = self._set_count[index]
        if count >= self.ways:
            raise ProtocolError(f"S-Stash set {index} overfull")
        self._set_count[index] = count + 1
        self._set_index[block] = index + RESIDENT
        self.stats.inc(sk.SSTASH_PLACED)

    def on_remove(self, block: int) -> None:
        entry = self._set_index[block]
        if entry < RESIDENT:
            raise ProtocolError(f"block {block} not in S-Stash")
        index = entry - RESIDENT
        self._set_count[index] -= 1
        self._set_index[block] = index
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
