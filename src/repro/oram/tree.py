"""The ORAM tree: buckets of (possibly non-uniform) size holding block IDs.

Only block identity is simulated — payloads, encryption, and MACs add
constant per-block cost that the DRAM model charges uniformly, so carrying
bytes around would change nothing the paper measures.

The tree supports the per-level bucket sizes that IR-Alloc introduces
(Section IV-B): ``z_per_level[l]`` slots per bucket at level ``l``, with 0
meaning the level holds no memory-backed slots at all.
"""

from __future__ import annotations

import random
from typing import Dict, Iterable, List, Optional, Tuple

from ..config import ORAMConfig
from ..errors import ProtocolError

#: Marker for an unoccupied slot (a "dummy block" once encrypted).
EMPTY = -1


class ORAMTree:
    """Binary tree of buckets addressed by ``(level, position)``.

    Buckets are stored in heap order (``index = (1 << level) - 1 + pos``)
    in a dense list for trees up to :data:`DENSE_LEVEL_LIMIT` levels and in
    a lazily populated dict beyond that (so paper-scale L=25 configurations
    remain constructible).
    """

    DENSE_LEVEL_LIMIT = 21

    #: paths whose (level, slots) sequences are memoized at once
    PATH_CACHE_LIMIT = 1 << 16

    def __init__(self, config: ORAMConfig) -> None:
        self.config = config
        self.levels = config.levels
        self.z_per_level = config.z_per_level
        self.level_used: List[int] = [0] * self.levels
        self.level_slots: List[int] = [
            z << level for level, z in enumerate(self.z_per_level)
        ]
        self._dense = self.levels <= self.DENSE_LEVEL_LIMIT
        if self._dense:
            self._buckets: List[Optional[List[int]]] = [None] * (
                (1 << self.levels) - 1
            )
        else:
            self._sparse: Dict[int, List[int]] = {}
        #: leaf -> [(level, slots), ...] for z>0 levels.  Slot lists are
        #: created once and only ever mutated in place, so caching the
        #: references is safe.
        self._path_slots_cache: Dict[int, List[Tuple[int, List[int]]]] = {}

    # -- bucket access -------------------------------------------------------
    @staticmethod
    def bucket_index(level: int, position: int) -> int:
        return (1 << level) - 1 + position

    def bucket(self, level: int, position: int) -> List[int]:
        """The slot array of one bucket (created empty on first touch)."""
        if not 0 <= level < self.levels:
            raise ProtocolError(f"level {level} out of range")
        if not 0 <= position < (1 << level):
            raise ProtocolError(f"position {position} invalid at level {level}")
        index = self.bucket_index(level, position)
        if self._dense:
            slots = self._buckets[index]
            if slots is None:
                slots = [EMPTY] * self.z_per_level[level]
                self._buckets[index] = slots
            return slots
        slots = self._sparse.get(index)
        if slots is None:
            slots = [EMPTY] * self.z_per_level[level]
            self._sparse[index] = slots
        return slots

    # -- path geometry ----------------------------------------------------------
    def path_position(self, leaf: int, level: int) -> int:
        return leaf >> (self.levels - 1 - level)

    def path_buckets(
        self, leaf: int, from_level: int = 0
    ) -> Iterable[Tuple[int, int, List[int]]]:
        """Yield ``(level, position, slots)`` along the path to ``leaf``."""
        for level in range(from_level, self.levels):
            if self.z_per_level[level] == 0:
                continue
            position = self.path_position(leaf, level)
            yield level, position, self.bucket(level, position)

    def iter_buckets(self) -> Iterable[Tuple[int, int, List[int]]]:
        """Yield ``(level, position, slots)`` for every materialized bucket.

        A bucket that was never touched holds no real blocks, so this
        covers every resident block without materializing the rest of the
        tree — safe at paper scale (L=25), where the conformance auditor
        sweeps the tree during live runs.
        """
        if self._dense:
            entries: Iterable[Tuple[int, List[int]]] = (
                (index, slots)
                for index, slots in enumerate(self._buckets)
                if slots is not None
            )
        else:
            entries = self._sparse.items()
        for index, slots in entries:
            level = (index + 1).bit_length() - 1
            yield level, index - ((1 << level) - 1), slots

    def deepest_common_level(self, leaf_a: int, leaf_b: int) -> int:
        """Deepest level shared by the paths to two leaves (0 = root only)."""
        xor = leaf_a ^ leaf_b
        return (self.levels - 1) - xor.bit_length()

    def path_slots(self, leaf: int) -> List[Tuple[int, List[int]]]:
        """Memoized ``(level, slots)`` pairs of a path's z>0 buckets."""
        cached = self._path_slots_cache.get(leaf)
        if cached is not None:
            return cached
        shift = self.levels - 1
        pairs = [
            (level, self.bucket(level, leaf >> (shift - level)))
            for level in range(self.levels)
            if self.z_per_level[level] != 0
        ]
        if len(self._path_slots_cache) >= self.PATH_CACHE_LIMIT:
            self._path_slots_cache.clear()
        self._path_slots_cache[leaf] = pairs
        return pairs

    # -- slot mutation -----------------------------------------------------------
    def read_and_clear(self, leaf: int) -> List[Tuple[int, int]]:
        """Remove every real block on a path; return ``(block, level)`` pairs.

        This is the read phase of a path access: every slot is fetched, real
        blocks go to the caller (the stash), dummies are discarded.  The
        controller's C read phase (``read_path``) runs the same loop.
        """
        removed: List[Tuple[int, int]] = []
        level_used = self.level_used
        for level, slots in self.path_slots(leaf):
            for i, block in enumerate(slots):
                if block != EMPTY:
                    removed.append((block, level))
                    slots[i] = EMPTY
                    level_used[level] -= 1
        return removed

    def place(self, level: int, position: int, block: int) -> bool:
        """Put ``block`` into the first free slot of a bucket, if any."""
        slots = self.bucket(level, position)
        for i, occupant in enumerate(slots):
            if occupant == EMPTY:
                slots[i] = block
                self.level_used[level] += 1
                return True
        return False

    def free_slots(self, level: int, position: int) -> int:
        slots = self.bucket(level, position)
        return sum(1 for occupant in slots if occupant == EMPTY)

    # -- occupancy queries ----------------------------------------------------------
    def level_utilization(self) -> List[float]:
        """Fraction of slots holding real blocks, per level (Fig. 3)."""
        result = []
        for used, slots in zip(self.level_used, self.level_slots):
            result.append(used / slots if slots else 0.0)
        return result

    def total_used(self) -> int:
        return sum(self.level_used)

    def initialize(self, blocks: Iterable[int], leaf_of, rng: random.Random):
        """Place blocks into the tree bottom-up along their assigned paths.

        ``leaf_of`` maps block -> leaf.  Blocks whose entire path is full are
        returned to the caller (they start life in the stash).  A shuffled
        placement order avoids systematic bias.
        """
        overflow: List[int] = []
        block_list = list(blocks)
        rng.shuffle(block_list)
        if self.total_used():
            # Pre-occupied tree: fall back to per-slot placement.
            for block in block_list:
                leaf = leaf_of(block)
                for level in range(self.levels - 1, -1, -1):
                    if self.z_per_level[level] == 0:
                        continue
                    if self.place(level, self.path_position(leaf, level), block):
                        break
                else:
                    overflow.append(block)
            return overflow
        # Bulk placement into a fresh tree only ever fills the first empty
        # slot of each bucket, so per-bucket fill counters stand in for slot
        # scans; buckets materialize once at the end.
        levels = self.levels
        shift = levels - 1
        z_per_level = self.z_per_level
        level_used = self.level_used
        fill: Dict[int, int] = {}
        pending: Dict[int, List[int]] = {}
        active_levels = [
            level for level in range(levels - 1, -1, -1)
            if z_per_level[level] != 0
        ]
        for block in block_list:
            leaf = leaf_of(block)
            for level in active_levels:
                index = (1 << level) - 1 + (leaf >> (shift - level))
                count = fill.get(index, 0)
                if count < z_per_level[level]:
                    fill[index] = count + 1
                    bucket_blocks = pending.get(index)
                    if bucket_blocks is None:
                        pending[index] = bucket_blocks = []
                    bucket_blocks.append(block)
                    level_used[level] += 1
                    break
            else:
                overflow.append(block)
        for index, bucket_blocks in pending.items():
            level = (index + 1).bit_length() - 1
            position = index - ((1 << level) - 1)
            slots = self.bucket(level, position)
            slots[: len(bucket_blocks)] = bucket_blocks
        return overflow
