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
from array import array
from typing import Iterable, List, Tuple

from ..config import ORAMConfig
from ..errors import ProtocolError

#: Marker for an unoccupied slot (a "dummy block" once encrypted).
EMPTY = -1


class ORAMTree:
    """Binary tree of buckets addressed by ``(level, position)``.

    Every slot lives in one flat ``array('q')``, level by level: level
    ``l`` holds ``z_per_level[l] << l`` consecutive slots from
    ``offset[l]``, and the bucket at ``position`` is the
    ``z_per_level[l]`` slots from ``offset[l] + position * z_per_level[l]``.
    A level with z = 0 takes no slots.  The C kernels index the same
    array through the buffer protocol; Python callers go through the slot
    methods below, which never hand out a view of it.
    """

    def __init__(self, config: ORAMConfig) -> None:
        self.config = config
        self.levels = config.levels
        self.z_per_level = config.z_per_level
        #: real blocks per level, an ``array('q')`` the kernels update too
        self.level_used = array("q", [0]) * self.levels
        self.level_slots: List[int] = [
            z << level for level, z in enumerate(self.z_per_level)
        ]
        self.offset: List[int] = []
        total = 0
        for slots in self.level_slots:
            self.offset.append(total)
            total += slots
        self._slots = array("q", [EMPTY]) * total

    # -- bucket access -------------------------------------------------------
    @staticmethod
    def bucket_index(level: int, position: int) -> int:
        return (1 << level) - 1 + position

    def _start(self, level: int, position: int) -> int:
        """Array index of a bucket's first slot."""
        if not 0 <= level < self.levels:
            raise ProtocolError(f"level {level} out of range")
        if not 0 <= position < (1 << level):
            raise ProtocolError(f"position {position} invalid at level {level}")
        return self.offset[level] + position * self.z_per_level[level]

    def bucket(self, level: int, position: int) -> List[int]:
        """A copy of one bucket's slots."""
        start = self._start(level, position)
        return self._slots[start:start + self.z_per_level[level]].tolist()

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
        """Yield ``(level, position, slots)`` for every bucket of every
        level with z > 0."""
        for level, z in enumerate(self.z_per_level):
            if z == 0:
                continue
            start = self.offset[level]
            contents = self._slots[start:start + (z << level)].tolist()
            for position in range(1 << level):
                yield level, position, contents[position * z:(position + 1) * z]

    def deepest_common_level(self, leaf_a: int, leaf_b: int) -> int:
        """Deepest level shared by the paths to two leaves (0 = root only)."""
        xor = leaf_a ^ leaf_b
        return (self.levels - 1) - xor.bit_length()

    # -- slot mutation -----------------------------------------------------------
    def read_and_clear(self, leaf: int) -> List[Tuple[int, int]]:
        """Remove every real block on a path; return ``(block, level)`` pairs.

        This is the read phase of a path access: every slot is fetched, real
        blocks go to the caller (the stash), dummies are discarded.  The
        controller's C read phase (inside ``access_path``) runs the same
        loop.
        """
        if not 0 <= leaf < self.config.leaves:
            raise ProtocolError(f"leaf {leaf} out of range")
        removed: List[Tuple[int, int]] = []
        slots = self._slots
        level_used = self.level_used
        shift = self.levels - 1
        for level, z in enumerate(self.z_per_level):
            start = self.offset[level] + (leaf >> (shift - level)) * z
            for i in range(start, start + z):
                block = slots[i]
                if block != EMPTY:
                    removed.append((block, level))
                    slots[i] = EMPTY
                    level_used[level] -= 1
        return removed

    def place(self, level: int, position: int, block: int) -> bool:
        """Put ``block`` into the first free slot of a bucket, if any."""
        start = self._start(level, position)
        slots = self._slots
        for i in range(start, start + self.z_per_level[level]):
            if slots[i] == EMPTY:
                slots[i] = block
                self.level_used[level] += 1
                return True
        return False

    def remove(self, level: int, position: int, block: int) -> None:
        """Blank the slot of a bucket that holds ``block``."""
        start = self._start(level, position)
        slots = self._slots
        for i in range(start, start + self.z_per_level[level]):
            if slots[i] == block:
                slots[i] = EMPTY
                self.level_used[level] -= 1
                return
        raise ProtocolError(f"block {block} not in bucket (L{level}, {position})")

    def set_slot(self, level: int, position: int, slot: int, block: int) -> None:
        """Overwrite one slot without occupancy bookkeeping (fault
        injection and tamper tests)."""
        if not 0 <= slot < self.z_per_level[level]:
            raise ProtocolError(f"slot {slot} invalid at level {level}")
        self._slots[self._start(level, position) + slot] = block

    def free_slots(self, level: int, position: int) -> int:
        return self.bucket(level, position).count(EMPTY)

    # -- occupancy queries ----------------------------------------------------------
    def level_utilization(self) -> List[float]:
        """Fraction of slots holding real blocks, per level (Fig. 3)."""
        result = []
        for used, slots in zip(self.level_used, self.level_slots):
            result.append(used / slots if slots else 0.0)
        return result

    def total_used(self) -> int:
        return sum(self.level_used)

    def initialize(
        self, leaf_table: "array[int]", rng: random.Random, native=None
    ) -> List[int]:
        """Place blocks ``0 .. len(leaf_table) - 1`` into an empty tree
        bottom-up along their paths; ``leaf_table[block]`` is the block's
        leaf.

        Blocks whose entire path is full are returned to the caller, in
        placement order (they start life in the stash).  A shuffled
        placement order avoids systematic bias.  ``native`` (the C kernel
        module, for a plain ``random.Random`` only) runs the same shuffle
        and placement in ``init_tree``; this loop is its oracle.
        """
        if self.total_used():
            raise ProtocolError("initialize needs an empty tree")
        if native is not None:
            try:
                return native.init_tree(
                    self._slots, leaf_table, self.z_per_level,
                    self.level_used, rng,
                )
            except IndexError as exc:
                raise ProtocolError(str(exc)) from None
        leaves = self.config.leaves
        if leaf_table and not (
            0 <= min(leaf_table) and max(leaf_table) < leaves
        ):
            raise ProtocolError("leaf out of range")
        overflow: List[int] = []
        block_list = list(range(len(leaf_table)))
        rng.shuffle(block_list)
        # Placement into an empty tree only ever fills the first empty slot
        # of each bucket, so per-bucket fill counts (heap order) stand in
        # for slot scans.
        shift = self.levels - 1
        slots = self._slots
        level_used = self.level_used
        n_buckets = (1 << self.levels) - 1
        fill = (
            bytearray(n_buckets) if max(self.z_per_level) < 256
            else [0] * n_buckets
        )
        active = [
            (level, z, self.offset[level], (1 << level) - 1, shift - level)
            for level, z in reversed(list(enumerate(self.z_per_level)))
            if z != 0
        ]
        for block in block_list:
            leaf = leaf_table[block]
            for level, z, start, first, level_shift in active:
                position = leaf >> level_shift
                count = fill[first + position]
                if count < z:
                    fill[first + position] = count + 1
                    slots[start + position * z + count] = block
                    level_used[level] += 1
                    break
            else:
                overflow.append(block)
        return overflow
