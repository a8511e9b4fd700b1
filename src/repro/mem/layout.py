"""Subtree-aware physical layout of the ORAM tree in DRAM.

Ren et al. observed that laying out the ORAM tree level-by-level destroys
DRAM row-buffer locality: consecutive levels of one path land in different
rows.  The *subtree layout* instead packs every k-level subtree contiguously
so that a path access touches one row per k levels.  The paper's Baseline
adopts this layout ("It also adopts the subtree layout to improve row buffer
hits"), so our DRAM model implements it faithfully, generalized to the
non-uniform per-level bucket sizes that IR-Alloc introduces.

Terminology used here:

* *bucket*: a tree node, identified by ``(level, position)`` with
  ``position`` in ``[0, 2**level)``, or by its heap index
  ``(1 << level) - 1 + position``.
* *slot*: one 64-byte block inside a bucket; bucket at level ``l`` has
  ``z_per_level[l]`` slots.
* *supernode*: a k-level subtree packed contiguously and row-aligned.
"""

from __future__ import annotations

from array import array
from typing import List, Sequence, Tuple

from ..config import DRAMConfig, ORAMConfig
from ..errors import ConfigError


#: fields of one level record in :attr:`TreeLayout.path_table`
PATH_RECORD_FIELDS = 6


class TreeLayout:
    """Maps ``(level, position, slot)`` tree coordinates to physical blocks.

    Only levels at or below ``oram.top_cached_levels`` are backed by memory;
    the cached top lives on chip (dedicated tree-top cache or S-Stash).
    Asking for the address of a cached-level slot is a programming error.
    """

    def __init__(
        self, oram: ORAMConfig, dram: DRAMConfig, base_row: int = 0
    ) -> None:
        self.oram = oram
        self.dram = dram
        self.base_row = base_row
        self.first_level = oram.top_cached_levels
        self.subtree_levels = self._pick_subtree_levels()
        self._build_tables()
        self._path_cache: dict = {}

    # -- construction -------------------------------------------------------
    def _pick_subtree_levels(self) -> int:
        """Largest k whose worst-case subtree fits in one DRAM row."""
        row_blocks = self.dram.row_blocks
        z_max = max(self.oram.z_per_level) if self.oram.z_per_level else 4
        z_max = max(z_max, 1)
        k = 1
        while ((1 << (k + 1)) - 1) * z_max <= row_blocks:
            k += 1
        return k

    def _build_tables(self) -> None:
        """Precompute per-superlevel slot offsets and row bases.

        Super level ``s`` groups tree levels
        ``[first_level + s*k, first_level + (s+1)*k)`` (clipped to the tree).
        Buckets at the same local depth share a bucket size, so one offset
        table per super level suffices.
        """
        oram, k = self.oram, self.subtree_levels
        depth = oram.levels - self.first_level
        if depth <= 0:
            raise ConfigError("layout requires at least one memory level")
        self.super_levels = (depth + k - 1) // k

        # slot offset of each local bucket (heap order) inside a supernode,
        # one table per super level.
        self.local_offsets: List[List[int]] = []
        self.supernode_slots: List[int] = []
        #: number of rows reserved per supernode of each super level
        self.supernode_rows: List[int] = []
        #: first row id of each super level's supernode array
        self.superlevel_row_base: List[int] = []

        row_blocks = self.dram.row_blocks
        row_cursor = self.base_row
        for s in range(self.super_levels):
            top = self.first_level + s * k
            local_depth = min(k, oram.levels - top)
            offsets: List[int] = []
            cursor = 0
            for r in range(local_depth):
                z = oram.z_per_level[top + r]
                for _ in range(1 << r):
                    offsets.append(cursor)
                    cursor += z
            self.local_offsets.append(offsets)
            self.supernode_slots.append(cursor)
            rows = max(1, -(-cursor // row_blocks))
            self.supernode_rows.append(rows)
            self.superlevel_row_base.append(row_cursor)
            # one supernode per bucket position at this super level's root
            row_cursor += rows * (1 << top)
        self.total_rows = row_cursor

        # The path table: one flat array('q') that path_addresses() and
        # the C kernels read.  Header ``n``, then one record per memory
        # level with z > 0, root first — (leaf shift, Z, subtree depth r,
        # supernode row base, rows per supernode, first) — then every
        # super level's local offsets.  ``first`` indexes this table at
        # the local offset of the level's first bucket in its supernode,
        # so the path to ``leaf`` (``position = leaf >> shift``) starts
        # this level at offset ``table[first + (position & mask)]`` of row
        # ``row_base + (position >> r) * rows``, with mask ``(1 << r) - 1``.
        memory_levels = [
            level for level in range(self.first_level, oram.levels)
            if oram.z_per_level[level]
        ]
        cursor = 1 + PATH_RECORD_FIELDS * len(memory_levels)
        offsets_start: List[int] = []
        for offsets in self.local_offsets:
            offsets_start.append(cursor)
            cursor += len(offsets)
        table = array("q", [len(memory_levels)])
        for level in memory_levels:
            s, r = divmod(level - self.first_level, k)
            table.extend((
                oram.levels - 1 - level,
                oram.z_per_level[level],
                r,
                self.superlevel_row_base[s],
                self.supernode_rows[s],
                offsets_start[s] + (1 << r) - 1,
            ))
        for offsets in self.local_offsets:
            table.extend(offsets)
        #: the path table above, shared with the C kernels
        self.path_table = table

    # -- queries -------------------------------------------------------------
    def slot_address(self, level: int, position: int, slot: int) -> int:
        """Physical block address of one tree slot.

        Returns ``row_id * row_blocks + offset`` so that callers (and the
        DRAM model) can recover the row with one integer division.
        """
        k = self.subtree_levels
        if level < self.first_level or level >= self.oram.levels:
            raise ConfigError(f"level {level} is not backed by memory")
        z = self.oram.z_per_level[level]
        if not 0 <= slot < z:
            raise ConfigError(f"slot {slot} out of range for Z={z}")
        rel = level - self.first_level
        s, r = divmod(rel, k)
        # The supernode at super level s covering this bucket:
        supernode_pos = position >> r
        local_pos = position & ((1 << r) - 1)
        local_index = (1 << r) - 1 + local_pos
        row = (
            self.superlevel_row_base[s]
            + supernode_pos * self.supernode_rows[s]
        )
        offset = self.local_offsets[s][local_index] + slot
        row_blocks = self.dram.row_blocks
        return (row + offset // row_blocks) * row_blocks + offset % row_blocks

    def bucket_addresses(self, level: int, position: int) -> List[int]:
        """Physical block addresses of every slot in a bucket."""
        z = self.oram.z_per_level[level]
        return [self.slot_address(level, position, s) for s in range(z)]

    def path_addresses(self, leaf: int) -> List[int]:
        """Physical addresses of all memory-backed slots on a path.

        Returned in root-to-leaf order; within the subtree layout this order
        is already monotone per supernode, giving the row-hit behaviour the
        subtree layout exists for.
        """
        cached = self._path_cache.get(leaf)
        if cached is not None:
            return cached
        row_blocks = self.dram.row_blocks
        table = self.path_table
        addrs: List[int] = []
        append = addrs.append
        for i in range(1, 1 + PATH_RECORD_FIELDS * table[0],
                       PATH_RECORD_FIELDS):
            shift, z, r, row_base, rows, first = (
                table[i:i + PATH_RECORD_FIELDS]
            )
            position = leaf >> shift
            offset = table[first + (position & ((1 << r) - 1))]
            row = row_base + (position >> r) * rows
            for slot in range(z):
                combined = offset + slot
                append(
                    (row + combined // row_blocks) * row_blocks
                    + combined % row_blocks
                )
        if len(self._path_cache) >= 1 << 16:
            self._path_cache.clear()
        self._path_cache[leaf] = addrs
        return addrs

    def capacity_blocks(self) -> int:
        """Total physical blocks reserved (including row-alignment padding)."""
        return (self.total_rows - self.base_row) * self.dram.row_blocks

    def end_row(self) -> int:
        """First row beyond this layout's region."""
        return self.total_rows


def path_positions(levels: int, leaf: int) -> Sequence[Tuple[int, int]]:
    """The ``(level, position)`` pairs of the path to ``leaf`` (root first)."""
    return [(level, leaf >> (levels - 1 - level)) for level in range(levels)]
