"""The position map: block-to-leaf assignments for the merged namespace.

Logically this is three recursive tables (Freecursive); physically we hold
one flat ``array('q')`` of leaf assignments for every block in the namespace
(the C kernels read it through the buffer protocol) — the
*content* of PosMap1/2/3 — while the *access cost* of consulting the
mappings is modeled by the PLB and the controller's recursion (fetching
PosMap1/PosMap2 blocks through full ORAM path accesses).

The map also tracks LLC-D's "delayed remapping": a block's mapping can be
discarded (the block leaves the tree and lives only in the LLC) and later
re-established when the LLC evicts it.
"""

from __future__ import annotations

import random
from array import array

from ..errors import ProtocolError
from .types import Namespace

#: Sentinel leaf meaning "mapping discarded" (LLC-D delayed remapping).
UNMAPPED = -1


class PositionMap:
    """Leaf assignments plus remap bookkeeping."""

    def __init__(
        self, namespace: Namespace, leaves: int, rng: random.Random,
        native=None,
    ) -> None:
        """Draw every block's leaf, block 0 first.  ``native`` (the C
        kernel module, for a plain ``random.Random`` only) draws the same
        leaves with the same RNG draws in ``draw_leaves``."""
        self.namespace = namespace
        self.leaves = leaves
        self._rng = rng
        n = namespace.total_blocks
        if native is not None:
            self._leaf_of = native.draw_leaves(n, leaves, rng)
        else:
            self._leaf_of = array(
                "q", (rng.randrange(leaves) for _ in range(n))
            )
        self.remap_count = 0

    def leaf_of(self, block: int) -> int:
        leaf = self._leaf_of[block]
        if leaf == UNMAPPED:
            raise ProtocolError(f"block {block} has no mapping (unmapped)")
        return leaf

    def is_mapped(self, block: int) -> bool:
        return self._leaf_of[block] != UNMAPPED

    def remap(self, block: int) -> int:
        """Assign a fresh uniformly random leaf; return it."""
        leaf = self._rng.randrange(self.leaves)
        self._leaf_of[block] = leaf
        self.remap_count += 1
        return leaf

    def discard(self, block: int) -> None:
        """LLC-D: drop the mapping while the block lives in the LLC."""
        self._leaf_of[block] = UNMAPPED

    def restore(self, block: int) -> int:
        """LLC-D: re-establish a mapping for a block returning to the tree."""
        if self._leaf_of[block] != UNMAPPED:
            raise ProtocolError(f"block {block} is already mapped")
        return self.remap(block)
