"""The fully associative on-chip stash (F-Stash in IR-ORAM terms).

The stash temporarily holds real blocks between a path read and subsequent
path writes.  Entries map block ID to the block's current leaf assignment;
as elsewhere, payloads are not simulated.

The ``block -> leaf`` dict is the stash's only structure.  Its insertion
order is the canonical pool order of the write phase: a block keeps its
position while its leaf changes and moves to the end when it leaves and
re-enters.  The write phase groups every stash block by the deepest level
it may occupy on the path being written (:meth:`path_pools`) with one
in-order scan of that dict and one XOR/bit-length per block; the C kernels
group the same dict the same way.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

from ..errors import ProtocolError, StashOverflowError
from ..obs import events as ev
from ..stats import Stats


class Stash:
    """Fully associative block buffer with occupancy tracking."""

    def __init__(self, capacity: int, stats: Optional[Stats] = None) -> None:
        if capacity < 1:
            raise ProtocolError("stash capacity must be positive")
        self.capacity = capacity
        self.stats = stats if stats is not None else Stats()
        self._entries: Dict[int, int] = {}
        self.peak_occupancy = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, block: int) -> bool:
        return block in self._entries

    # -- core API ----------------------------------------------------------
    def add(self, block: int, leaf: int, enforce_capacity: bool = False) -> None:
        """Insert or update a block's stash entry and track the peak.

        With ``enforce_capacity`` the classic Path ORAM failure mode is
        modeled: exceeding the hard capacity raises
        :class:`StashOverflowError`.  The controller normally leaves this
        off and relies on background eviction instead (Ren et al.).
        """
        self.insert(block, leaf)
        self.note_peak()
        occupancy = len(self._entries)
        if enforce_capacity and occupancy > self.capacity:
            raise StashOverflowError(
                f"stash holds {occupancy} blocks > capacity {self.capacity}"
            )

    def insert(self, block: int, leaf: int) -> None:
        """Insert or update a block's stash entry, without peak tracking.

        A path's read phase inserts every block it reads this way and
        then calls :meth:`note_peak` once, as the C read phase does.
        """
        self._entries[block] = leaf

    def note_peak(
        self, now: Optional[int] = None, occupancy: Optional[int] = None
    ) -> None:
        """Raise the high-water mark to ``occupancy`` (default: the
        current one; a kernel path access reports its post-read value).

        A new peak emits ``stash.hwm`` at ``now`` (default: the tracer's
        clock).
        """
        if occupancy is None:
            occupancy = len(self._entries)
        if occupancy > self.peak_occupancy:
            self.peak_occupancy = occupancy
            tracer = self.stats.tracer
            if tracer is not None:
                tracer.emit(
                    ev.STASH_HWM,
                    tracer.now if now is None else now,
                    occupancy=occupancy,
                )

    def remove(self, block: int) -> int:
        """Remove a block, returning its leaf."""
        try:
            return self._entries.pop(block)
        except KeyError:
            raise ProtocolError(f"block {block} not in stash") from None

    def leaf_of(self, block: int) -> int:
        try:
            return self._entries[block]
        except KeyError:
            raise ProtocolError(f"block {block} not in stash") from None

    def update_leaf(self, block: int, leaf: int) -> None:
        if block not in self._entries:
            raise ProtocolError(f"block {block} not in stash")
        self._entries[block] = leaf

    def items(self) -> Iterator[Tuple[int, int]]:
        return iter(self._entries.items())

    def blocks(self) -> List[int]:
        return list(self._entries)

    def over_threshold(self, threshold: int) -> bool:
        return len(self._entries) > threshold

    def occupancy_excess(self) -> int:
        """Blocks beyond the hard capacity (0 when within bounds)."""
        return max(0, len(self._entries) - self.capacity)

    # -- write-phase candidate grouping -------------------------------------
    def path_pools(self, leaf: int, levels: int) -> List[List[int]]:
        """Group every stash block by its deepest level on the path to ``leaf``.

        Returns ``pools`` with ``pools[d]`` holding the blocks whose deepest
        common level with the target path of a ``levels``-level tree is
        ``d``, each pool in stash insertion order — the grouping a full
        scan with ``tree.deepest_common_level`` per block produces.  The C
        placement kernel groups the same dict itself; this serves the
        pure-Python placement loop.
        """
        pools: List[List[int]] = [[] for _ in range(levels)]
        base = levels - 1
        for block, block_leaf in self._entries.items():
            pools[base - (leaf ^ block_leaf).bit_length()].append(block)
        return pools
