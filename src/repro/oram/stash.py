"""The fully associative on-chip stash (F-Stash in IR-ORAM terms).

The stash temporarily holds real blocks between a path read and subsequent
path writes.  Entries map block ID to the block's current leaf assignment;
as elsewhere, payloads are not simulated.

Its one structure is a flat ``array('q')`` slab that the Python code and
the C kernels index alike.  Path ORAM keeps the stash to tens of blocks
(Stefanov et al.), so a short array scanned linearly serves it better than
a hash table.  The slab holds a header (:data:`USED`, :data:`LIVE`,
:data:`PEAK`), then a block region and a leaf region of equal length: entry
``i`` is block ``slab[HEADER + i]`` with leaf ``slab[HEADER + slots + i]``.
Entries sit in insertion order, which is the canonical pool order of the
write phase, with the semantics of a ``dict``: a block keeps its place while
its leaf changes and moves to the end when it leaves and re-enters.  A
removed entry leaves a :data:`TOMBSTONE` block in place; :meth:`compact`
closes the gaps without reordering, after every write phase and whenever
the slab runs out of room.  The slab grows (:meth:`reserve`) with the
stash, never with the namespace.

The write phase groups every stash block by the deepest level it may
occupy on the path being written (:meth:`path_pools`) with one in-order
scan and one XOR/bit-length per block; the C kernels group the same slab
the same way.
"""

from __future__ import annotations

from array import array
from typing import Collection, Iterator, List, Optional, Sequence, Tuple

from ..errors import ProtocolError, StashOverflowError
from ..obs import events as ev
from ..stats import Stats

#: Header fields: entries in use (tombstones included), live entries, and
#: the occupancy high-water mark.
USED, LIVE, PEAK = range(3)
HEADER = 3
#: The block of a removed entry.
TOMBSTONE = -1
#: Entries a new slab has room for.
MIN_SLOTS = 8


class Stash:
    """Fully associative block buffer with occupancy tracking."""

    def __init__(self, capacity: int, stats: Optional[Stats] = None) -> None:
        if capacity < 1:
            raise ProtocolError("stash capacity must be positive")
        self.capacity = capacity
        self.stats = stats if stats is not None else Stats()
        #: the header, the block region and the leaf region; resized in
        #: place only, since a kernel state holds this very object
        self._slab = array("q", bytes(8 * (HEADER + 2 * MIN_SLOTS)))

    def __len__(self) -> int:
        return self._slab[LIVE]

    def __contains__(self, block: int) -> bool:
        return self._find(block) >= 0

    @property
    def peak_occupancy(self) -> int:
        return self._slab[PEAK]

    @peak_occupancy.setter
    def peak_occupancy(self, value: int) -> None:
        self._slab[PEAK] = value

    def _slots(self) -> int:
        """Entries the slab has room for."""
        return (len(self._slab) - HEADER) >> 1

    def _find(self, block: int) -> int:
        """The slab index of ``block``'s entry, or -1."""
        if block < 0:
            return -1
        slab = self._slab
        try:
            return slab.index(block, HEADER, HEADER + slab[USED])
        except ValueError:
            return -1

    def _at(self, block: int) -> int:
        index = self._find(block)
        if index < 0:
            raise ProtocolError(f"block {block} not in stash")
        return index

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
        occupancy = self._slab[LIVE]
        if enforce_capacity and occupancy > self.capacity:
            raise StashOverflowError(
                f"stash holds {occupancy} blocks > capacity {self.capacity}"
            )

    def insert(self, block: int, leaf: int) -> None:
        """Insert or update a block's stash entry, without peak tracking."""
        index = self._find(block)
        if index >= 0:
            self._slab[index + self._slots()] = leaf
        else:
            self.extend((block,), (leaf,))

    def extend(self, blocks: Sequence[int], leaves: Sequence[int]) -> None:
        """Append entries for blocks known to be absent, in order.

        A path's read phase moves every block it reads in this way (the
        tree and the stash never hold the same block) and then calls
        :meth:`note_peak` once, as the C read phase does.
        """
        count = len(blocks)
        if count and min(blocks) < 0:
            raise ProtocolError(f"block {min(blocks)} cannot enter the stash")
        slab = self._slab
        if self._slots() - slab[USED] < count:
            self.reserve(count)
        used, leaf_base = slab[USED], HEADER + self._slots()
        slab[HEADER + used:HEADER + used + count] = array("q", blocks)
        slab[leaf_base + used:leaf_base + used + count] = array("q", leaves)
        slab[USED] = used + count
        slab[LIVE] += count

    def note_peak(
        self, now: Optional[int] = None, occupancy: Optional[int] = None
    ) -> None:
        """Raise the high-water mark to ``occupancy`` (default: the
        current one; a kernel path access reports its post-read value).

        A new peak emits ``stash.hwm`` at ``now`` (default: the tracer's
        clock).
        """
        slab = self._slab
        if occupancy is None:
            occupancy = slab[LIVE]
        if occupancy > slab[PEAK]:
            slab[PEAK] = occupancy
            tracer = self.stats.tracer
            if tracer is not None:
                tracer.emit(
                    ev.STASH_HWM,
                    tracer.now if now is None else now,
                    occupancy=occupancy,
                )

    def remove(self, block: int) -> int:
        """Remove a block, returning its leaf; its entry becomes a
        tombstone until the next :meth:`compact`."""
        index = self._at(block)
        slab = self._slab
        slab[index] = TOMBSTONE
        slab[LIVE] -= 1
        return slab[index + self._slots()]

    def leaf_of(self, block: int) -> int:
        return self._slab[self._at(block) + self._slots()]

    def update_leaf(self, block: int, leaf: int) -> None:
        self._slab[self._at(block) + self._slots()] = leaf

    def _used(self) -> Iterator[Tuple[int, int]]:
        """``(block, leaf)`` of every entry in use, tombstones included,
        read from copies of the two regions."""
        slab = self._slab
        used = slab[USED]
        leaves = HEADER + self._slots()
        return zip(slab[HEADER:HEADER + used], slab[leaves:leaves + used])

    def items(self) -> Iterator[Tuple[int, int]]:
        return (entry for entry in self._used() if entry[0] != TOMBSTONE)

    def blocks(self) -> List[int]:
        slab = self._slab
        return [
            block for block in slab[HEADER:HEADER + slab[USED]]
            if block != TOMBSTONE
        ]

    def over_threshold(self, threshold: int) -> bool:
        return self._slab[LIVE] > threshold

    def occupancy_excess(self) -> int:
        """Blocks beyond the hard capacity (0 when within bounds)."""
        return max(0, self._slab[LIVE] - self.capacity)

    # -- slab upkeep --------------------------------------------------------
    def compact(self, drop: Collection[int] = ()) -> None:
        """Drop every tombstone, and the entries of the blocks in ``drop``
        (all present), keeping the rest in order.  The write phase drops
        the blocks it placed this way, in one pass."""
        slab = self._slab
        used, live = slab[USED], slab[LIVE]
        if used == live and not drop:
            return
        gone = set(drop)
        kept = [
            entry for entry in self._used()
            if entry[0] != TOMBSTONE and entry[0] not in gone
        ]
        if live - len(kept) != len(gone):
            raise ProtocolError("a dropped block is not in the stash")
        leaves = HEADER + self._slots()
        slab[HEADER:HEADER + len(kept)] = array(
            "q", [block for block, _ in kept]
        )
        slab[leaves:leaves + len(kept)] = array("q", [leaf for _, leaf in kept])
        slab[USED] = slab[LIVE] = len(kept)

    def reserve(self, room: int) -> None:
        """Make room for ``room`` more entries: compact, then grow the slab
        in place (at least doubling it) if that is not enough.  The C
        kernels call this between paths, never in the middle of one."""
        self.compact()
        slab = self._slab
        used, slots = slab[USED], self._slots()
        if slots - used >= room:
            return
        grown = max(2 * slots, used + room)
        leaves = slab[HEADER + slots:HEADER + slots + used]
        slab.frombytes(bytes(16 * (grown - slots)))
        slab[HEADER + grown:HEADER + grown + used] = leaves

    # -- write-phase candidate grouping -------------------------------------
    def path_pools(self, leaf: int, levels: int) -> List[List[int]]:
        """Group every stash block by its deepest level on the path to ``leaf``.

        Returns ``pools`` with ``pools[d]`` holding the blocks whose deepest
        common level with the target path of a ``levels``-level tree is
        ``d``, each pool in stash insertion order — the grouping a full
        scan with ``tree.deepest_common_level`` per block produces.  The C
        placement kernel groups the same slab itself; this serves the
        pure-Python placement loop.
        """
        pools: List[List[int]] = [[] for _ in range(levels)]
        base = levels - 1
        for block, block_leaf in self._used():
            if block != TOMBSTONE:
                pools[base - (leaf ^ block_leaf).bit_length()].append(block)
        return pools
