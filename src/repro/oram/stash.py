"""The fully associative on-chip stash (F-Stash in IR-ORAM terms).

The stash temporarily holds real blocks between a path read and subsequent
path writes.  Entries map block ID to the block's current leaf assignment;
as elsewhere, payloads are not simulated.

Besides the flat block -> leaf table, the stash maintains a *leaf-indexed*
secondary structure: blocks bucketed by a fixed-length prefix of their leaf
(the top :data:`Stash.PREFIX_LEVELS` bits of the path ID).  The write phase
of a path access needs every stash block grouped by the deepest level it
may occupy on the path being written — :meth:`path_pools` computes exactly
that grouping.  Blocks sharing the target prefix (the only candidates for
the deep levels) are resolved with one XOR/bit-length per block; all other
prefix buckets land in a shallow pool *wholesale*, because every block in a
bucket shares the same divergence level with the target path.  The cost is
proportional to the number of prefix buckets plus the path-eligible blocks,
not to a per-block tree query over the full stash.

Pool ordering is canonical: blocks appear in stash insertion order (the
order a plain dict scan would produce), tracked with per-entry sequence
numbers so the optimized grouping is bit-identical to the historical
full-scan implementation.  Prefix buckets are keyed by sequence number
(``{seq: block}``) so wholesale merges sort without a key function.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

from ..errors import ProtocolError, StashOverflowError
from ..obs import events as ev
from ..stats import Stats


class Stash:
    """Fully associative block buffer with occupancy tracking."""

    #: leaf-prefix length (in tree levels) of the secondary index
    PREFIX_LEVELS = 5

    def __init__(self, capacity: int, stats: Optional[Stats] = None) -> None:
        if capacity < 1:
            raise ProtocolError("stash capacity must be positive")
        self.capacity = capacity
        self.stats = stats if stats is not None else Stats()
        self._entries: Dict[int, int] = {}
        self.peak_occupancy = 0
        # -- leaf-prefix index (built by configure_path_index) -------------
        self._levels: Optional[int] = None
        self._prefix_shift = 0
        self._prefix_levels = 0
        #: prefix -> {insertion sequence number: block}
        self._by_prefix: Dict[int, Dict[int, int]] = {}
        #: block -> insertion sequence number
        self._seq: Dict[int, int] = {}
        self._next_seq = 0
        self._pools: List[List[int]] = []
        self._staging: List[List[Tuple[int, int]]] = []

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, block: int) -> bool:
        return block in self._entries

    # -- leaf-prefix index -------------------------------------------------
    def configure_path_index(self, levels: int) -> None:
        """Size the leaf-prefix index for a tree of ``levels`` levels.

        Must be called before :meth:`path_pools`; entries added earlier are
        re-indexed (in entry order, which is the canonical pool order).
        Leaf IDs carry ``levels - 1`` bits.
        """
        if levels < 2:
            raise ProtocolError("path index needs at least 2 tree levels")
        self._levels = levels
        self._prefix_levels = min(self.PREFIX_LEVELS, levels - 1)
        self._prefix_shift = (levels - 1) - self._prefix_levels
        self._pools = [[] for _ in range(levels)]
        self._staging = [[] for _ in range(levels)]
        self._by_prefix = {}
        self._seq = {}
        by_prefix = self._by_prefix
        seq_of = self._seq
        shift = self._prefix_shift
        seq = self._next_seq
        for block, leaf in self._entries.items():
            seq_of[block] = seq
            prefix = leaf >> shift
            bucket = by_prefix.get(prefix)
            if bucket is None:
                by_prefix[prefix] = bucket = {}
            bucket[seq] = block
            seq += 1
        self._next_seq = seq

    def _index_move(self, block: int, old_leaf: int, new_leaf: int) -> None:
        if self._levels is None:
            return
        shift = self._prefix_shift
        old_prefix = old_leaf >> shift
        new_prefix = new_leaf >> shift
        if old_prefix == new_prefix:
            return
        seq = self._seq[block]
        bucket = self._by_prefix[old_prefix]
        del bucket[seq]
        if not bucket:
            del self._by_prefix[old_prefix]
        target = self._by_prefix.get(new_prefix)
        if target is None:
            self._by_prefix[new_prefix] = target = {}
        target[seq] = block

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
        entries = self._entries
        old_leaf = entries.get(block)
        entries[block] = leaf
        if old_leaf is None:
            if self._levels is not None:
                seq = self._next_seq
                self._next_seq = seq + 1
                self._seq[block] = seq
                prefix = leaf >> self._prefix_shift
                bucket = self._by_prefix.get(prefix)
                if bucket is None:
                    self._by_prefix[prefix] = bucket = {}
                bucket[seq] = block
        elif old_leaf != leaf:
            self._index_move(block, old_leaf, leaf)

    def note_peak(self, now: Optional[int] = None) -> None:
        """Raise the high-water mark to the current occupancy.

        A new peak emits ``stash.hwm`` at ``now`` (default: the tracer's
        clock).
        """
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
            leaf = self._entries.pop(block)
        except KeyError:
            raise ProtocolError(f"block {block} not in stash") from None
        if self._levels is not None:
            seq = self._seq.pop(block)
            prefix = leaf >> self._prefix_shift
            bucket = self._by_prefix[prefix]
            del bucket[seq]
            if not bucket:
                del self._by_prefix[prefix]
        return leaf

    def leaf_of(self, block: int) -> int:
        try:
            return self._entries[block]
        except KeyError:
            raise ProtocolError(f"block {block} not in stash") from None

    def update_leaf(self, block: int, leaf: int) -> None:
        old_leaf = self._entries.get(block)
        if old_leaf is None:
            raise ProtocolError(f"block {block} not in stash")
        if old_leaf != leaf:
            self._entries[block] = leaf
            self._index_move(block, old_leaf, leaf)

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
    def path_pools(self, leaf: int) -> List[List[int]]:
        """Group every stash block by its deepest level on the path to ``leaf``.

        Returns a reused list ``pools`` with ``pools[d]`` holding the blocks
        whose deepest common level with the target path is ``d``, each pool
        in stash insertion order — exactly the grouping a full scan with
        ``tree.deepest_common_level`` per block would produce, but computed
        from the leaf-prefix index.  The C placement kernel groups the same
        dicts itself; this serves the pure-Python placement loop.
        """
        levels = self._levels
        if levels is None:
            raise ProtocolError("path index not configured")
        pools = self._pools
        for pool in pools:
            if pool:
                pool.clear()
        if not self._entries:
            return pools
        staging = self._staging
        entries = self._entries
        base = levels - 1
        prefix_levels = self._prefix_levels
        target_prefix = leaf >> self._prefix_shift
        touched: List[int] = []
        for prefix, bucket in self._by_prefix.items():
            if prefix == target_prefix:
                # Only these blocks can go below the prefix boundary; their
                # exact depth needs the full-leaf comparison.
                for seq, block in bucket.items():
                    depth = base - (leaf ^ entries[block]).bit_length()
                    group = staging[depth]
                    if not group:
                        touched.append(depth)
                    group.append((seq, block))
            else:
                # Every block in a diverging bucket shares one depth.
                depth = prefix_levels - (prefix ^ target_prefix).bit_length()
                group = staging[depth]
                if not group:
                    touched.append(depth)
                group.extend(bucket.items())
        for depth in touched:
            group = staging[depth]
            if len(group) > 1:
                group.sort()
            pools[depth][:] = [item[1] for item in group]
            group.clear()
        return pools
