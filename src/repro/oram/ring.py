"""Ring ORAM: permuted-slot buckets with single-block reads (Ren et al.,
USENIX Security'15), composed here as a second protocol family next to
the Freecursive Path ORAM main tree.

Where Path ORAM moves ``Z`` blocks per bucket on every path access, Ring
ORAM provisions each bucket with ``Z`` real plus ``S`` dummy slots under a
secret permutation and touches exactly **one slot per bucket** on a
ReadPath: the target's slot where the bucket holds the target, a
never-before-touched dummy slot everywhere else.  The responses XOR
together into a single returned block (modeled by the one-slot address
footprint plus the ``ring.xor_returns`` counter).  Three mechanisms keep
the permutation sound:

* a per-bucket **access counter** tracks touched slots; when it reaches
  ``S`` the bucket is **early-reshuffled** — read and rewritten whole, its
  real blocks re-permuted into fresh slots — as an extra bucket burst
  appended to the same path access;
* an **EvictPath** runs every ``A`` ReadPaths on a deterministic
  reverse-lexicographic leaf schedule (``bit_reverse(G)``), reading whole
  buckets into the ring stash and refilling them greedily bottom-up;
* slot choices are made only among never-touched dummy slots, so no slot
  is ever read twice between reshuffles (the invariant the conformance
  auditor checks).

Composition is the hybrid scheduler's
(:class:`~repro.oram.hybrid.HybridController`, shared with Rho): the ring
tree captures the hot working set behind the main Freecursive tree, issue
slots follow a fixed main:ring pattern with dummies of the matching kind,
blocks promote exclusively into the ring on main-tree reads, and evicted
blocks re-enter the main tree through the stash once their PosMap entry
is restored.

Integrity (the IRO composition): per-bucket MACs bound to trusted
on-chip epoch counters (:class:`~repro.oram.integrity.RingIntegrity`)
verify every bucket a ring path touches and re-MAC it after mutation;
a recovery hook can resynchronize a bucket instead of failing the run.
The main tree keeps the existing Merkle machinery
(:func:`~repro.oram.integrity.attach_integrity`), which wraps this
controller's inherited path operations unchanged.
"""

from __future__ import annotations

import random
from typing import Dict, Iterable, List, Optional, Set, Tuple

from .. import stats_keys as sk
from ..config import ORAMConfig, SystemConfig
from ..errors import ProtocolError
from ..mem.layout import TreeLayout
from ..stats import Stats
from .controller import SlotResult
from .hybrid import HybridController
from .stash import Stash
from .tree import EMPTY
from .types import PathType

#: real slots per ring bucket
RING_Z = 4
#: dummy slots per ring bucket (reshuffle threshold)
RING_S = 6
#: ReadPaths between scheduled EvictPaths (Ring ORAM's ``A``)
RING_EVICT_RATE = 4


def scaled_ring_levels(main_levels: int, llc_lines: int = 2048) -> int:
    """Ring-tree depth sized so its capacity dwarfs the LLC.

    Like Rho's small tree, the ring tree only pays off when it captures
    the post-LLC working set; its real-slot budget (half the Z slots)
    must exceed the LLC by a comfortable factor.  At the tiny preset
    (256-line LLC) this yields L=8; paper-scale LLCs deepen it.
    """
    return max(3, min(main_levels - 1, (2 * llc_lines).bit_length()))


def _bit_reverse(value: int, bits: int) -> int:
    """Reverse the low ``bits`` bits of ``value`` (EvictPath schedule)."""
    result = 0
    for _ in range(bits):
        result = (result << 1) | (value & 1)
        value >>= 1
    return result


class RingBucket:
    """One ring bucket: ``Z + S`` permuted slots plus on-chip metadata.

    ``slots`` is the off-chip (MAC-covered) content; ``touched`` (the set
    of slot indices read since the last reshuffle) and ``count`` live in
    the on-chip metadata the controller trusts.  ``count`` always equals
    ``len(touched)`` and stays strictly below ``S`` between path
    accesses — both audited invariants.
    """

    __slots__ = ("slots", "touched", "count")

    def __init__(self, capacity: int) -> None:
        self.slots: List[int] = [EMPTY] * capacity
        self.touched: Set[int] = set()
        self.count = 0

    def __getstate__(self):
        return (self.slots, self.touched, self.count)

    def __setstate__(self, state):
        self.slots, self.touched, self.count = state


class RingController(HybridController):
    """Two-tree controller: Freecursive main tree + a Ring ORAM hot tree."""

    TREE = "ring"
    PATHS_KEY = sk.PATHS_RING_TREE
    MAIN_ACCESSES = sk.RING_MAIN_ACCESSES
    MAIN_REINSERTS = sk.RING_MAIN_REINSERTS
    PROMOTIONS = sk.RING_PROMOTIONS
    EVICTIONS = sk.RING_EVICTIONS
    EXTRACTIONS = sk.RING_EXTRACTIONS
    HITS = sk.RING_HITS
    STASH_HITS = sk.RING_STASH_HITS
    DUMMIES = sk.RING_DUMMIES
    HIT_LEVEL = "ring-tree"
    STASH_HIT_LEVEL = "ring-stash"

    def __init__(
        self,
        config: SystemConfig,
        stats: Optional[Stats] = None,
        rng: Optional[random.Random] = None,
    ) -> None:
        super().__init__(config, stats, rng)
        levels = scaled_ring_levels(config.oram.levels, config.llc.lines)
        self.side_budget = RING_Z * ((1 << levels) - 1) // 2
        ring_oram = ORAMConfig(
            levels=levels,
            user_blocks=max(1, self.side_budget),
            z_per_level=(RING_Z + RING_S,) * levels,
            top_cached_levels=0,
            stash_capacity=config.oram.stash_capacity,
            eviction_threshold=config.oram.eviction_threshold,
            timing_protection=config.oram.timing_protection,
            issue_interval=config.oram.issue_interval,
        )
        self.ring_oram = ring_oram
        self.side_leaves = 1 << (levels - 1)
        #: (level, position) -> RingBucket, materialized on first touch
        self._ring_buckets: Dict[Tuple[int, int], RingBucket] = {}
        self.side_stash = Stash(ring_oram.stash_capacity, self.stats)
        self.ring_layout = TreeLayout(
            ring_oram, config.dram, base_row=self.layout.end_row()
        )
        #: ReadPaths issued since the last EvictPath (compared against A)
        self._ring_reads_since_evict = 0
        #: EvictPath counter G: leaf = bit_reverse(G mod leaves)
        self._evict_counter = 0
        #: per-bucket MAC layer (attach_ring_integrity); None in plain runs
        self.ring_integrity = None

    def _side_maintenance(self, now: int) -> Optional[SlotResult]:
        if (
            self.side_stash.over_threshold(self.ring_oram.eviction_threshold)
            or self._ring_reads_since_evict >= RING_EVICT_RATE
        ):
            return self._ring_evict_path(now)
        return None

    # ------------------------------------------------------------------
    # ring path machinery
    # ------------------------------------------------------------------
    def _ring_bucket(self, level: int, position: int) -> RingBucket:
        key = (level, position)
        bucket = self._ring_buckets.get(key)
        if bucket is None:
            bucket = RingBucket(RING_Z + RING_S)
            self._ring_buckets[key] = bucket
        return bucket

    def iter_ring_buckets(self) -> Iterable[Tuple[int, int, RingBucket]]:
        """Yield ``(level, position, bucket)`` for materialized buckets."""
        for (level, position), bucket in self._ring_buckets.items():
            yield level, position, bucket

    def leaf_spaces(self) -> Dict[int, int]:
        """Observed-size -> leaf-space map for the obliviousness checker.

        A ReadPath exposes one address per level plus one whole bucket
        per early-reshuffled bucket; an EvictPath exposes ``Z`` slots
        per bucket on its read phase.  All of those sizes draw leaves
        from the ring tree's leaf space, not the main tree's.  The main
        tree's own path size is excluded defensively so a size
        collision can never re-judge main-tree paths against the ring's
        leaf space.
        """
        levels = self.ring_oram.levels
        bucket = RING_Z + RING_S
        spaces = {RING_Z * levels: self.side_leaves}
        for reshuffled in range(levels + 1):
            spaces[levels + reshuffled * bucket] = self.side_leaves
        main_size = sum(
            self.oram.z_per_level[level]
            for level in range(self.oram.top_cached_levels, self.oram.levels)
        )
        spaces.pop(main_size, None)
        return spaces

    def _ring_verify(self, level: int, position: int, bucket: RingBucket):
        integrity = self.ring_integrity
        if integrity is not None:
            integrity.verify_or_recover(level, position, bucket.slots)

    def _ring_update(self, level: int, position: int, bucket: RingBucket):
        integrity = self.ring_integrity
        if integrity is not None:
            integrity.update_bucket(level, position, bucket.slots)

    def _side_path(
        self,
        leaf: int,
        now: int,
        path_type: PathType,
        target: Optional[int] = None,
        new_leaf: Optional[int] = None,
    ) -> SlotResult:
        """One ReadPath: a single slot per bucket, XOR-compressed return.

        Buckets whose access counter reaches ``S`` are early-reshuffled
        in the same issue slot: their whole bucket is appended to both
        the read and write footprint and their real blocks re-permute
        into fresh slots.
        """
        levels = self.ring_oram.levels
        read_addresses: List[int] = []
        write_addresses: List[int] = []
        path_buckets: List[Tuple[int, int, RingBucket]] = []
        found = False
        for level in range(levels):
            position = leaf >> (levels - 1 - level)
            bucket = self._ring_bucket(level, position)
            self._ring_verify(level, position, bucket)
            path_buckets.append((level, position, bucket))
            slots = bucket.slots
            if target is not None and not found and target in slots:
                slot = slots.index(target)
                slots[slot] = EMPTY  # invalidated: the XOR return owns it
                found = True
                mutated = True
            else:
                # Never re-read a touched slot: pick an untouched dummy.
                # count < S guarantees at least one exists (real slots
                # are never touched while valid).
                candidates = [
                    index
                    for index, occupant in enumerate(slots)
                    if occupant == EMPTY and index not in bucket.touched
                ]
                slot = self.rng.choice(candidates)
                mutated = False
            bucket.touched.add(slot)
            bucket.count += 1
            read_addresses.append(
                self.ring_layout.slot_address(level, position, slot)
            )
            if mutated:
                self._ring_update(level, position, bucket)
        if target is not None and not found:
            raise ProtocolError(f"block {target} absent from its ring path")
        if target is not None:
            self.stats.inc(sk.RING_XOR_RETURNS)
            if new_leaf is not None:
                self.side_stash.add(target, new_leaf)
        for level, position, bucket in path_buckets:
            if bucket.count >= RING_S:
                burst = self.ring_layout.bucket_addresses(level, position)
                read_addresses.extend(burst)
                write_addresses.extend(burst)
                self._ring_reshuffle(bucket)
                self._ring_update(level, position, bucket)
                self.stats.inc(sk.RING_EARLY_RESHUFFLES)
        self._ring_reads_since_evict += 1
        return self._side_burst(
            read_addresses, write_addresses, path_type, now, leaf
        )

    def _ring_reshuffle(self, bucket: RingBucket) -> None:
        """Re-permute a bucket's real blocks into fresh slots in place."""
        slots = bucket.slots
        real = [block for block in slots if block != EMPTY]
        fresh = [EMPTY] * len(slots)
        for block, slot in zip(real, self.rng.sample(range(len(slots)), len(real))):
            fresh[slot] = block
        slots[:] = fresh
        bucket.touched.clear()
        bucket.count = 0

    def _ring_evict_path(self, now: int) -> SlotResult:
        """EvictPath on the reverse-lexicographic schedule.

        The read phase touches exactly ``Z`` permuted slots per bucket
        along ``bit_reverse(G)`` — the real slots, padded with
        randomly-chosen empties to the fixed shape (the permutation is
        what lets the controller pull only the real blocks without
        revealing which logical blocks they are).  The write phase
        rewrites each whole bucket, greedily refilled bottom-up with at
        most ``Z`` real blocks, freshly permuted.
        """
        levels = self.ring_oram.levels
        leaf = _bit_reverse(self._evict_counter % self.side_leaves, levels - 1)
        self._evict_counter += 1
        self._ring_reads_since_evict = 0
        read_addresses: List[int] = []
        write_addresses: List[int] = []
        path_buckets: List[Tuple[int, int, RingBucket]] = []
        for level in range(levels):
            position = leaf >> (levels - 1 - level)
            bucket = self._ring_bucket(level, position)
            self._ring_verify(level, position, bucket)
            path_buckets.append((level, position, bucket))
            read_slots = [
                index
                for index, block in enumerate(bucket.slots)
                if block != EMPTY
            ]
            pad = [
                index
                for index, block in enumerate(bucket.slots)
                if block == EMPTY
            ]
            read_slots.extend(
                self.rng.sample(pad, RING_Z - len(read_slots))
            )
            for slot in read_slots:
                read_addresses.append(
                    self.ring_layout.slot_address(level, position, slot)
                )
            write_addresses.extend(
                self.ring_layout.bucket_addresses(level, position)
            )
            for index, block in enumerate(bucket.slots):
                if block == EMPTY:
                    continue
                if block not in self.side_map:
                    raise ProtocolError(
                        f"block {block} missing from the ring map"
                    )
                self.side_stash.add(block, self.side_map[block])
                bucket.slots[index] = EMPTY
            bucket.touched.clear()
            bucket.count = 0
        pools = self.side_stash.path_pools(leaf, levels)
        pool: List[int] = []
        for level in range(levels - 1, -1, -1):
            pool.extend(pools[level])
            if not pool:
                continue
            _, _, bucket = path_buckets[level]
            empties = [
                index
                for index, occupant in enumerate(bucket.slots)
                if occupant == EMPTY
            ]
            for _ in range(min(RING_Z, len(pool))):
                block = pool.pop()
                slot = empties.pop(self.rng.randrange(len(empties)))
                bucket.slots[slot] = block
                self.side_stash.remove(block)
        for level, position, bucket in path_buckets:
            self._ring_update(level, position, bucket)
        self.stats.inc(sk.RING_EVICT_PATHS)
        result = self._side_burst(
            read_addresses, write_addresses, PathType.EVICTION, now, leaf
        )
        if self.oram.timing_protection:
            # The EvictPath slot has a deterministic public cost of two
            # issue intervals: its fine-grained service time depends on
            # DRAM bank state (and therefore on recent program
            # behaviour), so the next issue is pinned to a fixed
            # boundary rather than the data-dependent finish.
            result.finish_write = max(
                result.finish_write, now + 2 * self.oram.issue_interval
            )
        return result
