"""Pyramid: a simplified hierarchical-ORAM baseline (Goldreich-Ostrovsky
lineage, as revisited for trusted processors by the Pyramid line of work).

Where Rho pairs the main Path ORAM tree with a second *tree*, Pyramid
pairs it with a small *hierarchy of levels*: level ``i`` holds
``base << i`` buckets of :data:`BUCKET_SLOTS` blocks each.  A lookup probes
one bucket per level (the real bucket on the level holding the block,
uniformly random buckets everywhere else), and a periodic *oblivious
reshuffle* rewrites the entire hierarchy — every bucket of every level is
read and written back in one fixed burst — redistributing blocks across
levels by recency and assigning every kept block a fresh random bucket.

The simplifications relative to a faithful hierarchical ORAM are timing-
model ones, not security ones:

* buckets are on-chip metadata (``side_map``); the DRAM model charges
  for the probe and reshuffle bursts, but bucket contents are not stored
  off chip, so hashing/cuckoo details are abstracted away;
* a probed block is immediately reassigned a fresh uniform level-0
  bucket, so no stored bucket is ever probed twice — the probe address
  stream is uniform i.i.d., which is the property the distinguisher
  harness (:mod:`repro.validate.distinguish`) checks;
* reshuffles trigger on a fixed count of pyramid issue slots (never on
  occupancy or request contents), so their timing is data-independent.

Scheduling is the hybrid scheduler's
(:class:`~repro.oram.hybrid.HybridController`, shared with Rho and Ring):
issue slots alternate in a fixed main:pyramid pattern with dummies
filling empty slots, blocks promote exclusively into the pyramid on
main-tree reads, and spilled blocks re-enter the main tree through the
stash after their PosMap entry is restored.  Custody differs from Rho's:
there is no side stash and no extraction queue, a block's custody entry
is its ``(level, bucket)``, and a promotion over budget spills the
oldest block at once.
"""

from __future__ import annotations

import random
from typing import List, Optional, Tuple

from .. import stats_keys as sk
from ..config import SystemConfig
from ..stats import Stats
from .controller import SlotResult
from .hybrid import HybridController
from .types import PathType, Request, RequestKind

#: levels of the hierarchy
PYRAMID_LEVELS = 3
#: blocks per bucket
BUCKET_SLOTS = 4
#: pyramid issue slots between whole-hierarchy reshuffles
RESHUFFLE_PERIOD = 64


def scaled_base_buckets(main_levels: int) -> int:
    """Level-0 bucket count, scaled with the main tree's depth.

    Sized so that the pyramid's block budget (half its slots) captures a
    useful hot set at every preset: 8 buckets at the tiny config's L=9,
    16 at the scaled default, 256 at paper scale.
    """
    return 1 << max(3, main_levels // 3)


class PyramidController(HybridController):
    """Main Path ORAM tree plus a small reshuffled bucket hierarchy.

    ``side_map`` maps a block to its ``(level, bucket)``; its insertion
    order is recency order (oldest first), doubling as the spill policy.
    """

    TREE = "pyramid"
    PATHS_KEY = sk.PATHS_PYRAMID
    MAIN_ACCESSES = sk.PYRAMID_MAIN_ACCESSES
    MAIN_REINSERTS = sk.PYRAMID_MAIN_REINSERTS
    PROMOTIONS = sk.PYRAMID_PROMOTIONS
    EVICTIONS = sk.PYRAMID_SPILLS
    HITS = sk.PYRAMID_HITS
    DUMMIES = sk.PYRAMID_PROBE_DUMMIES
    HIT_LEVEL = "pyramid"

    def __init__(
        self,
        config: SystemConfig,
        stats: Optional[Stats] = None,
        rng: Optional[random.Random] = None,
    ) -> None:
        super().__init__(config, stats, rng)
        base = scaled_base_buckets(config.oram.levels)
        self.level_buckets = [base << i for i in range(PYRAMID_LEVELS)]
        #: blocks each level may hold (half its slots, Path-ORAM style)
        self.level_budget = [
            buckets * BUCKET_SLOTS // 2 for buckets in self.level_buckets
        ]
        self.side_budget = sum(self.level_budget)

        # Physical layout: each level is a contiguous, row-aligned block
        # region placed after the main tree (cf. Rho's small_layout).
        row_blocks = config.dram.row_blocks
        row_cursor = self.layout.end_row()
        self._level_base: List[int] = []
        for buckets in self.level_buckets:
            self._level_base.append(row_cursor * row_blocks)
            blocks = buckets * BUCKET_SLOTS
            row_cursor += -(-blocks // row_blocks)
        #: every slot address of every level — the reshuffle burst
        self._region_addresses: List[int] = []
        for level, buckets in enumerate(self.level_buckets):
            start = self._level_base[level]
            self._region_addresses.extend(
                range(start, start + buckets * BUCKET_SLOTS)
            )
        self._reshuffle_countdown = RESHUFFLE_PERIOD

    def _promote(self, block: int) -> None:
        """Move a freshly extracted block into the pyramid's level 0,
        spilling the oldest blocks beyond the budget."""
        self.side_map[block] = (
            0,
            self.rng.randrange(self.level_buckets[0]),
        )
        self.stats.inc(self.PROMOTIONS)
        while len(self.side_map) > self.side_budget:
            self._release(next(iter(self.side_map)))
            self.stats.inc(self.EVICTIONS)

    # ------------------------------------------------------------------
    # pyramid slot
    # ------------------------------------------------------------------
    def _side_slot(self, now: int) -> Optional[SlotResult]:
        if self._reshuffle_countdown <= 0:
            return self._reshuffle(now)
        result = self._probe_serve(now)
        if result is not None:
            self._reshuffle_countdown -= 1
        return result

    def _probe_serve(self, now: int) -> Optional[SlotResult]:
        request = self._first_request_needing_side(now)
        if request is None:
            return None
        self.queue.remove(request)
        block = request.block
        residence = self.side_map[block]
        result = self._probe_path(now, PathType.DATA, hit=residence)
        # Served blocks move to level 0 under a *fresh* uniform bucket, so
        # a stored bucket is probed at most once (no repeat-probe leak);
        # re-insertion at the OrderedDict end marks the block most recent.
        del self.side_map[block]
        self.side_map[block] = (
            0,
            self.rng.randrange(self.level_buckets[0]),
        )
        request.completion = result.finish_read
        result.completions.append(request)
        self.stats.inc(self.HITS)
        if request.kind is RequestKind.READ:
            self.stats.bump(sk.HIT_LEVEL, self.HIT_LEVEL)
        return result

    def _side_dummy(self, now: int) -> SlotResult:
        # Only reached when _side_slot found no real probe work, which
        # implies the reshuffle countdown was still positive.
        self._reshuffle_countdown -= 1
        self.stats.inc(self.DUMMIES)
        return self._probe_path(now, PathType.DUMMY)

    # ------------------------------------------------------------------
    # burst machinery
    # ------------------------------------------------------------------
    def _probe_path(
        self,
        now: int,
        path_type: PathType,
        hit: Optional[Tuple[int, int]] = None,
    ) -> SlotResult:
        """One lookup burst: one bucket per pyramid level, read + write."""
        addresses: List[int] = []
        top_bucket = 0
        for level, buckets in enumerate(self.level_buckets):
            if hit is not None and hit[0] == level:
                bucket = hit[1]
            else:
                bucket = self.rng.randrange(buckets)
            if level == 0:
                top_bucket = bucket
            start = self._level_base[level] + bucket * BUCKET_SLOTS
            addresses.extend(range(start, start + BUCKET_SLOTS))
        return self._side_burst(
            addresses, addresses, path_type, now, top_bucket
        )

    def _reshuffle(self, now: int) -> SlotResult:
        """Periodic oblivious reshuffle: rewrite the whole hierarchy.

        Externally one fixed burst over every bucket of every level,
        independent of occupancy.  Internally, blocks redistribute across
        levels newest-first (level 0 gets the most recent) under fresh
        uniform buckets, keeping their recency order.  Promotion keeps the
        pyramid within its budget, so every block finds a level.
        """
        self._reshuffle_countdown = RESHUFFLE_PERIOD
        level = 0
        used = 0
        for block in reversed(list(self.side_map)):  # newest first
            while used >= self.level_budget[level]:
                level += 1
                used = 0
            self.side_map[block] = (
                level,
                self.rng.randrange(self.level_buckets[level]),
            )
            used += 1
        self.stats.inc(sk.PYRAMID_RESHUFFLES)
        return self._side_burst(
            self._region_addresses,
            self._region_addresses,
            PathType.EVICTION,
            now,
            leaf=0,
        )
