"""Pyramid: a simplified hierarchical-ORAM baseline (Goldreich-Ostrovsky
lineage, as revisited for trusted processors by the Pyramid line of work).

Where Rho pairs the main Path ORAM tree with a second *tree*, Pyramid
pairs it with a small *hierarchy of levels*: level ``i`` holds
``base << i`` buckets of ``bucket_slots`` blocks each.  A lookup probes
one bucket per level (the real bucket on the level holding the block,
uniformly random buckets everywhere else), and a periodic *oblivious
reshuffle* rewrites the entire hierarchy — every bucket of every level is
read and written back in one fixed burst — redistributing blocks across
levels by recency and assigning every kept block a fresh random bucket.

The simplifications relative to a faithful hierarchical ORAM are timing-
model ones, not security ones:

* buckets are on-chip metadata (``pyramid_map``); the DRAM model charges
  for the probe and reshuffle bursts, but bucket contents are not stored
  off chip, so hashing/cuckoo details are abstracted away;
* a probed block is immediately reassigned a fresh uniform level-0
  bucket, so no stored bucket is ever probed twice — the probe address
  stream is uniform i.i.d., which is the property the distinguisher
  harness (:mod:`repro.validate.distinguish`) checks;
* reshuffles trigger on a fixed count of pyramid issue slots (never on
  occupancy or request contents), so their timing is data-independent.

Scheduling mirrors :class:`~repro.oram.rho.RhoController`: issue slots
alternate in a fixed main:pyramid pattern with dummies filling empty
slots, blocks promote exclusively into the pyramid on main-tree reads,
and evicted blocks re-enter the main tree through the stash after their
PosMap entry is restored.
"""

from __future__ import annotations

import random
from collections import OrderedDict, deque
from typing import Deque, List, Optional, Tuple

from .. import stats_keys as sk
from ..config import SystemConfig
from ..errors import ProtocolError
from ..obs import events as ev
from ..stats import Stats
from .controller import PathORAMController, SlotResult
from .types import PathAccessRecord, PathType, Request, RequestKind


def scaled_base_buckets(main_levels: int) -> int:
    """Level-0 bucket count, scaled with the main tree's depth.

    Sized so that the pyramid's block budget (half its slots) captures a
    useful hot set at every preset: 8 buckets at the tiny config's L=9,
    16 at the scaled default, 256 at paper scale.
    """
    return 1 << max(3, main_levels // 3)


class PyramidController(PathORAMController):
    """Main Path ORAM tree plus a small reshuffled bucket hierarchy."""

    def __init__(
        self,
        config: SystemConfig,
        stats: Optional[Stats] = None,
        rng: Optional[random.Random] = None,
        pyramid_levels: int = 3,
        bucket_slots: int = 4,
        base_buckets: Optional[int] = None,
        probe_per_main: int = 2,
        reshuffle_period: int = 64,
    ) -> None:
        super().__init__(config, stats, rng)
        base = base_buckets or scaled_base_buckets(config.oram.levels)
        self.level_buckets = [base << i for i in range(pyramid_levels)]
        self.bucket_slots = bucket_slots
        #: blocks each level may hold (half its slots, Path-ORAM style)
        self.level_budget = [
            buckets * bucket_slots // 2 for buckets in self.level_buckets
        ]
        self.total_budget = sum(self.level_budget)

        # Physical layout: each level is a contiguous, row-aligned block
        # region placed after the main tree (cf. Rho's small_layout).
        row_blocks = config.dram.row_blocks
        row_cursor = self.layout.end_row()
        self._level_base: List[int] = []
        for buckets in self.level_buckets:
            self._level_base.append(row_cursor * row_blocks)
            blocks = buckets * bucket_slots
            row_cursor += -(-blocks // row_blocks)
        self.pyramid_end_row = row_cursor
        #: every slot address of every level — the reshuffle burst
        self._region_addresses: List[int] = []
        for level, buckets in enumerate(self.level_buckets):
            start = self._level_base[level]
            self._region_addresses.extend(
                range(start, start + buckets * bucket_slots)
            )

        #: on-chip custody map: block -> (level, bucket); insertion order
        #: is recency order (oldest first), doubling as the spill policy
        self.pyramid_map: "OrderedDict[int, Tuple[int, int]]" = OrderedDict()
        self.probe_per_main = probe_per_main
        self._pattern_pos = 0
        self.reshuffle_period = reshuffle_period
        self._reshuffle_countdown = reshuffle_period
        #: blocks spilled from the pyramid awaiting main re-insertion
        self.main_insert_queue: Deque[int] = deque()
        self._pending_main_insert: set = set()

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------
    def has_any_real_work(self) -> bool:
        return super().has_any_real_work() or bool(self.main_insert_queue)

    def step(self, now: int, allow_dummy: bool = True) -> Optional[SlotResult]:
        self._drain_posmap_reinserts()
        completions = self._drain_instant(now)
        completions += self._drain_main_inserts(now)

        enforce_pattern = allow_dummy and self.oram.timing_protection
        slot_is_main = self._pattern_pos % (self.probe_per_main + 1) == 0

        result: Optional[SlotResult]
        if enforce_pattern:
            body = (
                self._main_slot(now) if slot_is_main else self._pyramid_slot(now)
            )
            if body is None:
                body = (
                    self.dummy_path(now)
                    if slot_is_main
                    else self._probe_dummy(now)
                )
            result = body
        else:
            result = self._main_slot(now) or self._pyramid_slot(now)

        if result is not None and result.issued_path:
            self._pattern_pos += 1
        if result is not None:
            result.completions = completions + result.completions
        elif completions:
            result = SlotResult(False, None, now, now, now, completions)
        else:
            return None
        observer = self.slot_observer
        if observer is not None:
            observer(result)
        return result

    # ------------------------------------------------------------------
    # instant servicing additions
    # ------------------------------------------------------------------
    def _try_instant(self, request: Request, now: int) -> bool:
        if request.block in self.pyramid_map:
            # Pyramid resident: must wait for a pyramid issue slot.
            return False
        if request.block in self._pending_main_insert:
            # Mid-migration back to the main tree: wait for the re-insert.
            return False
        return super()._try_instant(request, now)

    def _drain_main_inserts(self, now: int) -> List[Request]:
        """Re-insert spilled blocks whose translation is already free."""
        while self.main_insert_queue:
            block = self.main_insert_queue[0]
            if self._translation_chain(block):
                break
            self.main_insert_queue.popleft()
            self._pending_main_insert.discard(block)
            self._restore_to_stash(block)
            self.stats.inc(sk.PYRAMID_MAIN_REINSERTS)
        return []

    # ------------------------------------------------------------------
    # main-tree slot
    # ------------------------------------------------------------------
    def _main_slot(self, now: int) -> Optional[SlotResult]:
        if self.internal_queue:
            return self._step_posmap_writeback(now)
        if self.stash.over_threshold(self.oram.eviction_threshold):
            return self._eviction_path(now)
        if self.main_insert_queue:
            block = self.main_insert_queue[0]
            chain = self._translation_chain(block)
            if chain:
                return self.fetch_posmap_block(chain[0], now)
            self._drain_main_inserts(now)
            # fall through: restoring was free; look for other main work
        request = self._first_request_needing_main(now)
        if request is None:
            return None
        chain = self._translation_chain(request.block)
        if chain:
            return self.fetch_posmap_block(chain[0], now)
        self._count_translation(request)
        leaf = self.posmap.leaf_of(request.block)
        location = self._find_in_treetop(request.block, leaf)
        if location is not None:
            self.queue.remove(request)
            self._serve_treetop_hit(request, leaf, location, now)
            return SlotResult(False, None, now, now, now, [request])
        self.queue.remove(request)
        promote = request.kind is RequestKind.READ
        result = self.full_access(
            request.block,
            PathType.DATA,
            now,
            serve_request=request,
            extract_block=promote,
        )
        self.stats.inc(sk.PYRAMID_MAIN_ACCESSES)
        if promote:
            self._promote_to_pyramid(request.block)
        return result

    def _first_request_needing_main(self, now: int) -> Optional[Request]:
        for request in self.queue:
            if request.arrival > now:
                break
            if request.block in self.pyramid_map:
                continue
            if request.block in self._pending_main_insert:
                continue
            return request
        return None

    def _promote_to_pyramid(self, block: int) -> None:
        """Move a freshly extracted block into the pyramid's level 0."""
        if self.posmap.is_mapped(block):
            raise ProtocolError(f"block {block} was not extracted")
        self.pyramid_map[block] = (
            0,
            self.rng.randrange(self.level_buckets[0]),
        )
        self.stats.inc(sk.PYRAMID_PROMOTIONS)
        while len(self.pyramid_map) > self.total_budget:
            victim, _ = self.pyramid_map.popitem(last=False)
            self.main_insert_queue.append(victim)
            self._pending_main_insert.add(victim)
            self.stats.inc(sk.PYRAMID_SPILLS)

    # ------------------------------------------------------------------
    # pyramid slot
    # ------------------------------------------------------------------
    def _pyramid_slot(self, now: int) -> Optional[SlotResult]:
        if self._reshuffle_countdown <= 0:
            return self._reshuffle(now)
        result = self._probe_serve(now)
        if result is not None:
            self._reshuffle_countdown -= 1
        return result

    def _probe_serve(self, now: int) -> Optional[SlotResult]:
        request = self._first_request_needing_pyramid(now)
        if request is None:
            return None
        self.queue.remove(request)
        block = request.block
        residence = self.pyramid_map[block]
        result = self._probe_path(now, PathType.DATA, hit=residence)
        # Served blocks move to level 0 under a *fresh* uniform bucket, so
        # a stored bucket is probed at most once (no repeat-probe leak);
        # re-insertion at the OrderedDict end marks the block most recent.
        del self.pyramid_map[block]
        self.pyramid_map[block] = (
            0,
            self.rng.randrange(self.level_buckets[0]),
        )
        request.completion = result.finish_read
        result.completions.append(request)
        self.stats.inc(sk.PYRAMID_HITS)
        if request.kind is RequestKind.READ:
            self.stats.bump(sk.HIT_LEVEL, "pyramid")
        return result

    def _first_request_needing_pyramid(self, now: int) -> Optional[Request]:
        for request in self.queue:
            if request.arrival > now:
                break
            if request.block in self.pyramid_map:
                return request
        return None

    def _probe_dummy(self, now: int) -> SlotResult:
        # Only reached when _pyramid_slot found no real probe work, which
        # implies the reshuffle countdown was still positive.
        self._reshuffle_countdown -= 1
        self.stats.inc(sk.PYRAMID_PROBE_DUMMIES)
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
            start = self._level_base[level] + bucket * self.bucket_slots
            addresses.extend(range(start, start + self.bucket_slots))
        return self._pyramid_burst(addresses, path_type, now, leaf=top_bucket)

    def _reshuffle(self, now: int) -> SlotResult:
        """Periodic oblivious reshuffle: rewrite the whole hierarchy.

        Externally one fixed burst over every bucket of every level,
        independent of occupancy.  Internally, kept blocks redistribute
        across levels newest-first (level 0 gets the most recent) under
        fresh uniform buckets; blocks beyond the total budget spill to the
        main-insert queue, oldest first.
        """
        self._reshuffle_countdown = self.reshuffle_period
        blocks = list(self.pyramid_map)  # oldest -> newest
        keep = blocks[len(blocks) - min(len(blocks), self.total_budget):]
        spill = blocks[: len(blocks) - len(keep)]
        assign: dict = {}
        level = 0
        used = 0
        for block in reversed(keep):  # newest first, shallowest first
            while used >= self.level_budget[level]:
                level += 1
                used = 0
            assign[block] = (
                level,
                self.rng.randrange(self.level_buckets[level]),
            )
            used += 1
        new_map: "OrderedDict[int, Tuple[int, int]]" = OrderedDict()
        for block in keep:  # oldest -> newest preserves recency order
            new_map[block] = assign[block]
        self.pyramid_map = new_map
        for block in spill:
            self.main_insert_queue.append(block)
            self._pending_main_insert.add(block)
            self.stats.inc(sk.PYRAMID_SPILLS)
        self.stats.inc(sk.PYRAMID_RESHUFFLES)
        return self._pyramid_burst(
            self._region_addresses, PathType.EVICTION, now, leaf=0
        )

    def _pyramid_burst(
        self, addresses: List[int], path_type: PathType, now: int, leaf: int
    ) -> SlotResult:
        """Shared read+write DRAM burst and bookkeeping for pyramid slots."""
        finish_read = self.dram.service_addresses(addresses, False, now)
        self.path_count += 1
        self.stats.inc(sk.paths_key(path_type))
        self.stats.inc(sk.PATHS_TOTAL)
        self.stats.inc(sk.PATHS_PYRAMID)
        self.stats.inc(sk.MEM_BLOCKS_READ, len(addresses))
        tracer = self.stats.tracer
        if tracer is not None:
            tracer.emit(
                ev.PATH_READ,
                now,
                path_type=path_type.value,
                leaf=leaf,
                finish=finish_read,
                blocks=len(addresses),
                tree="pyramid",
            )
        if self.observer is not None:
            self.observer(
                PathAccessRecord(
                    issue_cycle=now,
                    leaf=leaf,
                    path_type=path_type,
                    read_addresses=list(addresses),
                    write_addresses=list(addresses),
                )
            )
        finish_write = self.dram.service_addresses(addresses, True, finish_read)
        self.stats.inc(sk.MEM_BLOCKS_WRITTEN, len(addresses))
        if tracer is not None:
            tracer.emit(
                ev.PATH_WRITE,
                finish_read,
                path_type=path_type.value,
                leaf=leaf,
                finish=finish_write,
                blocks=len(addresses),
                tree="pyramid",
            )
        return SlotResult(True, path_type, now, finish_read, finish_write)
