"""Rho: relaxed hierarchical ORAM (Nagarajan et al., ASPLOS'19) — the
state-of-the-art baseline the paper compares against.

Rho adds a second, much smaller ORAM tree (best setting in the paper:
L=19, Z=2 at paper scale) that captures the hot working set: most accesses
are served by short, cheap paths in the small tree, and only misses (plus
PosMap traffic and small-tree evictions) touch the main tree.  To keep the
two path lengths from leaking timing information, path accesses follow a
fixed issue *pattern* — one main-tree access per ``small_per_main``
small-tree accesses — with dummy paths of the appropriate kind inserted
whenever the scheduled slot has no matching real work.  This defense is
exactly what hurts read-intensive programs like mcf in Fig. 10: with a
cold small tree almost every request needs main-tree slots, which only
come around once per pattern period.

Block movement model:

* a main-tree access that serves a demand moves the block *exclusively*
  into the small tree (its main mapping is discarded, Nagarajan-style);
* the small tree's position map is small enough to live on chip (an LRU
  ordered map, which doubles as the victim-selection policy);
* when small-tree occupancy exceeds its budget, the LRU block is extracted
  (a small-tree path access if it is not already in the small stash) and
  re-inserted into the main tree through the stash after its PosMap entry
  is restored (main-tree PosMap paths as needed).
"""

from __future__ import annotations

import random
from collections import OrderedDict, deque
from typing import Deque, List, Optional, Tuple

from .. import stats_keys as sk
from ..config import ORAMConfig, SystemConfig
from ..errors import ProtocolError
from ..mem.layout import TreeLayout
from ..obs import events as ev
from ..stats import Stats
from .controller import ONCHIP_LATENCY, PathORAMController, SlotResult
from .stash import Stash
from .tree import ORAMTree
from .types import PathType, Request, RequestKind


def scaled_small_levels(main_levels: int, llc_lines: int = 2048) -> int:
    """Small-tree depth sized so its capacity dwarfs the LLC.

    Rho only pays off when the small tree captures the post-LLC working
    set, so its block budget (half its slots at Z=2) must be several times
    the LLC.  At paper scale (32K-line LLC) this yields L=18-19, matching
    the paper's best setting; scaled configurations shrink accordingly.
    """
    return max(3, min(main_levels - 1, (4 * llc_lines).bit_length()))


class RhoController(PathORAMController):
    """Two-tree ORAM controller with a fixed main:small issue pattern."""

    #: Dummy slots alternate between the two trees here; the native batch
    #: kernel only models a single tree, so batches step per slot.
    SUPPORTS_NATIVE_BATCH = False

    def __init__(
        self,
        config: SystemConfig,
        stats: Optional[Stats] = None,
        rng: Optional[random.Random] = None,
        small_levels: Optional[int] = None,
        small_z: int = 2,
        small_per_main: int = 2,
    ) -> None:
        super().__init__(config, stats, rng)
        levels = small_levels or scaled_small_levels(
            config.oram.levels, config.llc.lines
        )
        slots = small_z * ((1 << levels) - 1)
        self.small_budget = slots // 2
        small_oram = ORAMConfig(
            levels=levels,
            user_blocks=max(1, self.small_budget),
            z_per_level=(small_z,) * levels,
            top_cached_levels=0,
            stash_capacity=config.oram.stash_capacity,
            eviction_threshold=config.oram.eviction_threshold,
            timing_protection=config.oram.timing_protection,
            issue_interval=config.oram.issue_interval,
        )
        self.small_oram = small_oram
        self.small_tree = ORAMTree(small_oram)
        self.small_stash = Stash(small_oram.stash_capacity, self.stats)
        #: on-chip small-tree position map; insertion order is LRU order
        self.small_map: "OrderedDict[int, int]" = OrderedDict()
        self.small_layout = TreeLayout(
            small_oram, config.dram, base_row=self.layout.end_row()
        )
        self.small_per_main = small_per_main
        self._pattern_pos = 0
        #: small-tree victims awaiting extraction (still mapped until done)
        self.extraction_queue: Deque[int] = deque()
        self._evicting: set = set()
        #: blocks extracted from the small tree awaiting main re-insertion
        self.main_insert_queue: Deque[int] = deque()
        self._pending_main_insert: set = set()

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------
    def has_any_real_work(self) -> bool:
        return (
            super().has_any_real_work()
            or bool(self.extraction_queue)
            or bool(self.main_insert_queue)
        )

    def step(self, now: int, allow_dummy: bool = True) -> Optional[SlotResult]:
        self._drain_posmap_reinserts()
        completions = self._drain_instant(now)
        completions += self._drain_main_inserts(now)

        enforce_pattern = allow_dummy and self.oram.timing_protection
        slot_is_main = self._pattern_pos % (self.small_per_main + 1) == 0

        result: Optional[SlotResult]
        if enforce_pattern:
            body = self._main_slot(now) if slot_is_main else self._small_slot(now)
            if body is None:
                body = (
                    self.dummy_path(now)
                    if slot_is_main
                    else self._small_dummy(now)
                )
            result = body
        else:
            result = self._main_slot(now) or self._small_slot(now)

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
        if request.block in self.small_stash:
            request.completion = now + ONCHIP_LATENCY
            self.stats.inc(sk.RHO_SMALL_STASH_HITS)
            if request.kind is RequestKind.READ:
                self.stats.bump(sk.HIT_LEVEL, "small-stash")
            return True
        if request.block in self.small_map:
            # Small-tree resident: must wait for a small-tree issue slot.
            return False
        if request.block in self._pending_main_insert:
            # Mid-migration back to the main tree: wait for the re-insert.
            return False
        return super()._try_instant(request, now)

    def _drain_main_inserts(self, now: int) -> List[Request]:
        """Re-insert extracted blocks whose translation is already free."""
        while self.main_insert_queue:
            block = self.main_insert_queue[0]
            if self._translation_chain(block):
                break
            self.main_insert_queue.popleft()
            self._pending_main_insert.discard(block)
            self._restore_to_stash(block)
            self.stats.inc(sk.RHO_MAIN_REINSERTS)
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
        self.stats.inc(sk.RHO_MAIN_ACCESSES)
        if promote:
            self._promote_to_small(request.block)
        return result

    def _first_request_needing_main(self, now: int) -> Optional[Request]:
        for request in self.queue:
            if request.arrival > now:
                break
            if request.block in self.small_map:
                continue
            if request.block in self._pending_main_insert:
                continue
            return request
        return None

    def _promote_to_small(self, block: int) -> None:
        """Move a freshly extracted block into the small tree."""
        if self.posmap.is_mapped(block):
            raise ProtocolError(f"block {block} was not extracted")
        leaf = self.rng.randrange(1 << (self.small_oram.levels - 1))
        self.small_map[block] = leaf
        self.small_stash.add(block, leaf)
        self.stats.inc(sk.RHO_PROMOTIONS)
        overflow = len(self.small_map) - len(self._evicting) - self.small_budget
        for candidate in list(self.small_map):
            if overflow <= 0:
                break
            if candidate in self._evicting:
                continue
            overflow -= 1
            self.stats.inc(sk.RHO_SMALL_EVICTIONS)
            if candidate in self.small_stash:
                self.small_stash.remove(candidate)
                del self.small_map[candidate]
                self.main_insert_queue.append(candidate)
                self._pending_main_insert.add(candidate)
            else:
                self._evicting.add(candidate)
                self.extraction_queue.append(candidate)

    # ------------------------------------------------------------------
    # small-tree slot
    # ------------------------------------------------------------------
    def _small_slot(self, now: int) -> Optional[SlotResult]:
        if self.small_stash.over_threshold(self.small_oram.eviction_threshold):
            leaf = self.rng.randrange(1 << (self.small_oram.levels - 1))
            self.stats.inc(sk.RHO_SMALL_EVICTION_PATHS)
            return self._small_path(leaf, now, PathType.EVICTION)
        extraction = self._next_extraction()
        if extraction is not None:
            victim, leaf = extraction
            result = self._small_path(leaf, now, PathType.EVICTION, extract=victim)
            del self.small_map[victim]
            self._evicting.discard(victim)
            self.main_insert_queue.append(victim)
            self._pending_main_insert.add(victim)
            self.stats.inc(sk.RHO_EXTRACTIONS)
            return result
        request = self._first_request_needing_small(now)
        if request is None:
            return None
        self.queue.remove(request)
        block = request.block
        if block in self.small_stash:
            # Resident in the on-chip small stash: served with no path.
            request.completion = now + ONCHIP_LATENCY
            self.stats.inc(sk.RHO_SMALL_STASH_HITS)
            return SlotResult(False, None, now, now, now, [request])
        leaf = self.small_map[block]
        # A demand access cancels any pending eviction of this block.
        self._evicting.discard(block)
        self.small_map.move_to_end(block)
        new_leaf = self.rng.randrange(1 << (self.small_oram.levels - 1))
        self.small_map[block] = new_leaf
        result = self._small_path(
            leaf, now, PathType.DATA, remapped=(block, new_leaf)
        )
        request.completion = result.finish_read
        result.completions.append(request)
        self.stats.inc(sk.RHO_SMALL_HITS)
        if request.kind is RequestKind.READ:
            self.stats.bump(sk.HIT_LEVEL, "small-tree")
        return result

    def _next_extraction(self) -> Optional[Tuple[int, int]]:
        """Next still-valid victim and its current small-tree leaf."""
        while self.extraction_queue:
            victim = self.extraction_queue.popleft()
            if victim not in self._evicting or victim not in self.small_map:
                continue  # cancelled by a demand access
            if victim in self.small_stash:
                # It drifted into the stash meanwhile: extract for free.
                self.small_stash.remove(victim)
                del self.small_map[victim]
                self._evicting.discard(victim)
                self.main_insert_queue.append(victim)
                self._pending_main_insert.add(victim)
                continue
            return victim, self.small_map[victim]
        return None

    def _first_request_needing_small(self, now: int) -> Optional[Request]:
        for request in self.queue:
            if request.arrival > now:
                break
            if request.block in self.small_map:
                return request
        return None

    def _small_dummy(self, now: int) -> SlotResult:
        leaf = self.rng.randrange(1 << (self.small_oram.levels - 1))
        self.stats.inc(sk.RHO_SMALL_DUMMIES)
        return self._small_path(leaf, now, PathType.DUMMY)

    # ------------------------------------------------------------------
    # small-tree path machinery
    # ------------------------------------------------------------------
    def _small_path(
        self,
        leaf: int,
        now: int,
        path_type: PathType,
        extract: Optional[int] = None,
        remapped: Optional[Tuple[int, int]] = None,
    ) -> SlotResult:
        """One full small-tree path access (read + greedy write)."""
        addresses = self.small_layout.path_addresses(leaf)
        finish_read = self.dram.service_addresses(addresses, False, now)
        removed = self.small_tree.read_and_clear(leaf)
        extract_found = False
        target_found = False
        for block, _ in removed:
            if extract is not None and block == extract:
                extract_found = True
                continue
            if remapped is not None and block == remapped[0]:
                self.small_stash.add(block, remapped[1])
                target_found = True
                continue
            if block not in self.small_map:
                raise ProtocolError(f"block {block} missing from small map")
            self.small_stash.add(block, self.small_map[block])
        if extract is not None and not extract_found:
            raise ProtocolError(f"victim {extract} absent from its path")
        if remapped is not None and not target_found:
            raise ProtocolError(f"block {remapped[0]} absent from its path")

        self.path_count += 1
        self.stats.inc(sk.paths_key(path_type))
        self.stats.inc(sk.PATHS_TOTAL)
        self.stats.inc(sk.PATHS_SMALL_TREE)
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
                tree="small",
            )
        if self.observer is not None:
            from .types import PathAccessRecord

            self.observer(
                PathAccessRecord(
                    issue_cycle=now,
                    leaf=leaf,
                    path_type=path_type,
                    read_addresses=list(addresses),
                    write_addresses=list(addresses),
                )
            )

        self._small_write_phase(leaf)
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
                tree="small",
            )
        return SlotResult(True, path_type, now, finish_read, finish_write)

    def _small_write_phase(self, leaf: int) -> None:
        levels = self.small_oram.levels
        pools: List[List[int]] = [[] for _ in range(levels)]
        for block, block_leaf in self.small_stash.items():
            depth = self.small_tree.deepest_common_level(leaf, block_leaf)
            pools[depth].append(block)
        pool: List[int] = []
        for level in range(levels - 1, -1, -1):
            pool.extend(pools[level])
            z = self.small_oram.z_per_level[level]
            if z == 0 or not pool:
                continue
            position = self.small_tree.path_position(leaf, level)
            placed = 0
            while pool and placed < z:
                block = pool.pop()
                if not self.small_tree.place(level, position, block):
                    raise ProtocolError("small bucket overflow")
                self.small_stash.remove(block)
                placed += 1
