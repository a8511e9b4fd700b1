"""The two-tree scheduler shared by the hybrid schemes: Rho, Ring, Pyramid.

A hybrid scheme pairs the Freecursive Path ORAM main tree with a small
*side* structure that captures the hot working set: Rho's small Path ORAM
tree, Ring's Ring ORAM tree, Pyramid's reshuffled bucket hierarchy.
:class:`HybridController` holds what the three share:

* **the issue pattern**: one main-tree slot per :data:`SIDE_PER_MAIN`
  side slots, with a dummy of the matching kind filling a slot that has
  no real work, so the two access lengths leak no timing (the defense
  that costs Rho its speedup on read-intensive programs in Fig. 10);
* **custody**: a main-tree read moves its block *exclusively* into the
  side structure (its main mapping discarded), and ``side_map`` — the
  on-chip side position map — then holds it.  Requests for a side-held
  block wait for a side slot.  A block leaving custody waits in the
  main-insert queue and re-enters the main stash once its PosMap entry
  is restored, through PosMap paths in main slots as needed;
* **LRU eviction** (Rho and Ring): ``side_map``'s insertion order is LRU
  order.  A promotion beyond ``side_budget`` evicts the oldest blocks,
  straight from the side stash when they sit there, else through an
  extraction queue of side-path accesses;
* **the side burst**: DRAM service of one side access, its ``paths.*``
  and memory counters, its ``path.read``/``path.write`` events labelled
  ``tree=TREE``, and the observer's :class:`PathAccessRecord`.

A subclass supplies its side protocol — :meth:`_side_path` and
:meth:`_side_maintenance` — and names its counters and trace label as
class attributes.  Pyramid keeps custody in levels rather than in an
LRU tree with a stash, and replaces :meth:`_promote`, :meth:`_side_slot`
and :meth:`_side_dummy` with its own.
"""

from __future__ import annotations

import random
from collections import OrderedDict, deque
from typing import Deque, List, Optional, Set, Tuple

from .. import stats_keys as sk
from ..config import SystemConfig
from ..errors import ProtocolError
from ..obs import events as ev
from ..stats import Stats
from .controller import ONCHIP_LATENCY, PathORAMController, SlotResult
from .stash import Stash
from .types import PathAccessRecord, PathType, Request, RequestKind

#: side-structure issue slots per main-tree slot
SIDE_PER_MAIN = 2


class HybridController(PathORAMController):
    """Main Freecursive tree plus a side structure, on one issue pattern."""

    #: ``tree=`` label of the side burst's trace events
    TREE: str
    #: counter of side accesses (a subset of ``paths.total``)
    PATHS_KEY: str
    #: counters of main-tree accesses, main re-inserts, promotions,
    #: evictions from custody, extractions, side hits, side-stash hits and
    #: side dummies
    MAIN_ACCESSES: str
    MAIN_REINSERTS: str
    PROMOTIONS: str
    EVICTIONS: str
    EXTRACTIONS: str
    HITS: str
    STASH_HITS: str
    DUMMIES: str
    #: hit-level labels of a side hit and a side-stash hit
    HIT_LEVEL: str
    STASH_HIT_LEVEL: str

    def __init__(
        self,
        config: SystemConfig,
        stats: Optional[Stats] = None,
        rng: Optional[random.Random] = None,
    ) -> None:
        super().__init__(config, stats, rng)
        #: on-chip side position map; insertion order is LRU order
        self.side_map: OrderedDict = OrderedDict()
        #: the side structure's on-chip stash (Rho and Ring)
        self.side_stash: Optional[Stash] = None
        #: blocks the side structure may hold
        self.side_budget = 0
        #: leaves of the side tree (Rho and Ring)
        self.side_leaves = 0
        self._pattern_pos = 0
        #: side victims awaiting extraction (still mapped until done)
        self.extraction_queue: Deque[int] = deque()
        self._evicting: Set[int] = set()
        #: blocks out of custody awaiting main re-insertion
        self.main_insert_queue: Deque[int] = deque()
        self._pending_main_insert: Set[int] = set()

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
        self._drain_main_inserts()

        result: Optional[SlotResult]
        if not (allow_dummy and self.oram.timing_protection):
            result = self._main_slot(now) or self._side_slot(now)
        elif self._pattern_pos % (SIDE_PER_MAIN + 1) == 0:
            result = self._main_slot(now) or self._dummy_slot(now)
        else:
            result = self._side_slot(now) or self._side_dummy(now)

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
    # instant servicing and custody waits
    # ------------------------------------------------------------------
    def _try_instant(self, request: Request, now: int) -> bool:
        block = request.block
        if self.side_stash is not None and block in self.side_stash:
            request.completion = now + ONCHIP_LATENCY
            self.stats.inc(self.STASH_HITS)
            if request.kind is RequestKind.READ:
                self.stats.bump(sk.HIT_LEVEL, self.STASH_HIT_LEVEL)
            return True
        if block in self.side_map or block in self._pending_main_insert:
            # Side-held: wait for a side slot.  Mid-migration back to the
            # main tree: wait for the re-insert.
            return False
        return super()._try_instant(request, now)

    def _drain_main_inserts(self) -> None:
        """Re-insert blocks out of custody whose translation is free."""
        while self.main_insert_queue:
            block = self.main_insert_queue[0]
            if self._translation_chain(block):
                break
            self.main_insert_queue.popleft()
            self._pending_main_insert.discard(block)
            self._restore_to_stash(block)
            self.stats.inc(self.MAIN_REINSERTS)

    def _release(self, block: int) -> None:
        """Take a block out of custody into the main-insert queue."""
        del self.side_map[block]
        self._evicting.discard(block)
        self.main_insert_queue.append(block)
        self._pending_main_insert.add(block)

    # ------------------------------------------------------------------
    # main-tree slot
    # ------------------------------------------------------------------
    def _main_slot(self, now: int) -> Optional[SlotResult]:
        if self.internal_queue:
            return self._step_posmap_writeback(now)
        if self.stash.over_threshold(self.oram.eviction_threshold):
            return self._eviction_path(now)
        if self.main_insert_queue:
            chain = self._translation_chain(self.main_insert_queue[0])
            if chain:
                return self.fetch_posmap_block(chain[0], now)
            self._drain_main_inserts()
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
        self.queue.remove(request)
        if location is not None:
            self._serve_treetop_hit(request, leaf, location, now)
            return SlotResult(False, None, now, now, now, [request])
        promote = request.kind is RequestKind.READ
        result = self.full_access(
            request.block,
            PathType.DATA,
            now,
            serve_request=request,
            extract_block=promote,
        )
        self.stats.inc(self.MAIN_ACCESSES)
        if promote:
            if self.posmap.is_mapped(request.block):
                raise ProtocolError(f"block {request.block} was not extracted")
            self._promote(request.block)
        return result

    def _first_request_needing_main(self, now: int) -> Optional[Request]:
        for request in self.queue:
            if request.arrival > now:
                break
            block = request.block
            if not (block in self.side_map
                    or block in self._pending_main_insert):
                return request
        return None

    def _promote(self, block: int) -> None:
        """Take a freshly extracted block into custody, evicting the
        least recently used blocks beyond the budget.

        The victims are the oldest custody blocks not already being
        evicted, collected in one pass that stops at the last of them.
        """
        leaf = self.rng.randrange(self.side_leaves)
        self.side_map[block] = leaf
        self.side_stash.add(block, leaf)
        self.stats.inc(self.PROMOTIONS)
        overflow = len(self.side_map) - len(self._evicting) - self.side_budget
        if overflow <= 0:
            return
        victims: List[int] = []
        for candidate in self.side_map:
            if candidate not in self._evicting:
                victims.append(candidate)
                if len(victims) == overflow:
                    break
        for victim in victims:
            self.stats.inc(self.EVICTIONS)
            if victim in self.side_stash:
                self.side_stash.remove(victim)
                self._release(victim)
            else:
                self._evicting.add(victim)
                self.extraction_queue.append(victim)

    # ------------------------------------------------------------------
    # side slot
    # ------------------------------------------------------------------
    def _side_maintenance(self, now: int) -> Optional[SlotResult]:
        """The side structure's own eviction access, when it is due."""
        raise NotImplementedError

    def _side_path(
        self,
        leaf: int,
        now: int,
        path_type: PathType,
        target: Optional[int] = None,
        new_leaf: Optional[int] = None,
    ) -> SlotResult:
        """One side access to the path of ``leaf``.  ``target`` leaves the
        path: into the side stash tagged ``new_leaf``, or out of the side
        structure (an extraction) when ``new_leaf`` is None."""
        raise NotImplementedError

    def _side_slot(self, now: int) -> Optional[SlotResult]:
        result = self._side_maintenance(now)
        if result is not None:
            return result
        extraction = self._next_extraction()
        if extraction is not None:
            victim, leaf = extraction
            result = self._side_path(leaf, now, PathType.EVICTION, victim)
            self._release(victim)
            self.stats.inc(self.EXTRACTIONS)
            return result
        request = self._first_request_needing_side(now)
        if request is None:
            return None
        self.queue.remove(request)
        block = request.block
        if block in self.side_stash:
            # Resident in the on-chip side stash: served with no path.
            request.completion = now + ONCHIP_LATENCY
            self.stats.inc(self.STASH_HITS)
            return SlotResult(False, None, now, now, now, [request])
        leaf = self.side_map[block]
        # A demand access cancels any pending eviction of this block.
        self._evicting.discard(block)
        self.side_map.move_to_end(block)
        new_leaf = self.rng.randrange(self.side_leaves)
        self.side_map[block] = new_leaf
        result = self._side_path(leaf, now, PathType.DATA, block, new_leaf)
        request.completion = result.finish_read
        result.completions.append(request)
        self.stats.inc(self.HITS)
        if request.kind is RequestKind.READ:
            self.stats.bump(sk.HIT_LEVEL, self.HIT_LEVEL)
        return result

    def _next_extraction(self) -> Optional[Tuple[int, int]]:
        """Next still-valid victim and its current side leaf."""
        while self.extraction_queue:
            victim = self.extraction_queue.popleft()
            if victim not in self._evicting or victim not in self.side_map:
                continue  # cancelled by a demand access
            if victim in self.side_stash:
                # It drifted into the stash meanwhile: extract for free.
                self.side_stash.remove(victim)
                self._release(victim)
                continue
            return victim, self.side_map[victim]
        return None

    def _first_request_needing_side(self, now: int) -> Optional[Request]:
        for request in self.queue:
            if request.arrival > now:
                break
            if request.block in self.side_map:
                return request
        return None

    def _side_dummy(self, now: int) -> SlotResult:
        leaf = self.rng.randrange(self.side_leaves)
        self.stats.inc(self.DUMMIES)
        return self._side_path(leaf, now, PathType.DUMMY)

    def _side_burst(
        self,
        read_addresses: List[int],
        write_addresses: List[int],
        path_type: PathType,
        now: int,
        leaf: int,
        finish_read: Optional[int] = None,
    ) -> SlotResult:
        """DRAM service and bookkeeping of one side access.

        The read burst is serviced here unless the caller already did
        (``finish_read``); the write burst follows it, and an access with
        nothing to write (a Ring ReadPath that reshuffled no bucket) ends
        with its read.
        """
        if finish_read is None:
            finish_read = self.dram.service_addresses(
                read_addresses, False, now
            )
        self.path_count += 1
        stats = self.stats
        stats.inc(sk.paths_key(path_type))
        stats.inc(sk.PATHS_TOTAL)
        stats.inc(self.PATHS_KEY)
        stats.inc(sk.MEM_BLOCKS_READ, len(read_addresses))
        tracer = stats.tracer
        if tracer is not None:
            tracer.emit(
                ev.PATH_READ,
                now,
                path_type=path_type.value,
                leaf=leaf,
                finish=finish_read,
                blocks=len(read_addresses),
                tree=self.TREE,
            )
        if self.observer is not None:
            self.observer(
                PathAccessRecord(
                    issue_cycle=now,
                    leaf=leaf,
                    path_type=path_type,
                    read_addresses=list(read_addresses),
                    write_addresses=list(write_addresses),
                )
            )
        if not write_addresses:
            return SlotResult(True, path_type, now, finish_read, finish_read)
        finish_write = self.dram.service_addresses(
            write_addresses, True, finish_read
        )
        stats.inc(sk.MEM_BLOCKS_WRITTEN, len(write_addresses))
        if tracer is not None:
            tracer.emit(
                ev.PATH_WRITE,
                finish_read,
                path_type=path_type.value,
                leaf=leaf,
                finish=finish_write,
                blocks=len(write_addresses),
                tree=self.TREE,
            )
        return SlotResult(True, path_type, now, finish_read, finish_write)
