"""IR-DWB: converting dummy paths into early LLC write-backs (Section IV-D).

When the timing-channel defense would issue a dummy path, IR-DWB instead
spends the slot flushing a *dirty LRU* LLC line toward memory:

* a register ``Ptr`` (kept by the LLC's round-robin scanner) points at the
  candidate line;
* a register ``Stage`` counts the path accesses still needed: 3 when both
  PosMap1 and PosMap2 miss the PLB, 2 when only PosMap1 misses, 1 when the
  translation is free and only the data write remains;
* each converted slot performs one full path access and decrements
  ``Stage``; at 0 the LLC line is marked clean, so its later demand
  eviction costs nothing;
* the flush aborts when the line stops being its set's LRU, stops being
  dirty, or leaves the cache — partial progress still helps (the PLB is
  warm for the eventual write-back).

Externally every converted slot is still one fixed-shape path access at
the fixed rate: obliviousness is unchanged.
"""

from __future__ import annotations

from typing import Optional, Tuple

from ..cache.llc import LastLevelCache
from .. import stats_keys as sk
from ..oram.controller import PathORAMController, SlotResult
from ..oram.types import PathType
from ..stats import Stats


class DWBEngine:
    """The Ptr/Stage state machine driving dummy-slot conversion.

    The controller that owns the engine (``controller.dwb``) hands itself
    to each :meth:`dummy_slot` call; the engine keeps no reference to it,
    so the two form no reference cycle and a run's tree is freed as soon
    as the run lets go of its controller.
    """

    def __init__(self, llc: LastLevelCache, stats: Stats) -> None:
        self.llc = llc
        self.stats = stats
        self.ptr: Optional[Tuple[int, int]] = None  # (set index, block)
        self.stage = 0

    # ------------------------------------------------------------------
    def dummy_slot(
        self, controller: PathORAMController, now: int
    ) -> Optional[SlotResult]:
        """Use a dummy slot of ``controller`` productively; ``None`` means
        "issue a plain dummy"."""
        if self.stage != 0 and self.ptr is not None:
            if self._still_valid():
                return self._advance(controller, now)
            self._abort()
        candidate = self.llc.find_dirty_lru(now)
        if candidate is None:
            return None
        self.ptr = candidate
        block = candidate[1]
        chain = controller._translation_chain(block)
        self.stage = 1 + len(chain)
        self.stats.inc(sk.DWB_FLUSHES_STARTED)
        self.stats.bump(sk.DWB_START_STAGE, self.stage)
        return self._advance(controller, now)

    # ------------------------------------------------------------------
    def _still_valid(self) -> bool:
        _, block = self.ptr
        return self.llc.is_lru(block) and self.llc.is_dirty(block)

    def _abort(self) -> None:
        self.stats.inc(sk.DWB_ABORTS)
        self.ptr = None
        self.stage = 0

    def _advance(self, controller: PathORAMController, now: int) -> SlotResult:
        """Perform the next path access of the in-flight flush."""
        _, block = self.ptr
        chain = controller._translation_chain(block)
        if chain:
            result = controller.fetch_posmap_block(chain[0], now)
            self.stage = 1 + len(controller._translation_chain(block))
            self.stats.inc(sk.DWB_POSMAP_PATHS)
            return result
        # Stage 1: write the dirty block itself through a full data access.
        result = controller.full_access(block, PathType.DATA, now)
        self.llc.mark_clean(block)
        self.ptr = None
        self.stage = 0
        self.stats.inc(sk.DWB_WRITEBACKS_COMPLETED)
        return result
