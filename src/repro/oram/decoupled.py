"""Palermo-style read/write phase decoupling.

Palermo observes that Path ORAM's write-back phase is independent of the
next access's read phase: once a path's blocks are in the stash and
placement decisions are made, the DRAM write burst can be deferred while
the *read* phases of subsequent accesses issue immediately, letting reads
and pending writes overlap in the memory system instead of strictly
alternating.

:class:`DecoupledPathORAMController` models that as a *scheme*, not an
implementation trick:

* the functional protocol is untouched — placement runs at the issue slot
  (stash, tree, PosMap, and RNG state evolve exactly as in ``Baseline``),
  so the access sequence, stash occupancy, and all protocol counters are
  bit-identical to the coupled controller's;
* the *timing* changes — a slot completes at its read-phase finish, and
  the write burst is queued into a bounded window serviced through the
  same DRAM bank model, where it contends with (and overlaps) the read
  bursts of later accesses;
* the window is bounded (:data:`WINDOW` pending write phases, per
  Palermo's small deferred-write queue): overflowing
  drains the oldest write first, and end-of-run drains the remainder
  (:meth:`drain_background`, called by the simulator loop).

Security note: the defense's access *rate* is unchanged — one path per
issue interval — and every access still reads and writes a full path;
only the interleaving of read and write bursts at the DRAM differs, which
is the observable Palermo argues is safe to reorder.
"""

from __future__ import annotations

import random
from collections import deque
from typing import Deque, Optional, Set, Tuple

from .. import stats_keys as sk
from ..config import SystemConfig
from ..stats import Stats
from .controller import PathORAMController
from .treetop import TreeTopCache
from .types import PathType

#: bound on pending (deferred) write phases.  It changes simulated
#: cycles, so it is a constant rather than a setting outside the config
#: fingerprint.
WINDOW = 4


class DecoupledPathORAMController(PathORAMController):
    """Baseline controller with deferred, overlapping write bursts."""

    #: The native batch kernel composes read and write bursts back to
    #: back inside one path; decoupled timing needs the per-slot path.
    SUPPORTS_NATIVE_BATCH = False

    def __init__(
        self,
        config: SystemConfig,
        stats: Optional[Stats] = None,
        rng: Optional[random.Random] = None,
        treetop: Optional[TreeTopCache] = None,
        delayed_remap: bool = False,
    ) -> None:
        super().__init__(config, stats, rng, treetop=treetop,
                         delayed_remap=delayed_remap)
        #: deferred write phases: (leaf, ready cycle, path type), oldest
        #: first; ``ready`` is the access's read-phase finish, the
        #: earliest cycle its write burst may issue.
        self._pending_writes: Deque[Tuple[int, int, PathType]] = deque()

    # ------------------------------------------------------------------
    # the decoupled write phase
    # ------------------------------------------------------------------
    def _write_path(self, leaf: int, finish_read: int, path_type: PathType,
                    preexisting: Optional[Set[int]] = None) -> int:
        """Place now, defer the DRAM write burst; returns the slot finish.

        The slot completes at ``finish_read``: the next access's read
        phase is not serialized behind this write burst.  The burst joins
        the window and is serviced — at the earliest, at ``finish_read``,
        and otherwise whenever the banks free up around later reads —
        when the window overflows or the run drains.
        """
        self._place_path(leaf, preexisting)
        self._pending_writes.append((leaf, finish_read, path_type))
        self.stats.counters[sk.DECOUPLE_DEFERRED_WRITES] += 1
        while len(self._pending_writes) > WINDOW:
            self._drain_oldest()
        self._after_write_phase()
        return finish_read

    def _drain_oldest(self) -> int:
        """Service the oldest pending write burst; returns its finish."""
        leaf, ready, path_type = self._pending_writes.popleft()
        return self._writeback_path(leaf, ready, path_type)

    def drain_background(self, now: int) -> int:
        """Flush every pending write burst (end of run); returns the last
        finish cycle, or ``now`` when nothing was pending."""
        finish = now
        while self._pending_writes:
            finish = max(finish, self._drain_oldest())
        return finish
