"""Per-component cycle attribution for one simulation run.

The simulator's timeline is a sequence of non-overlapping path-access
intervals (the controller issues at most one path per slot and the clock
always advances past the previous write phase).  That makes an exact
wall-clock decomposition possible:

* every issued path contributes its DRAM read phase and write phase,
  bucketed by path type (demand data, PosMap recursion, dummy slots,
  background eviction, IR-DWB conversions);
* the window after a path's write phase during which the timing-channel
  defense forbids the next issue slot counts as a *timing stall*;
* everything else — the processor computing, the request queue empty —
  is *idle* time from the memory system's point of view.

All components are clipped to the run's reported cycle count (trailing
eviction or dummy paths can outlive the last demand completion that
defines ``SimulationResult.cycles``), so the invariant

    sum(breakdown.components().values()) == breakdown.total == result.cycles

holds for every scheme; the test suite asserts it.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Dict

from ..oram.types import PathType
from ..perf.native import fastpath as _fastpath

#: A path type's code in the recorded timeline: its index in
#: ``PathType``, as the C kernels' slot drain records it too.
PATH_CODES = {path_type.value: code for code, path_type in enumerate(PathType)}
#: Each path type code's breakdown bucket: 0 data, 1 PosMap recursion,
#: 2 dummy slots (timing-defense fillers and IR-DWB conversions), 3
#: background eviction.
_BUCKETS = tuple(
    0 if path_type is PathType.DATA
    else 1 if path_type.is_posmap
    else 2 if path_type in (PathType.DUMMY, PathType.DWB)
    else 3
    for path_type in PathType
)


@dataclass
class CycleBreakdown:
    """Where one run's cycles went.  All values are CPU cycles."""

    total: int = 0
    #: DRAM read-phase cycles of demand-data paths
    data_read: int = 0
    #: DRAM write-phase cycles of demand-data paths
    data_write: int = 0
    #: read + write cycles of PosMap recursion paths (PT_p)
    posmap_read: int = 0
    posmap_write: int = 0
    #: read + write cycles of dummy slots (PT_m, incl. IR-DWB conversions)
    dummy_read: int = 0
    dummy_write: int = 0
    #: read + write cycles of background-eviction paths
    eviction_read: int = 0
    eviction_write: int = 0
    #: cycles the issue-rate defense kept the controller from issuing
    timing_stall: int = 0
    #: cycles with no path in flight and no forced stall (compute, empty queue)
    idle: int = 0

    def components(self) -> Dict[str, int]:
        """Every component; values sum to :attr:`total` exactly."""
        return {
            "data_read": self.data_read,
            "data_write": self.data_write,
            "posmap_read": self.posmap_read,
            "posmap_write": self.posmap_write,
            "dummy_read": self.dummy_read,
            "dummy_write": self.dummy_write,
            "eviction_read": self.eviction_read,
            "eviction_write": self.eviction_write,
            "timing_stall": self.timing_stall,
            "idle": self.idle,
        }

    def fractions(self) -> Dict[str, float]:
        if self.total == 0:
            return {key: 0.0 for key in self.components()}
        return {
            key: value / self.total for key, value in self.components().items()
        }

    def to_dict(self) -> Dict[str, int]:
        payload = dict(self.components())
        payload["total"] = self.total
        return payload

    @staticmethod
    def from_dict(payload: Dict[str, int]) -> "CycleBreakdown":
        return CycleBreakdown(**{k: int(v) for k, v in payload.items()})


class CycleAttribution:
    """Accumulates path intervals during a run; finalized once cycles are known.

    The simulator records every issued path as
    ``(path_type, start, finish_read, finish_write, stall_until)`` where
    ``stall_until`` is the earliest cycle the *next* slot may issue (the
    timing-protection boundary; equal to ``finish_write`` when the defense
    is off).  Intervals arrive in timeline order and never overlap.
    """

    def __init__(self) -> None:
        #: flat [type code, start, finish_read, finish_write, stall_until,
        #: ...], one group of five per path
        self._records = array("q")

    def on_path(
        self,
        path_type: str,
        start: int,
        finish_read: int,
        finish_write: int,
        stall_until: int,
    ) -> None:
        """Record one path; ``path_type`` is a ``PathType`` value."""
        self._records.extend(
            (PATH_CODES[path_type], start, finish_read, finish_write,
             stall_until)
        )

    def on_paths(self, records: "array[int]") -> None:
        """Record paths already in the flat five-per-path layout, with
        :data:`PATH_CODES` codes (the slot drain's records)."""
        self._records.extend(records)

    def finalize(self, cycles: int) -> CycleBreakdown:
        """Clip the recorded timeline to ``[0, cycles]`` and bucket it.

        The gap before each path (from the previous write phase's end to
        this path's start) is a timing stall up to the previous path's
        ``stall_until`` and idle after it.  The C kernel's
        ``attribute_cycles`` runs the same pass when it is loaded.
        """
        if _fastpath is not None:
            parts = _fastpath.attribute_cycles(
                self._records, cycles, _BUCKETS
            )
        else:
            parts = self._attribute(cycles)
        return CycleBreakdown(cycles, *parts)

    def _attribute(self, cycles: int) -> tuple:
        """``attribute_cycles`` in Python: one pass with local sums."""
        records = self._records
        sums = [0] * 8
        stall = idle = 0
        cursor = stall_until = 0
        for base in range(0, len(records), 5):
            code = records[base]
            start = records[base + 1]
            if start > cycles:
                start = cycles
            finish_read = records[base + 2]
            if finish_read > cycles:
                finish_read = cycles
            finish_write = records[base + 3]
            if finish_write > cycles:
                finish_write = cycles
            if start > cursor:
                stall_end = stall_until if stall_until < start else start
                if stall_end > cursor:
                    stall += stall_end - cursor
                    cursor = stall_end
                idle += start - cursor
            bucket = 2 * (_BUCKETS[code] if 0 <= code < len(_BUCKETS) else 3)
            sums[bucket] += finish_read - start
            sums[bucket + 1] += finish_write - finish_read
            cursor = finish_write
            stall_until = records[base + 4]
        if cycles > cursor:
            stall_end = stall_until if stall_until < cycles else cycles
            if stall_end > cursor:
                stall += stall_end - cursor
                cursor = stall_end
            idle += cycles - cursor
        return (*sums, stall, idle)
