"""A trace-driven approximation of the 4-issue out-of-order core (Table I).

The model captures the processor behaviours that matter to an ORAM study:

* *when misses reach the memory system* — instruction gaps divided by peak
  issue width, with bursty clusters straight from the trace;
* *when the core stalls on reads* — a read may be outstanding only while
  the ROB can cover it, and at most ``max_outstanding_reads`` reads overlap
  (the memory-level-parallelism limit);
* *write backpressure* — writes retire through a finite write buffer; the
  core keeps running until ``write_buffer`` write-allocate fetches are in
  flight, then stalls for the oldest.  Without this, write-heavy programs
  would unrealistically race through their traces and leave the ORAM
  draining a giant backlog with no timing-protection dummy slots at all.

The processor does not touch the LLC itself; it hands each trace record
to whatever memory hierarchy the simulator wires in, and is told about
completions via :meth:`Processor.complete`.

It reads the trace's packed records (``Trace.packed``: gap, block and
is_write per record) in place, as the C front end (``drain_slots``)
does.  The state is flat ``array('q')`` buffers, which the C front end
indexes as well:

* ``_clock`` — the clock, the trace index, the retired instructions, the
  finish time (-1 until the run is done), then the head and the length
  of each queue;
* ``_reads`` and ``_writes`` — rings of outstanding fetches, three items
  per entry: issue time, token and completion time (-1 until the fetch
  completes).  The blocking rules bound them: ``max_outstanding_reads``
  reads (at least one) and ``write_buffer`` writes.
"""

from __future__ import annotations

from array import array
from typing import Callable, Optional

from .. import stats_keys as sk
from ..config import CPUConfig
from ..stats import Stats
from ..traces.trace import Trace

#: The hierarchy callback, called with (block, is_write, time) per trace
#: record: returns ``None`` for a hit (or a merged write), or a token
#: identifying an outstanding fetch the processor must eventually see
#: completed.  Several outstanding entries may share a token; one
#: :meth:`Processor.complete` completes them all.
HierarchyFn = Callable[[int, bool, int], Optional[int]]

#: Fields of ``Processor._clock``.
(CPU_TIME, TRACE_INDEX, RETIRED, FINISH, READ_HEAD, READ_COUNT, WRITE_HEAD,
 WRITE_COUNT) = range(8)
#: Items per queue entry: issue time, token, completion (-1: pending).
ENTRY = 3
PENDING = -1


def read_capacity(config: CPUConfig) -> int:
    """Entries the read ring needs: the MLP limit, and at least one (the
    limit binds only once a read is outstanding)."""
    return max(1, config.max_outstanding_reads)


class Processor:
    """Replays a trace against a memory hierarchy with OoO-style slack."""

    def __init__(
        self,
        trace: Trace,
        config: CPUConfig,
        stats: Optional[Stats] = None,
    ) -> None:
        self.trace = trace
        self.config = config
        self.stats = stats if stats is not None else Stats()
        self._clock = array("q", [0, 0, 0, -1, 0, 0, 0, 0])
        self._reads = array("q", [0]) * (ENTRY * read_capacity(config))
        self._writes = array("q", [0]) * (ENTRY * config.write_buffer)
        self._rob_reach = config.rob_size // config.issue_width

    # -- state ----------------------------------------------------------------------
    @property
    def cpu_time(self) -> int:
        return self._clock[CPU_TIME]

    @property
    def trace_index(self) -> int:
        """Trace records issued so far."""
        return self._clock[TRACE_INDEX]

    @property
    def retired_instructions(self) -> int:
        return self._clock[RETIRED]

    @property
    def finish_time(self) -> Optional[int]:
        finish = self._clock[FINISH]
        return None if finish < 0 else finish

    # -- hierarchy feedback ----------------------------------------------------
    def complete(self, token: int, time: int) -> None:
        """The fetch behind ``token`` arrived at ``time``: every pending
        entry holding the token completes."""
        clock = self._clock
        for ring, head_at in ((self._reads, READ_HEAD),
                              (self._writes, WRITE_HEAD)):
            cap = len(ring) // ENTRY
            head = clock[head_at]
            for i in range(clock[head_at + 1]):
                at = ENTRY * ((head + i) % cap)
                if ring[at + 1] == token and ring[at + 2] == PENDING:
                    ring[at + 2] = time

    # -- execution ----------------------------------------------------------------
    @property
    def done(self) -> bool:
        clock = self._clock
        return (
            clock[TRACE_INDEX] >= len(self.trace)
            and not clock[READ_COUNT]
            and not clock[WRITE_COUNT]
        )

    def trace_exhausted(self) -> bool:
        return self._clock[TRACE_INDEX] >= len(self.trace)

    def advance_to(self, now: int, hierarchy: HierarchyFn) -> None:
        """Execute forward until ``cpu_time`` passes ``now`` or the core blocks."""
        records = self.trace.packed
        count = len(records) // 3
        clock = self._clock
        width = self.config.issue_width
        while True:
            self._retire_ready(self._reads, READ_HEAD)
            self._retire_ready(self._writes, WRITE_HEAD)
            if clock[TRACE_INDEX] >= count:
                self._drain()
                return
            blocker = self._blocking_queue()
            if blocker is not None:
                if not self._unblock(*blocker):
                    self.stats.inc(sk.CPU_BLOCK_EVENTS)
                    return
                continue
            if clock[CPU_TIME] > now:
                return
            at = 3 * clock[TRACE_INDEX]
            gap, block, is_write = (
                records[at], records[at + 1], records[at + 2] != 0
            )
            clock[TRACE_INDEX] += 1
            clock[RETIRED] += gap
            clock[CPU_TIME] += max(1, gap // width)
            token = hierarchy(block, is_write, clock[CPU_TIME])
            if token is None:
                continue
            if is_write:
                self._push(self._writes, WRITE_HEAD, token)
                self.stats.inc(sk.CPU_WRITE_MISSES_ISSUED)
            else:
                self._push(self._reads, READ_HEAD, token)
                self.stats.inc(sk.CPU_READ_MISSES_ISSUED)

    # -- the rings --------------------------------------------------------------------
    def _push(self, ring: "array[int]", head_at: int, token: int) -> None:
        clock = self._clock
        count = clock[head_at + 1]
        at = ENTRY * ((clock[head_at] + count) % (len(ring) // ENTRY))
        ring[at] = clock[CPU_TIME]
        ring[at + 1] = token
        ring[at + 2] = PENDING
        clock[head_at + 1] = count + 1

    def _pop(self, ring: "array[int]", head_at: int) -> int:
        """Remove the head entry; returns its completion time."""
        clock = self._clock
        head = clock[head_at]
        clock[head_at] = (head + 1) % (len(ring) // ENTRY)
        clock[head_at + 1] -= 1
        return ring[ENTRY * head + 2]

    def _drain(self) -> None:
        """Past the last record: retire whatever has completed already."""
        clock = self._clock
        for ring, head_at in ((self._reads, READ_HEAD),
                              (self._writes, WRITE_HEAD)):
            while clock[head_at + 1] and (
                ring[ENTRY * clock[head_at] + 2] != PENDING
            ):
                completion = self._pop(ring, head_at)
                if completion > clock[CPU_TIME]:
                    clock[CPU_TIME] = completion
        if not clock[READ_COUNT] and not clock[WRITE_COUNT] and (
            clock[FINISH] < 0
        ):
            clock[FINISH] = clock[CPU_TIME]

    def _retire_ready(self, ring: "array[int]", head_at: int) -> None:
        """Retire head entries whose data has already arrived.

        Entries completing in the future are left in place: retiring them
        must advance the clock, which only :meth:`_unblock` (a stall) or
        :meth:`_drain` may do.
        """
        clock = self._clock
        while clock[head_at + 1]:
            completion = ring[ENTRY * clock[head_at] + 2]
            if completion == PENDING or completion > clock[CPU_TIME]:
                break
            self._pop(ring, head_at)

    def _blocking_queue(self):
        """Which outstanding queue, as (ring, head field), if any,
        prevents further issue."""
        clock = self._clock
        if clock[WRITE_COUNT] >= self.config.write_buffer:
            return self._writes, WRITE_HEAD
        if not clock[READ_COUNT]:
            return None
        if clock[READ_COUNT] >= self.config.max_outstanding_reads:
            return self._reads, READ_HEAD
        oldest_issue = self._reads[ENTRY * clock[READ_HEAD]]
        if clock[CPU_TIME] - oldest_issue > self._rob_reach:
            return self._reads, READ_HEAD
        return None

    def _unblock(self, ring: "array[int]", head_at: int) -> bool:
        """Stall until the queue's oldest entry completes, if time is known."""
        clock = self._clock
        if ring[ENTRY * clock[head_at] + 2] == PENDING:
            return False
        completion = self._pop(ring, head_at)
        if completion > clock[CPU_TIME]:
            self.stats.inc(sk.CPU_STALL_CYCLES, completion - clock[CPU_TIME])
            clock[CPU_TIME] = completion
        return True

    # -- scheduling hints -----------------------------------------------------------
    def next_request_time(self) -> Optional[int]:
        """Projected time of the next memory op, or None if blocked/done."""
        if self.trace_exhausted() or self._blocking_queue() is not None:
            return None
        gap = self.trace.packed[3 * self._clock[TRACE_INDEX]]
        return self._clock[CPU_TIME] + max(1, gap // self.config.issue_width)
