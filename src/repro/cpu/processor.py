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

The processor does not touch the LLC itself; it emits :class:`MemoryOp`
events to whatever memory hierarchy the simulator wires in, and is told
about completions via :meth:`Processor.complete`.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Dict, Optional, Tuple

from .. import stats_keys as sk
from ..config import CPUConfig
from ..stats import Stats
from ..traces.trace import Trace


@dataclass(frozen=True)
class MemoryOp:
    """One L1 miss presented to the memory hierarchy."""

    block: int
    is_write: bool
    time: int


#: The hierarchy callback: returns ``None`` for a hit (or merged access)
#: after charging latency itself, or a token identifying an outstanding
#: fetch the processor must eventually see completed.
HierarchyFn = Callable[[MemoryOp], Optional[int]]


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
        self.cpu_time = 0
        self._index = 0
        #: outstanding reads / write-allocates as (issue_time, token)
        self._reads: Deque[Tuple[int, int]] = deque()
        self._writes: Deque[Tuple[int, int]] = deque()
        self._completed: Dict[int, int] = {}
        self._rob_reach = config.rob_size // config.issue_width
        self.retired_instructions = 0
        self.finish_time: Optional[int] = None

    # -- hierarchy feedback ----------------------------------------------------
    def complete(self, token: int, time: int) -> None:
        """A previously issued fetch's data arrived at ``time``."""
        self._completed[token] = time

    # -- execution ----------------------------------------------------------------
    @property
    def done(self) -> bool:
        return (
            self._index >= len(self.trace.records)
            and not self._reads
            and not self._writes
        )

    def trace_exhausted(self) -> bool:
        return self._index >= len(self.trace.records)

    def blocked(self) -> bool:
        """Whether an outstanding queue stops issue: :meth:`advance_to`
        then only books a block event until a completion arrives."""
        return self._blocking_queue() is not None

    def outstanding_reads(self) -> int:
        return len(self._reads)

    def advance_to(self, now: int, hierarchy: HierarchyFn) -> None:
        """Execute forward until ``cpu_time`` passes ``now`` or the core blocks."""
        records = self.trace.records
        while True:
            self._retire_ready(self._reads)
            self._retire_ready(self._writes)
            if self._index >= len(records):
                self._drain()
                return
            blocker = self._blocking_queue()
            if blocker is not None:
                if not self._unblock(blocker):
                    self.stats.inc(sk.CPU_BLOCK_EVENTS)
                    return
                continue
            if self.cpu_time > now:
                return
            gap, block, is_write = records[self._index]
            self._index += 1
            self.retired_instructions += gap
            self.cpu_time += max(1, gap // self.config.issue_width)
            op = MemoryOp(block, is_write, self.cpu_time)
            token = hierarchy(op)
            if token is None:
                continue
            if is_write:
                self._writes.append((self.cpu_time, token))
                self.stats.inc(sk.CPU_WRITE_MISSES_ISSUED)
            else:
                self._reads.append((self.cpu_time, token))
                self.stats.inc(sk.CPU_READ_MISSES_ISSUED)

    def _drain(self) -> None:
        """Past the last record: retire whatever has completed already."""
        for queue in (self._reads, self._writes):
            while queue and queue[0][1] in self._completed:
                _, token = queue.popleft()
                completion = self._completed.pop(token)
                if completion > self.cpu_time:
                    self.cpu_time = completion
        if not self._reads and not self._writes and self.finish_time is None:
            self.finish_time = self.cpu_time

    def _retire_ready(self, queue: Deque[Tuple[int, int]]) -> None:
        """Retire head entries whose data has already arrived.

        Entries completing in the future are left in place: retiring them
        must advance the clock, which only :meth:`_unblock` (a stall) or
        :meth:`_drain` may do.
        """
        while queue and queue[0][1] in self._completed:
            _, token = queue[0]
            if self._completed[token] > self.cpu_time:
                break
            self._completed.pop(token)
            queue.popleft()

    def _blocking_queue(self) -> Optional[Deque[Tuple[int, int]]]:
        """Which outstanding queue, if any, prevents further issue."""
        if len(self._writes) >= self.config.write_buffer:
            return self._writes
        if not self._reads:
            return None
        if len(self._reads) >= self.config.max_outstanding_reads:
            return self._reads
        oldest_issue, _ = self._reads[0]
        if self.cpu_time - oldest_issue > self._rob_reach:
            return self._reads
        return None

    def _unblock(self, queue: Deque[Tuple[int, int]]) -> bool:
        """Stall until the queue's oldest entry completes, if time is known."""
        _, token = queue[0]
        if token not in self._completed:
            return False
        completion = self._completed.pop(token)
        queue.popleft()
        if completion > self.cpu_time:
            self.stats.inc(sk.CPU_STALL_CYCLES, completion - self.cpu_time)
            self.cpu_time = completion
        return True

    # -- scheduling hints -----------------------------------------------------------
    def next_request_time(self) -> Optional[int]:
        """Projected time of the next memory op, or None if blocked/done."""
        if self.trace_exhausted() or self._blocking_queue() is not None:
            return None
        gap, _, _ = self.trace.records[self._index]
        return self.cpu_time + max(1, gap // self.config.issue_width)
