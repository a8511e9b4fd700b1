"""The processor model as it was before its state moved into arrays.

:class:`ReferenceProcessor` keeps each outstanding queue in a deque of
(issue time, token) pairs and the completion times in a dict keyed by
token.  ``tests/test_processor.py`` runs every case against it and
against :class:`repro.cpu.processor.Processor`, whose rings and clock
array the C front end shares; the two must agree.
"""

from collections import deque
from typing import Deque, Dict, Optional, Tuple

from repro import stats_keys as sk
from repro.config import CPUConfig
from repro.stats import Stats
from repro.traces.trace import Trace


class ReferenceProcessor:
    """The processor over a deque per queue and a dict of completions."""

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
    def trace_index(self) -> int:
        return self._index

    @property
    def done(self) -> bool:
        return (
            self._index >= len(self.trace.records)
            and not self._reads
            and not self._writes
        )

    def trace_exhausted(self) -> bool:
        return self._index >= len(self.trace.records)

    def outstanding_reads(self) -> int:
        return len(self._reads)

    def advance_to(self, now: int, hierarchy) -> None:
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
            token = hierarchy(block, is_write, self.cpu_time)
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
