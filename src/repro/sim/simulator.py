"""The closed-loop full-system simulator.

Wires the trace-driven processor, the LLC, and the ORAM controller into
one timeline.  The ORAM controller owns the clock: with the timing-channel
defense on, path accesses issue one per T cycles (and at least one path
service apart when memory is the bottleneck), with dummy slots — possibly
converted by IR-DWB — filling gaps while the program computes.  Request
arrivals emerge from the processor model, so dummy-path opportunity and
queueing delay are both workload-dependent, as in the paper.
"""

from __future__ import annotations

from array import array
from typing import List, Optional

from .. import stats_keys as sk
from ..cache.cache import EvictedLine
from ..cache.llc import LastLevelCache
from ..core.schemes import SimComponents
from ..cpu.processor import Processor, read_capacity
from ..errors import ProtocolError
from ..obs import events as ev
from ..obs.breakdown import CycleAttribution
from ..oram.controller import PathORAMController
from ..oram.types import Request, RequestKind
from ..perf.native import DRAIN_DONE
from ..stats import Stats
from ..traces.trace import Trace
from .results import SimulationResult


class MemoryHierarchy:
    """LLC plus the glue between processor, LLC, and ORAM controller.

    Demand fetches in flight are a table keyed by block, shared with the
    C front end: row ``r`` is ``_flights[r]`` (-1: free),
    ``_flight_dirty[r]`` and ``_flight_requests[r]``; each fetch holds a
    processor queue entry, so the queues bound it (``capacity`` rows).
    """

    def __init__(
        self,
        llc: LastLevelCache,
        controller: PathORAMController,
        stats: Stats,
        capacity: int,
    ) -> None:
        self.llc = llc
        self.controller = controller
        self.stats = stats
        self.delayed_remap = controller.delayed_remap
        self._flights = array("q", [-1]) * capacity
        self._flight_dirty = array("q", [0]) * capacity
        self._flight_requests: List[Optional[Request]] = [None] * capacity
        self._state = array("q", [0])

    @property
    def last_demand_completion(self) -> int:
        return self._state[0]

    def in_flight_count(self) -> int:
        return len(self._flights) - self._flights.count(-1)

    def _row(self, block: int) -> int:
        """The table row of ``block``'s fetch, or -1.  Most accesses find
        no fetch in flight, so the membership test (a C scan) comes first
        and the miss raises nothing."""
        flights = self._flights
        return flights.index(block) if block in flights else -1

    # -- processor-facing ---------------------------------------------------
    def cpu_access(self, block: int, is_write: bool, time: int) -> Optional[int]:
        """LLC lookup for one L1 miss; returns a wait token (the block) on
        a read miss or a write-allocate fetch."""
        row = self._row(block)
        if row >= 0:
            # MSHR-style merge: writes coalesce, reads wait for the fill.
            self._flight_requests[row].merge()
            if is_write:
                self._flight_dirty[row] = 1
                return None
            return block
        if self.llc.hit(block, is_write):  # counts the hit, moves LRU
            return None
        self.stats.inc(sk.LLC_MISSES)
        self.stats.inc(sk.HIERARCHY_DEMAND_MISSES)
        tracer = self.stats.tracer
        if tracer is not None:
            tracer.emit(ev.LLC_MISS, time, block=block, write=bool(is_write))
        request = Request(block, RequestKind.READ, time, is_write)
        self.controller.enqueue(request)
        row = self._flights.index(-1)
        self._flights[row] = block
        self._flight_dirty[row] = 1 if is_write else 0
        self._flight_requests[row] = request
        # Both read misses and write-allocate fetches hand the processor a
        # token: reads gate the ROB/MLP window, writes the write buffer.
        return block

    # -- controller-facing -----------------------------------------------------
    def on_completion(self, request: Request, processor: Processor) -> None:
        """Handle a completed controller request."""
        if request.completion is None:
            raise ProtocolError("completed request lacks a completion time")
        if request.kind is not RequestKind.READ:
            return
        row = self._row(request.block)
        if row < 0:
            return  # internally generated access (e.g. IR-DWB)
        want_dirty = self._flight_dirty[row]
        self._flights[row] = -1
        self._flight_requests[row] = None
        if request.completion > self._state[0]:
            self._state[0] = request.completion
        tracer = self.stats.tracer
        if tracer is not None:
            tracer.emit(
                ev.ACCESS_END,
                request.completion,
                block=request.block,
                latency=request.completion - request.arrival,
                waiters=request.waiters,
            )
        evicted = self.llc.insert(request.block, dirty=bool(want_dirty))
        if evicted is not None:
            self.handle_eviction(evicted, request.completion)
        processor.complete(request.block, request.completion)

    def handle_eviction(self, evicted: EvictedLine, time: int) -> None:
        if self.delayed_remap:
            kind = RequestKind.REINSERT
        elif evicted.dirty:
            kind = RequestKind.WRITEBACK
        else:
            return
        self.controller.enqueue(
            Request(block=evicted.block, kind=kind, arrival=time,
                    is_write=evicted.dirty)
        )


#: The most issue slots one ``drain_slots`` call runs.  The drain stops
#: for nothing Python has to see, so this only sets how often the loop
#: turns; cycles and counters are the same for every value.
DRAIN_CHUNK = 256


class Simulator:
    """Drives one trace through one scheme's memory system."""

    #: safety valve: abort runs that stop making forward progress
    MAX_IDLE_ITERATIONS = 10_000

    def __init__(self, components: SimComponents, trace: Trace) -> None:
        self.components = components
        self.trace = trace
        self.stats = components.stats
        self.controller = components.controller
        self.llc = components.llc
        cpu = components.config.cpu
        self.hierarchy = MemoryHierarchy(
            self.llc, self.controller, self.stats,
            read_capacity(cpu) + cpu.write_buffer,
        )
        self.processor = Processor(trace, cpu, self.stats)
        #: optional mid-run checkpoint hook (see repro.sim.checkpoint);
        #: consulted between issue slots, never inside one, so captured
        #: state is always at a well-defined protocol boundary.
        self.checkpointer = None
        # Loop state lives on the instance (not in run()-local variables)
        # so a checkpoint can freeze a run between two issue slots and a
        # resumed simulator continues exactly where the original stopped.
        self._started = False
        self._now = 0
        self._last_finish = 0
        self._idle_iterations = 0
        self._attribution: Optional[CycleAttribution] = None
        self._snapshot_every = 0

    def run(self, utilization_snapshots: int = 0) -> SimulationResult:
        """Run to completion and return the result summary.

        ``utilization_snapshots``: if nonzero, record per-level tree
        utilization that many times, evenly spaced in path count (Fig. 3).
        """
        if self._started:
            raise ProtocolError(
                "Simulator.run() called twice; use resume() to continue a "
                "checkpointed run"
            )
        self._started = True
        self._attribution = CycleAttribution()
        if utilization_snapshots:
            expected_paths = max(1, 2 * len(self.trace))
            self._snapshot_every = max(
                1, expected_paths // utilization_snapshots
            )
            self._record_utilization(0)
        return self._loop()

    def resume(self) -> SimulationResult:
        """Continue a run restored from a mid-stream checkpoint.

        The loop state (clock, attribution, idle bookkeeping) was frozen
        between two issue slots, so continuing produces cycles and
        counters bit-identical to the uninterrupted run.
        """
        if not self._started:
            raise ProtocolError("resume() on a simulator that never ran")
        return self._loop()

    def _front_end(self):
        """The C front end over this run's trace records, processor, LLC
        and in-flight table, for ``drain_slots``."""
        return self.controller._native.FrontEnd(
            self.trace.packed, self.processor, self.llc, self.hierarchy,
            Request, self.MAX_IDLE_ITERATIONS,
        )

    def _loop(self) -> SimulationResult:
        controller = self.controller
        processor = self.processor
        hierarchy = self.hierarchy
        oram = self.components.config.oram
        interval = oram.issue_interval
        tracer = self.stats.tracer
        progress_every = tracer.progress_every if tracer is not None else 0
        attribution = self._attribution
        snapshot_every = self._snapshot_every

        now = self._now
        last_finish = self._last_finish
        idle_iterations = self._idle_iterations
        checkpointer = self.checkpointer

        # The slot drain: with no hook attached, a serve-tier controller
        # runs this whole loop in drain_slots kernel calls of up to
        # DRAIN_CHUNK slots, which return early only for an IR-DWB dummy
        # slot (its completions handed back) and at the end of the run
        # (docs/simulator.md, "The slot drain").  Any hook forces one
        # step() per slot, so it sees exactly the slots it would have
        # seen; cycles and counters are bit-identical either way.
        front = self._front_end() if (
            controller._serve
            and "step" not in vars(controller)
            and controller.observer is None
            and controller.slot_observer is None
            and checkpointer is None
            and tracer is None
            and snapshot_every == 0
            and progress_every == 0
        ) else None

        while True:
            if front is not None:
                completions, records, now, _, stop, idle_iterations = (
                    controller.drain_slots(
                        now, DRAIN_CHUNK, front=front, idle=idle_iterations
                    )
                )
                for request in completions:
                    hierarchy.on_completion(request, processor)
                if records:
                    attribution.on_paths(records)
                    last_finish = max(last_finish, records[-2])
                if stop == DRAIN_DONE:
                    break
                continue
            if tracer is not None:
                tracer.now = now
            processor.advance_to(now, hierarchy.cpu_access)
            result = controller.step(
                now, allow_dummy=not processor.trace_exhausted()
            )
            if result is None:
                if processor.done and not controller.has_any_real_work() and (
                    not hierarchy.in_flight_count()
                ):
                    break
                idle_iterations += 1
                if idle_iterations > self.MAX_IDLE_ITERATIONS:
                    raise ProtocolError("simulation stopped making progress")
                now = self._advance_idle(now)
                continue
            idle_iterations = 0

            for request in result.completions:
                hierarchy.on_completion(request, processor)
            if result.issued_path:
                last_finish = max(last_finish, result.finish_write)
                if oram.timing_protection:
                    stall_until = now + interval
                    now = max(stall_until, result.finish_write)
                else:
                    stall_until = result.finish_write
                    now = max(now + 1, result.finish_write)
                # ``_value_`` is the plain attribute behind the
                # ``Enum.value`` property, read once per issued path.
                attribution.on_path(
                    result.path_type._value_,
                    result.start,
                    result.finish_read,
                    result.finish_write,
                    stall_until,
                )
                if snapshot_every and controller.path_count % snapshot_every == 0:
                    self._record_utilization(now)
                if progress_every and (
                    controller.path_count % progress_every == 0
                ):
                    self._emit_progress(tracer, now)
            if checkpointer is not None and checkpointer.pending:
                # Flush loop state first so the frozen simulator resumes
                # from exactly this inter-slot boundary.
                self._now = now
                self._last_finish = last_finish
                self._idle_iterations = idle_iterations
                checkpointer.take(self)

        # Controllers that defer write phases (Palermo-style decoupling)
        # flush them before the run is summarized.
        drain = getattr(controller, "drain_background", None)
        if drain is not None:
            last_finish = max(last_finish, drain(now))

        self._now = now
        self._last_finish = last_finish
        self._idle_iterations = idle_iterations
        cycles = max(
            processor.finish_time or 0,
            hierarchy.last_demand_completion,
        )
        if cycles == 0:
            cycles = last_finish
        self.stats.set(sk.SIM_CYCLES, cycles)
        self.stats.set(sk.SIM_INSTRUCTIONS, processor.retired_instructions)
        return SimulationResult.from_run(
            trace_name=self.trace.name,
            cycles=cycles,
            instructions=processor.retired_instructions,
            stats=self.stats,
            controller=controller,
            breakdown=attribution.finalize(cycles),
        )

    def _advance_idle(self, now: int) -> int:
        """Nothing issued: jump to the next time anything can happen."""
        candidates = []
        arrival = self.controller.next_arrival()
        if arrival is not None:
            candidates.append(arrival)
        projected = self.processor.next_request_time()
        if projected is not None:
            candidates.append(projected)
        if not candidates:
            # The processor is blocked, so a queued request must exist —
            # reaching here means the controller refused to service it.
            raise ProtocolError("idle with a blocked processor")
        return max(now + 1, min(candidates))

    def _record_utilization(self, now: int) -> None:
        snapshot = self.controller.tree.level_utilization()
        self.stats.record(sk.TREE_UTILIZATION, now, snapshot)

    def _emit_progress(self, tracer, now: int) -> None:
        """Periodic progress snapshot (``Tracer.progress_every`` paths)."""
        controller = self.controller
        data = {
            "paths": controller.path_count,
            "instructions": self.processor.retired_instructions,
            "stash": len(controller.stash),
            "in_flight": self.hierarchy.in_flight_count(),
        }
        tracer.emit(ev.PROGRESS, now, **data)
        self.stats.record(sk.OBS_PROGRESS, now, data)
