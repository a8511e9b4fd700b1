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

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from .. import stats_keys as sk
from ..cache.cache import EvictedLine
from ..cache.llc import LastLevelCache
from ..core.schemes import SimComponents
from ..config import env_number
from ..cpu.processor import MemoryOp, Processor
from ..errors import ProtocolError
from ..obs import events as ev
from ..obs.breakdown import CycleAttribution
from ..oram.controller import PathORAMController
from ..oram.types import Request, RequestKind
from ..stats import Stats
from ..traces.trace import Trace
from .results import SimulationResult


@dataclass
class _InFlight:
    """A demand fetch on its way through the ORAM."""

    request: Request
    want_dirty: bool
    tokens: List[int] = field(default_factory=list)


class MemoryHierarchy:
    """LLC plus the glue between processor, LLC, and ORAM controller."""

    def __init__(
        self,
        llc: LastLevelCache,
        controller: PathORAMController,
        stats: Stats,
    ) -> None:
        self.llc = llc
        self.controller = controller
        self.stats = stats
        self.delayed_remap = controller.delayed_remap
        self.in_flight: Dict[int, _InFlight] = {}
        self._next_token = 0
        self.last_demand_completion = 0

    # -- processor-facing ---------------------------------------------------
    def cpu_access(self, op: MemoryOp) -> Optional[int]:
        """LLC lookup for one L1 miss; returns a wait token on a read miss."""
        block = op.block
        flight = self.in_flight.get(block)
        if flight is not None:
            # MSHR-style merge: writes coalesce, reads wait for the fill.
            flight.request.merge()
            if op.is_write:
                flight.want_dirty = True
                return None
            return self._add_token(flight)
        if self.llc.probe(block):
            self.llc.access(block, op.is_write)  # counts the hit, moves LRU
            return None
        self.stats.inc(sk.LLC_MISSES)
        self.stats.inc(sk.HIERARCHY_DEMAND_MISSES)
        tracer = self.stats.tracer
        if tracer is not None:
            tracer.emit(
                ev.LLC_MISS, op.time, block=block, write=bool(op.is_write)
            )
        request = Request(
            block=block,
            kind=RequestKind.READ,
            arrival=op.time,
            is_write=op.is_write,
        )
        self.controller.enqueue(request)
        flight = _InFlight(request, want_dirty=op.is_write)
        self.in_flight[block] = flight
        # Both read misses and write-allocate fetches hand the processor a
        # token: reads gate the ROB/MLP window, writes the write buffer.
        return self._add_token(flight)

    def _add_token(self, flight: _InFlight) -> int:
        token = self._next_token
        self._next_token += 1
        flight.tokens.append(token)
        return token

    # -- controller-facing -----------------------------------------------------
    def on_completion(self, request: Request, processor: Processor) -> None:
        """Handle a completed controller request."""
        if request.completion is None:
            raise ProtocolError("completed request lacks a completion time")
        if request.kind is not RequestKind.READ:
            return
        flight = self.in_flight.pop(request.block, None)
        if flight is None:
            return  # internally generated access (e.g. IR-DWB)
        self.last_demand_completion = max(
            self.last_demand_completion, request.completion
        )
        tracer = self.stats.tracer
        if tracer is not None:
            tracer.emit(
                ev.ACCESS_END,
                request.completion,
                block=request.block,
                latency=request.completion - request.arrival,
                waiters=request.waiters,
            )
        evicted = self.llc.insert(request.block, dirty=flight.want_dirty)
        if evicted is not None:
            self.handle_eviction(evicted, request.completion)
        for token in flight.tokens:
            processor.complete(token, request.completion)

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


def batch_slots() -> int:
    """``REPRO_BATCH_SLOTS``: the most issue slots one ``drain_slots``
    call runs (default 256); 0 steps every slot through
    :meth:`PathORAMController.step`."""
    return env_number("REPRO_BATCH_SLOTS", 256)


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
        self.hierarchy = MemoryHierarchy(self.llc, self.controller, self.stats)
        self.processor = Processor(trace, components.config.cpu, self.stats)
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
        # runs consecutive issue slots in one drain_slots kernel call, up
        # to REPRO_BATCH_SLOTS of them, until the next event this loop
        # must see (docs/simulator.md, "The slot drain").  Observers,
        # tracers, checkpointers, and utilization or progress sampling
        # force one step() per slot, so each sees exactly the slots it
        # would have seen; cycles and counters are bit-identical either
        # way.  The knob is parsed on every run, so a malformed value
        # fails even a run that could not drain.
        drain_cap = batch_slots()
        if not (
            controller._serve
            and "step" not in vars(controller)
            and controller.observer is None
            and controller.slot_observer is None
            and checkpointer is None
            and tracer is None
            and snapshot_every == 0
            and progress_every == 0
        ):
            drain_cap = 0
        stats = self.stats

        while True:
            if tracer is not None:
                tracer.now = now
            processor.advance_to(now, hierarchy.cpu_access)
            trace_active = not processor.trace_exhausted()
            if drain_cap:
                # Until a completion reaches it, the processor does
                # nothing before its own clock, and a blocked one only
                # books the stall of each advance_to the drain skips.
                blocked = trace_active and processor.blocked()
                horizon = (
                    processor.cpu_time if trace_active and not blocked
                    else -1
                )
                completions, records, next_now, slots, idle = (
                    controller.drain_slots(
                        now, drain_cap, horizon, trace_active
                    )
                )
                if blocked and slots > 1:
                    stats.inc(sk.CPU_BLOCK_EVENTS, slots - 1)
                for request in completions:
                    hierarchy.on_completion(request, processor)
                if records:
                    attribution.on_paths(records)
                    last_finish = max(last_finish, records[-2])
                now = next_now
                if slots and not idle:
                    idle_iterations = 0
                    continue
                if slots > 1:
                    idle_iterations = 0
                result = None
            else:
                result = controller.step(now, allow_dummy=trace_active)

            if result is None:
                if processor.done and not controller.has_any_real_work() and (
                    not hierarchy.in_flight
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
            "in_flight": len(self.hierarchy.in_flight),
        }
        tracer.emit(ev.PROGRESS, now, **data)
        self.stats.record(sk.OBS_PROGRESS, now, data)
