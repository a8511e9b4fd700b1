"""Per-layer host-time accounting, installed from outside the simulator.

Every timed function is replaced, for the length of one ``repro.api.run``
call, by a wrapper that keeps a ``perf_counter_ns`` span stack.  A span's
*self* time is its duration minus the spans it encloses, so the self times
of all spans add up to the time spent inside the outermost spans, and
``wall - sum(self)`` is the part of the call no layer accounts for.

Two phases keep the numbers honest:

* setup layers (trace generation, scheme construction, tree init) are
  wrapped for the whole call;
* simulation layers are wrapped only while ``Simulator.run`` executes.
  Tree initialization calls ``PositionMap.leaf_of`` once per block, so
  wrapping it during setup would charge setup with a million wrapper
  calls and book them as translation work.

Nothing under ``src/`` is edited: wrappers are class or module attributes
set here and restored (or deleted, for inherited methods) on exit.
"""

from __future__ import annotations

import functools
import importlib
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

SETUP = "setup"
SIM = "sim"

LLC_TARGETS = tuple(
    f"repro.cache.llc:LastLevelCache.{name}"
    for name in (
        "probe", "access", "insert", "find_dirty_lru", "evict_for_writeback"
    )
)
DRAM_TARGETS = (
    "repro.mem.dram:DRAMModel.service_decomposed",
    "repro.mem.dram:DRAMModel.service_batch",
)

#: (self-time metric, phase, wrapped targets as ``module:Owner.attr``).
#: ``sim.loop`` (``Simulator.run``) is the simulation phase's root span and
#: is wrapped in every run, traced or not, to time setup and simulation.
LAYERS: Tuple[Tuple[str, str, Tuple[str, ...]], ...] = (
    ("traces.make_workload_s", SETUP, (
        "repro.sim.runner:make_workload",
    )),
    ("core.build_scheme.self_s", SETUP, (
        "repro.core.schemes:build_scheme",
    )),
    ("oram.tree.initialize_s", SETUP, (
        "repro.oram.tree:ORAMTree.initialize",
    )),
    ("cpu.advance_to.self_s", SIM, (
        "repro.cpu.processor:Processor.advance_to",
    )),
    ("sim.hierarchy.self_s", SIM, (
        "repro.sim.simulator:MemoryHierarchy.cpu_access",
        "repro.sim.simulator:MemoryHierarchy.on_completion",
    )),
    ("cache.llc_s", SIM, LLC_TARGETS),
    ("oram.controller.self_s", SIM, (
        "repro.oram.controller:PathORAMController.step",
        "repro.oram.controller:PathORAMController.full_access",
        "repro.oram.controller:PathORAMController.fetch_posmap_block",
        "repro.oram.controller:PathORAMController.dummy_path",
    )),
    ("oram.read_phase_s", SIM, (
        "repro.oram.tree:ORAMTree.read_and_clear",
        "repro.oram.tree:ORAMTree.place",
    )),
    ("oram.stash_s", SIM, (
        "repro.oram.stash:Stash.add",
        "repro.oram.stash:Stash.remove",
        "repro.oram.stash:Stash.path_pools",
        "repro.oram.stash:Stash.update_leaf",
    )),
    ("oram.translation_s", SIM, (
        "repro.oram.plb:PLB.lookup",
        "repro.oram.plb:PLB.contains",
        "repro.oram.plb:PLB.fill",
        "repro.oram.plb:PLB.mark_dirty",
        "repro.oram.plb:PLB.flush_dirty",
        "repro.oram.posmap:PositionMap.leaf_of",
        "repro.oram.posmap:PositionMap.remap",
        "repro.oram.posmap:PositionMap.restore",
        "repro.oram.posmap:PositionMap.discard",
    )),
    ("mem.dram_s", SIM, DRAM_TARGETS),
    ("core.ir_stash_s", SIM, (
        "repro.core.ir_stash:SStash.may_place",
        "repro.core.ir_stash:SStash.on_place",
        "repro.core.ir_stash:SStash.on_remove",
        "repro.core.ir_stash:SStash.lookup_by_address",
    )),
    ("core.ir_dwb_s", SIM, (
        "repro.core.ir_dwb:DWBEngine.dummy_slot",
    )),
    ("perf.batch_s", SIM, (
        "repro.oram.controller:PathORAMController.run_dummy_batch",
    )),
)

SIM_ROOT = "repro.sim.simulator:Simulator.run"
SIM_ROOT_METRIC = "sim.loop.self_s"

#: call-count metrics: the number of calls into the listed targets
CALL_METRICS: Tuple[Tuple[str, Tuple[str, ...]], ...] = (
    ("cpu.advance_to.calls", ("repro.cpu.processor:Processor.advance_to",)),
    ("cache.llc.calls", LLC_TARGETS),
    ("oram.step.calls", ("repro.oram.controller:PathORAMController.step",)),
    ("mem.dram.calls", DRAM_TARGETS),
)


def resolve(target: str) -> Tuple[object, str]:
    """``"pkg.mod:Owner.attr"`` -> (owner object, attribute name)."""
    module_name, _, path = target.partition(":")
    owner: object = importlib.import_module(module_name)
    *owners, attr = path.split(".")
    for name in owners:
        owner = getattr(owner, name)
    return owner, attr


class SpanTimer:
    """Self time and call count per wrapped target, via a span stack."""

    def __init__(self) -> None:
        #: child-time accumulators; index 0 collects top-level spans
        self.stack: List[int] = [0]
        #: target -> [self_ns, calls]
        self.cells: Dict[str, List[int]] = {}

    def wrap(self, target: str, fn):
        cell = self.cells.setdefault(target, [0, 0])
        stack = self.stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            stack.append(0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                cell[0] += elapsed - stack.pop()
                cell[1] += 1
                stack[-1] += elapsed

        return timed

    def self_s(self, targets) -> float:
        return sum(self.cells.get(t, (0, 0))[0] for t in targets) / 1e9

    def calls(self, targets) -> int:
        return sum(self.cells.get(t, (0, 0))[1] for t in targets)


@contextmanager
def patched(replacements: Dict[str, object]) -> Iterator[None]:
    """Set each target to its replacement; restore the originals on exit.

    An attribute the owner only inherited (``LastLevelCache.probe`` comes
    from ``SetAssocCache``) is shadowed on the owner and deleted again, so
    the base class and its other subclasses (the PLB's cache) stay untouched.
    """
    saved = []
    try:
        for target, value in replacements.items():
            owner, attr = resolve(target)
            own = vars(owner)
            saved.append((owner, attr, attr in own, own.get(attr)))
            setattr(owner, attr, value)
        yield
    finally:
        for owner, attr, had_own, before in reversed(saved):
            if had_own:
                setattr(owner, attr, before)
            else:
                delattr(owner, attr)


def current(target: str):
    """The attribute a target currently resolves to on its owner."""
    owner, attr = resolve(target)
    return getattr(owner, attr)


@dataclass
class Probe:
    """What one instrumented ``repro.api.run`` call observed."""

    sim_start_ns: int = 0
    sim_end_ns: int = 0
    #: peak stash occupancy of the simulated controller
    stash_peak: int = 0
    timer: Optional[SpanTimer] = None
    layer_s: Dict[str, float] = field(default_factory=dict)
    calls: Dict[str, int] = field(default_factory=dict)

    def collect(self) -> None:
        timer = self.timer
        if timer is None:
            return
        for metric, _, targets in LAYERS:
            self.layer_s[metric] = timer.self_s(targets)
        self.layer_s[SIM_ROOT_METRIC] = timer.self_s((SIM_ROOT,))
        for metric, targets in CALL_METRICS:
            self.calls[metric] = timer.calls(targets)


def _layer_targets(phase: str) -> List[str]:
    return [t for _, p, targets in LAYERS if p == phase for t in targets]


@contextmanager
def instrument(traced: bool) -> Iterator[Probe]:
    """Instrument one ``repro.api.run`` call made inside the block.

    Untraced, only ``Simulator.run`` is wrapped (one call per run) to
    record where setup ends and simulation begins.  Traced, every layer in
    :data:`LAYERS` is timed as well.
    """
    probe = Probe(timer=SpanTimer() if traced else None)
    timer = probe.timer
    sim_run = current(SIM_ROOT)
    if timer is not None:
        sim_run = timer.wrap(SIM_ROOT, sim_run)
        sim_patches = {t: timer.wrap(t, current(t)) for t in _layer_targets(SIM)}
        setup_patches = {
            t: timer.wrap(t, current(t)) for t in _layer_targets(SETUP)
        }
    else:
        sim_patches = {}
        setup_patches = {}
    clock = time.perf_counter_ns

    def run(simulator, *args, **kwargs):
        probe.sim_start_ns = clock()
        try:
            with patched(sim_patches):
                return sim_run(simulator, *args, **kwargs)
        finally:
            probe.sim_end_ns = clock()
            probe.stash_peak = simulator.controller.stash.peak_occupancy

    with patched({SIM_ROOT: run, **setup_patches}):
        yield probe
    probe.collect()
