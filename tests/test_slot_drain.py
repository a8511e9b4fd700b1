"""The slot drain against per-slot stepping.

With no hook attached, the simulator's loop runs in ``drain_slots``
kernel calls: the processor and the LLC between slots, the completions
after them, idle slots and the end of the run, up to ``DRAIN_CHUNK``
slots a call.  With a hook attached (here a no-op slot observer) the
loop is Python and calls ``step`` once per slot, and the Python tier
steps through the Python slot methods.  Whole simulations on small trees
with a tiny PLB (deep PosMap chains, PLB victims, deferred re-inserts), both
tree-top modes, LLC-D's re-inserts, IR-DWB's converted dummy slots, a
low eviction threshold, the timing defense on and off and small cores
(ROB-reach, MLP and write-buffer blocks, merges into fetches in flight,
stalls) must agree on every counter, the cycles, the cycle breakdown,
the histograms, the controller state and the front end's.

The boundary cases drive ``PathORAMController.drain_slots`` directly:
without a front end against a twin Python-tier controller stepped slot
by slot, and with one against the Python loop.
"""

import random
from dataclasses import replace

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro import stats_keys as sk
from repro.cache.llc import LastLevelCache
from repro.config import CPUConfig, SystemConfig
from repro.cpu.processor import Processor
from repro.core.schemes import build_scheme
from repro.errors import ConfigError, ProtocolError
from repro.obs.breakdown import PATH_CODES
from repro.oram.controller import MAX_CONSECUTIVE_EVICTIONS
from repro.oram.stash import Stash
from repro.oram.types import Request, RequestKind
from repro.perf import native
from repro.security.mutants import MUTANTS, build_mutant
from repro.sim import simulator as simulator_module
from repro.sim.runner import make_workload
from repro.sim.simulator import MemoryHierarchy, Simulator
from repro.stats import Stats
from tests.conftest import CountingKernels
from tests.tiers import TRANSLATION, sim_snapshot, snapshot

pytestmark = pytest.mark.skipif(
    native.fastpath is None, reason="native kernels unavailable"
)

#: Schemes whose plain controller drains: the dedicated tree-top cache,
#: the S-Stash, LLC-D (re-insert requests) and IR-DWB (dummy slots the
#: caller fills).
SCHEMES = ("Baseline", "IR-Stash", "LLC-D", "IR-DWB")


@st.composite
def cases(draw):
    levels = draw(st.integers(5, 7))
    config = SystemConfig.tiny(
        levels=levels,
        top_cached_levels=draw(st.integers(0, levels - 2)),
        posmap_entry_bytes=16,  # 4 mappings per PosMap block: deep chains
        plb_sets=draw(st.sampled_from([1, 2])),
        plb_ways=draw(st.integers(1, 2)),
        eviction_threshold=draw(st.integers(0, 6)),
        allow_background_eviction=draw(st.booleans()),
        timing_protection=draw(st.booleans()),
        issue_interval=draw(st.sampled_from([50, 250])),
    )
    config = replace(config, cpu=CPUConfig(
        issue_width=draw(st.integers(1, 4)),
        rob_size=draw(st.sampled_from([8, 32, 128])),
        max_outstanding_reads=draw(st.integers(1, 4)),
        write_buffer=draw(st.integers(1, 4)),
    ))
    return (config, draw(st.sampled_from(SCHEMES)),
            draw(st.sampled_from(["random", "mix", "xal"])),
            draw(st.integers(0, 99)))


def _simulate(config, scheme, workload, seed, monkeypatch, slots,
              natives=True):
    """One run, ``slots`` slots a drain call; 0 steps every slot."""
    if slots:
        monkeypatch.setattr(simulator_module, "DRAIN_CHUNK", slots)
    components = build_scheme(scheme, config, Stats(), random.Random(seed))
    controller = components.controller
    controller.slot_observer = None if slots else (lambda result: None)
    if not natives:
        controller._native = None
    kernels = CountingKernels(controller._native) if natives else None
    if natives:
        controller._native = kernels
    trace = make_workload(workload, config, 300, seed)
    simulator = Simulator(components, trace)
    result = simulator.run()
    fingerprint = (
        result.cycles,
        sorted(result.counters.items()),
        result.breakdown.to_dict(),
        sim_snapshot(simulator),
        controller._consecutive_evictions,
    )
    return fingerprint, kernels, controller


def test_controllers_that_replace_slot_methods_never_drain():
    """Rho, Ring, Pyramid, Decoupled and the leaky mutants replace a slot
    method, the write burst or the remap, so the drain never runs them."""
    config = SystemConfig.tiny()
    built = [build_scheme(name, config).controller
             for name in ("Rho", "Ring", "Pyramid", "Decoupled")]
    built += [build_mutant(name, config).controller for name in MUTANTS]
    assert all(c._native is not None and not c._serve for c in built)


@settings(max_examples=40, deadline=None)
@given(case=cases())
def test_drain_matches_stepping_and_the_python_tier(case):
    config, scheme, workload, seed = case
    with pytest.MonkeyPatch.context() as patch:
        try:
            drained, kernels, controller = _simulate(
                config, scheme, workload, seed, patch, 256
            )
        except ProtocolError:
            assume(False)  # the S-Stash cannot hold the initial tree top
        assert controller._serve
        one, _, _ = _simulate(config, scheme, workload, seed, patch, 1)
        stepped, stepping, _ = _simulate(
            config, scheme, workload, seed, patch, 0
        )
        python, _, _ = _simulate(
            config, scheme, workload, seed, patch, 256, natives=False
        )
    assert drained == one == stepped == python
    assert kernels.calls.get("drain_slots", 0) <= stepping.calls.get(
        "drain_slots", 0
    )


def test_small_cores_block_merge_and_stall(monkeypatch):
    """A narrow core with two reads and two writes in flight blocks,
    stalls, and merges accesses into fetches in flight; the drained run
    matches the Python loop on the Python tier, merge for merge."""
    config = replace(SystemConfig.tiny(levels=6), cpu=CPUConfig(
        issue_width=1, rob_size=32, max_outstanding_reads=2, write_buffer=2,
    ))
    runs, merges = [], []
    for natives, slots in ((True, 256), (False, 0)):
        made = []

        class Recorded(Request):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                made.append(self)

        monkeypatch.setattr(simulator_module, "Request", Recorded)
        fingerprint, _, _ = _simulate(config, "IR-DWB", "mix", 7,
                                      monkeypatch, slots, natives)
        runs.append(fingerprint)
        merges.append([(r.block, r.waiters) for r in made])
    counters = dict(runs[0][1])
    assert counters[sk.CPU_BLOCK_EVENTS] > 0
    assert counters[sk.CPU_STALL_CYCLES] > 0
    assert any(waiters > 1 for _, waiters in merges[0])
    assert merges[0] == merges[1]
    assert runs[0] == runs[1]


# ----------------------------------------------------------------------
# boundary cases, on the controller entry
# ----------------------------------------------------------------------
def _pair(scheme="Baseline", **oram):
    """A kernel-tier controller and its Python-tier twin."""
    config = SystemConfig.tiny(levels=6, **oram)
    kernel = build_scheme(scheme, config, Stats(), random.Random(3))
    python = build_scheme(scheme, config, Stats(), random.Random(3))
    python.controller._native = None
    assert kernel.controller._serve and not python.controller._tier
    return kernel.controller, python.controller


def _state(controller):
    return snapshot(controller, TRANSLATION + ("histograms",)) + (
        [(r.block, r.kind, r.completion, r.paths_used)
         for r in controller.queue],
        controller._consecutive_evictions,
    )


def _stepped(controller, now, cap, allow_dummy=True):
    """What ``drain_slots`` returns without a front end, by one ``step``
    per slot under its stop rules, the clock advanced as the simulator's
    loop advances it."""
    oram = controller.oram
    completions, records, slots, stop = [], [], 0, native.DRAIN_BOUNDARY
    while slots < cap:
        result = controller.step(now, allow_dummy)
        slots += 1
        if result is None:
            stop = native.DRAIN_IDLE
            break
        completions += result.completions
        if result.issued_path:
            if oram.timing_protection:
                stall_until = now + oram.issue_interval
                next_now = max(stall_until, result.finish_write)
            else:
                stall_until = result.finish_write
                next_now = max(now + 1, result.finish_write)
            records += [PATH_CODES[result.path_type.value], result.start,
                        result.finish_read, result.finish_write,
                        stall_until]
            now = next_now
    return completions, records, now, slots, stop, 0


def _check(kernel, python, now, cap, allow_dummy=True):
    """Drain the kernel twin, step the Python twin; both must agree."""
    completions, records, next_now, slots, stop, idle = kernel.drain_slots(
        now, cap, allow_dummy
    )
    expected = _stepped(python, now, cap, allow_dummy)
    got = (completions, list(records), next_now, slots, stop, idle)
    assert [(r.block, r.completion) for r in got[0]] == [
        (r.block, r.completion) for r in expected[0]
    ]
    assert got[1:] == expected[1:]
    assert _state(kernel) == _state(python)
    return got


def _enqueue(controllers, block, kind=RequestKind.READ, arrival=0):
    for controller in controllers:
        controller.enqueue(Request(block, kind, arrival))


@pytest.mark.parametrize("cap", [0, 1])
def test_cap_zero_and_one(cap):
    kernel, python = _pair()
    before = _state(kernel)
    _, records, now, _, _, _ = _check(kernel, python, 0, cap)
    assert records[::5] == [PATH_CODES["PTm"]] * cap
    assert (_state(kernel) == before) == (cap == 0)
    _enqueue((kernel, python), 5)
    before = _state(kernel)
    _, _, now, slots, stop, _ = _check(kernel, python, now, cap)
    assert slots == cap and stop == native.DRAIN_BOUNDARY
    if cap == 0:
        assert now == 0 and _state(kernel) == before


def test_empty_queue_runs_dummies_up_to_the_cap():
    kernel, python = _pair()
    _, records, now, slots, stop, _ = _check(kernel, python, 0, 40)
    assert slots == 40 and stop == native.DRAIN_BOUNDARY
    assert len(records) == 5 * 40
    assert set(records[::5]) == {PATH_CODES["PTm"]}
    assert kernel.tier_counters()[sk.ENGINE_TIER_BATCH_PATHS] == 40


def test_empty_queue_without_dummies_is_idle():
    kernel, python = _pair()
    assert _check(kernel, python, 0, 40, allow_dummy=False)[1:] == (
        [], 0, 1, native.DRAIN_IDLE, 0
    )


def test_head_not_yet_arrived_waits_behind_dummies():
    kernel, python = _pair()
    _enqueue((kernel, python), 7, arrival=3000)
    completions, records, _, _, _, _ = _check(kernel, python, 0, 64)
    assert [r.block for r in completions] == [7]
    # Dummy slots until the arrival, then the request's slots.
    starts = records[1::5]
    assert records[0] == PATH_CODES["PTm"] and starts[0] < 3000
    assert starts[-1] >= 3000


def test_read_completions_do_not_end_the_drain():
    kernel, python = _pair()
    # Reading block 9 fetches its PosMap chain into the PLB; block 8
    # shares its PosMap1 block, so its read completes in one slot.  The
    # drain runs on through both completions to its cap.
    _enqueue((kernel, python), 9)
    _enqueue((kernel, python), 8, arrival=2000)
    completions, _, _, slots, stop, _ = _check(kernel, python, 0, 64)
    assert [r.block for r in completions] == [9, 8]
    assert slots == 64 and stop == native.DRAIN_BOUNDARY


def test_write_back_completions_do_not_end_the_drain():
    kernel, python = _pair()
    for block in (3, 11, 19):
        _enqueue((kernel, python), block, kind=RequestKind.WRITEBACK)
    completions, _, _, slots, _, _ = _check(kernel, python, 0, 64)
    assert [r.block for r in completions] == [3, 11, 19]
    assert slots == 64


def _stash_leaf_buckets(controllers, count):
    """Move ``count`` user blocks from the leaf buckets into the stash,
    as a read phase would, on each twin alike."""
    for controller in controllers:
        tree, moved = controller.tree, 0
        bottom = controller.oram.levels - 1
        for position in range(controller.oram.leaves):
            for block in list(tree.bucket(bottom, position)):
                if block >= 0 and block < controller.oram.user_blocks \
                        and moved < count:
                    tree.remove(bottom, position, block)
                    controller.stash.add(block, controller.posmap.leaf_of(block))
                    moved += 1
        assert moved == count


def test_eviction_storm_yields_to_a_waiting_request():
    kernel, python = _pair(eviction_threshold=0, top_cached_levels=0)
    _stash_leaf_buckets((kernel, python), 24)
    # A streak one short of the limit and a waiting request: the slot
    # evicts, and the streak reaches the limit.
    for controller in (kernel, python):
        controller._consecutive_evictions = MAX_CONSECUTIVE_EVICTIONS - 1
    _enqueue((kernel, python), 13)
    _, records, now, _, _, _ = _check(kernel, python, 0, 1)
    assert records[::5] == [PATH_CODES["evict"]]
    assert kernel._consecutive_evictions == MAX_CONSECUTIVE_EVICTIONS
    # At the limit, with the stash still over the threshold, the slot
    # yields to the waiting request, counts the yield and resets it.
    assert kernel.stash.over_threshold(0)
    _, records, now, _, _, _ = _check(kernel, python, now, 1)
    assert records[::5] == [PATH_CODES["PTp.pos2"]]
    assert kernel.stats.get(sk.EVICTION_STORM_YIELDS) == 1
    assert kernel._consecutive_evictions == 0
    # The drain goes on evicting and yielding exactly as stepping does.
    _check(kernel, python, now, 200)


def test_timing_defense_off_advances_one_cycle_past_each_path():
    kernel, python = _pair(timing_protection=False)
    for block in (2, 30, 40):
        _enqueue((kernel, python), block, kind=RequestKind.WRITEBACK)
    _, records, _, _, stop, _ = _check(kernel, python, 0, 64)
    assert stop == native.DRAIN_IDLE and records
    assert records[4::5] == records[3::5]


def test_malformed_calls_touch_nothing():
    kernel, _ = _pair()
    before = _state(kernel)
    for args in ((-1, 4, 0, 0, 0), (0, -1, 0, 0, 0), (0, 4, 3, 0, 0),
                 (0, 4, -1, 0, 0), (0, 4, 0, -1, 0), (0, 4, 0, 0, -1)):
        with pytest.raises(ValueError):
            kernel._native.drain_slots(kernel._kstate, None, *args)
    with pytest.raises(TypeError):
        kernel._native.drain_slots(kernel._kstate, object(), 0, 4, 0, 0, 0)
    assert _state(kernel) == before


# ----------------------------------------------------------------------
# no Python victim-buffer work on the kernel tier
# ----------------------------------------------------------------------
def _victim_buffer_calls(natives, monkeypatch):
    from repro.oram.controller import PathORAMController

    calls = {"add": 0, "drain": 0}
    add, drain = Stash.add, PathORAMController._drain_posmap_reinserts

    def counted_add(self, *args, **kwargs):
        calls["add"] += 1
        return add(self, *args, **kwargs)

    def counted_drain(self):
        calls["drain"] += 1
        return drain(self)

    config = SystemConfig.tiny(plb_sets=1, plb_ways=2)
    components = build_scheme("IR-ORAM", config, Stats(), random.Random(4))
    if not natives:
        components.controller._native = None
    trace = make_workload("random", config, 300, 4)
    simulator = Simulator(components, trace)
    with monkeypatch.context() as patch:
        patch.setattr(Stash, "add", counted_add)
        patch.setattr(PathORAMController, "_drain_posmap_reinserts",
                      counted_drain)
        result = simulator.run()
    return calls, result


def test_kernel_tier_does_no_python_victim_buffer_work(monkeypatch):
    kernel_calls, kernel = _victim_buffer_calls(True, monkeypatch)
    python_calls, python = _victim_buffer_calls(False, monkeypatch)
    assert kernel.counters.get(sk.PLB_REINSERTS, 0) > 0
    assert kernel.counters.get(sk.POSMAP_WRITEBACK_PATHS, 0) > 0
    assert kernel_calls == {"add": 0, "drain": 0}
    assert python_calls["add"] > 100 and python_calls["drain"] > 10
    assert kernel.cycles == python.cycles
    assert kernel.counters == python.counters


# ----------------------------------------------------------------------
# malformed knobs fail before a pool starts
# ----------------------------------------------------------------------
@pytest.mark.parametrize("knob", ["REPRO_AUDIT"])
def test_malformed_run_knob_fails_before_the_pool(knob, monkeypatch):
    """A malformed per-run knob raises ``ConfigError`` from ``run_many``
    itself, not an ``EngineFaultError`` after the pool's retries."""
    from repro import api
    from repro.perf import engine

    started = []
    monkeypatch.setattr(engine, "engine_map",
                        lambda *args, **kwargs: started.append(args))
    monkeypatch.setenv(knob, "2x")
    specs = [
        api.RunSpec(scheme="Baseline", workload="random", records=50,
                    seed=seed, config=SystemConfig.tiny())
        for seed in (1, 2)
    ]
    with pytest.raises(ConfigError, match=knob):
        api.run_many(specs, jobs=2)
    assert not started


# ----------------------------------------------------------------------
# the front end in the kernel
# ----------------------------------------------------------------------
def test_untraced_run_is_one_kernel_loop(monkeypatch):
    """No Python processor, hierarchy or LLC method runs in a drained
    run: the loop turns once per DRAIN_CHUNK slots, and every path is a
    kernel path."""
    from repro.oram.controller import PathORAMController

    calls = {}
    targets = [
        (Processor, "advance_to"), (MemoryHierarchy, "cpu_access"),
        (MemoryHierarchy, "on_completion"), (LastLevelCache, "probe"),
        (LastLevelCache, "access"), (LastLevelCache, "insert"),
        (PathORAMController, "step"),
    ]
    for owner, name in targets:
        def counted(*args, _fn=getattr(owner, name), _name=name, **kwargs):
            calls[_name] = calls.get(_name, 0) + 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(owner, name, counted)
    monkeypatch.setattr(simulator_module, "DRAIN_CHUNK", 64)
    config = SystemConfig.tiny()
    components = build_scheme("Baseline", config, Stats(), random.Random(2))
    kernels = CountingKernels(components.controller._native)
    components.controller._native = kernels
    result = Simulator(components, make_workload("xal", config, 400, 2)).run()
    assert calls == {}
    slots = kernels.calls["drain_slots"]
    assert slots <= result.total_paths() // 64 + 2
    assert result.counters[sk.LLC_HITS] > 0
    tiers = components.controller.tier_counters()
    assert tiers[sk.ENGINE_TIER_KERNEL_PATHS] + tiers[
        sk.ENGINE_TIER_BATCH_PATHS] == result.total_paths()


def _front():
    config = SystemConfig.tiny(levels=6)
    components = build_scheme("Baseline", config, Stats(), random.Random(1))
    simulator = Simulator(components, make_workload("mix", config, 60, 1))
    return simulator, simulator._front_end()


def test_front_end_stops_at_the_cap_and_at_the_end():
    simulator, front = _front()
    controller = simulator.controller
    now, idle, stops = 0, 0, []
    while not stops or stops[-1] != native.DRAIN_DONE:
        completions, _, now, slots, stop, idle = controller.drain_slots(
            now, 16, front=front, idle=idle
        )
        assert completions == [] and slots <= 16
        assert stop == native.DRAIN_DONE or slots == 16
        stops.append(stop)
    assert len(stops) > 2
    processor = simulator.processor
    assert processor.done and processor.finish_time is not None
    assert simulator.hierarchy.in_flight_count() == 0
    assert not controller.queue
    # The run is over: another call finds it so after one idle slot.
    assert controller.drain_slots(now, 16, front=front, idle=idle)[2:5] == (
        now, 1, native.DRAIN_DONE
    )


def test_front_end_refuses_what_it_cannot_index():
    simulator, front = _front()
    controller, processor = simulator.controller, simulator.processor
    with pytest.raises(ValueError):
        controller._native.FrontEnd(
            simulator.trace.packed, _Short(processor), simulator.llc,
            simulator.hierarchy, Request, 10,
        )
    with pytest.raises(ValueError, match="three items per record"):
        controller._native.FrontEnd(
            simulator.trace.packed[:-1], processor, simulator.llc,
            simulator.hierarchy, Request, 10,
        )
    before = sim_snapshot(simulator)
    processor._clock[4] = 99  # the read queue's head
    with pytest.raises(ValueError):
        controller.drain_slots(0, 16, front=front)
    processor._clock[4] = 0
    assert sim_snapshot(simulator) == before


class _Short:
    """A processor whose read ring is one entry short."""

    def __init__(self, processor):
        self.__dict__.update(vars(processor))
        self._reads = processor._reads[:-3]
