"""The slot drain against per-slot stepping.

With no hook attached, the simulator's loop hands runs of consecutive
issue slots to one ``drain_slots`` kernel call (``REPRO_BATCH_SLOTS`` of
them at most); at ``REPRO_BATCH_SLOTS=0`` it calls ``step`` once per
slot, and the Python tier steps through the Python slot methods.  Whole
simulations on small trees with a tiny PLB (deep PosMap chains, PLB
victims, deferred re-inserts), both tree-top modes, LLC-D's re-inserts,
IR-DWB's converted dummy slots, a low eviction threshold and the timing
defense on and off must agree on every counter (``cpu.block_events``, which
the drain books for the stepping it skips, included), the cycles, the
cycle breakdown and the controller state.

The boundary cases drive ``PathORAMController.drain_slots`` directly
against a twin Python-tier controller stepped slot by slot under the
drain's stop rules.
"""

import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro import stats_keys as sk
from repro.config import SystemConfig
from repro.core.schemes import build_scheme
from repro.errors import ConfigError, ProtocolError
from repro.obs.breakdown import PATH_CODES
from repro.oram.controller import MAX_CONSECUTIVE_EVICTIONS
from repro.oram.stash import Stash
from repro.oram.types import Request, RequestKind
from repro.perf import native
from repro.sim.runner import make_workload
from repro.sim.simulator import Simulator
from repro.stats import Stats
from tests.conftest import CountingKernels
from tests.tiers import TRANSLATION, snapshot

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
    return (config, draw(st.sampled_from(SCHEMES)),
            draw(st.sampled_from(["random", "mix", "xal"])),
            draw(st.integers(0, 99)))


def _simulate(config, scheme, workload, seed, monkeypatch, slots,
              natives=True):
    monkeypatch.setenv("REPRO_BATCH_SLOTS", str(slots))
    components = build_scheme(scheme, config, Stats(), random.Random(seed))
    controller = components.controller
    if not natives:
        controller._native = None
    kernels = CountingKernels(controller._native) if natives else None
    if natives:
        controller._native = kernels
    trace = make_workload(workload, config, 300, seed)
    result = Simulator(components, trace).run()
    fingerprint = (
        result.cycles,
        sorted(result.counters.items()),
        result.breakdown.to_dict(),
        snapshot(controller, TRANSLATION + ("histograms",)),
        controller._consecutive_evictions,
    )
    return fingerprint, kernels, controller


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
    assert "serve_request" not in kernels.calls


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


def _stepped(controller, now, cap, horizon=-1, allow_dummy=True):
    """What ``drain_slots`` returns, by one ``step`` per slot under its
    stop rules, the clock advanced as the simulator's loop advances it."""
    oram = controller.oram
    completions, records, slots, idle = [], [], 0, False
    while slots < cap and not (horizon >= 0 and now >= horizon):
        result = controller.step(now, allow_dummy)
        slots += 1
        if result is None:
            idle = True
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
        if any(r.kind is RequestKind.READ for r in result.completions):
            break
    return completions, records, now, slots, idle


def _check(kernel, python, now, cap, horizon=-1, allow_dummy=True):
    """Drain the kernel twin, step the Python twin; both must agree."""
    completions, records, next_now, slots, idle = kernel.drain_slots(
        now, cap, horizon, allow_dummy
    )
    expected = _stepped(python, now, cap, horizon, allow_dummy)
    got = (completions, list(records), next_now, slots, idle)
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
    _enqueue((kernel, python), 5)
    before = _state(kernel)
    _, _, now, slots, idle = _check(kernel, python, 0, cap)
    assert slots == cap and not idle
    if cap == 0:
        assert now == 0 and _state(kernel) == before


def test_horizon_at_now_runs_nothing():
    kernel, python = _pair()
    _enqueue((kernel, python), 5)
    before = _state(kernel)
    assert _check(kernel, python, 700, 64, horizon=700)[2:] == (700, 0,
                                                                 False)
    assert _state(kernel) == before


def test_empty_queue_runs_dummies_up_to_the_cap():
    kernel, python = _pair()
    _, records, now, slots, idle = _check(kernel, python, 0, 40)
    assert slots == 40 and not idle and len(records) == 5 * 40
    assert set(records[::5]) == {PATH_CODES["PTm"]}
    assert kernel.tier_counters()[sk.ENGINE_TIER_BATCH_PATHS] == 40


def test_empty_queue_without_dummies_is_idle():
    kernel, python = _pair()
    assert _check(kernel, python, 0, 40, allow_dummy=False)[1:] == (
        [], 0, 1, True
    )


def test_head_not_yet_arrived_waits_behind_dummies():
    kernel, python = _pair()
    _enqueue((kernel, python), 7, arrival=3000)
    completions, records, _, _, _ = _check(kernel, python, 0, 64)
    assert [r.block for r in completions] == [7]
    # Dummy slots until the arrival, then the request's slots.
    starts = records[1::5]
    assert records[0] == PATH_CODES["PTm"] and starts[0] < 3000
    assert starts[-1] >= 3000


def test_read_completion_on_the_first_slot_ends_the_drain():
    kernel, python = _pair()
    # Reading block 9 fetches its PosMap chain into the PLB, and the
    # drain stops after the slot that completes it.  Block 8 shares its
    # PosMap1 block, so its read completes in its first slot (its data
    # path, or an on-chip serve), and that drain stops after one slot.
    _enqueue((kernel, python), 9)
    completions, _, now, _, _ = _check(kernel, python, 0, 64)
    assert [r.block for r in completions] == [9]
    _enqueue((kernel, python), 8, arrival=now)
    completions, _, _, slots, _ = _check(kernel, python, now, 64)
    assert slots == 1 and [r.block for r in completions] == [8]


def test_write_back_completions_do_not_end_the_drain():
    kernel, python = _pair()
    for block in (3, 11, 19):
        _enqueue((kernel, python), block, kind=RequestKind.WRITEBACK)
    completions, _, _, slots, _ = _check(kernel, python, 0, 64)
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
    _, records, now, _, _ = _check(kernel, python, 0, 1)
    assert records[::5] == [PATH_CODES["evict"]]
    assert kernel._consecutive_evictions == MAX_CONSECUTIVE_EVICTIONS
    # At the limit, with the stash still over the threshold, the slot
    # yields to the waiting request, counts the yield and resets it.
    assert kernel.stash.over_threshold(0)
    _, records, now, _, _ = _check(kernel, python, now, 1)
    assert records[::5] == [PATH_CODES["PTp.pos2"]]
    assert kernel.stats.get(sk.EVICTION_STORM_YIELDS) == 1
    assert kernel._consecutive_evictions == 0
    # The drain goes on evicting and yielding exactly as stepping does.
    _check(kernel, python, now, 200)


def test_timing_defense_off_advances_one_cycle_past_each_path():
    kernel, python = _pair(timing_protection=False)
    for block in (2, 30, 40):
        _enqueue((kernel, python), block, kind=RequestKind.WRITEBACK)
    _, records, _, _, idle = _check(kernel, python, 0, 64)
    assert idle and records
    assert records[4::5] == records[3::5]


def test_malformed_calls_touch_nothing():
    kernel, _ = _pair()
    before = _state(kernel)
    for args in ((-1, 4, -1, 0, 0), (0, -1, -1, 0, 0), (0, 4, -2, 0, 0),
                 (0, 4, -1, 3, 0), (0, 4, -1, 0, -1)):
        with pytest.raises(ValueError):
            kernel._native.drain_slots(kernel._kstate, *args)
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
@pytest.mark.parametrize("knob", ["REPRO_AUDIT", "REPRO_BATCH_SLOTS"])
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
