"""The kernel's served slot against the Python slot it replaces.

An untraced, unobserved kernel-tier controller runs each issue slot in a
one-slot ``drain_slots`` call, which serves each arrived head request
through the same code as ``serve_request``: the stash and S-Stash
probes, the translation walk, then the victim-buffer and eviction
priority check, and the first missing PosMap block's fetch or the
request's data path.  On small trees with a tiny PLB (so chains of
PosMap2 then PosMap1 fetches, PLB victims and deferred re-inserts are
common), drawn cached-top depth, both tree-top modes, LLC-D's delayed
remapping and a low eviction threshold, two identical controllers step
through the same drawn requests, one on the kernel tier and one on the
Python methods.  They must agree on every ``SlotResult``, every request's
completion, path count and translation flag, every counter (key, value
and type), the hit-level histogram, the RNG and all state.  A traced pair
(which runs the Python slot over the kernel's path entries) must also
agree event for event.
"""

import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import repro.mem.dram as dram_mod
from repro.config import DRAMConfig, ORAMConfig, SystemConfig
from repro.core.ir_stash import SStash
from repro.errors import ConfigError, ProtocolError
from repro.obs.sinks import MemorySink
from repro.obs.tracer import Tracer
from repro.oram.controller import PathORAMController
from repro.oram.types import Request, RequestKind
from repro.perf import native
from repro.stats import Stats
from tests.conftest import CountingKernels
from tests.tiers import TRANSLATION, snapshot

pytestmark = pytest.mark.skipif(
    native.fastpath is None, reason="native kernels unavailable"
)


@st.composite
def setups(draw):
    levels = draw(st.integers(4, 6))
    z = (draw(st.integers(1, 2)),) * (levels - 1) + (draw(st.integers(2, 4)),)
    # Up to about three quarters full (PosMap blocks add a third), so the
    # stash often holds blocks past a low eviction threshold.
    slots = sum(z_l << level for level, z_l in enumerate(z))
    fields = dict(
        levels=levels,
        user_blocks=draw(st.integers(slots // 8, (slots * 9) // 16)),
        z_per_level=z,
        top_cached_levels=draw(st.integers(0, levels - 2)),
        posmap_entry_bytes=16,  # 4 mappings per PosMap block: deep chains
        stash_capacity=200,
        eviction_threshold=draw(st.integers(0, 8)),
        plb_sets=draw(st.sampled_from([1, 2])),
        plb_ways=draw(st.integers(1, 2)),
        issue_interval=draw(st.sampled_from([50, 400])),
        allow_background_eviction=draw(st.booleans()),
    )
    try:
        oram = ORAMConfig(**fields)
    except ConfigError:
        assume(False)  # more blocks than the tree holds
    dram = DRAMConfig(
        channels=draw(st.integers(1, 2)),
        banks_per_channel=draw(st.integers(1, 2)),
    )
    ways = draw(st.sampled_from([0, 1, 2]))  # 0: the dedicated cache
    # Requests name a hot set of blocks, so recently served blocks are
    # asked for again while they sit in the stash or the tree top.
    hot = draw(st.integers(1, 12))
    return (SystemConfig(oram=oram, dram=dram), ways, draw(st.booleans()),
            hot, draw(st.integers(0, 99)))


#: ("request", kind, block pick) enqueues; ("step", "", 0) runs a slot.
#: The queue is drained after the plan.
plans = st.lists(
    st.one_of(
        st.tuples(st.just("request"),
                  st.sampled_from(["read", "read", "wb", "reinsert"]),
                  st.integers(0, 1 << 16)),
        st.tuples(st.just("step"), st.just(""), st.just(0)),
    ),
    min_size=8, max_size=60,
)


def _controller(config, ways, delayed, seed, traced):
    stats = Stats()
    if traced:
        stats.tracer = Tracer([MemorySink(capacity=100_000)])
    treetop = SStash(config.oram, stats, ways=ways) if ways else None
    return PathORAMController(
        config, stats, random.Random(seed), treetop=treetop,
        delayed_remap=delayed,
    )


def _request_fields(request):
    return (request.block, request.kind, request.arrival, request.completion,
            request.paths_used, request.translation_counted)


def _slot(result):
    if result is None:
        return None
    return (result.issued_path, result.path_type, result.start,
            result.finish_read, result.finish_write,
            [_request_fields(r) for r in result.completions])


def _state(controller):
    return snapshot(controller, TRANSLATION + ("histograms",)) + (
        [_request_fields(r) for r in controller.queue],
        controller._consecutive_evictions,
    )


def _pick_block(controller, kind, pick, hot):
    """A user block the request may name, among the first ``hot`` that
    qualify: a re-insert returns an LLC-D block that left the ORAM; reads
    and write-backs name blocks still in it.  None when there is none."""
    queued = {request.block for request in controller.queue}
    leaf_of = controller.posmap._leaf_of
    wanted_mapped = kind != "reinsert"
    candidates = [
        block for block in range(controller.oram.user_blocks)
        if (leaf_of[block] != -1) == wanted_mapped and block not in queued
    ]
    candidates = candidates[:hot]
    return candidates[pick % len(candidates)] if candidates else None


_KINDS = {
    "read": RequestKind.READ,
    "wb": RequestKind.WRITEBACK,
    "reinsert": RequestKind.REINSERT,
}


def _run_pair(setup, plan, traced):
    config, ways, delayed, hot, seed = setup
    try:
        kernel = _controller(config, ways, delayed, seed, traced)
    except ProtocolError:
        assume(False)  # the S-Stash cannot hold the initial tree top
    python = _controller(config, ways, delayed, seed, traced)
    python._native = None
    assert kernel._tier and not python._tier
    assert kernel._serve
    kernels = CountingKernels(kernel._native)
    kernel._native = kernels
    clock = {"now": 0, "served_slots": 0}  # served: steps finding a request

    def step():
        now = clock["now"]
        clock["served_slots"] += bool(kernel.queue)
        got = kernel.step(now)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(dram_mod, "_native", None)
            expected = python.step(now)
        assert _slot(got) == _slot(expected)
        assert _state(kernel) == _state(python)
        now += config.oram.issue_interval
        clock["now"] = max(now, got.finish_write) if got is not None else now

    for action, kind, pick in plan:
        if action == "step":
            step()
            continue
        if kind == "reinsert" and not delayed:
            continue
        block = _pick_block(kernel, kind, pick, hot)
        if block is not None:
            for controller in (kernel, python):
                controller.enqueue(Request(block, _KINDS[kind], clock["now"],
                                           is_write=kind == "wb"))
    for _ in range(100):
        if not kernel.queue:
            break
        step()
    assert kernel.tier_counters()["engine.tier.python_paths"] == 0
    assert python.tier_counters()["engine.tier.kernel_paths"] == 0
    return kernels, clock["served_slots"]


@settings(max_examples=150, deadline=None)
@given(setup=setups(), plan=plans)
def test_serve_request_matches_the_python_slot(setup, plan):
    kernels, served_slots = _run_pair(setup, plan, traced=False)
    assert kernels.calls.get("drain_slots", 0) >= served_slots


@settings(max_examples=25, deadline=None)
@given(setup=setups(), plan=plans)
def test_traced_slot_matches_the_python_slot(setup, plan):
    """Traced, the slot runs the Python methods over the kernel's path
    and translation entries, with the same events as the Python tier."""
    kernels, _ = _run_pair(setup, plan, traced=True)
    assert kernels.calls.get("drain_slots", 0) == 0


def test_serve_request_runs_real_slots():
    """A plain run serves its requests through ``drain_slots``, and
    every path it books is a kernel path."""
    config = SystemConfig.tiny()
    controller = _controller(config, 0, False, 3, traced=False)
    kernels = CountingKernels(controller._native)
    controller._native = kernels
    for block in range(0, 60, 3):
        controller.enqueue(Request(block, RequestKind.READ, 0))
    now = 0
    while controller.queue:
        result = controller.step(now)
        now = max(now + config.oram.issue_interval, result.finish_write)
    assert kernels.calls.get("drain_slots", 0) > 0
    tiers = controller.tier_counters()
    assert tiers["engine.tier.kernel_paths"] == controller.path_count > 0
    assert tiers["engine.tier.python_paths"] == 0
