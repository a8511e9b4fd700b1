"""The S-Stash as the kernels hold it: two flat arrays, hashed in C.

``SStash`` keeps each block's set-index entry (-1 until hashed, then its
set, plus ``RESIDENT`` while the block is resident) and each set's count
in two ``array('q')``s.  The C kernels index the same arrays and hash a
block with their own MD5 the first time they meet it.  These tests check
that the kernel's hash is ``md5_set_index`` bit for bit, that a
kernel-tier run never calls back into ``SStash.set_of``, and that a
one-way S-Stash with few sets, where placements are refused and retried,
behaves identically on both tiers from the first block and leaf to the
last.
"""

import random
from array import array

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import repro.mem.dram as dram_mod
import repro.oram.controller as controller_mod
from repro import stats_keys as sk
from repro.api import RunSpec, run
from repro.config import ORAMConfig, SystemConfig
from repro.core.ir_stash import RESIDENT, SStash, md5_set_index
from repro.errors import ProtocolError
from repro.obs.sinks import MemorySink
from repro.obs.tracer import Tracer
from repro.oram.controller import PathORAMController
from repro.oram.tree import EMPTY
from repro.perf import native
from repro.perf.native import SERVED_NONE
from repro.security.obliviousness import AccessRecorder
from repro.stats import Stats
from tests.test_access_path_equivalence import KINDS, _state

needs_native = pytest.mark.skipif(
    native.fastpath is None, reason="native kernels unavailable"
)


def _sstash(oram, stats, ways, sets=None):
    """An S-Stash of ``ways`` ways, with ``sets`` sets instead of the
    capacity-derived count when given."""
    treetop = SStash(oram, stats, ways=ways)
    if sets is not None:
        treetop.sets = sets
        treetop._set_count = array("q", [0]) * sets
    return treetop


def _controller(config, seed, ways, sets=None, kernels=True):
    stats = Stats()
    stats.tracer = Tracer([MemorySink(capacity=100_000)])
    controller = PathORAMController(
        config, stats, random.Random(seed),
        treetop=_sstash(config.oram, stats, ways, sets),
    )
    controller.observer = AccessRecorder()
    if not kernels:
        controller._native = None
    return controller


def _served_and_leaf(controller, kind, pick):
    """The served block and leaf of access ``kind``: ``pick`` indexes the
    mapped blocks (or the leaves), so 0 is the first and -1 the last."""
    path_type, mode = KINDS[kind]
    if mode == SERVED_NONE:
        return path_type, mode, None, pick % controller.oram.leaves
    mapped = [
        block for block, leaf in enumerate(controller.posmap._leaf_of)
        if leaf != -1
    ]
    if not mapped:
        return None
    served = mapped[pick % len(mapped)]
    return path_type, mode, served, controller.posmap.leaf_of(served)


def _tiers(config, seed, sets):
    """A kernel and a Python controller over a one-way S-Stash of
    ``sets`` sets; ProtocolError when it cannot hold the initial top."""
    kernel = _controller(config, seed, 1, sets)
    python = _controller(config, seed, 1, sets, kernels=False)
    assert kernel._kernel_tier() and not python._kernel_tier()
    return kernel, python


def _run_both_tiers(kernel, python, plan):
    """Run ``plan`` on both tiers, checking they agree after every
    access."""
    now = 0
    for kind, pick in plan:
        access = _served_and_leaf(kernel, kind, pick)
        if access is None:
            continue
        path_type, mode, served, leaf = access
        got = kernel._access(leaf, path_type, now, served, mode)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(dram_mod, "_native", None)
            expected = python._access(leaf, path_type, now, served, mode)
        assert got == expected
        assert _state(kernel) == _state(python)
        now = max(now + 100, got[1] - 50)


def _assert_hashes(treetop):
    """Every hashed entry's set is ``md5_set_index``'s, and a resident
    entry's set counts it."""
    hashed = 0
    counts = [0] * treetop.sets
    for block, entry in enumerate(treetop._set_index):
        if entry == -1:
            continue
        hashed += 1
        assert entry & (RESIDENT - 1) == md5_set_index(block, treetop.sets)
        if entry >= RESIDENT:
            counts[entry - RESIDENT] += 1
    assert list(treetop._set_count) == counts
    return hashed


#: The first and last block and leaf, on every tier of every example.
EDGES = [("remap", 0), ("remap", -1), ("dummy", 0), ("dummy", -1),
         ("extract", -1), ("evict", 0)]


@needs_native
@pytest.mark.parametrize("sets", [None, 65521], ids=["sized", "prime"])
def test_kernel_hashes_are_md5_set_index(sets):
    """After a kernel-tier run every hashed entry, flag masked, is
    ``md5_set_index(block, sets)``: over the S-Stash's own power-of-two
    set count, and over a prime one, whose residues depend on every bit
    of the digest's first four bytes."""
    config = SystemConfig.tiny()
    controller = _controller(config, 3, 4, sets)
    assert controller._kernel_tier()
    rng = random.Random(1)
    now = 0
    for _ in range(400):
        # A remapped block mostly lands near the root, in the S-Stash.
        path_type, mode, served, leaf = _served_and_leaf(
            controller, "remap", rng.randrange(1 << 16)
        )
        finish = controller._access(leaf, path_type, now, served, mode)[1]
        now = max(now + 100, finish)
    treetop = controller.treetop
    assert controller.stats.get(sk.SSTASH_PLACED) > 0
    assert _assert_hashes(treetop) > 100
    top = controller.oram.top_cached_levels
    held = {
        block for level, _, slots in controller.tree.iter_buckets()
        if level < top for block in slots if block != EMPTY
    }
    assert set(treetop.resident_blocks()) == held


def test_only_the_python_tier_calls_set_of(monkeypatch):
    """The kernels hash blocks themselves: an IR-ORAM run on the kernel
    tier calls ``SStash.set_of`` zero times, the Python tier many, and
    both simulate the same machine."""
    calls = []
    stock = SStash.set_of

    def counted(self, block):
        calls.append(block)
        return stock(self, block)

    monkeypatch.setattr(SStash, "set_of", counted)
    spec = RunSpec(scheme="IR-ORAM", workload="random", records=300,
                   levels=10, seed=2)
    tiers = {}
    if native.fastpath is not None:
        tiers["kernel"] = run(spec)
        assert tiers["kernel"].stats.get("engine.tier.kernel_paths") > 0
        assert calls == []
    monkeypatch.setattr(controller_mod, "_fastpath", None)
    monkeypatch.setattr(dram_mod, "_native", None)
    tiers["python"] = run(spec)
    assert len(calls) > 0
    if "kernel" in tiers:
        assert tiers["kernel"].cycles == tiers["python"].cycles


@st.composite
def tight_setups(draw):
    levels = draw(st.integers(4, 6))
    z = draw(st.lists(st.integers(1, 3), min_size=levels - 1,
                      max_size=levels - 1))
    z.append(draw(st.integers(2, 4)))
    oram = ORAMConfig(
        levels=levels, user_blocks=12, z_per_level=tuple(z),
        top_cached_levels=draw(st.integers(1, levels - 1)),
        stash_capacity=60, eviction_threshold=6,
    )
    return (SystemConfig(oram=oram), draw(st.integers(0, 99)),
            draw(st.sampled_from([1, 2, 4])))


plans = st.lists(
    st.tuples(st.sampled_from(sorted(KINDS)),
              st.one_of(st.sampled_from([0, -1]), st.integers(0, 1 << 16))),
    max_size=20,
)


@needs_native
@settings(max_examples=40, deadline=None)
@given(setup=tight_setups(), plan=plans)
def test_one_way_sstash_matches_python_phases(setup, plan):
    """A one-way S-Stash of 1, 2 or 4 sets refuses most tree-top
    placements; the refused blocks are retried higher up the path and in
    later write phases.  ``access_path`` agrees with the Python phases
    on every access, the edge blocks and leaves first."""
    config, seed, sets = setup
    try:
        kernel, python = _tiers(config, seed, sets)
    except ProtocolError:
        assume(False)  # the S-Stash cannot hold the initial tree top
    _run_both_tiers(kernel, python, EDGES + plan)
    _assert_hashes(kernel.treetop)


@needs_native
def test_one_way_sstash_refuses_and_retries():
    """On one fixed setup, one set of one way, where remapped blocks
    compete for the tree top, the gate both refuses and places blocks."""
    config = SystemConfig(oram=ORAMConfig(
        levels=5, user_blocks=12, z_per_level=(2, 2, 2, 2, 3),
        top_cached_levels=3, stash_capacity=60, eviction_threshold=6,
    ))
    kernel, python = _tiers(config, 1, 1)
    _run_both_tiers(kernel, python,
                    EDGES + [("remap", 7919 * i) for i in range(40)])
    stats = kernel.stats
    assert stats.get(sk.SSTASH_PLACEMENT_SKIPS) > 0
    assert stats.get(sk.SSTASH_PLACED) > 0
    assert stats.get(sk.SSTASH_REMOVED) > 0
