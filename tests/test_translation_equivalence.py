"""The translation kernels against the Python translation they replace.

``translate`` walks a request's PosMap chain with every free promotion
(stash and S-Stash residents), PLB fill and victim re-insert;
``plb_install`` is ``fetch_posmap_block``'s PLB fill and victim handling;
``find_in_treetop`` scans the cached top of a path.  On small trees with
a fanout-4 namespace (so there are many PosMap blocks), small PLBs (so
sets fill and pm1 and pm2 share sets), both tree-top modes and drawn
cached-top depths, two identical controllers run the same drawn
sequence: state moves (a PosMap block into the PLB, clean or dirty; into
the stash; into the victim buffer), dirtying, chain walks, tree-top
scans, PosMap fetches and victim-buffer drains.  One translates in C, the
other in Python.  They must agree on every return value and on all
state after every step: PLB buffers, stash order, leaf table, tree slots
and level occupancy, the S-Stash dicts, ``internal_queue`` and
``_limbo``, counters, traced events and the RNG.  Any step may start
from an RNG state whose next leaf draw is rejected, so a victim's
restore draws at the rejection boundary.
"""

import random
from functools import lru_cache

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import repro.mem.dram as dram_mod
from repro.config import ORAMConfig, SystemConfig
from repro.core.ir_stash import SStash
from repro.errors import ConfigError, ProtocolError
from repro.obs.sinks import MemorySink
from repro.obs.tracer import Tracer
from repro.oram.controller import PathORAMController
from repro.perf import native
from repro.stats import Stats

from tests.tiers import TRANSLATION, snapshot

pytestmark = pytest.mark.skipif(
    native.fastpath is None, reason="native kernels unavailable"
)


@st.composite
def setups(draw):
    levels = draw(st.integers(4, 6))
    top = draw(st.integers(0, levels - 1))
    z = [draw(st.integers(0 if level < top else 1, 3))
         for level in range(levels - 1)]
    z.append(draw(st.integers(2, 4)))
    try:
        oram = ORAMConfig(
            levels=levels, user_blocks=draw(st.integers(8, 24)),
            z_per_level=tuple(z), top_cached_levels=top,
            posmap_entry_bytes=16,  # fanout 4: many PosMap blocks
            plb_sets=draw(st.sampled_from([1, 2])),
            plb_ways=draw(st.integers(1, 2)),
            stash_capacity=200, eviction_threshold=100,
        )
    except ConfigError:
        assume(False)
    ways = draw(st.sampled_from([0, 1, 2, 4]))  # 0: the dedicated cache
    return SystemConfig(oram=oram), ways, draw(st.integers(0, 99))


steps = st.lists(
    st.tuples(
        st.sampled_from(
            ["to_plb", "to_plb_dirty", "to_stash", "to_stash", "to_limbo",
             "dirty", "chain", "chain", "chain", "chain", "find", "fetch",
             "fetch", "fetch", "drain"]
        ),
        st.integers(0, 1 << 16),
        st.booleans(),  # start from a rejected leaf draw
    ),
    min_size=8, max_size=40,
)


def _controller(config, ways, seed):
    stats = Stats()
    stats.tracer = Tracer([MemorySink(capacity=100_000)])
    treetop = SStash(config.oram, stats, ways=ways) if ways else None
    return PathORAMController(
        config, stats, random.Random(seed), treetop=treetop
    )


def _state(controller):
    return snapshot(controller, TRANSLATION) + (
        list(controller.plb.contents().items()),
    )


@lru_cache(maxsize=None)
def _rng_state_drawing(bits, value):
    """An RNG state whose next ``getrandbits(bits)`` is ``value``."""
    for seed in range(1 << 20):
        if random.Random(seed).getrandbits(bits) == value:
            return random.Random(seed).getstate()
    raise AssertionError("no seed found")  # pragma: no cover


def _take(controller, block):
    """Lift a mapped block out of the tree or the stash (identically on
    both controllers); its mapping stays."""
    if block in controller.stash:
        controller.stash.remove(block)
        return
    tree = controller.tree
    leaf = controller.posmap.leaf_of(block)
    for level in range(tree.levels):
        position = tree.path_position(leaf, level)
        if block in tree.bucket(level, position):
            tree.remove(level, position, block)
            if level < controller.oram.top_cached_levels:
                controller.treetop.on_remove(block)
            return
    raise AssertionError(f"block {block} not held")  # pragma: no cover


def _apply(controller, op, block, now):
    """One drawn step; returns what it returns, or a skip marker when its
    precondition fails (on both controllers alike)."""
    namespace = controller.namespace
    posmap = controller.posmap
    plb = controller.plb
    if op in ("to_plb", "to_plb_dirty", "to_stash", "to_limbo", "fetch"):
        # A PosMap block still in the tree or the stash.
        block = namespace.posmap1_base + block % (
            namespace.total_blocks - namespace.posmap1_base
        )
        if not posmap.is_mapped(block):
            return "skip"
    if op in ("to_plb", "to_plb_dirty"):
        index = block & (plb.sets - 1)
        if plb._fills[index] == plb.ways:
            return "skip"  # an install with a victim is fetch's job
        _take(controller, block)
        posmap.discard(block)
        return plb.fill(block, dirty=op == "to_plb_dirty")
    if op == "to_stash":
        if block in controller.stash:
            return "skip"
        _take(controller, block)
        controller.stash.add(block, posmap.leaf_of(block))
        return None
    if op == "to_limbo":
        _take(controller, block)
        posmap.discard(block)
        controller.internal_queue.append(block)
        controller._limbo.add(block)
        return None
    if op == "fetch":
        result = controller.fetch_posmap_block(block, now)
        return (result.finish_read, result.finish_write)
    if op == "drain":
        controller._drain_posmap_reinserts()
        return None
    block %= namespace.total_blocks
    if op == "dirty":
        plb.mark_dirty(block)
        return None
    if op == "chain":
        return controller._translation_chain(block)
    assert op == "find"
    if not posmap.is_mapped(block):
        return "skip"
    return controller._find_in_treetop(block, posmap.leaf_of(block))


@settings(max_examples=100, deadline=None)
@given(setup=setups(), plan=steps)
def test_translation_kernels_match_python(setup, plan):
    config, ways, seed = setup
    try:
        kernel = _controller(config, ways, seed)
    except ProtocolError:
        assume(False)  # the S-Stash cannot hold the initial tree top
    python = _controller(config, ways, seed)
    python._native = None
    assert kernel._tier
    assert not python._tier
    leaves = config.oram.leaves
    now = 0
    for op, block, reject in plan:
        if reject:
            state = _rng_state_drawing(leaves.bit_length(), leaves)
            kernel.rng.setstate(state)
            python.rng.setstate(state)
        got = _apply(kernel, op, block, now)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(dram_mod, "_native", None)
            expected = _apply(python, op, block, now)
        assert got == expected, op
        assert _state(kernel) == _state(python), op
        now += 5000


def _deferred_victim_setup():
    """A controller whose next PosMap fetch evicts a dirty PosMap1 block
    whose parent PosMap2 block is off chip, so the victim is deferred."""
    oram = ORAMConfig.uniform(
        levels=6, user_blocks=40, posmap_entry_bytes=16, plb_sets=1,
        plb_ways=1, stash_capacity=200, eviction_threshold=100,
    )
    controller = _controller(SystemConfig(oram=oram), 0, 3)
    pm1 = controller.namespace.posmap1_base
    _take(controller, pm1)
    controller.posmap.discard(pm1)
    controller.plb.fill(pm1, dirty=True)
    return controller


@pytest.mark.parametrize("tier", ["kernel", "python"])
def test_fetch_defers_a_victim_whose_parent_is_off_chip(tier):
    controller = _deferred_victim_setup()
    if tier == "python":
        controller._native = None
    pm1 = controller.namespace.posmap1_base
    other = pm1 + 1
    controller.fetch_posmap_block(other, 0)
    assert list(controller.internal_queue) == [pm1]
    assert controller._limbo == {pm1}
    counters = controller.stats.counters
    assert counters["plb.deferred_reinserts"] == 1
    # The dirty victim is counted twice: once by the PLB's fill and once
    # by the fetch (a known defect kept for digest stability).
    assert counters["plb.dirty_evictions"] == 2
    assert controller.plb.contents() == {other: False}
