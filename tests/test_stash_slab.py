"""The stash's slab: dict semantics, compaction and growth on both tiers.

The stash keeps its entries in one flat ``array('q')`` that the Python
code and the C kernels index alike.  Its insertion order is the write
phase's pool order, so it must behave exactly as the ``block -> leaf``
dict it replaced: an updated block keeps its place, a removed and
re-inserted one moves to the end.  A model test drives random operation
sequences on a :class:`Stash` and on a plain dict through tombstones,
compaction and growth.  Every slab starts at :data:`MIN_SLOTS` entries,
fewer than a path holds, so each kernel-tier run grows it inside a
kernel call; those runs must match the Python tier bit for bit.
"""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

import repro.mem.dram as dram_mod
import repro.oram.controller as controller_mod
from repro import stats_keys as sk
from repro.config import SystemConfig
from repro.core.schemes import build_scheme
from repro.errors import ProtocolError
from repro.oram.controller import PathORAMController
from repro.oram.stash import MIN_SLOTS, USED, Stash
from repro.oram.types import PathType
from repro.perf import native
from repro.sim.runner import make_workload
from repro.sim.simulator import Simulator
from repro.stats import Stats

from tests.tiers import PATH, TRANSLATION, snapshot

needs_native = pytest.mark.skipif(
    native.fastpath is None, reason="native kernels unavailable"
)

LEVELS = 5

OPS = st.lists(
    st.tuples(
        st.sampled_from(["add", "insert", "update", "remove", "compact",
                         "reserve"]),
        st.integers(0, 23),
        st.integers(0, (1 << (LEVELS - 1)) - 1),
    ),
    max_size=120,
)


def _agree(stash, model, peak):
    assert list(stash.items()) == list(model.items())
    assert len(stash) == len(model)
    assert stash.blocks() == list(model)
    assert stash.peak_occupancy == peak
    for leaf in (0, (1 << (LEVELS - 1)) - 1):
        pools = [[] for _ in range(LEVELS)]
        for block, block_leaf in model.items():
            pools[LEVELS - 1 - (leaf ^ block_leaf).bit_length()].append(block)
        assert stash.path_pools(leaf, LEVELS) == pools


@given(OPS)
def test_slab_behaves_as_an_insertion_ordered_dict(ops):
    stash, model, peak = Stash(4), {}, 0
    for op, block, leaf in ops:
        if op == "add":
            stash.add(block, leaf)
            model[block] = leaf
            peak = max(peak, len(model))
        elif op == "insert":
            stash.insert(block, leaf)
            model[block] = leaf
        elif op == "update" and block in model:
            stash.update_leaf(block, leaf)
            model[block] = leaf
        elif op == "remove" and block in model:
            assert stash.remove(block) == model.pop(block)
        elif op == "compact":
            # Drop the block as the write phase drops what it placed.
            drop = (block,) if block in model else ()
            stash.compact(drop)
            for dropped in drop:
                del model[dropped]
            assert stash._slab[USED] == len(model)
        elif op == "reserve":
            stash.reserve(leaf)
            assert stash._slots() - stash._slab[USED] >= leaf
        assert (block in stash) == (block in model)
        _agree(stash, model, peak)


def test_update_keeps_the_place_and_reinsert_moves_to_the_end():
    stash = Stash(4)
    for block in (3, 1, 2):
        stash.add(block, block)
    stash.update_leaf(3, 7)
    stash.insert(1, 8)
    assert list(stash.items()) == [(3, 7), (1, 8), (2, 2)]
    stash.remove(3)
    stash.add(3, 0)
    assert list(stash.items()) == [(1, 8), (2, 2), (3, 0)]


def test_slab_grows_past_its_first_size_and_keeps_the_order():
    stash = Stash(4)
    for block in range(3 * MIN_SLOTS):
        stash.add(block, block % 5)
        if block % 3 == 0:
            stash.remove(block)
    assert stash._slots() > MIN_SLOTS
    kept = [block for block in range(3 * MIN_SLOTS) if block % 3]
    assert list(stash.items()) == [(block, block % 5) for block in kept]
    assert stash.peak_occupancy == len(kept)


def test_negative_or_absent_blocks_are_refused():
    stash = Stash(4)
    stash.add(0, 0)
    stash.remove(0)  # leaves a tombstone
    assert -1 not in stash
    with pytest.raises(ProtocolError, match="cannot enter the stash"):
        stash.add(-1, 0)
    with pytest.raises(ProtocolError, match="not in the stash"):
        stash.compact((5,))


def _pair(**oram):
    """Two controllers of one seed: the kernel tier and the Python tier."""
    config = SystemConfig.tiny(**oram)
    kernel = PathORAMController(config, rng=random.Random(5))
    python = PathORAMController(config, rng=random.Random(5))
    python._native = None
    assert kernel._tier and not python._tier
    return kernel, python


def _take(controller, block):
    """Move ``block`` out of the ORAM: off the tree or the stash, and
    unmapped."""
    top = controller.oram.top_cached_levels
    for level, position, slots in controller.tree.iter_buckets():
        if block in slots:
            controller.tree.remove(level, position, block)
            if level < top:
                controller.treetop.on_remove(block)
            break
    else:
        controller.stash.remove(block)
    controller.posmap.discard(block)


def _fill_slab(controller):
    """Move blocks from the uncached tree into the stash until its slab
    is full (``Stash.add`` grows it only when an entry finds no room)."""
    stash, tree = controller.stash, controller.tree
    top = controller.oram.top_cached_levels
    for level, position, slots in list(tree.iter_buckets()):
        for block in list(slots):
            if stash._slab[USED] == stash._slots():
                return
            if level >= top and block >= 0:
                tree.remove(level, position, block)
                stash.add(block, controller.posmap.leaf_of(block))
    raise AssertionError("tree too small to fill the slab")


@needs_native
def test_path_access_grows_a_full_slab():
    kernel, python = _pair()
    for controller in (kernel, python):
        assert controller.stash._slots() == MIN_SLOTS
        _fill_slab(controller)
    assert snapshot(kernel) == snapshot(python)
    for leaf in (0, 5, kernel.oram.leaves - 1):
        for controller in (kernel, python):
            controller._access(leaf, PathType.DUMMY, 0)
        assert snapshot(kernel, PATH) == snapshot(python, PATH)
    assert kernel.stash._slots() > MIN_SLOTS


@needs_native
def test_victim_reinsert_grows_a_full_slab():
    """A PLB fill into a full set re-inserts its victim, a PosMap2 block
    whose parent is the on-chip PosMap3, into a full slab."""
    kernel, python = _pair(plb_sets=1, plb_ways=2)
    base = kernel.namespace.posmap2_base
    for controller in (kernel, python):
        for block in (base, base + 1, base + 2):
            _take(controller, block)
        controller.plb.fill(base, dirty=True)
        controller.plb.fill(base + 1, dirty=True)
        _fill_slab(controller)
    slots = kernel.stash._slots()
    for controller in (kernel, python):
        controller._fill_plb(base + 2)
        assert base in controller.stash
    assert snapshot(kernel, TRANSLATION) == snapshot(python, TRANSLATION)
    assert kernel.stash._slots() > slots


def _run(scheme):
    """A whole run, on whichever tier the controller module binds."""
    config = SystemConfig.tiny()
    components = build_scheme(scheme, config, Stats(), random.Random(3))
    controller = components.controller
    assert controller.stash._slots() == MIN_SLOTS
    trace = make_workload("mix", config, 300, 3)
    result = Simulator(components, trace).run()
    return result, controller, snapshot(controller)


@needs_native
@pytest.mark.parametrize("scheme", ["Baseline", "IR-ORAM", "LLC-D"])
def test_runs_from_the_smallest_slab_match_the_python_tier(
    scheme, monkeypatch
):
    kernel, kernel_controller, kernel_state = _run(scheme)
    tiers = kernel_controller.tier_counters()
    assert tiers[sk.ENGINE_TIER_KERNEL_PATHS] > 0
    assert kernel_controller.stash._slots() > MIN_SLOTS
    monkeypatch.setattr(controller_mod, "_fastpath", None)
    monkeypatch.setattr(dram_mod, "_native", None)
    python, python_controller, python_state = _run(scheme)
    assert python_controller.tier_counters()[
        sk.ENGINE_TIER_PYTHON_PATHS
    ] == python.counters["paths.total"]
    assert kernel.cycles == python.cycles
    assert kernel.counters == python.counters
    assert kernel_state == python_state
