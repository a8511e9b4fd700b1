"""The setup kernels against the Python setup they replace.

``draw_leaves`` fills the position map and ``init_tree`` shuffles every
block and places it bottom-up into the empty tree.  Both draw through the
same inlined ``Random._randbelow_with_getrandbits`` as the path kernels,
so on drawn tree depths (levels 1-9), Z vectors (Z=0 levels, one Z >= 256
level), block counts (0, 1, many), leaf tables (uniform, or all on one
leaf to force overflow) and leaf counts at and just past a power of two
(the rejection boundary), the kernel and the Python oracle must leave the
same leaf table, tree slots, level occupancy, overflow list (in order)
and RNG state.  Built with the kernels on and off, every scheme's
controller must come out of construction in the same state.
"""

import random
from array import array
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.mem.dram as dram_mod
import repro.oram.controller as controller_mod
from repro import stats_keys as sk
from repro.config import SystemConfig
from repro.core.schemes import SCHEMES, build_scheme
from repro.errors import ProtocolError
from repro.oram.posmap import PositionMap
from repro.oram.tree import ORAMTree
from repro.perf import native
from repro.stats import Stats

from tests.tiers import snapshot

pytestmark = pytest.mark.skipif(
    native.fastpath is None, reason="native kernels unavailable"
)

TIERS = [native.fastpath, None]


def _tree(levels, z):
    """An empty tree; a bare config lets one level and overfull tables
    through, which ORAMConfig would reject."""
    return ORAMTree(SimpleNamespace(
        levels=levels, z_per_level=tuple(z), leaves=1 << (levels - 1),
    ))


@st.composite
def setups(draw):
    levels = draw(st.integers(1, 9))
    z = draw(st.lists(st.integers(0, 3), min_size=levels, max_size=levels))
    if draw(st.booleans()):
        z[draw(st.integers(0, levels - 1))] = draw(
            st.sampled_from([256, 300])
        )
    n = draw(st.one_of(st.sampled_from([0, 1]), st.integers(2, 600)))
    leaves = 1 << (levels - 1)
    rng = random.Random(draw(st.integers(0, 1 << 16)))
    if draw(st.booleans()):
        # Every block on one leaf: overflows once its path is full.
        one = draw(st.integers(0, leaves - 1))
        table = array("q", [one]) * n
    else:
        table = array("q", (rng.randrange(leaves) for _ in range(n)))
    return levels, z, table, draw(st.integers(0, 1 << 16))


def _initialize(levels, z, table, seed, tier):
    tree = _tree(levels, z)
    rng = random.Random(seed)
    overflow = tree.initialize(array("q", table), rng, tier)
    return (
        tree._slots.tobytes(), tree.level_used, overflow, rng.getstate()
    )


@settings(max_examples=60, deadline=None)
@given(setup=setups())
def test_init_tree_matches_python_initialize(setup):
    levels, z, table, seed = setup
    kernel = _initialize(levels, z, table, seed, native.fastpath)
    assert kernel == _initialize(levels, z, table, seed, None)
    _, level_used, overflow, _ = kernel
    assert sum(level_used) + len(overflow) == len(table)
    if table and len(set(table)) == 1 and len(table) > sum(z):
        assert overflow


@settings(max_examples=60, deadline=None)
@given(
    bits=st.integers(0, 20),
    past=st.booleans(),
    n=st.one_of(st.sampled_from([0, 1]), st.integers(2, 400)),
    seed=st.integers(0, 1 << 16),
)
def test_draw_leaves_matches_randrange(bits, past, n, seed):
    """Leaf counts 2**k and 2**k + 1 both draw k + 1 bits and reject
    about half the draws; the boundary draw 2**k is rejected for the
    first and accepted for the second."""
    leaves = (1 << bits) + past
    maps = []
    for tier in TIERS:
        rng = random.Random(seed)
        posmap = PositionMap(
            SimpleNamespace(total_blocks=n), leaves, rng, tier
        )
        maps.append((posmap._leaf_of.typecode, posmap._leaf_of.tobytes(),
                     rng.getstate()))
    assert maps[0] == maps[1]


@pytest.mark.parametrize("tier", TIERS, ids=["kernel", "python"])
@pytest.mark.parametrize("bad", [-1, 4])
def test_leaf_outside_the_tree_raises_before_any_draw(tier, bad):
    tree = _tree(3, [1, 1, 2])
    rng = random.Random(1)
    state = rng.getstate()
    with pytest.raises(ProtocolError):
        tree.initialize(array("q", [0, 3, bad, 1]), rng, tier)
    assert rng.getstate() == state
    assert tree.total_used() == 0
    assert set(tree._slots) == {-1}


def _built_state(name, seed):
    config = SystemConfig.scaled(levels=10)
    stats = Stats()
    components = build_scheme(name, config, stats, random.Random(seed))
    controller = components.controller
    return controller, snapshot(
        controller, ("tree", "posmap", "stash", "sstash", "counters")
    ) + (stats.get(sk.INIT_OVERFLOW_BLOCKS), components.rng.getstate())


@pytest.mark.parametrize("name", sorted(SCHEMES))
def test_every_scheme_builds_the_same_controller(name, monkeypatch):
    kernel, kernel_state = _built_state(name, 4)
    assert kernel._kernel_setup
    monkeypatch.setattr(controller_mod, "_fastpath", None)
    monkeypatch.setattr(dram_mod, "_native", None)
    python, python_state = _built_state(name, 4)
    assert not python._kernel_setup
    assert kernel_state == python_state
