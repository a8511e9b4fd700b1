"""``access_path`` against the Python phases it fuses.

One kernel call runs a whole path access: the read burst, the read phase,
the served block's remap or extraction, placement and the write burst.
On small trees with drawn levels, cached-top depth, tree-top mode,
IR-Alloc-style Z vectors (Z=0 levels included) and DRAM geometry, two
identical controllers run the same drawn sequence of accesses, one
through ``_kernel_access`` and one through the Python phases.  They must
agree on every return value, traced event and observer record, and on
all state: tree, level occupancy, stash (in order), position map, DRAM
banks, S-Stash, counters and the RNG.  Remap draws include RNG states
whose next draw is exactly ``leaves`` (rejected) or ``leaves - 1``
(accepted).
"""

import random
from functools import lru_cache

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import repro.mem.dram as dram_mod
from repro.config import DRAMConfig, ORAMConfig, SystemConfig
from repro.core.ir_stash import SStash
from repro.errors import ProtocolError
from repro.obs.sinks import MemorySink
from repro.obs.tracer import Tracer
from repro.oram.controller import PathORAMController
from repro.oram.tree import EMPTY
from repro.oram.types import PathType
from repro.perf import native
from repro.perf.native import SERVED_EXTRACT, SERVED_NONE, SERVED_REMAP
from repro.security.obliviousness import AccessRecorder
from repro.stats import Stats

from tests.tiers import snapshot

pytestmark = pytest.mark.skipif(
    native.fastpath is None, reason="native kernels unavailable"
)

#: access kind -> (path type, access_path mode)
KINDS = {
    "dummy": (PathType.DUMMY, SERVED_NONE),
    "evict": (PathType.EVICTION, SERVED_NONE),
    "remap": (PathType.DATA, SERVED_REMAP),
    "extract": (PathType.POS1, SERVED_EXTRACT),
}


@st.composite
def setups(draw):
    levels = draw(st.integers(4, 7))
    # Z=0 anywhere but the leaf level, which keeps room for every block.
    z = draw(st.lists(st.integers(0, 3), min_size=levels - 1,
                      max_size=levels - 1))
    z.append(draw(st.integers(2, 4)))
    oram = ORAMConfig(
        levels=levels, user_blocks=12, z_per_level=tuple(z),
        top_cached_levels=draw(st.integers(0, levels - 1)),
        stash_capacity=60, eviction_threshold=6,
    )
    dram = DRAMConfig(
        channels=draw(st.integers(1, 3)),
        banks_per_channel=draw(st.integers(1, 4)),
        row_bytes=64 * draw(st.integers(1, 12)),
    )
    ways = draw(st.sampled_from([0, 1, 2]))  # 0: the dedicated cache
    return SystemConfig(oram=oram, dram=dram), ways, draw(st.integers(0, 99))


accesses = st.lists(
    st.tuples(
        st.sampled_from(sorted(KINDS)),
        st.integers(0, 1 << 16),
        st.sampled_from([None, "reject", "accept"]),
    ),
    min_size=1, max_size=25,
)


def _controller(config, ways, seed):
    stats = Stats()
    stats.tracer = Tracer([MemorySink(capacity=100_000)])
    treetop = SStash(config.oram, stats, ways=ways) if ways else None
    controller = PathORAMController(
        config, stats, random.Random(seed), treetop=treetop
    )
    controller.observer = AccessRecorder()
    return controller


def _state(controller):
    return snapshot(controller) + (controller.observer.records,)


@lru_cache(maxsize=None)
def _rng_state_drawing(bits, value):
    """An RNG state whose next ``getrandbits(bits)`` is ``value``."""
    for seed in range(1 << 20):
        if random.Random(seed).getrandbits(bits) == value:
            return random.Random(seed).getstate()
    raise AssertionError("no seed found")  # pragma: no cover


@settings(max_examples=40, deadline=None)
@given(setup=setups(), plan=accesses)
def test_access_path_matches_python_phases(setup, plan):
    config, ways, seed = setup
    try:
        kernel = _controller(config, ways, seed)
    except ProtocolError:
        assume(False)  # the S-Stash cannot hold the initial tree top
    python = _controller(config, ways, seed)
    python._native = None
    assert kernel._kernel_tier() and not python._kernel_tier()
    leaves = config.oram.leaves
    now = 0
    for kind, pick, boundary in plan:
        path_type, mode = KINDS[kind]
        served = None
        leaf = pick % leaves
        if mode != SERVED_NONE:
            mapped = [
                block for block, block_leaf
                in enumerate(kernel.posmap._leaf_of) if block_leaf != -1
            ]
            if not mapped:
                continue
            served = mapped[pick % len(mapped)]
            leaf = kernel.posmap.leaf_of(served)
        if mode == SERVED_REMAP and boundary is not None:
            target = leaves if boundary == "reject" else leaves - 1
            state = _rng_state_drawing(leaves.bit_length(), target)
            kernel.rng.setstate(state)
            python.rng.setstate(state)
        got = kernel._access(leaf, path_type, now, served, mode)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(dram_mod, "_native", None)
            expected = python._access(leaf, path_type, now, served, mode)
        assert got == expected
        assert _state(kernel) == _state(python)
        now = max(now + 100, got[1] - 50)
    assert kernel.batch_counters["engine.tier.kernel_paths"] == len(
        kernel.observer.records
    )


@pytest.mark.parametrize("tier", ["kernel", "python"])
def test_served_block_absent_from_path_and_stash(tier):
    """A served block that is neither on its path nor in the stash is a
    protocol violation on both tiers."""
    config = SystemConfig.tiny()
    controller = PathORAMController(config, rng=random.Random(4))
    if tier == "python":
        controller._native = None
    assert controller._kernel_tier() == (tier == "kernel")
    tree = controller.tree
    level = tree.levels - 1
    block = next(
        slot for slot in tree.bucket(level, 0) if slot != EMPTY
    )
    tree.remove(level, 0, block)  # lost: neither in the tree nor stashed
    with pytest.raises(ProtocolError, match="absent from path"):
        controller.full_access(block, PathType.DATA, 0)
