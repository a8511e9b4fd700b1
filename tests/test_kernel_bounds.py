"""Range checks of the C kernels that index raw arrays.

``access_path``, ``run_batch`` and ``dram_triples`` index the tree's
``array('q')``, the position map's ``array('q')``, the layout's path
table and the S-Stash set-index array directly through the buffer
protocol, and index the DRAM bank lists with banks and channels computed
from that table; ``init_tree`` fills the tree array from the position
map's.  A leaf outside ``[0, leaves)`` or a served block outside the
position map must raise before any slot is touched, a malformed path
table, DRAM geometry or tree array must raise before anything is
indexed, and every exit must release every buffer: a leaked export makes
``array`` refuse to resize with ``BufferError``.

The translation entries (``translate``, ``plb_install``,
``find_in_treetop``) index the PLB's three arrays, the position map and
the tree the same way: a block outside the namespace, PLB buffers of the
wrong length or typecode, an install of a block whose mapping is still
live and a lookup on an unmapped block's leaf (-1) raise with nothing
mutated and the RNG untouched.
"""

import random
from array import array

import pytest

from repro.config import SystemConfig
from repro.core.ir_stash import SStash
from repro.oram.controller import PathORAMController
from repro.oram.tree import EMPTY, ORAMTree
from repro.perf import native
from repro.perf.native import SERVED_EXTRACT, SERVED_NONE, SERVED_REMAP

pytestmark = pytest.mark.skipif(
    native.fastpath is None, reason="native kernels unavailable"
)


@pytest.fixture
def controller():
    controller = PathORAMController(SystemConfig.tiny())
    assert controller._native is not None
    # Move one leaf-level block into the stash, so placement has a
    # candidate to place.
    tree = controller.tree
    level = tree.levels - 1
    for position in range(1 << level):
        block = tree.bucket(level, position)[0]
        if block != EMPTY:
            tree.remove(level, position, block)
            controller.stash.add(block, controller.posmap.leaf_of(block))
            break
    assert len(controller.stash) > 0
    return controller


def _state(controller):
    return (
        controller.tree._slots.tobytes(),
        list(controller.tree.level_used),
        controller.posmap._leaf_of.tobytes(),
        controller.layout.path_table.tobytes(),
        list(controller.stash._entries.items()),
        list(controller.dram.bank_ready),
        list(controller.dram.bank_open_row),
        list(controller.dram.bus_free),
    )


def _assert_no_export(*arrays):
    """No buffer export outlives a failed call: resizing still works."""
    for held in arrays:
        held.append(0)
        held.pop()


#: ``access_path`` call shapes, as ``(served, mode, write_burst)``: a
#: dummy path; a real access that reads block 0 as the served block and
#: remaps it; and an access that ends at placement, its write burst
#: deferred.  The last two keep the names of the separate read-phase and
#: placement entries that ``access_path`` absorbed.
_ACCESS_SHAPES = {
    "access_path": (None, SERVED_NONE, True),
    "read_path": (0, SERVED_REMAP, True),
    "write_path_place": (None, SERVED_NONE, False),
}


def _call(controller, kernel, ctx, leaf):
    native = controller._native
    if kernel in _ACCESS_SHAPES:
        served, mode, write_burst = _ACCESS_SHAPES[kernel]
        return native.access_path(ctx, leaf, 0, served, mode, write_burst)
    if kernel == "run_batch":
        return native.run_batch(ctx, 0, 0, 4, -1, -1, 90, False, False)
    return getattr(native, kernel)(ctx, leaf)


@pytest.mark.parametrize(
    "kernel", ["read_path", "write_path_place", "access_path", "dram_triples"]
)
def test_out_of_range_leaf_raises_and_touches_nothing(controller, kernel):
    ctx = controller._kernel_ctx()
    before = _state(controller)
    for leaf in (controller.oram.leaves, -1):
        with pytest.raises(IndexError):
            _call(controller, kernel, ctx, leaf)
        assert _state(controller) == before
    _assert_no_export(controller.tree._slots, controller.posmap._leaf_of,
                      controller.layout.path_table)


def _malformed_ctx(controller, case):
    """The controller's context with one path-table or DRAM-geometry
    field broken; the table is a copy, so the layout stays intact."""
    slots = dict(zip(native.CTX_SLOTS, controller._kernel_ctx()))
    table = array("q", controller.layout.path_table)
    params = list(slots["dram_params"])
    if case == "offset index past its table":
        # The deepest record's offsets start beyond the table's end.
        table[1 + 6 * (table[0] - 1) + 5] = len(table)
    elif case == "bank count mismatch":
        params[6] += 1  # channels x banks_per_channel != len(bank_ready)
    elif case == "row_blocks not positive":
        params[5] = 0
    slots["path_table"] = table
    slots["dram_params"] = tuple(params)
    return native.kernel_ctx(**slots), table


@pytest.mark.parametrize(
    "kernel", ["read_path", "write_path_place", "access_path",
               "dram_triples", "run_batch"]
)
@pytest.mark.parametrize("case", [
    "offset index past its table",
    "bank count mismatch",
    "row_blocks not positive",
])
def test_malformed_path_table_raises_before_indexing(
    controller, kernel, case
):
    ctx, table = _malformed_ctx(controller, case)
    before = _state(controller)
    with pytest.raises(ValueError):
        _call(controller, kernel, ctx, 0)
    assert _state(controller) == before
    _assert_no_export(controller.tree._slots, controller.posmap._leaf_of,
                      table)


@pytest.fixture
def sstash_controller():
    config = SystemConfig.tiny()
    controller = PathORAMController(
        config, treetop=SStash(config.oram)
    )
    assert controller._native is not None
    return controller


@pytest.mark.parametrize(
    "mode", [SERVED_REMAP, SERVED_EXTRACT], ids=["remap", "extract"]
)
def test_served_block_outside_position_map_raises(sstash_controller, mode):
    controller = sstash_controller
    ctx = controller._kernel_ctx()
    before = _state(controller)
    for served in (len(controller.posmap._leaf_of), -1):
        with pytest.raises(IndexError):
            controller._native.access_path(ctx, 0, 0, served, mode, True)
        assert _state(controller) == before
    _assert_no_export(controller.tree._slots, controller.posmap._leaf_of,
                      controller.layout.path_table,
                      controller.treetop._set_index)


@pytest.mark.parametrize("served, mode", [
    (None, SERVED_REMAP),   # a served step needs a served block
    (0, SERVED_NONE),       # and a served block needs a step
    (0, 3),                 # unknown mode
], ids=["step-without-block", "block-without-step", "unknown-mode"])
def test_malformed_access_path_call_raises(sstash_controller, served, mode):
    controller = sstash_controller
    before = _state(controller)
    with pytest.raises(ValueError):
        controller._native.access_path(
            controller._kernel_ctx(), 0, 0, served, mode, True
        )
    assert _state(controller) == before
    _assert_no_export(controller.tree._slots, controller.posmap._leaf_of,
                      controller.layout.path_table,
                      controller.treetop._set_index)


def _init_tree_case(controller, case):
    """``init_tree`` arguments with one thing wrong: the controller's own
    (built) tree, or an empty tree with a bad leaf, a short slot array or
    a wrong typecode."""
    tree = ORAMTree(controller.oram)
    table = array("q", controller.posmap._leaf_of)
    if case == "non-empty tree":
        tree = controller.tree
    elif case == "leaf -1":
        table[len(table) // 2] = -1
    elif case == "leaf == leaves":
        table[len(table) // 2] = tree.config.leaves
    elif case == "short slot array":
        tree._slots.pop()
    elif case == "wrong typecode":
        table = array("i", [0]) * len(table)
    return tree, table


@pytest.mark.parametrize("case, error", [
    ("non-empty tree", ValueError),
    ("leaf -1", IndexError),
    ("leaf == leaves", IndexError),
    ("short slot array", ValueError),
    ("wrong typecode", TypeError),
])
def test_init_tree_rejects_before_writing(controller, case, error):
    tree, table = _init_tree_case(controller, case)
    before = (tree._slots.tobytes(), list(tree.level_used))
    rng = random.Random(2)
    state = rng.getstate()
    with pytest.raises(error):
        controller._native.init_tree(
            tree._slots, table, tree.z_per_level, tree.level_used,
            rng.getrandbits,
        )
    assert (tree._slots.tobytes(), list(tree.level_used)) == before
    assert rng.getstate() == state
    _assert_no_export(tree._slots, table)


def _translation_state(controller):
    plb = controller.plb
    treetop = controller.treetop
    return _state(controller) + (
        plb._blocks.tobytes(), plb._dirty.tobytes(), plb._fills.tobytes(),
        sorted(controller._limbo), list(controller.internal_queue),
        sorted(treetop._resident.items()), sorted(treetop._set_count.items()),
        sorted(controller.stats.counters.items()),
        controller.rng.getstate(),
    )


def _plb_arrays(controller):
    plb = controller.plb
    return plb._blocks, plb._dirty, plb._fills


@pytest.fixture
def translating(sstash_controller):
    """An S-Stash controller whose PLB holds a dirty PosMap2 block, so a
    translation that ran would promote, fill and re-insert."""
    controller = sstash_controller
    pm2 = controller.namespace.posmap2_base
    controller.posmap.discard(pm2)
    for level, position, slots in controller.tree.iter_buckets():
        if pm2 in slots:
            controller.tree.remove(level, position, pm2)
            if level < controller.oram.top_cached_levels:
                controller.treetop.on_remove(pm2)
            break
    else:
        controller.stash.remove(pm2)
    controller.plb.fill(pm2, dirty=True)
    return controller


@pytest.mark.parametrize("entry", ["translate", "plb_install"])
def test_block_outside_namespace_raises(translating, entry):
    """``translate`` raises ``Namespace.kind_of``'s error; ``plb_install``
    also refuses a user block."""
    controller = translating
    ctx = controller._kernel_ctx()
    before = _translation_state(controller)
    total = controller.namespace.total_blocks
    blocks = (total, -1) if entry == "translate" else (total, -1, 0)
    for block in blocks:
        with pytest.raises(ValueError) as raised:
            if entry == "translate":
                controller._native.translate(ctx, block)
            else:
                controller._native.plb_install(ctx, block, True, False)
        if entry == "translate":
            with pytest.raises(ValueError) as expected:
                controller.namespace.kind_of(block)
            assert str(raised.value) == str(expected.value)
        else:
            assert "not a PosMap block" in str(raised.value)
        assert _translation_state(controller) == before
    _assert_no_export(controller.tree._slots, controller.posmap._leaf_of,
                      *_plb_arrays(controller))


@pytest.mark.parametrize("case, error", [
    ("short blocks", ValueError),
    ("long dirty", ValueError),
    ("fills not a power of two", ValueError),
    ("dirty typecode", TypeError),
    ("fills typecode", TypeError),
    ("zero ways", ValueError),
    ("fill count past ways", ValueError),
])
@pytest.mark.parametrize("entry", ["translate", "plb_install"])
def test_malformed_plb_buffers_raise(translating, entry, case, error):
    controller = translating
    slots = dict(zip(native.CTX_SLOTS, controller._kernel_ctx()))
    blocks = array("q", slots["plb_blocks"])
    dirty = array("q", slots["plb_dirty"])
    fills = array("q", slots["plb_fills"])
    if case == "short blocks":
        blocks.pop()
    elif case == "long dirty":
        dirty.append(0)
    elif case == "fills not a power of two":
        fills.append(0)
    elif case == "dirty typecode":
        dirty = array("i", dirty)
    elif case == "fills typecode":
        fills = array("i", fills)
    elif case == "zero ways":
        slots["plb_ways"] = 0
    elif case == "fill count past ways":
        fills[:] = array("q", [slots["plb_ways"] + 1]) * len(fills)
    slots.update(plb_blocks=blocks, plb_dirty=dirty, plb_fills=fills)
    ctx = native.kernel_ctx(**slots)
    # A user block whose chain starts at the cached PosMap2 block.
    pm1 = controller.namespace.posmap1_base
    block = 0 if entry == "translate" else pm1
    controller.posmap.discard(pm1)  # installable, were the buffers sound
    before = _translation_state(controller)
    with pytest.raises(error):
        if entry == "translate":
            controller._native.translate(ctx, block)
        else:
            controller._native.plb_install(ctx, block, False, True)
    assert _translation_state(controller) == before
    _assert_no_export(controller.tree._slots, controller.posmap._leaf_of,
                      blocks, dirty, fills)


def test_install_of_a_mapped_block_raises(translating):
    """The block an install takes has left the tree (fetched or promoted),
    so its mapping is gone; a still-mapped one is refused before the PLB
    or the RNG is touched."""
    controller = translating
    pm1 = controller.namespace.posmap1_base
    assert controller.posmap.is_mapped(pm1)
    before = _translation_state(controller)
    with pytest.raises(RuntimeError, match="still mapped"):
        controller._native.plb_install(
            controller._kernel_ctx(), pm1, False, True
        )
    assert _translation_state(controller) == before
    _assert_no_export(controller.tree._slots, controller.posmap._leaf_of,
                      *_plb_arrays(controller))


def test_find_in_treetop_rejects_a_leaf_outside_the_tree(translating):
    """Past the last leaf, or -1: the leaf an unmapped block has."""
    controller = translating
    before = _translation_state(controller)
    for leaf in (controller.oram.leaves, -1):
        with pytest.raises(RuntimeError, match="outside the tree"):
            controller._native.find_in_treetop(
                controller._kernel_ctx(), 0, leaf
            )
    assert _translation_state(controller) == before
    _assert_no_export(controller.tree._slots)
