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
