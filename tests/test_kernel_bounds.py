"""Range checks of the C kernels that index raw arrays.

``read_path``, ``write_path_place`` and ``dram_triples`` index the
tree's ``array('q')``, the position map's ``array('q')`` and the
layout's path table directly through the buffer protocol, and
``dram_triples`` and ``run_batch`` index the DRAM bank lists with banks
and channels computed from that table.  A leaf outside ``[0, leaves)``
must raise before any slot is touched, a malformed path table or DRAM
geometry must raise before anything is indexed, and every exit must
release all three buffers: a leaked export makes ``array`` refuse to
resize with ``BufferError``.
"""

from array import array

import pytest

from repro.config import SystemConfig
from repro.oram.controller import PathORAMController
from repro.oram.tree import EMPTY
from repro.perf import native

pytestmark = pytest.mark.skipif(
    native.fastpath is None, reason="native kernels unavailable"
)


@pytest.fixture
def controller():
    controller = PathORAMController(SystemConfig.tiny())
    assert controller._native is not None
    # Move one leaf-level block into the stash, so write_path_place has
    # a candidate to place.
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


def _call(controller, kernel, ctx, leaf):
    native = controller._native
    if kernel == "read_path":
        return native.read_path(ctx, leaf, None)
    if kernel == "run_batch":
        return native.run_batch(ctx, 0, 0, 4, -1, -1, 90, False, False)
    return getattr(native, kernel)(ctx, leaf)


@pytest.mark.parametrize(
    "kernel", ["read_path", "write_path_place", "dram_triples"]
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
    "kernel", ["read_path", "write_path_place", "dram_triples", "run_batch"]
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
