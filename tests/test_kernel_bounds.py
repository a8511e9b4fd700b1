"""Leaf range checks of the C kernels that index the tree array.

``read_path`` and ``write_path_place`` index the tree's ``array('q')``
and the position map's ``array('q')`` directly through the buffer
protocol.  A leaf outside ``[0, leaves)`` must raise before any slot is
touched, and every exit must release both buffers: a leaked export makes
``array`` refuse to resize with ``BufferError``.
"""

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


@pytest.mark.parametrize("kernel", ["read_path", "write_path_place"])
def test_out_of_range_leaf_raises_and_touches_nothing(controller, kernel):
    tree = controller.tree
    leaf_of = controller.posmap._leaf_of
    ctx = controller._kernel_ctx()
    call = getattr(controller._native, kernel)

    def state():
        return (
            tree._slots.tobytes(),
            list(tree.level_used),
            leaf_of.tobytes(),
            list(controller.stash._entries.items()),
        )

    before = state()
    for leaf in (controller.oram.leaves, -1):
        args = (ctx, leaf, None) if kernel == "read_path" else (ctx, leaf)
        with pytest.raises(IndexError):
            call(*args)
        assert state() == before
    # No buffer export outlives the failed calls.
    for array in (tree._slots, leaf_of):
        array.append(0)
        array.pop()
