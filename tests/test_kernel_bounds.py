"""Range checks of the C kernels that index raw arrays.

Every kernel entry but ``dram_service`` and the setup entries takes one
``KernelState``.  It holds the tree's ``array('q')``, the level
occupancy, the position map, the layout's path table, the DRAM bank
state, the PLB's three arrays and the S-Stash's set-index and set-count
arrays as buffers the kernels index directly, and it validates them
once, when it is built.  A buffer of the wrong typecode or length, a
malformed path table, DRAM geometry that does not match the bank
arrays, PLB or S-Stash geometry that does not match its arrays, a
malformed namespace or an unknown tree-top mode is refused by the
constructor, which then holds nothing: a leaked export makes ``array``
refuse to resize with ``BufferError``.
No entry accepts a tuple of the same fields in its place.

What a call brings from outside is still checked on every call: a leaf
outside ``[0, leaves)``, a served block outside the position map, a
malformed ``access_path`` mode, a block outside the namespace, a
drained head request with no int block or an unknown kind, a negative
cycle, an install of a block whose mapping is still live, a
lookup on an unmapped block's leaf (-1), a PLB fill count past its
ways and an S-Stash set-index entry naming no set all raise with nothing
mutated and the RNG untouched, and leave no export behind once the state
is dropped.  ``init_tree`` fills the tree array from the
position map's and checks its own arguments the same way.

The stash's slab is the one array a state does not hold exported: the
Python tier appends to it and grows it between calls.  Every entry that
reads the stash takes it for the call alone and first checks its header
and entries: more entries in use than slots, more live entries than in
use, or a block outside the position map raise with nothing touched.

A state keeps what it holds alive and exported for its own lifetime:
it serves after its controller is gone, a held array refuses to resize
while it lives, and resizes again once it is dropped.
"""

import gc
import random
import weakref
from array import array

import pytest

from repro.config import SystemConfig
from repro.core.ir_stash import RESIDENT, SStash
from repro.oram.controller import PathORAMController
from repro.oram.stash import LIVE, USED
from repro.oram.tree import EMPTY, ORAMTree
from repro.oram.types import PathType, Request, RequestKind
from repro.perf import native
from repro.perf.native import SERVED_EXTRACT, SERVED_NONE, SERVED_REMAP

from tests.tiers import PATH, TRANSLATION, snapshot

pytestmark = pytest.mark.skipif(
    native.fastpath is None, reason="native kernels unavailable"
)


@pytest.fixture
def controller():
    controller = PathORAMController(SystemConfig.tiny())
    assert controller._kstate is not None
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
    return snapshot(controller, PATH + ("path_table",))


def _assert_no_export(*arrays):
    """Nothing holds an export of ``arrays``: resizing works."""
    for held in arrays:
        held.append(0)
        held.pop()


def _held_arrays(controller):
    """Every array the controller's kernel state holds."""
    fields = controller._kernel_state_fields()
    return [value for value in fields.values() if isinstance(value, array)]


def _drop_state(controller):
    """Drop the controller's kernel state, and check that nothing else —
    a failed call, say — still holds an export of its arrays."""
    arrays = _held_arrays(controller)
    controller._kstate = None
    gc.collect()
    _assert_no_export(*arrays)


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


def _call(kernel, state, arg):
    """Call one entry with ``state``; ``arg`` is the leaf of a path
    entry, or the block of a translation entry."""
    fast = native.fastpath
    if kernel in _ACCESS_SHAPES:
        served, mode, write_burst = _ACCESS_SHAPES[kernel]
        return fast.access_path(state, arg, 0, served, mode, write_burst,
                                PathType.DUMMY)
    if kernel == "drain_slots":
        return fast.drain_slots(state, None, 0, 4, native.DUMMIES_KERNEL, 0, 0)
    if kernel == "plb_install":
        return fast.plb_install(state, arg, False, True)
    return getattr(fast, kernel)(state, arg)


def _serve_head(controller, request, now=0):
    """A one-slot drain with ``request`` at the head of the queue."""
    controller.queue.appendleft(request)
    return controller._native.drain_slots(
        controller._kstate, None, now, 1, native.DUMMIES_KERNEL, 0, 0
    )


def _refused(controller, fields, error, kernel=None):
    """Building a state from ``fields`` raises ``error``, touches nothing
    and holds nothing; ``kernel``, handed the same fields as a tuple
    context, refuses it."""
    controller._kstate = None  # it holds the controller's own arrays
    gc.collect()
    before = _state(controller)
    with pytest.raises(error):
        native.fastpath.KernelState(**fields)
    if kernel is not None:
        with pytest.raises(TypeError):
            _call(kernel, tuple(fields.values()), 0)
    assert _state(controller) == before
    _assert_no_export(*(v for v in fields.values() if isinstance(v, array)))


@pytest.mark.parametrize(
    "kernel", ["read_path", "write_path_place", "access_path", "dram_triples"]
)
def test_out_of_range_leaf_raises_and_touches_nothing(controller, kernel):
    before = _state(controller)
    for leaf in (controller.oram.leaves, -1):
        with pytest.raises(IndexError):
            _call(kernel, controller._kstate, leaf)
        assert _state(controller) == before
    _drop_state(controller)


def _malformed_fields(controller, case):
    """The controller's state fields with one path-table or
    DRAM-geometry field broken; the table is a copy, so the layout stays
    intact."""
    fields = controller._kernel_state_fields()
    table = array("q", controller.layout.path_table)
    params = list(fields["dram"])
    if case == "offset index past its table":
        # The deepest record's offsets start beyond the table's end.
        table[1 + 6 * (table[0] - 1) + 5] = len(table)
    elif case == "bank count mismatch":
        params[6] += 1  # channels x banks_per_channel != len(bank_ready)
    elif case == "row_blocks not positive":
        params[5] = 0
    fields["path_table"] = table
    fields["dram"] = tuple(params)
    return fields


@pytest.mark.parametrize(
    "kernel", ["read_path", "write_path_place", "access_path",
               "dram_triples", "drain_slots"]
)
@pytest.mark.parametrize("case", [
    "offset index past its table",
    "bank count mismatch",
    "row_blocks not positive",
])
def test_malformed_path_table_raises_before_indexing(
    controller, kernel, case
):
    """The constructor refuses the table, so no entry ever indexes it."""
    _refused(controller, _malformed_fields(controller, case), ValueError,
             kernel)


@pytest.fixture
def sstash_controller():
    config = SystemConfig.tiny()
    controller = PathORAMController(
        config, treetop=SStash(config.oram)
    )
    assert controller._kstate is not None
    return controller


def _broken(fields, name, how):
    """``fields`` with array ``name`` retyped or resized (a copy)."""
    held = fields[name]
    if how == "typecode":
        fields[name] = array("i", [0]) * len(held)
    elif how == "short":
        fields[name] = array("q", held[:-1])
    else:
        fields[name] = array("q", held) + array("q", [0])
    return fields


_ARRAYS = (
    "tree_slots", "level_used", "leaf_table", "path_table", "bank_ready",
    "bank_open_row", "bus_free", "plb_blocks", "plb_dirty", "plb_fills",
    "set_index", "set_count",
)


@pytest.mark.parametrize("name", _ARRAYS)
def test_buffer_of_the_wrong_typecode_is_refused(sstash_controller, name):
    fields = _broken(sstash_controller._kernel_state_fields(), name,
                     "typecode")
    _refused(sstash_controller, fields, TypeError)


@pytest.mark.parametrize("name, how", [
    ("tree_slots", "short"), ("level_used", "long"),
    ("bank_ready", "short"), ("bank_open_row", "long"),
    ("bus_free", "long"), ("plb_blocks", "long"), ("plb_dirty", "short"),
    ("path_table", "short"), ("set_index", "long"), ("set_count", "long"),
])
def test_buffer_of_the_wrong_length_is_refused(sstash_controller, name, how):
    fields = _broken(sstash_controller._kernel_state_fields(), name, how)
    _refused(sstash_controller, fields, ValueError)


@pytest.mark.parametrize("case, value, error", [
    ("namespace", (0, 0, 0), TypeError),            # not four fields
    ("namespace", (8, 4, 16, 4), ValueError),       # posmap2 before posmap1
    ("namespace", (4, 8, 16, 0), ValueError),       # fanout 0
    ("treetop_mode", 2, ValueError),
    ("set_count", None, TypeError),                 # mode 1 needs arrays
    ("counter_keys", (), TypeError),
    ("top", 99, ValueError),
    ("leaves", 1 << 20, ValueError),                # more than the tree has
    ("z_per_level", [1] * 64, ValueError),          # too many levels
    ("dram", (0, 4, 3, 2, 5, 4, 1, 1), ValueError),  # clock ratio 0
    ("plb_ways", 0, ValueError),
    ("sets", 0, ValueError),
    ("ways", 0, ValueError),
])
def test_malformed_geometry_is_refused(sstash_controller, case, value, error):
    fields = sstash_controller._kernel_state_fields()
    fields[case] = value
    _refused(sstash_controller, fields, error)


@pytest.mark.parametrize(
    "mode", [SERVED_REMAP, SERVED_EXTRACT], ids=["remap", "extract"]
)
def test_served_block_outside_position_map_raises(sstash_controller, mode):
    controller = sstash_controller
    before = _state(controller)
    for served in (len(controller.posmap._leaf_of), -1):
        with pytest.raises(IndexError):
            controller._native.access_path(
                controller._kstate, 0, 0, served, mode, True, PathType.DATA
            )
        assert _state(controller) == before
    _drop_state(controller)


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
            controller._kstate, 0, 0, served, mode, True, PathType.DATA
        )
    assert _state(controller) == before
    _drop_state(controller)


def test_short_set_count_is_refused(sstash_controller):
    """A set-count array one short of the S-Stash's sets is refused
    before any entry can index it, the RNG untouched."""
    controller = sstash_controller
    fields = _broken(controller._kernel_state_fields(), "set_count", "short")
    rng = controller.rng.getstate()
    _refused(controller, fields, ValueError, "access_path")
    assert controller.rng.getstate() == rng


@pytest.mark.parametrize("entry", ["sets", "resident past sets", "-2"])
@pytest.mark.parametrize("kernel", ["access_path", "serve_request"])
def test_corrupt_set_index_entry_raises_and_touches_nothing(
    sstash_controller, kernel, entry
):
    """A set-index entry that names no set, on a block in the cached top
    of the path read (``access_path``) or probed for the head request of
    a one-slot drain (``serve_request``), is refused before its set
    indexes the set counts, with nothing mutated and the RNG
    untouched."""
    controller = sstash_controller
    treetop = controller.treetop
    # Remap blocks until one lands in the S-Stash.
    for block in range(controller.oram.user_blocks):
        if treetop.resident_blocks():
            break
        controller._access(controller.posmap.leaf_of(block), PathType.DATA,
                           0, block, SERVED_REMAP)
    block = treetop.resident_blocks()[0]
    treetop._set_index[block] = {
        "sets": treetop.sets,
        "resident past sets": RESIDENT + treetop.sets,
        "-2": -2,
    }[entry]
    before = _translation_state(controller)
    with pytest.raises(ValueError, match="S-Stash set index"):
        if kernel == "access_path":
            controller._native.access_path(
                controller._kstate, controller.posmap.leaf_of(block), 0,
                None, SERVED_NONE, True, PathType.DUMMY,
            )
        else:
            _serve_head(controller, Request(block, RequestKind.READ, 0))
    assert _translation_state(controller) == before
    _drop_state(controller)


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
    controller._kstate = None  # it holds the controller's tree
    tree, table = _init_tree_case(controller, case)
    before = (tree._slots.tobytes(), tree.level_used.tobytes())
    rng = random.Random(2)
    state = rng.getstate()
    with pytest.raises(error):
        controller._native.init_tree(
            tree._slots, table, tree.z_per_level, tree.level_used, rng,
        )
    assert (tree._slots.tobytes(), tree.level_used.tobytes()) == before
    assert rng.getstate() == state
    _assert_no_export(tree._slots, tree.level_used, table)


def _translation_state(controller):
    return snapshot(controller, TRANSLATION + ("path_table",))


@pytest.fixture
def translating(sstash_controller):
    """An S-Stash controller whose PLB holds a dirty PosMap2 block, so a
    translation or a drain that ran would promote, fill and re-insert."""
    controller = sstash_controller
    pm2 = controller.namespace.posmap2_base
    victim = controller.namespace.posmap1_base + 1
    controller.posmap.discard(victim)
    controller.internal_queue.append(victim)
    controller._limbo.add(victim)
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
    before = _translation_state(controller)
    total = controller.namespace.total_blocks
    blocks = (total, -1) if entry == "translate" else (total, -1, 0)
    for block in blocks:
        with pytest.raises(ValueError) as raised:
            _call(entry, controller._kstate, block)
        if entry == "translate":
            with pytest.raises(ValueError) as expected:
                controller.namespace.kind_of(block)
            assert str(raised.value) == str(expected.value)
        else:
            assert "not a PosMap block" in str(raised.value)
        assert _translation_state(controller) == before
    del raised  # its traceback holds the state
    _drop_state(controller)


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
    """The constructor refuses PLB arrays that do not match its geometry;
    a fill count past the ways, which the kernels and the Python tier
    write as they go, is checked on every call."""
    controller = translating
    # A user block whose chain starts at the cached PosMap2 block.
    pm1 = controller.namespace.posmap1_base
    block = 0 if entry == "translate" else pm1
    controller.posmap.discard(pm1)  # installable, were the buffers sound
    fields = controller._kernel_state_fields()
    if case == "fill count past ways":
        fills = controller.plb._fills
        for index in range(len(fills)):
            fills[index] = controller.plb.ways + 1
        before = _translation_state(controller)
        with pytest.raises(error):
            _call(entry, controller._kstate, block)
        assert _translation_state(controller) == before
        _drop_state(controller)
        return
    if case == "short blocks":
        _broken(fields, "plb_blocks", "short")
    elif case == "long dirty":
        _broken(fields, "plb_dirty", "long")
    elif case == "fills not a power of two":
        _broken(fields, "plb_fills", "long")
    elif case == "dirty typecode":
        _broken(fields, "plb_dirty", "typecode")
    elif case == "fills typecode":
        _broken(fields, "plb_fills", "typecode")
    elif case == "zero ways":
        fields["plb_ways"] = 0
    _refused(controller, fields, error, entry)


@pytest.mark.parametrize("case, error", [
    ("block past the namespace", ValueError),
    ("block -1", ValueError),
    ("block not an int", TypeError),
    ("unknown kind", ValueError),
    ("negative now", ValueError),
    ("not a request", AttributeError),
])
def test_malformed_serve_request_raises(translating, case, error):
    """What a one-slot drain serves — the head request's block and kind,
    and the cycle — is checked before anything is touched: no state,
    counter, histogram or request field changes, the request stays at
    the head, the RNG is untouched, and no export is left behind."""
    controller = translating
    request, now = Request(0, RequestKind.READ, 0), 0
    if case == "block past the namespace":
        request.block = controller.namespace.total_blocks
    elif case == "block -1":
        request.block = -1
    elif case == "block not an int":
        request.block = 1.0
    elif case == "unknown kind":
        request.kind = "read"
    elif case == "negative now":
        now = -1
    else:
        request = object()

    def snapshot():
        fields = dict(vars(request)) if hasattr(request, "__dict__") else {}
        return _translation_state(controller) + (
            {key: dict(hist)
             for key, hist in controller.stats.histograms.items()},
            fields, controller.path_count, dict(controller.batch_counters),
        )

    before = snapshot()
    with pytest.raises(error):
        _serve_head(controller, request, now)
    assert controller.queue.popleft() is request and not controller.queue
    assert snapshot() == before
    _drop_state(controller)


@pytest.mark.parametrize("case, error", [
    ("used past its slots", ValueError),
    ("live past used", ValueError),
    ("block outside the position map", IndexError),
])
@pytest.mark.parametrize("kernel", [
    "KernelState", "access_path", "drain_slots", "translate", "plb_install",
    "serve_request",
])
def test_corrupt_stash_slab_raises_and_touches_nothing(
    translating, kernel, case, error
):
    """Every entry that reads the stash checks its slab's header and
    entries when it takes the slab, before anything is touched, and
    leaves no export behind; a state is not built over such a slab.
    ``serve_request`` is a one-slot drain with a request queued at the
    head: the slab is checked before the head is read."""
    controller = translating
    stash = controller.stash
    slab = stash._slab
    pm1 = controller.namespace.posmap1_base
    controller.posmap.discard(pm1)  # installable, were the slab sound
    if case == "used past its slots":
        slab[USED] = stash._slots() + 1
    elif case == "live past used":
        slab[LIVE] = slab[USED] + 1
    else:
        stash.insert(controller.namespace.total_blocks, 0)
    if kernel == "KernelState":
        _refused(controller, controller._kernel_state_fields(), error)
        return
    before = _translation_state(controller)
    with pytest.raises(error, match="stash"):
        if kernel == "serve_request":
            _serve_head(controller, Request(0, RequestKind.READ, 0))
        else:
            _call(kernel, controller._kstate,
                  pm1 if kernel == "plb_install" else 0)
    assert _translation_state(controller) == before
    _assert_no_export(slab)
    _drop_state(controller)


def test_install_of_a_mapped_block_raises(translating):
    """The block an install takes has left the tree (fetched or promoted),
    so its mapping is gone; a still-mapped one is refused before the PLB
    or the RNG is touched."""
    controller = translating
    pm1 = controller.namespace.posmap1_base
    assert controller.posmap.is_mapped(pm1)
    before = _translation_state(controller)
    with pytest.raises(RuntimeError, match="still mapped"):
        _call("plb_install", controller._kstate, pm1)
    assert _translation_state(controller) == before
    _drop_state(controller)


def test_find_in_treetop_rejects_a_leaf_outside_the_tree(translating):
    """Past the last leaf, or -1: the leaf an unmapped block has."""
    controller = translating
    before = _translation_state(controller)
    for leaf in (controller.oram.leaves, -1):
        with pytest.raises(RuntimeError, match="outside the tree"):
            controller._native.find_in_treetop(controller._kstate, 0, leaf)
    assert _translation_state(controller) == before
    _drop_state(controller)


def test_state_outlives_its_controller():
    """The state keeps every object and array it reads alive: with the
    controller collected it still runs path accesses, dummy slots, a
    translation and its queued request's slot (under the sanitized
    build, without a report)."""
    config = SystemConfig.tiny()
    controller = PathORAMController(config, treetop=SStash(config.oram))
    state = controller._kstate
    arrival = 1 << 40  # after the dummy slots
    controller.queue.append(Request(0, RequestKind.READ, arrival))
    gone = weakref.ref(controller)
    del controller
    gc.collect()
    assert gone() is None
    fast = native.fastpath
    for leaf in range(config.oram.leaves):
        fast.access_path(state, leaf, 0, None, SERVED_NONE, True,
                         PathType.DUMMY)
    dummies = native.DUMMIES_KERNEL
    assert fast.drain_slots(state, None, 0, 8, dummies, 0, 0)[3] == 8
    for block in range(config.oram.user_blocks):
        assert isinstance(fast.translate(state, block), list)
    slots = fast.drain_slots(state, None, arrival, 1, dummies, 0, 0)
    assert slots[3] == 1 and len(slots[1]) == 5
    assert len(fast.dram_triples(state, 0)) % 3 == 0


def test_held_arrays_refuse_to_resize(sstash_controller):
    for held in _held_arrays(sstash_controller):
        with pytest.raises(BufferError):
            held.append(0)


def test_dropped_state_releases_its_arrays(sstash_controller):
    _drop_state(sstash_controller)
