"""On-demand build and load of the optional C hot-path kernels.

The simulator's innermost loops have bit-identical C implementations in
``_fastpath.c``, exposed as these entry points:

* ``dram_service`` — DRAM bank timing over an ``array('q')`` of
  (bank, channel, row) triples;
* ``dram_triples`` — one path's DRAM triples, as such an array;
* ``read_path`` — one path's read phase into the stash;
* ``write_path_place`` — one path's greedy bottom-up write placement;
* ``run_batch`` — whole stretches of dummy paths in one call.

``dram_triples``, ``read_path``, ``write_path_place`` and ``run_batch``
take one context tuple (:func:`kernel_ctx`) and share one read loop and
one placement engine, for both tree-top modes: the dedicated cache and
IR-Stash's S-Stash, whose entries the read loop releases and whose
set-occupancy gate the placement engine applies.  The stash is its
``block -> leaf`` dict alone: the kernels append read blocks to it,
delete placed ones, and group write-phase candidates by scanning it in
insertion order.  The tree's slots and the position map's leaves are two
``array('q')`` buffers the kernels index directly, computing each path's
slot indexes from ``z_per_level``.  A path's DRAM addresses are computed
per access from the layout's ``path_table`` (a third ``array('q')``) and
the DRAM geometry; ``dram_service`` and ``run_batch`` share one timing
loop.  This module compiles the kernels with the system C
compiler on first use, caches the shared object under
``~/.cache/repro-fastpath/`` keyed by source hash and Python ABI, and
exposes the loaded module as :data:`fastpath`.

Everything degrades gracefully: no compiler, a failed build, a failed
self-test, or ``REPRO_FASTPATH=0`` in the environment all yield
``fastpath = None`` and the simulator runs on its pure-Python fallbacks.
No third-party packages are involved — only the system toolchain.
"""

from __future__ import annotations

import hashlib
import importlib.machinery
import importlib.util
import os
import subprocess
import sys
import sysconfig
from array import array
from typing import Optional

_MODULE_NAME = "_repro_fastpath"
_SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "_fastpath.c")


def _cache_dir() -> str:
    override = os.environ.get("REPRO_FASTPATH_CACHE")
    if override:
        return override
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache"
    )
    return os.path.join(base, "repro-fastpath")


#: Slot names of the kernel context tuple, in order; mirrors ``KernelCtx``
#: in ``_fastpath.c``, which documents each slot.
CTX_SLOTS = (
    "randrange", "leaves", "path_table", "entries", "leaf_table",
    "tree_slots", "z_per_level", "level_used", "levels", "top", "empty",
    "bank_ready", "bank_open_row", "bus_free", "dram_params",
    "treetop_mode", "resident", "set_count", "set_of", "ways",
    "getrandbits", "leaf_bits",
)


def kernel_ctx(**slots) -> tuple:
    """The context tuple ``dram_triples``, ``read_path``,
    ``write_path_place`` and ``run_batch`` take, from one keyword per
    :data:`CTX_SLOTS` name."""
    return tuple(slots[name] for name in CTX_SLOTS)


def _self_test(module) -> bool:
    """Run the kernels on tiny inputs with known-good answers."""
    def q(values):
        return array("q", values)

    # One bank, one channel, two accesses to the same fresh row:
    # activate (t_rcd=3) + 2 bursts of 2, finish = 3 + 2 + 5 = 10 with
    # cas_burst=5; second access is a row hit issuing at t=5, done at 10.
    ready = [0]
    open_row = [-1]
    bus_free = [0]
    finish, hits, conflicts = module.dram_service(
        q([0, 0, 7, 0, 0, 7]), ready, open_row, bus_free, 0, 4, 3, 2, 5
    )
    if (finish, hits, conflicts) != (10, 1, 0):
        return False
    if ready != [7] or open_row != [7] or bus_free != [7]:
        return False

    def ctx(**slots):
        # A 3-level tree with Z=1 (slots: root, level 1 at 1-2, leaves at
        # 3-6), no memory-backed level in the path table, one DRAM bank
        # with 4-block rows, no tree-top cache; each case overrides what
        # it exercises.
        base = dict(
            randrange=None, leaves=4, path_table=q([0]), entries={},
            leaf_table=q([]), tree_slots=q([-1] * 7),
            z_per_level=[1, 1, 1], level_used=[0, 0, 0], levels=3, top=0,
            empty=-1, bank_ready=[0], bank_open_row=[-1], bus_free=[0],
            dram_params=(1, 4, 3, 2, 5, 4, 1, 1), treetop_mode=0,
            resident=None, set_count=None, set_of=None, ways=0,
            getrandbits=None, leaf_bits=0,
        )
        base.update(slots)
        return kernel_ctx(**base)

    # S-Stash read phase: level 0 is cached and block 3 (leaf 2) sits
    # there, resident in set 1; block 5 (leaf 1) sits at the bottom of
    # leaf 1's path and is the served block.  Both enter the stash in
    # read order; block 3 releases its S-Stash entry.
    tree = q([3, -1, -1, -1, 5, -1, -1])
    entries = {}
    level_used = [1, 0, 1]
    resident = {3: 1, 8: 0}
    set_count = {1: 1, 0: 1}
    leaf_table = q([0] * 10)
    leaf_table[3] = 2
    leaf_table[5] = 1
    read_ctx = ctx(
        tree_slots=tree, entries=entries, leaf_table=leaf_table,
        level_used=level_used, top=1, treetop_mode=1, resident=resident,
        set_count=set_count, set_of=lambda block: block & 1, ways=2,
    )
    if module.read_path(read_ctx, 1, 5) != (0, 1, 2):
        return False
    if not (
        list(entries.items()) == [(3, 2), (5, 1)]
        and resident == {8: 0}
        and set_count == {0: 1}
        and tree == q([-1] * 7)
        and level_used == [0, 0, 0]
    ):
        return False
    # The path is empty now: nothing moves and block 7 is not found.
    if module.read_path(read_ctx, 1, 7) != (0, 0, -1):
        return False

    # Write-phase placement, dedicated tree-top mode, target leaf 1.
    # Block 5 (leaf 1) belongs at the bottom, block 9 (leaf 3) diverges
    # at the root; both place and leave the stash empty.
    entries = {5: 1, 9: 3}
    tree = q([-1] * 7)
    level_used = [0, 0, 0]
    counts = module.write_path_place(ctx(
        tree_slots=tree, entries=entries, level_used=level_used,
    ), 1)
    if not (
        counts == (0, 0, 0)
        and entries == {}
        and tree == q([9, -1, -1, -1, 5, -1, -1])
        and level_used == [1, 0, 1]
    ):
        return False

    # Pool order is stash order: blocks 9 and then 4 (both leaf 3)
    # diverge from leaf 0's path at the root, its one free slot.  The
    # pool is a stack, so the last-inserted block 4 places and block 9
    # stays; a kernel that orders the pool any other way places 9.
    entries = {9: 3, 4: 3}
    tree = q([-1, 6, -1, 7, -1, -1, -1])
    level_used = [0, 1, 1]
    counts = module.write_path_place(ctx(
        tree_slots=tree, entries=entries, level_used=level_used,
    ), 0)
    if not (
        counts == (0, 0, 0)
        and entries == {9: 3}
        and tree == q([4, 6, -1, 7, -1, -1, -1])
        and level_used == [1, 1, 1]
    ):
        return False

    # Gated placement: levels 0-1 are S-Stash (one way per set, set =
    # block parity) and set 0 is already full with block 8.  Z is 2 at
    # the root (slots 0-1; level 1 at 2-3, leaves at 4-7).  Target leaf
    # 0: block 5 (leaf 0) places at the ungated bottom; even block 2
    # (leaf 1) is skipped at level 1 and carried up to the root, where
    # block 3 (leaf 2, odd set) takes the first slot and block 2 is
    # skipped again, so it stays in the stash.
    entries = {2: 1, 3: 2, 5: 0}
    tree = q([-1] * 8)
    level_used = [0, 0, 0]
    resident = {8: 0}
    set_count = {0: 1}
    counts = module.write_path_place(ctx(
        tree_slots=tree, entries=entries,
        z_per_level=[2, 1, 1], level_used=level_used, top=2,
        treetop_mode=1, resident=resident, set_count=set_count,
        set_of=lambda block: block & 1, ways=1,
    ), 0)
    if not (
        counts == (0, 1, 2)
        and entries == {2: 1}
        and tree == q([3, -1, -1, -1, 5, -1, -1, -1])
        and level_used == [1, 0, 1]
        and resident == {8: 0, 3: 1}
        and set_count == {0: 1, 1: 1}
    ):
        return False

    # Path triples: a 2-level tree with Z=2 in one supernode at row 5,
    # 3-block rows, 2 channels of 2 banks.  Local offsets are root 0,
    # left 2, right 4, so the 6-slot supernode spans rows 5-6 and the
    # left bucket straddles them (column 2 of row 5, column 0 of row 6).
    # Row 5 is channel 1, bank 1 * 2 + (5 // 2) % 2 = 2; row 6 is
    # channel 0, bank (6 // 2) % 2 = 1.  Each table record is (shift, Z,
    # r, row base, rows, index of its first local offset); the offsets
    # sit at indexes 13-15.
    triples_ctx = ctx(
        leaves=2, levels=2, z_per_level=[2, 2], level_used=[0, 0],
        tree_slots=q([-1] * 6), bank_ready=[0] * 4,
        bank_open_row=[-1] * 4, bus_free=[0] * 2,
        dram_params=(1, 4, 3, 2, 5, 3, 2, 2),
        path_table=q([2, 1, 2, 0, 5, 2, 13, 0, 2, 1, 5, 2, 14, 0, 2, 4]),
    )
    if module.dram_triples(triples_ctx, 0) != q(
        [2, 1, 5, 2, 1, 5, 2, 1, 5, 1, 0, 6]
    ):
        return False
    if module.dram_triples(triples_ctx, 1) != q(
        [2, 1, 5, 2, 1, 5, 1, 0, 6, 1, 0, 6]
    ):
        return False

    # Whole-path batch: 2 leaves, 2 levels, block 3 sits at the root of
    # leaf 1's path mapped to leaf 0 -> read at t=0 finishes at 10
    # (activate 3 + two row-hit bursts), write finishes at 17, and the
    # block is placed back at the root (diverges from its leaf at level
    # 1), leaving the stash empty again.
    entries = {}
    level_used = [1, 0]
    ready = [0]
    open_row = [-1]
    bus_free = [0]
    tree = q([3, -1, -1])
    # One supernode at row 7 holds both levels (local offsets 0, 1, 2),
    # so leaf 1's path is two blocks in row 7 of the one bank.
    batch_ctx = ctx(
        randrange=lambda n: 1, leaves=2,
        path_table=q([2, 1, 1, 0, 7, 1, 13, 0, 1, 1, 7, 1, 14, 0, 1, 2]),
        tree_slots=tree, entries=entries, leaf_table=q([-1, -1, -1, 0]),
        z_per_level=[1, 1], level_used=level_used, levels=2,
        bank_ready=ready, bank_open_row=open_row, bus_free=bus_free,
    )
    result = module.run_batch(batch_ctx, 0, 0, 1, -1, -1, 10, 1, 0)
    if result != (1, 17, 1, [0, 10, 17],
                  (2, 3, 0, 0, 0, 0, 0, 0, 0), None):
        return False
    return (
        entries == {}
        and tree == q([3, -1, -1])
        and level_used == [1, 0]
        and ready == [14]
        and open_row == [7]
        and bus_free == [14]
    )


def _build(so_path: str) -> bool:
    cc = (
        os.environ.get("CC")
        or sysconfig.get_config_var("CC")
        or "cc"
    ).split()
    include = sysconfig.get_paths()["include"]
    tmp_path = f"{so_path}.{os.getpid()}.tmp"
    cmd = cc + [
        "-O2",
        "-shared",
        "-fPIC",
        f"-I{include}",
        _SOURCE,
        "-o",
        tmp_path,
    ]
    try:
        proc = subprocess.run(
            cmd,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
            timeout=120,
        )
    except (OSError, subprocess.SubprocessError):
        return False
    if proc.returncode != 0 or not os.path.exists(tmp_path):
        return False
    os.replace(tmp_path, so_path)
    return True


def _load() -> Optional[object]:
    if os.environ.get("REPRO_FASTPATH", "1") == "0":
        return None
    try:
        with open(_SOURCE, "rb") as handle:
            source = handle.read()
        tag = hashlib.sha256(
            source + sys.implementation.cache_tag.encode()
        ).hexdigest()[:16]
        cache = _cache_dir()
        os.makedirs(cache, exist_ok=True)
        so_path = os.path.join(cache, f"{_MODULE_NAME}-{tag}.so")
        if not os.path.exists(so_path) and not _build(so_path):
            return None
        loader = importlib.machinery.ExtensionFileLoader(_MODULE_NAME, so_path)
        spec = importlib.util.spec_from_loader(
            _MODULE_NAME, loader, origin=so_path
        )
        if spec is None:
            return None
        module = importlib.util.module_from_spec(spec)
        loader.exec_module(module)
        if not _self_test(module):
            return None
        return module
    except Exception:
        return None


#: the loaded C kernel module, or None when unavailable
fastpath = _load()


def available() -> bool:
    """Whether the C kernels are active in this process."""
    return fastpath is not None
