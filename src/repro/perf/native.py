"""On-demand build and load of the optional C hot-path kernels.

The simulator's innermost loops have bit-identical C implementations in
``_fastpath.c``, exposed as these entry points:

* ``access_path`` — one whole path access, the one call a real, eviction
  or dummy path makes: read burst, read phase, the served block's remap
  or extraction, greedy bottom-up placement and write burst;
* ``run_batch`` — whole stretches of dummy paths in one call, through the
  same per-path function;
* ``dram_triples`` — one path's DRAM (bank, channel, row) triples, as an
  ``array('q')``;
* ``dram_service`` — DRAM bank timing over such an array.  The last two
  serve bursts issued apart from their path access (Palermo-style
  deferred writes) and the Rho and Ring small trees.

``access_path``, ``run_batch`` and ``dram_triples`` take one context
tuple (:func:`kernel_ctx`) and share one read loop and one placement
engine, for both tree-top modes: the dedicated cache and IR-Stash's
S-Stash, whose entries the read loop releases and whose set-occupancy
gate the placement engine applies, reading each block's set from the
S-Stash's set-index array (filled by ``set_of`` once per block).  The
stash is its ``block -> leaf`` dict alone: the kernels append read blocks
to it, delete placed ones, and group write-phase candidates by scanning
it in insertion order.  The tree's slots and the position map's leaves
are two ``array('q')`` buffers the kernels index directly, computing
each path's slot indexes from ``z_per_level``.  A path's DRAM addresses
are computed per access from the layout's ``path_table`` (a third
``array('q')``) and the DRAM geometry, and one timing loop serves every
burst.  This module compiles the kernels with the system C compiler on
first use, caches the shared object under ``~/.cache/repro-fastpath/``
keyed by source hash and Python ABI, and exposes the loaded module as
:data:`fastpath`.

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
    "treetop_mode", "resident", "set_count", "set_of", "set_index", "ways",
    "getrandbits", "leaf_bits",
)

#: ``access_path`` modes: what happens to the served block between the
#: read and the write phase.
SERVED_NONE, SERVED_REMAP, SERVED_EXTRACT = 0, 1, 2


def kernel_ctx(**slots) -> tuple:
    """The context tuple ``access_path``, ``run_batch`` and
    ``dram_triples`` take, from one keyword per :data:`CTX_SLOTS` name."""
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
        # A 3-level tree with Z=2 at the root and Z=1 below (slots: root
        # 0-1, level 1 at 2-3, leaves at 4-7), no memory-backed level in
        # the path table, one DRAM bank with 4-block rows, no tree-top
        # cache; each case overrides what it exercises.
        base = dict(
            randrange=None, leaves=4, path_table=q([0]), entries={},
            leaf_table=q([-1] * 10), tree_slots=q([-1] * 8),
            z_per_level=[2, 1, 1], level_used=[0, 0, 0], levels=3, top=0,
            empty=-1, bank_ready=[0], bank_open_row=[-1], bus_free=[0],
            dram_params=(1, 4, 3, 2, 5, 4, 1, 1), treetop_mode=0,
            resident=None, set_count=None, set_of=None, set_index=None,
            ways=0, getrandbits=None, leaf_bits=0,
        )
        base.update(slots)
        return kernel_ctx(**base)

    # Remap: blocks 5 (leaf 1, served) and 9 (leaf 3) share the root and
    # enter the stash in read order.  The remap draws 3 bits per leaf
    # (4 leaves): 7 and 4 are rejected, 2 is block 5's new leaf, and its
    # stash entry keeps its place.  On leaf 1's path both belong at the
    # root; the pool is a stack, so 9 takes slot 0 and 5 slot 1.  A
    # kernel that re-inserted block 5 would place it first.
    draws = iter([7, 4, 2])
    tree = q([5, 9, -1, -1, -1, -1, -1, -1])
    entries = {}
    level_used = [2, 0, 0]
    leaf_table = q([-1] * 10)
    leaf_table[5], leaf_table[9] = 1, 3
    result = module.access_path(ctx(
        tree_slots=tree, entries=entries, leaf_table=leaf_table,
        level_used=level_used, getrandbits=lambda bits: next(draws),
        leaf_bits=3,
    ), 1, 0, 5, SERVED_REMAP, True)
    if result != (0, 0, 0, 2, 0, (0, 0), (0, 0), (0, 0, 0, 0, 0)):
        return False
    if not (
        entries == {} and leaf_table[5] == 2 and leaf_table[9] == 3
        and tree == q([9, 5, -1, -1, -1, -1, -1, -1])
        and level_used == [2, 0, 0]
    ):
        return False

    # Extract under the S-Stash (root cached, one way per set): block 3
    # (leaf 2, set 1) leaves the root and its set; served block 6 (leaf
    # 0) is read from the bottom of leaf 0's path and extracted.  Block
    # 4 (leaf 3), already stashed, has no recorded set, so set_of runs
    # once for it.  Both diverge from leaf 0 at the root: block 3 takes
    # set 1 back, block 4 (set 1 too) is skipped and stays.
    tree = q([3, -1, -1, -1, 6, -1, -1, -1])
    entries = {4: 3}
    level_used = [1, 0, 1]
    leaf_table = q([-1] * 10)
    leaf_table[3], leaf_table[4], leaf_table[6] = 2, 3, 0
    resident = {3: 1}
    set_count = {1: 1}
    set_index = q([-1] * 10)
    set_index[3] = 1
    hashed = []

    def set_of(block):
        hashed.append(block)
        set_index[block] = 1
        return 1

    result = module.access_path(ctx(
        tree_slots=tree, entries=entries, leaf_table=leaf_table,
        level_used=level_used, top=1, treetop_mode=1, resident=resident,
        set_count=set_count, set_of=set_of, set_index=set_index, ways=1,
    ), 0, 0, 6, SERVED_EXTRACT, True)
    if result != (0, 0, 2, 3, 0, (0, 0), (0, 0), (0, 0, 1, 1, 1)):
        return False
    if not (
        entries == {4: 3} and leaf_table[6] == -1 and hashed == [4]
        and tree == q([3, -1, -1, -1, -1, -1, -1, -1])
        and level_used == [1, 0, 0]
        and resident == {3: 1} and set_count == {1: 1}
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
    if result != (1, 17, 1, [0, 10, 17], (2, 3, 0, 0, (0, 0, 0, 0, 0)),
                  None):
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
