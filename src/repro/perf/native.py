"""On-demand build and load of the optional C hot-path kernels.

The simulator's innermost loops have bit-identical C implementations in
``_fastpath.c``, exposed as these entry points:

* ``dram_service`` — DRAM bank timing over decomposed address triples;
* ``read_and_clear`` — clear a path's slots into (block, level) pairs;
* ``stash_bulk_add`` — insert read-phase blocks with stash index upkeep;
* ``write_path_place`` — one path's greedy bottom-up write placement;
* ``path_triples`` — a leaf's path addresses, decomposed for DRAM;
* ``pack_triples`` — a triples entry in ``run_batch``'s packed form;
* ``run_batch`` — whole stretches of dummy paths in one call.

``write_path_place`` and ``run_batch`` share one placement engine and
place in C for both tree-top modes: the dedicated cache and IR-Stash's
S-Stash, whose set-occupancy gate the engine applies.  This module
compiles them with the system C compiler on first use, caches the shared
object under ``~/.cache/repro-fastpath/`` keyed by source hash and Python
ABI, and exposes the loaded module as :data:`fastpath`.

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
import struct
import subprocess
import sys
import sysconfig
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


def _self_test(module) -> bool:
    """Run the kernels on tiny inputs with known-good answers."""
    # One bank, one channel, two accesses to the same fresh row:
    # activate (t_rcd=3) + 2 bursts of 2, finish = 3 + 2 + 5 = 10 with
    # cas_burst=5; second access is a row hit issuing at t=5, done at 10.
    ready = [0]
    open_row = [-1]
    bus_free = [0]
    finish, hits, conflicts = module.dram_service(
        [0, 0, 7, 0, 0, 7], ready, open_row, bus_free, 0, 4, 3, 2, 5
    )
    if (finish, hits, conflicts) != (10, 1, 0):
        return False
    if ready != [7] or open_row != [7] or bus_free != [7]:
        return False

    slots = [3, -1, 9]
    level_used = [0, 2]
    removed = module.read_and_clear([(1, slots)], level_used, -1)
    if not (
        removed == [(3, 1), (9, 1)]
        and slots == [-1, -1, -1]
        and level_used == [0, 0]
    ):
        return False

    # Stash bulk add: two fresh blocks, leaves 6 and 3, prefix shift 2;
    # block 5 was read from level 0 (< top=1).
    entries: dict = {}
    seq: dict = {}
    by_prefix: dict = {}
    leaf_table = [0] * 10
    leaf_table[5] = 6
    leaf_table[9] = 3
    next_seq, top_blocks = module.stash_bulk_add(
        [(5, 0), (9, 1)], entries, seq, by_prefix, 2, 0, leaf_table, 1
    )
    if not (
        (next_seq, top_blocks) == (2, [5])
        and entries == {5: 6, 9: 3}
        and seq == {5: 0, 9: 1}
        and by_prefix == {1: {0: 5}, 0: {1: 9}}
    ):
        return False

    # Write-phase placement: 3 levels, z=1 everywhere, target leaf 1,
    # dedicated tree-top mode.  Block 5 (leaf 1) belongs at the bottom,
    # block 9 (leaf 3) diverges at the root; both place and leave the
    # stash empty.
    entries = {5: 1, 9: 3}
    seq = {5: 0, 9: 1}
    by_prefix = {1: {0: 5}, 3: {1: 9}}
    path_slots = [(0, [-1]), (1, [-1]), (2, [-1])]
    level_used = [0, 0, 0]
    counts = module.write_path_place(
        1, entries, seq, by_prefix, 0, 2, path_slots, [1, 1, 1],
        level_used, 3, 0, -1, 0, None, None, None, 0
    )
    if not (
        counts == (0, 0, 0)
        and entries == {}
        and seq == {}
        and by_prefix == {}
        and path_slots == [(0, [9]), (1, [-1]), (2, [5])]
        and level_used == [1, 0, 1]
    ):
        return False

    # Gated placement: levels 0-1 are S-Stash (one way per set, set =
    # block parity) and set 0 is already full with block 8.  Target leaf
    # 0: block 5 (leaf 0) places at the ungated bottom; even block 2
    # (leaf 1) is skipped at level 1 and carried up to the root, where
    # block 3 (leaf 2, odd set) takes the first slot and block 2 is
    # skipped again, so it stays in the stash.
    entries = {2: 1, 3: 2, 5: 0}
    seq = {2: 0, 3: 1, 5: 2}
    by_prefix = {1: {0: 2}, 2: {1: 3}, 0: {2: 5}}
    path_slots = [(0, [-1, -1]), (1, [-1]), (2, [-1])]
    level_used = [0, 0, 0]
    resident = {8: 0}
    set_count = {0: 1}
    counts = module.write_path_place(
        0, entries, seq, by_prefix, 0, 2, path_slots, [2, 1, 1],
        level_used, 3, 2, -1, 1, resident, set_count,
        lambda block: block & 1, 1
    )
    if not (
        counts == (0, 1, 2)
        and entries == {2: 1}
        and seq == {2: 0}
        and by_prefix == {1: {0: 2}}
        and path_slots == [(0, [3, -1]), (1, [-1]), (2, [5])]
        and level_used == [1, 0, 1]
        and resident == {8: 0, 3: 1}
        and set_count == {0: 1, 1: 1}
    ):
        return False

    # Fused path->triples: one level, Z=2, offset 5 in a 4-block row at
    # row base 3 -> both slots land in row 4 of channel 0, bank 0.
    meta = [(0, 2, 0, 0, [5], 3, 1)]
    triples = module.path_triples(0, meta, 4, 2, 2)
    if triples != [0, 0, 4, 0, 0, 4]:
        return False

    # Whole-path batch: 2 leaves, 2 levels, block 3 sits at the root of
    # leaf 1's path mapped to leaf 0 -> read at t=0 finishes at 10
    # (activate 3 + two row-hit bursts), write finishes at 17, and the
    # block is placed back at the root (diverges from its leaf at level
    # 1), leaving the stash empty again.
    entries = {}
    seq = {}
    by_prefix = {}
    leaf_table = [-1, -1, -1, 0]
    level_used = [1, 0]
    ready = [0]
    open_row = [-1]
    bus_free = [0]
    slots0 = [3]
    batch_ctx = (
        (lambda n: 1),                     # randrange
        2,                                 # leaves
        {1: ([0, 0, 7, 0, 0, 7], 2)},      # triples cache
        (lambda leaf: None),               # triples fallback (unused)
        {1: [(0, slots0), (1, [-1])]},     # path-slots cache
        (lambda leaf: None),               # slots fallback (unused)
        entries, seq, by_prefix,
        0,                                 # prefix shift
        1,                                 # prefix levels
        leaf_table,
        [1, 1],                            # z per level
        level_used,
        2,                                 # levels
        0,                                 # top (no tree-top cache)
        -1,                                # empty marker
        ready, open_row, bus_free,
        (1, 4, 3, 2, 5),                   # ratio, t_rp, t_rcd, t_burst, cas+burst
        0,                                 # treetop mode: counter cache
        None, None, None, 0,               # S-Stash slots unused
        {},                                # packed triple arrays
        None, 0,                           # getrandbits leg disabled
    )
    result = module.run_batch(batch_ctx, 0, 0, 0, 1, -1, -1, 10, 1, 0)
    if result != (1, 17, 1, 1, [0, 10, 17],
                  (2, 3, 0, 0, 0, 0, 0, 0, 0), None):
        return False
    packed = batch_ctx[26].get(1)
    if packed != struct.pack("=7q", 2, 0, 0, 7, 0, 0, 7):
        return False
    if module.pack_triples(([0, 0, 7, 0, 0, 7], 2), 1, 1) != packed:
        return False
    return (
        entries == {}
        and seq == {}
        and by_prefix == {}
        and slots0 == [3]
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
