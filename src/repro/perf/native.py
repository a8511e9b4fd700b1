"""On-demand build and load of the optional C hot-path kernels.

The simulator's innermost loops have bit-identical C implementations in
``_fastpath.c``, exposed as these entry points:

* ``drain_slots`` — the simulator's untraced loop in one call: before
  each slot the processor advances through the trace, probing the LLC
  and enqueueing its misses; the slot runs the victim-buffer
  re-inserts, each arrived head request's share of the slot, the
  victim-buffer parent fetches, background evictions and dummy paths;
  after it the completions fill the LLC (enqueueing its victims) and
  wake the processor; idle slots jump the clock.  A head request's share
  of a slot is the stash and S-Stash probes, the translation walk, then
  either an on-chip serve, or the first missing PosMap block's fetch, or
  the request's data path.  It returns every ``DRAIN_CHUNK`` slots (see
  :mod:`repro.sim.simulator`), at a dummy slot IR-DWB may convert and at
  the end of the run.  The front end's state is a ``FrontEnd`` over the
  trace's record list and the processor's, the LLC's and the in-flight
  table's arrays;
* ``attribute_cycles`` — the cycle breakdown's pass over a run's path
  timeline;
* ``access_path`` — one whole path access, as a slot outside the drain
  issues it: read burst, read phase, the served block's remap or
  extraction, greedy bottom-up placement and write burst.  The drain's
  paths run through the same per-path function;
* ``dram_triples`` — one path's DRAM (bank, channel, row) triples, as an
  ``array('q')``;
* ``dram_service`` — DRAM bank timing over such an array.  The last two
  serve bursts issued apart from their path access (Palermo-style
  deferred writes) and the Rho and Ring small trees;
* ``translate`` — one request's PosMap chain walk: the PLB and
  victim-buffer probes, free promotions of stash and S-Stash resident
  PosMap blocks into the PLB, and the re-insert of every PLB victim those
  fills displace, returning the PosMap blocks still to fetch;
* ``plb_install`` — a PLB fill and its victim's re-insert, for a fetched
  or promoted PosMap block;
* ``find_in_treetop`` — where a block sits in the cached top of a path;
* ``draw_leaves`` — the position map's initial leaf table;
* ``init_tree`` — the initial tree: a ``Random.shuffle`` of every block
  id, then bottom-up placement into the empty tree array, returning the
  blocks that overflow into the stash;
* ``benchmark_records`` — a Table II benchmark model's trace records:
  ``benchmark_trace``'s loop, with its history window, its LRU image of
  the LLC and its ring of recent evictions in C memory.
  ``benchmark_trace`` calls it for a plain ``random.Random`` when every
  integer the loop produces fits in int64.

Every integer RNG draw — a leaf, a remap, a shuffle step, a trace's
``randrange`` — goes through one C helper, ``randbelow``:
``Random._randbelow_with_getrandbits`` inlined over the RNG's bound
``getrandbits``; a trace's ``random()`` calls the bound ``random``, and
its ``expovariate`` is Python's formula over that draw.  So the kernels
consume exactly the bits the Python code consumes, and only for a plain
``random.Random``.

The path entries book their own counters — every stats counter, the
``hit.level`` histogram, the stash peak, ``remap_count``, the path count
and the ``engine.*`` tier and batch counts — with the keys of the
state's ``counter_keys`` (:func:`counter_keys`) and the Python code's
value types, so the controller only emits trace events around them.

All but ``dram_service``, the setup entries and ``benchmark_records``
take one ``KernelState``, which the controller builds once from its live
state and which holds and validates it for its lifetime: the tree's slots, the position map's
leaves, the level occupancy, the layout's ``path_table``, the DRAM bank
state, the PLB's three arrays (block ids per set in LRU-to-MRU order,
dirty flags, per-set fill counts, the layout the LLC shares through
:mod:`repro.cache.flat` and one set of C helpers) and the S-Stash's
two arrays (each
block's set-index entry with its residency flag, each set's count) as
``array('q')`` buffers the kernels index directly, with the
controller's path count; the ``Stash``, the victim buffer, the
counters, the histograms, the engine counts and ``getrandbits`` as
references; the path types and request kinds it
compares against; and the geometry, the namespace, the S-Stash's sets
and ways, the DRAM timing and the slot parameters.  ``drain_slots``,
``access_path`` and ``dram_triples`` share one read loop, one placement
engine and one DRAM timing loop, for both tree-top modes: the dedicated
cache and IR-Stash's S-Stash, whose entries the read loop releases and
whose set-occupancy gate the placement engine applies, hashing a block's
set with an in-file MD5 the first time it meets it.  The kernels index
the stash's slab (:mod:`repro.oram.stash`) through a buffer view taken
and checked for each call, since the Python tier grows it between
calls: they append read blocks to it, tombstone placed ones, group
write-phase candidates by scanning it in insertion order and compact
it after each write phase.  A path's
DRAM addresses are computed per access from the path table and the DRAM
geometry.

This module compiles the kernels with the system C compiler on first
use, caches the shared object under ``~/.cache/repro-fastpath/`` keyed
by source hash and Python ABI, and exposes the loaded module as
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
from collections import defaultdict, deque
from typing import Optional

from .. import stats_keys as sk

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


#: The keys the kernels book, in the order of ``enum CounterKey`` in
#: ``_fastpath.c``: stats counters, the ``hit.level`` histogram, then the
#: controller's own ``engine.*`` counts.
COUNTER_KEYS = (
    # translation
    sk.PLB_HITS, sk.PLB_EVICTIONS, sk.PLB_DIRTY_EVICTIONS,
    sk.PLB_STASH_PROMOTIONS, sk.PLB_TREETOP_PROMOTIONS,
    sk.SSTASH_PROBE_HITS, sk.SSTASH_PROBE_MISSES, sk.SSTASH_REMOVED,
    sk.PLB_REINSERTS, sk.PLB_DEFERRED_REINSERTS,
    # one path access
    sk.PATHS_TOTAL, sk.MEM_BLOCKS_READ, sk.MEM_BLOCKS_WRITTEN,
    sk.DRAM_ACCESSES, sk.DRAM_READS, sk.DRAM_WRITES, sk.DRAM_ROW_HITS,
    sk.DRAM_ROW_CONFLICTS,
    sk.TREETOP_PLACED, sk.TREETOP_REMOVED, sk.SSTASH_PLACED,
    sk.SSTASH_PLACEMENT_SKIPS, sk.EVICTION_TRIGGERS,
    # serving a request
    sk.SERVE_STASH_HITS, sk.SERVE_SSTASH_HITS, sk.SERVE_TREETOP_HITS,
    sk.SERVE_REINSERTS, sk.TRANSLATION_COMPLETED, sk.PLB_MISS_FETCHES,
    sk.POSMAP_ACCESSES, sk.WRITEBACK_PATHS,
    # a slot's priority paths
    sk.POSMAP_WRITEBACK_PATHS, sk.EVICTION_PATHS, sk.EVICTION_CYCLES,
    sk.EVICTION_STORM_YIELDS,
    # the front end
    sk.CPU_STALL_CYCLES, sk.CPU_READ_MISSES_ISSUED,
    sk.CPU_WRITE_MISSES_ISSUED, sk.CPU_BLOCK_EVENTS, sk.LLC_HITS,
    sk.LLC_MISSES, sk.LLC_EVICTIONS, sk.LLC_DIRTY_EVICTIONS,
    sk.HIERARCHY_DEMAND_MISSES, sk.REQUESTS_READ, sk.REQUESTS_WRITEBACK,
    sk.REQUESTS_REINSERT,
    sk.HIT_LEVEL,
    sk.ENGINE_TIER_KERNEL_PATHS, sk.ENGINE_BATCH_CALLS,
    sk.ENGINE_BATCH_PATHS,
)


def counter_keys(path_types) -> tuple:
    """A state's ``counter_keys``: :data:`COUNTER_KEYS`, then the
    ``paths.<type>`` and the ``mem.blocks.<type>`` key of each of its
    ``path_types``, in their order."""
    return (
        COUNTER_KEYS
        + tuple(sk.paths_key(pt) for pt in path_types)
        + tuple(sk.mem_blocks_key(pt) for pt in path_types)
    )


#: ``access_path`` modes: what happens to the served block between the
#: read and the write phase.
SERVED_NONE, SERVED_REMAP, SERVED_EXTRACT = 0, 1, 2

#: ``drain_slots`` dummy modes: leave a slot no real work takes empty,
#: run its dummy path in the kernel, or hand it back to the caller.
DUMMIES_NONE, DUMMIES_KERNEL, DUMMIES_CALLER = range(3)

#: ``drain_slots`` stops: after its cap of slots; after an idle slot
#: (without a front end); with the last slot's dummy left to the caller;
#: at the end of the run (with a front end).
DRAIN_BOUNDARY, DRAIN_IDLE, DRAIN_DUMMY, DRAIN_DONE = range(4)


def _self_test(module) -> bool:
    """Run the kernels on tiny inputs with known-good answers."""
    def q(values):
        return array("q", values)

    # One bank, one channel, two accesses to the same fresh row:
    # activate (t_rcd=3) + 2 bursts of 2, finish = 3 + 2 + 5 = 10 with
    # cas_burst=5; second access is a row hit issuing at t=5, done at 10.
    ready = q([0])
    open_row = q([-1])
    bus_free = q([0])
    finish, hits, conflicts = module.dram_service(
        q([0, 0, 7, 0, 0, 7]), ready, open_row, bus_free, 0, 4, 3, 2, 5
    )
    if (finish, hits, conflicts) != (10, 1, 0):
        return False
    if ready != q([7]) or open_row != q([7]) or bus_free != q([7]):
        return False

    from ..oram.stash import Stash

    def stash(*entries):
        held = Stash(1)
        for block, leaf in entries:
            held.insert(block, leaf)
        return held

    class PosMap:
        remap_count = 0

    class PathType:
        def __init__(self, value):
            self.value = value

    types = tuple(PathType(value) for value in ("d", "p1", "p2", "m", "e"))
    kinds = (object(), object(), object())  # read, write-back, re-insert

    def state(**fields):
        # A 3-level tree with Z=2 at the root and Z=1 below (slots: root
        # 0-1, level 1 at 2-3, leaves at 4-7), no memory-backed level in
        # the path table, one DRAM bank with 4-block rows, no tree-top
        # cache; each case overrides what it exercises.
        base = dict(
            leaves=4, z_per_level=[2, 1, 1], top=0,
            tree_slots=q([-1] * 8), level_used=q([0, 0, 0]),
            leaf_table=q([-1] * 10), path_table=q([0]),
            bank_ready=q([0]), bank_open_row=q([-1]), bus_free=q([0]),
            dram=(1, 4, 3, 2, 5, 4, 1, 1), treetop_mode=0, set_index=None,
            set_count=None, sets=0, ways=0,
            getrandbits=None, plb_blocks=q([-1] * 2), plb_dirty=q([0] * 2),
            plb_fills=q([0, 0]), plb_ways=1, namespace=(4, 8, 10, 4),
            limbo=set(), internal_queue=[], counters={},
            counter_keys=counter_keys(types), stash=stash(), posmap=PosMap(),
            path_types=types, request_kinds=kinds,
            histograms=defaultdict(lambda: defaultdict(float)),
            batch_counters={}, path_count=q([0]), eviction_threshold=10,
            background_eviction=True, delayed_remap=False,
            onchip_latency=20, requests=deque(), issue_interval=0,
            timing_protection=True, max_evictions=50,
        )
        base.update(fields)
        return module.KernelState(**base)

    # Remap: blocks 5 (leaf 1, served) and 9 (leaf 3) share the root and
    # enter the stash in read order.  The remap draws 3 bits per leaf
    # (4 leaves): 7 and 4 are rejected, 2 is block 5's new leaf, and its
    # stash entry keeps its place.  On leaf 1's path both belong at the
    # root; the pool is a stack, so 9 takes slot 0 and 5 slot 1.  A
    # kernel that re-inserted block 5 would place it first.
    # The access books itself as a path of the first type: the stash
    # peak rises to 2, the remap is counted, and every counter it
    # creates is a float, as on the stats' defaultdict(float).
    draws = iter([7, 4, 2])
    tree = q([5, 9, -1, -1, -1, -1, -1, -1])
    level_used = q([2, 0, 0])
    leaf_table = q([-1] * 10)
    leaf_table[5], leaf_table[9] = 1, 3
    counters, batch, path_count = {}, {}, q([0])
    held, posmap = stash(), PosMap()
    result = module.access_path(state(
        tree_slots=tree, leaf_table=leaf_table,
        level_used=level_used, getrandbits=lambda bits: next(draws),
        counters=counters, batch_counters=batch, path_count=path_count,
        stash=held, posmap=posmap,
    ), 1, 0, 5, SERVED_REMAP, True, types[0])
    if result != (0, 0, 0, 2, 0, 0, 0, 0, 0):
        return False
    if not (
        len(held) == 0 and leaf_table[5] == 2 and leaf_table[9] == 3
        and tree == q([9, 5, -1, -1, -1, -1, -1, -1])
        and level_used == q([2, 0, 0])
        and held.peak_occupancy == 2 and posmap.remap_count == 1
        and path_count == q([1]) and batch == {sk.ENGINE_TIER_KERNEL_PATHS: 1}
        and counters[sk.PATHS_TOTAL] == 1 and counters["paths.d"] == 1
        and all(type(value) is float for value in counters.values())
        and sk.TREETOP_PLACED not in counters
    ):
        return False

    # Extract under the S-Stash (root cached, 256 sets of one way): block
    # 3 (leaf 2) leaves the root and its set; served block 6 (leaf 0) is
    # read from the bottom of leaf 0's path and extracted.  Block 0 (leaf
    # 3), already stashed, is not hashed yet, so the kernel hashes it:
    # MD5 of its eight zero bytes begins 7d ea 36 2b, little-endian
    # 0x2b36ea7d, which is 125 mod 256 -- block 3's set (MD5 7d 2d 5f
    # ca).  Both diverge from leaf 0 at the root: block 3 takes set 125
    # back, block 0 is skipped and stays, its set recorded.
    resident = 1 << 32  # ir_stash.RESIDENT
    tree = q([3, -1, -1, -1, 6, -1, -1, -1])
    held = stash((0, 3))
    level_used = q([1, 0, 1])
    leaf_table = q([-1] * 10)
    leaf_table[0], leaf_table[3], leaf_table[6] = 3, 2, 0
    set_count = q([0] * 256)
    set_count[125] = 1
    set_index = q([-1] * 10)
    set_index[3] = 125 + resident
    counters = {}
    result = module.access_path(state(
        tree_slots=tree, stash=held, leaf_table=leaf_table,
        level_used=level_used, top=1, treetop_mode=1, set_index=set_index,
        set_count=set_count, sets=256, ways=1, counters=counters,
    ), 0, 0, 6, SERVED_EXTRACT, True, types[1])
    if result != (0, 0, 2, 3, 0, 0, 0, 0, 0):
        return False
    if not (
        list(held.items()) == [(0, 3)] and leaf_table[6] == -1
        and set_index[0] == 125 and set_index[3] == 125 + resident
        and sum(set_count) == set_count[125] == 1
        and tree == q([3, -1, -1, -1, -1, -1, -1, -1])
        and level_used == q([1, 0, 0])
        and counters[sk.SSTASH_PLACED] == counters[sk.SSTASH_REMOVED]
        == counters[sk.SSTASH_PLACEMENT_SKIPS] == counters["paths.p1"] == 1
        and sk.TREETOP_REMOVED not in counters
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
    triples_state = state(
        leaves=2, z_per_level=[2, 2], level_used=q([0, 0]),
        tree_slots=q([-1] * 6), bank_ready=q([0] * 4),
        bank_open_row=q([-1] * 4), bus_free=q([0] * 2),
        dram=(1, 4, 3, 2, 5, 3, 2, 2),
        path_table=q([2, 1, 2, 0, 5, 2, 13, 0, 2, 1, 5, 2, 14, 0, 2, 4]),
    )
    if module.dram_triples(triples_state, 0) != q(
        [2, 1, 5, 2, 1, 5, 2, 1, 5, 1, 0, 6]
    ):
        return False
    if module.dram_triples(triples_state, 1) != q(
        [2, 1, 5, 2, 1, 5, 1, 0, 6, 1, 0, 6]
    ):
        return False

    # Translation under the S-Stash (root cached): user block 1's chain is
    # PosMap1 block 4 then PosMap2 block 8 (namespace 4, 8, 10, fanout 4).
    # Block 8 sits in the root, so it is promoted: its slot and S-Stash
    # entry go, and it fills PLB set 0 (one way), evicting dirty block 6.
    # Block 6's parent (8) is now in the PLB, so it re-inserts at once:
    # restore draws 3 bits, 5 is rejected and 2 becomes its leaf; 8 is
    # dirtied again (a PLB hit) and 6 enters the stash as a new peak.
    # Block 4 is neither in the PLB, the stash nor the S-Stash.
    draws = iter([5, 2])
    leaf_table = q([-1] * 10)
    leaf_table[8] = 3
    plb_blocks, plb_dirty, plb_fills = q([6, -1]), q([1, 0]), q([1, 0])
    tree = q([-1, 8, -1, -1, -1, -1, -1, -1])
    level_used = q([1, 0, 0])
    set_index, set_count = q([-1] * 10), q([1])
    set_index[8] = resident  # set 0 of 1
    counters = {}
    held, posmap = stash(), PosMap()
    chain = module.translate(state(
        tree_slots=tree, leaf_table=leaf_table,
        level_used=level_used, top=1, treetop_mode=1, set_index=set_index,
        set_count=set_count, sets=1, ways=1,
        getrandbits=lambda bits: next(draws),
        plb_blocks=plb_blocks, plb_dirty=plb_dirty, plb_fills=plb_fills,
        counters=counters, stash=held, posmap=posmap,
    ), 1)
    if chain != [4]:
        return False
    if not (
        list(held.items()) == [(6, 2)] and leaf_table[6] == 2
        and leaf_table[8] == -1
        and plb_blocks == q([8, -1]) and plb_dirty == q([1, 0])
        and plb_fills == q([1, 0]) and tree == q([-1] * 8)
        and level_used == q([0, 0, 0]) and set_index[8] == 0
        and set_count == q([0])
        and held.peak_occupancy == 1 and posmap.remap_count == 1
        and counters == {
            sk.SSTASH_PROBE_HITS: 1, sk.SSTASH_REMOVED: 1,
            sk.PLB_EVICTIONS: 1, sk.PLB_DIRTY_EVICTIONS: 1, sk.PLB_HITS: 1,
            sk.PLB_REINSERTS: 1, sk.PLB_TREETOP_PROMOTIONS: 1,
            sk.SSTASH_PROBE_MISSES: 1,
        }
    ):
        return False

    # Setup: draw_leaves draws 2 bits per leaf of 3 (3 is rejected).
    # init_tree shuffles blocks 0-3 (leaves 0, 0, 1, 0) into a 2-level
    # tree with Z=1: i=3 draws 3 bits (5 rejected, then 1: swap slots 3
    # and 1), i=2 draws 2 bits (2: no swap), i=1 draws 2 bits (0: swap
    # slots 1 and 0), giving order 3, 0, 2, 1.  Block 3 takes leaf 0's
    # bucket, 0 the root, 2 leaf 1's bucket, and 1 overflows.
    draws = iter([3, 2, 0, 1])
    leaves = module.draw_leaves(3, 3, lambda bits: next(draws))
    if leaves != q([2, 0, 1]):
        return False
    script = iter([5, 1, 2, 0])
    widths = []

    def getrandbits(bits):
        widths.append(bits)
        return next(script)

    tree = q([-1, -1, -1])
    level_used = q([0, 0])
    overflow = module.init_tree(
        tree, q([0, 0, 1, 0]), [1, 1], level_used, getrandbits
    )
    if not (
        overflow == [1] and widths == [3, 3, 2, 2]
        and tree == q([0, 3, 2]) and level_used == q([1, 2])
    ):
        return False

    # Trace generation: six records over a 4-block scan region inside an
    # 8-block footprint at block 100, a one-line LLC image, thresholds
    # 0.2/0.4/0.6/0.8, bursts of one record at probability 0.5, no quiet
    # phases, and a gap rate of 0.5.  The cursor draws 3 bits (5
    # rejected, then 2).  1: gap int(-log(0.25) / 0.5) = 2, a scan to
    # offset 3.  2: gap 1, a burst starts, a short reuse of offset 3.
    # 3: the burst's gap 1 + 1 (2 bits, 3 rejected), a uniform offset 6
    # (4 bits) that evicts 3.  4: a thrash reuse of the last eviction,
    # 3, which evicts 6.  5: a mid-range reuse 1 + 1 back (3 bits for a
    # 4-record history): 6.  6: a short reuse whose distance, 1 + 4,
    # clamps to the 5-record history: offset 3.
    units = iter([
        0.75, 0.9, 0.1, 0.9, 0.0, 0.1, 0.3, 0.0, 0.1, 0.9, 0.9, 0.0, 0.9,
        0.5, 0.0, 0.1, 0.0, 0.9, 0.7, 0.9, 0.0, 0.9, 0.3, 0.99, 0.1,
    ])
    script = iter([5, 2, 3, 1, 6, 1])
    widths = []
    records = module.benchmark_records(
        6, 4, 8, 8, 100, 64, 64, 1, 64, 1, (0.2, 0.4, 0.6, 0.8),
        (0.0, 0.5, 0.5), (0.5, 1.0, 1.0, 1.0), lambda: next(units),
        getrandbits,
    )
    if not (
        records == [(2, 103, False), (1, 103, True), (2, 106, False),
                    (1, 103, True), (1, 106, False), (1, 103, True)]
        and widths == [3, 3, 2, 2, 4, 3]
        and next(units, None) is None and next(script, None) is None
    ):
        return False

    # A dummy path: 2 leaves, 2 levels, block 3 sits at the root of leaf
    # 1's path mapped to leaf 0 -> read at t=0 finishes at 10 (activate 3
    # + two row-hit bursts), write finishes at 17, and the block is placed
    # back at the root (diverges from its leaf at level 1), leaving the
    # stash empty again.  One supernode at row 7 holds both levels (local
    # offsets 0, 1, 2), so leaf 1's path is two blocks in row 7 of the one
    # bank.  A one-slot drain with no request runs it: a record of the
    # fourth path type issued at 0, finishing at 10 and 17, the next slot
    # at 17 (interval 0).  It books the path as a batch of one: 2 blocks
    # per burst, 3 row hits over both bursts, the stash peak of 1.
    counters, batch, held = {}, {}, stash()
    arrays = dict(tree_slots=q([3, -1, -1]), level_used=q([1, 0]),
                  bank_ready=q([0]), bank_open_row=q([-1]), bus_free=q([0]))
    result = module.drain_slots(state(
        getrandbits=lambda bits: 1, leaves=2,
        path_table=q([2, 1, 1, 0, 7, 1, 13, 0, 1, 1, 7, 1, 14, 0, 1, 2]),
        leaf_table=q([-1, -1, -1, 0]), z_per_level=[1, 1],
        counters=counters, batch_counters=batch, stash=held, **arrays,
    ), None, 0, 1, DUMMIES_KERNEL, 0, 0)
    if result != ([], q([3, 0, 10, 17, 0]), 17, 1, DRAIN_BOUNDARY, 0, 0):
        return False
    if not (
        len(held) == 0
        and arrays["tree_slots"] == q([3, -1, -1])
        and arrays["level_used"] == q([1, 0])
        and arrays["bank_ready"] == q([14])
        and arrays["bank_open_row"] == q([7])
        and arrays["bus_free"] == q([14])
        and held.peak_occupancy == 1
        and batch == {sk.ENGINE_BATCH_CALLS: 1, sk.ENGINE_BATCH_PATHS: 1}
        and counters == {
            "paths.m": 1, sk.PATHS_TOTAL: 1, sk.MEM_BLOCKS_READ: 2,
            "mem.blocks.m": 4, sk.DRAM_ACCESSES: 4, sk.DRAM_ROW_HITS: 3,
            sk.DRAM_ROW_CONFLICTS: 0, sk.DRAM_READS: 2, sk.DRAM_WRITES: 2,
            sk.MEM_BLOCKS_WRITTEN: 2,
        }
    ):
        return False

    # The cycle breakdown: a dummy path 10-20-30 whose next slot may
    # issue at 40, then a data path 50-60-90 clipped to 80 cycles: 10
    # idle, the stall 30-40, idle 40-50.
    if module.attribute_cycles(
        q([3, 10, 20, 30, 40, 0, 50, 60, 90, 100]), 80, (0, 1, 1, 2, 3, 2)
    ) != (10, 20, 0, 0, 10, 10, 0, 0, 10, 20):
        return False

    # A one-slot drain serving a read of user block 1 (leaf 2, at the
    # bottom of its path) whose PosMap1 block 4 is in the PLB: PosMap2
    # block 8 is not on chip, but block 1's chain needs only block 4, so
    # both walks are free and nothing is on chip.  The data path reads
    # block 1 from level 2 at t=5, draws 3 bits to remap it (6 rejected,
    # then leaf 1), places it at the root and dirties block 4, a PLB hit;
    # the request leaves the queue and completes at the read finish, one
    # path used.
    class Request:
        block, kind, arrival, completion, paths_used = 1, kinds[0], 0, None, 0
        translation_counted = False

    request = Request()
    widths = []
    script = iter([6, 1])

    def getrandbits(bits):
        widths.append(bits)
        return next(script)

    held, counters, requests = stash(), {}, deque([request])
    histograms = defaultdict(lambda: defaultdict(float))
    tree = q([-1, -1, -1, -1, -1, -1, 1, -1])
    level_used = q([0, 0, 1])
    leaf_table = q([-1] * 10)
    leaf_table[1] = 2
    plb_blocks, plb_dirty, plb_fills = q([4, -1]), q([0, 0]), q([1, 0])
    result = module.drain_slots(state(
        tree_slots=tree, stash=held, leaf_table=leaf_table,
        level_used=level_used, getrandbits=getrandbits,
        plb_blocks=plb_blocks, plb_dirty=plb_dirty, plb_fills=plb_fills,
        counters=counters, histograms=histograms, requests=requests,
    ), None, 5, 1, DUMMIES_KERNEL, 0, 0)
    return (
        result == ([request], q([0, 5, 5, 5, 5]), 5, 1, DRAIN_BOUNDARY, 0, 0)
        and not requests and widths == [3, 3] and len(held) == 0
        and tree == q([1, -1, -1, -1, -1, -1, -1, -1])
        and level_used == q([1, 0, 0]) and leaf_table[1] == 1
        and plb_blocks == q([4, -1]) and plb_dirty == q([1, 0])
        and request.completion == 5 and request.paths_used == 1
        and request.translation_counted is True
        and histograms[sk.HIT_LEVEL] == {2: 1.0}
        and counters[sk.TRANSLATION_COMPLETED] == 1
        and counters[sk.PLB_HITS] == 1 and counters["paths.d"] == 1
        and sk.PLB_MISS_FETCHES not in counters
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
        "-lm",
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
