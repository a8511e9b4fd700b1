/* Optional C hot-path kernels for the repro simulator.
 *
 * Compiled on demand by repro.perf.native with the system C compiler and
 * loaded as the extension module `_repro_fastpath`.  Every function here
 * mirrors a pure-Python implementation bit for bit — the Python versions
 * stay in the tree as both fallback and behavioural oracle, and the
 * equivalence tests compare whole simulations across the two.
 *
 * The kernels operate directly on the simulator's live Python objects
 * (plain lists of ints), so there is a single source of truth for all
 * state; no separate C-side state is kept.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <string.h>
#include <time.h>

static inline unsigned long long
now_ns(void)
{
    struct timespec ts;
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return (unsigned long long)ts.tv_sec * 1000000000ull +
           (unsigned long long)ts.tv_nsec;
}

/* dram_service(triples, ready, open_row, bus_free,
 *              now_dram, t_rp, t_rcd, t_burst, cas_burst)
 *   -> (finish_dram, row_hits, row_conflicts)
 *
 * `triples` is the flat [bank, channel, row, ...] list produced by
 * DRAMModel.decompose_batch; `ready`, `open_row` (row id or -1 = closed)
 * and `bus_free` are the model's bank-state lists, mutated in place.
 * Mirrors DRAMModel._service_py.
 */
static PyObject *
dram_service(PyObject *self, PyObject *args)
{
    PyObject *triples, *ready, *open_row, *bus_free;
    long long now_dram, t_rp, t_rcd, t_burst, cas_burst;
    if (!PyArg_ParseTuple(
            args, "O!O!O!O!LLLLL",
            &PyList_Type, &triples, &PyList_Type, &ready,
            &PyList_Type, &open_row, &PyList_Type, &bus_free,
            &now_dram, &t_rp, &t_rcd, &t_burst, &cas_burst))
        return NULL;

    Py_ssize_t n = PyList_GET_SIZE(triples);
    long long finish = now_dram;
    long long row_hits = 0;
    long long conflicts = 0;

    for (Py_ssize_t i = 0; i + 2 < n; i += 3) {
        long long bank = PyLong_AsLongLong(PyList_GET_ITEM(triples, i));
        long long channel = PyLong_AsLongLong(PyList_GET_ITEM(triples, i + 1));
        long long row = PyLong_AsLongLong(PyList_GET_ITEM(triples, i + 2));
        if (PyErr_Occurred())
            return NULL;
        if (bank < 0 || bank >= PyList_GET_SIZE(ready) ||
            channel < 0 || channel >= PyList_GET_SIZE(bus_free)) {
            PyErr_SetString(PyExc_IndexError, "bank/channel out of range");
            return NULL;
        }

        long long t = PyLong_AsLongLong(PyList_GET_ITEM(ready, bank));
        long long freed = PyLong_AsLongLong(PyList_GET_ITEM(bus_free, channel));
        if (freed > t)
            t = freed;
        if (now_dram > t)
            t = now_dram;

        long long current = PyLong_AsLongLong(PyList_GET_ITEM(open_row, bank));
        if (PyErr_Occurred())
            return NULL;
        if (current != row) {
            if (current != -1) {
                t += t_rp;
                conflicts++;
            }
            t += t_rcd;
            PyObject *row_obj = PyLong_FromLongLong(row);
            if (row_obj == NULL)
                return NULL;
            PyList_SetItem(open_row, bank, row_obj);
        } else {
            row_hits++;
        }

        long long done = t + cas_burst;
        long long next_slot = t + t_burst;
        PyObject *slot_obj = PyLong_FromLongLong(next_slot);
        if (slot_obj == NULL)
            return NULL;
        PyList_SetItem(bus_free, channel, slot_obj);
        slot_obj = PyLong_FromLongLong(next_slot);
        if (slot_obj == NULL)
            return NULL;
        PyList_SetItem(ready, bank, slot_obj);
        if (done > finish)
            finish = done;
    }
    return Py_BuildValue("LLL", finish, row_hits, conflicts);
}

/* ---------------------------------------------------------------- */
/* Stash grouping shared by the read and write phases                */
/* ---------------------------------------------------------------- */

static inline long long
bit_length(unsigned long long x)
{
    return x ? 64 - __builtin_clzll(x) : 0;
}

/* The deepest level a block mapped to ``block_leaf`` may occupy on the
 * path to ``leaf`` in a ``levels``-level tree: the XOR/bit-length rule of
 * ORAMTree.deepest_common_level.  Negative for a leaf outside the tree.
 */
static inline long long
deepest_level(long long levels, long long leaf, long long block_leaf)
{
    return (levels - 1) - bit_length((unsigned long long)(leaf ^ block_leaf));
}

/* Pool entry of the placement engine: a stash block, in stash order. */
typedef struct {
    PyObject *block;
    Py_ssize_t idx;   /* read-order index (array-mode placement only) */
} PoolItem;

#define FASTPATH_MAX_LEVELS 64

/* Cap on the packed per-leaf triple cache inside the kernel ctx; mirrors
 * ORAMTree.PATH_CACHE_LIMIT so both memo layers evict in step.
 */
#define PACKED_CACHE_LIMIT (1 << 16)

typedef struct {
    long long ratio;      /* CPU cycles per DRAM cycle */
    long long t_rp;
    long long t_rcd;
    long long t_burst;
    long long cas_burst;  /* t_cas + t_burst */
} DramTiming;

/* ---------------------------------------------------------------- */
/* The kernel context                                                */
/* ---------------------------------------------------------------- */

/* The controller's one kernel context, unpacked.  ``ctx`` is the 25-slot
 * tuple PathORAMController._kernel_ctx freezes; read_path,
 * write_path_place and run_batch all take it:
 *
 *    0 randrange        leaf draw for run_batch
 *    1 leaves           leaf count
 *    2 triples_cache    leaf -> (DRAM triples, blocks) memo
 *    3 triples_fn       its memoizing miss fallback
 *    4 slots_cache      leaf -> [(level, slots), ...] memo
 *    5 slots_fn         its memoizing miss fallback
 *    6 entries          the stash's block -> leaf dict, in stash order
 *    7 leaf_table       position-map leaf list
 *    8-12               z per level, level occupancy, levels, cached
 *                       top levels, empty-slot marker
 *   13-15               DRAM bank ready / open row / bus free lists
 *   16 dram params      (ratio, t_rp, t_rcd, t_burst, t_cas + t_burst)
 *   17 tree-top mode    0 = dedicated counter-only cache, 1 = S-Stash
 *   18-21               S-Stash resident, set_count, set_of, ways
 *   22 packed_cache     leaf -> packed triple bytes, kernel-filled
 *   23-24               the RNG's getrandbits and the leaf-count bit
 *                       width when it is a plain random.Random, else
 *                       None, 0
 *
 * Object fields are borrowed from the tuple.  Bucket sizes and level
 * occupancy are hoisted into C arrays (occupancy goes back through
 * store_used), and the tree-top counters gather one call's hook effects
 * for the caller to apply.
 */
typedef struct {
    PyObject *randrange, *leaves_obj, *triples_cache, *triples_fn,
        *slots_cache, *slots_fn, *entries, *leaf_table, *level_used,
        *empty_obj, *bank_ready, *bank_open_row, *bus_free, *resident,
        *set_count, *set_of, *packed_cache, *getrandbits;
    long long leaves, levels, top, empty, ways, leaf_bits;
    int gated;  /* tree-top mode 1: S-Stash set gating and release */
    DramTiming dram;
    long long z_arr[FASTPATH_MAX_LEVELS];
    long long used_arr[FASTPATH_MAX_LEVELS];
    long long placed_top, removed_top, ss_placed, ss_removed, ss_skips;
} KernelCtx;

/* Unpack and validate ``ctx`` into ``c``.  Returns 0, or -1 with an
 * exception set.
 */
static int
parse_ctx(PyObject *ctx, KernelCtx *c)
{
    if (!PyTuple_Check(ctx) || PyTuple_GET_SIZE(ctx) != 25) {
        PyErr_SetString(PyExc_ValueError, "kernel ctx must have 25 slots");
        return -1;
    }
#define CTX(i) PyTuple_GET_ITEM(ctx, i)
    c->randrange = CTX(0);
    c->leaves_obj = CTX(1);
    c->triples_cache = CTX(2);
    c->triples_fn = CTX(3);
    c->slots_cache = CTX(4);
    c->slots_fn = CTX(5);
    c->entries = CTX(6);
    c->leaf_table = CTX(7);
    PyObject *z_list = CTX(8);
    c->level_used = CTX(9);
    c->empty_obj = CTX(12);
    c->bank_ready = CTX(13);
    c->bank_open_row = CTX(14);
    c->bus_free = CTX(15);
    PyObject *dram_params = CTX(16);
    c->resident = CTX(18);
    c->set_count = CTX(19);
    c->set_of = CTX(20);
    c->packed_cache = CTX(22);
    c->getrandbits = CTX(23);
    c->leaves = PyLong_AsLongLong(c->leaves_obj);
    c->levels = PyLong_AsLongLong(CTX(10));
    c->top = PyLong_AsLongLong(CTX(11));
    c->empty = PyLong_AsLongLong(c->empty_obj);
    long long mode = PyLong_AsLongLong(CTX(17));
    c->ways = PyLong_AsLongLong(CTX(21));
    c->leaf_bits = PyLong_AsLongLong(CTX(24));
#undef CTX
    if (PyErr_Occurred())
        return -1;
    if (!PyDict_Check(c->triples_cache) || !PyDict_Check(c->slots_cache) ||
        !PyDict_Check(c->entries) || !PyList_Check(c->leaf_table) ||
        !PyList_Check(z_list) || !PyList_Check(c->level_used) ||
        !PyList_Check(c->bank_ready) || !PyList_Check(c->bank_open_row) ||
        !PyList_Check(c->bus_free) || !PyDict_Check(c->packed_cache) ||
        !PyTuple_Check(dram_params) || PyTuple_GET_SIZE(dram_params) != 5) {
        PyErr_SetString(PyExc_TypeError, "malformed kernel ctx");
        return -1;
    }
    if (mode != 0 && mode != 1) {
        PyErr_SetString(PyExc_ValueError, "unknown tree-top mode");
        return -1;
    }
    if (mode == 1 &&
        (!PyDict_Check(c->resident) || !PyDict_Check(c->set_count))) {
        PyErr_SetString(PyExc_TypeError, "S-Stash fields must be dicts");
        return -1;
    }
    c->gated = (mode == 1);
    c->dram.ratio = PyLong_AsLongLong(PyTuple_GET_ITEM(dram_params, 0));
    c->dram.t_rp = PyLong_AsLongLong(PyTuple_GET_ITEM(dram_params, 1));
    c->dram.t_rcd = PyLong_AsLongLong(PyTuple_GET_ITEM(dram_params, 2));
    c->dram.t_burst = PyLong_AsLongLong(PyTuple_GET_ITEM(dram_params, 3));
    c->dram.cas_burst = PyLong_AsLongLong(PyTuple_GET_ITEM(dram_params, 4));
    if (c->levels < 1 || c->levels > FASTPATH_MAX_LEVELS ||
        PyList_GET_SIZE(z_list) < (Py_ssize_t)c->levels ||
        PyList_GET_SIZE(c->level_used) < (Py_ssize_t)c->levels) {
        PyErr_SetString(PyExc_ValueError, "unsupported level count");
        return -1;
    }
    for (long long d = 0; d < c->levels; d++) {
        c->z_arr[d] = PyLong_AsLongLong(PyList_GET_ITEM(z_list, d));
        c->used_arr[d] = PyLong_AsLongLong(PyList_GET_ITEM(c->level_used, d));
    }
    c->placed_top = c->removed_top = 0;
    c->ss_placed = c->ss_removed = c->ss_skips = 0;
    return PyErr_Occurred() ? -1 : 0;
}

/* Write the hoisted level occupancy back to the ctx's ``level_used``. */
static int
store_used(const KernelCtx *c)
{
    for (long long d = 0; d < c->levels; d++) {
        if (PyLong_AsLongLong(PyList_GET_ITEM(c->level_used, d)) ==
            c->used_arr[d])
            continue;
        PyObject *value = PyLong_FromLongLong(c->used_arr[d]);
        if (value == NULL)
            return -1;
        PyList_SetItem(c->level_used, d, value);
    }
    return 0;
}

/* A path's (level, slots) pairs: memo hit, or the memoizing fallback.
 * Returns a new reference, or NULL with an exception set.
 */
static PyObject *
ctx_path_slots(const KernelCtx *c, PyObject *leaf_obj)
{
    PyObject *pairs = PyDict_GetItemWithError(c->slots_cache, leaf_obj);
    if (pairs != NULL) {
        Py_INCREF(pairs);
    } else {
        if (PyErr_Occurred())
            return NULL;
        pairs = PyObject_CallOneArg(c->slots_fn, leaf_obj);
        if (pairs == NULL)
            return NULL;
    }
    if (!PyList_Check(pairs)) {
        Py_DECREF(pairs);
        PyErr_SetString(PyExc_TypeError, "path_slots must be a list");
        return NULL;
    }
    return pairs;
}

/* ---------------------------------------------------------------- */
/* Read phase                                                        */
/* ---------------------------------------------------------------- */

/* SStash.on_remove without the stats hook: drop ``block`` from the
 * block-address index and release its set slot.
 */
static int
sstash_remove(PyObject *resident, PyObject *set_count, PyObject *block)
{
    PyObject *idx_obj = PyDict_GetItemWithError(resident, block);
    if (idx_obj == NULL) {
        if (!PyErr_Occurred())
            PyErr_SetString(PyExc_KeyError, "block not in S-Stash");
        return -1;
    }
    Py_INCREF(idx_obj);
    if (PyDict_DelItem(resident, block) < 0) {
        Py_DECREF(idx_obj);
        return -1;
    }
    PyObject *cnt_obj = PyDict_GetItemWithError(set_count, idx_obj);
    if (cnt_obj == NULL) {
        if (!PyErr_Occurred())
            PyErr_SetString(PyExc_KeyError, "S-Stash set count missing");
        Py_DECREF(idx_obj);
        return -1;
    }
    long long cnt = PyLong_AsLongLong(cnt_obj);
    if (cnt == -1 && PyErr_Occurred()) {
        Py_DECREF(idx_obj);
        return -1;
    }
    int rc;
    if (cnt <= 1) {
        rc = PyDict_DelItem(set_count, idx_obj);
    } else {
        PyObject *new_obj = PyLong_FromLongLong(cnt - 1);
        rc = new_obj ? PyDict_SetItem(set_count, idx_obj, new_obj) : -1;
        Py_XDECREF(new_obj);
    }
    Py_DECREF(idx_obj);
    return rc;
}

/* run_batch's empty-stash fastpath buffer: blocks read off the path
 * bypass the stash dict and are kept here in read order, with their
 * leaves and path depths.  ``items`` has room for 4 * cap entries — the
 * upper three quarters are place_pools scratch.  Every
 * ``items[i].block`` in [0, n) holds a strong reference.
 */
typedef struct {
    PoolItem *items;
    PyObject **leaf_obj;  /* borrowed from the leaf table */
    long long *depth;
    unsigned char *placed;
    Py_ssize_t counts[FASTPATH_MAX_LEVELS];
    Py_ssize_t n, cap;
} ReadBuf;

/* The read phase of one path access, the one loop behind read_path and
 * run_batch: clear every real block off the path ``pairs`` to ``leaf``,
 * release its tree-top entry when it sat in a cached level (S-Stash
 * removal in mode 1, a bare count in mode 0), and move it into the
 * stash — the end of the entries dict, or ``rb`` when it is non-NULL.
 * The level ``served`` was read from goes to ``*served_level``.  Mirrors
 * ORAMTree.read_and_clear plus the per-block loop of
 * PathORAMController._service_path.  Returns 0, or -1 with an exception
 * set (blocks already in ``rb`` stay for the caller to release).
 */
static int
read_path_core(KernelCtx *c, long long leaf, PyObject *pairs, ReadBuf *rb,
               long long served, long long *served_level)
{
    Py_ssize_t table_size = PyList_GET_SIZE(c->leaf_table);
    Py_ssize_t n_pairs = PyList_GET_SIZE(pairs);
    for (Py_ssize_t p = 0; p < n_pairs; p++) {
        PyObject *pair = PyList_GET_ITEM(pairs, p);
        if (!PyTuple_Check(pair) || PyTuple_GET_SIZE(pair) != 2 ||
            !PyList_Check(PyTuple_GET_ITEM(pair, 1))) {
            PyErr_SetString(PyExc_TypeError,
                            "pairs must hold (level, slots)");
            return -1;
        }
        long long level = PyLong_AsLongLong(PyTuple_GET_ITEM(pair, 0));
        if (level == -1 && PyErr_Occurred())
            return -1;
        if (level < 0 || level >= c->levels) {
            PyErr_SetString(PyExc_IndexError, "level out of range");
            return -1;
        }
        PyObject *slots = PyTuple_GET_ITEM(pair, 1);
        Py_ssize_t z_size = PyList_GET_SIZE(slots);
        for (Py_ssize_t s = 0; s < z_size; s++) {
            PyObject *block = PyList_GET_ITEM(slots, s);
            long long value = PyLong_AsLongLong(block);
            if (value == -1 && PyErr_Occurred())
                return -1;
            if (value == c->empty)
                continue;
            if (value < 0 || value >= table_size) {
                PyErr_SetString(PyExc_IndexError,
                                "block outside position map");
                return -1;
            }
            PyObject *bleaf_obj = PyList_GET_ITEM(c->leaf_table, value);
            long long bleaf = PyLong_AsLongLong(bleaf_obj);
            if (bleaf == -1) {
                if (!PyErr_Occurred())
                    PyErr_SetString(PyExc_ValueError,
                                    "block has no mapping");
                return -1;
            }
            Py_INCREF(block);  /* outlive the slot overwrite */
            Py_INCREF(c->empty_obj);
            PyList_SetItem(slots, s, c->empty_obj);
            c->used_arr[level]--;
            if (value == served)
                *served_level = level;
            if (level < c->top) {
                if (c->gated) {
                    if (sstash_remove(c->resident, c->set_count, block) < 0) {
                        Py_DECREF(block);
                        return -1;
                    }
                    c->ss_removed++;
                } else {
                    c->removed_top++;
                }
            }
            if (rb == NULL) {
                int rc = PyDict_SetItem(c->entries, block, bleaf_obj);
                Py_DECREF(block);
                if (rc < 0)
                    return -1;
                continue;
            }
            long long depth = deepest_level(c->levels, leaf, bleaf);
            if (rb->n >= rb->cap || depth < 0) {
                PyErr_SetString(PyExc_RuntimeError, "path read overflow");
                Py_DECREF(block);
                return -1;
            }
            Py_ssize_t i = rb->n++;
            rb->items[i].block = block;  /* keep the strong ref */
            rb->items[i].idx = i;
            rb->leaf_obj[i] = bleaf_obj;
            rb->depth[i] = depth;
            rb->counts[depth]++;
        }
    }
    return 0;
}

/* ---------------------------------------------------------------- */
/* Write phase                                                       */
/* ---------------------------------------------------------------- */

/* Depth-bucket every stash block for the path to ``leaf`` with a
 * two-pass counting sort over the entries dict: count per depth, then
 * scatter.  Fills ``items`` (capacity >= len(entries)) segmented by
 * depth (counts/offsets, length ``levels``); each segment keeps stash
 * order.  Mirrors Stash.path_pools.  Returns 0, or -1 with an exception
 * set.
 */
static int
group_by_depth(const KernelCtx *c, long long leaf, PoolItem *items,
               Py_ssize_t *counts, Py_ssize_t *offsets)
{
    Py_ssize_t fill[FASTPATH_MAX_LEVELS];
    PyObject *block, *leaf_obj;
    Py_ssize_t pos = 0;

    memset(counts, 0, sizeof(Py_ssize_t) * (size_t)c->levels);
    while (PyDict_Next(c->entries, &pos, &block, &leaf_obj)) {
        long long block_leaf = PyLong_AsLongLong(leaf_obj);
        if (block_leaf == -1 && PyErr_Occurred())
            return -1;
        long long depth = deepest_level(c->levels, leaf, block_leaf);
        if (depth < 0) {
            PyErr_SetString(PyExc_ValueError, "stash leaf outside the tree");
            return -1;
        }
        counts[depth]++;
    }
    offsets[0] = 0;
    for (long long d = 1; d < c->levels; d++)
        offsets[d] = offsets[d - 1] + counts[d - 1];
    memcpy(fill, offsets, sizeof(Py_ssize_t) * (size_t)c->levels);
    pos = 0;
    while (PyDict_Next(c->entries, &pos, &block, &leaf_obj)) {
        long long depth =
            deepest_level(c->levels, leaf, PyLong_AsLongLong(leaf_obj));
        items[fill[depth]++].block = block;
    }
    return 0;
}

/* The shared placement engine behind write_path_place and run_batch:
 * greedy bottom-up placement over ``items`` already segmented by depth
 * (counts/offsets, each segment in stash order).  ``items`` must
 * have capacity 3*total — the upper two thirds are scratch for the
 * pool stack and the per-level rejection list.
 *
 * In S-Stash mode, placements into the cached top levels consult the
 * set-associativity constraint (``set_of``, ``set_count``, ``ways``) and
 * maintain the block-address index (``resident``), mirroring the Python
 * placement loop with SStash.may_place/on_place; rejected blocks are
 * retried at shallower levels exactly like the Python
 * ``pool.extend(rejected)``.  Counter deltas accumulate into the ctx.
 *
 * With ``placed_out`` NULL each placed block is removed from the stash
 * dict as it lands; the array-mode caller (whose blocks never entered
 * the dict) passes ``placed_out`` and gets ``placed_out[item.idx]``
 * marked so survivors can be written back afterwards.
 */
static int
place_pools(KernelCtx *c, PoolItem *items, Py_ssize_t total,
            const Py_ssize_t *counts, const Py_ssize_t *offsets,
            PyObject *path_slots, unsigned char *placed_out)
{
    PoolItem *stack = items + total;
    PoolItem *rejected = items + 2 * total;
    Py_ssize_t stack_size = 0;
    Py_ssize_t ps_idx = PyList_GET_SIZE(path_slots) - 1;

    /* Greedy bottom-up placement, pool kept as a stack. */
    for (long long level = c->levels - 1; level >= 0; level--) {
        Py_ssize_t cnt = counts[level];
        if (cnt) {
            memcpy(stack + stack_size, items + offsets[level],
                   sizeof(PoolItem) * (size_t)cnt);
            stack_size += cnt;
        }
        long long z = c->z_arr[level];
        if (z == 0)
            continue;
        if (ps_idx < 0) {
            PyErr_SetString(PyExc_ValueError,
                            "path_slots out of sync with z_per_level");
            return -1;
        }
        PyObject *pair = PyList_GET_ITEM(path_slots, ps_idx);
        long long pair_level = PyLong_AsLongLong(PyTuple_GET_ITEM(pair, 0));
        if (pair_level != level) {
            PyErr_SetString(PyExc_ValueError,
                            "path_slots out of sync with z_per_level");
            return -1;
        }
        PyObject *slots = PyTuple_GET_ITEM(pair, 1);
        ps_idx--;
        if (stack_size == 0)
            continue;
        int level_gated = c->gated && level < c->top;
        Py_ssize_t z_size = PyList_GET_SIZE(slots);
        Py_ssize_t scan = 0;
        Py_ssize_t n_rej = 0;
        long long placed = 0;
        while (stack_size > 0 && placed < z) {
            PoolItem item = stack[--stack_size];
            PyObject *block = item.block;
            PyObject *idx_obj = NULL;
            long long set_cnt = 0;
            if (level_gated) {
                idx_obj = PyObject_CallOneArg(c->set_of, block);
                if (idx_obj == NULL)
                    return -1;
                PyObject *cnt_obj =
                    PyDict_GetItemWithError(c->set_count, idx_obj);
                if (cnt_obj == NULL && PyErr_Occurred()) {
                    Py_DECREF(idx_obj);
                    return -1;
                }
                if (cnt_obj != NULL) {
                    set_cnt = PyLong_AsLongLong(cnt_obj);
                    if (set_cnt == -1 && PyErr_Occurred()) {
                        Py_DECREF(idx_obj);
                        return -1;
                    }
                }
                if (set_cnt >= c->ways) {
                    /* Set full: skip this block for this round. */
                    Py_DECREF(idx_obj);
                    rejected[n_rej++] = item;
                    c->ss_skips++;
                    continue;
                }
            }
            /* first EMPTY slot (earlier ones were just filled) */
            Py_ssize_t free_idx = -1;
            for (Py_ssize_t i = scan; i < z_size; i++) {
                long long occupant =
                    PyLong_AsLongLong(PyList_GET_ITEM(slots, i));
                if (occupant == -1 && PyErr_Occurred()) {
                    Py_XDECREF(idx_obj);
                    return -1;
                }
                if (occupant == c->empty) {
                    free_idx = i;
                    break;
                }
            }
            if (free_idx < 0) {
                PyErr_SetString(PyExc_RuntimeError,
                                "bucket full during write phase");
                Py_XDECREF(idx_obj);
                return -1;
            }
            Py_INCREF(block);
            PyList_SetItem(slots, free_idx, block);
            scan = free_idx + 1;
            c->used_arr[level]++;
            placed++;
            if (level_gated) {
                PyObject *cnt_obj = PyLong_FromLongLong(set_cnt + 1);
                if (cnt_obj == NULL ||
                    PyDict_SetItem(c->set_count, idx_obj, cnt_obj) < 0) {
                    Py_XDECREF(cnt_obj);
                    Py_DECREF(idx_obj);
                    return -1;
                }
                Py_DECREF(cnt_obj);
                if (PyDict_SetItem(c->resident, block, idx_obj) < 0) {
                    Py_DECREF(idx_obj);
                    return -1;
                }
                Py_DECREF(idx_obj);
                c->ss_placed++;
            } else if (level < c->top) {
                c->placed_top++;
            }
            /* The slot now holds a reference, so dropping the dict's
             * cannot free ``block``. */
            if (placed_out != NULL)
                placed_out[item.idx] = 1;
            else if (PyDict_DelItem(c->entries, block) < 0)
                return -1;
        }
        /* Re-stack rejected blocks in rejection order: the next pop
         * takes the most recently rejected first, matching
         * pool.extend(rejected) + pool.pop(). */
        for (Py_ssize_t r = 0; r < n_rej; r++)
            stack[stack_size++] = rejected[r];
    }
    return 0;
}

/* Dict-backed placement: depth-bucket the whole stash, then run the
 * shared engine with placed blocks removed from the stash dict as they
 * land.
 */
static int
write_place_core(KernelCtx *c, long long leaf, PyObject *path_slots)
{
    Py_ssize_t total = PyDict_GET_SIZE(c->entries);
    if (total == 0)
        return 0;

    PoolItem *items = PyMem_Malloc(sizeof(PoolItem) * (size_t)total * 3);
    if (items == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    Py_ssize_t counts[FASTPATH_MAX_LEVELS];
    Py_ssize_t offsets[FASTPATH_MAX_LEVELS];
    int rc = group_by_depth(c, leaf, items, counts, offsets);
    if (rc == 0)
        rc = place_pools(c, items, total, counts, offsets, path_slots, NULL);
    PyMem_Free(items);
    return rc;
}

/* ---------------------------------------------------------------- */
/* Per-access entry points                                           */
/* ---------------------------------------------------------------- */

/* read_path(ctx, leaf, served)
 *   -> (removed_top, sstash_removed, served_level)
 *
 * The read phase of one path access through read_path_core: every real
 * block on the path to ``leaf`` moves into the stash dict, and
 * cached-top blocks leave the tree-top structure.  ``served_level`` is
 * the level ``served`` (a block, or None) was read from, -1 when it was
 * not on the path.
 */
static PyObject *
read_path(PyObject *self, PyObject *args)
{
    PyObject *ctx, *leaf_obj, *served_obj;
    if (!PyArg_ParseTuple(args, "OO!O", &ctx, &PyLong_Type, &leaf_obj,
                          &served_obj))
        return NULL;
    KernelCtx c;
    if (parse_ctx(ctx, &c) < 0)
        return NULL;
    long long leaf = PyLong_AsLongLong(leaf_obj);
    long long served =
        served_obj == Py_None ? c.empty : PyLong_AsLongLong(served_obj);
    if (PyErr_Occurred())
        return NULL;
    PyObject *pairs = ctx_path_slots(&c, leaf_obj);
    if (pairs == NULL)
        return NULL;
    long long served_level = -1;
    int rc = read_path_core(&c, leaf, pairs, NULL, served, &served_level);
    Py_DECREF(pairs);
    if (rc < 0 || store_used(&c) < 0)
        return NULL;
    return Py_BuildValue("LLL", c.removed_top, c.ss_removed, served_level);
}

/* write_path_place(ctx, leaf) -> (placed_top, sstash_placed, sstash_skips)
 *
 * The full greedy bottom-up write phase of one path access: group every
 * stash block by deepest eligible level, then fill bucket slots
 * deepest-first through place_pools, removing placed blocks from the
 * stash.  In S-Stash mode placements into the cached
 * top are gated on the block's set having a free way.  Mirrors the
 * Python placement loop in PathORAMController._place_path.
 */
static PyObject *
write_path_place(PyObject *self, PyObject *args)
{
    PyObject *ctx, *leaf_obj;
    if (!PyArg_ParseTuple(args, "OO!", &ctx, &PyLong_Type, &leaf_obj))
        return NULL;
    KernelCtx c;
    if (parse_ctx(ctx, &c) < 0)
        return NULL;
    long long leaf = PyLong_AsLongLong(leaf_obj);
    if (leaf == -1 && PyErr_Occurred())
        return NULL;
    PyObject *pairs = ctx_path_slots(&c, leaf_obj);
    if (pairs == NULL)
        return NULL;
    int rc = write_place_core(&c, leaf, pairs);
    Py_DECREF(pairs);
    if (rc < 0 || store_used(&c) < 0)
        return NULL;
    return Py_BuildValue("LLL", c.placed_top, c.ss_placed, c.ss_skips);
}

/* path_triples(leaf, level_meta, row_blocks, channels, banks_per_channel)
 *   -> [bank, channel, row, ...]
 *
 * Fused TreeLayout.path_addresses + DRAMModel.decompose_batch for one
 * path: walk the layout's per-level meta tuples
 * (shift, z, r, mask, offsets, row_base, rows) and emit the flat DRAM
 * triple list directly, skipping the intermediate address list.
 */
static PyObject *
path_triples(PyObject *self, PyObject *args)
{
    PyObject *meta;
    long long leaf, row_blocks, channels, banks_per_channel;
    if (!PyArg_ParseTuple(args, "LO!LLL",
                          &leaf, &PyList_Type, &meta,
                          &row_blocks, &channels, &banks_per_channel))
        return NULL;
    if (row_blocks <= 0 || channels <= 0 || banks_per_channel <= 0) {
        PyErr_SetString(PyExc_ValueError, "invalid DRAM geometry");
        return NULL;
    }

    Py_ssize_t n_levels = PyList_GET_SIZE(meta);
    Py_ssize_t total = 0;
    for (Py_ssize_t i = 0; i < n_levels; i++) {
        PyObject *entry = PyList_GET_ITEM(meta, i);
        long long z = PyLong_AsLongLong(PyTuple_GET_ITEM(entry, 1));
        if (z == -1 && PyErr_Occurred())
            return NULL;
        total += (Py_ssize_t)z;
    }
    PyObject *flat = PyList_New(total * 3);
    if (flat == NULL)
        return NULL;
    Py_ssize_t out = 0;
    for (Py_ssize_t i = 0; i < n_levels; i++) {
        PyObject *entry = PyList_GET_ITEM(meta, i);
        long long shift = PyLong_AsLongLong(PyTuple_GET_ITEM(entry, 0));
        long long z = PyLong_AsLongLong(PyTuple_GET_ITEM(entry, 1));
        long long r = PyLong_AsLongLong(PyTuple_GET_ITEM(entry, 2));
        long long mask = PyLong_AsLongLong(PyTuple_GET_ITEM(entry, 3));
        PyObject *offsets = PyTuple_GET_ITEM(entry, 4);
        long long row_base = PyLong_AsLongLong(PyTuple_GET_ITEM(entry, 5));
        long long rows = PyLong_AsLongLong(PyTuple_GET_ITEM(entry, 6));
        if (PyErr_Occurred() || !PyList_Check(offsets)) {
            if (!PyErr_Occurred())
                PyErr_SetString(PyExc_TypeError, "offsets must be a list");
            goto fail;
        }
        long long position = leaf >> shift;
        Py_ssize_t off_idx = (Py_ssize_t)(mask + (position & mask));
        if (off_idx < 0 || off_idx >= PyList_GET_SIZE(offsets)) {
            PyErr_SetString(PyExc_IndexError, "layout offset out of range");
            goto fail;
        }
        long long offset =
            PyLong_AsLongLong(PyList_GET_ITEM(offsets, off_idx));
        if (offset == -1 && PyErr_Occurred())
            goto fail;
        long long row0 = row_base + (position >> r) * rows;
        for (long long slot = 0; slot < z; slot++) {
            long long combined = offset + slot;
            long long row = row0 + combined / row_blocks;
            long long channel = row % channels;
            long long bank =
                channel * banks_per_channel +
                (row / channels) % banks_per_channel;
            PyObject *bank_obj = PyLong_FromLongLong(bank);
            PyObject *chan_obj = PyLong_FromLongLong(channel);
            PyObject *row_obj = PyLong_FromLongLong(row);
            if (bank_obj == NULL || chan_obj == NULL || row_obj == NULL) {
                Py_XDECREF(bank_obj);
                Py_XDECREF(chan_obj);
                Py_XDECREF(row_obj);
                goto fail;
            }
            PyList_SET_ITEM(flat, out++, bank_obj);
            PyList_SET_ITEM(flat, out++, chan_obj);
            PyList_SET_ITEM(flat, out++, row_obj);
        }
    }
    return flat;

fail:
    Py_DECREF(flat);
    return NULL;
}

/* ---------------------------------------------------------------- */
/* Whole-run batch stepping                                          */
/* ---------------------------------------------------------------- */

/* DRAMModel._service_py over bank state hoisted into C arrays.  The
 * triples are a packed ``long long`` array of (bank, channel, row)
 * groups, range-checked once at pack time.  Row hit/conflict counts
 * accumulate into the caller's running totals.
 */
static void
dram_run_arr(const long long *triples, Py_ssize_t n3, long long *ready,
             long long *open_row, long long *bus_free, long long now_dram,
             const DramTiming *cfg, long long *finish_out,
             long long *hits_out, long long *conflicts_out)
{
    long long finish = now_dram;
    for (Py_ssize_t i = 0; i < n3; i++) {
        long long bank = triples[3 * i];
        long long channel = triples[3 * i + 1];
        long long row = triples[3 * i + 2];
        long long t = ready[bank];
        if (bus_free[channel] > t)
            t = bus_free[channel];
        if (now_dram > t)
            t = now_dram;
        if (open_row[bank] != row) {
            if (open_row[bank] != -1) {
                t += cfg->t_rp;
                (*conflicts_out)++;
            }
            t += cfg->t_rcd;
            open_row[bank] = row;
        } else {
            (*hits_out)++;
        }
        long long done = t + cfg->cas_burst;
        long long next_slot = t + cfg->t_burst;
        bus_free[channel] = next_slot;
        ready[bank] = next_slot;
        if (done > finish)
            finish = done;
    }
    *finish_out = finish;
}

/* Pack one leaf's (triples list, blocks) cache entry into a bytes
 * object: [blocks, bank0, chan0, row0, bank1, ...] as ``long long``.
 * Bank/channel indices are range-checked here, once per leaf, so the
 * per-path DRAM loop can run unchecked.  Returns a new reference.
 */
static PyObject *
pack_triples(PyObject *cached, Py_ssize_t n_banks, Py_ssize_t n_channels)
{
    if (!PyTuple_Check(cached) || PyTuple_GET_SIZE(cached) != 2 ||
        !PyList_Check(PyTuple_GET_ITEM(cached, 0))) {
        PyErr_SetString(PyExc_TypeError,
                        "triples entry must be (list, blocks)");
        return NULL;
    }
    PyObject *triples = PyTuple_GET_ITEM(cached, 0);
    long long blocks = PyLong_AsLongLong(PyTuple_GET_ITEM(cached, 1));
    if (blocks == -1 && PyErr_Occurred())
        return NULL;
    Py_ssize_t n = PyList_GET_SIZE(triples);
    Py_ssize_t n3 = n / 3;
    PyObject *packed = PyBytes_FromStringAndSize(
        NULL, (Py_ssize_t)sizeof(long long) * (3 * n3 + 1));
    if (packed == NULL)
        return NULL;
    long long *arr = (long long *)PyBytes_AS_STRING(packed);
    arr[0] = blocks;
    for (Py_ssize_t i = 0; i < 3 * n3; i++) {
        long long value = PyLong_AsLongLong(PyList_GET_ITEM(triples, i));
        if (value == -1 && PyErr_Occurred()) {
            Py_DECREF(packed);
            return NULL;
        }
        arr[i + 1] = value;
    }
    for (Py_ssize_t i = 0; i < n3; i++) {
        long long bank = arr[3 * i + 1];
        long long channel = arr[3 * i + 2];
        if (bank < 0 || bank >= n_banks ||
            channel < 0 || channel >= n_channels) {
            PyErr_SetString(PyExc_IndexError, "bank/channel out of range");
            Py_DECREF(packed);
            return NULL;
        }
    }
    return packed;
}

/* pack_triples(cached, n_banks, n_channels) -> bytes
 *
 * Python entry to the packed-triple encoder, so controllers can
 * pre-fill the batch kernel's packed cache while warming the per-leaf
 * memo caches instead of paying the packing cost inside measured runs.
 */
static PyObject *
pack_triples_entry(PyObject *self, PyObject *args)
{
    PyObject *cached;
    long long n_banks, n_channels;
    if (!PyArg_ParseTuple(args, "OLL", &cached, &n_banks, &n_channels))
        return NULL;
    if (n_banks <= 0 || n_channels <= 0) {
        PyErr_SetString(PyExc_ValueError, "invalid DRAM geometry");
        return NULL;
    }
    return pack_triples(cached, (Py_ssize_t)n_banks,
                        (Py_ssize_t)n_channels);
}


/* run_batch(ctx, now, interval, max_paths, horizon, stop_threshold,
 *           trigger_threshold, want_bounds, collect_timing)
 *   -> (n, now, max_occupancy, bounds | None, agg, timings | None)
 *
 * Execute up to ``max_paths`` whole dummy-path accesses — RNG leaf draw,
 * read-phase DRAM timing, the read phase through read_path_core, greedy
 * bottom-up write placement, write-phase DRAM timing — without returning
 * to the interpreter between paths.  Each iteration is bit-identical to
 * PathORAMController.dummy_path followed by ``now = max(now + interval,
 * finish_write)``.
 *
 * ``ctx`` is the kernel context (see KernelCtx).  With the RNG's bound
 * ``getrandbits`` present the kernel draws leaves with rejection
 * sampling exactly as ``Random._randbelow_with_getrandbits`` does,
 * skipping the interpreted ``randrange`` wrapper while consuming the
 * identical bit stream.  The batch stops early at ``horizon`` (next real
 * work item, -1 = none), or as soon as the stash is over
 * ``stop_threshold`` (-1 = never), so every slot-boundary decision the
 * per-access loop would have made stays identical.  Stash occupancy is
 * compared against ``trigger_threshold`` after every write phase to
 * accumulate eviction-trigger counts.
 *
 * ``agg`` is (blocks, row_hits, row_conflicts, placed_top, removed_top,
 * eviction_triggers, sstash_placed, sstash_removed, sstash_skips);
 * ``bounds`` is a flat [start, finish_read, finish_write, ...] list when
 * requested; ``timings`` is (rng_ns, read_dram_ns, stash_ns, place_ns,
 * write_dram_ns) when ``collect_timing`` is set.
 */
static PyObject *
run_batch(PyObject *self, PyObject *args)
{
    PyObject *ctx;
    long long now, interval, max_paths, horizon, stop_threshold,
        trigger_threshold;
    int want_bounds, collect_timing;
    if (!PyArg_ParseTuple(args, "OLLLLLLpp",
                          &ctx, &now, &interval, &max_paths, &horizon,
                          &stop_threshold, &trigger_threshold,
                          &want_bounds, &collect_timing))
        return NULL;
    KernelCtx c;
    if (parse_ctx(ctx, &c) < 0)
        return NULL;
    const DramTiming *dcfg = &c.dram;
    if (dcfg->ratio <= 0 || max_paths < 0 || now < 0) {
        PyErr_SetString(PyExc_ValueError, "unsupported run_batch geometry");
        return NULL;
    }
    int use_grb = (c.getrandbits != Py_None && c.leaf_bits > 0);
    PyObject *bits_obj = NULL;
    if (use_grb) {
        bits_obj = PyLong_FromLongLong(c.leaf_bits);
        if (bits_obj == NULL)
            return NULL;
    }

    /* Hoist bank state into C arrays; written back only on success.
     * Nothing the kernel calls back into (cache-miss fallbacks, the
     * RNG) reads the bank lists or level occupancy mid-batch.
     */
    Py_ssize_t n_banks = PyList_GET_SIZE(c.bank_ready);
    Py_ssize_t n_channels = PyList_GET_SIZE(c.bus_free);
    if (PyList_GET_SIZE(c.bank_open_row) != n_banks) {
        PyErr_SetString(PyExc_ValueError, "bank state lists out of sync");
        Py_XDECREF(bits_obj);
        return NULL;
    }
    long long *bank_state = PyMem_Malloc(
        sizeof(long long) * (size_t)(2 * n_banks + n_channels));
    if (bank_state == NULL) {
        Py_XDECREF(bits_obj);
        return PyErr_NoMemory();
    }
    long long *ready = bank_state;
    long long *open_row = bank_state + n_banks;
    long long *bus_free = bank_state + 2 * n_banks;
    for (Py_ssize_t i = 0; i < n_banks; i++) {
        ready[i] = PyLong_AsLongLong(PyList_GET_ITEM(c.bank_ready, i));
        open_row[i] = PyLong_AsLongLong(PyList_GET_ITEM(c.bank_open_row, i));
    }
    for (Py_ssize_t i = 0; i < n_channels; i++)
        bus_free[i] = PyLong_AsLongLong(PyList_GET_ITEM(c.bus_free, i));
    PyObject *bounds = want_bounds ? PyList_New(0) : NULL;
    if (PyErr_Occurred() || (want_bounds && bounds == NULL)) {
        PyMem_Free(bank_state);
        Py_XDECREF(bounds);
        Py_XDECREF(bits_obj);
        return NULL;
    }

    /* Empty-stash array fastpath: when a path begins with an empty stash
     * (the steady state for dummy-path batches), read blocks skip the
     * stash dict entirely — they are collected in read order into a
     * ReadBuf, depth-bucketed with group_by_depth's XOR/bit-length rule,
     * placed through the shared engine, and only the rare survivors
     * enter the dict afterwards, in read order.  In dict mode the same
     * blocks would enter an empty dict in read order too, so both modes
     * see the same pools and leave the same stash.
     */
    long long max_slots = 0;
    for (long long d = 0; d < c.levels; d++)
        max_slots += c.z_arr[d];
    ReadBuf rb;
    memset(&rb, 0, sizeof rb);
    if (max_slots > 0) {
        size_t bytes = (sizeof(PoolItem) * 4 + sizeof(PyObject *) +
                        sizeof(long long) + 1) * (size_t)max_slots;
        rb.items = PyMem_Malloc(bytes);
        if (rb.items == NULL) {
            PyMem_Free(bank_state);
            Py_XDECREF(bounds);
            Py_XDECREF(bits_obj);
            return PyErr_NoMemory();
        }
        rb.leaf_obj = (PyObject **)(rb.items + 4 * max_slots);
        rb.depth = (long long *)(rb.leaf_obj + max_slots);
        rb.placed = (unsigned char *)(rb.depth + max_slots);
        rb.cap = max_slots;
    }

    long long n = 0;
    long long max_occ = 0;
    long long blocks_total = 0, row_hits = 0, row_conflicts = 0;
    long long ev_triggers = 0;
    unsigned long long t_rng = 0, t_read_dram = 0, t_stash = 0,
        t_place = 0, t_write_dram = 0;

    while (n < max_paths) {
        if (horizon >= 0 && now >= horizon)
            break;
        if (stop_threshold >= 0 &&
            (long long)PyDict_GET_SIZE(c.entries) > stop_threshold)
            break;
        PyObject *leaf_obj = NULL, *packed = NULL, *pairs = NULL;
        ReadBuf *arr = NULL;
        if (rb.items != NULL && PyDict_GET_SIZE(c.entries) == 0) {
            arr = &rb;
            memset(rb.counts, 0, sizeof(Py_ssize_t) * (size_t)c.levels);
        }
        unsigned long long t0 = collect_timing ? now_ns() : 0;

        long long leaf;
        if (use_grb) {
            /* Random._randbelow_with_getrandbits, inlined: draw
             * bit_length(leaves) bits, rejecting draws >= leaves, so
             * the RNG bit stream matches randrange(leaves) exactly.
             */
            for (;;) {
                leaf_obj = PyObject_CallOneArg(c.getrandbits, bits_obj);
                if (leaf_obj == NULL)
                    goto path_fail;
                leaf = PyLong_AsLongLong(leaf_obj);
                if (leaf == -1 && PyErr_Occurred())
                    goto path_fail;
                if (leaf < c.leaves)
                    break;
                Py_DECREF(leaf_obj);
                leaf_obj = NULL;
            }
        } else {
            leaf_obj = PyObject_CallOneArg(c.randrange, c.leaves_obj);
            if (leaf_obj == NULL)
                goto path_fail;
            leaf = PyLong_AsLongLong(leaf_obj);
            if (leaf == -1 && PyErr_Occurred())
                goto path_fail;
        }
        if (collect_timing) {
            unsigned long long t1 = now_ns();
            t_rng += t1 - t0;
            t0 = t1;
        }

        /* Per-leaf DRAM triples as a packed C array: packed-cache hit,
         * else pack from the Python memo (calling its fallback on a
         * full miss) and remember the array for repeat leaves.
         */
        packed = PyDict_GetItemWithError(c.packed_cache, leaf_obj);
        if (packed != NULL) {
            Py_INCREF(packed);
        } else {
            if (PyErr_Occurred())
                goto path_fail;
            PyObject *cached = PyDict_GetItemWithError(
                c.triples_cache, leaf_obj);
            if (cached != NULL) {
                Py_INCREF(cached);
            } else {
                if (PyErr_Occurred())
                    goto path_fail;
                cached = PyObject_CallOneArg(c.triples_fn, leaf_obj);
                if (cached == NULL)
                    goto path_fail;
            }
            packed = pack_triples(cached, n_banks, n_channels);
            Py_DECREF(cached);
            if (packed == NULL)
                goto path_fail;
            if (PyDict_GET_SIZE(c.packed_cache) >= PACKED_CACHE_LIMIT) {
                /* Mirror the Python memo's FIFO eviction. */
                PyObject *first_key, *first_val;
                Py_ssize_t pos = 0;
                if (PyDict_Next(c.packed_cache, &pos, &first_key,
                                &first_val) &&
                    PyDict_DelItem(c.packed_cache, first_key) < 0)
                    goto path_fail;
            }
            if (PyDict_SetItem(c.packed_cache, leaf_obj, packed) < 0)
                goto path_fail;
        }
        const long long *tarr = (const long long *)PyBytes_AS_STRING(packed);
        long long blocks = tarr[0];
        Py_ssize_t n_triples =
            PyBytes_GET_SIZE(packed) / (Py_ssize_t)sizeof(long long) / 3;

        /* Read phase through the DRAM model. */
        long long now_dram = (now + dcfg->ratio - 1) / dcfg->ratio;
        long long fr_dram = 0;
        dram_run_arr(tarr + 1, n_triples, ready, open_row, bus_free,
                     now_dram, dcfg, &fr_dram, &row_hits, &row_conflicts);
        long long finish_read = fr_dram * dcfg->ratio;
        if (collect_timing) {
            unsigned long long t1 = now_ns();
            t_read_dram += t1 - t0;
            t0 = t1;
        }

        /* Path read into the stash (or the array buffer). */
        pairs = ctx_path_slots(&c, leaf_obj);
        if (pairs == NULL)
            goto path_fail;
        long long served_level;
        if (read_path_core(&c, leaf, pairs, arr, c.empty, &served_level) < 0)
            goto path_fail;
        {
            long long occ = arr != NULL
                ? (long long)rb.n
                : (long long)PyDict_GET_SIZE(c.entries);
            if (occ > max_occ)
                max_occ = occ;
        }
        if (collect_timing) {
            unsigned long long t1 = now_ns();
            t_stash += t1 - t0;
            t0 = t1;
        }

        /* Greedy bottom-up write placement. */
        if (arr == NULL) {
            if (write_place_core(&c, leaf, pairs) < 0)
                goto path_fail;
        } else if (rb.n > 0) {
            /* Segment the read-order items by depth; each segment keeps
             * read order. */
            Py_ssize_t offsets[FASTPATH_MAX_LEVELS];
            Py_ssize_t fill[FASTPATH_MAX_LEVELS];
            offsets[0] = 0;
            for (long long d = 1; d < c.levels; d++)
                offsets[d] = offsets[d - 1] + rb.counts[d - 1];
            memcpy(fill, offsets, sizeof(Py_ssize_t) * (size_t)c.levels);
            PoolItem *seg = rb.items + max_slots;
            for (Py_ssize_t i = 0; i < rb.n; i++)
                seg[fill[rb.depth[i]]++] = rb.items[i];
            memset(rb.placed, 0, (size_t)rb.n);
            if (place_pools(&c, seg, rb.n, rb.counts, offsets, pairs,
                            rb.placed) < 0)
                goto path_fail;
            /* Survivors enter the stash dict in read order. */
            for (Py_ssize_t i = 0; i < rb.n; i++) {
                if (!rb.placed[i] &&
                    PyDict_SetItem(c.entries, rb.items[i].block,
                                   rb.leaf_obj[i]) < 0)
                    goto path_fail;
            }
            for (Py_ssize_t i = 0; i < rb.n; i++)
                Py_DECREF(rb.items[i].block);
            rb.n = 0;
        }
        if (collect_timing) {
            unsigned long long t1 = now_ns();
            t_place += t1 - t0;
            t0 = t1;
        }

        /* Write phase through the DRAM model. */
        now_dram = (finish_read + dcfg->ratio - 1) / dcfg->ratio;
        long long fw_dram = 0;
        dram_run_arr(tarr + 1, n_triples, ready, open_row, bus_free,
                     now_dram, dcfg, &fw_dram, &row_hits, &row_conflicts);
        long long finish_write = fw_dram * dcfg->ratio;
        if (collect_timing)
            t_write_dram += now_ns() - t0;

        if ((long long)PyDict_GET_SIZE(c.entries) > trigger_threshold)
            ev_triggers++;
        blocks_total += blocks;

        if (want_bounds) {
            long long triple[3] = {now, finish_read, finish_write};
            for (int b = 0; b < 3; b++) {
                PyObject *value = PyLong_FromLongLong(triple[b]);
                if (value == NULL || PyList_Append(bounds, value) < 0) {
                    Py_XDECREF(value);
                    goto path_fail;
                }
                Py_DECREF(value);
            }
        }
        Py_DECREF(pairs);
        Py_DECREF(packed);
        Py_DECREF(leaf_obj);

        long long next_now = now + interval;
        now = finish_write > next_now ? finish_write : next_now;
        n++;
        continue;

    path_fail:
        for (Py_ssize_t i = 0; i < rb.n; i++)
            Py_DECREF(rb.items[i].block);
        Py_XDECREF(pairs);
        Py_XDECREF(packed);
        Py_XDECREF(leaf_obj);
        goto fail;
    }

    /* Write the bank state and level occupancy back to the model's
     * lists. */
    for (Py_ssize_t i = 0; i < n_banks; i++) {
        PyObject *value = PyLong_FromLongLong(ready[i]);
        if (value == NULL)
            goto fail;
        PyList_SetItem(c.bank_ready, i, value);
        value = PyLong_FromLongLong(open_row[i]);
        if (value == NULL)
            goto fail;
        PyList_SetItem(c.bank_open_row, i, value);
    }
    for (Py_ssize_t i = 0; i < n_channels; i++) {
        PyObject *value = PyLong_FromLongLong(bus_free[i]);
        if (value == NULL)
            goto fail;
        PyList_SetItem(c.bus_free, i, value);
    }
    if (store_used(&c) < 0)
        goto fail;
    PyMem_Free(bank_state);
    PyMem_Free(rb.items);
    Py_XDECREF(bits_obj);
    {
        PyObject *agg = Py_BuildValue(
            "(LLLLLLLLL)", blocks_total, row_hits, row_conflicts,
            c.placed_top, c.removed_top, ev_triggers, c.ss_placed,
            c.ss_removed, c.ss_skips);
        if (agg == NULL) {
            Py_XDECREF(bounds);
            return NULL;
        }
        PyObject *timings = collect_timing
            ? Py_BuildValue("(KKKKK)", t_rng, t_read_dram, t_stash,
                            t_place, t_write_dram)
            : Py_NewRef(Py_None);
        if (timings == NULL) {
            Py_DECREF(agg);
            Py_XDECREF(bounds);
            return NULL;
        }
        if (bounds == NULL)
            bounds = Py_NewRef(Py_None);
        return Py_BuildValue(
            "(LLLNNN)", n, now, max_occ, bounds, agg, timings);
    }

fail:
    PyMem_Free(bank_state);
    PyMem_Free(rb.items);
    Py_XDECREF(bits_obj);
    Py_XDECREF(bounds);
    return NULL;
}

static PyMethodDef fastpath_methods[] = {
    {"dram_service", dram_service, METH_VARARGS,
     "Batch DRAM timing over pre-decomposed (bank, channel, row) triples."},
    {"read_path", read_path, METH_VARARGS,
     "Read phase of one path access into the stash, tree-top included."},
    {"write_path_place", write_path_place, METH_VARARGS,
     "Greedy bottom-up write-phase placement of one path access."},
    {"path_triples", path_triples, METH_VARARGS,
     "Fused path address generation + DRAM decomposition for one leaf."},
    {"pack_triples", pack_triples_entry, METH_VARARGS,
     "Pack a (triples, blocks) cache entry into the kernel's byte form."},
    {"run_batch", run_batch, METH_VARARGS,
     "Whole-batch dummy-path execution over live controller state."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef fastpath_module = {
    PyModuleDef_HEAD_INIT,
    "_repro_fastpath",
    "C hot-path kernels for the repro ORAM simulator.",
    -1,
    fastpath_methods,
};

PyMODINIT_FUNC
PyInit__repro_fastpath(void)
{
    return PyModule_Create(&fastpath_module);
}
