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
#include <stdlib.h>
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

/* read_and_clear(pairs, level_used, empty) -> [(block, level), ...]
 *
 * `pairs` is a list of (level, slots) tuples (ORAMTree.path_slots);
 * every non-empty slot is cleared to `empty`, its block collected, and
 * level_used decremented per level.  Mirrors the pure-Python loop in
 * ORAMTree.read_and_clear.
 */
static PyObject *
read_and_clear(PyObject *self, PyObject *args)
{
    PyObject *pairs, *level_used;
    long long empty;
    if (!PyArg_ParseTuple(args, "O!O!L",
                          &PyList_Type, &pairs,
                          &PyList_Type, &level_used, &empty))
        return NULL;

    PyObject *removed = PyList_New(0);
    if (removed == NULL)
        return NULL;
    PyObject *empty_obj = PyLong_FromLongLong(empty);
    if (empty_obj == NULL) {
        Py_DECREF(removed);
        return NULL;
    }

    Py_ssize_t n_pairs = PyList_GET_SIZE(pairs);
    for (Py_ssize_t p = 0; p < n_pairs; p++) {
        PyObject *pair = PyList_GET_ITEM(pairs, p);
        if (!PyTuple_Check(pair) || PyTuple_GET_SIZE(pair) != 2) {
            PyErr_SetString(PyExc_TypeError, "pairs must hold (level, slots)");
            goto fail;
        }
        PyObject *level_obj = PyTuple_GET_ITEM(pair, 0);
        PyObject *slots = PyTuple_GET_ITEM(pair, 1);
        if (!PyList_Check(slots)) {
            PyErr_SetString(PyExc_TypeError, "slots must be a list");
            goto fail;
        }
        Py_ssize_t z = PyList_GET_SIZE(slots);
        long long cleared = 0;
        for (Py_ssize_t i = 0; i < z; i++) {
            PyObject *block = PyList_GET_ITEM(slots, i);
            long long value = PyLong_AsLongLong(block);
            if (PyErr_Occurred())
                goto fail;
            if (value == empty)
                continue;
            PyObject *tup = PyTuple_Pack(2, block, level_obj);
            if (tup == NULL)
                goto fail;
            int rc = PyList_Append(removed, tup);
            Py_DECREF(tup);
            if (rc < 0)
                goto fail;
            Py_INCREF(empty_obj);
            PyList_SetItem(slots, i, empty_obj);
            cleared++;
        }
        if (cleared) {
            long long level = PyLong_AsLongLong(level_obj);
            if (PyErr_Occurred())
                goto fail;
            if (level < 0 || level >= PyList_GET_SIZE(level_used)) {
                PyErr_SetString(PyExc_IndexError, "level out of range");
                goto fail;
            }
            long long used =
                PyLong_AsLongLong(PyList_GET_ITEM(level_used, level));
            if (PyErr_Occurred())
                goto fail;
            PyObject *used_obj = PyLong_FromLongLong(used - cleared);
            if (used_obj == NULL)
                goto fail;
            PyList_SetItem(level_used, level, used_obj);
        }
    }
    Py_DECREF(empty_obj);
    return removed;

fail:
    Py_DECREF(empty_obj);
    Py_DECREF(removed);
    return NULL;
}

/* ---------------------------------------------------------------- */
/* Stash index surgery shared by the bulk-add and write-path kernels */
/* ---------------------------------------------------------------- */

static inline long long
bit_length(unsigned long long x)
{
    return x ? 64 - __builtin_clzll(x) : 0;
}

/* Remove `block` from the stash dicts (entries, seq, prefix bucket).
 * The caller must hold another reference to `block` (e.g. a tree slot).
 */
static int
stash_remove_indexed(PyObject *entries, PyObject *seq_dict,
                     PyObject *by_prefix, long long prefix_shift,
                     PyObject *block)
{
    PyObject *leaf_obj = PyDict_GetItem(entries, block);
    if (leaf_obj == NULL) {
        PyErr_SetString(PyExc_KeyError, "block not in stash");
        return -1;
    }
    long long leaf = PyLong_AsLongLong(leaf_obj);
    if (leaf == -1 && PyErr_Occurred())
        return -1;
    PyObject *seq_obj = PyDict_GetItem(seq_dict, block);
    if (seq_obj == NULL) {
        PyErr_SetString(PyExc_KeyError, "block not in stash seq index");
        return -1;
    }
    Py_INCREF(seq_obj);
    PyObject *prefix_obj = PyLong_FromLongLong(leaf >> prefix_shift);
    if (prefix_obj == NULL) {
        Py_DECREF(seq_obj);
        return -1;
    }
    PyObject *bucket = PyDict_GetItem(by_prefix, prefix_obj);
    if (bucket == NULL || PyDict_DelItem(bucket, seq_obj) < 0) {
        if (bucket == NULL)
            PyErr_SetString(PyExc_KeyError, "stash prefix bucket missing");
        Py_DECREF(prefix_obj);
        Py_DECREF(seq_obj);
        return -1;
    }
    if (PyDict_GET_SIZE(bucket) == 0 &&
        PyDict_DelItem(by_prefix, prefix_obj) < 0) {
        Py_DECREF(prefix_obj);
        Py_DECREF(seq_obj);
        return -1;
    }
    Py_DECREF(prefix_obj);
    Py_DECREF(seq_obj);
    if (PyDict_DelItem(seq_dict, block) < 0)
        return -1;
    return PyDict_DelItem(entries, block);
}

/* Insert or update one stash entry with full index maintenance (the body
 * of Stash.add).  ``leaf_obj``/``leaf`` are the block's current mapping;
 * the previous mapping is read *before* the entries dict is updated so
 * the borrowed old-leaf reference is never used after its slot has been
 * replaced.  Advances ``*next_seq`` for fresh entries.  Returns 0, or -1
 * with an exception set.
 */
static int
stash_add_one(PyObject *entries, PyObject *seq_dict, PyObject *by_prefix,
              long long prefix_shift, PyObject *block, PyObject *leaf_obj,
              long long leaf, long long *next_seq)
{
    PyObject *old_leaf = PyDict_GetItem(entries, block);
    long long old = 0;
    int fresh = (old_leaf == NULL);
    if (!fresh) {
        old = PyLong_AsLongLong(old_leaf);
        if (old == -1 && PyErr_Occurred())
            return -1;
    }
    if (PyDict_SetItem(entries, block, leaf_obj) < 0)
        return -1;
    if (fresh) {
        /* Fresh entry: assign a sequence number and index it. */
        PyObject *seq_obj = PyLong_FromLongLong(*next_seq);
        if (seq_obj == NULL)
            return -1;
        (*next_seq)++;
        if (PyDict_SetItem(seq_dict, block, seq_obj) < 0) {
            Py_DECREF(seq_obj);
            return -1;
        }
        PyObject *prefix_obj = PyLong_FromLongLong(leaf >> prefix_shift);
        if (prefix_obj == NULL) {
            Py_DECREF(seq_obj);
            return -1;
        }
        PyObject *bucket = PyDict_GetItem(by_prefix, prefix_obj);
        if (bucket == NULL) {
            bucket = PyDict_New();
            if (bucket == NULL ||
                PyDict_SetItem(by_prefix, prefix_obj, bucket) < 0) {
                Py_XDECREF(bucket);
                Py_DECREF(prefix_obj);
                Py_DECREF(seq_obj);
                return -1;
            }
            Py_DECREF(bucket);  /* by_prefix holds it now */
        }
        if (PyDict_SetItem(bucket, seq_obj, block) < 0) {
            Py_DECREF(prefix_obj);
            Py_DECREF(seq_obj);
            return -1;
        }
        Py_DECREF(prefix_obj);
        Py_DECREF(seq_obj);
        return 0;
    }
    /* Existing entry: keep its seq, move buckets if needed. */
    {
        long long old_prefix = old >> prefix_shift;
        long long new_prefix = leaf >> prefix_shift;
        if (old_prefix == new_prefix)
            return 0;
        PyObject *seq_obj = PyDict_GetItem(seq_dict, block);
        if (seq_obj == NULL) {
            PyErr_SetString(PyExc_KeyError, "stash seq missing");
            return -1;
        }
        Py_INCREF(seq_obj);
        PyObject *old_obj = PyLong_FromLongLong(old_prefix);
        PyObject *bucket =
            old_obj ? PyDict_GetItem(by_prefix, old_obj) : NULL;
        if (bucket == NULL || PyDict_DelItem(bucket, seq_obj) < 0) {
            if (bucket == NULL && !PyErr_Occurred())
                PyErr_SetString(PyExc_KeyError,
                                "stash prefix bucket missing");
            Py_XDECREF(old_obj);
            Py_DECREF(seq_obj);
            return -1;
        }
        if (PyDict_GET_SIZE(bucket) == 0)
            PyDict_DelItem(by_prefix, old_obj);
        Py_DECREF(old_obj);
        PyObject *new_obj = PyLong_FromLongLong(new_prefix);
        if (new_obj == NULL) {
            Py_DECREF(seq_obj);
            return -1;
        }
        bucket = PyDict_GetItem(by_prefix, new_obj);
        if (bucket == NULL) {
            bucket = PyDict_New();
            if (bucket == NULL ||
                PyDict_SetItem(by_prefix, new_obj, bucket) < 0) {
                Py_XDECREF(bucket);
                Py_DECREF(new_obj);
                Py_DECREF(seq_obj);
                return -1;
            }
            Py_DECREF(bucket);
        }
        if (PyDict_SetItem(bucket, seq_obj, block) < 0) {
            Py_DECREF(new_obj);
            Py_DECREF(seq_obj);
            return -1;
        }
        Py_DECREF(new_obj);
        Py_DECREF(seq_obj);
    }
    return 0;
}

/* Insert a fresh block into the stash dicts with a pre-assigned
 * sequence number — the array-mode write-back for path survivors that
 * bypassed the dicts during the read phase.  The block must not already
 * be present; dict operations run in the same order as the fresh branch
 * of stash_add_one so the resulting index state is identical.
 */
static int
stash_insert_with_seq(PyObject *entries, PyObject *seq_dict,
                      PyObject *by_prefix, long long prefix_shift,
                      PyObject *block, PyObject *leaf_obj, long long leaf,
                      long long seq)
{
    if (PyDict_SetItem(entries, block, leaf_obj) < 0)
        return -1;
    PyObject *seq_obj = PyLong_FromLongLong(seq);
    if (seq_obj == NULL)
        return -1;
    if (PyDict_SetItem(seq_dict, block, seq_obj) < 0) {
        Py_DECREF(seq_obj);
        return -1;
    }
    PyObject *prefix_obj = PyLong_FromLongLong(leaf >> prefix_shift);
    if (prefix_obj == NULL) {
        Py_DECREF(seq_obj);
        return -1;
    }
    PyObject *bucket = PyDict_GetItem(by_prefix, prefix_obj);
    if (bucket == NULL) {
        bucket = PyDict_New();
        if (bucket == NULL ||
            PyDict_SetItem(by_prefix, prefix_obj, bucket) < 0) {
            Py_XDECREF(bucket);
            Py_DECREF(prefix_obj);
            Py_DECREF(seq_obj);
            return -1;
        }
        Py_DECREF(bucket);  /* by_prefix holds it now */
    }
    if (PyDict_SetItem(bucket, seq_obj, block) < 0) {
        Py_DECREF(prefix_obj);
        Py_DECREF(seq_obj);
        return -1;
    }
    Py_DECREF(prefix_obj);
    Py_DECREF(seq_obj);
    return 0;
}

/* stash_bulk_add(removed, entries, seq_dict, by_prefix, prefix_shift,
 *                next_seq, leaf_table, top) -> (next_seq, top_blocks)
 *
 * Insert every (block, level) pair pulled off a path into the stash with
 * full leaf-prefix index maintenance, mirroring Stash.add.  Blocks read
 * out of the cached top levels are returned so the caller can run the
 * tree-top structure's removal hook on exactly those.
 */
static PyObject *
stash_bulk_add(PyObject *self, PyObject *args)
{
    PyObject *removed, *entries, *seq_dict, *by_prefix, *leaf_table;
    long long prefix_shift, next_seq, top;
    if (!PyArg_ParseTuple(args, "O!O!O!O!LLO!L",
                          &PyList_Type, &removed,
                          &PyDict_Type, &entries,
                          &PyDict_Type, &seq_dict,
                          &PyDict_Type, &by_prefix,
                          &prefix_shift, &next_seq,
                          &PyList_Type, &leaf_table, &top))
        return NULL;

    PyObject *top_blocks = PyList_New(0);
    if (top_blocks == NULL)
        return NULL;
    Py_ssize_t n = PyList_GET_SIZE(removed);
    Py_ssize_t table_size = PyList_GET_SIZE(leaf_table);
    for (Py_ssize_t i = 0; i < n; i++) {
        PyObject *pair = PyList_GET_ITEM(removed, i);
        PyObject *block = PyTuple_GET_ITEM(pair, 0);
        long long level = PyLong_AsLongLong(PyTuple_GET_ITEM(pair, 1));
        long long block_id = PyLong_AsLongLong(block);
        if (PyErr_Occurred())
            goto fail;
        if (level < top && PyList_Append(top_blocks, block) < 0)
            goto fail;
        if (block_id < 0 || block_id >= table_size) {
            PyErr_SetString(PyExc_IndexError, "block outside position map");
            goto fail;
        }
        PyObject *leaf_obj = PyList_GET_ITEM(leaf_table, block_id);
        long long leaf = PyLong_AsLongLong(leaf_obj);
        if (leaf == -1) {
            if (!PyErr_Occurred())
                PyErr_SetString(PyExc_ValueError, "block has no mapping");
            goto fail;
        }
        if (stash_add_one(entries, seq_dict, by_prefix, prefix_shift,
                          block, leaf_obj, leaf, &next_seq) < 0)
            goto fail;
    }
    {
        PyObject *seq_val = PyLong_FromLongLong(next_seq);
        if (seq_val == NULL)
            goto fail;
        PyObject *result = PyTuple_Pack(2, seq_val, top_blocks);
        Py_DECREF(seq_val);
        Py_DECREF(top_blocks);
        return result;
    }

fail:
    Py_DECREF(top_blocks);
    return NULL;
}

/* Pool entry of the placement engine: a stash block with its insertion
 * sequence number. */
typedef struct {
    long long seq;
    PyObject *block;
    Py_ssize_t idx;   /* read-order index (array-mode placement only) */
} PoolItem;

static int
pool_item_cmp(const void *a, const void *b)
{
    long long sa = ((const PoolItem *)a)->seq;
    long long sb = ((const PoolItem *)b)->seq;
    return (sa > sb) - (sa < sb);
}

#define FASTPATH_MAX_LEVELS 64

/* Cap on the packed per-leaf triple cache inside a batch ctx; mirrors
 * ORAMTree.PATH_CACHE_LIMIT so both memo layers evict in step.
 */
#define PACKED_CACHE_LIMIT (1 << 16)

/* Depth-bucket every stash block for the path to `leaf` via the prefix
 * index: blocks sharing the target prefix get an exact XOR/bit-length
 * depth, diverging prefix buckets land wholesale at the prefix divergence
 * depth.  Fills `items` (capacity >= len(entries)) segmented by depth
 * (counts/offsets, length `levels`), each segment sorted by stash
 * insertion sequence.  Mirrors Stash.path_pools.  Returns 0, or -1 with
 * an exception set.
 */
static int
group_by_depth(long long leaf, PyObject *entries, PyObject *by_prefix,
               long long prefix_shift, long long prefix_levels,
               long long levels, PoolItem *items,
               Py_ssize_t *counts, Py_ssize_t *offsets)
{
    long long base = levels - 1;
    long long target_prefix = leaf >> prefix_shift;
    Py_ssize_t fill[FASTPATH_MAX_LEVELS];
    PyObject *prefix_obj, *bucket;
    Py_ssize_t pos = 0;

    memset(counts, 0, sizeof(Py_ssize_t) * (size_t)levels);
    /* count per depth */
    while (PyDict_Next(by_prefix, &pos, &prefix_obj, &bucket)) {
        long long prefix = PyLong_AsLongLong(prefix_obj);
        if (prefix == -1 && PyErr_Occurred())
            return -1;
        if (prefix == target_prefix) {
            PyObject *seq_obj, *block;
            Py_ssize_t bpos = 0;
            while (PyDict_Next(bucket, &bpos, &seq_obj, &block)) {
                PyObject *leaf_obj = PyDict_GetItem(entries, block);
                if (leaf_obj == NULL) {
                    PyErr_SetString(PyExc_KeyError,
                                    "stash index out of sync");
                    return -1;
                }
                long long block_leaf = PyLong_AsLongLong(leaf_obj);
                if (block_leaf == -1 && PyErr_Occurred())
                    return -1;
                long long depth =
                    base - bit_length(
                        (unsigned long long)(leaf ^ block_leaf));
                counts[depth]++;
            }
        } else {
            long long depth =
                prefix_levels - bit_length(
                    (unsigned long long)(prefix ^ target_prefix));
            counts[depth] += PyDict_GET_SIZE(bucket);
        }
    }
    offsets[0] = 0;
    for (long long d = 1; d < levels; d++)
        offsets[d] = offsets[d - 1] + counts[d - 1];
    memcpy(fill, offsets, sizeof(Py_ssize_t) * (size_t)levels);
    /* fill */
    pos = 0;
    while (PyDict_Next(by_prefix, &pos, &prefix_obj, &bucket)) {
        long long prefix = PyLong_AsLongLong(prefix_obj);
        PyObject *seq_obj, *block;
        Py_ssize_t bpos = 0;
        if (prefix == target_prefix) {
            while (PyDict_Next(bucket, &bpos, &seq_obj, &block)) {
                long long block_leaf = PyLong_AsLongLong(
                    PyDict_GetItem(entries, block));
                long long depth =
                    base - bit_length(
                        (unsigned long long)(leaf ^ block_leaf));
                items[fill[depth]].seq = PyLong_AsLongLong(seq_obj);
                items[fill[depth]].block = block;
                fill[depth]++;
            }
        } else {
            long long depth =
                prefix_levels - bit_length(
                    (unsigned long long)(prefix ^ target_prefix));
            while (PyDict_Next(bucket, &bpos, &seq_obj, &block)) {
                items[fill[depth]].seq = PyLong_AsLongLong(seq_obj);
                items[fill[depth]].block = block;
                fill[depth]++;
            }
        }
    }
    if (PyErr_Occurred())
        return -1;
    for (long long d = 0; d < levels; d++)
        if (counts[d] > 1)
            qsort(items + offsets[d], (size_t)counts[d],
                  sizeof(PoolItem), pool_item_cmp);
    return 0;
}

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

/* The shared placement engine behind write_path_place and run_batch:
 * greedy bottom-up placement over ``items`` already segmented by depth
 * (counts/offsets, each segment sorted by sequence).  ``items`` must
 * have capacity 3*total — the upper two thirds are scratch for the
 * pool stack and the per-level rejection list.
 *
 * ``gated`` selects the S-Stash variant: placements into the cached top
 * levels consult the set-associativity constraint (``set_of`` callable,
 * ``set_count`` dict, ``ways``) and maintain the block-address index
 * (``resident``), mirroring the Python placement loop with
 * SStash.may_place/on_place; rejected blocks are retried at shallower
 * levels exactly like the Python ``pool.extend(rejected)``.  Counter
 * deltas accumulate into placed_top / ss_placed / ss_skips.
 *
 * ``remove_placed`` selects how placements reconcile with the stash:
 * the dict-backed caller removes each placed block from the stash
 * index, while the array-mode caller (whose blocks never entered the
 * dicts) just gets ``placed_out[item.idx]`` marked so survivors can be
 * written back afterwards.
 */
static int
place_pools(PoolItem *items, Py_ssize_t total, const Py_ssize_t *counts,
            const Py_ssize_t *offsets, PyObject *entries,
            PyObject *seq_dict, PyObject *by_prefix,
            long long prefix_shift, PyObject *path_slots,
            const long long *z_arr, long long *used_arr, long long levels,
            long long top, long long empty, int gated,
            PyObject *resident, PyObject *set_count, PyObject *set_of,
            long long ways, int remove_placed, unsigned char *placed_out,
            long long *placed_top, long long *ss_placed,
            long long *ss_skips)
{
    PoolItem *stack = items + total;
    PoolItem *rejected = items + 2 * total;

    /* Greedy bottom-up placement, pool kept as a stack. */
    {
        Py_ssize_t stack_size = 0;
        Py_ssize_t ps_idx = PyList_GET_SIZE(path_slots) - 1;
        for (long long level = levels - 1; level >= 0; level--) {
            Py_ssize_t cnt = counts[level];
            if (cnt) {
                memcpy(stack + stack_size, items + offsets[level],
                       sizeof(PoolItem) * (size_t)cnt);
                stack_size += cnt;
            }
            long long z = z_arr[level];
            if (z == 0)
                continue;
            if (ps_idx < 0) {
                PyErr_SetString(PyExc_ValueError,
                                "path_slots out of sync with z_per_level");
                goto fail;
            }
            PyObject *pair = PyList_GET_ITEM(path_slots, ps_idx);
            long long pair_level =
                PyLong_AsLongLong(PyTuple_GET_ITEM(pair, 0));
            if (pair_level != level) {
                PyErr_SetString(PyExc_ValueError,
                                "path_slots out of sync with z_per_level");
                goto fail;
            }
            PyObject *slots = PyTuple_GET_ITEM(pair, 1);
            ps_idx--;
            if (stack_size == 0)
                continue;
            int level_gated = gated && level < top;
            Py_ssize_t z_size = PyList_GET_SIZE(slots);
            Py_ssize_t scan = 0;
            Py_ssize_t n_rej = 0;
            long long placed = 0;
            long long used_delta = 0;
            while (stack_size > 0 && placed < z) {
                PoolItem item = stack[--stack_size];
                PyObject *block = item.block;
                PyObject *idx_obj = NULL;
                long long set_cnt = 0;
                if (level_gated) {
                    idx_obj = PyObject_CallOneArg(set_of, block);
                    if (idx_obj == NULL)
                        goto fail;
                    PyObject *cnt_obj =
                        PyDict_GetItemWithError(set_count, idx_obj);
                    if (cnt_obj == NULL && PyErr_Occurred()) {
                        Py_DECREF(idx_obj);
                        goto fail;
                    }
                    if (cnt_obj != NULL) {
                        set_cnt = PyLong_AsLongLong(cnt_obj);
                        if (set_cnt == -1 && PyErr_Occurred()) {
                            Py_DECREF(idx_obj);
                            goto fail;
                        }
                    }
                    if (set_cnt >= ways) {
                        /* Set full: skip this block for this round. */
                        Py_DECREF(idx_obj);
                        rejected[n_rej++] = item;
                        (*ss_skips)++;
                        continue;
                    }
                }
                /* first EMPTY slot (earlier ones were just filled) */
                Py_ssize_t free_idx = -1;
                for (Py_ssize_t i = scan; i < z_size; i++) {
                    long long occupant = PyLong_AsLongLong(
                        PyList_GET_ITEM(slots, i));
                    if (occupant == -1 && PyErr_Occurred()) {
                        Py_XDECREF(idx_obj);
                        goto fail;
                    }
                    if (occupant == empty) {
                        free_idx = i;
                        break;
                    }
                }
                if (free_idx < 0) {
                    PyErr_SetString(PyExc_RuntimeError,
                                    "bucket full during write phase");
                    Py_XDECREF(idx_obj);
                    goto fail;
                }
                Py_INCREF(block);
                PyList_SetItem(slots, free_idx, block);
                scan = free_idx + 1;
                used_delta++;
                placed++;
                if (level_gated) {
                    PyObject *cnt_obj = PyLong_FromLongLong(set_cnt + 1);
                    if (cnt_obj == NULL ||
                        PyDict_SetItem(set_count, idx_obj, cnt_obj) < 0) {
                        Py_XDECREF(cnt_obj);
                        Py_DECREF(idx_obj);
                        goto fail;
                    }
                    Py_DECREF(cnt_obj);
                    if (PyDict_SetItem(resident, block, idx_obj) < 0) {
                        Py_DECREF(idx_obj);
                        goto fail;
                    }
                    Py_DECREF(idx_obj);
                    (*ss_placed)++;
                } else if (level < top) {
                    (*placed_top)++;
                }
                if (remove_placed) {
                    if (stash_remove_indexed(entries, seq_dict, by_prefix,
                                             prefix_shift, block) < 0)
                        goto fail;
                } else {
                    placed_out[item.idx] = 1;
                }
            }
            /* Re-stack rejected blocks in rejection order: the next pop
             * takes the most recently rejected first, matching
             * pool.extend(rejected) + pool.pop(). */
            for (Py_ssize_t r = 0; r < n_rej; r++)
                stack[stack_size++] = rejected[r];
            used_arr[level] += used_delta;
        }
    }
    return 0;

fail:
    return -1;
}

/* Dict-backed placement: depth-bucket the whole stash via the prefix
 * index, then run the shared engine with placed blocks removed from
 * the stash index as they land.
 */
static int
write_place_core(long long leaf, PyObject *entries, PyObject *seq_dict,
                 PyObject *by_prefix, long long prefix_shift,
                 long long prefix_levels, PyObject *path_slots,
                 const long long *z_arr, long long *used_arr,
                 long long levels,
                 long long top, long long empty, int gated,
                 PyObject *resident, PyObject *set_count, PyObject *set_of,
                 long long ways, long long *placed_top,
                 long long *ss_placed, long long *ss_skips)
{
    Py_ssize_t total = PyDict_GET_SIZE(entries);
    if (total == 0)
        return 0;

    PoolItem *items = PyMem_Malloc(sizeof(PoolItem) * (size_t)total * 3);
    if (items == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    Py_ssize_t counts[FASTPATH_MAX_LEVELS];
    Py_ssize_t offsets[FASTPATH_MAX_LEVELS];
    int rc = group_by_depth(leaf, entries, by_prefix, prefix_shift,
                            prefix_levels, levels, items, counts, offsets);
    if (rc == 0)
        rc = place_pools(items, total, counts, offsets, entries, seq_dict,
                         by_prefix, prefix_shift, path_slots, z_arr,
                         used_arr, levels, top, empty, gated, resident,
                         set_count, set_of, ways, 1, NULL, placed_top,
                         ss_placed, ss_skips);
    PyMem_Free(items);
    return rc;
}

/* Validate the S-Stash fields of a tree-top mode (0 = dedicated
 * counter-only cache, whose fields are ignored; 1 = S-Stash gating).
 * Returns 0, or -1 with an exception set.
 */
static int
check_treetop(long long mode, PyObject *resident, PyObject *set_count)
{
    if (mode == 0)
        return 0;
    if (mode != 1) {
        PyErr_SetString(PyExc_ValueError, "unknown tree-top mode");
        return -1;
    }
    if (!PyDict_Check(resident) || !PyDict_Check(set_count)) {
        PyErr_SetString(PyExc_TypeError, "S-Stash fields must be dicts");
        return -1;
    }
    return 0;
}

/* write_path_place(leaf, entries, seq_dict, by_prefix, prefix_shift,
 *                  prefix_levels, path_slots, z_per_level, level_used,
 *                  levels, top, empty, treetop_mode, resident, set_count,
 *                  set_of, ways)
 *   -> (placed_top, sstash_placed, sstash_skips)
 *
 * The full greedy bottom-up write phase of one path access: group every
 * stash block by deepest eligible level via the leaf-prefix index, then
 * fill bucket slots deepest-first through place_pools, removing placed
 * blocks from the stash.  The tree-top arguments are run_batch's:
 * mode 1 gates placements into the cached top on the S-Stash set having
 * a free way.  Mirrors the Python placement loop in
 * PathORAMController._place_path.
 */
static PyObject *
write_path_place(PyObject *self, PyObject *args)
{
    PyObject *entries, *seq_dict, *by_prefix, *path_slots, *z_list,
        *level_used, *resident, *set_count, *set_of;
    long long leaf, prefix_shift, prefix_levels, levels, top, empty,
        treetop_mode, ways;
    if (!PyArg_ParseTuple(args, "LO!O!O!LLO!O!O!LLLLOOOL",
                          &leaf,
                          &PyDict_Type, &entries,
                          &PyDict_Type, &seq_dict,
                          &PyDict_Type, &by_prefix,
                          &prefix_shift, &prefix_levels,
                          &PyList_Type, &path_slots,
                          &PyList_Type, &z_list,
                          &PyList_Type, &level_used,
                          &levels, &top, &empty,
                          &treetop_mode, &resident, &set_count, &set_of,
                          &ways))
        return NULL;
    if (check_treetop(treetop_mode, resident, set_count) < 0)
        return NULL;
    if (levels < 1 || levels > FASTPATH_MAX_LEVELS ||
        PyList_GET_SIZE(z_list) < (Py_ssize_t)levels ||
        PyList_GET_SIZE(level_used) < (Py_ssize_t)levels) {
        PyErr_SetString(PyExc_ValueError, "unsupported level count");
        return NULL;
    }
    long long z_arr[FASTPATH_MAX_LEVELS];
    long long used_arr[FASTPATH_MAX_LEVELS];
    for (long long d = 0; d < levels; d++) {
        z_arr[d] = PyLong_AsLongLong(PyList_GET_ITEM(z_list, d));
        used_arr[d] = PyLong_AsLongLong(PyList_GET_ITEM(level_used, d));
    }
    if (PyErr_Occurred())
        return NULL;
    long long placed_top = 0;
    long long ss_placed = 0;
    long long ss_skips = 0;
    if (write_place_core(leaf, entries, seq_dict, by_prefix, prefix_shift,
                         prefix_levels, path_slots, z_arr, used_arr,
                         levels, top, empty, treetop_mode == 1, resident,
                         set_count, set_of, ways, &placed_top, &ss_placed,
                         &ss_skips) < 0)
        return NULL;
    for (long long d = 0; d < levels; d++) {
        PyObject *used_obj = PyLong_FromLongLong(used_arr[d]);
        if (used_obj == NULL)
            return NULL;
        PyList_SetItem(level_used, d, used_obj);
    }
    return Py_BuildValue("LLL", placed_top, ss_placed, ss_skips);
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

typedef struct {
    long long ratio;      /* CPU cycles per DRAM cycle */
    long long t_rp;
    long long t_rcd;
    long long t_burst;
    long long cas_burst;  /* t_cas + t_burst */
} DramTiming;

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

/* run_batch(ctx, now, next_seq, interval, max_paths, horizon,
 *           stop_threshold, trigger_threshold, want_bounds,
 *           collect_timing)
 *   -> (n, now, next_seq, max_occupancy, bounds | None, agg,
 *       timings | None)
 *
 * Execute up to ``max_paths`` whole dummy-path accesses — RNG leaf draw,
 * read-phase DRAM timing, path read-and-clear into the stash, greedy
 * bottom-up write placement, write-phase DRAM timing — without returning
 * to the interpreter between paths.  Each iteration is bit-identical to
 * PathORAMController.dummy_path followed by ``now = max(now + interval,
 * finish_write)``.
 *
 * ``ctx`` is the 29-slot tuple built by the controller (RNG callable and
 * leaf count, the two per-leaf caches with their miss fallbacks, stash
 * index dicts, position-map leaf table, tree geometry, DRAM bank-state
 * lists and timing parameters, the tree-top mode: 0 = dedicated
 * counter-only cache, 1 = S-Stash gating, a dict the kernel fills with
 * packed per-leaf triple arrays so repeat leaves skip unboxing, and the
 * RNG's bound ``getrandbits`` plus the leaf-count bit width when the
 * controller verified plain ``random.Random`` semantics — the kernel
 * then draws leaves with rejection sampling exactly as
 * ``Random._randbelow_with_getrandbits`` does, skipping the interpreted
 * ``randrange`` wrapper while consuming the identical bit stream).  The batch stops early at
 * ``horizon`` (next real work item, -1 = none), or as soon as the stash
 * is over ``stop_threshold`` (-1 = never), so every slot-boundary
 * decision the per-access loop would have made stays identical.  Stash
 * occupancy is compared against ``trigger_threshold`` after every write
 * phase to accumulate eviction-trigger counts.
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
    long long now, next_seq, interval, max_paths, horizon, stop_threshold,
        trigger_threshold;
    int want_bounds, collect_timing;
    if (!PyArg_ParseTuple(args, "O!LLLLLLLpp",
                          &PyTuple_Type, &ctx, &now, &next_seq, &interval,
                          &max_paths, &horizon, &stop_threshold,
                          &trigger_threshold, &want_bounds,
                          &collect_timing))
        return NULL;
    if (PyTuple_GET_SIZE(ctx) != 29) {
        PyErr_SetString(PyExc_ValueError, "run_batch ctx must have 29 slots");
        return NULL;
    }
    PyObject *randrange = PyTuple_GET_ITEM(ctx, 0);
    PyObject *leaves_obj = PyTuple_GET_ITEM(ctx, 1);
    PyObject *triples_cache = PyTuple_GET_ITEM(ctx, 2);
    PyObject *triples_fn = PyTuple_GET_ITEM(ctx, 3);
    PyObject *slots_cache = PyTuple_GET_ITEM(ctx, 4);
    PyObject *slots_fn = PyTuple_GET_ITEM(ctx, 5);
    PyObject *entries = PyTuple_GET_ITEM(ctx, 6);
    PyObject *seq_dict = PyTuple_GET_ITEM(ctx, 7);
    PyObject *by_prefix = PyTuple_GET_ITEM(ctx, 8);
    long long prefix_shift = PyLong_AsLongLong(PyTuple_GET_ITEM(ctx, 9));
    long long prefix_levels = PyLong_AsLongLong(PyTuple_GET_ITEM(ctx, 10));
    PyObject *leaf_table = PyTuple_GET_ITEM(ctx, 11);
    PyObject *z_list = PyTuple_GET_ITEM(ctx, 12);
    PyObject *level_used = PyTuple_GET_ITEM(ctx, 13);
    long long levels = PyLong_AsLongLong(PyTuple_GET_ITEM(ctx, 14));
    long long top = PyLong_AsLongLong(PyTuple_GET_ITEM(ctx, 15));
    long long empty = PyLong_AsLongLong(PyTuple_GET_ITEM(ctx, 16));
    PyObject *bank_ready = PyTuple_GET_ITEM(ctx, 17);
    PyObject *bank_open_row = PyTuple_GET_ITEM(ctx, 18);
    PyObject *bus_free_list = PyTuple_GET_ITEM(ctx, 19);
    PyObject *dram_params = PyTuple_GET_ITEM(ctx, 20);
    long long treetop_mode = PyLong_AsLongLong(PyTuple_GET_ITEM(ctx, 21));
    PyObject *resident = PyTuple_GET_ITEM(ctx, 22);
    PyObject *set_count = PyTuple_GET_ITEM(ctx, 23);
    PyObject *set_of = PyTuple_GET_ITEM(ctx, 24);
    long long ways = PyLong_AsLongLong(PyTuple_GET_ITEM(ctx, 25));
    PyObject *packed_cache = PyTuple_GET_ITEM(ctx, 26);
    PyObject *getrandbits = PyTuple_GET_ITEM(ctx, 27);
    long long leaf_bits = PyLong_AsLongLong(PyTuple_GET_ITEM(ctx, 28));
    if (PyErr_Occurred())
        return NULL;
    if (!PyDict_Check(entries) || !PyDict_Check(seq_dict) ||
        !PyDict_Check(by_prefix) || !PyDict_Check(triples_cache) ||
        !PyDict_Check(packed_cache) ||
        !PyDict_Check(slots_cache) || !PyList_Check(leaf_table) ||
        !PyList_Check(z_list) || !PyList_Check(level_used) ||
        !PyList_Check(bank_ready) || !PyList_Check(bank_open_row) ||
        !PyList_Check(bus_free_list) || !PyTuple_Check(dram_params) ||
        PyTuple_GET_SIZE(dram_params) != 5) {
        PyErr_SetString(PyExc_TypeError, "malformed run_batch ctx");
        return NULL;
    }
    if (check_treetop(treetop_mode, resident, set_count) < 0)
        return NULL;
    DramTiming dcfg;
    dcfg.ratio = PyLong_AsLongLong(PyTuple_GET_ITEM(dram_params, 0));
    dcfg.t_rp = PyLong_AsLongLong(PyTuple_GET_ITEM(dram_params, 1));
    dcfg.t_rcd = PyLong_AsLongLong(PyTuple_GET_ITEM(dram_params, 2));
    dcfg.t_burst = PyLong_AsLongLong(PyTuple_GET_ITEM(dram_params, 3));
    dcfg.cas_burst = PyLong_AsLongLong(PyTuple_GET_ITEM(dram_params, 4));
    if (PyErr_Occurred())
        return NULL;
    if (levels < 1 || levels > FASTPATH_MAX_LEVELS || dcfg.ratio <= 0 ||
        max_paths < 0 || now < 0 ||
        PyList_GET_SIZE(z_list) < (Py_ssize_t)levels ||
        PyList_GET_SIZE(level_used) < (Py_ssize_t)levels) {
        PyErr_SetString(PyExc_ValueError, "unsupported run_batch geometry");
        return NULL;
    }

    /* Hoist the per-level constants and occupancy counters into C
     * arrays for the whole batch; occupancy is written back with the
     * bank state on success.  Nothing the kernel calls back into
     * (cache-miss fallbacks, the RNG) reads these lists mid-batch.
     */
    long long z_arr[FASTPATH_MAX_LEVELS];
    long long used_arr[FASTPATH_MAX_LEVELS];
    for (long long d = 0; d < levels; d++) {
        z_arr[d] = PyLong_AsLongLong(PyList_GET_ITEM(z_list, d));
        used_arr[d] = PyLong_AsLongLong(PyList_GET_ITEM(level_used, d));
    }
    long long leaves_count = PyLong_AsLongLong(leaves_obj);
    if (PyErr_Occurred())
        return NULL;
    int use_grb = (getrandbits != Py_None && leaf_bits > 0);
    PyObject *bits_obj = NULL;
    if (use_grb) {
        bits_obj = PyLong_FromLongLong(leaf_bits);
        if (bits_obj == NULL)
            return NULL;
    }

    /* Hoist bank state into C arrays; written back only on success. */
    Py_ssize_t n_banks = PyList_GET_SIZE(bank_ready);
    Py_ssize_t n_channels = PyList_GET_SIZE(bus_free_list);
    if (PyList_GET_SIZE(bank_open_row) != n_banks) {
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
        ready[i] = PyLong_AsLongLong(PyList_GET_ITEM(bank_ready, i));
        open_row[i] = PyLong_AsLongLong(PyList_GET_ITEM(bank_open_row, i));
    }
    for (Py_ssize_t i = 0; i < n_channels; i++)
        bus_free[i] = PyLong_AsLongLong(PyList_GET_ITEM(bus_free_list, i));
    PyObject *empty_obj = PyLong_FromLongLong(empty);
    PyObject *bounds = want_bounds ? PyList_New(0) : NULL;
    if (PyErr_Occurred() || empty_obj == NULL ||
        (want_bounds && bounds == NULL)) {
        PyMem_Free(bank_state);
        Py_XDECREF(empty_obj);
        Py_XDECREF(bounds);
        Py_XDECREF(bits_obj);
        return NULL;
    }

    /* Scratch for the empty-stash array fastpath: when a path begins
     * with an empty stash (the steady state for dummy-path batches),
     * read blocks skip the stash dicts entirely — they are collected
     * in read order, depth-bucketed with group_by_depth's exact
     * XOR/bit-length rule, placed through the shared engine, and only
     * the rare survivors are inserted into the dict index afterwards
     * with their pre-assigned sequence numbers.  Both modes order each
     * depth pool by ascending sequence and keep survivors in read
     * (= sequence) order, so the resulting state is identical.
     */
    long long max_slots = 0;
    for (long long d = 0; d < levels; d++)
        max_slots += z_arr[d];
    PoolItem *abuf = NULL;          /* [read order | 3x engine scratch] */
    PyObject **aleaf_obj = NULL;    /* borrowed leaf objects, read order */
    long long *ableaf = NULL;
    long long *adepth = NULL;
    unsigned char *aplaced = NULL;
    if (max_slots > 0) {
        size_t bytes = (sizeof(PoolItem) * 4 + sizeof(PyObject *) +
                        sizeof(long long) * 2 + 1) * (size_t)max_slots;
        abuf = PyMem_Malloc(bytes);
        if (abuf == NULL) {
            PyMem_Free(bank_state);
            Py_DECREF(empty_obj);
            Py_XDECREF(bounds);
            Py_XDECREF(bits_obj);
            return PyErr_NoMemory();
        }
        aleaf_obj = (PyObject **)(abuf + 4 * max_slots);
        ableaf = (long long *)(aleaf_obj + max_slots);
        adepth = ableaf + max_slots;
        aplaced = (unsigned char *)(adepth + max_slots);
    }

    long long n = 0;
    long long max_occ = 0;
    long long blocks_total = 0, row_hits = 0, row_conflicts = 0;
    long long placed_top = 0, removed_top = 0, ev_triggers = 0;
    long long ss_placed = 0, ss_removed = 0, ss_skips = 0;
    unsigned long long t_rng = 0, t_read_dram = 0, t_stash = 0,
        t_place = 0, t_write_dram = 0;
    Py_ssize_t table_size = PyList_GET_SIZE(leaf_table);

    while (n < max_paths) {
        if (horizon >= 0 && now >= horizon)
            break;
        if (stop_threshold >= 0 &&
            (long long)PyDict_GET_SIZE(entries) > stop_threshold)
            break;
        PyObject *leaf_obj = NULL, *packed = NULL, *pairs = NULL;
        int array_mode = (abuf != NULL && PyDict_GET_SIZE(entries) == 0);
        Py_ssize_t n_read = 0;
        Py_ssize_t acounts[FASTPATH_MAX_LEVELS];
        if (array_mode)
            memset(acounts, 0, sizeof(Py_ssize_t) * (size_t)levels);
        unsigned long long t0 = collect_timing ? now_ns() : 0;

        long long leaf;
        if (use_grb) {
            /* Random._randbelow_with_getrandbits, inlined: draw
             * bit_length(leaves) bits, rejecting draws >= leaves, so
             * the RNG bit stream matches randrange(leaves) exactly.
             */
            for (;;) {
                leaf_obj = PyObject_CallOneArg(getrandbits, bits_obj);
                if (leaf_obj == NULL)
                    goto path_fail;
                leaf = PyLong_AsLongLong(leaf_obj);
                if (leaf == -1 && PyErr_Occurred())
                    goto path_fail;
                if (leaf < leaves_count)
                    break;
                Py_DECREF(leaf_obj);
                leaf_obj = NULL;
            }
        } else {
            leaf_obj = PyObject_CallOneArg(randrange, leaves_obj);
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
        packed = PyDict_GetItemWithError(packed_cache, leaf_obj);
        if (packed != NULL) {
            Py_INCREF(packed);
        } else {
            if (PyErr_Occurred())
                goto path_fail;
            PyObject *cached = PyDict_GetItemWithError(
                triples_cache, leaf_obj);
            if (cached != NULL) {
                Py_INCREF(cached);
            } else {
                if (PyErr_Occurred())
                    goto path_fail;
                cached = PyObject_CallOneArg(triples_fn, leaf_obj);
                if (cached == NULL)
                    goto path_fail;
            }
            packed = pack_triples(cached, n_banks, n_channels);
            Py_DECREF(cached);
            if (packed == NULL)
                goto path_fail;
            if (PyDict_GET_SIZE(packed_cache) >= PACKED_CACHE_LIMIT) {
                /* Mirror the Python memo's FIFO eviction. */
                PyObject *first_key, *first_val;
                Py_ssize_t pos = 0;
                if (PyDict_Next(packed_cache, &pos, &first_key,
                                &first_val) &&
                    PyDict_DelItem(packed_cache, first_key) < 0)
                    goto path_fail;
            }
            if (PyDict_SetItem(packed_cache, leaf_obj, packed) < 0)
                goto path_fail;
        }
        const long long *tarr = (const long long *)PyBytes_AS_STRING(packed);
        long long blocks = tarr[0];
        Py_ssize_t n_triples =
            PyBytes_GET_SIZE(packed) / (Py_ssize_t)sizeof(long long) / 3;

        /* Read phase through the DRAM model. */
        long long now_dram = (now + dcfg.ratio - 1) / dcfg.ratio;
        long long fr_dram = 0;
        dram_run_arr(tarr + 1, n_triples, ready, open_row, bus_free,
                     now_dram, &dcfg, &fr_dram, &row_hits, &row_conflicts);
        long long finish_read = fr_dram * dcfg.ratio;
        if (collect_timing) {
            unsigned long long t1 = now_ns();
            t_read_dram += t1 - t0;
            t0 = t1;
        }

        /* Path slot pairs: cache hit or memoizing Python fallback. */
        pairs = PyDict_GetItemWithError(slots_cache, leaf_obj);
        if (pairs != NULL) {
            Py_INCREF(pairs);
        } else {
            if (PyErr_Occurred())
                goto path_fail;
            pairs = PyObject_CallOneArg(slots_fn, leaf_obj);
            if (pairs == NULL)
                goto path_fail;
        }
        if (!PyList_Check(pairs)) {
            PyErr_SetString(PyExc_TypeError, "path_slots must be a list");
            goto path_fail;
        }

        /* Fused read_and_clear + stash insertion + tree-top removal. */
        long long tprefix = leaf >> prefix_shift;
        Py_ssize_t n_pairs = PyList_GET_SIZE(pairs);
        for (Py_ssize_t p = 0; p < n_pairs; p++) {
            PyObject *pair = PyList_GET_ITEM(pairs, p);
            if (!PyTuple_Check(pair) || PyTuple_GET_SIZE(pair) != 2 ||
                !PyList_Check(PyTuple_GET_ITEM(pair, 1))) {
                PyErr_SetString(PyExc_TypeError,
                                "pairs must hold (level, slots)");
                goto path_fail;
            }
            PyObject *level_obj = PyTuple_GET_ITEM(pair, 0);
            PyObject *slots = PyTuple_GET_ITEM(pair, 1);
            long long level = PyLong_AsLongLong(level_obj);
            if (level == -1 && PyErr_Occurred())
                goto path_fail;
            Py_ssize_t z_size = PyList_GET_SIZE(slots);
            long long cleared = 0;
            for (Py_ssize_t s = 0; s < z_size; s++) {
                PyObject *block = PyList_GET_ITEM(slots, s);
                long long value = PyLong_AsLongLong(block);
                if (value == -1 && PyErr_Occurred())
                    goto path_fail;
                if (value == empty)
                    continue;
                Py_INCREF(block);  /* outlive the slot overwrite */
                Py_INCREF(empty_obj);
                PyList_SetItem(slots, s, empty_obj);
                cleared++;
                if (level < top) {
                    if (treetop_mode == 1) {
                        if (sstash_remove(resident, set_count, block) < 0) {
                            Py_DECREF(block);
                            goto path_fail;
                        }
                        ss_removed++;
                    } else {
                        removed_top++;
                    }
                }
                if (value < 0 || value >= table_size) {
                    PyErr_SetString(PyExc_IndexError,
                                    "block outside position map");
                    Py_DECREF(block);
                    goto path_fail;
                }
                PyObject *bleaf_obj = PyList_GET_ITEM(leaf_table, value);
                long long bleaf = PyLong_AsLongLong(bleaf_obj);
                if (bleaf == -1) {
                    if (!PyErr_Occurred())
                        PyErr_SetString(PyExc_ValueError,
                                        "block has no mapping");
                    Py_DECREF(block);
                    goto path_fail;
                }
                if (array_mode) {
                    long long bprefix = bleaf >> prefix_shift;
                    long long depth = (bprefix == tprefix)
                        ? (levels - 1) -
                              bit_length((unsigned long long)(leaf ^ bleaf))
                        : prefix_levels -
                              bit_length(
                                  (unsigned long long)(bprefix ^ tprefix));
                    if (n_read >= max_slots || depth < 0 ||
                        depth >= levels) {
                        PyErr_SetString(PyExc_RuntimeError,
                                        "path read overflow");
                        Py_DECREF(block);
                        goto path_fail;
                    }
                    abuf[n_read].seq = next_seq;
                    abuf[n_read].block = block;  /* keep the strong ref */
                    abuf[n_read].idx = n_read;
                    aleaf_obj[n_read] = bleaf_obj;
                    ableaf[n_read] = bleaf;
                    adepth[n_read] = depth;
                    acounts[depth]++;
                    next_seq++;
                    n_read++;
                } else {
                    if (stash_add_one(entries, seq_dict, by_prefix,
                                      prefix_shift, block, bleaf_obj, bleaf,
                                      &next_seq) < 0) {
                        Py_DECREF(block);
                        goto path_fail;
                    }
                    Py_DECREF(block);
                }
            }
            if (cleared) {
                if (level < 0 || level >= levels) {
                    PyErr_SetString(PyExc_IndexError, "level out of range");
                    goto path_fail;
                }
                used_arr[level] -= cleared;
            }
        }
        {
            long long occ = array_mode
                ? (long long)n_read
                : (long long)PyDict_GET_SIZE(entries);
            if (occ > max_occ)
                max_occ = occ;
        }
        if (collect_timing) {
            unsigned long long t1 = now_ns();
            t_stash += t1 - t0;
            t0 = t1;
        }

        /* Greedy bottom-up write placement. */
        if (array_mode) {
            if (n_read > 0) {
                /* Segment the read-order items by depth; read order is
                 * ascending sequence, so each segment stays sorted. */
                Py_ssize_t aoffsets[FASTPATH_MAX_LEVELS];
                Py_ssize_t afill[FASTPATH_MAX_LEVELS];
                aoffsets[0] = 0;
                for (long long d = 1; d < levels; d++)
                    aoffsets[d] = aoffsets[d - 1] + acounts[d - 1];
                memcpy(afill, aoffsets,
                       sizeof(Py_ssize_t) * (size_t)levels);
                PoolItem *seg = abuf + max_slots;
                for (Py_ssize_t i = 0; i < n_read; i++)
                    seg[afill[adepth[i]]++] = abuf[i];
                memset(aplaced, 0, (size_t)n_read);
                if (place_pools(seg, n_read, acounts, aoffsets, entries,
                                seq_dict, by_prefix, prefix_shift, pairs,
                                z_arr, used_arr, levels, top, empty,
                                treetop_mode == 1, resident, set_count,
                                set_of, ways, 0, aplaced, &placed_top,
                                &ss_placed, &ss_skips) < 0)
                    goto path_fail;
                /* Survivors enter the stash dicts in read order with
                 * their pre-assigned sequence numbers. */
                for (Py_ssize_t i = 0; i < n_read; i++) {
                    if (!aplaced[i] &&
                        stash_insert_with_seq(entries, seq_dict,
                                              by_prefix, prefix_shift,
                                              abuf[i].block, aleaf_obj[i],
                                              ableaf[i], abuf[i].seq) < 0)
                        goto path_fail;
                }
                for (Py_ssize_t i = 0; i < n_read; i++)
                    Py_DECREF(abuf[i].block);
                n_read = 0;
            }
        } else if (write_place_core(leaf, entries, seq_dict, by_prefix,
                                    prefix_shift, prefix_levels, pairs,
                                    z_arr, used_arr, levels, top, empty,
                                    treetop_mode == 1, resident, set_count,
                                    set_of, ways, &placed_top, &ss_placed,
                                    &ss_skips) < 0)
            goto path_fail;
        if (collect_timing) {
            unsigned long long t1 = now_ns();
            t_place += t1 - t0;
            t0 = t1;
        }

        /* Write phase through the DRAM model. */
        now_dram = (finish_read + dcfg.ratio - 1) / dcfg.ratio;
        long long fw_dram = 0;
        dram_run_arr(tarr + 1, n_triples, ready, open_row, bus_free,
                     now_dram, &dcfg, &fw_dram, &row_hits, &row_conflicts);
        long long finish_write = fw_dram * dcfg.ratio;
        if (collect_timing)
            t_write_dram += now_ns() - t0;

        if ((long long)PyDict_GET_SIZE(entries) > trigger_threshold)
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
        for (Py_ssize_t i = 0; i < n_read; i++)
            Py_DECREF(abuf[i].block);
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
        PyList_SetItem(bank_ready, i, value);
        value = PyLong_FromLongLong(open_row[i]);
        if (value == NULL)
            goto fail;
        PyList_SetItem(bank_open_row, i, value);
    }
    for (Py_ssize_t i = 0; i < n_channels; i++) {
        PyObject *value = PyLong_FromLongLong(bus_free[i]);
        if (value == NULL)
            goto fail;
        PyList_SetItem(bus_free_list, i, value);
    }
    for (long long d = 0; d < levels; d++) {
        PyObject *value = PyLong_FromLongLong(used_arr[d]);
        if (value == NULL)
            goto fail;
        PyList_SetItem(level_used, d, value);
    }
    PyMem_Free(bank_state);
    PyMem_Free(abuf);
    Py_DECREF(empty_obj);
    Py_XDECREF(bits_obj);
    {
        PyObject *agg = Py_BuildValue(
            "(LLLLLLLLL)", blocks_total, row_hits, row_conflicts,
            placed_top, removed_top, ev_triggers, ss_placed, ss_removed,
            ss_skips);
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
        PyObject *result = Py_BuildValue(
            "(LLLLNNN)", n, now, next_seq, max_occ, bounds, agg, timings);
        return result;
    }

fail:
    PyMem_Free(bank_state);
    PyMem_Free(abuf);
    Py_DECREF(empty_obj);
    Py_XDECREF(bits_obj);
    Py_XDECREF(bounds);
    return NULL;
}

static PyMethodDef fastpath_methods[] = {
    {"dram_service", dram_service, METH_VARARGS,
     "Batch DRAM timing over pre-decomposed (bank, channel, row) triples."},
    {"read_and_clear", read_and_clear, METH_VARARGS,
     "Clear a path's slots, returning the removed (block, level) pairs."},
    {"stash_bulk_add", stash_bulk_add, METH_VARARGS,
     "Insert read-phase blocks into the stash with index maintenance."},
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
