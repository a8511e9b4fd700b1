/* Optional C hot-path kernels for the repro simulator.
 *
 * Compiled on demand by repro.perf.native with the system C compiler and
 * loaded as the extension module `_repro_fastpath`.  Every function here
 * mirrors a pure-Python implementation bit for bit — the Python versions
 * stay in the tree as both fallback and behavioural oracle, and the
 * equivalence tests compare whole simulations across the two.
 *
 * The kernels operate directly on the simulator's live Python objects
 * (dicts and lists of ints, and the tree, position-map and layout
 * path-table arrays through the buffer protocol), so there is a single
 * source of truth for all state; no separate C-side state is kept.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <string.h>
#include <time.h>

/* array.array, imported at module init: dram_triples returns one. */
static PyObject *array_type;

static inline unsigned long long
now_ns(void)
{
    struct timespec ts;
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return (unsigned long long)ts.tv_sec * 1000000000ull +
           (unsigned long long)ts.tv_nsec;
}

/* ---------------------------------------------------------------- */
/* DRAM timing                                                       */
/* ---------------------------------------------------------------- */

typedef struct {
    long long ratio;      /* CPU cycles per DRAM cycle */
    long long t_rp;
    long long t_rcd;
    long long t_burst;
    long long cas_burst;  /* t_cas + t_burst */
} DramTiming;

/* The DRAM model's bank state, hoisted from its three lists into one C
 * allocation: ``ready`` and ``open_row`` (-1 = closed) per flat bank,
 * ``bus_free`` per channel.
 */
typedef struct {
    long long *ready, *open_row, *bus_free;
    Py_ssize_t n_banks, n_channels;
} BankState;

/* DRAMModel._service_py over hoisted bank state, the one DRAM timing
 * loop: ``triples`` holds ``n3`` (bank, channel, row) groups whose
 * bank/channel indices the caller has range-checked.  Row hit/conflict
 * counts accumulate into the caller's running totals.
 */
static void
dram_run_arr(const long long *triples, Py_ssize_t n3, BankState *b,
             long long now_dram, const DramTiming *cfg,
             long long *finish_out, long long *hits_out,
             long long *conflicts_out)
{
    long long *ready = b->ready, *open_row = b->open_row,
        *bus_free = b->bus_free;
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

/* Hoist the bank-state lists into ``b``.  Returns 0 with the arrays
 * allocated (pair with free_banks), or -1 with an exception set and
 * nothing held.
 */
static int
load_banks(BankState *b, PyObject *ready, PyObject *open_row,
           PyObject *bus_free)
{
    b->n_banks = PyList_GET_SIZE(ready);
    b->n_channels = PyList_GET_SIZE(bus_free);
    if (PyList_GET_SIZE(open_row) != b->n_banks) {
        PyErr_SetString(PyExc_ValueError, "bank state lists out of sync");
        return -1;
    }
    b->ready = PyMem_Malloc(
        sizeof(long long) * (size_t)(2 * b->n_banks + b->n_channels));
    if (b->ready == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    b->open_row = b->ready + b->n_banks;
    b->bus_free = b->open_row + b->n_banks;
    for (Py_ssize_t i = 0; i < b->n_banks; i++) {
        b->ready[i] = PyLong_AsLongLong(PyList_GET_ITEM(ready, i));
        b->open_row[i] = PyLong_AsLongLong(PyList_GET_ITEM(open_row, i));
    }
    for (Py_ssize_t i = 0; i < b->n_channels; i++)
        b->bus_free[i] = PyLong_AsLongLong(PyList_GET_ITEM(bus_free, i));
    if (PyErr_Occurred()) {
        PyMem_Free(b->ready);
        return -1;
    }
    return 0;
}

static void
free_banks(BankState *b)
{
    PyMem_Free(b->ready);
}

/* list[i] = value unless it already holds that value.  Bounds-checked:
 * a callback may have resized the list since load_banks.
 */
static int
store_item(PyObject *list, Py_ssize_t i, long long value)
{
    PyObject *current = PyList_GetItem(list, i);
    if (current == NULL)
        return -1;
    long long held = PyLong_AsLongLong(current);
    if (held == -1 && PyErr_Occurred())
        PyErr_Clear();
    else if (held == value)
        return 0;
    PyObject *obj = PyLong_FromLongLong(value);
    if (obj == NULL)
        return -1;
    PyList_SetItem(list, i, obj);
    return 0;
}

/* Write hoisted bank state back to the lists load_banks read. */
static int
store_banks(const BankState *b, PyObject *ready, PyObject *open_row,
            PyObject *bus_free)
{
    for (Py_ssize_t i = 0; i < b->n_banks; i++) {
        if (store_item(ready, i, b->ready[i]) < 0 ||
            store_item(open_row, i, b->open_row[i]) < 0)
            return -1;
    }
    for (Py_ssize_t i = 0; i < b->n_channels; i++) {
        if (store_item(bus_free, i, b->bus_free[i]) < 0)
            return -1;
    }
    return 0;
}

/* Acquire ``obj`` as a writable buffer of ``long long`` (an array('q')).
 * Returns its item count, or -1 with an exception set and nothing held.
 */
static Py_ssize_t
get_q_buffer(PyObject *obj, Py_buffer *view, const char *what)
{
    if (PyObject_GetBuffer(obj, view, PyBUF_WRITABLE | PyBUF_FORMAT) < 0)
        return -1;
    if (view->format == NULL || strcmp(view->format, "q") != 0 ||
        view->itemsize != (Py_ssize_t)sizeof(long long)) {
        PyBuffer_Release(view);
        PyErr_Format(PyExc_TypeError, "%s must be an array('q')", what);
        return -1;
    }
    return view->len / view->itemsize;
}

/* dram_service(triples, ready, open_row, bus_free,
 *              now_dram, t_rp, t_rcd, t_burst, cas_burst)
 *   -> (finish_dram, row_hits, row_conflicts)
 *
 * `triples` is the flat array('q') of (bank, channel, row) groups that
 * DRAMModel.decompose_batch or dram_triples produce; `ready`, `open_row`
 * (row id or -1 = closed) and `bus_free` are the model's bank-state
 * lists, updated in place.  Every bank and channel is range-checked
 * before the timing loop runs.  Mirrors DRAMModel._service_py.
 */
static PyObject *
dram_service(PyObject *self, PyObject *args)
{
    PyObject *triples, *ready, *open_row, *bus_free;
    DramTiming cfg = {1, 0, 0, 0, 0};
    long long now_dram;
    if (!PyArg_ParseTuple(
            args, "OO!O!O!LLLLL", &triples,
            &PyList_Type, &ready, &PyList_Type, &open_row,
            &PyList_Type, &bus_free, &now_dram,
            &cfg.t_rp, &cfg.t_rcd, &cfg.t_burst, &cfg.cas_burst))
        return NULL;
    Py_buffer view;
    Py_ssize_t n = get_q_buffer(triples, &view, "triples");
    if (n < 0)
        return NULL;
    const long long *arr = view.buf;
    BankState b;
    long long finish = now_dram, row_hits = 0, conflicts = 0;
    if (n % 3 != 0) {
        PyErr_SetString(PyExc_ValueError,
                        "triples length not a multiple of 3");
        goto fail;
    }
    if (load_banks(&b, ready, open_row, bus_free) < 0)
        goto fail;
    for (Py_ssize_t i = 0; i < n; i += 3) {
        if (arr[i] < 0 || arr[i] >= b.n_banks ||
            arr[i + 1] < 0 || arr[i + 1] >= b.n_channels) {
            PyErr_SetString(PyExc_IndexError, "bank/channel out of range");
            free_banks(&b);
            goto fail;
        }
    }
    dram_run_arr(arr, n / 3, &b, now_dram, &cfg, &finish, &row_hits,
                 &conflicts);
    int rc = store_banks(&b, ready, open_row, bus_free);
    free_banks(&b);
    PyBuffer_Release(&view);
    if (rc < 0)
        return NULL;
    return Py_BuildValue("LLL", finish, row_hits, conflicts);

fail:
    PyBuffer_Release(&view);
    return NULL;
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

/* Pool entry of the placement engine: a stash block, in stash order.
 * ``block`` is borrowed from the stash dict, or NULL for a block that
 * run_batch's array mode read off the path without making an object.
 */
typedef struct {
    PyObject *block;
    long long value;
    Py_ssize_t idx;   /* read-order index (array-mode placement only) */
} PoolItem;

#define FASTPATH_MAX_LEVELS 64

/* ---------------------------------------------------------------- */
/* The kernel context                                                */
/* ---------------------------------------------------------------- */

/* The controller's one kernel context, unpacked.  ``ctx`` is the 23-slot
 * tuple PathORAMController._kernel_ctx freezes; access_path, dram_triples
 * and run_batch all take it:
 *
 *    0 randrange        leaf draw when the RNG is not a plain Random
 *    1 leaves           leaf count
 *    2 path_table       TreeLayout.path_table, array('q')
 *    3 entries          the stash's block -> leaf dict, in stash order
 *    4 leaf_table       position-map leaves by block, array('q')
 *    5 tree_slots       every tree slot, level by level, array('q')
 *    6-10               z per level, level occupancy, levels, cached
 *                       top levels, empty-slot marker
 *   11-13               DRAM bank ready / open row / bus free lists
 *   14 dram params      (ratio, t_rp, t_rcd, t_burst, t_cas + t_burst,
 *                       row_blocks, channels, banks_per_channel)
 *   15 tree-top mode    0 = dedicated counter-only cache, 1 = S-Stash
 *   16-18               S-Stash resident, set_count, set_of
 *   19 set_index        S-Stash set index by block, array('q'), -1 where
 *                       set_of has not hashed the block yet
 *   20 ways             S-Stash ways per set
 *   21-22               the RNG's getrandbits and the leaf-count bit
 *                       width when it is a plain random.Random, else
 *                       None, 0
 *
 * Object fields are borrowed from the tuple.  The arrays are held as
 * buffers from parse_ctx to release_ctx, so nothing can resize them in
 * between (set_of still writes set_index items); level ``l``'s buckets
 * start at ``offset[l]`` in the tree array, ``z_arr[l]`` slots each, as
 * ORAMTree lays them out.  Bucket sizes and level occupancy are hoisted
 * into C arrays (occupancy goes back through store_used), and the
 * tree-top counters gather one call's hook effects for the caller to
 * apply.
 */
typedef struct {
    PyObject *randrange, *leaves_obj, *entries, *level_used, *bank_ready,
        *bank_open_row, *bus_free, *resident, *set_count, *set_of,
        *getrandbits;
    Py_buffer leaf_buf, tree_buf, path_buf, set_buf;
    long long *leaf_table, *tree, *set_index;
    const long long *path_table;
    Py_ssize_t leaf_count;  /* blocks the position map covers */
    Py_ssize_t set_index_len;
    long long leaf, leaves, levels, top, empty, ways, leaf_bits;
    int gated;  /* tree-top mode 1: S-Stash set gating and release */
    int use_grb;  /* draw leaves through getrandbits */
    DramTiming dram;
    long long row_blocks, channels, banks_per_channel;
    long long path_blocks;  /* memory-backed slots on every path */
    long long z_arr[FASTPATH_MAX_LEVELS];
    long long offset[FASTPATH_MAX_LEVELS];
    long long used_arr[FASTPATH_MAX_LEVELS];
    long long placed_top, removed_top, ss_placed, ss_removed, ss_skips;
} KernelCtx;

/* Fields of one level record in TreeLayout.path_table. */
enum { PT_SHIFT, PT_Z, PT_R, PT_ROW_BASE, PT_ROWS, PT_FIRST, PT_FIELDS };

/* Validate the path table (``len`` items) against the tree and DRAM
 * geometry, so fill_triples can run unchecked: records are levels in
 * root-first order, each with the tree's Z for its level; every offset
 * index a leaf can reach lies inside the table; no row computation
 * overflows or goes negative, so every bank and channel lands inside
 * the bank-state lists.  Sets ``path_blocks``.  Returns 0, or -1 with
 * ValueError set.
 */
static int
check_path_table(KernelCtx *c, Py_ssize_t len)
{
    const long long *t = c->path_table;
    long long n_banks;
    if (c->row_blocks <= 0 || c->channels <= 0 ||
        c->banks_per_channel <= 0 ||
        __builtin_mul_overflow(c->channels, c->banks_per_channel,
                               &n_banks) ||
        n_banks != (long long)PyList_GET_SIZE(c->bank_ready) ||
        n_banks != (long long)PyList_GET_SIZE(c->bank_open_row) ||
        c->channels != (long long)PyList_GET_SIZE(c->bus_free)) {
        PyErr_SetString(PyExc_ValueError,
                        "DRAM geometry does not match the bank lists");
        return -1;
    }
    if (len < 1 || t[0] < 0 || t[0] > c->levels ||
        len < 1 + PT_FIELDS * t[0]) {
        PyErr_SetString(PyExc_ValueError, "malformed path table");
        return -1;
    }
    long long records_end = 1 + PT_FIELDS * t[0];
    long long last_level = -1;
    c->path_blocks = 0;
    for (long long i = 0; i < t[0]; i++) {
        const long long *rec = t + 1 + PT_FIELDS * i;
        long long shift = rec[PT_SHIFT], r = rec[PT_R], first = rec[PT_FIRST];
        long long level =
            shift >= 0 && shift < c->levels ? c->levels - 1 - shift : -1;
        if (level <= last_level || rec[PT_Z] != c->z_arr[level] ||
            r < 0 || r > 62 ||
            rec[PT_ROW_BASE] < 0 || rec[PT_ROWS] < 0 ||
            first < records_end || first >= len ||
            ((1LL << r) - 1) >= len - first) {
            PyErr_SetString(PyExc_ValueError, "path table level out of range");
            return -1;
        }
        last_level = level;
        c->path_blocks += rec[PT_Z];
        /* The deepest row any leaf reaches through this level. */
        long long max_offset = 0;
        for (long long j = 0; j < (1LL << r); j++) {
            long long offset = t[first + j];
            if (offset < 0 || offset > LLONG_MAX - rec[PT_Z]) {
                PyErr_SetString(PyExc_ValueError,
                                "path table offset out of range");
                return -1;
            }
            if (offset > max_offset)
                max_offset = offset;
        }
        long long row;
        if (__builtin_mul_overflow(
                ((c->leaves - 1) >> shift) >> r, rec[PT_ROWS],
                &row) ||
            __builtin_add_overflow(row, rec[PT_ROW_BASE], &row) ||
            __builtin_add_overflow(
                row, (max_offset + rec[PT_Z]) / c->row_blocks, &row)) {
            PyErr_SetString(PyExc_ValueError, "path table row overflows");
            return -1;
        }
    }
    return 0;
}

/* Release every buffer parse_ctx acquired; views it never filled hold
 * no object, and PyBuffer_Release skips them.
 */
static void
release_ctx(KernelCtx *c)
{
    PyBuffer_Release(&c->tree_buf);
    PyBuffer_Release(&c->leaf_buf);
    PyBuffer_Release(&c->path_buf);
    PyBuffer_Release(&c->set_buf);
}

/* Unpack and validate ``ctx`` into ``c``, and parse ``leaf_obj`` into
 * ``c->leaf`` unless it is NULL.  Returns 0 with the arrays held (pair
 * with release_ctx), or -1 with an exception set and nothing held.
 */
static int
parse_ctx(PyObject *ctx, PyObject *leaf_obj, KernelCtx *c)
{
    c->leaf_buf.obj = c->tree_buf.obj = c->path_buf.obj = NULL;
    c->set_buf.obj = NULL;
    if (!PyTuple_Check(ctx) || PyTuple_GET_SIZE(ctx) != 23) {
        PyErr_SetString(PyExc_ValueError, "kernel ctx must have 23 slots");
        return -1;
    }
#define CTX(i) PyTuple_GET_ITEM(ctx, i)
    c->randrange = CTX(0);
    c->leaves_obj = CTX(1);
    PyObject *path_table = CTX(2);
    c->entries = CTX(3);
    PyObject *leaf_table = CTX(4);
    PyObject *tree_slots = CTX(5);
    PyObject *z_list = CTX(6);
    c->level_used = CTX(7);
    c->bank_ready = CTX(11);
    c->bank_open_row = CTX(12);
    c->bus_free = CTX(13);
    PyObject *dram_params = CTX(14);
    c->resident = CTX(16);
    c->set_count = CTX(17);
    c->set_of = CTX(18);
    PyObject *set_index = CTX(19);
    c->getrandbits = CTX(21);
    c->leaves = PyLong_AsLongLong(c->leaves_obj);
    c->levels = PyLong_AsLongLong(CTX(8));
    c->top = PyLong_AsLongLong(CTX(9));
    c->empty = PyLong_AsLongLong(CTX(10));
    long long mode = PyLong_AsLongLong(CTX(15));
    c->ways = PyLong_AsLongLong(CTX(20));
    c->leaf_bits = PyLong_AsLongLong(CTX(22));
#undef CTX
    if (PyErr_Occurred())
        return -1;
    c->use_grb = c->getrandbits != Py_None && c->leaf_bits > 0;
    if (!PyDict_Check(c->entries) ||
        !PyList_Check(z_list) || !PyList_Check(c->level_used) ||
        !PyList_Check(c->bank_ready) || !PyList_Check(c->bank_open_row) ||
        !PyList_Check(c->bus_free) ||
        !PyTuple_Check(dram_params) || PyTuple_GET_SIZE(dram_params) != 8) {
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
#define PARAM(i) PyLong_AsLongLong(PyTuple_GET_ITEM(dram_params, i))
    c->dram.ratio = PARAM(0);
    c->dram.t_rp = PARAM(1);
    c->dram.t_rcd = PARAM(2);
    c->dram.t_burst = PARAM(3);
    c->dram.cas_burst = PARAM(4);
    c->row_blocks = PARAM(5);
    c->channels = PARAM(6);
    c->banks_per_channel = PARAM(7);
#undef PARAM
    if (PyErr_Occurred())
        return -1;
    if (c->dram.ratio <= 0) {
        PyErr_SetString(PyExc_ValueError, "DRAM clock ratio must be positive");
        return -1;
    }
    if (c->levels < 1 || c->levels >= FASTPATH_MAX_LEVELS ||
        PyList_GET_SIZE(z_list) < (Py_ssize_t)c->levels ||
        PyList_GET_SIZE(c->level_used) < (Py_ssize_t)c->levels) {
        PyErr_SetString(PyExc_ValueError, "unsupported level count");
        return -1;
    }
    if (c->leaves < 1 || c->leaves > (1LL << (c->levels - 1))) {
        PyErr_SetString(PyExc_ValueError, "leaf count does not fit the tree");
        return -1;
    }
    /* Level offsets, overflow-checked: z << d never exceeds what is left
     * below LLONG_MAX. */
    long long total = 0;
    for (long long d = 0; d < c->levels; d++) {
        long long z = PyLong_AsLongLong(PyList_GET_ITEM(z_list, d));
        if (z == -1 && PyErr_Occurred())
            return -1;
        if (z < 0 || z > (LLONG_MAX - total) >> d) {
            PyErr_SetString(PyExc_ValueError, "z per level out of range");
            return -1;
        }
        c->z_arr[d] = z;
        c->offset[d] = total;
        total += z << d;
        c->used_arr[d] = PyLong_AsLongLong(PyList_GET_ITEM(c->level_used, d));
    }
    if (PyErr_Occurred())
        return -1;
    if (leaf_obj != NULL) {
        c->leaf = PyLong_AsLongLong(leaf_obj);
        if (c->leaf == -1 && PyErr_Occurred())
            return -1;
        if (c->leaf < 0 || c->leaf >= c->leaves) {
            PyErr_SetString(PyExc_IndexError, "leaf out of range");
            return -1;
        }
    }
    c->placed_top = c->removed_top = 0;
    c->ss_placed = c->ss_removed = c->ss_skips = 0;

    Py_ssize_t path_len =
        get_q_buffer(path_table, &c->path_buf, "path_table");
    if (path_len < 0)
        goto fail;
    c->path_table = c->path_buf.buf;
    if (check_path_table(c, path_len) < 0)
        goto fail;
    c->leaf_count = get_q_buffer(leaf_table, &c->leaf_buf, "leaf_table");
    if (c->leaf_count < 0)
        goto fail;
    c->leaf_table = c->leaf_buf.buf;
    Py_ssize_t tree_len = get_q_buffer(tree_slots, &c->tree_buf, "tree_slots");
    if (tree_len < 0)
        goto fail;
    c->tree = c->tree_buf.buf;
    if (tree_len != total) {
        PyErr_SetString(PyExc_ValueError,
                        "tree_slots length does not match z per level");
        goto fail;
    }
    c->set_index = NULL;
    c->set_index_len = 0;
    if (c->gated) {
        c->set_index_len = get_q_buffer(set_index, &c->set_buf, "set_index");
        if (c->set_index_len < 0)
            goto fail;
        c->set_index = c->set_buf.buf;
    }
    return 0;

fail:
    release_ctx(c);
    return -1;
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

/* The first tree slot of the bucket on the path to ``leaf`` at ``level``. */
static inline long long *
path_bucket(const KernelCtx *c, long long leaf, long long level)
{
    return c->tree + c->offset[level] +
           (leaf >> (c->levels - 1 - level)) * c->z_arr[level];
}

/* entries[block] = leaf, from C integers. */
static int
stash_insert(PyObject *entries, long long block, long long leaf)
{
    PyObject *key = PyLong_FromLongLong(block);
    PyObject *value = key != NULL ? PyLong_FromLongLong(leaf) : NULL;
    int rc = value != NULL ? PyDict_SetItem(entries, key, value) : -1;
    Py_XDECREF(key);
    Py_XDECREF(value);
    return rc;
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

/* path_access's empty-stash array-mode buffer: blocks read off the path
 * bypass the stash dict and are kept here in read order, with their
 * leaves and path depths.  ``items`` has room for 4 * cap entries — the
 * upper three quarters are place_pools scratch.
 */
typedef struct {
    PoolItem *items;
    long long *leaf;
    long long *depth;
    unsigned char *placed;
    Py_ssize_t counts[FASTPATH_MAX_LEVELS];
    Py_ssize_t n, cap;
} ReadBuf;

/* The read phase of one path access, the one read loop behind
 * path_access: clear every real block off the path to ``leaf``, release
 * its tree-top entry when it sat in a cached level (S-Stash removal in
 * mode 1, a bare count in mode 0), and move it into the stash — the end
 * of the entries dict, or ``rb`` when it is non-NULL.  The level
 * ``served`` was read from goes to ``*served_level``.  Mirrors
 * ORAMTree.read_and_clear plus the per-block loop of
 * PathORAMController._service_path.  Returns 0, or -1 with an exception
 * set.
 */
static int
read_path_core(KernelCtx *c, long long leaf, ReadBuf *rb, long long served,
               long long *served_level)
{
    for (long long level = 0; level < c->levels; level++) {
        long long *slots = path_bucket(c, leaf, level);
        for (long long s = 0; s < c->z_arr[level]; s++) {
            long long value = slots[s];
            if (value == c->empty)
                continue;
            if (value < 0 || value >= c->leaf_count) {
                PyErr_SetString(PyExc_IndexError,
                                "block outside position map");
                return -1;
            }
            long long bleaf = c->leaf_table[value];
            if (bleaf == -1) {
                PyErr_SetString(PyExc_ValueError, "block has no mapping");
                return -1;
            }
            slots[s] = c->empty;
            c->used_arr[level]--;
            if (value == served)
                *served_level = level;
            if (level < c->top) {
                if (c->gated) {
                    PyObject *block = PyLong_FromLongLong(value);
                    int rc = block != NULL
                        ? sstash_remove(c->resident, c->set_count, block)
                        : -1;
                    Py_XDECREF(block);
                    if (rc < 0)
                        return -1;
                    c->ss_removed++;
                } else {
                    c->removed_top++;
                }
            }
            if (rb == NULL) {
                if (stash_insert(c->entries, value, bleaf) < 0)
                    return -1;
                continue;
            }
            long long depth = deepest_level(c->levels, leaf, bleaf);
            if (rb->n >= rb->cap || depth < 0) {
                PyErr_SetString(PyExc_RuntimeError, "path read overflow");
                return -1;
            }
            Py_ssize_t i = rb->n++;
            rb->items[i].block = NULL;
            rb->items[i].value = value;
            rb->items[i].idx = i;
            rb->leaf[i] = bleaf;
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
        PoolItem *item = &items[fill[depth]++];
        item->block = block;
        item->value = PyLong_AsLongLong(block);
        if (item->value == -1 && PyErr_Occurred())
            return -1;
    }
    return 0;
}

/* The one placement engine, behind path_access's dict and array modes:
 * greedy bottom-up placement onto the path to ``leaf`` of ``items``
 * already segmented by depth (counts/offsets, each segment in stash
 * order).  ``items`` must have capacity 3*total — the upper two thirds
 * are scratch for the pool stack and the per-level rejection list.
 *
 * In S-Stash mode, placements into the cached top levels consult the
 * set-associativity constraint (the set-index array, falling back to
 * ``set_of`` for a block not hashed yet; ``set_count``, ``ways``) and
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
place_pools(KernelCtx *c, long long leaf, PoolItem *items, Py_ssize_t total,
            const Py_ssize_t *counts, const Py_ssize_t *offsets,
            unsigned char *placed_out)
{
    PoolItem *stack = items + total;
    PoolItem *rejected = items + 2 * total;
    Py_ssize_t stack_size = 0;

    /* Greedy bottom-up placement, pool kept as a stack. */
    for (long long level = c->levels - 1; level >= 0; level--) {
        Py_ssize_t cnt = counts[level];
        if (cnt) {
            memcpy(stack + stack_size, items + offsets[level],
                   sizeof(PoolItem) * (size_t)cnt);
            stack_size += cnt;
        }
        long long z = c->z_arr[level];
        if (z == 0 || stack_size == 0)
            continue;
        long long *slots = path_bucket(c, leaf, level);
        int level_gated = c->gated && level < c->top;
        long long scan = 0;
        Py_ssize_t n_rej = 0;
        long long placed = 0;
        while (stack_size > 0 && placed < z) {
            PoolItem item = stack[--stack_size];
            /* gated only: the block as an object, and its S-Stash set */
            PyObject *block = NULL, *idx_obj = NULL;
            long long set_cnt = 0;
            if (level_gated) {
                block = item.block != NULL ? Py_NewRef(item.block)
                                           : PyLong_FromLongLong(item.value);
                if (block == NULL)
                    return -1;
                long long set = item.value >= 0 &&
                                item.value < c->set_index_len
                    ? c->set_index[item.value] : -1;
                if (set >= 0) {
                    idx_obj = PyLong_FromLongLong(set);
                } else {
                    /* Not hashed yet: set_of hashes the block and
                     * records its set in the set-index array. */
                    idx_obj = PyObject_CallOneArg(c->set_of, block);
                }
                if (idx_obj == NULL)
                    goto item_fail;
                PyObject *cnt_obj =
                    PyDict_GetItemWithError(c->set_count, idx_obj);
                if (cnt_obj == NULL && PyErr_Occurred())
                    goto item_fail;
                if (cnt_obj != NULL) {
                    set_cnt = PyLong_AsLongLong(cnt_obj);
                    if (set_cnt == -1 && PyErr_Occurred())
                        goto item_fail;
                }
                if (set_cnt >= c->ways) {
                    /* Set full: skip this block for this round. */
                    Py_DECREF(idx_obj);
                    Py_DECREF(block);
                    rejected[n_rej++] = item;
                    c->ss_skips++;
                    continue;
                }
            }
            /* first EMPTY slot (earlier ones were just filled) */
            while (scan < z && slots[scan] != c->empty)
                scan++;
            if (scan == z) {
                PyErr_SetString(PyExc_RuntimeError,
                                "bucket full during write phase");
                goto item_fail;
            }
            slots[scan++] = item.value;
            c->used_arr[level]++;
            placed++;
            if (level_gated) {
                PyObject *cnt_obj = PyLong_FromLongLong(set_cnt + 1);
                int rc = cnt_obj != NULL
                    ? PyDict_SetItem(c->set_count, idx_obj, cnt_obj)
                    : -1;
                Py_XDECREF(cnt_obj);
                if (rc < 0 ||
                    PyDict_SetItem(c->resident, block, idx_obj) < 0)
                    goto item_fail;
                Py_DECREF(idx_obj);
                Py_DECREF(block);
                c->ss_placed++;
            } else if (level < c->top) {
                c->placed_top++;
            }
            if (placed_out != NULL)
                placed_out[item.idx] = 1;
            else if (PyDict_DelItem(c->entries, item.block) < 0)
                return -1;
            continue;

        item_fail:
            Py_XDECREF(idx_obj);
            Py_XDECREF(block);
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
write_place_core(KernelCtx *c, long long leaf)
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
        rc = place_pools(c, leaf, items, total, counts, offsets, NULL);
    PyMem_Free(items);
    return rc;
}

/* The DRAM (bank, channel, row) triples of the path to ``leaf``, written
 * to ``out`` (room for 3 * path_blocks): TreeLayout.path_addresses
 * followed by DRAMModel.decompose_batch, computed from the path table.
 * Within a bucket the slots run on through consecutive columns, so the
 * row and its bank and channel only change at a row boundary.
 * check_path_table has bounded every index and row this reaches.
 */
static void
fill_triples(const KernelCtx *c, long long leaf, long long *out)
{
    const long long *t = c->path_table;
    for (long long i = 0; i < t[0]; i++) {
        const long long *rec = t + 1 + PT_FIELDS * i;
        long long position = leaf >> rec[PT_SHIFT];
        long long r = rec[PT_R];
        long long offset = t[rec[PT_FIRST] + (position & ((1LL << r) - 1))];
        long long row = rec[PT_ROW_BASE] + (position >> r) * rec[PT_ROWS] +
                        offset / c->row_blocks;
        long long column = offset % c->row_blocks;
        long long bank = 0, channel = 0, bank_row = -1;
        for (long long s = 0; s < rec[PT_Z]; s++) {
            if (row != bank_row) {
                channel = row % c->channels;
                bank = channel * c->banks_per_channel +
                       (row / c->channels) % c->banks_per_channel;
                bank_row = row;
            }
            *out++ = bank;
            *out++ = channel;
            *out++ = row;
            if (++column == c->row_blocks) {
                column = 0;
                row++;
            }
        }
    }
}

/* dram_triples(ctx, leaf) -> array('q') of [bank, channel, row, ...]
 *
 * The DRAM triples of the path to ``leaf`` through fill_triples, for
 * bursts issued apart from their access_path call (deferred writes, the
 * Python phases) to hand to dram_service.
 */
static PyObject *
dram_triples(PyObject *self, PyObject *args)
{
    PyObject *ctx, *leaf_obj;
    if (!PyArg_ParseTuple(args, "OO!", &ctx, &PyLong_Type, &leaf_obj))
        return NULL;
    KernelCtx c;
    if (parse_ctx(ctx, leaf_obj, &c) < 0)
        return NULL;
    PyObject *raw = PyBytes_FromStringAndSize(
        NULL, (Py_ssize_t)sizeof(long long) * 3 * c.path_blocks);
    if (raw != NULL)
        fill_triples(&c, c.leaf, (long long *)PyBytes_AS_STRING(raw));
    release_ctx(&c);
    if (raw == NULL)
        return NULL;
    PyObject *result = PyObject_CallFunction(array_type, "sO", "q", raw);
    Py_DECREF(raw);
    return result;
}

/* ---------------------------------------------------------------- */
/* One path access                                                   */
/* ---------------------------------------------------------------- */

/* What access_path does with the served block between the read and the
 * write phase. */
enum { SERVED_NONE, SERVED_REMAP, SERVED_EXTRACT };

/* One leaf draw, as ``randrange(leaves)``.  With the RNG's bound
 * ``getrandbits`` present, Random._randbelow_with_getrandbits inlined:
 * draw bit_length(leaves) bits, rejecting draws >= leaves, so the RNG
 * bit stream matches randrange(leaves) exactly while skipping the
 * interpreted wrapper.
 */
static int
draw_leaf(const KernelCtx *c, long long *leaf_out)
{
    long long leaf;
    do {
        PyObject *draw;
        if (c->use_grb) {
            PyObject *bits = PyLong_FromLongLong(c->leaf_bits);
            draw = bits != NULL ? PyObject_CallOneArg(c->getrandbits, bits)
                                : NULL;
            Py_XDECREF(bits);
        } else {
            draw = PyObject_CallOneArg(c->randrange, c->leaves_obj);
        }
        if (draw == NULL)
            return -1;
        leaf = PyLong_AsLongLong(draw);
        Py_DECREF(draw);
        if (leaf == -1 && PyErr_Occurred())
            return -1;
    } while (c->use_grb && leaf >= c->leaves);
    if (leaf < 0 || leaf >= c->leaves) {
        PyErr_SetString(PyExc_IndexError, "leaf out of range");
        return -1;
    }
    *leaf_out = leaf;
    return 0;
}

/* The served block's step after the read phase.  It must be in the
 * stash.  Remap: draw its new leaf, record it in the position map and
 * update its stash entry in place (PositionMap.remap plus
 * Stash.update_leaf).  Extract: drop it from the stash and unmap it
 * (Stash.remove plus PositionMap.discard).  Returns 0, or -1 with an
 * exception set; a block absent from the path and the stash is a
 * RuntimeError, which the controller raises as a ProtocolError.
 */
static int
served_step(KernelCtx *c, long long leaf, long long served, int mode)
{
    PyObject *key = PyLong_FromLongLong(served);
    if (key == NULL)
        return -1;
    int rc = PyDict_Contains(c->entries, key);
    if (rc == 0) {
        PyErr_Format(PyExc_RuntimeError,
                     "block %lld absent from path %lld and stash",
                     served, leaf);
        rc = -1;
    } else if (rc == 1 && mode == SERVED_EXTRACT) {
        rc = PyDict_DelItem(c->entries, key);
        if (rc == 0)
            c->leaf_table[served] = -1;  /* posmap.UNMAPPED */
    } else if (rc == 1) {
        long long new_leaf;
        rc = draw_leaf(c, &new_leaf);
        if (rc == 0) {
            c->leaf_table[served] = new_leaf;
            PyObject *value = PyLong_FromLongLong(new_leaf);
            rc = value != NULL ? PyDict_SetItem(c->entries, key, value) : -1;
            Py_XDECREF(value);
        }
    }
    Py_DECREF(key);
    return rc;
}

/* Array-mode placement: segment the blocks ``rb`` read off the path by
 * depth (each segment keeps read order), place them through the shared
 * engine, and let the rare survivors enter the stash dict in read order.
 */
static int
place_read_buf(KernelCtx *c, long long leaf, ReadBuf *rb)
{
    if (rb->n == 0)
        return 0;
    Py_ssize_t offsets[FASTPATH_MAX_LEVELS];
    Py_ssize_t fill[FASTPATH_MAX_LEVELS];
    offsets[0] = 0;
    for (long long d = 1; d < c->levels; d++)
        offsets[d] = offsets[d - 1] + rb->counts[d - 1];
    memcpy(fill, offsets, sizeof(Py_ssize_t) * (size_t)c->levels);
    PoolItem *seg = rb->items + rb->cap;
    for (Py_ssize_t i = 0; i < rb->n; i++)
        seg[fill[rb->depth[i]]++] = rb->items[i];
    memset(rb->placed, 0, (size_t)rb->n);
    if (place_pools(c, leaf, seg, rb->n, rb->counts, offsets,
                    rb->placed) < 0)
        return -1;
    for (Py_ssize_t i = 0; i < rb->n; i++) {
        if (!rb->placed[i] &&
            stash_insert(c->entries, rb->items[i].value, rb->leaf[i]) < 0)
            return -1;
    }
    return 0;
}

/* One path access's outputs.  The row hit and conflict counts add to
 * what the fields already hold, so run_batch sums them over a batch. */
typedef struct {
    long long finish_read, finish_write, served_level, occupancy;
    long long read_hits, read_conflicts, write_hits, write_conflicts;
} PathOut;

/* One whole path access over the live controller state, the one
 * per-path function behind access_path and run_batch's loop:
 *
 *   the read burst (fill_triples into ``triples``, then dram_run_arr at
 *   ``now``); the read phase (read_path_core); the served block's step
 *   (served_step, unless ``mode`` is SERVED_NONE); greedy bottom-up
 *   placement; and the write burst at the read phase's finish, unless
 *   ``write_burst`` is 0 (the caller then issues it later, and
 *   ``finish_write`` is the read phase's finish).
 *
 * The read phase bypasses the stash dict (``rb``'s array mode) when
 * ``rb`` is non-NULL, nothing is served and the stash is empty: blocks
 * read off the path are collected in read order, placed through the same
 * engine, and only the survivors enter the dict, in read order.  In dict
 * mode the same blocks would enter an empty dict in read order too, so
 * both modes see the same pools and leave the same stash.
 *
 * ``clock`` (NULL, or 4 accumulators) collects the nanoseconds of the
 * read burst, the read phase and served step, placement, and the write
 * burst.  Mirrors PathORAMController's Python phases.  Returns 0, or -1
 * with an exception set.
 */
static int
path_access(KernelCtx *c, BankState *banks, long long *triples, ReadBuf *rb,
            long long leaf, long long now, long long served, int mode,
            int write_burst, PathOut *out, unsigned long long *clock)
{
    const DramTiming *d = &c->dram;
    unsigned long long t0 = clock != NULL ? now_ns() : 0;
#define LAP(i)                                                          \
    if (clock != NULL) {                                                \
        unsigned long long t1 = now_ns();                               \
        clock[i] += t1 - t0;                                            \
        t0 = t1;                                                        \
    }
    long long finish;
    fill_triples(c, leaf, triples);
    dram_run_arr(triples, c->path_blocks, banks,
                 (now + d->ratio - 1) / d->ratio, d, &finish,
                 &out->read_hits, &out->read_conflicts);
    out->finish_read = out->finish_write = finish * d->ratio;
    LAP(0)

    ReadBuf *arr = NULL;
    if (rb != NULL && mode == SERVED_NONE &&
        PyDict_GET_SIZE(c->entries) == 0) {
        arr = rb;
        rb->n = 0;
        memset(rb->counts, 0, sizeof(Py_ssize_t) * (size_t)c->levels);
    }
    out->served_level = -1;
    if (read_path_core(c, leaf, arr, served, &out->served_level) < 0)
        return -1;
    out->occupancy = arr != NULL ? (long long)rb->n
                                 : (long long)PyDict_GET_SIZE(c->entries);
    if (mode != SERVED_NONE && served_step(c, leaf, served, mode) < 0)
        return -1;
    LAP(1)

    if ((arr != NULL ? place_read_buf(c, leaf, rb)
                     : write_place_core(c, leaf)) < 0)
        return -1;
    LAP(2)

    if (write_burst) {
        dram_run_arr(triples, c->path_blocks, banks,
                     (out->finish_read + d->ratio - 1) / d->ratio, d,
                     &finish, &out->write_hits, &out->write_conflicts);
        out->finish_write = finish * d->ratio;
    }
    LAP(3)
#undef LAP
    return 0;
}

/* access_path(ctx, leaf, now, served, mode, write_burst)
 *   -> (finish_read, finish_write, served_level, occupancy, blocks,
 *       (read_hits, read_conflicts), (write_hits, write_conflicts),
 *       (placed_top, removed_top, sstash_placed, sstash_removed,
 *        sstash_skips))
 *
 * One whole path access of the path to ``leaf`` issued at ``now``,
 * through path_access.  ``served`` is the block the access serves
 * (``mode`` SERVED_REMAP or SERVED_EXTRACT), or None for an eviction or
 * dummy path (SERVED_NONE).  ``occupancy`` is the stash occupancy right
 * after the read phase, ``blocks`` the memory blocks each burst moves.
 * The served block and the leaf are range-checked before anything is
 * touched.
 */
static PyObject *
access_path(PyObject *self, PyObject *args)
{
    PyObject *ctx, *leaf_obj, *served_obj;
    long long now;
    int mode, write_burst;
    if (!PyArg_ParseTuple(args, "OO!LOip", &ctx, &PyLong_Type, &leaf_obj,
                          &now, &served_obj, &mode, &write_burst))
        return NULL;
    KernelCtx c;
    if (parse_ctx(ctx, leaf_obj, &c) < 0)
        return NULL;
    BankState banks = {NULL, NULL, NULL, 0, 0};
    long long *triples = NULL;
    long long served = c.empty;
    PathOut out;
    memset(&out, 0, sizeof out);
    if (mode < SERVED_NONE || mode > SERVED_EXTRACT ||
        (mode == SERVED_NONE) != (served_obj == Py_None) || now < 0) {
        PyErr_SetString(PyExc_ValueError, "malformed access_path call");
        goto fail;
    }
    if (served_obj != Py_None) {
        served = PyLong_AsLongLong(served_obj);
        if (served == -1 && PyErr_Occurred())
            goto fail;
        if (served < 0 || served >= c.leaf_count) {
            PyErr_SetString(PyExc_IndexError,
                            "served block outside position map");
            goto fail;
        }
    }
    triples = PyMem_Malloc(sizeof(long long) * 3 * (size_t)c.path_blocks);
    if (triples == NULL) {
        PyErr_NoMemory();
        goto fail;
    }
    if (load_banks(&banks, c.bank_ready, c.bank_open_row, c.bus_free) < 0)
        goto fail;
    if (path_access(&c, &banks, triples, NULL, c.leaf, now, served, mode,
                    write_burst, &out, NULL) < 0 ||
        store_banks(&banks, c.bank_ready, c.bank_open_row, c.bus_free) < 0 ||
        store_used(&c) < 0)
        goto fail;
    free_banks(&banks);
    PyMem_Free(triples);
    release_ctx(&c);
    return Py_BuildValue(
        "LLLLL(LL)(LL)(LLLLL)", out.finish_read, out.finish_write,
        out.served_level, out.occupancy, c.path_blocks, out.read_hits,
        out.read_conflicts, out.write_hits, out.write_conflicts,
        c.placed_top, c.removed_top, c.ss_placed, c.ss_removed, c.ss_skips);

fail:
    free_banks(&banks);
    PyMem_Free(triples);
    release_ctx(&c);
    return NULL;
}

/* ---------------------------------------------------------------- */
/* Whole-run batch stepping                                          */
/* ---------------------------------------------------------------- */

/* run_batch(ctx, now, interval, max_paths, horizon, stop_threshold,
 *           trigger_threshold, want_bounds, collect_timing)
 *   -> (n, now, max_occupancy, bounds | None, agg, timings | None)
 *
 * Execute up to ``max_paths`` whole dummy-path accesses — an RNG leaf
 * draw (draw_leaf) and path_access — without returning to the
 * interpreter between paths.  Each iteration is bit-identical to
 * PathORAMController.dummy_path followed by ``now = max(now + interval,
 * finish_write)``.  The batch stops early at ``horizon`` (next real work
 * item, -1 = none), or as soon as the stash is over ``stop_threshold``
 * (-1 = never), so every slot-boundary decision the per-access loop
 * would have made stays identical.  Stash occupancy is compared against
 * ``trigger_threshold`` after every write phase to accumulate
 * eviction-trigger counts.
 *
 * ``agg`` is (blocks, row_hits, row_conflicts, eviction_triggers,
 * (placed_top, removed_top, sstash_placed, sstash_removed,
 * sstash_skips)), the hook counts shaped as access_path returns them;
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
    if (parse_ctx(ctx, NULL, &c) < 0)
        return NULL;
    PyObject *bounds = NULL;
    BankState banks = {NULL, NULL, NULL, 0, 0};
    long long *triples = NULL;
    ReadBuf rb;
    memset(&rb, 0, sizeof rb);
    if (max_paths < 0 || now < 0) {
        PyErr_SetString(PyExc_ValueError, "unsupported run_batch geometry");
        goto fail;
    }

    triples = PyMem_Malloc(sizeof(long long) * 3 * (size_t)c.path_blocks);
    if (triples == NULL) {
        PyErr_NoMemory();
        goto fail;
    }
    /* Hoist bank state into C arrays; written back only on success.
     * Nothing the kernel calls back into (the RNG, S-Stash ``set_of``)
     * reads the bank lists or level occupancy mid-batch.
     */
    if (load_banks(&banks, c.bank_ready, c.bank_open_row, c.bus_free) < 0)
        goto fail;
    if (want_bounds && (bounds = PyList_New(0)) == NULL)
        goto fail;

    /* The array-mode buffer path_access reads into when a path begins
     * with an empty stash, the steady state for dummy-path batches. */
    long long max_slots = 0;
    for (long long d = 0; d < c.levels; d++)
        max_slots += c.z_arr[d];
    if (max_slots > 0) {
        size_t bytes = (sizeof(PoolItem) * 4 + sizeof(long long) * 2 + 1) *
                       (size_t)max_slots;
        rb.items = PyMem_Malloc(bytes);
        if (rb.items == NULL) {
            PyErr_NoMemory();
            goto fail;
        }
        rb.leaf = (long long *)(rb.items + 4 * max_slots);
        rb.depth = rb.leaf + max_slots;
        rb.placed = (unsigned char *)(rb.depth + max_slots);
        rb.cap = max_slots;
    }

    long long n = 0;
    long long max_occ = 0;
    long long ev_triggers = 0;
    PathOut out;
    memset(&out, 0, sizeof out);
    unsigned long long t_rng = 0;
    unsigned long long clock[4] = {0, 0, 0, 0};

    while (n < max_paths) {
        if (horizon >= 0 && now >= horizon)
            break;
        if (stop_threshold >= 0 &&
            (long long)PyDict_GET_SIZE(c.entries) > stop_threshold)
            break;
        unsigned long long t0 = collect_timing ? now_ns() : 0;
        long long leaf;
        if (draw_leaf(&c, &leaf) < 0)
            goto fail;
        if (collect_timing)
            t_rng += now_ns() - t0;
        if (path_access(&c, &banks, triples, rb.items != NULL ? &rb : NULL,
                        leaf, now, c.empty, SERVED_NONE, 1, &out,
                        collect_timing ? clock : NULL) < 0)
            goto fail;
        if (out.occupancy > max_occ)
            max_occ = out.occupancy;
        if ((long long)PyDict_GET_SIZE(c.entries) > trigger_threshold)
            ev_triggers++;
        if (want_bounds) {
            long long triple[3] = {now, out.finish_read, out.finish_write};
            for (int b = 0; b < 3; b++) {
                PyObject *value = PyLong_FromLongLong(triple[b]);
                if (value == NULL || PyList_Append(bounds, value) < 0) {
                    Py_XDECREF(value);
                    goto fail;
                }
                Py_DECREF(value);
            }
        }
        long long next_now = now + interval;
        now = out.finish_write > next_now ? out.finish_write : next_now;
        n++;
    }

    /* Write the bank state and level occupancy back to the model's
     * lists. */
    if (store_banks(&banks, c.bank_ready, c.bank_open_row, c.bus_free) < 0)
        goto fail;
    if (store_used(&c) < 0)
        goto fail;
    free_banks(&banks);
    PyMem_Free(triples);
    PyMem_Free(rb.items);
    release_ctx(&c);
    if (bounds == NULL)
        bounds = Py_NewRef(Py_None);
    PyObject *timings = collect_timing
        ? Py_BuildValue("(KKKKK)", t_rng, clock[0], clock[1], clock[2],
                        clock[3])
        : Py_NewRef(Py_None);
    if (timings == NULL) {
        Py_DECREF(bounds);
        return NULL;
    }
    return Py_BuildValue(
        "(LLLN(LLLL(LLLLL))N)", n, now, max_occ, bounds,
        n * c.path_blocks, out.read_hits + out.write_hits,
        out.read_conflicts + out.write_conflicts, ev_triggers,
        c.placed_top, c.removed_top, c.ss_placed, c.ss_removed, c.ss_skips,
        timings);

fail:
    free_banks(&banks);
    PyMem_Free(triples);
    PyMem_Free(rb.items);
    Py_XDECREF(bounds);
    release_ctx(&c);
    return NULL;
}

static PyMethodDef fastpath_methods[] = {
    {"dram_service", dram_service, METH_VARARGS,
     "Batch DRAM timing over an array('q') of (bank, channel, row) triples."},
    {"dram_triples", dram_triples, METH_VARARGS,
     "DRAM (bank, channel, row) triples of one path, as an array('q')."},
    {"access_path", access_path, METH_VARARGS,
     "One whole path access: read, served-block step, placement, bursts."},
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
    PyObject *array_module = PyImport_ImportModule("array");
    if (array_module == NULL)
        return NULL;
    Py_XSETREF(array_type, PyObject_GetAttrString(array_module, "array"));
    Py_DECREF(array_module);
    if (array_type == NULL)
        return NULL;
    return PyModule_Create(&fastpath_module);
}
