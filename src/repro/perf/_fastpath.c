/* Optional C hot-path kernels for the repro simulator.
 *
 * Compiled on demand by repro.perf.native with the system C compiler and
 * loaded as the extension module `_repro_fastpath`.  Every function here
 * mirrors a pure-Python implementation bit for bit — the Python versions
 * stay in the tree as both fallback and behavioural oracle, and the
 * equivalence tests compare whole simulations across the two.
 *
 * The kernels operate directly on the simulator's live Python objects, so
 * there is a single source of truth for all state and no C-side copy of
 * it.  A KernelState, built once per controller, holds the controller's
 * array('q') state through the buffer protocol and references to the
 * dicts, sets and objects the kernels mutate or call; everything it holds
 * is validated once, when it is built.  A FrontEnd, built once per
 * simulation, holds the processor's, the LLC's and the in-flight table's
 * arrays the same way, for the slot drain.
 *
 * The one exception is counting: the kernels count into the state's
 * per-call books (Books) and apply them to the counters and engine
 * dicts, the hit-level histogram and posmap.remap_count on every exit of
 * an entry, an error included (flush_on_exit).  So those Python objects
 * are current whenever a kernel call has returned, and no Python object
 * is built per counted event.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <math.h>
#include <stdint.h>
#include <string.h>

/* array.array, imported at module init: dram_triples, draw_leaves and
 * benchmark_records return one. */
static PyObject *array_type;

/* Marker of an empty tree slot (tree.EMPTY) and of an unmapped block's
 * leaf (posmap.UNMAPPED). */
#define EMPTY -1
#define UNMAPPED -1

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

/* The DRAM model's bank state, its three array('q') buffers: ``ready``
 * and ``open_row`` (-1 = closed) per flat bank, ``bus_free`` per
 * channel.
 */
typedef struct {
    long long *ready, *open_row, *bus_free;
    Py_ssize_t n_banks, n_channels;
} BankState;

/* DRAMModel._service_py over the bank state, the one DRAM timing loop:
 * ``triples`` holds ``n3`` (bank, channel, row) groups whose bank/channel
 * indices the caller has range-checked.  Row hit/conflict counts
 * accumulate into the caller's running totals.
 */
static void
dram_run_arr(const long long *triples, Py_ssize_t n3, const BankState *b,
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
 * arrays, updated in place.  Every bank and channel is range-checked
 * before the timing loop runs.  Mirrors DRAMModel._service_py.
 */
static PyObject *
dram_service(PyObject *self, PyObject *args)
{
    static const char *names[4] = {"triples", "ready", "open_row",
                                   "bus_free"};
    PyObject *objs[4];
    DramTiming cfg = {1, 0, 0, 0, 0};
    long long now_dram;
    if (!PyArg_ParseTuple(
            args, "OOOOLLLLL", &objs[0], &objs[1], &objs[2], &objs[3],
            &now_dram, &cfg.t_rp, &cfg.t_rcd, &cfg.t_burst, &cfg.cas_burst))
        return NULL;
    Py_buffer views[4];
    Py_ssize_t len[4];
    int held = 0;
    PyObject *result = NULL;
    for (; held < 4; held++) {
        len[held] = get_q_buffer(objs[held], &views[held], names[held]);
        if (len[held] < 0)
            goto done;
    }
    const long long *arr = views[0].buf;
    BankState b = {views[1].buf, views[2].buf, views[3].buf, len[1], len[3]};
    if (len[0] % 3 != 0 || len[2] != len[1]) {
        PyErr_SetString(PyExc_ValueError, "malformed dram_service call");
        goto done;
    }
    for (Py_ssize_t i = 0; i < len[0]; i += 3) {
        if (arr[i] < 0 || arr[i] >= b.n_banks ||
            arr[i + 1] < 0 || arr[i + 1] >= b.n_channels) {
            PyErr_SetString(PyExc_IndexError, "bank/channel out of range");
            goto done;
        }
    }
    long long finish, row_hits = 0, conflicts = 0;
    dram_run_arr(arr, len[0] / 3, &b, now_dram, &cfg, &finish, &row_hits,
                 &conflicts);
    result = Py_BuildValue("LLL", finish, row_hits, conflicts);
done:
    while (held-- > 0)
        PyBuffer_Release(&views[held]);
    return result;
}

/* ---------------------------------------------------------------- */
/* Tree geometry and RNG draws                                       */
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

#define FASTPATH_MAX_LEVELS 64

/* Per-level slot offsets of a tree whose level-d buckets hold
 * ``z_items[d]`` slots each, laid out level by level (ORAMTree.offset),
 * overflow-checked: z << d never exceeds what is left below LLONG_MAX.
 * Returns the total slot count, or -1 with an exception set.
 */
static long long
level_offsets(PyObject **z_items, long long levels, long long *z_arr,
              long long *offset)
{
    long long total = 0;
    for (long long d = 0; d < levels; d++) {
        long long z = PyLong_AsLongLong(z_items[d]);
        if (z == -1 && PyErr_Occurred())
            return -1;
        if (z < 0 || z > (LLONG_MAX - total) >> d) {
            PyErr_SetString(PyExc_ValueError, "z per level out of range");
            return -1;
        }
        z_arr[d] = z;
        offset[d] = total;
        total += z << d;
    }
    return total;
}

/* MT19937 exactly as CPython's _random module runs it (genrand_uint32):
 * the 624-word state and the index of its next word. */
#define MT_N 624
#define MT_M 397

typedef struct {
    uint32_t mt[MT_N];
    int index;
} Mt;

/* Regenerate all 624 words at once, as genrand_uint32 does when the
 * index runs past the state. */
static void
mt_twist(Mt *m)
{
    static const uint32_t mag01[2] = {0x0U, 0x9908b0dfU};
    uint32_t *mt = m->mt, y;
    int kk;
    for (kk = 0; kk < MT_N - MT_M; kk++) {
        y = (mt[kk] & 0x80000000U) | (mt[kk + 1] & 0x7fffffffU);
        mt[kk] = mt[kk + MT_M] ^ (y >> 1) ^ mag01[y & 0x1U];
    }
    for (; kk < MT_N - 1; kk++) {
        y = (mt[kk] & 0x80000000U) | (mt[kk + 1] & 0x7fffffffU);
        mt[kk] = mt[kk + (MT_M - MT_N)] ^ (y >> 1) ^ mag01[y & 0x1U];
    }
    y = (mt[MT_N - 1] & 0x80000000U) | (mt[0] & 0x7fffffffU);
    mt[MT_N - 1] = mt[MT_M - 1] ^ (y >> 1) ^ mag01[y & 0x1U];
    m->index = 0;
}

/* genrand_uint32: the next tempered 32-bit word. */
static inline uint32_t
mt_next(Mt *m)
{
    if (m->index >= MT_N)
        mt_twist(m);
    uint32_t y = m->mt[m->index++];
    y ^= (y >> 11);
    y ^= (y << 7) & 0x9d2c5680U;
    y ^= (y << 15) & 0xefc60000U;
    y ^= (y >> 18);
    return y;
}

/* Random.getrandbits(k) for 0 <= k <= 64: one word shifted right for
 * k <= 32; past that the words fill the integer least significant first,
 * and the last, most significant one keeps its top k - 32 bits. */
static inline uint64_t
mt_bits(Mt *m, long long k)
{
    if (k == 0)
        return 0;
    if (k <= 32)
        return mt_next(m) >> (32 - k);
    uint64_t low = mt_next(m);
    uint64_t high = mt_next(m) >> (64 - k);
    return low | high << 32;
}

/* Random.random() (genrand_res53): 53 bits from two words. */
static inline double
mt_unit(Mt *m)
{
    uint32_t a = mt_next(m) >> 5, b = mt_next(m) >> 6;
    return (a * 67108864.0 + b) * (1.0 / 9007199254740992.0);
}

/* random.Random, imported at module init: the one RNG type the setup
 * entries mirror. */
static PyObject *random_type;

/* A setup entry's or a KernelState's RNG draws.  Setup entries open them
 * over the RNG object (draws_open): a plain random.Random runs on the
 * mirror, its state loaded into ``mt`` and written back when the entry
 * returns (draws_close); any other RNG draws through its bound
 * ``getrandbits`` and ``random``, caching the PyLong bit width of the
 * last getrandbits call.  A KernelState holds the callback form only,
 * with ``getrandbits`` set at construction. */
typedef struct {
    PyObject *getrandbits, *random;
    PyObject *bits;
    long long k;
    Mt *mt;                /* the live state on the mirror, else NULL */
    PyObject *rng, *version, *gauss_next;  /* the mirror's write-back */
    int drawn;             /* the mirror consumed a word */
} Draws;

/* Whether ``rng`` runs on the mirror: exactly random.Random, with
 * nothing set on the instance but ``gauss_next``, so no method of it is
 * overridden.  Returns 1 or 0, or -1 with an exception set. */
static int
plain_random(PyObject *rng)
{
    if (Py_TYPE(rng) != (PyTypeObject *)random_type)
        return 0;
    PyObject *dict = PyObject_GenericGetDict(rng, NULL);
    if (dict == NULL)
        return -1;
    PyObject *key, *value;
    Py_ssize_t pos = 0;
    int plain = 1;
    while (plain && PyDict_Next(dict, &pos, &key, &value))
        plain = PyUnicode_Check(key) &&
                PyUnicode_CompareWithASCIIString(key, "gauss_next") == 0;
    Py_DECREF(dict);
    return plain;
}

/* Load a plain random.Random's getstate() -- (version, the 624 words and
 * the index, gauss_next) -- into ``mt``.  Returns 0, or -1 with an
 * exception set. */
static int
mt_load(Draws *r, PyObject *rng, Mt *mt)
{
    PyObject *state = PyObject_CallMethod(rng, "getstate", NULL);
    if (state == NULL)
        return -1;
    PyObject *version, *words, *gauss_next;
    int ok = PyTuple_Check(state) &&
             PyArg_ParseTuple(state, "OO!O", &version, &PyTuple_Type, &words,
                              &gauss_next) &&
             PyTuple_GET_SIZE(words) == MT_N + 1;
    for (Py_ssize_t i = 0; ok && i <= MT_N; i++) {
        unsigned long word = PyLong_AsUnsignedLong(PyTuple_GET_ITEM(words, i));
        ok = !(word == (unsigned long)-1 && PyErr_Occurred()) &&
             word <= (i < MT_N ? 0xffffffffUL : MT_N);
        if (i < MT_N)
            mt->mt[i] = (uint32_t)word;
        else
            mt->index = (int)word;
    }
    if (!ok) {
        PyErr_Clear();
        PyErr_SetString(PyExc_ValueError, "unexpected random.Random state");
        Py_DECREF(state);
        return -1;
    }
    r->version = Py_NewRef(version);
    r->gauss_next = Py_NewRef(gauss_next);
    r->rng = rng;
    r->mt = mt;
    Py_DECREF(state);
    return 0;
}

/* Write the mirror's state back with rng.setstate((version, words,
 * gauss_next)).  An exception already set survives it.  Returns 0, or
 * -1 with an exception set. */
static int
mt_store(Draws *r)
{
    PyObject *type, *value, *trace;
    PyErr_Fetch(&type, &value, &trace);
    PyObject *words = PyTuple_New(MT_N + 1);
    for (Py_ssize_t i = 0; words != NULL && i <= MT_N; i++) {
        PyObject *word = PyLong_FromUnsignedLong(
            i < MT_N ? r->mt->mt[i] : (unsigned long)r->mt->index);
        if (word == NULL)
            Py_CLEAR(words);
        else
            PyTuple_SET_ITEM(words, i, word);
    }
    PyObject *done = words == NULL ? NULL
        : PyObject_CallMethod(r->rng, "setstate", "((OOO))", r->version,
                              words, r->gauss_next);
    Py_XDECREF(words);
    Py_XDECREF(done);
    if (type != NULL) {
        PyErr_Restore(type, value, trace);
        return -1;
    }
    return done == NULL ? -1 : 0;
}

/* Open a setup entry's draws over ``rng``, on the mirror (state in
 * ``mt``) when it is a plain random.Random, else over its bound
 * ``getrandbits`` and, when ``units`` is set, ``random``.  Returns 0, or
 * -1 with an exception set and nothing held. */
static int
draws_open(Draws *r, PyObject *rng, Mt *mt, int units)
{
    memset(r, 0, sizeof(*r));
    r->k = -1;
    int plain = plain_random(rng);
    if (plain != 0)
        return plain < 0 ? -1 : mt_load(r, rng, mt);
    r->getrandbits = PyObject_GetAttrString(rng, "getrandbits");
    if (r->getrandbits == NULL)
        return -1;
    if (units) {
        r->random = PyObject_GetAttrString(rng, "random");
        if (r->random == NULL) {
            Py_CLEAR(r->getrandbits);
            return -1;
        }
    }
    return 0;
}

/* Close a setup entry's draws: write the mirror's state back once a word
 * was drawn, on every exit, and drop what the draws hold.  Returns 0, or
 * -1 with an exception set (one already set stays set). */
static int
draws_close(Draws *r)
{
    int rc = r->mt != NULL && r->drawn ? mt_store(r) : 0;
    Py_CLEAR(r->getrandbits);
    Py_CLEAR(r->random);
    Py_CLEAR(r->bits);
    Py_CLEAR(r->version);
    Py_CLEAR(r->gauss_next);
    r->mt = NULL;
    return rc;
}

/* getrandbits(k) through the RNG's bound method, as an unsigned integer
 * of at most 64 bits.  Returns 0, or -1 with an exception set. */
static int
call_bits(Draws *r, long long k, uint64_t *out)
{
    if (k != r->k) {
        Py_XSETREF(r->bits, PyLong_FromLongLong(k));
        r->k = r->bits != NULL ? k : -1;
        if (r->bits == NULL)
            return -1;
    }
    PyObject *draw = PyObject_CallOneArg(r->getrandbits, r->bits);
    if (draw == NULL)
        return -1;
    if (k == 64) {
        *out = PyLong_AsUnsignedLongLong(draw);
        Py_DECREF(draw);
        return *out == (uint64_t)-1 && PyErr_Occurred() ? -1 : 0;
    }
    long long value = PyLong_AsLongLong(draw);
    Py_DECREF(draw);
    if (value == -1 && PyErr_Occurred())
        return -1;
    if (value < 0) {
        PyErr_SetString(PyExc_ValueError, "getrandbits returned a negative");
        return -1;
    }
    *out = (uint64_t)value;
    return 0;
}

/* getrandbits(k) for 0 <= k <= 64, on the mirror or through the bound
 * method.  Returns 0, or -1 with an exception set. */
static inline int
draw_bits(Draws *r, long long k, uint64_t *out)
{
    if (r->mt == NULL)
        return call_bits(r, k, out);
    r->drawn = 1;
    *out = mt_bits(r->mt, k);
    return 0;
}

/* Random._randbelow_with_getrandbits inlined, the one integer draw of
 * every kernel: a uniform integer in [0, n) for n >= 1, drawn as
 * getrandbits(n.bit_length()) with draws >= n rejected, so the RNG
 * consumes exactly the bits randrange(n) and Random.shuffle consume.
 * Returns 0, or -1 with an exception set.
 */
static int
randbelow(Draws *r, long long n, long long *out)
{
    long long k = bit_length((unsigned long long)n);
    uint64_t value;
    do {
        if (draw_bits(r, k, &value) < 0)
            return -1;
    } while (value >= (uint64_t)n);
    *out = (long long)value;
    return 0;
}

/* random(), on the mirror or through the RNG's bound ``random``.
 * Returns 0, or -1 with an exception set. */
static int
draw_unit(Draws *r, double *out)
{
    if (r->mt != NULL) {
        r->drawn = 1;
        *out = mt_unit(r->mt);
        return 0;
    }
    PyObject *draw = PyObject_CallNoArgs(r->random);
    if (draw == NULL)
        return -1;
    double u = PyFloat_AsDouble(draw);
    Py_DECREF(draw);
    if (u == -1.0 && PyErr_Occurred())
        return -1;
    *out = u;
    return 0;
}

/* ---------------------------------------------------------------- */
/* Flat true-LRU caches: the PLB and the LLC                         */
/* ---------------------------------------------------------------- */

/* A cache in cache/flat.py's layout: ``sets * ways`` block slots, set by
 * set, each set's ``fills[set]`` resident blocks first, least recently
 * used first; a dirty flag per slot.  ``sets`` is a power of two. */
typedef struct {
    long long *blocks, *dirty, *fills;
    long long sets, ways;
} LruCache;

/* Check a cache's geometry against its three arrays' lengths.  Returns
 * 0, or -1 with ValueError set. */
static int
lru_check(const LruCache *lc, Py_ssize_t n_blocks, Py_ssize_t n_dirty,
          const char *what)
{
    if (lc->sets < 1 || (lc->sets & (lc->sets - 1)) || lc->ways < 1 ||
        lc->ways > PY_SSIZE_T_MAX / lc->sets ||
        n_blocks != lc->sets * lc->ways || n_dirty != n_blocks) {
        PyErr_Format(PyExc_ValueError, "%s buffers do not match its geometry",
                     what);
        return -1;
    }
    return 0;
}

/* FlatLRUCache._slot: the slot holding ``block``, -1 when it is not
 * resident, or -2 with ValueError set when its set's fill count is out
 * of range. */
static Py_ssize_t
lru_slot(const LruCache *lc, long long block)
{
    long long set = block & (lc->sets - 1);
    long long fill = lc->fills[set];
    if (fill < 0 || fill > lc->ways) {
        PyErr_SetString(PyExc_ValueError, "cache fill count out of range");
        return -2;
    }
    Py_ssize_t base = (Py_ssize_t)(set * lc->ways);
    for (Py_ssize_t slot = base; slot < base + fill; slot++) {
        if (lc->blocks[slot] == block)
            return slot;
    }
    return -1;
}

/* FlatLRUCache._touch: move the block in ``slot`` (or, when it is its
 * full set's LRU slot, the new ``block`` replacing it) to the set's most
 * recently used end with dirty flag ``dirty``. */
static void
lru_touch(LruCache *lc, long long block, Py_ssize_t slot, long long dirty)
{
    long long set = block & (lc->sets - 1);
    Py_ssize_t last = (Py_ssize_t)(set * lc->ways + lc->fills[set] - 1);
    size_t bytes = sizeof(long long) * (size_t)(last - slot);
    memmove(&lc->blocks[slot], &lc->blocks[slot + 1], bytes);
    memmove(&lc->dirty[slot], &lc->dirty[slot + 1], bytes);
    lc->blocks[last] = block;
    lc->dirty[last] = dirty;
}

/* FlatLRUCache._fill for a block lru_slot found absent: it becomes its
 * set's MRU line.  A full set evicts its LRU line into ``*victim`` and
 * ``*victim_dirty`` and returns 1; else returns 0. */
static int
lru_fill(LruCache *lc, long long block, long long dirty, long long *victim,
         long long *victim_dirty)
{
    long long set = block & (lc->sets - 1);
    Py_ssize_t base = (Py_ssize_t)(set * lc->ways);
    long long fill = lc->fills[set];
    if (fill < lc->ways) {
        lc->blocks[base + fill] = block;
        lc->dirty[base + fill] = dirty;
        lc->fills[set] = fill + 1;
        return 0;
    }
    *victim = lc->blocks[base];
    *victim_dirty = lc->dirty[base];
    lru_touch(lc, block, base, dirty);
    return 1;
}

/* ---------------------------------------------------------------- */
/* The kernel state                                                  */
/* ---------------------------------------------------------------- */

/* Pool entry of the placement engine: a stash block, in stash order,
 * and its entry's index in the slab. */
typedef struct {
    Py_ssize_t at;
    long long value;
} PoolItem;

/* The stash slab (oram/stash.py): USED entries in use, LIVE of them live,
 * the PEAK occupancy, then a block region and a leaf region of ``slots``
 * items each, in insertion order.  A removed entry's block is TOMBSTONE.
 */
enum { SLAB_USED, SLAB_LIVE, SLAB_PEAK, SLAB_HEADER };
#define TOMBSTONE -1

/* The keys of a state's ``counter_keys`` tuple, in order
 * (native.counter_keys): every stats counter, the ``hit.level`` histogram
 * and the ``engine.*`` tier and batch counts the kernels book, then one
 * ``paths.<type>`` key per path type and one ``mem.blocks.<type>`` key
 * per path type.  The PLB's cache-level dirty-eviction count and
 * fetch_posmap_block's own count share one key.
 */
enum CounterKey {
    /* translation */
    K_PLB_HITS, K_PLB_EVICTIONS, K_PLB_DIRTY_EVICTIONS,
    K_STASH_PROMOTIONS, K_TREETOP_PROMOTIONS, K_PROBE_HITS,
    K_PROBE_MISSES, K_SSTASH_REMOVED, K_REINSERTS, K_DEFERRED_REINSERTS,
    /* one path access */
    K_PATHS_TOTAL, K_BLOCKS_READ, K_BLOCKS_WRITTEN,
    K_DRAM_ACCESSES, K_DRAM_READS, K_DRAM_WRITES, K_DRAM_ROW_HITS,
    K_DRAM_ROW_CONFLICTS,
    K_TREETOP_PLACED, K_TREETOP_REMOVED, K_SSTASH_PLACED, K_SSTASH_SKIPS,
    K_EVICTION_TRIGGERS,
    /* serving a request */
    K_SERVE_STASH_HITS, K_SERVE_SSTASH_HITS, K_SERVE_TREETOP_HITS,
    K_SERVE_REINSERTS, K_TRANSLATIONS, K_MISS_FETCHES, K_POSMAP_ACCESSES,
    K_WRITEBACK_PATHS,
    /* a slot's priority paths */
    K_POSMAP_WRITEBACK_PATHS, K_EVICTION_PATHS, K_EVICTION_CYCLES,
    K_EVICTION_STORM_YIELDS,
    /* the front end: processor, LLC and hierarchy (every amount booked
     * is positive, so a key is created only when its count is nonzero,
     * as the Python front end's Stats.inc creates it) */
    K_CPU_STALL_CYCLES, K_CPU_READS_ISSUED, K_CPU_WRITES_ISSUED,
    K_CPU_BLOCK_EVENTS, K_LLC_HITS, K_LLC_MISSES, K_LLC_EVICTIONS,
    K_LLC_DIRTY_EVICTIONS, K_DEMAND_MISSES, K_REQUESTS_READ,
    K_REQUESTS_WRITEBACK, K_REQUESTS_REINSERT,
    /* the stats histogram keyed by where a read was served */
    K_HIT_LEVEL,
    /* the controller's batch_counters (ints) */
    K_KERNEL_PATHS, K_BATCH_CALLS, K_BATCH_PATHS,
    K_COUNT
};

/* What the kernels book a path of the first five path types in a
 * state's ``path_types`` as. */
enum { PT_DATA, PT_POS1, PT_POS2, PT_DUMMY, PT_EVICTION, PT_ROLES };
#define MAX_PATH_TYPES 16

/* The slots of a state's books: counter key ``k`` of ``counter_keys``
 * (the K_HIT_LEVEL slot itself unused; the ``engine.*`` ones go to
 * batch_counters), then one hit-level bucket per tree level, the
 * ``"stash"`` and ``"sstash"`` buckets, and posmap.remap_count. */
enum {
    B_HIT = K_COUNT + 2 * MAX_PATH_TYPES,
    B_HIT_STASH = B_HIT + FASTPATH_MAX_LEVELS,
    B_HIT_SSTASH,
    B_REMAP,
    N_BOOKS
};

/* What one kernel call has counted and not yet applied to the Python
 * objects: a pending amount per slot, and the slots touched so far in
 * the order of their first touch, which is the order flush_books
 * creates missing keys in. */
typedef struct {
    long long amount[N_BOOKS];
    unsigned char touched[N_BOOKS];
    short order[N_BOOKS];
    int n;
} Books;

/* A request's kind, by its place in the state's ``request_kinds``. */
enum { KIND_READ, KIND_WRITEBACK, KIND_REINSERT, N_KINDS };

/* The array('q') buffers a KernelState holds, in constructor order. */
enum {
    BUF_TREE,        /* every tree slot, level by level (ORAMTree._slots) */
    BUF_USED,        /* real blocks per level (ORAMTree.level_used) */
    BUF_LEAF,        /* position-map leaves by block */
    BUF_PATH,        /* TreeLayout.path_table */
    BUF_READY, BUF_OPEN_ROW, BUF_BUS_FREE,  /* DRAMModel's bank state */
    BUF_PLB_BLOCKS,  /* the PLB's block ids, set by set, LRU first */
    BUF_PLB_DIRTY,   /* one dirty flag per PLB slot */
    BUF_PLB_FILLS,   /* resident blocks per PLB set */
    BUF_PATH_COUNT,  /* the controller's path count, one item */
    BUF_SET_INDEX,   /* S-Stash entry by block (see SS_RESIDENT) and */
    BUF_SET_COUNT,   /* resident blocks per S-Stash set; both held in
                      * tree-top mode 1 only */
    N_BUFS
};

/* An S-Stash set-index entry is -1 until its block is first hashed, then
 * the block's set, plus SS_RESIDENT while the block is resident
 * (ir_stash.RESIDENT). */
#define SS_RESIDENT (1LL << 32)

/* KernelState(leaves, z_per_level, top, tree_slots, level_used,
 *             leaf_table, path_table, bank_ready, bank_open_row,
 *             bus_free, dram, treetop_mode, set_index, set_count, sets,
 *             ways, getrandbits, plb_blocks, plb_dirty,
 *             plb_fills, plb_ways, namespace, limbo, internal_queue,
 *             counters, counter_keys, stash, posmap, path_types,
 *             request_kinds, histograms, batch_counters, path_count,
 *             eviction_threshold, background_eviction, delayed_remap,
 *             onchip_latency, requests, issue_interval,
 *             timing_protection, max_evictions)
 *
 * One controller's state as every kernel entry but dram_service and the
 * setup entries reads it, built once per controller:
 *
 *   leaves, z_per_level, top    leaf count, slots per bucket by level,
 *                               cached top levels
 *   tree_slots .. path_table    the BUF_* arrays above
 *   bank_ready .. bus_free      DRAMModel's bank state
 *   dram                        (ratio, t_rp, t_rcd, t_burst,
 *                               t_cas + t_burst, row_blocks, channels,
 *                               banks_per_channel)
 *   treetop_mode                0 = dedicated counter-only cache, 1 =
 *                               S-Stash; then its two BUF_* arrays, its
 *                               set count and its ways per set
 *   getrandbits                 the plain random.Random's bound method
 *   plb_*                       the PLB's three arrays and its ways
 *   namespace                   (posmap1_base, posmap2_base,
 *                               total_blocks, fanout)
 *   limbo, internal_queue       the victim buffer: a set and a deque
 *   counters, counter_keys      the stats counters dict and the keys the
 *                               kernels book (CounterKey)
 *   stash, posmap               the Stash, whose slab the kernels index,
 *                               and the PositionMap (remap_count)
 *   path_types                  every PathType, DATA, POS1, POS2, DUMMY
 *                               and EVICTION first, in counter_keys'
 *                               order
 *   request_kinds               RequestKind READ, WRITEBACK, REINSERT
 *   histograms, batch_counters  the stats histograms and the
 *                               controller's engine.* counts
 *   path_count                  the controller's path count, the one
 *                               item of an array('q')
 *   eviction_threshold,         the stash's eviction threshold and the
 *   background_eviction         background-eviction switch
 *   delayed_remap               LLC-D: reads leave the ORAM
 *   onchip_latency              the latency of an on-chip serve
 *   requests                    the controller's request queue, a deque
 *   issue_interval,             the slot interval T and whether the
 *   timing_protection           timing defense is on
 *   max_evictions               back-to-back eviction slots before a
 *                               waiting request is let through
 *
 * The arrays stay exported for the state's lifetime, so nothing can
 * resize them under the kernels (their items stay writable: the Python
 * tier writes the same arrays).  Level ``l``'s buckets start
 * at ``offset[l]`` in the tree array, ``z_arr[l]`` slots each, as
 * ORAMTree lays them out.
 *
 * The stash's slab is the one array the state does not hold exported:
 * Python code appends to it and grows it between kernel calls, so every
 * entry that reads or writes the stash takes a view of it for the call
 * alone (slab_open), checks the header and every entry, and releases it
 * on return.  The Stash resizes its slab in place only, so the state
 * keeps the array object itself.  Within a call the slab grows only
 * before a path's read phase or a single re-insert, when it is too short
 * for it (slab_room), never in the middle of a path.
 *
 * The state also keeps the scratch of one path (its DRAM triples) and
 * the books of the current call (Books), empty between calls.
 */
typedef struct {
    PyObject_HEAD
    PyObject *slab, *limbo, *queue, *counters, *keys, *stash, *posmap,
        *path_types, *histograms, *batch, *requests;
    PyObject *kinds[N_KINDS];
    Draws rng;  /* getrandbits owned */
    Py_buffer bufs[N_BUFS];
    long long *tree, *level_used, *leaf_table, *path_count;
    long long *set_index, *set_count;  /* the S-Stash, mode 1 */
    LruCache plb;
    const long long *path_table;
    BankState banks;
    Py_ssize_t leaf_count;  /* blocks the position map covers */
    Py_ssize_t n_types;  /* len(path_types) */
    long long leaves, levels, top, sets, ways;
    int gated;  /* tree-top mode 1: S-Stash set gating and release */
    int background_eviction, delayed_remap, timing_protection;
    long long eviction_threshold, onchip_latency, issue_interval,
        max_evictions;
    DramTiming dram;
    long long row_blocks, channels, banks_per_channel;
    long long path_blocks;  /* memory-backed slots on every path */
    long long z_arr[FASTPATH_MAX_LEVELS];
    long long offset[FASTPATH_MAX_LEVELS];
    long long p1_base, p2_base, total, fanout;  /* the namespace */
    long long *triples;  /* one path's DRAM triples */
    long long path_slots;  /* every slot on a path, cached levels too */
    Py_buffer slab_view;  /* held from slab_open to slab_close only */
    int slab_held;
    long long *hdr, *sblocks, *sleaves;  /* the open slab's regions */
    Py_ssize_t slab_slots;
    int depth;  /* nested PLB victim re-inserts */
    Books books;
} KernelState;

static PyTypeObject KernelStateType;

/* Fields of one level record in TreeLayout.path_table. */
enum { PT_SHIFT, PT_Z, PT_R, PT_ROW_BASE, PT_ROWS, PT_FIRST, PT_FIELDS };

/* Validate the path table (``len`` items) against the tree and DRAM
 * geometry, so fill_triples can run unchecked: records are levels in
 * root-first order, each with the tree's Z for its level; every offset
 * index a leaf can reach lies inside the table; no row computation
 * overflows or goes negative, so every bank and channel lands inside
 * the bank-state arrays.  Sets ``path_blocks``.  Returns 0, or -1 with
 * ValueError set.
 */
static int
check_path_table(KernelState *c, Py_ssize_t len)
{
    const long long *t = c->path_table;
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

/* Interned attribute and method names, histogram buckets and the int 1,
 * set at module init. */
static PyObject *str_append, *str_popleft, *str_note_peak, *str_slab,
    *str_remap_count, *str_block, *str_kind, *str_arrival, *str_completion,
    *str_paths_used, *str_translation_counted, *str_stash, *str_sstash,
    *str_waiters, *int_one;

/* Take a view of the stash's slab for one kernel call and check it: the
 * header (USED and LIVE within the slots, LIVE the count of live
 * entries) and every live block, which must lie in the position map, so
 * nothing the kernels read from it indexes past an array.  Returns 0, or
 * -1 with an exception set and nothing held.  A state is never entered
 * twice at once: the kernels call out to Python only for RNG draws, the
 * stash's own methods and the counters.
 */
static int
slab_open(KernelState *c)
{
    if (c->slab_held) {
        PyErr_SetString(PyExc_RuntimeError, "kernel state already in use");
        return -1;
    }
    Py_ssize_t n = get_q_buffer(c->slab, &c->slab_view, "stash slab");
    if (n < 0)
        return -1;
    long long *hdr = c->slab_view.buf;
    Py_ssize_t slots = (n - SLAB_HEADER) / 2;
    if (n < SLAB_HEADER + 2 || (n - SLAB_HEADER) % 2 != 0 ||
        hdr[SLAB_USED] < 0 || hdr[SLAB_USED] > slots ||
        hdr[SLAB_LIVE] < 0 || hdr[SLAB_LIVE] > hdr[SLAB_USED]) {
        PyErr_SetString(PyExc_ValueError, "stash slab header out of range");
        goto fail;
    }
    long long *blocks = hdr + SLAB_HEADER, live = 0;
    for (long long i = 0; i < hdr[SLAB_USED]; i++) {
        if (blocks[i] == TOMBSTONE)
            continue;
        if (blocks[i] < 0 || blocks[i] >= c->leaf_count) {
            PyErr_SetString(PyExc_IndexError,
                            "stash block outside position map");
            goto fail;
        }
        live++;
    }
    if (live != hdr[SLAB_LIVE]) {
        PyErr_SetString(PyExc_ValueError,
                        "stash slab header does not match its entries");
        goto fail;
    }
    c->hdr = hdr;
    c->sblocks = blocks;
    c->sleaves = blocks + slots;
    c->slab_slots = slots;
    c->slab_held = 1;
    return 0;
fail:
    PyBuffer_Release(&c->slab_view);
    return -1;
}

/* Release the call's view of the slab, if it still holds one. */
static void
slab_close(KernelState *c)
{
    if (c->slab_held) {
        c->slab_held = 0;
        PyBuffer_Release(&c->slab_view);
    }
}

/* Make room for ``n`` more entries past the used part: when the slab is
 * too short, release the view, let Stash.reserve compact and grow it in
 * place, and take a checked view again.  Called only before a path's
 * read phase and before a single re-insert, so no index into the slab is
 * live across it.  Returns 0, or -1 with an exception set.
 */
static int
slab_room(KernelState *c, long long n)
{
    if (c->slab_slots - c->hdr[SLAB_USED] >= n)
        return 0;
    slab_close(c);
    PyObject *ok = PyObject_CallMethod(c->stash, "reserve", "L", n);
    int rc = ok != NULL ? slab_open(c) : -1;
    Py_XDECREF(ok);
    if (rc == 0 && c->slab_slots - c->hdr[SLAB_USED] < n) {
        PyErr_SetString(PyExc_RuntimeError, "stash slab did not grow");
        slab_close(c);
        rc = -1;
    }
    return rc;
}

/* The slab index of ``block``'s entry, or -1: a linear scan over the
 * used part (a tombstone never matches, as blocks are not negative). */
static inline Py_ssize_t
slab_find(const KernelState *c, long long block)
{
    const long long *blocks = c->sblocks;
    Py_ssize_t used = (Py_ssize_t)c->hdr[SLAB_USED];
    for (Py_ssize_t i = 0; i < used; i++) {
        if (blocks[i] == block)
            return i;
    }
    return -1;
}

/* Stash.remove of the entry at ``i``: its block becomes a tombstone. */
static inline void
slab_kill(KernelState *c, Py_ssize_t i)
{
    c->sblocks[i] = TOMBSTONE;
    c->hdr[SLAB_LIVE]--;
}

/* Stash.extend by one entry, which slab_room has made room for. */
static inline void
slab_push(KernelState *c, long long block, long long leaf)
{
    long long used = c->hdr[SLAB_USED];
    c->sblocks[used] = block;
    c->sleaves[used] = leaf;
    c->hdr[SLAB_USED] = used + 1;
    c->hdr[SLAB_LIVE]++;
}

/* Stash.compact: drop the tombstones, keeping the live entries in
 * order; the count of what is left is the new USED and LIVE. */
static void
slab_compact(KernelState *c)
{
    long long used = c->hdr[SLAB_USED], kept = 0;
    long long *blocks = c->sblocks, *leaves = c->sleaves;
    for (long long i = 0; i < used; i++) {
        if (blocks[i] == TOMBSTONE)
            continue;
        blocks[kept] = blocks[i];
        leaves[kept++] = leaves[i];
    }
    c->hdr[SLAB_USED] = c->hdr[SLAB_LIVE] = kept;
}

static void
state_dealloc(KernelState *s)
{
    PyObject_GC_UnTrack(s);
    for (int i = 0; i < N_BUFS; i++)
        PyBuffer_Release(&s->bufs[i]);
    if (s->slab_held)
        PyBuffer_Release(&s->slab_view);
    Py_XDECREF(s->slab);
    Py_XDECREF(s->limbo);
    Py_XDECREF(s->queue);
    Py_XDECREF(s->counters);
    Py_XDECREF(s->keys);
    Py_XDECREF(s->stash);
    Py_XDECREF(s->posmap);
    Py_XDECREF(s->path_types);
    Py_XDECREF(s->histograms);
    Py_XDECREF(s->batch);
    Py_XDECREF(s->requests);
    for (int i = 0; i < N_KINDS; i++)
        Py_XDECREF(s->kinds[i]);
    Py_XDECREF(s->rng.getrandbits);
    Py_XDECREF(s->rng.bits);
    PyMem_Free(s->triples);
    Py_TYPE(s)->tp_free((PyObject *)s);
}

static int
state_traverse(KernelState *s, visitproc visit, void *arg)
{
    for (int i = 0; i < N_BUFS; i++)
        Py_VISIT(s->bufs[i].obj);
    Py_VISIT(s->slab);
    Py_VISIT(s->limbo);
    Py_VISIT(s->queue);
    Py_VISIT(s->counters);
    Py_VISIT(s->keys);
    Py_VISIT(s->stash);
    Py_VISIT(s->posmap);
    Py_VISIT(s->path_types);
    Py_VISIT(s->histograms);
    Py_VISIT(s->batch);
    Py_VISIT(s->requests);
    for (int i = 0; i < N_KINDS; i++)
        Py_VISIT(s->kinds[i]);
    Py_VISIT(s->rng.getrandbits);
    return 0;
}

/* The one place the state is validated: object types, the tree-top
 * mode, the tree geometry against the slot and occupancy arrays, the DRAM
 * geometry against the bank arrays, the path table, the PLB geometry
 * against its arrays, the namespace, and the S-Stash's arrays against its
 * sets and the namespace.  A failed construction holds nothing.
 */
static PyObject *
state_new(PyTypeObject *type, PyObject *args, PyObject *kwds)
{
    static char *kwlist[] = {
        "leaves", "z_per_level", "top", "tree_slots", "level_used",
        "leaf_table", "path_table", "bank_ready",
        "bank_open_row", "bus_free", "dram", "treetop_mode", "set_index",
        "set_count", "sets", "ways", "getrandbits",
        "plb_blocks", "plb_dirty", "plb_fills", "plb_ways", "namespace",
        "limbo", "internal_queue", "counters", "counter_keys", "stash",
        "posmap", "path_types", "request_kinds", "histograms",
        "batch_counters", "path_count", "eviction_threshold",
        "background_eviction", "delayed_remap", "onchip_latency",
        "requests", "issue_interval", "timing_protection", "max_evictions",
        NULL,
    };
    static const char *names[N_BUFS] = {
        "tree_slots", "level_used", "leaf_table", "path_table",
        "bank_ready", "bank_open_row", "bus_free", "plb_blocks",
        "plb_dirty", "plb_fills", "path_count", "set_index", "set_count",
    };
    KernelState *s = (KernelState *)type->tp_alloc(type, 0);
    if (s == NULL)
        return NULL;
    PyObject *z_obj, *arrays[N_BUFS], *getrandbits, *limbo,
        *queue, *counters, *keys, *stash, *posmap, *path_types,
        *kinds[N_KINDS], *histograms, *batch, *requests;
    long long mode;
    if (!PyArg_ParseTupleAndKeywords(
            args, kwds,
            "LOLOOOOOOO(LLLLLLLL)LOOLLOOOOL(LLLL)O!OO!O!OO"
            "O!(OOO)OO!OLppLOLpL:KernelState",
            kwlist, &s->leaves, &z_obj, &s->top, &arrays[BUF_TREE],
            &arrays[BUF_USED], &arrays[BUF_LEAF], &arrays[BUF_PATH],
            &arrays[BUF_READY], &arrays[BUF_OPEN_ROW], &arrays[BUF_BUS_FREE], &s->dram.ratio, &s->dram.t_rp,
            &s->dram.t_rcd, &s->dram.t_burst, &s->dram.cas_burst,
            &s->row_blocks, &s->channels, &s->banks_per_channel, &mode,
            &arrays[BUF_SET_INDEX], &arrays[BUF_SET_COUNT], &s->sets,
            &s->ways, &getrandbits, &arrays[BUF_PLB_BLOCKS],
            &arrays[BUF_PLB_DIRTY], &arrays[BUF_PLB_FILLS], &s->plb.ways,
            &s->p1_base, &s->p2_base, &s->total, &s->fanout, &PySet_Type,
            &limbo, &queue, &PyDict_Type, &counters, &PyTuple_Type, &keys,
            &stash, &posmap, &PyTuple_Type, &path_types, &kinds[KIND_READ],
            &kinds[KIND_WRITEBACK], &kinds[KIND_REINSERT], &histograms,
            &PyDict_Type, &batch, &arrays[BUF_PATH_COUNT],
            &s->eviction_threshold, &s->background_eviction,
            &s->delayed_remap, &s->onchip_latency, &requests,
            &s->issue_interval, &s->timing_protection, &s->max_evictions))
        goto fail;
    s->limbo = Py_NewRef(limbo);
    s->queue = Py_NewRef(queue);
    s->counters = Py_NewRef(counters);
    s->keys = Py_NewRef(keys);
    s->stash = Py_NewRef(stash);
    s->posmap = Py_NewRef(posmap);
    s->path_types = Py_NewRef(path_types);
    s->histograms = Py_NewRef(histograms);
    s->batch = Py_NewRef(batch);
    s->requests = Py_NewRef(requests);
    for (int i = 0; i < N_KINDS; i++)
        s->kinds[i] = Py_NewRef(kinds[i]);
    s->rng.getrandbits = Py_NewRef(getrandbits);
    s->rng.k = -1;
    s->gated = (mode == 1);

    if (mode != 0 && mode != 1) {
        PyErr_SetString(PyExc_ValueError, "unknown tree-top mode");
        goto fail;
    }
    s->n_types = PyTuple_GET_SIZE(path_types);
    if (s->n_types < PT_ROLES || s->n_types > MAX_PATH_TYPES) {
        PyErr_SetString(PyExc_ValueError, "path_types out of range");
        goto fail;
    }
    if (PyTuple_GET_SIZE(keys) != K_COUNT + 2 * s->n_types) {
        PyErr_SetString(PyExc_TypeError,
                        "counter_keys must name every kernel counter");
        goto fail;
    }
    if (s->eviction_threshold < 0 || s->onchip_latency < 0 ||
        s->issue_interval < 0 || s->max_evictions < 0) {
        PyErr_SetString(PyExc_ValueError, "negative slot parameter");
        goto fail;
    }
    PyObject *z_seq = PySequence_Fast(z_obj, "z_per_level must be a sequence");
    if (z_seq == NULL)
        goto fail;
    s->levels = PySequence_Fast_GET_SIZE(z_seq);
    long long total = -1;
    if (s->levels < 1 || s->levels >= FASTPATH_MAX_LEVELS)
        PyErr_SetString(PyExc_ValueError, "unsupported level count");
    else
        total = level_offsets(PySequence_Fast_ITEMS(z_seq), s->levels,
                              s->z_arr, s->offset);
    Py_DECREF(z_seq);
    if (total < 0)
        goto fail;
    if (s->leaves < 1 || s->leaves > (1LL << (s->levels - 1)) ||
        s->top < 0 || s->top > s->levels) {
        PyErr_SetString(PyExc_ValueError, "tree geometry out of range");
        goto fail;
    }

    Py_ssize_t len[N_BUFS];
    for (int i = 0; i < (s->gated ? N_BUFS : BUF_SET_INDEX); i++) {
        len[i] = get_q_buffer(arrays[i], &s->bufs[i], names[i]);
        if (len[i] < 0)
            goto fail;
    }
    s->tree = s->bufs[BUF_TREE].buf;
    s->level_used = s->bufs[BUF_USED].buf;
    s->leaf_table = s->bufs[BUF_LEAF].buf;
    s->leaf_count = len[BUF_LEAF];
    s->path_table = s->bufs[BUF_PATH].buf;
    s->banks.ready = s->bufs[BUF_READY].buf;
    s->banks.open_row = s->bufs[BUF_OPEN_ROW].buf;
    s->banks.bus_free = s->bufs[BUF_BUS_FREE].buf;
    s->banks.n_banks = len[BUF_READY];
    s->banks.n_channels = len[BUF_BUS_FREE];
    s->plb.blocks = s->bufs[BUF_PLB_BLOCKS].buf;
    s->plb.dirty = s->bufs[BUF_PLB_DIRTY].buf;
    s->plb.fills = s->bufs[BUF_PLB_FILLS].buf;
    s->plb.sets = len[BUF_PLB_FILLS];
    s->path_count = s->bufs[BUF_PATH_COUNT].buf;
    if (len[BUF_PATH_COUNT] != 1) {
        PyErr_SetString(PyExc_ValueError, "path_count must hold one item");
        goto fail;
    }
    if (s->gated) {
        s->set_index = s->bufs[BUF_SET_INDEX].buf;
        s->set_count = s->bufs[BUF_SET_COUNT].buf;
        /* Every block the kernels find in the tree or the stash lies in
         * the position map, so it indexes the set-index array too; every
         * set fits below SS_RESIDENT and indexes set_count. */
        if (len[BUF_SET_INDEX] != s->total ||
            len[BUF_LEAF] != s->total || s->sets < 1 ||
            s->sets >= SS_RESIDENT || len[BUF_SET_COUNT] != s->sets ||
            s->ways < 1) {
            PyErr_SetString(PyExc_ValueError,
                            "S-Stash buffers do not match its geometry");
            goto fail;
        }
    }
    if (len[BUF_TREE] != total || len[BUF_USED] != s->levels) {
        PyErr_SetString(PyExc_ValueError,
                        "tree arrays do not match z per level");
        goto fail;
    }
    long long n_banks;
    if (s->dram.ratio <= 0 || s->row_blocks <= 0 || s->channels <= 0 ||
        s->banks_per_channel <= 0 ||
        __builtin_mul_overflow(s->channels, s->banks_per_channel,
                               &n_banks) ||
        n_banks != len[BUF_READY] || n_banks != len[BUF_OPEN_ROW] ||
        s->channels != len[BUF_BUS_FREE]) {
        PyErr_SetString(PyExc_ValueError,
                        "DRAM geometry does not match the bank arrays");
        goto fail;
    }
    if (check_path_table(s, len[BUF_PATH]) < 0)
        goto fail;
    if (lru_check(&s->plb, len[BUF_PLB_BLOCKS], len[BUF_PLB_DIRTY],
                  "PLB") < 0)
        goto fail;
    if (s->p1_base < 0 || s->p2_base < s->p1_base ||
        s->total < s->p2_base || s->fanout < 1) {
        PyErr_SetString(PyExc_ValueError, "malformed namespace");
        goto fail;
    }

    for (long long d = 0; d < s->levels; d++)
        s->path_slots += s->z_arr[d];
    /* The stash's slab, checked as every call checks it. */
    s->slab = PyObject_GetAttr(stash, str_slab);
    if (s->slab == NULL || slab_open(s) < 0)
        goto fail;
    slab_close(s);

    /* Scratch: one path's triples. */
    s->triples = PyMem_Malloc(sizeof(long long) *
                              (size_t)(3 * s->path_blocks + 1));
    if (s->triples == NULL) {
        PyErr_NoMemory();
        goto fail;
    }
    return (PyObject *)s;

fail:
    Py_DECREF(s);
    return NULL;
}

static PyTypeObject KernelStateType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "_repro_fastpath.KernelState",
    .tp_basicsize = sizeof(KernelState),
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC,
    .tp_doc = "One controller's state, as the kernel entries read it.",
    .tp_new = state_new,
    .tp_dealloc = (destructor)state_dealloc,
    .tp_traverse = (traverseproc)state_traverse,
};

/* The state argument of a METH_FASTCALL entry. */
static KernelState *
state_arg(PyObject *obj)
{
    if (!PyObject_TypeCheck(obj, &KernelStateType)) {
        PyErr_SetString(PyExc_TypeError, "expected a KernelState");
        return NULL;
    }
    return (KernelState *)obj;
}

/* The first tree slot of the bucket on the path to ``leaf`` at ``level``. */
static inline long long *
path_bucket(const KernelState *c, long long leaf, long long level)
{
    return c->tree + c->offset[level] +
           (leaf >> (c->levels - 1 - level)) * c->z_arr[level];
}

/* ---------------------------------------------------------------- */
/* Counters                                                          */
/* ---------------------------------------------------------------- */

/* The kernels count into the state's books (Books), never into the
 * Python objects: add_count and bump add to a slot's pending amount.
 * flush_books applies the books to the counters and engine dicts, the
 * hit-level histogram and posmap.remap_count, and every entry that books
 * calls it on each exit (flush_on_exit), so the Python objects are
 * current whenever a kernel call returns, with the same keys, value
 * types and values as counting each event on its own: the counts are
 * integers far below 2**53, so one add of their sum is exact.
 */

/* Count ``n`` on slot ``k`` of the books; a slot booked with n == 0 is
 * touched all the same, so its key is still created. */
static inline void
add_count(KernelState *c, int k, long long n)
{
    Books *b = &c->books;
    if (!b->touched[k]) {
        b->touched[k] = 1;
        b->order[b->n++] = (short)k;
    }
    b->amount[k] += n;
}

static inline void
bump(KernelState *c, int k)
{
    add_count(c, k, 1);
}

/* ``held + n`` for a held Python number. */
static PyObject *
plus(PyObject *held, long long n)
{
    PyObject *amount = PyLong_FromLongLong(n);
    PyObject *value = amount != NULL ? PyNumber_Add(held, amount) : NULL;
    Py_XDECREF(amount);
    return value;
}

/* Apply slot ``k``'s amount ``n``:
 *   a counter key       counters[key] += n, as Stats.inc does on its
 *                       defaultdict(float): a missing key starts at 0.0,
 *                       and a float count stays a float;
 *   an engine.* key     batch_counters[key] = get(key, 0) + n: ints;
 *   a hit-level bucket  histograms[HIT_LEVEL][bucket] += n through the
 *                       defaultdicts' own item access (Stats.bump), so a
 *                       first bucket starts at 0.0;
 *   B_REMAP             posmap.remap_count += n.
 * Returns 0, or -1 with an exception set.
 */
static int
apply_book(KernelState *c, int k, long long n)
{
    PyObject *value = NULL, *held;
    int rc = -1;
    if (k == B_REMAP) {
        held = PyObject_GetAttr(c->posmap, str_remap_count);
        value = held != NULL ? plus(held, n) : NULL;
        rc = value != NULL
            ? PyObject_SetAttr(c->posmap, str_remap_count, value) : -1;
        Py_XDECREF(held);
    } else if (k >= B_HIT) {
        PyObject *histogram = PyObject_GetItem(
            c->histograms, PyTuple_GET_ITEM(c->keys, K_HIT_LEVEL));
        PyObject *bucket = k == B_HIT_STASH ? Py_NewRef(str_stash)
            : k == B_HIT_SSTASH ? Py_NewRef(str_sstash)
            : PyLong_FromLongLong(k - B_HIT);
        held = histogram != NULL && bucket != NULL
            ? PyObject_GetItem(histogram, bucket) : NULL;
        value = held != NULL ? plus(held, n) : NULL;
        rc = value != NULL ? PyObject_SetItem(histogram, bucket, value) : -1;
        Py_XDECREF(held);
        Py_XDECREF(bucket);
        Py_XDECREF(histogram);
    } else {
        PyObject *key = PyTuple_GET_ITEM(c->keys, k);
        PyObject *dict = k >= K_KERNEL_PATHS && k < K_COUNT
            ? c->batch : c->counters;
        held = PyDict_GetItemWithError(dict, key);
        if (held == NULL && PyErr_Occurred())
            return -1;
        if (dict == c->batch)
            value = held != NULL ? plus(held, n) : PyLong_FromLongLong(n);
        else if (held == NULL)
            value = PyFloat_FromDouble((double)n);
        else if (PyFloat_CheckExact(held))
            value = PyFloat_FromDouble(PyFloat_AS_DOUBLE(held) + (double)n);
        else
            value = plus(held, n);
        rc = value != NULL ? PyDict_SetItem(dict, key, value) : -1;
    }
    Py_XDECREF(value);
    return rc;
}

/* Apply the books in the order their slots were first touched and clear
 * them.  Returns 0, or -1 with an exception set; the books are empty
 * either way, so nothing is applied twice. */
static int
flush_books(KernelState *c)
{
    Books *b = &c->books;
    int rc = 0;
    for (int i = 0; i < b->n; i++) {
        int k = b->order[i];
        if (rc == 0)
            rc = apply_book(c, k, b->amount[k]);
        b->amount[k] = 0;
        b->touched[k] = 0;
    }
    b->n = 0;
    return rc;
}

/* The exit of a booking entry whose work returned ``rc``: flush the
 * books, and on failure keep the work's exception over any of the
 * flush's.  Returns ``rc``, or -1 when the flush fails. */
static int
flush_on_exit(KernelState *c, int rc)
{
    if (rc == 0)
        return flush_books(c);
    PyObject *type, *value, *traceback;
    PyErr_Fetch(&type, &value, &traceback);
    if (flush_books(c) < 0)
        PyErr_Clear();
    PyErr_Restore(type, value, traceback);
    return -1;
}

/* Stash.note_peak without its event: raise the slab's recorded peak to
 * ``occupancy``.  Returns 1 when it rose, else 0. */
static int
raise_peak(KernelState *c, long long occupancy)
{
    if (occupancy <= c->hdr[SLAB_PEAK])
        return 0;
    c->hdr[SLAB_PEAK] = occupancy;
    return 1;
}

/* ---------------------------------------------------------------- */
/* The S-Stash                                                       */
/* ---------------------------------------------------------------- */

/* MD5 over one 64-byte block: the round constants and shift amounts. */
static const uint32_t md5_k[64] = {
    0xd76aa478, 0xe8c7b756, 0x242070db, 0xc1bdceee, 0xf57c0faf, 0x4787c62a,
    0xa8304613, 0xfd469501, 0x698098d8, 0x8b44f7af, 0xffff5bb1, 0x895cd7be,
    0x6b901122, 0xfd987193, 0xa679438e, 0x49b40821, 0xf61e2562, 0xc040b340,
    0x265e5a51, 0xe9b6c7aa, 0xd62f105d, 0x02441453, 0xd8a1e681, 0xe7d3fbc8,
    0x21e1cde6, 0xc33707d6, 0xf4d50d87, 0x455a14ed, 0xa9e3e905, 0xfcefa3f8,
    0x676f02d9, 0x8d2a4c8a, 0xfffa3942, 0x8771f681, 0x6d9d6122, 0xfde5380c,
    0xa4beea44, 0x4bdecfa9, 0xf6bb4b60, 0xbebfbc70, 0x289b7ec6, 0xeaa127fa,
    0xd4ef3085, 0x04881d05, 0xd9d4d039, 0xe6db99e5, 0x1fa27cf8, 0xc4ac5665,
    0xf4292244, 0x432aff97, 0xab9423a7, 0xfc93a039, 0x655b59c3, 0x8f0ccc92,
    0xffeff47d, 0x85845dd1, 0x6fa87e4f, 0xfe2ce6e0, 0xa3014314, 0x4e0811a1,
    0xf7537e82, 0xbd3af235, 0x2ad7d2bb, 0xeb86d391,
};
static const uint8_t md5_shift[16] = {
    7, 12, 17, 22, 5, 9, 14, 20, 4, 11, 16, 23, 6, 10, 15, 21,
};

/* ir_stash.md5_set_index: the MD5 digest of ``block``'s 8-byte
 * little-endian encoding, its first four bytes read as a little-endian
 * integer, mod ``sets``.  The padded message is one 64-byte block (the 8
 * bytes, the 0x80 pad byte, the 64-bit length in bits), and the first
 * four digest bytes are the final A word.
 */
static long long
md5_set(long long block, long long sets)
{
    uint32_t m[16] = {0};
    m[0] = (uint32_t)block;
    m[1] = (uint32_t)((unsigned long long)block >> 32);
    m[2] = 0x80;
    m[14] = 64;
    uint32_t a = 0x67452301, b = 0xefcdab89, c = 0x98badcfe, d = 0x10325476;
    for (int i = 0; i < 64; i++) {
        uint32_t f;
        int g;
        if (i < 16) {
            f = (b & c) | (~b & d);
            g = i;
        } else if (i < 32) {
            f = (d & b) | (~d & c);
            g = (5 * i + 1) & 15;
        } else if (i < 48) {
            f = b ^ c ^ d;
            g = (3 * i + 5) & 15;
        } else {
            f = c ^ (b | ~d);
            g = (7 * i) & 15;
        }
        f += a + md5_k[i] + m[g];
        int r = md5_shift[(i >> 4) * 4 + (i & 3)];
        a = d;
        d = c;
        c = b;
        b += (f << r) | (f >> (32 - r));
    }
    return (long long)((uint32_t)(a + 0x67452301) % (unsigned long long)sets);
}

/* ``block``'s S-Stash set-index entry (the block indexes the array),
 * range-checked: -1, or a set below ``sets``, with or without
 * SS_RESIDENT.  Anything else is a ValueError, so a set read from the
 * array always indexes set_count.  Returns 0, or -1 with the error set.
 */
static int
sstash_entry(const KernelState *c, long long block, long long *entry)
{
    long long e = c->set_index[block];
    long long set = e >= SS_RESIDENT ? e - SS_RESIDENT : e;
    if (e != -1 && (set < 0 || set >= c->sets)) {
        PyErr_Format(PyExc_ValueError,
                     "S-Stash set index of block %lld out of range", block);
        return -1;
    }
    *entry = e;
    return 0;
}

/* SStash.on_remove without the stats hook: ``block`` leaves its set. */
static int
sstash_remove(KernelState *c, long long block)
{
    long long entry;
    if (sstash_entry(c, block, &entry) < 0)
        return -1;
    if (entry < SS_RESIDENT) {
        PyErr_Format(PyExc_RuntimeError, "block %lld not in S-Stash", block);
        return -1;
    }
    c->set_count[entry - SS_RESIDENT]--;
    c->set_index[block] = entry - SS_RESIDENT;
    return 0;
}

/* Check the S-Stash entry of every block in the cached levels of the
 * path to ``leaf``, which the read phase releases: path_access runs this
 * first, so a corrupt entry raises with nothing touched. */
static int
check_top_entries(const KernelState *c, long long leaf)
{
    for (long long level = 0; level < c->top; level++) {
        const long long *slots = path_bucket(c, leaf, level);
        for (long long s = 0; s < c->z_arr[level]; s++) {
            long long entry;
            if (slots[s] >= 0 && slots[s] < c->leaf_count &&
                sstash_entry(c, slots[s], &entry) < 0)
                return -1;
        }
    }
    return 0;
}

/* ---------------------------------------------------------------- */
/* Read phase                                                        */
/* ---------------------------------------------------------------- */

/* The read phase of one path access, the one read loop behind
 * path_access: clear every real block off the path to ``leaf``, release
 * its tree-top entry when it sat in a cached level (S-Stash removal in
 * mode 1, a bare count in mode 0), and append it to the stash's slab
 * (Stash.extend: the tree and the stash never hold the same block), for
 * which path_access has made room.  The level ``served`` was read from
 * goes to ``*served_level``.  Mirrors ORAMTree.read_and_clear plus the
 * per-block loop of PathORAMController._service_path.  Returns 0, or -1
 * with an exception set.
 */
static int
read_path_core(KernelState *c, long long leaf, long long served,
               long long *served_level)
{
    for (long long level = 0; level < c->levels; level++) {
        long long *slots = path_bucket(c, leaf, level);
        for (long long s = 0; s < c->z_arr[level]; s++) {
            long long value = slots[s];
            if (value == EMPTY)
                continue;
            if (value < 0 || value >= c->leaf_count) {
                PyErr_SetString(PyExc_IndexError,
                                "block outside position map");
                return -1;
            }
            long long bleaf = c->leaf_table[value];
            if (bleaf == UNMAPPED) {
                PyErr_SetString(PyExc_ValueError, "block has no mapping");
                return -1;
            }
            slots[s] = EMPTY;
            c->level_used[level]--;
            if (value == served)
                *served_level = level;
            if (level < c->top) {
                if (c->gated) {
                    if (sstash_remove(c, value) < 0)
                        return -1;
                    bump(c, K_SSTASH_REMOVED);
                } else {
                    bump(c, K_TREETOP_REMOVED);
                }
            }
            slab_push(c, value, bleaf);
        }
    }
    return 0;
}

/* ---------------------------------------------------------------- */
/* Write phase                                                       */
/* ---------------------------------------------------------------- */

/* Depth-bucket every live stash entry for the path to ``leaf`` with a
 * two-pass counting sort over the slab: count per depth, then scatter.
 * Fills ``items`` (capacity >= LIVE) segmented by depth (counts/offsets,
 * length ``levels``); each segment keeps stash order.  Mirrors
 * Stash.path_pools.  Returns 0, or -1 with an exception set.
 */
static int
group_by_depth(const KernelState *c, long long leaf, PoolItem *items,
               Py_ssize_t *counts, Py_ssize_t *offsets)
{
    Py_ssize_t fill[FASTPATH_MAX_LEVELS];
    const long long *blocks = c->sblocks, *leaves = c->sleaves;
    Py_ssize_t used = (Py_ssize_t)c->hdr[SLAB_USED];

    memset(counts, 0, sizeof(Py_ssize_t) * (size_t)c->levels);
    for (Py_ssize_t i = 0; i < used; i++) {
        if (blocks[i] == TOMBSTONE)
            continue;
        long long depth = deepest_level(c->levels, leaf, leaves[i]);
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
    for (Py_ssize_t i = 0; i < used; i++) {
        if (blocks[i] == TOMBSTONE)
            continue;
        PoolItem *item =
            &items[fill[deepest_level(c->levels, leaf, leaves[i])]++];
        item->at = i;
        item->value = blocks[i];
    }
    return 0;
}

/* The placement engine behind write_place_core: greedy bottom-up
 * placement onto the path to ``leaf`` of ``items`` already segmented by
 * depth (counts/offsets, each segment in stash order).  ``items`` must
 * have capacity 3*total — the upper two thirds are scratch for the pool
 * stack and the per-level rejection list.
 *
 * In S-Stash mode, placements into the cached top levels consult the
 * set-associativity constraint (the block's set from the set-index array,
 * hashed by md5_set and recorded there the first time; its set count
 * against ``ways``) and mark the block resident, mirroring the Python
 * placement loop with SStash.may_place/on_place; rejected blocks are
 * retried at shallower levels exactly like the Python
 * ``pool.extend(rejected)``.  Hook counts accumulate into the state.
 * Each placed block's entry becomes a tombstone as it lands.
 */
static int
place_pools(KernelState *c, long long leaf, PoolItem *items, Py_ssize_t total,
            const Py_ssize_t *counts, const Py_ssize_t *offsets)
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
            long long set = -1;  /* gated only: the block's S-Stash set */
            if (level_gated) {
                if (item.value < 0 || item.value >= c->leaf_count) {
                    PyErr_SetString(PyExc_IndexError,
                                    "stash block outside position map");
                    return -1;
                }
                if (sstash_entry(c, item.value, &set) < 0)
                    return -1;
                if (set >= SS_RESIDENT) {
                    PyErr_Format(PyExc_RuntimeError,
                                 "block %lld already in S-Stash", item.value);
                    return -1;
                }
                if (set < 0)
                    set = c->set_index[item.value] = md5_set(item.value,
                                                             c->sets);
                if (c->set_count[set] >= c->ways) {
                    /* Set full: skip this block for this round. */
                    rejected[n_rej++] = item;
                    bump(c, K_SSTASH_SKIPS);
                    continue;
                }
            }
            /* first EMPTY slot (earlier ones were just filled) */
            while (scan < z && slots[scan] != EMPTY)
                scan++;
            if (scan == z) {
                PyErr_SetString(PyExc_RuntimeError,
                                "bucket full during write phase");
                return -1;
            }
            slots[scan++] = item.value;
            c->level_used[level]++;
            placed++;
            if (level_gated) {
                c->set_count[set]++;
                c->set_index[item.value] = set + SS_RESIDENT;
                bump(c, K_SSTASH_PLACED);
            } else if (level < c->top) {
                bump(c, K_TREETOP_PLACED);
            }
            slab_kill(c, item.at);
        }
        /* Re-stack rejected blocks in rejection order: the next pop
         * takes the most recently rejected first, matching
         * pool.extend(rejected) + pool.pop(). */
        for (Py_ssize_t r = 0; r < n_rej; r++)
            stack[stack_size++] = rejected[r];
    }
    return 0;
}

/* The write phase's placement, path_access's one placement step:
 * depth-bucket the whole stash, run the placement engine, then compact
 * the slab.
 */
static int
write_place_core(KernelState *c, long long leaf)
{
    Py_ssize_t total = (Py_ssize_t)c->hdr[SLAB_LIVE];
    if (total > 0) {
        PoolItem *items = PyMem_Malloc(sizeof(PoolItem) * (size_t)total * 3);
        if (items == NULL) {
            PyErr_NoMemory();
            return -1;
        }
        Py_ssize_t counts[FASTPATH_MAX_LEVELS];
        Py_ssize_t offsets[FASTPATH_MAX_LEVELS];
        int rc = group_by_depth(c, leaf, items, counts, offsets);
        if (rc == 0)
            rc = place_pools(c, leaf, items, total, counts, offsets);
        PyMem_Free(items);
        if (rc < 0)
            return -1;
    }
    slab_compact(c);
    return 0;
}

/* The DRAM (bank, channel, row) triples of the path to ``leaf``, written
 * to ``out`` (room for 3 * path_blocks): TreeLayout.path_addresses
 * followed by DRAMModel.decompose_batch, computed from the path table.
 * Within a bucket the slots run on through consecutive columns, so the
 * row and its bank and channel only change at a row boundary.
 * check_path_table has bounded every index and row this reaches.
 */
static void
fill_triples(const KernelState *c, long long leaf, long long *out)
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

/* A leaf argument outside [0, leaves) is an IndexError. */
static int
check_leaf(const KernelState *c, long long leaf)
{
    if (leaf < 0 || leaf >= c->leaves) {
        PyErr_SetString(PyExc_IndexError, "leaf out of range");
        return -1;
    }
    return 0;
}

/* dram_triples(state, leaf) -> array('q') of [bank, channel, row, ...]
 *
 * The DRAM triples of the path to ``leaf`` through fill_triples, for
 * bursts issued apart from their access_path call (deferred writes, the
 * Python phases) to hand to dram_service.
 */
static PyObject *
dram_triples(PyObject *self, PyObject *args)
{
    KernelState *c;
    long long leaf;
    if (!PyArg_ParseTuple(args, "O!L", &KernelStateType, &c, &leaf) ||
        check_leaf(c, leaf) < 0)
        return NULL;
    PyObject *raw = PyBytes_FromStringAndSize(
        NULL, (Py_ssize_t)sizeof(long long) * 3 * c->path_blocks);
    if (raw == NULL)
        return NULL;
    fill_triples(c, leaf, (long long *)PyBytes_AS_STRING(raw));
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

/* The served block's step after the read phase.  It must be in the
 * stash.  Remap: draw its new leaf, record it in the position map and
 * update its stash entry in place (PositionMap.remap plus
 * Stash.update_leaf).  Extract: drop it from the stash and unmap it
 * (Stash.remove plus PositionMap.discard).  Returns 0, or -1 with an
 * exception set; a block absent from the path and the stash is a
 * RuntimeError, which the controller raises as a ProtocolError.
 */
static int
served_step(KernelState *c, long long leaf, long long served, int mode)
{
    Py_ssize_t at = slab_find(c, served);
    if (at < 0) {
        PyErr_Format(PyExc_RuntimeError,
                     "block %lld absent from path %lld and stash",
                     served, leaf);
        return -1;
    }
    if (mode == SERVED_EXTRACT) {
        slab_kill(c, at);
        c->leaf_table[served] = UNMAPPED;
        return 0;
    }
    long long new_leaf;
    if (randbelow(&c->rng, c->leaves, &new_leaf) < 0)
        return -1;
    c->leaf_table[served] = new_leaf;
    c->sleaves[at] = new_leaf;
    return 0;
}

/* One path access's outputs.  The row hit and conflict counts add to
 * what the fields already hold, so the caller zeroes them. */
typedef struct {
    long long finish_read, finish_write, served_level, occupancy;
    long long read_hits, read_conflicts, write_hits, write_conflicts;
} PathOut;

/* One whole path access over the live controller state, the one
 * per-path function behind every real, eviction and dummy path:
 *
 *   under the S-Stash, a check of the set-index entries the read phase
 *   will release (check_top_entries); room in the slab for every slot of
 *   the path (slab_room); the read burst (fill_triples, then
 *   dram_run_arr at ``now``); the read phase (read_path_core); the
 *   served block's step (served_step, unless ``mode`` is SERVED_NONE);
 *   greedy bottom-up placement and compaction (write_place_core); and
 *   the write burst
 *   at the read phase's finish, unless ``write_burst`` is 0 (the caller
 *   then issues it later, and ``finish_write`` is the read phase's
 *   finish).
 *
 * Mirrors PathORAMController's Python phases.  Returns 0, or -1 with an
 * exception set.
 */
static int
path_access(KernelState *c, long long leaf, long long now, long long served,
            int mode, int write_burst, PathOut *out)
{
    const DramTiming *d = &c->dram;
    long long finish;
    if ((c->gated && check_top_entries(c, leaf) < 0) ||
        slab_room(c, c->path_slots) < 0)
        return -1;
    fill_triples(c, leaf, c->triples);
    dram_run_arr(c->triples, c->path_blocks, &c->banks,
                 (now + d->ratio - 1) / d->ratio, d, &finish,
                 &out->read_hits, &out->read_conflicts);
    out->finish_read = out->finish_write = finish * d->ratio;

    out->served_level = -1;
    if (read_path_core(c, leaf, served, &out->served_level) < 0)
        return -1;
    out->occupancy = c->hdr[SLAB_LIVE];
    if (mode != SERVED_NONE && served_step(c, leaf, served, mode) < 0)
        return -1;
    if (write_place_core(c, leaf) < 0)
        return -1;

    if (write_burst) {
        dram_run_arr(c->triples, c->path_blocks, &c->banks,
                     (out->finish_read + d->ratio - 1) / d->ratio, d,
                     &finish, &out->write_hits, &out->write_conflicts);
        out->finish_write = finish * d->ratio;
    }
    return 0;
}

/* One memory burst of ``blocks`` accesses, as DRAMModel.book counts it. */
static void
book_burst(KernelState *c, long long blocks, int is_write, long long hits,
           long long conflicts)
{
    add_count(c, K_DRAM_ACCESSES, blocks);
    add_count(c, K_DRAM_ROW_HITS, hits);
    add_count(c, K_DRAM_ROW_CONFLICTS, conflicts);
    add_count(c, is_write ? K_DRAM_WRITES : K_DRAM_READS, blocks);
}

/* One kernel path access of path type ``pt``, through path_access, then
 * booked as the Python phases book it: the read burst, the stash peak
 * (``*peak`` is the post-read occupancy when it raised the peak, else
 * 0), the path counters (PathORAMController._apply_path_counters; the
 * tree-top hooks counted themselves), the write burst and
 * mem.blocks_written (``write_burst`` only: a deferred burst books
 * itself when it issues), the eviction trigger, the served block's
 * remap and the engine count ``engine``: engine.tier.kernel_paths, or
 * engine.batch.paths for a drain's dummy path.
 */
static int
kernel_access(KernelState *c, long long leaf, long long now,
              long long served, int mode, Py_ssize_t pt, int write_burst,
              int engine, PathOut *out, long long *peak)
{
    long long blocks = c->path_blocks;
    if (path_access(c, leaf, now, served, mode, write_burst, out) < 0)
        return -1;
    book_burst(c, blocks, 0, out->read_hits, out->read_conflicts);
    *peak = raise_peak(c, out->occupancy) ? out->occupancy : 0;
    c->path_count[0]++;
    bump(c, K_COUNT + (int)pt);
    bump(c, K_PATHS_TOTAL);
    add_count(c, K_BLOCKS_READ, blocks);
    add_count(c, K_COUNT + (int)(c->n_types + pt), 2 * blocks);
    if (write_burst) {
        book_burst(c, blocks, 1, out->write_hits, out->write_conflicts);
        add_count(c, K_BLOCKS_WRITTEN, blocks);
    }
    if (c->hdr[SLAB_LIVE] > c->eviction_threshold)
        bump(c, K_EVICTION_TRIGGERS);
    if (mode == SERVED_REMAP)
        bump(c, B_REMAP);
    bump(c, engine);
    return 0;
}

/* The index of a path type in the state's ``path_types``, by identity,
 * or -1 with ValueError set. */
static Py_ssize_t
path_type_index(const KernelState *c, PyObject *path_type)
{
    for (Py_ssize_t i = 0; i < c->n_types; i++) {
        if (PyTuple_GET_ITEM(c->path_types, i) == path_type)
            return i;
    }
    PyErr_SetString(PyExc_ValueError, "unknown path type");
    return -1;
}

/* access_path(state, leaf, now, served, mode, write_burst, path_type)
 *   -> (finish_read, finish_write, served_level, peak, blocks,
 *       read_hits, read_conflicts, write_hits, write_conflicts)
 *
 * One whole path access of the path to ``leaf`` issued at ``now``,
 * through kernel_access, booked as a path of ``path_type`` (one of the
 * state's ``path_types``).  ``served`` is the block the access serves
 * (``mode`` SERVED_REMAP or SERVED_EXTRACT), or None for an eviction or
 * dummy path (SERVED_NONE).  ``peak`` is the stash occupancy right after
 * the read phase when it raised the stash's peak, else 0; ``blocks`` the
 * memory blocks each burst moves.  The rest is what a traced run's
 * events need.  The leaf, the mode, the served block and the path type
 * are checked before anything is touched.
 */
static PyObject *
access_path(PyObject *self, PyObject *args)
{
    KernelState *c;
    PyObject *served_obj, *type_obj;
    long long leaf, now, served = EMPTY;
    int mode, write_burst;
    if (!PyArg_ParseTuple(args, "O!LLOipO", &KernelStateType, &c, &leaf,
                          &now, &served_obj, &mode, &write_burst,
                          &type_obj) ||
        check_leaf(c, leaf) < 0)
        return NULL;
    if (mode < SERVED_NONE || mode > SERVED_EXTRACT ||
        (mode == SERVED_NONE) != (served_obj == Py_None) || now < 0) {
        PyErr_SetString(PyExc_ValueError, "malformed access_path call");
        return NULL;
    }
    if (served_obj != Py_None) {
        served = PyLong_AsLongLong(served_obj);
        if (served == -1 && PyErr_Occurred())
            return NULL;
        if (served < 0 || served >= c->leaf_count) {
            PyErr_SetString(PyExc_IndexError,
                            "served block outside position map");
            return NULL;
        }
    }
    Py_ssize_t pt = path_type_index(c, type_obj);
    if (pt < 0)
        return NULL;
    PathOut out;
    long long peak;
    memset(&out, 0, sizeof out);
    if (slab_open(c) < 0)
        return NULL;
    int rc = kernel_access(c, leaf, now, served, mode, pt, write_burst,
                           K_KERNEL_PATHS, &out, &peak);
    slab_close(c);
    if (flush_on_exit(c, rc) < 0)
        return NULL;
    return Py_BuildValue(
        "LLLLLLLLL", out.finish_read, out.finish_write, out.served_level,
        peak, c->path_blocks, out.read_hits, out.read_conflicts,
        out.write_hits, out.write_conflicts);
}

/* ---------------------------------------------------------------- */
/* Dummy paths                                                       */
/* ---------------------------------------------------------------- */

/* One dummy path at ``now``, as drain_slots runs a slot no real work
 * takes: a leaf draw (randbelow) and kernel_access, as
 * PathORAMController.dummy_path, counted as a batch path.  Returns 0, or
 * -1 with an exception set.
 */
static int
dummy_path(KernelState *c, long long now, PathOut *out)
{
    long long leaf, peak;
    return randbelow(&c->rng, c->leaves, &leaf) < 0 ||
           kernel_access(c, leaf, now, EMPTY, SERVED_NONE, PT_DUMMY, 1,
                         K_BATCH_PATHS, out, &peak) < 0 ? -1 : 0;
}

/* ---------------------------------------------------------------- */
/* Translation: the PosMap chain, free promotions and the PLB        */
/* ---------------------------------------------------------------- */

/* Victim re-inserts nest (a victim's own translation can promote and
 * displace another victim); deeper than this is reported as the
 * RecursionError the Python chain would hit. */
#define TRANSLATE_MAX_DEPTH 200

/* Controller._posmap_on_chip: in the PLB or in the victim buffer.
 * Returns 1, 0, or -1 with an exception set. */
static int
on_chip(KernelState *c, long long block)
{
    Py_ssize_t slot = lru_slot(&c->plb, block);
    if (slot != -1)
        return slot >= 0 ? 1 : -1;
    PyObject *key = PyLong_FromLongLong(block);
    if (key == NULL)
        return -1;
    int rc = PySet_Contains(c->limbo, key);
    Py_DECREF(key);
    return rc;
}

/* A block about to index the position map must lie inside it. */
static int
check_mapped_index(const KernelState *c, long long block)
{
    if (block < 0 || block >= c->leaf_count) {
        PyErr_SetString(PyExc_IndexError, "block outside position map");
        return -1;
    }
    return 0;
}

/* PLB.mark_dirty: a resident block becomes its set's MRU line, dirty,
 * counted as a cache hit. */
static int
plb_mark_dirty(KernelState *c, long long block)
{
    Py_ssize_t slot = lru_slot(&c->plb, block);
    if (slot < 0)
        return slot == -1 ? 0 : -1;
    lru_touch(&c->plb, block, slot, 1);
    bump(c, K_PLB_HITS);
    return 0;
}

static int walk(KernelState *c, long long block, long long *chain, int *n);

/* Namespace.parent_block: the PosMap block holding ``block``'s mapping,
 * or -1 for a PosMap2 block (its parent is the on-chip PosMap3). */
static long long
parent_of(const KernelState *c, long long block)
{
    if (block < c->p1_base)
        return c->p1_base + block / c->fanout;
    if (block < c->p2_base)
        return c->p2_base + (block - c->p1_base) / c->fanout;
    return -1;
}

/* PositionMap.restore: draw a leaf for an unmapped block through
 * randbelow, record it and count the remap.  A block that is still mapped
 * is a RuntimeError. */
static int
restore_leaf(KernelState *c, long long block, long long *leaf)
{
    if (check_mapped_index(c, block) < 0)
        return -1;
    if (c->leaf_table[block] != UNMAPPED) {
        PyErr_Format(PyExc_RuntimeError, "block %lld is already mapped",
                     block);
        return -1;
    }
    if (randbelow(&c->rng, c->leaves, leaf) < 0)
        return -1;
    c->leaf_table[block] = *leaf;
    bump(c, B_REMAP);
    return 0;
}

/* Stash.add: the entry (a present block's leaf is updated in place, an
 * absent one appended after slab_room), then Stash.note_peak (which
 * emits stash.hwm) when the occupancy passes the recorded peak. */
static int
stash_add(KernelState *c, long long block, long long leaf)
{
    Py_ssize_t at = slab_find(c, block);
    if (at >= 0) {
        c->sleaves[at] = leaf;
    } else {
        if (slab_room(c, 1) < 0)
            return -1;
        slab_push(c, block, leaf);
    }
    if (c->hdr[SLAB_LIVE] <= c->hdr[SLAB_PEAK])
        return 0;
    PyObject *ok = PyObject_CallMethodNoArgs(c->stash, str_note_peak);
    Py_XDECREF(ok);
    return ok != NULL ? 0 : -1;
}

/* Controller._reinsert_posmap_block for a PLB victim: when its own
 * translation is not free it waits in the victim buffer (internal_queue
 * and _limbo); otherwise its leaf is restored, its parent PosMap block
 * (Namespace.parent_block; a PosMap2 block's parent is the on-chip
 * PosMap3) is dirtied in the PLB, and it enters the stash.
 */
static int
reinsert(KernelState *c, long long block)
{
    if (c->depth >= TRANSLATE_MAX_DEPTH) {
        PyErr_SetString(PyExc_RecursionError,
                        "PLB victim re-inserts nested too deep");
        return -1;
    }
    c->depth++;
    long long chain[2], leaf = 0;
    int n, rc = walk(c, block, chain, &n);
    if (rc == 0 && n) {
        PyObject *key = PyLong_FromLongLong(block);
        PyObject *ok = key != NULL
            ? PyObject_CallMethodOneArg(c->queue, str_append, key) : NULL;
        rc = ok != NULL && PySet_Add(c->limbo, key) == 0 ? 0 : -1;
        if (rc == 0)
            bump(c, K_DEFERRED_REINSERTS);
        Py_XDECREF(ok);
        Py_XDECREF(key);
    } else if (rc == 0) {
        long long parent = parent_of(c, block);
        rc = restore_leaf(c, block, &leaf) < 0 ||
             (parent >= 0 && plb_mark_dirty(c, parent) < 0) ||
             stash_add(c, block, leaf) < 0 ? -1 : 0;
        if (rc == 0)
            bump(c, K_REINSERTS);
    }
    c->depth--;
    return rc;
}

/* PLB.fill plus the victim handling that follows it: a resident block is
 * touched (dirty flags OR together); otherwise a full set evicts its LRU
 * line (plb.evictions, plb.dirty_evictions when dirty, and with ``fetch``
 * fetch_posmap_block's second dirty count of the same line), the block
 * becomes the MRU line, and the victim is re-inserted.
 */
static int
plb_fill(KernelState *c, long long block, long long dirty, int fetch)
{
    Py_ssize_t slot = lru_slot(&c->plb, block);
    if (slot == -2)
        return -1;
    if (slot >= 0) {
        lru_touch(&c->plb, block, slot, c->plb.dirty[slot] || dirty);
        return 0;
    }
    long long victim, victim_dirty;
    if (!lru_fill(&c->plb, block, dirty, &victim, &victim_dirty))
        return 0;
    bump(c, K_PLB_EVICTIONS);
    if (victim_dirty)
        add_count(c, K_PLB_DIRTY_EVICTIONS, fetch ? 2 : 1);
    return reinsert(c, victim);
}

/* Controller._find_in_treetop over the flat slot array: the first slot
 * holding ``block`` in the cached top of the path to ``leaf``, or NULL.
 * The level goes to ``*level_out``.  Returns 0, or -1 with an exception
 * set for a leaf outside the tree.
 */
static int
find_top(KernelState *c, long long block, long long leaf,
         long long *level_out, long long **slot_out)
{
    *slot_out = NULL;
    if (c->top > 0 && (leaf < 0 || leaf >= (1LL << (c->levels - 1)))) {
        PyErr_Format(PyExc_RuntimeError, "leaf %lld outside the tree", leaf);
        return -1;
    }
    for (long long level = 0; level < c->top; level++) {
        long long *slots = path_bucket(c, leaf, level);
        for (long long s = 0; s < c->z_arr[level]; s++) {
            if (slots[s] == block) {
                *level_out = level;
                *slot_out = &slots[s];
                return 0;
            }
        }
    }
    return 0;
}

/* Controller._try_promote: move a PosMap block that is on chip but not in
 * the PLB into the PLB for free.  A stash resident always promotes; a
 * tree-top resident only under the S-Stash, found by its block address
 * (the probe is counted), still mapped, and in the cached top of its
 * path: its slot is blanked, its S-Stash entry released and its mapping
 * dropped.  Either way the PLB fill dirties the block and re-inserts any
 * victim.
 */
static int
try_promote(KernelState *c, long long block)
{
    int rc = on_chip(c, block);
    if (rc != 0)
        return rc < 0 ? -1 : 0;
    Py_ssize_t at = slab_find(c, block);
    if (at >= 0) {
        if (check_mapped_index(c, block) < 0)
            return -1;
        slab_kill(c, at);
        c->leaf_table[block] = UNMAPPED;
        if (plb_fill(c, block, 1, 0) < 0)
            return -1;
        bump(c, K_STASH_PROMOTIONS);
        return 0;
    }
    if (c->top == 0 || !c->gated)
        return 0;
    long long entry;
    if (check_mapped_index(c, block) < 0 ||
        sstash_entry(c, block, &entry) < 0)
        return -1;
    bump(c, entry >= SS_RESIDENT ? K_PROBE_HITS : K_PROBE_MISSES);
    if (entry < SS_RESIDENT)
        return 0;
    long long leaf = c->leaf_table[block];
    if (leaf == UNMAPPED)
        return 0;
    long long level, *slot;
    if (find_top(c, block, leaf, &level, &slot) < 0)
        return -1;
    if (slot == NULL)
        return 0;
    /* ORAMTree.remove, SStash.on_remove, PositionMap.discard. */
    *slot = EMPTY;
    c->level_used[level]--;
    if (sstash_remove(c, block) < 0)
        return -1;
    bump(c, K_SSTASH_REMOVED);
    c->leaf_table[block] = UNMAPPED;
    if (plb_fill(c, block, 1, 0) < 0)
        return -1;
    bump(c, K_TREETOP_PROMOTIONS);
    return 0;
}

/* Controller._translation_chain: the PosMap blocks to fetch before
 * ``block``'s leaf is known, deepest first, into ``chain`` (``*n`` of
 * them: pm2 then pm1, pm1, or none), promoting on-chip PosMap blocks on
 * the way.  PosMap2 blocks translate through the on-chip PosMap3.
 */
static int
walk(KernelState *c, long long block, long long *chain, int *n)
{
    *n = 0;
    if (block < 0 || block >= c->total) {
        PyErr_Format(PyExc_ValueError, "block %lld outside namespace", block);
        return -1;
    }
    if (block >= c->p2_base)
        return 0;
    long long pm1 = -1, pm2;
    if (block < c->p1_base) {
        pm1 = c->p1_base + block / c->fanout;
        pm2 = c->p2_base + (pm1 - c->p1_base) / c->fanout;
    } else {
        pm2 = c->p2_base + (block - c->p1_base) / c->fanout;
    }
    if (try_promote(c, pm2) < 0)
        return -1;
    int pm2_ready = on_chip(c, pm2);
    if (pm2_ready < 0)
        return -1;
    if (pm1 >= 0) {
        if (try_promote(c, pm1) < 0)
            return -1;
        int pm1_ready = on_chip(c, pm1);
        if (pm1_ready != 0)
            return pm1_ready < 0 ? -1 : 0;
    }
    if (!pm2_ready)
        chain[(*n)++] = pm2;
    if (pm1 >= 0)
        chain[(*n)++] = pm1;
    return 0;
}

/* A block argument, as a C integer. */
static int
block_arg(PyObject *obj, long long *out)
{
    if (!PyLong_Check(obj)) {
        PyErr_SetString(PyExc_TypeError, "block must be an int");
        return -1;
    }
    *out = PyLong_AsLongLong(obj);
    return *out == -1 && PyErr_Occurred() ? -1 : 0;
}

/* translate(state, block) -> list of PosMap blocks to fetch
 *
 * Controller._translation_chain through walk: ``[pm2, pm1]``, ``[pm1]``,
 * ``[pm2]`` or ``[]``, with every free promotion, PLB fill and victim
 * re-insert it causes applied to the live state and counted.  A block
 * outside the namespace raises ValueError, as Namespace.kind_of does,
 * before anything is touched; a protocol violation (a victim still
 * mapped) is a RuntimeError.
 */
static PyObject *
translate(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    long long block;
    if (nargs != 2) {
        PyErr_SetString(PyExc_TypeError, "translate(state, block)");
        return NULL;
    }
    KernelState *c = state_arg(args[0]);
    if (c == NULL || block_arg(args[1], &block) < 0)
        return NULL;
    long long chain[2];
    int n;
    if (slab_open(c) < 0)
        return NULL;
    int rc = walk(c, block, chain, &n);
    slab_close(c);
    if (flush_on_exit(c, rc) < 0)
        return NULL;
    PyObject *result = PyList_New(n);
    for (int i = 0; result != NULL && i < n; i++) {
        PyObject *item = PyLong_FromLongLong(chain[i]);
        if (item == NULL)
            Py_CLEAR(result);
        else
            PyList_SET_ITEM(result, i, item);
    }
    return result;
}

/* plb_install(state, block, dirty, fetch) -> None
 *
 * Install a PosMap block that has left the tree into the PLB through
 * plb_fill: a promotion's fill (``dirty`` set) or fetch_posmap_block's
 * (``dirty`` clear, ``fetch`` set, which counts a dirty victim a second
 * time).  The block must be a PosMap block of the namespace (ValueError)
 * whose mapping is gone (RuntimeError); both are checked before anything
 * is touched.
 */
static PyObject *
plb_install(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    long long block;
    if (nargs != 4) {
        PyErr_SetString(PyExc_TypeError,
                        "plb_install(state, block, dirty, fetch)");
        return NULL;
    }
    KernelState *c = state_arg(args[0]);
    int dirty = PyObject_IsTrue(args[2]);
    int fetch = PyObject_IsTrue(args[3]);
    if (c == NULL || dirty < 0 || fetch < 0 || block_arg(args[1], &block) < 0)
        return NULL;
    if (block < c->p1_base || block >= c->total) {
        PyErr_Format(PyExc_ValueError, "block %lld is not a PosMap block",
                     block);
        return NULL;
    }
    if (check_mapped_index(c, block) < 0)
        return NULL;
    if (c->leaf_table[block] != UNMAPPED) {
        PyErr_Format(PyExc_RuntimeError, "PosMap block %lld is still mapped",
                     block);
        return NULL;
    }
    if (slab_open(c) < 0)
        return NULL;
    int rc = plb_fill(c, block, dirty, fetch);
    slab_close(c);
    return flush_on_exit(c, rc) < 0 ? NULL : Py_NewRef(Py_None);
}

/* find_in_treetop(state, block, leaf) -> (level, position) or None
 *
 * Controller._find_in_treetop through find_top: where ``block`` sits in
 * the cached top of the path to ``leaf``.  Reads the tree array only.
 */
static PyObject *
find_in_treetop(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    long long block, leaf;
    if (nargs != 3) {
        PyErr_SetString(PyExc_TypeError,
                        "find_in_treetop(state, block, leaf)");
        return NULL;
    }
    KernelState *c = state_arg(args[0]);
    if (c == NULL || block_arg(args[1], &block) < 0 ||
        block_arg(args[2], &leaf) < 0)
        return NULL;
    long long level, *slot;
    if (find_top(c, block, leaf, &level, &slot) < 0)
        return NULL;
    if (slot == NULL)
        return Py_NewRef(Py_None);
    return Py_BuildValue("(LL)", level, leaf >> (c->levels - 1 - level));
}

/* ---------------------------------------------------------------- */
/* Serving one request's slot                                        */
/* ---------------------------------------------------------------- */

/* What serve_slot did with the head request. */
enum {
    SERVE_INSTANT,  /* served on chip before the slot's path choice */
    SERVE_BLOCKED,  /* not on chip; a victim-buffer entry or background
                     * eviction takes the slot */
    SERVE_ONCHIP,   /* served on chip by the slot itself */
    SERVE_FETCH,    /* a PosMap block of its chain was fetched */
    SERVE_DATA,     /* its data path was accessed */
};

/* PositionMap.leaf_of for a block inside the position map. */
static int
mapped_leaf(const KernelState *c, long long block, long long *leaf)
{
    if (check_mapped_index(c, block) < 0)
        return -1;
    *leaf = c->leaf_table[block];
    if (*leaf == UNMAPPED) {
        PyErr_Format(PyExc_RuntimeError,
                     "block %lld has no mapping (unmapped)", block);
        return -1;
    }
    return check_leaf(c, *leaf);
}

/* request.completion = cycle. */
static int
complete(PyObject *request, long long cycle)
{
    PyObject *value = PyLong_FromLongLong(cycle);
    int rc = value != NULL
        ? PyObject_SetAttr(request, str_completion, value) : -1;
    Py_XDECREF(value);
    return rc;
}

/* Controller._count_translation: the first translation of a request
 * counts, and the request remembers it. */
static int
count_translation(KernelState *c, PyObject *request)
{
    PyObject *held = PyObject_GetAttr(request, str_translation_counted);
    int counted = held != NULL ? PyObject_IsTrue(held) : -1;
    Py_XDECREF(held);
    if (counted != 0)
        return counted < 0 ? -1 : 0;
    if (PyObject_SetAttr(request, str_translation_counted, Py_True) < 0)
        return -1;
    bump(c, K_TRANSLATIONS);
    return 0;
}

/* Controller._remove_from_treetop plus PositionMap.discard (LLC-D): the
 * block leaves the cached top of its path, its tree-top entry is
 * released and its mapping dropped. */
static int
leave_treetop(KernelState *c, long long block)
{
    long long leaf, level, *slot;
    if (mapped_leaf(c, block, &leaf) < 0 ||
        find_top(c, block, leaf, &level, &slot) < 0)
        return -1;
    if (slot == NULL) {
        PyErr_Format(PyExc_RuntimeError, "block %lld vanished from tree top",
                     block);
        return -1;
    }
    *slot = EMPTY;
    c->level_used[level]--;
    if (c->gated && sstash_remove(c, block) < 0)
        return -1;
    bump(c, c->gated ? K_SSTASH_REMOVED : K_TREETOP_REMOVED);
    c->leaf_table[block] = UNMAPPED;
    return 0;
}

/* An on-chip serve: Controller._serve_stash_hit, _serve_treetop_hit_by_
 * address and _serve_treetop_hit.  The request completes after the
 * on-chip latency, counter ``k`` counts it, a read counts on its
 * hit-level bucket ``bucket`` (a B_HIT* slot), and under LLC-D a read's
 * block leaves the ORAM: from the stash (``from_stash``) or from the
 * cached tree top.
 */
static int
serve_onchip(KernelState *c, PyObject *request, long long block,
             int reading, long long now, int k, int bucket, int from_stash)
{
    if (complete(request, now + c->onchip_latency) < 0)
        return -1;
    bump(c, k);
    if (reading)
        bump(c, bucket);
    if (!(c->delayed_remap && reading))
        return 0;
    if (!from_stash)
        return leave_treetop(c, block);
    Py_ssize_t at = slab_find(c, block);
    if (at < 0) {
        PyErr_Format(PyExc_RuntimeError, "block %lld not in stash", block);
        return -1;
    }
    if (check_mapped_index(c, block) < 0)
        return -1;
    slab_kill(c, at);
    c->leaf_table[block] = UNMAPPED;
    return 0;
}

/* Controller._finish_reinsert: an LLC-D line rejoins the tree through the
 * stash with a fresh leaf, dirtying its parent PosMap block. */
static int
finish_reinsert(KernelState *c, PyObject *request, long long block,
                long long now)
{
    long long leaf, parent = parent_of(c, block);
    if (restore_leaf(c, block, &leaf) < 0 ||
        (parent >= 0 && plb_mark_dirty(c, parent) < 0) ||
        stash_add(c, block, leaf) < 0 ||
        complete(request, now + c->onchip_latency) < 0)
        return -1;
    bump(c, K_SERVE_REINSERTS);
    return 0;
}

/* A tree-top hit after a free translation: the block sits in the cached
 * top of its path (Controller._find_in_treetop then _serve_treetop_hit).
 * Returns 1 when served, 0 when not there, or -1. */
static int
treetop_hit(KernelState *c, PyObject *request, long long block,
            int reading, long long now)
{
    long long leaf, level, *slot;
    if (mapped_leaf(c, block, &leaf) < 0 ||
        count_translation(c, request) < 0 ||
        find_top(c, block, leaf, &level, &slot) < 0)
        return -1;
    if (slot == NULL)
        return 0;
    return serve_onchip(c, request, block, reading, now,
                        K_SERVE_TREETOP_HITS, B_HIT + (int)level, 0) < 0
        ? -1 : 1;
}

/* Controller.fetch_posmap_block on the kernel tier: the PosMap block's
 * path access, which extracts it from the ORAM, then its PLB install,
 * whose victim is re-inserted. */
static int
fetch_posmap(KernelState *c, long long pm, long long now, PathOut *out,
             Py_ssize_t *pt)
{
    long long leaf, peak;
    *pt = pm < c->p2_base ? PT_POS1 : PT_POS2;
    if (mapped_leaf(c, pm, &leaf) < 0 ||
        kernel_access(c, leaf, now, pm, SERVED_EXTRACT, *pt, 1,
                      K_KERNEL_PATHS, out, &peak) < 0)
        return -1;
    bump(c, K_POSMAP_ACCESSES);
    return plb_fill(c, pm, 0, 1);
}

/* Controller.full_access for a served request's data path: the access
 * remaps the block (or, for an LLC-D read, extracts it), a read's level
 * goes to the hit-level histogram, a remap dirties the parent PosMap
 * block, which translation left on chip, and the request completes at
 * the read phase's finish, one path used. */
static int
serve_data(KernelState *c, PyObject *request, long long block, int reading,
           long long now, PathOut *out)
{
    int extract = c->delayed_remap && reading;
    long long leaf, peak;
    if (mapped_leaf(c, block, &leaf) < 0 ||
        kernel_access(c, leaf, now, block,
                      extract ? SERVED_EXTRACT : SERVED_REMAP, PT_DATA, 1,
                      K_KERNEL_PATHS, out, &peak) < 0)
        return -1;
    if (reading && out->served_level >= 0)
        bump(c, B_HIT + (int)out->served_level);
    long long parent = extract ? -1 : parent_of(c, block);
    if (parent >= 0) {
        int rc = on_chip(c, parent);
        if (rc == 0)
            PyErr_Format(PyExc_RuntimeError,
                         "parent PosMap block %lld not on chip at remap",
                         parent);
        if (rc <= 0 || plb_mark_dirty(c, parent) < 0)
            return -1;
    }
    PyObject *used = PyObject_GetAttr(request, str_paths_used);
    PyObject *next = used != NULL ? PyNumber_Add(used, int_one) : NULL;
    int rc = next != NULL && complete(request, out->finish_read) == 0
        ? PyObject_SetAttr(request, str_paths_used, next) : -1;
    Py_XDECREF(used);
    Py_XDECREF(next);
    return rc;
}

/* Controller._step_request for the head request, over a checked block
 * and kind: the chain walk, then the first missing PosMap block's fetch
 * (SERVE_FETCH), an LLC-D re-insert or a tree-top hit when translation
 * is free (SERVE_ONCHIP), or the request's data path (SERVE_DATA).
 * Returns the status, or -1 with an exception set; a path access fills
 * ``out`` and sets ``*pt`` to its path type. */
static int
step_request(KernelState *c, PyObject *request, long long block, int kind,
             long long now, PathOut *out, Py_ssize_t *pt)
{
    int reading = kind == KIND_READ;
    long long chain[2];
    int n, rc;
    if (walk(c, block, chain, &n) < 0)
        return -1;
    if (n) {
        bump(c, K_MISS_FETCHES);
        return fetch_posmap(c, chain[0], now, out, pt) < 0
            ? -1 : SERVE_FETCH;
    }
    if (count_translation(c, request) < 0)
        return -1;
    if (kind == KIND_REINSERT)
        return finish_reinsert(c, request, block, now) < 0
            ? -1 : SERVE_ONCHIP;
    rc = treetop_hit(c, request, block, reading, now);
    if (rc != 0)
        return rc < 0 ? -1 : SERVE_ONCHIP;
    if (kind == KIND_WRITEBACK)
        bump(c, K_WRITEBACK_PATHS);
    *pt = PT_DATA;
    return serve_data(c, request, block, reading, now, out) < 0
        ? -1 : SERVE_DATA;
}

/* The head queued request's share of one issue slot at ``now``, over a
 * checked block and kind, as the Python controller runs it:
 * Controller._try_instant (the stash and S-Stash probes, with the probe
 * counters; a translation walk; an LLC-D re-insert or a tree-top hit),
 * then, unless a victim-buffer entry or background eviction takes the
 * slot (SERVE_BLOCKED, nothing more done), step_request.  The request is
 * updated in place: ``completion``, ``paths_used`` and
 * ``translation_counted``; every counter and the hit-level histogram are
 * booked here.  Returns a SERVE_* status, or -1 with an exception set; a
 * path access fills ``out`` and sets ``*pt`` to its path type. */
static int
serve_slot(KernelState *c, PyObject *request, long long block, int kind,
           long long now, PathOut *out, Py_ssize_t *pt)
{
    int reading = kind == KIND_READ;
    long long chain[2];
    int n, rc;

    /* Controller._try_instant: the stash and S-Stash probes, then a
     * free translation that finds the block in the cached tree top. */
    if (slab_find(c, block) >= 0)
        return serve_onchip(c, request, block, reading, now,
                            K_SERVE_STASH_HITS, B_HIT_STASH, 1) < 0
            ? -1 : SERVE_INSTANT;
    if (c->gated) {
        long long entry;
        if (sstash_entry(c, block, &entry) < 0)
            return -1;
        bump(c, entry >= SS_RESIDENT ? K_PROBE_HITS : K_PROBE_MISSES);
        if (entry >= SS_RESIDENT)
            return serve_onchip(c, request, block, reading, now,
                                K_SERVE_SSTASH_HITS, B_HIT_SSTASH, 0) < 0
                ? -1 : SERVE_INSTANT;
    }
    if (walk(c, block, chain, &n) < 0)
        return -1;
    if (!n) {
        if (kind == KIND_REINSERT)
            return finish_reinsert(c, request, block, now) < 0
                ? -1 : SERVE_INSTANT;
        rc = treetop_hit(c, request, block, reading, now);
        if (rc != 0)
            return rc < 0 ? -1 : SERVE_INSTANT;
    }

    /* Controller._issue_priority_path: a waiting victim-buffer entry or
     * background eviction goes first. */
    Py_ssize_t waiting = PyObject_Size(c->queue);
    if (waiting < 0)
        return -1;
    if (waiting > 0 ||
        (c->background_eviction &&
         c->hdr[SLAB_LIVE] > c->eviction_threshold))
        return SERVE_BLOCKED;
    return step_request(c, request, block, kind, now, out, pt);
}

/* A request's block and kind, checked: an int block inside the
 * namespace, one of the state's request kinds.  Returns 0, or -1 with an
 * exception set. */
static int
request_fields(KernelState *c, PyObject *request, long long *block,
               int *kind)
{
    PyObject *block_obj = PyObject_GetAttr(request, str_block);
    int rc = block_obj != NULL ? block_arg(block_obj, block) : -1;
    Py_XDECREF(block_obj);
    if (rc < 0)
        return -1;
    PyObject *kind_obj = PyObject_GetAttr(request, str_kind);
    if (kind_obj == NULL)
        return -1;
    *kind = 0;
    while (*kind < N_KINDS && c->kinds[*kind] != kind_obj)
        (*kind)++;
    Py_DECREF(kind_obj);
    if (*kind == N_KINDS) {
        PyErr_SetString(PyExc_ValueError, "unknown request kind");
        return -1;
    }
    if (*block < 0 || *block >= c->total) {
        PyErr_Format(PyExc_ValueError, "block %lld outside namespace",
                     *block);
        return -1;
    }
    return 0;
}

/* ---------------------------------------------------------------- */
/* The front end: processor, LLC and the miss/completion glue        */
/* ---------------------------------------------------------------- */

/* Fields of Processor._clock (cpu/processor.py). */
enum {
    CPU_TIME, CPU_INDEX, CPU_RETIRED, CPU_FINISH, CPU_READ_HEAD,
    CPU_READ_COUNT, CPU_WRITE_HEAD, CPU_WRITE_COUNT, CPU_FIELDS
};
/* Items per processor queue entry: issue time, token, completion (-1
 * while pending). */
#define ENTRY 3
#define PENDING -1

/* One of the processor's queues: a ring of ``cap`` entries whose head
 * and length live in the clock array. */
typedef struct {
    long long *items, *head, *count;
    long long cap;
} Ring;

/* The array('q') buffers a FrontEnd holds. */
enum {
    FB_CLOCK, FB_READS, FB_WRITES, FB_LLC_BLOCKS, FB_LLC_DIRTY,
    FB_LLC_FILLS, FB_FLIGHTS, FB_FLIGHT_DIRTY, FB_STATE, N_FBUFS
};

/* FrontEnd(records, processor, llc, hierarchy, request_type, max_idle)
 *
 * One simulation's front end as drain_slots runs it, built once per
 * run: the trace's records (Trace.packed, an array('q') of gap, block
 * and is_write per record, read in place), the Processor's clock array and its two
 * queue rings with its issue width, ROB reach, MLP limit and write
 * buffer, the LastLevelCache's three arrays and ways, the
 * MemoryHierarchy's in-flight table (blocks, dirty flags and the list
 * of Requests) and its one-item last-demand-completion array, the
 * Request class the misses and evictions build, and the idle-slot
 * limit.  The geometry is checked here, the queue heads and lengths at
 * every call.  Its counts go to the KernelState's books.
 */
typedef struct {
    PyObject_HEAD
    PyObject *flight_requests, *request_type;
    Py_buffer trace;  /* the records */
    const long long *records;
    Py_ssize_t n_records;
    Py_buffer bufs[N_FBUFS];
    long long *clock, *flights, *flight_dirty, *last_demand;
    Ring reads, writes;
    LruCache llc;
    Py_ssize_t flight_cap;
    long long issue_width, rob_reach, max_reads, write_buffer, max_idle;
} FrontEnd;

static PyTypeObject FrontEndType;

static void
front_dealloc(FrontEnd *f)
{
    PyObject_GC_UnTrack(f);
    for (int i = 0; i < N_FBUFS; i++)
        PyBuffer_Release(&f->bufs[i]);
    PyBuffer_Release(&f->trace);
    Py_XDECREF(f->flight_requests);
    Py_XDECREF(f->request_type);
    Py_TYPE(f)->tp_free((PyObject *)f);
}

static int
front_traverse(FrontEnd *f, visitproc visit, void *arg)
{
    for (int i = 0; i < N_FBUFS; i++)
        Py_VISIT(f->bufs[i].obj);
    Py_VISIT(f->trace.obj);
    Py_VISIT(f->flight_requests);
    Py_VISIT(f->request_type);
    return 0;
}

/* obj.name as a C integer. */
static int
int_attr(PyObject *obj, const char *name, long long *out)
{
    PyObject *value = PyObject_GetAttrString(obj, name);
    if (value == NULL)
        return -1;
    *out = PyLong_AsLongLong(value);
    Py_DECREF(value);
    return *out == -1 && PyErr_Occurred() ? -1 : 0;
}

static PyObject *
front_new(PyTypeObject *type, PyObject *args, PyObject *kwds)
{
    static const struct { int owner; const char *name; } fields[N_FBUFS] = {
        {0, "_clock"}, {0, "_reads"}, {0, "_writes"}, {1, "_blocks"},
        {1, "_dirty"}, {1, "_fills"}, {2, "_flights"}, {2, "_flight_dirty"},
        {2, "_state"},
    };
    PyObject *owners[3], *records, *request_type;
    long long max_idle;
    if (!PyArg_ParseTuple(args, "OOOOOL:FrontEnd", &records, &owners[0],
                          &owners[1], &owners[2], &request_type, &max_idle))
        return NULL;
    FrontEnd *f = (FrontEnd *)type->tp_alloc(type, 0);
    if (f == NULL)
        return NULL;
    f->request_type = Py_NewRef(request_type);
    Py_ssize_t items = get_q_buffer(records, &f->trace, "records");
    if (items < 0)
        goto fail;
    if (items % 3 != 0) {
        PyErr_SetString(PyExc_ValueError,
                        "records must hold three items per record");
        goto fail;
    }
    f->records = f->trace.buf;
    f->n_records = items / 3;
    f->max_idle = max_idle;
    Py_ssize_t len[N_FBUFS];
    for (int i = 0; i < N_FBUFS; i++) {
        PyObject *array = PyObject_GetAttrString(owners[fields[i].owner],
                                                 fields[i].name);
        len[i] = array != NULL
            ? get_q_buffer(array, &f->bufs[i], fields[i].name) : -1;
        Py_XDECREF(array);
        if (len[i] < 0)
            goto fail;
    }
    f->flight_requests = PyObject_GetAttrString(owners[2],
                                                "_flight_requests");
    PyObject *config = PyObject_GetAttrString(owners[0], "config");
    int rc = config == NULL || f->flight_requests == NULL ||
             int_attr(config, "issue_width", &f->issue_width) < 0 ||
             int_attr(config, "max_outstanding_reads", &f->max_reads) < 0 ||
             int_attr(config, "write_buffer", &f->write_buffer) < 0 ||
             int_attr(owners[0], "_rob_reach", &f->rob_reach) < 0 ||
             int_attr(owners[1], "ways", &f->llc.ways) < 0 ? -1 : 0;
    Py_XDECREF(config);
    if (rc < 0)
        goto fail;
    f->clock = f->bufs[FB_CLOCK].buf;
    f->reads = (Ring){f->bufs[FB_READS].buf, &f->clock[CPU_READ_HEAD],
                      &f->clock[CPU_READ_COUNT], len[FB_READS] / ENTRY};
    f->writes = (Ring){f->bufs[FB_WRITES].buf, &f->clock[CPU_WRITE_HEAD],
                       &f->clock[CPU_WRITE_COUNT], len[FB_WRITES] / ENTRY};
    f->llc.blocks = f->bufs[FB_LLC_BLOCKS].buf;
    f->llc.dirty = f->bufs[FB_LLC_DIRTY].buf;
    f->llc.fills = f->bufs[FB_LLC_FILLS].buf;
    f->llc.sets = len[FB_LLC_FILLS];
    f->flights = f->bufs[FB_FLIGHTS].buf;
    f->flight_dirty = f->bufs[FB_FLIGHT_DIRTY].buf;
    f->last_demand = f->bufs[FB_STATE].buf;
    f->flight_cap = len[FB_FLIGHTS];
    if (len[FB_CLOCK] != CPU_FIELDS || len[FB_STATE] != 1 ||
        f->issue_width < 1 || f->rob_reach < 0 || f->write_buffer < 1 ||
        len[FB_READS] != ENTRY * (f->max_reads > 1 ? f->max_reads : 1) ||
        len[FB_WRITES] != ENTRY * f->write_buffer) {
        PyErr_SetString(PyExc_ValueError,
                        "processor arrays do not match its configuration");
        goto fail;
    }
    /* Every fetch in flight holds a queue entry, so the queues bound
     * the table. */
    if (!PyList_Check(f->flight_requests) ||
        PyList_GET_SIZE(f->flight_requests) != f->flight_cap ||
        len[FB_FLIGHT_DIRTY] != f->flight_cap ||
        f->flight_cap < f->reads.cap + f->writes.cap) {
        PyErr_SetString(PyExc_ValueError,
                        "in-flight table does not match the processor");
        goto fail;
    }
    if (lru_check(&f->llc, len[FB_LLC_BLOCKS], len[FB_LLC_DIRTY], "LLC") < 0)
        goto fail;
    return (PyObject *)f;
fail:
    Py_DECREF(f);
    return NULL;
}

static PyTypeObject FrontEndType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "_repro_fastpath.FrontEnd",
    .tp_basicsize = sizeof(FrontEnd),
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC,
    .tp_doc = "One simulation's processor, LLC and in-flight table.",
    .tp_new = front_new,
    .tp_dealloc = (destructor)front_dealloc,
    .tp_traverse = (traverseproc)front_traverse,
};

/* Check what Python code may have changed since the last call: the
 * queue heads and lengths, the trace index and the request list's
 * length (lru_slot checks each LLC set's fill count as it meets it).
 * Returns 0, or -1 with ValueError set. */
static int
front_check(FrontEnd *f)
{
    const Ring *rings[2] = {&f->reads, &f->writes};
    for (int i = 0; i < 2; i++) {
        const Ring *r = rings[i];
        if (*r->head < 0 || *r->head >= r->cap || *r->count < 0 ||
            *r->count > r->cap) {
            PyErr_SetString(PyExc_ValueError, "processor queue out of range");
            return -1;
        }
    }
    if (f->clock[CPU_INDEX] < 0 ||
        PyList_GET_SIZE(f->flight_requests) != f->flight_cap) {
        PyErr_SetString(PyExc_ValueError, "front end state out of range");
        return -1;
    }
    return 0;
}

static inline long long *
ring_at(const Ring *r, long long i)
{
    return r->items + ENTRY * ((*r->head + i) % r->cap);
}

/* Processor._pop: drop the head entry, returning its completion. */
static inline long long
ring_pop(Ring *r)
{
    long long completion = r->items[ENTRY * *r->head + 2];
    *r->head = (*r->head + 1) % r->cap;
    (*r->count)--;
    return completion;
}

static inline void
ring_push(Ring *r, long long issue, long long token)
{
    long long *entry = ring_at(r, *r->count);
    entry[0] = issue;
    entry[1] = token;
    entry[2] = PENDING;
    (*r->count)++;
}

/* Processor._retire_ready. */
static void
retire_ready(FrontEnd *f, Ring *r)
{
    while (*r->count) {
        long long completion = r->items[ENTRY * *r->head + 2];
        if (completion == PENDING || completion > f->clock[CPU_TIME])
            return;
        ring_pop(r);
    }
}

/* Processor._blocking_queue: the queue that stops issue, or NULL. */
static Ring *
blocking_queue(FrontEnd *f)
{
    if (*f->writes.count >= f->write_buffer)
        return &f->writes;
    if (!*f->reads.count)
        return NULL;
    if (*f->reads.count >= f->max_reads ||
        f->clock[CPU_TIME] - f->reads.items[ENTRY * *f->reads.head] >
            f->rob_reach)
        return &f->reads;
    return NULL;
}

/* Processor.complete: every pending entry holding ``token`` completes at
 * ``time``. */
static void
complete_token(FrontEnd *f, long long token, long long time)
{
    Ring *rings[2] = {&f->reads, &f->writes};
    for (int i = 0; i < 2; i++) {
        for (long long j = 0; j < *rings[i]->count; j++) {
            long long *entry = ring_at(rings[i], j);
            if (entry[1] == token && entry[2] == PENDING)
                entry[2] = time;
        }
    }
}

/* The in-flight table row of ``block`` (-1 for a free row), or -1. */
static Py_ssize_t
flight_row(const FrontEnd *f, long long block)
{
    for (Py_ssize_t row = 0; row < f->flight_cap; row++) {
        if (f->flights[row] == block)
            return row;
    }
    return -1;
}

/* Controller.enqueue, untraced: a new Request(block, kind, arrival,
 * is_write) joins the request queue and requests.<kind> counts it. */
static int
enqueue(KernelState *c, FrontEnd *f, long long block, int kind,
        long long arrival, PyObject *is_write, PyObject **out)
{
    PyObject *block_obj = PyLong_FromLongLong(block);
    PyObject *arrival_obj = PyLong_FromLongLong(arrival);
    PyObject *request = NULL;
    if (block_obj != NULL && arrival_obj != NULL) {
        PyObject *argv[4] = {block_obj, c->kinds[kind], arrival_obj,
                             is_write};
        request = PyObject_Vectorcall(f->request_type, argv, 4, NULL);
    }
    Py_XDECREF(block_obj);
    Py_XDECREF(arrival_obj);
    if (request == NULL)
        return -1;
    PyObject *ok = PyObject_CallMethodOneArg(c->requests, str_append,
                                             request);
    if (ok == NULL) {
        Py_DECREF(request);
        return -1;
    }
    Py_DECREF(ok);
    add_count(c, K_REQUESTS_READ + kind, 1);
    if (out != NULL)
        *out = request;
    else
        Py_DECREF(request);
    return 0;
}

/* MemoryHierarchy.cpu_access for one trace record: a merge into the
 * fetch in flight for the block, an LLC hit, or a miss, whose READ
 * request is enqueued and enters the in-flight table.  Sets ``*token``
 * to the block when the processor must wait for it, else to -1.
 * Returns 0, or -1 with an exception set. */
static int
cpu_access(KernelState *c, FrontEnd *f, long long block, int writing,
           long long time, long long *token)
{
    *token = -1;
    Py_ssize_t row = flight_row(f, block);
    if (row >= 0) {
        /* MSHR-style merge: writes coalesce, reads wait for the fill. */
        PyObject *request = PyList_GET_ITEM(f->flight_requests, row);
        PyObject *waiters = PyObject_GetAttr(request, str_waiters);
        PyObject *next = waiters != NULL
            ? PyNumber_Add(waiters, int_one) : NULL;
        int rc = next != NULL
            ? PyObject_SetAttr(request, str_waiters, next) : -1;
        Py_XDECREF(waiters);
        Py_XDECREF(next);
        if (rc < 0)
            return -1;
        if (writing)
            f->flight_dirty[row] = 1;
        else
            *token = block;
        return 0;
    }
    Py_ssize_t slot = lru_slot(&f->llc, block);
    if (slot == -2)
        return -1;
    if (slot >= 0) {
        lru_touch(&f->llc, block, slot, f->llc.dirty[slot] | writing);
        add_count(c, K_LLC_HITS, 1);
        return 0;
    }
    add_count(c, K_LLC_MISSES, 1);
    add_count(c, K_DEMAND_MISSES, 1);
    row = flight_row(f, -1);
    if (row < 0) {
        PyErr_SetString(PyExc_RuntimeError, "in-flight table full");
        return -1;
    }
    PyObject *request;
    if (enqueue(c, f, block, KIND_READ, time,
                writing ? Py_True : Py_False, &request) < 0)
        return -1;
    f->flights[row] = block;
    f->flight_dirty[row] = writing;
    PyList_SetItem(f->flight_requests, row, request);
    *token = block;
    return 0;
}

/* Trace record ``index``: its gap, block and whether it writes.
 * Returns 0, or -1 with ValueError set for a negative gap or block. */
static int
trace_record(FrontEnd *f, Py_ssize_t index, long long *gap,
             long long *block, int *writing)
{
    const long long *record = &f->records[3 * index];
    *gap = record[0];
    *block = record[1];
    *writing = record[2] != 0;
    if (*gap < 0 || *block < 0) {
        PyErr_SetString(PyExc_ValueError, "malformed trace record");
        return -1;
    }
    return 0;
}

/* Processor.advance_to(now, cpu_access): retire what has arrived, stall
 * on a blocking queue whose head has completed (booking the stall) or
 * stop on one that has not (a block event), and otherwise issue trace
 * records until the clock passes ``now``; past the last record, retire
 * everything completed and set the finish time.  Returns 0, or -1 with
 * an exception set. */
static int
advance_to(KernelState *c, FrontEnd *f, long long now)
{
    long long *clock = f->clock;
    for (;;) {
        retire_ready(f, &f->reads);
        retire_ready(f, &f->writes);
        if (clock[CPU_INDEX] >= f->n_records) {
            /* Processor._drain. */
            Ring *rings[2] = {&f->reads, &f->writes};
            for (int i = 0; i < 2; i++) {
                while (*rings[i]->count &&
                       rings[i]->items[ENTRY * *rings[i]->head + 2] !=
                           PENDING) {
                    long long completion = ring_pop(rings[i]);
                    if (completion > clock[CPU_TIME])
                        clock[CPU_TIME] = completion;
                }
            }
            if (!*f->reads.count && !*f->writes.count &&
                clock[CPU_FINISH] < 0)
                clock[CPU_FINISH] = clock[CPU_TIME];
            return 0;
        }
        Ring *blocker = blocking_queue(f);
        if (blocker != NULL) {
            /* Processor._unblock. */
            if (blocker->items[ENTRY * *blocker->head + 2] == PENDING) {
                add_count(c, K_CPU_BLOCK_EVENTS, 1);
                return 0;
            }
            long long completion = ring_pop(blocker);
            if (completion > clock[CPU_TIME]) {
                add_count(c, K_CPU_STALL_CYCLES,
                          completion - clock[CPU_TIME]);
                clock[CPU_TIME] = completion;
            }
            continue;
        }
        if (clock[CPU_TIME] > now)
            return 0;
        long long gap, block, token;
        int writing;
        if (trace_record(f, (Py_ssize_t)clock[CPU_INDEX], &gap, &block,
                         &writing) < 0)
            return -1;
        clock[CPU_INDEX]++;
        clock[CPU_RETIRED] += gap;
        clock[CPU_TIME] += gap / f->issue_width > 1
            ? gap / f->issue_width : 1;
        if (cpu_access(c, f, block, writing, clock[CPU_TIME], &token) < 0)
            return -1;
        if (token < 0)
            continue;
        ring_push(writing ? &f->writes : &f->reads, clock[CPU_TIME], token);
        add_count(c, writing ? K_CPU_WRITES_ISSUED : K_CPU_READS_ISSUED, 1);
    }
}

/* MemoryHierarchy.on_completion for one completed request: a demand
 * READ whose block is in flight leaves the table, raises the last demand
 * completion, fills the LLC (its victim goes back to the ORAM as an
 * LLC-D REINSERT or, when dirty, a WRITEBACK request) and completes the
 * processor entries waiting for it.  Returns 0, or -1 with an exception
 * set. */
static int
on_completion(KernelState *c, FrontEnd *f, PyObject *request)
{
    PyObject *value = PyObject_GetAttr(request, str_completion);
    if (value == NULL)
        return -1;
    if (value == Py_None) {
        Py_DECREF(value);
        PyErr_SetString(PyExc_RuntimeError,
                        "completed request lacks a completion time");
        return -1;
    }
    long long completion = PyLong_AsLongLong(value), block;
    Py_DECREF(value);
    if (completion == -1 && PyErr_Occurred())
        return -1;
    PyObject *kind = PyObject_GetAttr(request, str_kind);
    if (kind == NULL)
        return -1;
    Py_DECREF(kind);
    if (kind != c->kinds[KIND_READ])
        return 0;
    value = PyObject_GetAttr(request, str_block);
    int rc = value != NULL ? block_arg(value, &block) : -1;
    Py_XDECREF(value);
    if (rc < 0)
        return -1;
    Py_ssize_t row = block >= 0 ? flight_row(f, block) : -1;
    if (row < 0)
        return 0;  /* an internally generated access */
    long long dirty = f->flight_dirty[row];
    f->flights[row] = -1;
    if (PyList_SetItem(f->flight_requests, row, Py_NewRef(Py_None)) < 0)
        return -1;
    if (completion > *f->last_demand)
        *f->last_demand = completion;
    Py_ssize_t slot = lru_slot(&f->llc, block);
    long long victim, victim_dirty;
    if (slot == -2)
        return -1;
    if (slot >= 0) {
        lru_touch(&f->llc, block, slot, f->llc.dirty[slot] | dirty);
    } else if (lru_fill(&f->llc, block, dirty, &victim, &victim_dirty)) {
        add_count(c, K_LLC_EVICTIONS, 1);
        if (victim_dirty)
            add_count(c, K_LLC_DIRTY_EVICTIONS, 1);
        int kind = c->delayed_remap ? KIND_REINSERT
            : victim_dirty ? KIND_WRITEBACK : -1;
        if (kind >= 0 &&
            enqueue(c, f, victim, kind, completion,
                    victim_dirty ? Py_True : Py_False, NULL) < 0)
            return -1;
    }
    complete_token(f, block, completion);
    return 0;
}

/* Whether the run is over, as Simulator._loop checks after an idle slot:
 * the processor done, no request or victim-buffer entry queued, and
 * nothing in flight.  Returns 1, 0, or -1 with an exception set. */
static int
run_done(KernelState *c, FrontEnd *f)
{
    if (f->clock[CPU_INDEX] < f->n_records ||
        *f->reads.count || *f->writes.count)
        return 0;
    for (Py_ssize_t row = 0; row < f->flight_cap; row++) {
        if (f->flights[row] != -1)
            return 0;
    }
    Py_ssize_t queued = PyObject_Size(c->requests);
    Py_ssize_t waiting = queued == 0 ? PyObject_Size(c->queue) : 0;
    if (queued < 0 || waiting < 0)
        return -1;
    return queued == 0 && waiting == 0;
}

/* Simulator._advance_idle: nothing issued, so jump to the next time
 * anything can happen, the head request's arrival or the processor's
 * next issue.  Returns 0, or -1 with an exception set. */
static int
advance_idle(KernelState *c, FrontEnd *f, long long *now)
{
    long long next = -1;
    Py_ssize_t queued = PyObject_Size(c->requests);
    if (queued < 0)
        return -1;
    if (queued > 0) {
        PyObject *head = PySequence_GetItem(c->requests, 0);
        int rc = head != NULL ? int_attr(head, "arrival", &next) : -1;
        Py_XDECREF(head);
        if (rc < 0)
            return -1;
    }
    Py_ssize_t index = (Py_ssize_t)f->clock[CPU_INDEX];
    if (index < f->n_records && blocking_queue(f) == NULL) {
        /* Processor.next_request_time. */
        long long gap, block, projected;
        int writing;
        if (trace_record(f, index, &gap, &block, &writing) < 0)
            return -1;
        projected = f->clock[CPU_TIME] +
                    (gap / f->issue_width > 1 ? gap / f->issue_width : 1);
        if (next < 0 || projected < next)
            next = projected;
    }
    if (next < 0) {
        /* The processor is blocked, so a queued request must exist. */
        PyErr_SetString(PyExc_RuntimeError, "idle with a blocked processor");
        return -1;
    }
    *now = next > *now + 1 ? next : *now + 1;
    return 0;
}

/* ---------------------------------------------------------------- */
/* Draining consecutive issue slots                                  */
/* ---------------------------------------------------------------- */

/* What a drain does with a slot no real work takes: leave it empty (the
 * trace is over, or the timing defense is off), run a dummy path, or
 * hand it back so the controller's _dummy_slot fills it (IR-DWB may
 * convert it, or a subclass replaces it). */
enum { DUMMIES_NONE, DUMMIES_KERNEL, DUMMIES_CALLER };

/* Why drain_slots returned: after its cap of slots; after an idle slot
 * (without a front end: step() would return None); with the last slot's
 * dummy left to the caller; at the end of the run (with a front end). */
enum { DRAIN_BOUNDARY, DRAIN_IDLE, DRAIN_DUMMY, DRAIN_DONE };

/* One slot's outcome: the issued path's type (-1 for none) and finishes,
 * and whether the caller must fill it with a dummy. */
typedef struct {
    Py_ssize_t pt;
    long long finish_read, finish_write;
    int dummy_wanted;
} SlotOut;

/* Controller._drain_posmap_reinserts: each victim-buffer entry waiting
 * when the slot starts is taken off the queue and out of the limbo set;
 * when its translation is free (walk, with its promotions) it re-enters
 * the stash with a fresh leaf, dirtying its parent PosMap block, else it
 * goes back to the end of the queue.  Returns 0, or -1 with an exception
 * set. */
static int
drain_reinserts(KernelState *c)
{
    Py_ssize_t pending = PyObject_Size(c->queue);
    if (pending < 0)
        return -1;
    for (Py_ssize_t i = 0; i < pending; i++) {
        PyObject *key = PyObject_CallMethodNoArgs(c->queue, str_popleft);
        if (key == NULL)
            return -1;
        long long block, chain[2], leaf;
        int n = 0;
        int rc = PySet_Discard(c->limbo, key) < 0 ||
                 block_arg(key, &block) < 0 ||
                 walk(c, block, chain, &n) < 0 ? -1 : 0;
        if (rc == 0 && n) {
            PyObject *ok = PyObject_CallMethodOneArg(c->queue, str_append,
                                                     key);
            rc = ok != NULL && PySet_Add(c->limbo, key) == 0 ? 0 : -1;
            Py_XDECREF(ok);
        } else if (rc == 0) {
            long long parent = parent_of(c, block);
            rc = restore_leaf(c, block, &leaf) < 0 ||
                 (parent >= 0 && plb_mark_dirty(c, parent) < 0) ||
                 stash_add(c, block, leaf) < 0 ? -1 : 0;
            if (rc == 0)
                bump(c, K_REINSERTS);
        }
        Py_DECREF(key);
        if (rc < 0)
            return -1;
    }
    return 0;
}

/* The head of the request queue when it has arrived by ``now``: 1 with a
 * new reference in ``*request`` and its checked block and kind, 0 when
 * the queue is empty or its head arrives later, or -1 with an exception
 * set. */
static int
arrived_head(KernelState *c, long long now, PyObject **request,
             long long *block, int *kind)
{
    Py_ssize_t queued = PyObject_Size(c->requests);
    if (queued <= 0)
        return queued < 0 ? -1 : 0;
    PyObject *head = PySequence_GetItem(c->requests, 0);
    if (head == NULL)
        return -1;
    PyObject *arrival = PyObject_GetAttr(head, str_arrival);
    long long at = arrival != NULL ? PyLong_AsLongLong(arrival) : -1;
    Py_XDECREF(arrival);
    if (at == -1 && PyErr_Occurred())
        goto fail;
    if (at > now) {
        Py_DECREF(head);
        return 0;
    }
    if (request_fields(c, head, block, kind) < 0)
        goto fail;
    *request = head;
    return 1;
fail:
    Py_DECREF(head);
    return -1;
}

/* The served head request leaves the queue and joins the completions. */
static int
complete_head(KernelState *c, PyObject *request, PyObject *completions)
{
    PyObject *head = PyObject_CallMethodNoArgs(c->requests, str_popleft);
    if (head == NULL)
        return -1;
    Py_DECREF(head);
    return PyList_Append(completions, request);
}

/* Controller._step_posmap_writeback: fetch the first missing parent of
 * the victim-buffer entry at the head of the queue. */
static int
posmap_writeback(KernelState *c, long long now, PathOut *out,
                 Py_ssize_t *pt)
{
    PyObject *key = PySequence_GetItem(c->queue, 0);
    long long block, chain[2];
    int n = 0;
    int rc = key != NULL && block_arg(key, &block) == 0 ? 0 : -1;
    Py_XDECREF(key);
    if (rc < 0 || walk(c, block, chain, &n) < 0)
        return -1;
    if (!n) {
        PyErr_SetString(
            PyExc_RuntimeError,
            "victim-buffer entry with a satisfied chain survived draining");
        return -1;
    }
    bump(c, K_POSMAP_WRITEBACK_PATHS);
    return fetch_posmap(c, chain[0], now, out, pt);
}

/* Controller._eviction_path: read and write back a random path, no remap
 * and no serve, counted with its cycles. */
static int
eviction_path(KernelState *c, long long now, PathOut *out, Py_ssize_t *pt)
{
    long long leaf, peak;
    *pt = PT_EVICTION;
    if (randbelow(&c->rng, c->leaves, &leaf) < 0 ||
        kernel_access(c, leaf, now, EMPTY, SERVED_NONE, PT_EVICTION, 1,
                      K_KERNEL_PATHS, out, &peak) < 0)
        return -1;
    bump(c, K_EVICTION_PATHS);
    add_count(c, K_EVICTION_CYCLES, out->finish_write - now);
    return 0;
}

/* One issue slot at ``now``, as PathORAMController.step runs it untraced
 * on the serve tier: the victim-buffer re-inserts, then each arrived head
 * request through serve_slot until one takes the slot or waits, then
 * Controller._issue_priority_path (a victim-buffer parent fetch; a
 * background eviction, unless ``*streak`` back-to-back ones let a
 * waiting request through; the head request's step), and with nothing
 * issued a dummy slot as ``dummies`` says.  Completed requests are
 * appended to ``completions``, and ``*streak`` is
 * Controller._consecutive_evictions.  Returns 0, or -1 with an exception
 * set.
 */
static int
drain_slot(KernelState *c, long long now, int dummies, long long *streak,
           PyObject *completions, SlotOut *s)
{
    PathOut out;
    memset(&out, 0, sizeof out);
    out.finish_read = out.finish_write = now;
    s->pt = -1;
    s->dummy_wanted = 0;

    PyObject *head = NULL;
    long long block = 0;
    int kind = 0, status = SERVE_BLOCKED;
    /* The arrived head is checked before the re-inserts touch anything;
     * they leave the request queue as it is. */
    int rc = arrived_head(c, now, &head, &block, &kind);
    if (rc < 0 || drain_reinserts(c) < 0)
        goto fail;
    while (rc > 0) {
        status = serve_slot(c, head, block, kind, now, &out, &s->pt);
        if (status != SERVE_INSTANT)
            break;
        rc = complete_head(c, head, completions);
        Py_CLEAR(head);
        if (rc < 0)
            return -1;
        rc = arrived_head(c, now, &head, &block, &kind);
    }
    if (rc < 0 || status < 0)
        goto fail;
    if (head == NULL || status == SERVE_BLOCKED) {
        /* Controller._issue_priority_path. */
        Py_ssize_t waiting = PyObject_Size(c->queue);
        int over = c->background_eviction &&
                   c->hdr[SLAB_LIVE] > c->eviction_threshold;
        rc = waiting < 0 ? -1 : 0;
        if (waiting > 0) {
            rc = posmap_writeback(c, now, &out, &s->pt);
        } else if (waiting == 0 && over &&
                   (*streak < c->max_evictions || head == NULL)) {
            (*streak)++;
            rc = eviction_path(c, now, &out, &s->pt);
        } else if (waiting == 0) {
            /* An eviction storm yields to a waiting request. */
            if (over)
                bump(c, K_EVICTION_STORM_YIELDS);
            *streak = 0;
            if (head != NULL) {
                rc = status = step_request(c, head, block, kind, now, &out,
                                           &s->pt);
            } else if (dummies == DUMMIES_CALLER) {
                s->dummy_wanted = 1;
            } else if (dummies == DUMMIES_KERNEL) {
                rc = dummy_path(c, now, &out);
                s->pt = PT_DUMMY;
            }
        }
        if (rc < 0)
            goto fail;
    }
    if (head != NULL && status != SERVE_BLOCKED) {
        /* The head took the slot: a fetch, an on-chip serve or its data
         * path. */
        *streak = 0;
        if (status != SERVE_FETCH &&
            complete_head(c, head, completions) < 0)
            goto fail;
    }
    Py_XDECREF(head);
    s->finish_read = out.finish_read;
    s->finish_write = out.finish_write;
    return 0;
fail:
    Py_XDECREF(head);
    return -1;
}

/* drain_slots(state, front, now, cap, dummies, streak, idle)
 *   -> (completions, records, now, slots, stop, streak, idle)
 *
 * Run consecutive issue slots from ``now`` (drain_slot each), as the
 * simulator's loop runs PathORAMController.step for them with no hook
 * attached, without returning to the interpreter between slots.  After
 * a slot that issued a path the clock moves as the loop moves it: to
 * ``max(now + interval, finish_write)`` with the timing defense on, else
 * to ``max(now + 1, finish_write)``; after an on-chip slot it stays.
 *
 * With a FrontEnd ``front`` the call runs the loop's front end too:
 * before each slot the processor advances to ``now`` (advance_to, its
 * misses enqueued through cpu_access), and the slot runs dummies only
 * while trace records remain; after it the slot's completions are
 * applied (on_completion).  A slot that does nothing counts as idle
 * (``idle`` counts them in a row, as Simulator._loop does, up to the
 * front end's limit): the run ends there when it is over (DRAIN_DONE),
 * else the clock jumps to the next arrival or issue (advance_idle).
 * Without a front end an idle slot ends the call (DRAIN_IDLE), and the
 * completions are returned for the caller to apply.
 *
 * The call also returns after ``cap`` slots (DRAIN_BOUNDARY) and, with
 * ``dummies`` DUMMIES_CALLER, at a slot nothing real takes, whose dummy
 * the caller then runs (DRAIN_DUMMY); that slot's completions come back
 * unapplied.  ``records`` is an array('q') of (path type index, start,
 * finish_read, finish_write, stall_until) per issued path,
 * ``stall_until`` being the earliest cycle the next slot may issue;
 * ``slots`` counts the slots run, the last included; ``streak`` is the
 * eviction streak after them.  Real paths count as kernel paths and
 * dummy paths as batch paths; a call that ran any counts one batch call
 * (engine.batch.calls).  The books are flushed on every exit, also when
 * a slot fails partway: what the failed call did up to the error is
 * counted, once.
 */
static PyObject *
drain_slots(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs != 7) {
        PyErr_SetString(PyExc_TypeError,
                        "drain_slots(state, front, now, cap, dummies, "
                        "streak, idle)");
        return NULL;
    }
    KernelState *c = state_arg(args[0]);
    if (c == NULL)
        return NULL;
    FrontEnd *f = NULL;
    if (args[1] != Py_None) {
        if (!PyObject_TypeCheck(args[1], &FrontEndType)) {
            PyErr_SetString(PyExc_TypeError, "expected a FrontEnd or None");
            return NULL;
        }
        f = (FrontEnd *)args[1];
    }
    long long values[5];
    for (int i = 0; i < 5; i++) {
        values[i] = PyLong_AsLongLong(args[i + 2]);
        if (values[i] == -1 && PyErr_Occurred())
            return NULL;
    }
    long long now = values[0], cap = values[1], dummies = values[2];
    long long streak = values[3], idle = values[4];
    if (now < 0 || cap < 0 || dummies < DUMMIES_NONE ||
        dummies > DUMMIES_CALLER || streak < 0 || idle < 0) {
        PyErr_SetString(PyExc_ValueError, "malformed drain_slots call");
        return NULL;
    }
    if (f != NULL && front_check(f) < 0)
        return NULL;
    PyObject *completions = PyList_New(0);
    if (completions == NULL)
        return NULL;
    long long *records = NULL;
    Py_ssize_t n_records = 0, room = 0;
    long long slots = 0;
    int stop = DRAIN_BOUNDARY, rc = -1;
    if (slab_open(c) < 0)
        goto done;
    while (slots < cap) {
        SlotOut s;
        int mode = (int)dummies;
        if (f != NULL) {
            if (advance_to(c, f, now) < 0)
                goto done;
            if (f->clock[CPU_INDEX] >= f->n_records)
                mode = DUMMIES_NONE;
        }
        Py_ssize_t before = PyList_GET_SIZE(completions);
        if (drain_slot(c, now, mode, &streak, completions, &s) < 0)
            goto done;
        slots++;
        if (s.dummy_wanted) {
            stop = DRAIN_DUMMY;
            idle = 0;
            break;
        }
        if (s.pt < 0 && PyList_GET_SIZE(completions) == before) {
            if (f == NULL) {
                stop = DRAIN_IDLE;
                break;
            }
            int done = run_done(c, f);
            if (done < 0)
                goto done;
            if (done) {
                stop = DRAIN_DONE;
                break;
            }
            if (++idle > f->max_idle) {
                PyErr_SetString(PyExc_RuntimeError,
                                "simulation stopped making progress");
                goto done;
            }
            if (advance_idle(c, f, &now) < 0)
                goto done;
            continue;
        }
        idle = 0;
        if (f != NULL) {
            for (Py_ssize_t i = 0; i < PyList_GET_SIZE(completions); i++) {
                if (on_completion(c, f, PyList_GET_ITEM(completions, i)) < 0)
                    goto done;
            }
            if (PyList_SetSlice(completions, 0, PY_SSIZE_T_MAX, NULL) < 0)
                goto done;
        }
        if (s.pt >= 0) {
            if (n_records == room) {
                room = room ? 2 * room : 16;
                long long *grown = PyMem_Realloc(
                    records, sizeof(long long) * 5 * (size_t)room);
                if (grown == NULL) {
                    PyErr_NoMemory();
                    goto done;
                }
                records = grown;
            }
            long long stall_until, next;
            if (c->timing_protection) {
                stall_until = next = now + c->issue_interval;
            } else {
                stall_until = s.finish_write;
                next = now + 1;
            }
            long long *record = records + 5 * n_records++;
            record[0] = s.pt;
            record[1] = now;
            record[2] = s.finish_read;
            record[3] = s.finish_write;
            record[4] = stall_until;
            now = s.finish_write > next ? s.finish_write : next;
        }
    }
    rc = 0;
done:
    slab_close(c);
    /* A call that ran dummy paths is one batch call. */
    if (c->books.touched[K_BATCH_PATHS])
        bump(c, K_BATCH_CALLS);
    PyObject *array = NULL;
    if (flush_on_exit(c, rc) == 0) {
        PyObject *raw = PyBytes_FromStringAndSize(
            (const char *)records,
            (Py_ssize_t)sizeof(long long) * 5 * n_records);
        array = raw != NULL
            ? PyObject_CallFunction(array_type, "sO", "q", raw) : NULL;
        Py_XDECREF(raw);
    }
    PyMem_Free(records);
    if (array == NULL) {
        Py_DECREF(completions);
        return NULL;
    }
    return Py_BuildValue("(NNLLiLL)", completions, array, now, slots, stop,
                         streak, idle);
}

/* ---------------------------------------------------------------- */
/* Setup: position-map draws and the initial tree                    */
/* ---------------------------------------------------------------- */

/* A new array('q') of ``n`` zeros.  Returns NULL with an exception set
 * on failure. */
static PyObject *
new_q_array(Py_ssize_t n)
{
    PyObject *zero = PyObject_CallFunction(array_type, "s(i)", "q", 0);
    PyObject *array = zero != NULL ? PySequence_Repeat(zero, n) : NULL;
    Py_XDECREF(zero);
    return array;
}

/* draw_leaves(n, leaves, rng) -> array('q')
 *
 * The position map's initial leaf table: ``n`` draws of randrange(leaves)
 * through randbelow, block 0 first.  Mirrors PositionMap.__init__.
 */
static PyObject *
draw_leaves(PyObject *self, PyObject *args)
{
    Py_ssize_t n;
    long long leaves;
    PyObject *rng_obj;
    if (!PyArg_ParseTuple(args, "nLO", &n, &leaves, &rng_obj))
        return NULL;
    if (n < 0 || leaves < 1) {
        PyErr_SetString(PyExc_ValueError, "malformed draw_leaves call");
        return NULL;
    }
    PyObject *table = new_q_array(n);
    if (table == NULL)
        return NULL;
    Py_buffer view;
    if (get_q_buffer(table, &view, "leaf table") < 0) {
        Py_DECREF(table);
        return NULL;
    }
    long long *leaf = view.buf;
    Mt mt;
    Draws rng;
    int rc = draws_open(&rng, rng_obj, &mt, 0);
    for (Py_ssize_t i = 0; i < n && rc == 0; i++)
        rc = randbelow(&rng, leaves, &leaf[i]);
    if (draws_close(&rng) < 0)
        rc = -1;
    PyBuffer_Release(&view);
    if (rc < 0)
        Py_CLEAR(table);
    return table;
}

/* rng_draws(rng, calls) -> list
 *
 * One draw per (name, arg) item of ``calls``, through the same Draws the
 * setup entries open: ("getrandbits", k) for 0 <= k <= 64,
 * ("randbelow", n) for n >= 1 and ("random", None).  The self-test and
 * the tests compare it with the interpreter's own random.Random.
 */
static PyObject *
rng_draws(PyObject *self, PyObject *args)
{
    PyObject *rng_obj, *calls_obj;
    if (!PyArg_ParseTuple(args, "OO", &rng_obj, &calls_obj))
        return NULL;
    PyObject *calls = PySequence_Fast(calls_obj, "calls must be a sequence");
    if (calls == NULL)
        return NULL;
    Py_ssize_t n = PySequence_Fast_GET_SIZE(calls);
    PyObject *out = PyList_New(n);
    Mt mt;
    Draws rng;
    if (out == NULL || draws_open(&rng, rng_obj, &mt, 1) < 0) {
        Py_XDECREF(out);
        Py_DECREF(calls);
        return NULL;
    }
    for (Py_ssize_t i = 0; out != NULL && i < n; i++) {
        const char *name;
        PyObject *arg_obj, *draw = NULL;
        long long arg;
        double u;
        uint64_t bits;
        PyObject *call = PySequence_Fast_GET_ITEM(calls, i);
        if (!PyTuple_Check(call)) {
            PyErr_SetString(PyExc_TypeError,
                            "a draw call is a (name, arg) tuple");
        } else if (!PyArg_ParseTuple(call, "sO", &name, &arg_obj)) {
            /* draw stays NULL */
        } else if (strcmp(name, "random") == 0) {
            if (draw_unit(&rng, &u) == 0)
                draw = PyFloat_FromDouble(u);
        } else if ((arg = PyLong_AsLongLong(arg_obj)) == -1 &&
                   PyErr_Occurred()) {
            /* draw stays NULL */
        } else if (strcmp(name, "getrandbits") == 0 && 0 <= arg &&
                   arg <= 64) {
            if (draw_bits(&rng, arg, &bits) == 0)
                draw = PyLong_FromUnsignedLongLong(bits);
        } else if (strcmp(name, "randbelow") == 0 && arg >= 1) {
            if (randbelow(&rng, arg, &arg) == 0)
                draw = PyLong_FromLongLong(arg);
        } else {
            PyErr_SetString(PyExc_ValueError, "malformed rng_draws call");
        }
        if (draw == NULL)
            Py_CLEAR(out);
        else
            PyList_SET_ITEM(out, i, draw);
    }
    if (draws_close(&rng) < 0)
        Py_CLEAR(out);
    Py_DECREF(calls);
    return out;
}

/* init_tree(tree_slots, leaf_table, z_per_level, level_used, rng)
 *   -> overflow blocks, a list in shuffled order
 *
 * Fill an empty tree with blocks 0 .. len(leaf_table) - 1: shuffle them
 * as Random.shuffle does (Fisher-Yates, j = randbelow(i + 1) for i = n - 1
 * down to 1), then put each, in shuffled order, into the deepest bucket
 * on the path to its leaf that has a free slot, with per-bucket fill
 * counts, counting each level's blocks into the ``level_used`` array.
 * Blocks whose whole path is full are returned.  Mirrors
 * ORAMTree.initialize.  The arrays' lengths and typecodes, the empty
 * occupancy and every leaf are checked before any draw or write.
 */
static PyObject *
init_tree(PyObject *self, PyObject *args)
{
    PyObject *tree_obj, *table_obj, *z_obj, *used_obj, *rng_obj;
    if (!PyArg_ParseTuple(args, "OOOOO", &tree_obj, &table_obj, &z_obj,
                          &used_obj, &rng_obj))
        return NULL;
    PyObject *z_seq = PySequence_Fast(z_obj, "z_per_level must be a sequence");
    if (z_seq == NULL)
        return NULL;
    Py_buffer tree_buf, table_buf, used_buf;
    tree_buf.obj = table_buf.obj = used_buf.obj = NULL;
    Py_ssize_t *order = NULL;
    uint32_t *fill = NULL;
    PyObject *overflow = NULL;
    Py_ssize_t levels = PySequence_Fast_GET_SIZE(z_seq);
    if (levels < 1 || levels >= FASTPATH_MAX_LEVELS) {
        PyErr_SetString(PyExc_ValueError, "unsupported level count");
        goto done;
    }
    long long z_arr[FASTPATH_MAX_LEVELS], offset[FASTPATH_MAX_LEVELS];
    long long total = level_offsets(PySequence_Fast_ITEMS(z_seq), levels,
                                    z_arr, offset);
    if (total < 0)
        goto done;
    Py_ssize_t used_len = get_q_buffer(used_obj, &used_buf, "level_used");
    if (used_len < 0)
        goto done;
    long long *used = used_buf.buf;
    if (used_len != levels) {
        PyErr_SetString(PyExc_ValueError, "unsupported level count");
        goto done;
    }
    /* Fill counts are uint32_t; their offsets and the deepest-first
     * placement order cover the levels that hold slots. */
    long long fill_at[FASTPATH_MAX_LEVELS];
    Py_ssize_t active[FASTPATH_MAX_LEVELS], n_active = 0;
    long long buckets = 0;
    for (Py_ssize_t d = 0; d < levels; d++) {
        if (used[d] != 0) {
            PyErr_SetString(PyExc_ValueError, "init_tree needs an empty tree");
            goto done;
        }
        if (z_arr[d] > UINT32_MAX) {
            PyErr_SetString(PyExc_ValueError, "z per level out of range");
            goto done;
        }
        fill_at[d] = buckets;
        if (z_arr[d] != 0) {
            buckets += 1LL << d;
            active[n_active++] = d;
        }
    }
    Py_ssize_t tree_len = get_q_buffer(tree_obj, &tree_buf, "tree_slots");
    if (tree_len < 0)
        goto done;
    if (tree_len != total) {
        PyErr_SetString(PyExc_ValueError,
                        "tree_slots length does not match z per level");
        goto done;
    }
    Py_ssize_t n = get_q_buffer(table_obj, &table_buf, "leaf_table");
    if (n < 0)
        goto done;
    const long long *table = table_buf.buf;
    long long leaves = 1LL << (levels - 1);
    for (Py_ssize_t i = 0; i < n; i++) {
        if (table[i] < 0 || table[i] >= leaves) {
            PyErr_SetString(PyExc_IndexError, "leaf out of range");
            goto done;
        }
    }
    order = PyMem_Malloc(sizeof(Py_ssize_t) * (size_t)(n ? n : 1));
    fill = PyMem_Calloc((size_t)(buckets ? buckets : 1), sizeof(uint32_t));
    if (order == NULL || fill == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    for (Py_ssize_t i = 0; i < n; i++)
        order[i] = i;
    Mt mt;
    Draws rng;
    if (draws_open(&rng, rng_obj, &mt, 0) < 0)
        goto done;
    int rc = 0;
    for (Py_ssize_t i = n - 1; i > 0 && rc == 0; i--) {
        long long j;
        rc = randbelow(&rng, i + 1, &j);
        if (rc == 0) {
            Py_ssize_t swap = order[i];
            order[i] = order[j];
            order[j] = swap;
        }
    }
    if (draws_close(&rng) < 0 || rc < 0)
        goto done;

    /* Bottom-up placement; overflow blocks gather at the front of
     * ``order``, in shuffled order (never past the block being placed). */
    long long *tree = tree_buf.buf;
    Py_ssize_t n_over = 0;
    for (Py_ssize_t i = 0; i < n; i++) {
        Py_ssize_t block = order[i];
        long long leaf = table[block];
        Py_ssize_t a = n_active - 1;
        for (; a >= 0; a--) {
            Py_ssize_t d = active[a];
            long long z = z_arr[d];
            long long position = leaf >> (levels - 1 - d);
            uint32_t *count = &fill[fill_at[d] + position];
            if (*count == z)
                continue;
            tree[offset[d] + position * z + *count] = block;
            (*count)++;
            used[d]++;
            break;
        }
        if (a < 0)
            order[n_over++] = block;
    }
    overflow = PyList_New(n_over);
    for (Py_ssize_t i = 0; overflow != NULL && i < n_over; i++) {
        PyObject *block = PyLong_FromSsize_t(order[i]);
        if (block == NULL)
            Py_CLEAR(overflow);
        else
            PyList_SET_ITEM(overflow, i, block);
    }

done:
    PyMem_Free(order);
    PyMem_Free(fill);
    PyBuffer_Release(&tree_buf);
    PyBuffer_Release(&table_buf);
    PyBuffer_Release(&used_buf);
    Py_DECREF(z_seq);
    return overflow;
}

/* ---------------------------------------------------------------- */
/* Trace generation                                                  */
/* ---------------------------------------------------------------- */

/* Random.expovariate(rate) as Python evaluates it: -log(1.0 - random())
 * divided by ``rate``, which the caller computed as 1.0 / mean. */
static int
draw_expo(Draws *r, double rate, double *out)
{
    double u;
    if (draw_unit(r, &u) < 0)
        return -1;
    *out = -log(1.0 - u) / rate;
    return 0;
}

/* The generator's LRU image of the LLC, the C form of its OrderedDict:
 * a doubly linked list of nodes, least recently used at ``head``, and a
 * linear-probing hash from an offset to its node (-1: empty).  Node
 * ``spare`` is the one the last eviction freed, -1 if none. */
typedef struct {
    long long *key;
    Py_ssize_t *prev, *next, *table;
    size_t mask;
    Py_ssize_t head, tail, size, used, spare;
} LruImage;

static size_t
image_home(const LruImage *m, long long key)
{
    unsigned long long x = (unsigned long long)key * 0x9E3779B97F4A7C15ULL;
    return (size_t)(x ^ (x >> 32)) & m->mask;
}

/* The hash slot holding ``key``, or the empty slot it would take. */
static size_t
image_find(const LruImage *m, long long key)
{
    size_t i = image_home(m, key);
    while (m->table[i] >= 0 && m->key[m->table[i]] != key)
        i = (i + 1) & m->mask;
    return i;
}

/* Empty hash slot ``i``, moving back each later member of its probe run
 * whose home does not lie cyclically in (i, j] (deletion without
 * tombstones). */
static void
image_unhash(LruImage *m, size_t i)
{
    for (;;) {
        m->table[i] = -1;
        size_t j = i;
        for (;;) {
            j = (j + 1) & m->mask;
            if (m->table[j] < 0)
                return;
            size_t home = image_home(m, m->key[m->table[j]]);
            if (i <= j ? (home <= i || home > j) : (home <= i && home > j))
                break;
        }
        m->table[i] = m->table[j];
        i = j;
    }
}

static void
image_unlink(LruImage *m, Py_ssize_t n)
{
    Py_ssize_t p = m->prev[n], q = m->next[n];
    if (p >= 0)
        m->next[p] = q;
    else
        m->head = q;
    if (q >= 0)
        m->prev[q] = p;
    else
        m->tail = p;
}

static void
image_append(LruImage *m, Py_ssize_t n)
{
    m->prev[n] = m->tail;
    m->next[n] = -1;
    if (m->tail >= 0)
        m->next[m->tail] = n;
    else
        m->head = n;
    m->tail = n;
}

/* One OrderedDict step: move a present ``key`` to the MRU end, or insert
 * it and, past ``lines`` entries, pop the LRU entry into *victim and
 * return 1. */
static int
image_access(LruImage *m, long long key, long long lines, long long *victim)
{
    size_t i = image_find(m, key);
    Py_ssize_t n = m->table[i];
    if (n >= 0) {
        if (n != m->tail) {
            image_unlink(m, n);
            image_append(m, n);
        }
        return 0;
    }
    n = m->spare >= 0 ? m->spare : m->used++;
    m->spare = -1;
    m->key[n] = key;
    m->table[i] = n;
    image_append(m, n);
    if (++m->size <= lines)
        return 0;
    Py_ssize_t lru = m->head;
    *victim = m->key[lru];
    image_unlink(m, lru);
    image_unhash(m, image_find(m, *victim));
    m->spare = lru;
    m->size--;
    return 1;
}

/* benchmark_records(count, scan_region, footprint, region, base_block,
 *                   history_cap, midreuse_span, llc_lines, ring_cap,
 *                   burst_len, (stream, reuse, spill, midreuse),
 *                   (quiet_prob, burst_prob, write_prob),
 *                   (gap_rate, quiet_rate, reuse_rate, spill_rate),
 *                   rng) -> array('q') of gap, block, is_write (0 or 1)
 *                   per record
 *
 * benchmark_trace's record loop over its derived parameters: the four
 * cumulative mode thresholds, the probabilities and the expovariate
 * rates (1.0 / mean) come summed and divided by the caller.  Each draw
 * is a random() (random, expovariate) or a randbelow (randrange) in the
 * Python loop's order, so the records and the RNG's final state are the
 * Python loop's.  The history window, the OrderedDict LRU image of the
 * LLC and the deque of recent evictions live in C memory sized by
 * ``count``; the records go straight into the flat array a Trace keeps.
 * The caller keeps every gap, block and size within int64.
 */
static PyObject *
benchmark_records(PyObject *self, PyObject *args)
{
    Py_ssize_t count;
    long long scan_region, footprint, region, base_block, history_cap,
        midreuse_span, llc_lines, ring_cap, burst_len;
    double t_stream, t_reuse, t_spill, t_mid, quiet_prob, burst_prob,
        write_prob, gap_rate, quiet_rate, reuse_rate, spill_rate;
    PyObject *rng_obj;
    if (!PyArg_ParseTuple(args, "nLLLLLLLLL(dddd)(ddd)(dddd)O", &count,
                          &scan_region, &footprint, &region, &base_block,
                          &history_cap, &midreuse_span, &llc_lines,
                          &ring_cap, &burst_len, &t_stream, &t_reuse,
                          &t_spill, &t_mid, &quiet_prob, &burst_prob,
                          &write_prob, &gap_rate, &quiet_rate, &reuse_rate,
                          &spill_rate, &rng_obj))
        return NULL;
    if (count < 1 || count > PY_SSIZE_T_MAX / 3 || scan_region < 1 ||
        footprint < 1 || region < 1 || history_cap < 4 ||
        midreuse_span < 1 || ring_cap < 1) {
        PyErr_SetString(PyExc_ValueError, "malformed benchmark_records call");
        return NULL;
    }
    /* Neither window outgrows the record count, so capping a bound at
     * ``count`` changes no record. */
    if (history_cap > count)
        history_cap = count;
    if (ring_cap > count)
        ring_cap = count;
    long long lines = llc_lines < 0 ? 0 : llc_lines;
    if (lines > count)
        lines = count;
    /* Between records the window holds at most ``history_cap`` offsets.
     * A quarter's slack past that bounds the compaction's memmove to
     * four moves a record and keeps the buffer small: with twice the
     * window, sparse-xal's peak RSS rose by 0.3 MB. */
    Py_ssize_t h_alloc = history_cap / 4 < count - history_cap - 1
                             ? history_cap + 1 + history_cap / 4 : count;
    Py_ssize_t nodes = (Py_ssize_t)lines + 1;
    size_t slots = 4;
    while (slots < 2 * (size_t)nodes)
        slots <<= 1;

    long long *hist = PyMem_New(long long, h_alloc);
    long long *ring = PyMem_New(long long, ring_cap);
    LruImage m = {NULL, NULL, NULL, NULL, slots - 1, -1, -1, 0, 0, -1};
    m.key = PyMem_New(long long, nodes);
    m.prev = PyMem_New(Py_ssize_t, nodes);
    m.next = PyMem_New(Py_ssize_t, nodes);
    m.table = PyMem_New(Py_ssize_t, slots);
    PyObject *records = NULL;
    Py_buffer view = {0};
    Mt mt;
    Draws rng = {0};
    if (hist == NULL || ring == NULL || m.key == NULL || m.prev == NULL ||
        m.next == NULL || m.table == NULL) {
        PyErr_NoMemory();
        goto fail;
    }
    records = new_q_array(3 * count);
    if (records == NULL || get_q_buffer(records, &view, "records") < 0 ||
        draws_open(&rng, rng_obj, &mt, 1) < 0)
        goto fail;
    long long *out = view.buf;
    memset(m.table, 0xff, sizeof(Py_ssize_t) * slots);

    Py_ssize_t h_head = 0, h_tail = 0, r_head = 0, r_len = 0;
    long long cursor, burst_remaining = 0, r;
    double u, e;
    if (randbelow(&rng, scan_region, &cursor) < 0)
        goto fail;
    for (Py_ssize_t i = 0; i < count; i++) {
        long long gap, offset;
        if (burst_remaining > 0) {
            if (randbelow(&rng, 3, &r) < 0)
                goto fail;
            gap = 1 + r;
            burst_remaining--;
        } else {
            if (draw_expo(&rng, gap_rate, &e) < 0)
                goto fail;
            gap = (long long)e;
            if (gap < 1)
                gap = 1;
            if (quiet_prob != 0.0) {
                if (draw_unit(&rng, &u) < 0)
                    goto fail;
                if (u < quiet_prob) {
                    if (draw_expo(&rng, quiet_rate, &e) < 0)
                        goto fail;
                    gap += (long long)e;
                }
            }
            if (draw_unit(&rng, &u) < 0)
                goto fail;
            if (u < burst_prob)
                burst_remaining = burst_len;
        }
        Py_ssize_t h_len = h_tail - h_head;
        double draw;
        if (draw_unit(&rng, &draw) < 0)
            goto fail;
        if (draw < t_stream) {
            cursor = (cursor + 1) % scan_region;
            offset = cursor;
        } else if (draw < t_reuse && h_len) {
            /* history[-min(1 + int(e), len)] */
            if (draw_expo(&rng, reuse_rate, &e) < 0)
                goto fail;
            offset = hist[h_tail - (e >= (double)(h_len - 1)
                                        ? h_len : 1 + (Py_ssize_t)e)];
        } else if (draw < t_spill && r_len) {
            /* recently_evicted[len - 1 - min(int(e), len - 1)] */
            if (draw_expo(&rng, spill_rate, &e) < 0)
                goto fail;
            Py_ssize_t back = e >= (double)(r_len - 1) ? r_len - 1
                                                       : (Py_ssize_t)e;
            offset = ring[(r_head + r_len - 1 - back) % ring_cap];
        } else if (draw < t_mid && h_len) {
            if (randbelow(&rng, h_len < midreuse_span ? h_len : midreuse_span,
                          &r) < 0)
                goto fail;
            offset = hist[h_tail - 1 - r];
        } else if (randbelow(&rng, footprint, &offset) < 0) {
            goto fail;
        }
        if (h_tail == h_alloc) {
            memmove(hist, hist + h_head, sizeof(long long) * (size_t)h_len);
            h_tail = h_len;
            h_head = 0;
        }
        hist[h_tail++] = offset;
        if (h_tail - h_head > history_cap)
            h_head += history_cap / 4;
        long long victim;
        if (image_access(&m, offset, lines, &victim)) {
            if (r_len < ring_cap) {
                ring[(r_head + r_len++) % ring_cap] = victim;
            } else {
                ring[r_head] = victim;
                r_head = (r_head + 1) % ring_cap;
            }
        }
        if (draw_unit(&rng, &u) < 0)
            goto fail;
        out[3 * i] = gap;
        out[3 * i + 1] = base_block + offset % region;
        out[3 * i + 2] = u < write_prob;
    }
    goto done;

fail:
    Py_CLEAR(records);
done:
    PyBuffer_Release(&view);
    if (draws_close(&rng) < 0)
        Py_CLEAR(records);
    PyMem_Free(hist);
    PyMem_Free(ring);
    PyMem_Free(m.key);
    PyMem_Free(m.prev);
    PyMem_Free(m.next);
    PyMem_Free(m.table);
    return records;
}

/* ---------------------------------------------------------------- */
/* The cycle breakdown                                               */
/* ---------------------------------------------------------------- */

/* attribute_cycles(records, cycles, buckets)
 *   -> (data_read, data_write, posmap_read, posmap_write, dummy_read,
 *       dummy_write, eviction_read, eviction_write, timing_stall, idle)
 *
 * CycleAttribution.finalize over its flat timeline, an array('q') of
 * (type code, start, finish_read, finish_write, stall_until) per path:
 * each path's phases, clipped to ``cycles``, go to the bucket
 * ``buckets[code]`` names (0 data, 1 PosMap, 2 dummy, 3 eviction; a code
 * past the tuple is an eviction), and the gap before each path (and
 * before ``cycles``) is a timing stall up to the previous path's
 * ``stall_until`` and idle after it.
 */
static PyObject *
attribute_cycles(PyObject *self, PyObject *args)
{
    PyObject *records_obj, *buckets;
    long long cycles;
    if (!PyArg_ParseTuple(args, "OLO!", &records_obj, &cycles, &PyTuple_Type,
                          &buckets))
        return NULL;
    Py_buffer view;
    Py_ssize_t n = get_q_buffer(records_obj, &view, "records");
    if (n < 0)
        return NULL;
    if (n % 5 != 0) {
        PyBuffer_Release(&view);
        PyErr_SetString(PyExc_ValueError, "records are not five per path");
        return NULL;
    }
    long long bucket_of[MAX_PATH_TYPES];
    Py_ssize_t n_buckets = PyTuple_GET_SIZE(buckets);
    if (n_buckets > MAX_PATH_TYPES)
        n_buckets = MAX_PATH_TYPES;
    for (Py_ssize_t i = 0; i < n_buckets; i++) {
        bucket_of[i] = PyLong_AsLongLong(PyTuple_GET_ITEM(buckets, i));
        if ((bucket_of[i] == -1 && PyErr_Occurred()) || bucket_of[i] < 0 ||
            bucket_of[i] > 3) {
            PyBuffer_Release(&view);
            if (!PyErr_Occurred())
                PyErr_SetString(PyExc_ValueError, "bucket out of range");
            return NULL;
        }
    }
    const long long *r = view.buf;
    long long sums[4][2] = {{0, 0}, {0, 0}, {0, 0}, {0, 0}};
    long long stall = 0, idle = 0, cursor = 0, stall_until = 0;
    for (Py_ssize_t base = 0; base <= n; base += 5) {
        int last = base == n;
        long long start = last ? cycles : r[base + 1];
        if (start > cycles)
            start = cycles;
        if (start > cursor) {
            long long stall_end = stall_until < start ? stall_until : start;
            if (stall_end > cursor) {
                stall += stall_end - cursor;
                cursor = stall_end;
            }
            idle += start - cursor;
        }
        if (last)
            break;
        long long finish_read = r[base + 2], finish_write = r[base + 3];
        if (finish_read > cycles)
            finish_read = cycles;
        if (finish_write > cycles)
            finish_write = cycles;
        long long code = r[base];
        long long b = code >= 0 && code < n_buckets ? bucket_of[code] : 3;
        sums[b][0] += finish_read - start;
        sums[b][1] += finish_write - finish_read;
        cursor = finish_write;
        stall_until = r[base + 4];
    }
    PyBuffer_Release(&view);
    return Py_BuildValue("(LLLLLLLLLL)", sums[0][0], sums[0][1], sums[1][0],
                         sums[1][1], sums[2][0], sums[2][1], sums[3][0],
                         sums[3][1], stall, idle);
}

static PyMethodDef fastpath_methods[] = {
    {"dram_service", dram_service, METH_VARARGS,
     "Batch DRAM timing over an array('q') of (bank, channel, row) triples."},
    {"dram_triples", dram_triples, METH_VARARGS,
     "DRAM (bank, channel, row) triples of one path, as an array('q')."},
    {"access_path", access_path, METH_VARARGS,
     "One whole path access: read, served-block step, placement, bursts."},
    {"translate", (PyCFunction)(void (*)(void))translate, METH_FASTCALL,
     "The PosMap blocks to fetch before a block's leaf is known."},
    {"plb_install", (PyCFunction)(void (*)(void))plb_install, METH_FASTCALL,
     "Install a PosMap block in the PLB and re-insert its victim."},
    {"find_in_treetop", (PyCFunction)(void (*)(void))find_in_treetop,
     METH_FASTCALL, "Where a block sits in the cached top of a path."},
    {"drain_slots", (PyCFunction)(void (*)(void))drain_slots,
     METH_FASTCALL,
     "Consecutive issue slots, with the processor and LLC between them."},
    {"attribute_cycles", attribute_cycles, METH_VARARGS,
     "Bucket a run's path timeline into its cycle breakdown."},
    {"draw_leaves", draw_leaves, METH_VARARGS,
     "The position map's initial leaf table, as an array('q')."},
    {"rng_draws", rng_draws, METH_VARARGS,
     "Draws through the setup entries' RNG, for checking the mirror."},
    {"init_tree", init_tree, METH_VARARGS,
     "Shuffle every block and place it bottom-up into an empty tree."},
    {"benchmark_records", benchmark_records, METH_VARARGS,
     "A benchmark model's trace records, drawn as benchmark_trace draws."},
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
    PyObject *random_module = PyImport_ImportModule("random");
    if (random_module == NULL)
        return NULL;
    Py_XSETREF(random_type, PyObject_GetAttrString(random_module, "Random"));
    Py_DECREF(random_module);
    if (random_type == NULL)
        return NULL;
    str_append = PyUnicode_InternFromString("append");
    str_popleft = PyUnicode_InternFromString("popleft");
    str_note_peak = PyUnicode_InternFromString("note_peak");
    str_slab = PyUnicode_InternFromString("_slab");
    str_remap_count = PyUnicode_InternFromString("remap_count");
    str_block = PyUnicode_InternFromString("block");
    str_kind = PyUnicode_InternFromString("kind");
    str_arrival = PyUnicode_InternFromString("arrival");
    str_completion = PyUnicode_InternFromString("completion");
    str_paths_used = PyUnicode_InternFromString("paths_used");
    str_translation_counted =
        PyUnicode_InternFromString("translation_counted");
    str_stash = PyUnicode_InternFromString("stash");
    str_sstash = PyUnicode_InternFromString("sstash");
    str_waiters = PyUnicode_InternFromString("waiters");
    int_one = PyLong_FromLong(1);
    if (str_append == NULL || str_popleft == NULL || str_note_peak == NULL ||
        str_slab == NULL || str_remap_count == NULL ||
        str_block == NULL || str_kind == NULL || str_arrival == NULL ||
        str_completion == NULL ||
        str_paths_used == NULL || str_translation_counted == NULL ||
        str_stash == NULL || str_sstash == NULL || str_waiters == NULL ||
        int_one == NULL || PyType_Ready(&KernelStateType) < 0 ||
        PyType_Ready(&FrontEndType) < 0)
        return NULL;
    PyObject *module = PyModule_Create(&fastpath_module);
    if (module != NULL &&
        (PyModule_AddObjectRef(module, "KernelState",
                               (PyObject *)&KernelStateType) < 0 ||
         PyModule_AddObjectRef(module, "FrontEnd",
                               (PyObject *)&FrontEndType) < 0))
        Py_CLEAR(module);
    return module;
}
