/*
 * The COMPACT kernel of the Friedman-Supowit DP, compiled.
 *
 * compact() runs one COMPACT step (paper section 2.3) on every row of a
 * stack.  Row r reads parent row rows[r] of a table matrix, folds the
 * free variable at cofactor position positions[r] and numbers the nodes
 * it creates from next_ids[r]; it writes its new table into row r of
 * the caller's output.  Rows never share nodes.
 *
 * settle() runs one DP step (Lemma 4) on a batch of successor subsets.
 * For each successor it walks the members i in ascending order, finds
 * the predecessor (successor without i) among the previous layer's
 * sorted masks, compacts that predecessor's row, and keeps the first
 * cheapest candidate: its table, mincost and i go straight
 * into the successor's rows of the caller's next layer, and every
 * candidate's (absolute predecessor mask, i, nodes created) into the
 * caller's level-cost arrays.
 *
 * New cell b reads the parent cells i0 and i1 = i0 | 2^p, where i0 is b
 * with a 0 bit spliced in at position p.  Because a root segment holds
 * a power of two cells at least 2^p, splicing into the flat index of a
 * multi-rooted table stays within b's own segment.
 *
 * A cell whose cofactors merge under the rule (u0 == u1; u1 == 0 for
 * ZDD) copies u0.  Every other cell packs (u0, u1) into a 64-bit key,
 * u0 above bit 32 (under CBDD both cofactors are first XORed with the
 * complement bit of u1, which is then kept on the produced edge).  The
 * row's distinct keys are numbered in order of first occurrence, new
 * cells scanned in index order, through an open-addressing unique table
 * (Brace, Rudell and Bryant, DAC 1990): a fixed multiplicative hash,
 * linear probing, a load of at most 1/16, and slots stamped with the
 * row that filled them, so the table is never cleared between rows.
 * Node ids thus follow first occurrence, bit for bit as the
 * cell-at-a-time transcription compact_python in tests/compact_oracle.py
 * numbers them.
 *
 * Cells are uint8, uint16, uint32 (the DP layer matrices) or int64
 * (FSState tables).  Inputs come through the buffer protocol, so
 * read-only views (checkpoint blobs) are read in place.  Every argument
 * and index is checked before anything is written, and the interpreter
 * lock is released around the work of large calls.
 *
 *     compact(parents, rows, positions, next_ids, rule, out, counts, keys)
 *         -> nodes created by all rows
 *
 * parents:   1-D (one row) or 2-D C-contiguous matrix of parent rows
 * rows, positions, next_ids:
 *            an int, or a 1-D int64 array with one entry per row
 * rule:      0 (BDD, MTBDD), 1 (ZDD) or 2 (CBDD)
 * out:       writable, the parents' cell type, one row per stack row
 *            (1-D for one row), half the parents' row width
 * counts:    None, or a writable int64 array receiving each row's nodes
 * keys:      None, or (one-row calls only) a writable 8-byte integer
 *            array of at least the new row width receiving the keys of
 *            the created nodes in creation order, u0 shifted by the cell
 *            width (32 bits for uint32 and int64 cells)
 *
 *     settle(tables, sorted_masks, order, mincost, masks, base_mask,
 *            num_terminals, rule, out, out_mincost, out_best_last,
 *            level_masks, level_vars, level_created)
 *         -> candidates written, or ~s when successor s has no
 *            predecessor in the previous layer (nothing written then)
 *
 * tables, sorted_masks, order, mincost:
 *            the previous layer: its table matrix, its masks in
 *            ascending order, the row of each, and each row's mincost
 *            (1-D int64 arrays of one entry per table row)
 * masks:     1-D int64, the batch's successor masks (relative, like
 *            the layer's)
 * base_mask, num_terminals:
 *            the sweep's base state: its placed variables and terminals
 * out:       writable, one row per successor, half the previous width
 * out_mincost, out_best_last:
 *            writable int64, at least one entry per successor
 * level_masks, level_vars, level_created:
 *            writable int64, at least one entry per member of every
 *            successor
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

/* Node ids stay below 2^31, so (u0, u1) fits a 64-bit key. */
#define NODE_LIMIT ((int64_t)1 << 31)

/* Calls compacting at least this many cells (settle(): candidates
   times row width) release the interpreter lock; smaller ones finish
   faster than handing the lock over would take. */
#define RELEASE_CELLS (1 << 14)

/* The unique table's hash: a key times 2^64 over the golden ratio, top
   bits kept. */
#define HASH_MULTIPLIER 0x9E3779B97F4A7C15ull

enum { RULE_EQUAL, RULE_ZDD, RULE_CBDD };
enum { CELL_U8, CELL_U16, CELL_U32, CELL_I64 };

static const int cell_shift[] = {8, 16, 32, 32};

/* A unique-table slot: its key, the stamp of the row that filled it
   (0 never filled) and the node's index among that row's new nodes. */
typedef struct {
    uint64_t key;
    uint32_t stamp;
    uint32_t node;
} Slot;

/* A unique table.  A call hashes into its first mask + 1 slots, a power
   of two at least SLOTS_PER_CELL times the call's row width, so a row
   fills at most 1/SLOTS_PER_CELL of them: linear probing then rarely
   takes a second step. */
typedef struct {
    Slot *slots;
    Py_ssize_t capacity;
    uint64_t mask;
    int shift;       /* 64 - log2(mask + 1) */
    uint32_t stamp;  /* the current row's */
} Unique;

#define SLOTS_PER_CELL 16

/* Tables outlive the calls that use them, so one is zeroed only when it
   is allocated: a call takes a table from this cache and gives it back,
   both with the interpreter lock held, and tables of more than
   CACHED_BYTES are freed instead. */
#define CACHED_TABLES 8
#define CACHED_BYTES ((Py_ssize_t)1 << 22)

static Unique *cache[CACHED_TABLES];
static int cached = 0;

/* ------------------------------------------------------------------ */
/* argument parsing                                                    */
/* ------------------------------------------------------------------ */

static char
format_code(const char *format)
{
    if (format == NULL)
        return 'B';
    if (format[0] == '@' || format[0] == '=')
        format++;
    return format[0] != '\0' && format[1] == '\0' ? format[0] : '\0';
}

/* The cell type of a buffer, or -1. */
static int
cell_type(const Py_buffer *view)
{
    char code = format_code(view->format);
    switch (view->itemsize) {
    case 1:
        return code == 'B' ? CELL_U8 : -1;
    case 2:
        return code == 'H' ? CELL_U16 : -1;
    case 4:
        return code == 'I' || code == 'L' ? CELL_U32 : -1;
    case 8:
        return code == 'l' || code == 'q' ? CELL_I64 : -1;
    }
    return -1;
}

static int
is_int64(const Py_buffer *view)
{
    return view->itemsize == 8 && cell_type(view) == CELL_I64;
}

/* A matrix of rows: 1-D is one row. */
static int
get_matrix(PyObject *arg, Py_buffer *view, int writable, const char *name)
{
    int flags = PyBUF_C_CONTIGUOUS | PyBUF_FORMAT;
    if (PyObject_GetBuffer(arg, view, writable ? flags | PyBUF_WRITABLE
                                               : flags) < 0)
        return -1;
    if ((view->ndim != 1 && view->ndim != 2) || cell_type(view) < 0) {
        PyErr_Format(PyExc_TypeError,
                     "%s must be a 1-D or 2-D array of uint8, uint16, "
                     "uint32 or int64 cells", name);
        PyBuffer_Release(view);
        return -1;
    }
    return 0;
}

static Py_ssize_t
matrix_rows(const Py_buffer *view)
{
    return view->ndim == 2 ? view->shape[0] : 1;
}

static Py_ssize_t
matrix_width(const Py_buffer *view)
{
    return view->shape[view->ndim - 1];
}

/* A 1-D C-contiguous int64 array of at least `least` entries. */
static int
get_array(PyObject *arg, Py_buffer *view, int writable, Py_ssize_t least,
          const char *name)
{
    int flags = PyBUF_C_CONTIGUOUS | PyBUF_FORMAT;
    if (PyObject_GetBuffer(arg, view, writable ? flags | PyBUF_WRITABLE
                                               : flags) < 0)
        return -1;
    if (view->ndim != 1 || !is_int64(view)) {
        PyErr_Format(PyExc_TypeError, "%s must be a 1-D int64 array", name);
        PyBuffer_Release(view);
        return -1;
    }
    if (view->shape[0] < least) {
        PyErr_Format(PyExc_ValueError,
                     "%s holds %zd entries, fewer than %zd", name,
                     view->shape[0], least);
        return -1;
    }
    return 0;
}

/* An int broadcast to every row, or an int64 vector of one per row. */
typedef struct {
    Py_buffer view;
    const int64_t *data;
    int64_t scalar;
    Py_ssize_t length;  /* -1 for a broadcast int */
} Vector;

static int
get_vector(PyObject *arg, Vector *vector, const char *name)
{
    vector->view.obj = NULL;
    vector->length = -1;
    vector->data = &vector->scalar;
    if (PyLong_Check(arg)) {
        vector->scalar = PyLong_AsLongLong(arg);
        return vector->scalar == -1 && PyErr_Occurred() ? -1 : 0;
    }
    if (PyObject_GetBuffer(arg, &vector->view,
                           PyBUF_C_CONTIGUOUS | PyBUF_FORMAT) < 0)
        return -1;
    if (vector->view.ndim > 1 || !is_int64(&vector->view)) {
        PyErr_Format(PyExc_TypeError,
                     "%s must be an int or a 1-D int64 array", name);
        PyBuffer_Release(&vector->view);
        vector->view.obj = NULL;
        return -1;
    }
    vector->data = (const int64_t *)vector->view.buf;
    if (vector->view.ndim == 1)
        vector->length = vector->view.shape[0];
    return 0;
}

static int64_t
element(const Vector *vector, Py_ssize_t r)
{
    return vector->length < 0 ? vector->data[0] : vector->data[r];
}

static void
release(Py_buffer *view)
{
    if (view->obj != NULL)
        PyBuffer_Release(view);
}

/* The rule code of an int, or -1 with an exception set. */
static long
get_rule(PyObject *arg)
{
    long rule = PyLong_AsLong(arg);
    if (rule == -1 && PyErr_Occurred())
        return -1;
    if (rule < RULE_EQUAL || rule > RULE_CBDD) {
        PyErr_Format(PyExc_ValueError, "unknown rule code %ld", rule);
        return -1;
    }
    return rule;
}

/* Checks that `out` has `parents`' cell type and rows of half its
   width; returns that width, or -1 with an exception set. */
static Py_ssize_t
new_width(const Py_buffer *parents, const Py_buffer *out, Py_ssize_t height)
{
    const Py_ssize_t parent_width = matrix_width(parents);
    const Py_ssize_t width = parent_width / 2;
    if (cell_type(out) != cell_type(parents)) {
        PyErr_SetString(PyExc_TypeError,
                        "out must have the parents' cell type");
        return -1;
    }
    if (parent_width < 2 || parent_width % 2 != 0
        || width > (Py_ssize_t)UINT32_MAX) {
        PyErr_Format(PyExc_ValueError,
                     "parent rows of %zd cells cannot be compacted",
                     parent_width);
        return -1;
    }
    if (matrix_width(out) != width || matrix_rows(out) != height
        || (out->ndim == 1 && height != 1)) {
        PyErr_Format(PyExc_ValueError,
                     "out must hold %zd row(s) of %zd cells", height, width);
        return -1;
    }
    return width;
}

static int
valid_position(int64_t position, Py_ssize_t width)
{
    return position >= 0 && position <= 62
           && width % ((int64_t)1 << position) == 0;
}

/* ------------------------------------------------------------------ */
/* the unique table                                                    */
/* ------------------------------------------------------------------ */

/* A table for rows of `width` cells, or NULL when out of memory. */
static Unique *
take_table(Py_ssize_t width)
{
    int bits = 1;
    while (((Py_ssize_t)1 << bits) < SLOTS_PER_CELL * width)
        bits++;
    const Py_ssize_t size = (Py_ssize_t)1 << bits;
    Unique *u = cached > 0 ? cache[--cached] : NULL;
    if (u != NULL && u->capacity < size) {
        free(u->slots);
        free(u);
        u = NULL;
    }
    if (u == NULL) {
        u = (Unique *)calloc(1, sizeof(Unique));
        if (u == NULL)
            return NULL;
        u->slots = (Slot *)calloc((size_t)size, sizeof(Slot));
        if (u->slots == NULL) {
            free(u);
            return NULL;
        }
        u->capacity = size;
    }
    u->mask = (uint64_t)size - 1;
    u->shift = 64 - bits;
    return u;
}

static void
give_table(Unique *u)
{
    if (u == NULL)
        return;
    if (cached < CACHED_TABLES
        && u->capacity * (Py_ssize_t)sizeof(Slot) <= CACHED_BYTES) {
        cache[cached++] = u;
        return;
    }
    free(u->slots);
    free(u);
}

/* Starts a row: slots of earlier rows now read as empty. */
static void
unique_next_row(Unique *u)
{
    if (++u->stamp == 0) {
        memset(u->slots, 0, (size_t)u->capacity * sizeof(Slot));
        u->stamp = 1;
    }
}

/* ------------------------------------------------------------------ */
/* one row                                                             */
/* ------------------------------------------------------------------ */

/* Writes every merged cell as u0 and every live cell as the id of its
   (u0, u1) pair, opening a node at the pair's first occurrence.  One
   copy per cell type and rule, so neither is tested per cell. */
#define COMPACT_ROW(T, RULE)                                             \
    do {                                                                 \
        const T *src = (const T *)parent;                                \
        T *dst = (T *)target;                                            \
        for (Py_ssize_t b = 0; b < width; b++) {                         \
            Py_ssize_t i0 = ((b >> position) << (position + 1))          \
                            | (b & low);                                 \
            uint64_t u0 = (uint64_t)src[i0];                             \
            uint64_t u1 = (uint64_t)src[i0 | bit];                       \
            if (RULE == RULE_ZDD ? u1 == 0 : u0 == u1) {                 \
                dst[b] = src[i0];                                        \
                continue;                                                \
            }                                                            \
            uint64_t c = RULE == RULE_CBDD ? u1 & 1 : 0;                 \
            uint64_t key = ((u0 ^ c) << 32) | (u1 ^ c);                  \
            uint64_t at = (key * HASH_MULTIPLIER) >> shift;              \
            while (slots[at].stamp == stamp && slots[at].key != key)     \
                at = (at + 1) & mask;                                    \
            Slot *slot = slots + at;                                     \
            if (slot->stamp != stamp) {                                  \
                slot->key = key;                                         \
                slot->stamp = stamp;                                     \
                slot->node = created;                                    \
                if (keys != NULL)                                        \
                    keys[created] = ((key >> 32) << cell_shift[type])    \
                                    | (key & 0xffffffffu);               \
                created++;                                               \
            }                                                            \
            int64_t id = next_id + slot->node;                           \
            dst[b] = RULE == RULE_CBDD ? (T)((id << 1) | (int64_t)c)     \
                                       : (T)id;                          \
        }                                                                \
    } while (0)

#define BY_TYPE(RULE)                                                    \
    switch (type) {                                                      \
    case CELL_U8: COMPACT_ROW(uint8_t, RULE); break;                     \
    case CELL_U16: COMPACT_ROW(uint16_t, RULE); break;                   \
    case CELL_U32: COMPACT_ROW(uint32_t, RULE); break;                   \
    default: COMPACT_ROW(int64_t, RULE); break;                          \
    }

/* One COMPACT step on one row; returns the nodes it created. */
static int64_t
compact_row(int type, const char *parent, char *target, Py_ssize_t width,
            int position, int64_t next_id, int rule, Unique *u,
            uint64_t *keys)
{
    const Py_ssize_t bit = (Py_ssize_t)1 << position, low = bit - 1;
    uint32_t created = 0;
    unique_next_row(u);
    Slot *const slots = u->slots;
    const uint64_t mask = u->mask;
    const int shift = u->shift;
    const uint32_t stamp = u->stamp;
    switch (rule) {
    case RULE_EQUAL: BY_TYPE(RULE_EQUAL); break;
    case RULE_ZDD: BY_TYPE(RULE_ZDD); break;
    default: BY_TYPE(RULE_CBDD); break;
    }
    return created;
}

/* ------------------------------------------------------------------ */
/* compact(): a stack of rows                                          */
/* ------------------------------------------------------------------ */

static PyObject *
compact(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    Py_buffer parents = {0}, out = {0}, counts = {0}, keys = {0};
    Vector rows = {0}, positions = {0}, next_ids = {0};
    PyObject *result = NULL;
    (void)module;

    if (nargs != 8) {
        PyErr_Format(PyExc_TypeError,
                     "compact() takes 8 arguments (%zd given)", nargs);
        return NULL;
    }
    if (get_matrix(args[0], &parents, 0, "parents") < 0
        || get_vector(args[1], &rows, "rows") < 0
        || get_vector(args[2], &positions, "positions") < 0
        || get_vector(args[3], &next_ids, "next_ids") < 0
        || get_matrix(args[5], &out, 1, "out") < 0)
        goto done;
    if (args[6] != Py_None
        && PyObject_GetBuffer(args[6], &counts, PyBUF_C_CONTIGUOUS
                              | PyBUF_FORMAT | PyBUF_WRITABLE) < 0)
        goto done;
    if (args[7] != Py_None
        && PyObject_GetBuffer(args[7], &keys, PyBUF_C_CONTIGUOUS
                              | PyBUF_FORMAT | PyBUF_WRITABLE) < 0)
        goto done;
    const long rule = get_rule(args[4]);
    if (rule < 0)
        goto done;

    /* The stack height: every vector argument agrees on it. */
    Py_ssize_t height = 1;
    const Vector *vectors[] = {&rows, &positions, &next_ids};
    for (int v = 0; v < 3; v++)
        if (vectors[v]->length >= 0)
            height = vectors[v]->length;
    for (int v = 0; v < 3; v++)
        if (vectors[v]->length >= 0 && vectors[v]->length != height) {
            PyErr_SetString(PyExc_ValueError,
                            "rows, positions and next_ids differ in length");
            goto done;
        }

    const int type = cell_type(&parents);
    const Py_ssize_t width = new_width(&parents, &out, height);
    if (width < 0)
        goto done;
    const Py_ssize_t parent_width = 2 * width;
    if (counts.obj != NULL
        && (counts.ndim != 1 || !is_int64(&counts)
            || counts.shape[0] < height)) {
        PyErr_Format(PyExc_ValueError,
                     "counts must be a 1-D int64 array of at least %zd "
                     "entries", height);
        goto done;
    }
    if (keys.obj != NULL
        && (height != 1 || keys.ndim != 1 || keys.itemsize != 8
            || format_code(keys.format) == '\0'
            || strchr("LlQq", format_code(keys.format)) == NULL
            || keys.shape[0] < width)) {
        PyErr_Format(PyExc_ValueError,
                     "keys must be a 1-D 8-byte integer array of at least "
                     "%zd entries, for one row", width);
        goto done;
    }
    for (Py_ssize_t r = 0; r < height; r++) {
        int64_t row = element(&rows, r), position = element(&positions, r);
        int64_t next_id = element(&next_ids, r);
        if (row < 0 || row >= matrix_rows(&parents)) {
            PyErr_Format(PyExc_ValueError,
                         "row %lld outside the %zd parent rows",
                         (long long)row, matrix_rows(&parents));
            goto done;
        }
        if (!valid_position(position, width)) {
            PyErr_Format(PyExc_ValueError,
                         "cofactor position %lld outside rows of %zd cells",
                         (long long)position, parent_width);
            goto done;
        }
        if (next_id >= NODE_LIMIT) {
            PyErr_SetString(PyExc_OverflowError, "node id space exhausted");
            goto done;
        }
        if (next_id < 0) {
            PyErr_Format(PyExc_ValueError, "negative next id %lld",
                         (long long)next_id);
            goto done;
        }
    }

    Unique *unique = take_table(width);
    if (unique == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    const Py_ssize_t itemsize = parents.itemsize;
    const char *parent = (const char *)parents.buf;
    char *target = (char *)out.buf;
    int64_t *row_counts = (int64_t *)counts.buf;
    int64_t total = 0;
    PyThreadState *thread = NULL;
    if (height * width >= RELEASE_CELLS)
        thread = PyEval_SaveThread();
    for (Py_ssize_t r = 0; r < height; r++) {
        int64_t created = compact_row(
            type, parent + element(&rows, r) * parent_width * itemsize,
            target + r * width * itemsize, width,
            (int)element(&positions, r), element(&next_ids, r), (int)rule,
            unique, (uint64_t *)keys.buf);
        if (row_counts != NULL)
            row_counts[r] = created;
        total += created;
    }
    if (thread != NULL)
        PyEval_RestoreThread(thread);
    give_table(unique);
    result = PyLong_FromLongLong(total);

done:
    release(&parents);
    release(&rows.view);
    release(&positions.view);
    release(&next_ids.view);
    release(&out);
    release(&counts);
    release(&keys);
    return result;
}

/* ------------------------------------------------------------------ */
/* settle(): a batch of successors                                     */
/* ------------------------------------------------------------------ */

/* One candidate: its predecessor's row, the variable placed last and
   that variable's cofactor position in the predecessor's table. */
typedef struct {
    int64_t row;
    int32_t var;
    int32_t position;
} Candidate;

/* What the candidate scan found wrong, reported once the interpreter
   lock is held again. */
enum { SCAN_OK, SCAN_ROW, SCAN_POSITION, SCAN_NEXT_ID, SCAN_INFEASIBLE };

typedef struct {
    int what;
    int64_t value;
    Py_ssize_t successor;
} ScanError;

/* Index of `mask` in the ascending `sorted`, or -1. */
static Py_ssize_t
search(const int64_t *sorted, Py_ssize_t length, int64_t mask)
{
    Py_ssize_t low = 0, high = length;
    while (low < high) {
        Py_ssize_t middle = low + (high - low) / 2;
        if (sorted[middle] < mask)
            low = middle + 1;
        else
            high = middle;
    }
    return low < length && sorted[low] == mask ? low : -1;
}

/* Lists every successor's candidates, checking each one's row, position
   and next id before anything reads them; ends[s] is one past
   successor s's last candidate.  Returns 0, or -1 with `error` set. */
static int
scan(const int64_t *masks, Py_ssize_t height, const int64_t *sorted,
     const int64_t *order, const int64_t *mincost, Py_ssize_t previous_rows,
     int64_t base_mask, int64_t num_terminals, Py_ssize_t width,
     Candidate *candidates, Py_ssize_t *ends, ScanError *error)
{
    Py_ssize_t c = 0;
    for (Py_ssize_t s = 0; s < height; s++) {
        const uint64_t successor = (uint64_t)masks[s];
        for (uint64_t rest = successor; rest != 0; rest &= rest - 1) {
            const int var = __builtin_ctzll(rest);
            const uint64_t below = ((uint64_t)1 << var) - 1;
            const Py_ssize_t at = search(
                sorted, previous_rows,
                (int64_t)(successor ^ ((uint64_t)1 << var)));
            if (at < 0)
                continue;
            const int64_t row = order[at];
            error->successor = s;
            if (row < 0 || row >= previous_rows) {
                error->what = SCAN_ROW;
                error->value = row;
                return -1;
            }
            const int64_t position =
                var - __builtin_popcountll((uint64_t)base_mask & below)
                - __builtin_popcountll(successor & below);
            if (!valid_position(position, width)) {
                error->what = SCAN_POSITION;
                error->value = position;
                return -1;
            }
            /* next id = num_terminals + mincost[row], checked without
               overflowing (num_terminals >= 0) */
            if (mincost[row] < -num_terminals
                || mincost[row] >= NODE_LIMIT - num_terminals) {
                error->what = SCAN_NEXT_ID;
                error->value = mincost[row];
                return -1;
            }
            candidates[c].row = row;
            candidates[c].var = var;
            candidates[c].position = (int32_t)position;
            c++;
        }
        if (c == (s > 0 ? ends[s - 1] : 0)) {
            error->what = SCAN_INFEASIBLE;
            error->successor = s;
            return -1;
        }
        ends[s] = c;
    }
    return 0;
}

static PyObject *
settle(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    enum {
        TABLES, SORTED, ORDER, MINCOST, MASKS, BASE_MASK, NUM_TERMINALS,
        RULE, OUT, OUT_MINCOST, OUT_BEST_LAST, LEVEL_MASKS, LEVEL_VARS,
        LEVEL_CREATED, NARGS
    };
    Py_buffer tables = {0}, sorted = {0}, order = {0}, mincost = {0};
    Py_buffer masks = {0}, out = {0}, out_mincost = {0}, out_best_last = {0};
    Py_buffer level_masks = {0}, level_vars = {0}, level_created = {0};
    Candidate *candidates = NULL;
    Py_ssize_t *ends = NULL;
    char *spare = NULL;
    Unique *unique = NULL;
    PyObject *result = NULL;
    (void)module;

    if (nargs != NARGS) {
        PyErr_Format(PyExc_TypeError,
                     "settle() takes %d arguments (%zd given)", NARGS, nargs);
        return NULL;
    }
    if (get_matrix(args[TABLES], &tables, 0, "tables") < 0
        || get_array(args[SORTED], &sorted, 0, 0, "sorted_masks") < 0
        || get_array(args[ORDER], &order, 0, 0, "order") < 0
        || get_array(args[MINCOST], &mincost, 0, 0, "mincost") < 0
        || get_array(args[MASKS], &masks, 0, 0, "masks") < 0)
        goto done;
    const Py_ssize_t previous_rows = matrix_rows(&tables);
    if (sorted.shape[0] != previous_rows || order.shape[0] != previous_rows
        || mincost.shape[0] != previous_rows) {
        PyErr_Format(PyExc_ValueError,
                     "previous-layer columns differ in length: %zd table "
                     "rows, %zd sorted masks, %zd rows, %zd mincosts",
                     previous_rows, sorted.shape[0], order.shape[0],
                     mincost.shape[0]);
        goto done;
    }
    const int64_t base_mask = PyLong_AsLongLong(args[BASE_MASK]);
    if (base_mask == -1 && PyErr_Occurred())
        goto done;
    const int64_t num_terminals = PyLong_AsLongLong(args[NUM_TERMINALS]);
    if (num_terminals == -1 && PyErr_Occurred())
        goto done;
    if (base_mask < 0 || num_terminals < 0) {
        PyErr_SetString(PyExc_ValueError,
                        "base_mask and num_terminals must be non-negative");
        goto done;
    }
    const long rule = get_rule(args[RULE]);
    if (rule < 0)
        goto done;

    const Py_ssize_t height = masks.shape[0];
    const int64_t *successors = (const int64_t *)masks.buf;
    Py_ssize_t bound = 0;  /* candidates at most: members of all */
    for (Py_ssize_t s = 0; s < height; s++) {
        if (successors[s] < 0) {
            PyErr_Format(PyExc_ValueError, "negative successor mask %lld",
                         (long long)successors[s]);
            goto done;
        }
        bound += __builtin_popcountll((uint64_t)successors[s]);
    }
    if (get_matrix(args[OUT], &out, 1, "out") < 0
        || get_array(args[OUT_MINCOST], &out_mincost, 1, height,
                     "out_mincost") < 0
        || get_array(args[OUT_BEST_LAST], &out_best_last, 1, height,
                     "out_best_last") < 0
        || get_array(args[LEVEL_MASKS], &level_masks, 1, bound,
                     "level_masks") < 0
        || get_array(args[LEVEL_VARS], &level_vars, 1, bound,
                     "level_vars") < 0
        || get_array(args[LEVEL_CREATED], &level_created, 1, bound,
                     "level_created") < 0)
        goto done;
    const int type = cell_type(&tables);
    const Py_ssize_t width = new_width(&tables, &out, height);
    if (width < 0)
        goto done;
    if (height == 0) {
        result = PyLong_FromLong(0);
        goto done;
    }

    const Py_ssize_t itemsize = tables.itemsize;
    candidates = (Candidate *)malloc(sizeof(Candidate) * (size_t)bound + 1);
    ends = (Py_ssize_t *)malloc(sizeof(Py_ssize_t) * (size_t)height);
    spare = (char *)malloc((size_t)(width * itemsize));
    if (candidates == NULL || ends == NULL || spare == NULL
        || (unique = take_table(width)) == NULL) {
        PyErr_NoMemory();
        goto done;
    }

    PyThreadState *thread = NULL;
    if (bound * width >= RELEASE_CELLS)
        thread = PyEval_SaveThread();
    ScanError error = {SCAN_OK, 0, 0};
    const int64_t *costs = (const int64_t *)mincost.buf;
    if (scan(successors, height, (const int64_t *)sorted.buf,
             (const int64_t *)order.buf, costs, previous_rows, base_mask,
             num_terminals, width, candidates, ends, &error) == 0) {
        const char *parent = (const char *)tables.buf;
        char *target = (char *)out.buf;
        int64_t *best_cost = (int64_t *)out_mincost.buf;
        int64_t *best_last = (int64_t *)out_best_last.buf;
        int64_t *level_mask = (int64_t *)level_masks.buf;
        int64_t *level_var = (int64_t *)level_vars.buf;
        int64_t *level_count = (int64_t *)level_created.buf;
        const size_t row_bytes = (size_t)(width * itemsize);
        Py_ssize_t c = 0;
        for (Py_ssize_t s = 0; s < height; s++) {
            /* The first candidate compacts into the successor's own
               row; a cheaper later one takes the other buffer, and the
               two swap roles. */
            char *row = target + s * row_bytes;
            char *best = spare, *trial = row;
            int64_t cheapest = INT64_MAX, winner = 0;
            for (; c < ends[s]; c++) {
                const Candidate *candidate = candidates + c;
                const int64_t cost = costs[candidate->row];
                const int64_t created = compact_row(
                    type, parent + candidate->row * 2 * row_bytes, trial,
                    width, candidate->position, num_terminals + cost,
                    (int)rule, unique, NULL);
                level_mask[c] = base_mask
                                | (successors[s] ^ ((int64_t)1
                                                    << candidate->var));
                level_var[c] = candidate->var;
                level_count[c] = created;
                if (cost + created < cheapest) {
                    cheapest = cost + created;
                    winner = candidate->var;
                    char *swap = best;
                    best = trial;
                    trial = swap;
                }
            }
            if (best != row)
                memcpy(row, best, row_bytes);
            best_cost[s] = cheapest;
            best_last[s] = winner;
        }
    }
    if (thread != NULL)
        PyEval_RestoreThread(thread);

    switch (error.what) {
    case SCAN_OK:
        result = PyLong_FromSsize_t(ends[height - 1]);
        break;
    case SCAN_INFEASIBLE:
        result = PyLong_FromSsize_t(~error.successor);
        break;
    case SCAN_ROW:
        PyErr_Format(PyExc_ValueError,
                     "row %lld outside the %zd previous rows",
                     (long long)error.value, previous_rows);
        break;
    case SCAN_POSITION:
        PyErr_Format(PyExc_ValueError,
                     "successor %lld: cofactor position %lld outside rows "
                     "of %zd cells", (long long)successors[error.successor],
                     (long long)error.value, 2 * width);
        break;
    default:
        if (error.value >= 0)
            PyErr_SetString(PyExc_OverflowError, "node id space exhausted");
        else
            PyErr_Format(PyExc_ValueError,
                         "mincost %lld makes a negative next id",
                         (long long)error.value);
    }

done:
    free(candidates);
    free(ends);
    free(spare);
    give_table(unique);
    release(&tables);
    release(&sorted);
    release(&order);
    release(&mincost);
    release(&masks);
    release(&out);
    release(&out_mincost);
    release(&out_best_last);
    release(&level_masks);
    release(&level_vars);
    release(&level_created);
    return result;
}

static PyMethodDef methods[] = {
    {"compact", (PyCFunction)(void (*)(void))compact, METH_FASTCALL,
     "compact(parents, rows, positions, next_ids, rule, out, counts, keys)"
     ": one COMPACT step on a stack of table rows; returns the nodes "
     "created."},
    {"settle", (PyCFunction)(void (*)(void))settle, METH_FASTCALL,
     "settle(tables, sorted_masks, order, mincost, masks, base_mask, "
     "num_terminals, rule, out, out_mincost, out_best_last, level_masks, "
     "level_vars, level_created): one DP step on a batch of successors; "
     "returns the candidates written, or ~s when successor s has no "
     "predecessor."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT,
    .m_name = "_compact",
    .m_doc = "The compiled COMPACT kernel of the Friedman-Supowit DP.",
    .m_size = -1,
    .m_methods = methods,
};

PyMODINIT_FUNC
PyInit__compact(void)
{
    return PyModule_Create(&module);
}
