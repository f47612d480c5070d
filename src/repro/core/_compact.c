/*
 * The COMPACT kernel of the Friedman-Supowit DP, compiled.
 *
 * One call runs one COMPACT step (paper section 2.3) on every row of a
 * stack.  Row r reads parent row rows[r] of a table matrix, folds the
 * free variable at cofactor position positions[r] and numbers the nodes
 * it creates from next_ids[r]; it writes its new table into row r of
 * the caller's output.  Rows never share nodes.
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
 * row's distinct keys are numbered in ascending key order, so node ids
 * follow sorted (u0, u1) order, bit for bit as the numpy oracle in
 * tests/compact_oracle.py numbers them: rows of up to SMALL live cells
 * sort by insertion, longer rows by a least-significant-digit-first
 * radix sort that skips the bits every key of the row shares.
 *
 * Cells are uint8, uint16, uint32 (the DP layer matrices) or int64
 * (FSState tables).  Inputs come through the buffer protocol, so
 * read-only views (checkpoint blobs, shared memory) are read in place.
 * Every index is checked before anything is written, and the
 * interpreter lock is released around the work of large calls.
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
 *            array of at least the new row width receiving the sorted
 *            keys of the created nodes, u0 shifted by the cell width
 *            (32 bits for uint32 and int64 cells)
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

/* Node ids stay below 2^31, so (u0, u1) fits a 64-bit key. */
#define NODE_LIMIT ((int64_t)1 << 31)

/* Rows with at most this many live cells sort by insertion; longer
   ones by radix, in digits of MIN_DIGIT to MAX_DIGIT bits. */
#define SMALL 32
#define MIN_DIGIT 4
#define MAX_DIGIT 11

/* Calls writing at least this many cells release the interpreter lock;
   smaller ones finish faster than handing the lock over would take. */
#define RELEASE_CELLS (1 << 14)

enum { RULE_EQUAL, RULE_ZDD, RULE_CBDD };
enum { CELL_U8, CELL_U16, CELL_U32, CELL_I64 };

static const int cell_shift[] = {8, 16, 32, 32};

typedef struct {
    uint64_t *key, *key2;
    uint32_t *cell, *cell2;
} Scratch;

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

/* ------------------------------------------------------------------ */
/* one row                                                             */
/* ------------------------------------------------------------------ */

/* Writes every merged cell and gathers the live cells' (key, cell)
   pairs into the scratch, counting them in `live`.  Under CBDD a live
   cell's complement bit is parked in its output cell. */
#define GATHER(T)                                                        \
    do {                                                                 \
        const T *src = (const T *)parent;                                \
        T *dst = (T *)target;                                            \
        for (Py_ssize_t b = 0; b < width; b++) {                         \
            Py_ssize_t i0 = ((b >> position) << (position + 1))          \
                            | (b & low);                                 \
            uint64_t u0 = (uint64_t)src[i0];                             \
            uint64_t u1 = (uint64_t)src[i0 | bit];                       \
            if (rule == RULE_ZDD ? u1 == 0 : u0 == u1) {                 \
                dst[b] = src[i0];                                        \
                continue;                                                \
            }                                                            \
            uint64_t c = rule == RULE_CBDD ? u1 & 1 : 0;                 \
            uint64_t k = ((u0 ^ c) << 32) | (u1 ^ c);                    \
            dst[b] = (T)c;                                               \
            ones |= k;                                                   \
            zeros &= k;                                                  \
            s->key[live] = k;                                            \
            s->cell[live++] = (uint32_t)b;                               \
        }                                                                \
    } while (0)

/* Numbers the sorted keys from next_id into their cells. */
#define NUMBER(T)                                                        \
    do {                                                                 \
        T *dst = (T *)target;                                            \
        for (Py_ssize_t i = 0; i < live; i++) {                          \
            id += i > 0 && key[i] != key[i - 1];                         \
            T *at = dst + cell[i];                                       \
            *at = rule == RULE_CBDD ? (T)((id << 1) | (int64_t)*at)      \
                                    : (T)id;                             \
        }                                                                \
    } while (0)

static void
insertion_sort(uint64_t *key, uint32_t *cell, Py_ssize_t n)
{
    for (Py_ssize_t i = 1; i < n; i++) {
        uint64_t k = key[i];
        uint32_t c = cell[i];
        Py_ssize_t j = i;
        for (; j > 0 && key[j - 1] > k; j--) {
            key[j] = key[j - 1];
            cell[j] = cell[j - 1];
        }
        key[j] = k;
        cell[j] = c;
    }
}

/* Bit length of x (0 for 0). */
static int
bit_length(uint32_t x)
{
    int length = 0;
    for (; x != 0; x >>= 1)
        length++;
    return length;
}

/* One stable counting pass of the radix sort, on the `bits`-bit digit
   at `shift`; the sorted pairs move to the spare arrays, which then
   swap with the live ones. */
static void
radix_pass(Scratch *s, Py_ssize_t n, int shift, int bits)
{
    uint32_t count[1 << MAX_DIGIT];
    const Py_ssize_t buckets = (Py_ssize_t)1 << bits;
    const uint64_t mask = (uint64_t)buckets - 1;
    memset(count, 0, sizeof(uint32_t) * buckets);
    for (Py_ssize_t i = 0; i < n; i++)
        count[(s->key[i] >> shift) & mask]++;
    uint32_t at = 0;
    for (Py_ssize_t d = 0; d < buckets; d++) {
        uint32_t here = count[d];
        count[d] = at;
        at += here;
    }
    for (Py_ssize_t i = 0; i < n; i++) {
        uint32_t to = count[(s->key[i] >> shift) & mask]++;
        s->key2[to] = s->key[i];
        s->cell2[to] = s->cell[i];
    }
    uint64_t *key = s->key;
    uint32_t *cell = s->cell;
    s->key = s->key2;
    s->cell = s->cell2;
    s->key2 = key;
    s->cell2 = cell;
}

/* Sorts the scratch's n pairs by key bits half + [0, 32), least
   significant digit first.  Only the bits in which some two keys
   differ (set in `differ`) take passes, in digits of about log2(n)
   bits, so a short row pays for few buckets. */
static void
radix_sort(Scratch *s, Py_ssize_t n, int half, uint32_t differ)
{
    if (differ == 0)
        return;
    int digit = MIN_DIGIT;
    while (digit < MAX_DIGIT && ((Py_ssize_t)2 << digit) <= n)
        digit++;
    int low = bit_length(differ & (~differ + 1)) - 1;
    int span = bit_length(differ) - low;
    int passes = (span + digit - 1) / digit;
    int width = (span + passes - 1) / passes;
    for (int shift = low; shift < low + span; shift += width)
        radix_pass(s, n, half + shift,
                   width < low + span - shift ? width : low + span - shift);
}

/* Sorts the scratch's n (key, cell) pairs by key: u1 (the low half)
   first, then u0.  The sorted pairs end up in key/cell. */
static void
sort_pairs(Scratch *s, Py_ssize_t n, uint64_t differ)
{
    if (n <= SMALL) {
        insertion_sort(s->key, s->cell, n);
        return;
    }
    radix_sort(s, n, 0, (uint32_t)differ);
    radix_sort(s, n, 32, (uint32_t)(differ >> 32));
}

/* One COMPACT step on one row; returns the nodes it created. */
static int64_t
compact_row(int type, const char *parent, char *target, Py_ssize_t width,
            int position, int64_t next_id, int rule, Scratch *s,
            uint64_t *keys)
{
    const Py_ssize_t bit = (Py_ssize_t)1 << position, low = bit - 1;
    uint64_t ones = 0, zeros = ~(uint64_t)0;
    Py_ssize_t live = 0;
    switch (type) {
    case CELL_U8: GATHER(uint8_t); break;
    case CELL_U16: GATHER(uint16_t); break;
    case CELL_U32: GATHER(uint32_t); break;
    default: GATHER(int64_t); break;
    }
    if (live == 0)
        return 0;
    sort_pairs(s, live, ones ^ zeros);

    const uint64_t *key = s->key;
    const uint32_t *cell = s->cell;
    int64_t id = next_id;
    switch (type) {
    case CELL_U8: NUMBER(uint8_t); break;
    case CELL_U16: NUMBER(uint16_t); break;
    case CELL_U32: NUMBER(uint32_t); break;
    default: NUMBER(int64_t); break;
    }
    if (keys != NULL) {
        const int shift = cell_shift[type];
        Py_ssize_t j = 0;
        for (Py_ssize_t i = 0; i < live; i++)
            if (i == 0 || key[i] != key[i - 1])
                keys[j++] = ((key[i] >> 32) << shift)
                            | (key[i] & 0xffffffffu);
    }
    return id - next_id + 1;
}

/* ------------------------------------------------------------------ */
/* the entry point                                                     */
/* ------------------------------------------------------------------ */

static PyObject *
compact(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    Py_buffer parents = {0}, out = {0}, counts = {0}, keys = {0};
    Vector rows = {0}, positions = {0}, next_ids = {0};
    Scratch s = {0};
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
    long rule = PyLong_AsLong(args[4]);
    if (rule == -1 && PyErr_Occurred())
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
    const Py_ssize_t parent_width = matrix_width(&parents);
    const Py_ssize_t width = parent_width / 2;
    if (rule < RULE_EQUAL || rule > RULE_CBDD) {
        PyErr_Format(PyExc_ValueError, "unknown rule code %ld", rule);
        goto done;
    }
    if (cell_type(&out) != type) {
        PyErr_SetString(PyExc_TypeError,
                        "out must have the parents' cell type");
        goto done;
    }
    if (parent_width < 2 || parent_width % 2 != 0
        || width > (Py_ssize_t)UINT32_MAX) {
        PyErr_Format(PyExc_ValueError,
                     "parent rows of %zd cells cannot be compacted",
                     parent_width);
        goto done;
    }
    if (matrix_width(&out) != width || matrix_rows(&out) != height
        || (out.ndim == 1 && height != 1)) {
        PyErr_Format(PyExc_ValueError,
                     "out must hold %zd row(s) of %zd cells", height, width);
        goto done;
    }
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
        if (position < 0 || position > 62
            || width % ((int64_t)1 << position) != 0) {
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

    void *block = malloc((size_t)width * 2
                         * (sizeof(uint64_t) + sizeof(uint32_t)));
    if (block == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    s.key = (uint64_t *)block;
    s.key2 = s.key + width;
    s.cell = (uint32_t *)(s.key2 + width);
    s.cell2 = s.cell + width;

    const Py_ssize_t itemsize = parents.itemsize;
    const char *parent = (const char *)parents.buf;
    char *target = (char *)out.buf;
    int64_t *row_counts = (int64_t *)counts.buf;
    uint64_t *row_keys = (uint64_t *)keys.buf;
    int64_t total = 0;
    PyThreadState *thread = NULL;
    if (height * width >= RELEASE_CELLS)
        thread = PyEval_SaveThread();
    for (Py_ssize_t r = 0; r < height; r++) {
        /* The radix sort swaps the scratch halves; start each row on
           the same ones. */
        Scratch row_scratch = s;
        int64_t created = compact_row(
            type, parent + element(&rows, r) * parent_width * itemsize,
            target + r * width * itemsize, width,
            (int)element(&positions, r), element(&next_ids, r), (int)rule,
            &row_scratch, row_keys);
        if (row_counts != NULL)
            row_counts[r] = created;
        total += created;
    }
    if (thread != NULL)
        PyEval_RestoreThread(thread);
    free(block);
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

static PyMethodDef methods[] = {
    {"compact", (PyCFunction)(void (*)(void))compact, METH_FASTCALL,
     "compact(parents, rows, positions, next_ids, rule, out, counts, keys)"
     ": one COMPACT step on a stack of table rows; returns the nodes "
     "created."},
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
