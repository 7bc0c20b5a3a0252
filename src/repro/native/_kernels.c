/* Compiled inner loops for the native engine tier.
 *
 * Every routine here is the C twin of a numpy reference in
 * repro/native/ref.py and must stay BIT-IDENTICAL to it: floating-point
 * sums use the same power-of-two halving tree (tree_dot below), compare
 * with the same operators, and break ties by the same conventions.  The
 * file is compiled on demand by repro/native/kernels_cext.py with
 * -O3 -ffp-contract=off and WITHOUT -ffast-math: re-association or an FMA
 * fusing a product into the tree's first add would silently break parity.
 *
 * Entry points are exported with a repro_ prefix and a plain-C ABI so
 * ctypes can bind them; they are reachable from Python only through the
 * dispatch table in repro/native/registry.py (invariant R9).
 */

#include <float.h>
#include <math.h>
#include <pthread.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define EXPORT __attribute__((visibility("default")))

/* kernels_cext.py defines REPRO_SIMD_CLONES on its first compile attempt
 * and drops it when that attempt fails (no ifunc in the toolchain).
 * Every helper a SIMD_CLONES function calls must be always_inline: an
 * out-of-line callee is compiled once, for the default target, and the
 * avx2 clone then calls SSE code from its inner loop.  An out-of-line
 * rank_dot made the avx2 rank of one query 7x slower (0.275 against
 * 0.037 ms) and of a 2 000-row batch 1.2x slower; the portable build,
 * with nothing to switch between, did not slow down. */
#if defined(REPRO_SIMD_CLONES) && defined(__x86_64__)
#define SIMD_CLONES __attribute__((target_clones("avx2", "default")))
#else
#define SIMD_CLONES
#endif

typedef int64_t i64;

/* Halving-tree dot product: the one summation-order spec shared with
 * ref.tree_rowdot — products zero-padded to pw = next pow2 >= d, then
 * x[i] += x[i + w] for w = pw/2 .. 1.  The first halving is fused with
 * the products (each product and each sum still rounds on its own, in the
 * reference's order; the explicit + 0.0 is the pad, which turns a -0.0
 * product into the reference's +0.0), so every level is a straight loop
 * over disjoint halves the compiler can vectorise.  buf holds pw/2. */
static inline __attribute__((always_inline)) double
tree_dot(const double *restrict a, const double *restrict b, i64 d,
         double *restrict buf, i64 pw) {
    i64 i, w = pw >> 1;
    if (d < 2) return d ? a[0] * b[0] : 0.0;
    for (i = 0; i < d - w; i++) buf[i] = a[i] * b[i] + a[i + w] * b[i + w];
    for (; i < w; i++) buf[i] = a[i] * b[i] + 0.0;
    while (w > 4) {
        w >>= 1;
#pragma GCC ivdep
        for (i = 0; i < w; i++) buf[i] = buf[i] + buf[i + w];
    }
    if (w == 4) return (buf[0] + buf[2]) + (buf[1] + buf[3]);
    return w == 2 ? buf[0] + buf[1] : buf[0];
}

/* Four consecutive doubles as one value: lane-wise arithmetic, each lane
 * rounded as the scalar operation would be (an avx2 register, or two SSE2
 * ones in the portable build); loads need only double alignment. */
typedef double v4d __attribute__((vector_size(32), aligned(8), may_alias));

/* The same tree when d == pw is a compile-time power of two in [8, 128]:
 * lane l of v[i] is element 4i + l, so halving whole vectors is halving
 * the elements, down to one vector whose four lanes finish as in
 * tree_dot.  Every level is a loop of constant length the compiler
 * unrolls, so the partial sums never leave registers. */
static inline __attribute__((always_inline)) double
tree_dot_pow2(const double *restrict a, const double *restrict b,
              const i64 pw) {
    const v4d *va = (const v4d *)a, *vb = (const v4d *)b;
    v4d v[16];
    i64 i, w, n = pw / 8;
    for (i = 0; i < n; i++) v[i] = va[i] * vb[i] + va[i + n] * vb[i + n];
    for (w = 8; w > 0; w >>= 1)
        if (n > w)
            for (i = 0; i < w; i++) v[i] = v[i] + v[i + w];
    return (v[0][0] + v[0][2]) + (v[0][1] + v[0][3]);
}

/* tree_dot, through the register tree at the common widths. */
static inline __attribute__((always_inline)) double
rank_dot(const double *restrict a, const double *restrict b, i64 d,
         double *restrict buf, i64 pw) {
    switch (d) {
    case 8: return tree_dot_pow2(a, b, 8);
    case 16: return tree_dot_pow2(a, b, 16);
    case 32: return tree_dot_pow2(a, b, 32);
    case 64: return tree_dot_pow2(a, b, 64);
    case 128: return tree_dot_pow2(a, b, 128);
    default: return tree_dot(a, b, d, buf, pw);
    }
}

static inline __attribute__((always_inline)) i64 next_pow2(i64 d) {
    i64 pw = 1;
    while (pw < d) pw <<= 1;
    return pw;
}

/* ------------------------------------------------------------ work queue */

/* Section V's work queue: the caller and up to n_threads - 1 pthreads it
 * creates and joins (QUEUE_MAX_THREADS in all, one per unit at most) claim
 * units 0 .. n_units - 1 from one atomic counter.  run(job, unit, scratch)
 * does one unit, writing only its outputs, with QUEUE_SCRATCH per-thread
 * buffers freed when the thread runs dry, and returns 0 or a negative
 * code.  The call returns the lowest failing unit's code, where a serial
 * run stops; no unit past a known failure starts.  A refused
 * pthread_create costs a thread. */
#define QUEUE_MAX_THREADS 64
#define QUEUE_SCRATCH 5

typedef i64 (*unit_fn)(const void *job, i64 unit, void **scratch);

typedef struct {
    unit_fn run;
    const void *job;
    i64 n_units, next, failed;  /* failed: lowest unit << 2 | -code */
} queue;

static void *drain(void *arg) {
    queue *w = (queue *)arg;
    void *scratch[QUEUE_SCRATCH] = {NULL};
    for (;;) {
        i64 u = __atomic_fetch_add(&w->next, 1, __ATOMIC_RELAXED), rc;
        if (u >= w->n_units ||
            (u << 2) > __atomic_load_n(&w->failed, __ATOMIC_RELAXED))
            break;
        if ((rc = w->run(w->job, u, scratch)) < 0) {
            i64 key = (u << 2) | -rc;
            i64 seen = __atomic_load_n(&w->failed, __ATOMIC_RELAXED);
            while (key < seen &&
                   !__atomic_compare_exchange_n(&w->failed, &seen, key, 0,
                                                __ATOMIC_RELAXED,
                                                __ATOMIC_RELAXED))
                ;
            break;
        }
    }
    for (int i = 0; i < QUEUE_SCRATCH; i++) free(scratch[i]);
    return NULL;
}

static i64 run_queue(unit_fn run, const void *job, i64 n_units,
                     i64 n_threads) {
    queue w = {run, job, n_units, 0, INT64_MAX};
    pthread_t tid[QUEUE_MAX_THREADS];
    i64 started = 0;
    if (n_threads > n_units) n_threads = n_units;
    if (n_threads > QUEUE_MAX_THREADS) n_threads = QUEUE_MAX_THREADS;
    while (started + 1 < n_threads &&
           !pthread_create(&tid[started], NULL, drain, &w))
        started++;
    drain(&w);
    while (started > 0) pthread_join(tid[--started], NULL);
    return w.failed == INT64_MAX ? 0 : -(w.failed & 3);
}

/* A call runs inline, on the caller alone, when it answers at most this many
 * queries: a solo request or a small served read never pays for a thread. */
#define INLINE_QUERIES 8

/* ---------------------------------------------------------------- lookup */

/* Lexicographic comparison of two M-long int64 code rows. */
static int row_less(const i64 *a, const i64 *b, i64 m) {
    i64 j;
    for (j = 0; j < m; j++) {
        if (a[j] < b[j]) return 1;
        if (a[j] > b[j]) return 0;
    }
    return 0;
}

static int row_eq(const i64 *a, const i64 *b, i64 m) {
    i64 j;
    for (j = 0; j < m; j++)
        if (a[j] != b[j]) return 0;
    return 1;
}

/* Index of the bucket holding `code` (-1 when absent): lower-bound binary
 * search over the lexicographically sorted distinct bucket codes —
 * exactly LSHTable._searchsorted_keys on the packed keys. */
static i64 find_bucket(const i64 *bucket_codes, i64 n_buckets, i64 m,
                       const i64 *code) {
    i64 lo = 0, hi = n_buckets;
    while (lo < hi) {
        i64 mid = lo + ((hi - lo) >> 1);
        if (row_less(bucket_codes + mid * m, code, m))
            lo = mid + 1;
        else
            hi = mid;
    }
    return (lo < n_buckets && row_eq(bucket_codes + lo * m, code, m)) ? lo
                                                                      : -1;
}

/* ------------------------------------------------------------------ sort */

/* In-place ascending sort for rank's sparse queries: insertion sort for
 * short runs, heapsort (no recursion, O(n log n) worst case) above. */
static void sift_down(i64 *v, i64 root, i64 n) {
    i64 x = v[root], child;
    while ((child = 2 * root + 1) < n) {
        if (child + 1 < n && v[child + 1] > v[child]) child++;
        if (v[child] <= x) break;
        v[root] = v[child];
        root = child;
    }
    v[root] = x;
}

static void sort_i64(i64 *v, i64 n) {
    i64 i, j;
    if (n <= 16) {
        for (i = 1; i < n; i++) {
            i64 x = v[i];
            for (j = i; j > 0 && v[j - 1] > x; j--) v[j] = v[j - 1];
            v[j] = x;
        }
        return;
    }
    for (i = n / 2 - 1; i >= 0; i--) sift_down(v, i, n);
    for (i = n - 1; i > 0; i--) {
        i64 top = v[0];
        v[0] = v[i];
        v[i] = top;
        sift_down(v, 0, i);
    }
}

/* ----------------------------------------------------------- bucket spans */

/* Addresses cross in int64 words (numpy rows built by the caller). */
#define PTR(word) ((const i64 *)(intptr_t)(word))

/* Words of one sorted layout (a table's published base, or its insert
 * overlay): lsh/table.py SortedLayout.pointers. */
enum { L_CODES, L_N_BUCKETS, L_STARTS, L_ENDS, L_IDS, L_N_IDS, L_WORDS };
/* Words of one table's entry: how many of the lookup rows are its own
 * (tables' rows follow each other in `codes` / `row_q`) and how many
 * layouts (consecutive in `layouts`) they are searched in. */
enum { T_ROWS, T_N_LAYOUTS, T_WORDS };
/* Words of one span (ref.Spans): ids [start, start + size) of array
 * `array` — an index into the caller's array addresses, the layouts'
 * sorted_ids in layout order first — of segment `segment`. */
enum { S_ARRAY, S_START, S_SIZE, S_SEGMENT, S_WORDS };

/* Spans run their tables on the work queue from this many lookup rows on,
 * inline below.  Measured on a 2-vCPU Xeon, P = 2 over P = 1 on the first
 * n rows of a batch_plain call (10 lookup rows each): 1.12-2.82x slower
 * at 80-500 rows, 0.90x at 1 000, 0.78x at 2 000, 0.55x at 20 000; the
 * 32-probe batch_adaptive call (16 500) read 0.61x. */
#define SPANS_INLINE_ROWS 2048

typedef struct {
    const i64 *codes, *row_q, *layouts;
    i64 m, nq, *spans, *misses;
    /* at[3t .. 3t + 2]: table t's first lookup row, layout and span slot;
     * table t + 1's follow. */
    const i64 *at;
} spans_job;

static i64 spans_table(const void *job, i64 t, void **scratch) {
    const spans_job *j = (const spans_job *)job;
    const i64 *at = j->at + 3 * t, *end = j->layouts + at[4] * L_WORDS;
    i64 *spans = j->spans + at[2] * S_WORDS, missed = 0;
    (void)scratch;
    for (i64 i = at[0]; i < at[3]; i++) {
        i64 q = j->row_q[i], hit = 0;
        if ((uint64_t)q >= (uint64_t)j->nq) return -2;
        for (const i64 *lay = j->layouts + at[1] * L_WORDS; lay < end;
             lay += L_WORDS, spans += S_WORDS) {
            i64 b = find_bucket(PTR(lay[L_CODES]), lay[L_N_BUCKETS], j->m,
                                j->codes + i * j->m), start = 0, len = 0;
            if (b >= 0) {
                start = PTR(lay[L_STARTS])[b];
                len = PTR(lay[L_ENDS])[b] - start;
                if (start < 0 || len < 0 || start + len > lay[L_N_IDS])
                    return -3;
            }
            spans[S_ARRAY] = (lay - j->layouts) / L_WORDS;
            spans[S_START] = start;
            spans[S_SIZE] = len;
            spans[S_SEGMENT] = q;
            hit |= len > 0;
        }
        missed += !hit;
    }
    j->misses[t] = missed;
    return 0;
}

/* Binary-search every lookup row of every table in each of the table's
 * layouts and write the interval of sorted_ids it hit (of length 0 on a
 * miss) — one span per row and layout, in that order, of the segment
 * row_q[i] names; misses[t] counts the rows of table t that hit nothing.
 * Nothing is read behind the intervals: rank_topk reads the ids.  Tables
 * run on the work queue.  Returns the number of spans, -1 when scratch
 * cannot be allocated, -2 for a row of a segment outside [0, nq), -3 for
 * an interval outside its sorted_ids. */
EXPORT i64 repro_bucket_spans(const i64 *codes, const i64 *row_q,
                              const i64 *tables, i64 n_tables,
                              const i64 *layouts, i64 m, i64 nq, i64 *spans,
                              i64 *misses, i64 n_threads) {
    i64 t, rc, *at = (i64 *)calloc((size_t)(3 * n_tables + 3), 8);
    if (!at) return -1;
    for (t = 0; t < n_tables; t++) {
        const i64 *tab = tables + t * T_WORDS;
        at[3 * t + 3] = at[3 * t] + tab[T_ROWS];
        at[3 * t + 4] = at[3 * t + 1] + tab[T_N_LAYOUTS];
        at[3 * t + 5] = at[3 * t + 2] + tab[T_ROWS] * tab[T_N_LAYOUTS];
    }
    if (nq <= INLINE_QUERIES || at[3 * n_tables] < SPANS_INLINE_ROWS)
        n_threads = 1;
    spans_job job = {codes, row_q, layouts, m, nq, spans, misses, at};
    rc = run_queue(spans_table, &job, n_tables, n_threads);
    if (rc == 0) rc = at[3 * n_tables + 2];
    free(at);
    return rc;
}

/* ------------------------------------------------------------------ rank */

/* A query of a query-major tile gathers its ids through a bitmap over its
 * id range unless that range spans more than this many 64-bit words per
 * raw id: past that, skipping the empty words costs more than sorting the
 * few ids.  Measured crossover (random ids, the two paths): about 32 words
 * per id at 32 ids, 100 at 128 and 110 from 1024 up; well below it the
 * bitmap wins by up to 4x. */
#define SPARSE_WORDS_PER_ID 64

/* rank_topk scores consecutive queries as one tile of at most RANK_TILE
 * raw ids (duplicates across tables and tombstones included) and 64
 * queries (one bit each in a row's query mask).  A batch_plain query holds
 * about 2 400 raw ids, so its tiles are 64 rows.  Measured on a 2-vCPU
 * Xeon, one 2 000-row batch_plain call at P = 1 (medians of 11): 64 k raw
 * ids per tile counted its short-lists (k = 0) in 20 ms, 128 k in 15.5,
 * 256 k in 14.3, and ranked them in 68 / 64-68 / 62-64 ms. */
#define RANK_TILE 262144
#define RANK_TILE_QUERIES 64

/* A tile of two or more queries is inverted — each candidate row read
 * once and scored against every query of the tile holding it — when it
 * holds at least this many raw ids per row of its id range, 2 kept ones
 * (at 2 kept per row inversion won 1.8-1.9x with 55 queries, 1.0-1.5x
 * with 8-16; at 1, 0.7-0.8x with 3).  A batch_plain tile holds 10 (two
 * groups' runs) or 20 (one) raw ids per row; 2, 4 and 8 ranked its call
 * alike. */
#define RANK_REUSE 4

#define TOMBSTONED(id) \
    (deleted && (uint64_t)(id) < (uint64_t)del_len && deleted[id])

/* Candidate rows are fetched this many candidates ahead of the one being
 * scored, every cache line of the row: the ids are known, the rows are
 * scattered over the matrix. */
#define PREFETCH_AHEAD 8
#define LINE_DOUBLES 8   /* doubles per 64-byte cache line */

/* One query's running top-k: its row, its norm, its output row — ordered
 * by (distance, id) ascending — how much of that row is filled, and the
 * pre-check's bound (infinity until the row is full). */
typedef struct {
    const double *q;
    double qs, bound;
    i64 *sel;
    double *dst;
    i64 filled;
} topk;

/* The squared distance above which a candidate cannot enter a full top-k
 * whose worst distance is t: fl(sqrt(d2)) > t for every d2 > bound.
 * Margin: with u = 2^-53, fl(t*t) >= t^2 (1 - u) while that product is a
 * normal number, so bound >= t^2 (1 - u)^2 (1 + 2^-40) > t^2 (1 + 2^-41);
 * d2 > bound then gives sqrt(d2) > t (1 + 2^-43), more than 500 ulps of t
 * above it, and a correctly rounded sqrt cannot come back down to t.  A
 * subnormal (or zero) t*t carries no such relative bound, and NaN none at
 * all: those return infinity, which skips nothing. */
static inline __attribute__((always_inline)) double skip_bound(double t) {
    double t2 = t * t;
    return t2 >= DBL_MIN ? t2 * (1.0 + 0x1p-40) : INFINITY;
}

/* Offer candidate `id` at squared distance d2 to t.  A d2 past the bound
 * is exactly the candidate the exact test below would turn away, so the
 * pre-check only saves its sqrt. */
static inline __attribute__((always_inline)) void
offer(topk *t, i64 k, double d2, i64 id) {
    i64 *sel = t->sel;
    double *dst = t->dst;
    if (d2 > t->bound) return;
    if (d2 < 0.0) d2 = 0.0;
    double d = sqrt(d2);
    if (t->filled == k &&
        (d > dst[k - 1] || (d == dst[k - 1] && id > sel[k - 1])))
        return;
    /* Insertion position by (distance, id) ascending. */
    i64 pos = (t->filled < k) ? t->filled : k - 1;
    while (pos > 0 &&
           (d < dst[pos - 1] || (d == dst[pos - 1] && id < sel[pos - 1]))) {
        dst[pos] = dst[pos - 1];
        sel[pos] = sel[pos - 1];
        pos--;
    }
    dst[pos] = d;
    sel[pos] = id;
    if (t->filled < k) t->filled++;
    if (t->filled == k) t->bound = skip_bound(dst[k - 1]);
}

/* One span as rank reads it. */
typedef struct {
    const i64 *ids;
    i64 len;
} run;

/* One distinct span of a tile: its ids, their range, and the queries
 * holding it (bit q - q0).  Tables and probes of nearby queries hit the
 * same buckets: a 2 000-row batch_plain call's 4.7 M raw ids are 1.7 M
 * in distinct spans per tile. */
typedef struct {
    const i64 *ids;
    i64 len, lo, hi;
    uint64_t holders;
} shared;

/* Query q's spans are runs[at[q] .. at[q + 1]), raw[q] ids in all; tile t
 * is queries [first[t], first[t + 1]), at most tile_runs spans. */
typedef struct {
    const double *data, *sq_norms, *queries;
    const run *runs;
    const i64 *at, *raw, *first;
    const unsigned char *deleted;
    i64 dim, k, pw, n_rows, del_len, max_raw, tile_runs, *sel_out, *counts;
    double *dist_out;
} rank_job;

/* Tile [q0, q1) query by query: a query's ids [lo, hi] are ORed into a
 * bitmap of that range and read back ascending with ctz, or collected and
 * sorted when the range is sparse (SPARSE_WORDS_PER_ID), duplicates and
 * tombstones dropped, into list; then each is scored, its row fetched
 * PREFETCH_AHEAD candidates early. */
static inline __attribute__((always_inline)) void
rank_query_major(const rank_job *j, topk *st, i64 q0, i64 q1, const i64 *lo,
                 const i64 *hi, uint64_t *bits, i64 *list, double *buf) {
    const unsigned char *deleted = j->deleted;
    i64 del_len = j->del_len, dim = j->dim, i, c;
    for (i64 q = q0; q < q1; q++) {
        /* A query with no ids has lo > hi: no words, no runs. */
        i64 base = lo[q - q0] >> 6, words = (hi[q - q0] >> 6) - base + 1;
        i64 n = 0, kept = 0;
        int sparse = words > SPARSE_WORDS_PER_ID * j->raw[q];
        for (const run *r = j->runs + j->at[q]; r < j->runs + j->at[q + 1];
             r++)
            for (i = 0; i < r->len; i++) {
                i64 id = r->ids[i];
                if (!sparse)
                    bits[(id >> 6) - base] |= (uint64_t)1 << (id & 63);
                else if (!TOMBSTONED(id))
                    list[n++] = id;
            }
        sort_i64(list, n);
        for (i = 0; i < n; i++)
            if (!kept || list[kept - 1] != list[i]) list[kept++] = list[i];
        for (i = 0; !sparse && i < words; i++) {
            uint64_t word = bits[i];
            if (!word) continue;
            bits[i] = 0;        /* all-zero again for the next query */
            for (; word; word &= word - 1) {
                i64 id = ((base + i) << 6) | __builtin_ctzll(word);
                if (!TOMBSTONED(id)) list[kept++] = id;
            }
        }
        j->counts[q] = kept;
        topk *t = st + (q - q0);
        for (c = 0; j->k && c < kept; c++) {
            const double *row = j->data + list[c] * dim;
            if (c + PREFETCH_AHEAD < kept) {
                const double *next = j->data + list[c + PREFETCH_AHEAD] * dim;
                for (i64 off = 0; off < dim; off += LINE_DOUBLES)
                    __builtin_prefetch(next + off);
                __builtin_prefetch(next + dim - 1);  /* a row off a line start */
            }
            double dot = rank_dot(row, t->q, dim, buf, j->pw);
            double row_sq = j->sq_norms ? j->sq_norms[list[c]]
                                        : rank_dot(row, row, dim, buf, j->pw);
            offer(t, j->k, row_sq - 2.0 * dot + t->qs, list[c]);
        }
    }
}

/* Tile [q0, q1) row by row: one pass over the tile's distinct spans ORs
 * their holders into mask[id - lo] for each of their ids (a duplicate id
 * sets the same bits again), then each live row of [lo, lo + range) is
 * read once, in ascending id, and scored against the queries of its mask:
 * each query meets each of its candidates once, in the order query by
 * query would. */
static inline __attribute__((always_inline)) void
rank_inverted(const rank_job *j, topk *st, i64 q0, const shared *spans,
              i64 n_spans, i64 lo, i64 range, uint64_t *mask, double *buf) {
    const unsigned char *deleted = j->deleted;
    i64 del_len = j->del_len, dim = j->dim, i;
    memset(mask, 0, (size_t)range * sizeof(uint64_t));
    for (const shared *e = spans; e < spans + n_spans; e++)
        for (i = 0; i < e->len; i++) mask[e->ids[i] - lo] |= e->holders;
    for (i64 r = 0; r < range; r++) {
        uint64_t holders = mask[r];
        i64 id = lo + r;
        if (!holders || TOMBSTONED(id)) continue;
        if (!j->k) {
            for (; holders; holders &= holders - 1)
                j->counts[q0 + __builtin_ctzll(holders)]++;
            continue;
        }
        const double *row = j->data + id * dim;
        double row_sq = j->sq_norms ? j->sq_norms[id]
                                    : rank_dot(row, row, dim, buf, j->pw);
        for (; holders; holders &= holders - 1) {
            i64 q = __builtin_ctzll(holders);
            j->counts[q0 + q]++;
            offer(st + q, j->k, row_sq - 2.0 * rank_dot(row, st[q].q, dim,
                                                          buf, j->pw)
                                    + st[q].qs, id);
        }
    }
}

/* rank_topk runs its tiles on the work queue from this many raw ids on,
 * inline below.  Measured on a 2-vCPU Xeon, P = 2 over P = 1 on 128
 * batch_plain queries (two tiles), one span each cut short: 1.43x slower
 * at 1.9 k raw ids, 0.87x at 3.7 k, 0.71-0.82x at 6.9-33 k; with all
 * their spans (398 k) 0.78x; the first 300 and 1 000 rows of a call
 * 0.64x and 0.58x. */
#define RANK_INLINE_IDS 8192

/* One tile.  Its spans are merged by their ids (an open-addressed table
 * of 2^b >= 2 tile_runs slots), every id of every distinct span is read
 * once for its range before any row is, and an id outside [0, n_rows)
 * refuses the call.  A tile whose queries share their candidate rows
 * (RANK_REUSE) is inverted, any other is scored query by query; the choice
 * reads the tile alone, so it is the same on every thread. */
static SIMD_CLONES i64 rank_tile(const void *job, i64 u, void **scratch) {
    const rank_job *j = (const rank_job *)job;
    i64 q0 = j->first[u], q1 = j->first[u + 1], k = j->k, total = 0, q, i;
    i64 lo[RANK_TILE_QUERIES], hi[RANK_TILE_QUERIES], t_lo = INT64_MAX;
    i64 t_hi = -1, n_shared = 0, slots = next_pow2(2 * j->tile_runs + 1);
    const run *r;
    topk st[RANK_TILE_QUERIES];
    double *buf = (double *)scratch[0];
    shared *sh = (shared *)scratch[4];
    if ((!buf && !(scratch[0] = buf = (double *)malloc(
                       (size_t)(j->pw > 1 ? j->pw >> 1 : 1) * 8))) ||
        (!sh && !(scratch[4] = sh = (shared *)malloc(
                      (size_t)(j->tile_runs + 1) * sizeof(shared) +
                      (size_t)(slots + j->tile_runs + 1) * sizeof(i64)))))
        return -1;
    i64 *slot = (i64 *)(sh + j->tile_runs + 1), *of = slot + slots;
    memset(slot, 0xff, (size_t)slots * sizeof(i64));
    for (r = j->runs + j->at[q0]; r < j->runs + j->at[q1]; r++) {
        uint64_t h = ((uint64_t)(uintptr_t)r->ids >> 3) * 0x9E3779B97F4A7C15u;
        i64 at = (i64)(h >> 32) & (slots - 1);
        while (slot[at] >= 0 &&
               (sh[slot[at]].ids != r->ids || sh[slot[at]].len != r->len))
            at = (at + 1) & (slots - 1);
        if (slot[at] < 0) {
            sh[n_shared] = (shared){r->ids, r->len, INT64_MAX, -1, 0};
            slot[at] = n_shared++;
        }
        of[r - j->runs - j->at[q0]] = slot[at];
    }
    for (shared *e = sh; e < sh + n_shared; e++) {
        for (i = 0; i < e->len; i++) {
            e->lo = e->ids[i] < e->lo ? e->ids[i] : e->lo;
            e->hi = e->ids[i] > e->hi ? e->ids[i] : e->hi;
        }
        if (e->lo < 0 || e->hi >= j->n_rows) return -2;
    }
    for (q = q0; q < q1; q++) {
        i64 a = INT64_MAX, b = -1;
        for (i = j->at[q] - j->at[q0]; i < j->at[q + 1] - j->at[q0]; i++) {
            shared *e = sh + of[i];
            e->holders |= (uint64_t)1 << (q - q0);
            a = e->lo < a ? e->lo : a;
            b = e->hi > b ? e->hi : b;
        }
        lo[q - q0] = a;
        hi[q - q0] = b;
        t_lo = a < t_lo ? a : t_lo;
        t_hi = b > t_hi ? b : t_hi;
        total += j->raw[q];
        j->counts[q] = 0;
        if (!k) continue;
        topk *t = st + (q - q0);
        *t = (topk){j->queries + q * j->dim, 0.0, INFINITY,
                    j->sel_out + q * k, j->dist_out + q * k, 0};
        t->qs = rank_dot(t->q, t->q, j->dim, buf, j->pw);
        for (i = 0; i < k; i++) {
            t->sel[i] = -1;
            t->dst[i] = INFINITY;
        }
    }
    if (q1 - q0 > 1 && t_hi >= t_lo && t_hi - t_lo < total / RANK_REUSE) {
        uint64_t *mask = (uint64_t *)scratch[1];
        if (!mask && !(scratch[1] = mask = (uint64_t *)malloc(
                           (size_t)(RANK_TILE / RANK_REUSE) *
                           sizeof(uint64_t))))
            return -1;
        rank_inverted(j, st, q0, sh, n_shared, t_lo, t_hi - t_lo + 1, mask,
                      buf);
        return 0;
    }
    /* The bitmap stays all-zero between queries; the list holds a query's
     * ids, at most raw[q]. */
    uint64_t *bits = (uint64_t *)scratch[2];
    i64 *list = (i64 *)scratch[3];
    if ((!bits && !(scratch[2] = bits = (uint64_t *)calloc(
                        (size_t)((j->n_rows >> 6) + 1), sizeof(uint64_t)))) ||
        (!list && !(scratch[3] = list = (i64 *)malloc(
                        (size_t)(j->max_raw + 1) * sizeof(i64)))))
        return -1;
    rank_query_major(j, st, q0, q1, lo, hi, bits, list, buf);
    return 0;
}

/* The short-list and its ranking in one call, Section V's two steps with
 * no list in between.  Query q's candidates are the distinct live ids
 * behind the spans of its segments [q * spill, (q + 1) * spill) — S_WORDS
 * words each, over the arrays whose addresses are `bases`, inside their
 * arrays and segments (bucket_spans and ref.Spans check them) — and
 * counts[q] how many there are.  The spans (not the ids behind them) are
 * counting-sorted by query, queries grouped into tiles of at most
 * RANK_TILE raw ids, and the tiles ranked on the work queue.  sel/dist
 * rows (k > 0) are ordered by (distance, id) ascending — the
 * lexsort((cand, dists, qidx)) convention — padded with -1 / inf; k = 0
 * only counts and reads neither data nor queries.  Row norms come from
 * sq_norms, or when it is NULL (out-of-core data) from the same tree_dot
 * the reference uses, as do the queries' own.  Returns 0, -1 when scratch
 * cannot be allocated, -2 for an id outside [0, n_rows). */
EXPORT i64 repro_rank_topk(const double *data, i64 dim,
                           const double *sq_norms, const double *queries,
                           i64 nq, const i64 *bases, const i64 *spans,
                           i64 n_spans, i64 spill, i64 n_rows,
                           const unsigned char *deleted, i64 del_len, i64 k,
                           i64 *sel_out, double *dist_out, i64 *counts,
                           i64 n_threads) {
    i64 n_tiles = 0, total = 0, max_raw = 0, tile_runs = 0, rc = -1, s, q;
    i64 *at = (i64 *)calloc((size_t)(3 * nq + 3), sizeof(i64));
    run *runs = (run *)malloc((size_t)(n_spans > 0 ? n_spans : 1) *
                              sizeof(run));
    if (!at || !runs) goto done;
    i64 *raw = at + nq + 2, *first = raw + nq;
    for (s = 0; s < n_spans; s++) {
        const i64 *w = spans + s * S_WORDS;
        at[w[S_SEGMENT] / spill + 2]++;
        raw[w[S_SEGMENT] / spill] += w[S_SIZE];
    }
    for (q = 0; q < nq; q++) at[q + 2] += at[q + 1];
    /* Advances at[q + 1] from the start of query q's runs to their end. */
    for (s = 0; s < n_spans; s++) {
        const i64 *w = spans + s * S_WORDS;
        runs[at[w[S_SEGMENT] / spill + 1]++] =
            (run){PTR(bases[w[S_ARRAY]]) + w[S_START], w[S_SIZE]};
    }
    for (q = 0; q < nq; q++) {
        total += raw[q];
        max_raw = raw[q] > max_raw ? raw[q] : max_raw;
    }
    if (nq <= INLINE_QUERIES || total < RANK_INLINE_IDS) n_threads = 1;
    /* The tile: one query, then more while they fit — so a tile of two or
     * more holds at most RANK_TILE raw ids, and at most a P-th of the
     * call's: at P = 2 a 50-row batch_adaptive call (150 k raw ids)
     * ranked in 5.8-6.3 ms as one tile, 4.7 as two of 131 k and 19 k,
     * 3.2 as two halves. */
    i64 fit = total / n_threads < RANK_TILE ? total / n_threads : RANK_TILE;
    for (i64 q0 = 0, q1 = 0, size = 0; q0 < nq; q0 = q1) {
        first[n_tiles++] = q0;
        for (size = raw[q1++]; q1 < nq && q1 - q0 < RANK_TILE_QUERIES &&
                               size + raw[q1] <= fit;)
            size += raw[q1++];
    }
    first[n_tiles] = nq;
    for (s = 0; s < n_tiles; s++)
        tile_runs = at[first[s + 1]] - at[first[s]] > tile_runs
                        ? at[first[s + 1]] - at[first[s]] : tile_runs;
    rank_job job = {data, sq_norms, queries, runs, at, raw, first, deleted,
                    dim, k, next_pow2(dim), n_rows, del_len, max_raw,
                    tile_runs, sel_out, counts, dist_out};
    rc = run_queue(rank_tile, &job, n_tiles, n_threads);
done:
    free(at);
    free(runs);
    return rc;
}

/* ----------------------------------------------------------- multi-probe */

/* One perturbation set of the Lv et al. enumeration, as a node of a
 * prefix tree: its positions are its parent's followed by `last`, and
 * `score` is the left-to-right double sum of scores[] over them — the
 * parent's sum plus one add, which is how ref's sum() forms it. */
typedef struct { double score; i64 parent; int32_t last, len; } pset;

/* The total order the sequence is emitted in: (score, positions tuple),
 * tuples compared as Python compares them (lexicographic, a proper
 * prefix first).  Entries are distinct, so any heap pops them alike. */
static int pset_less(const pset *pool, i64 a, i64 b, int32_t *pa,
                     int32_t *pb) {
    i64 i, node, la = pool[a].len, lb = pool[b].len;
    if (pool[a].score != pool[b].score) return pool[a].score < pool[b].score;
    for (node = a, i = la; i-- > 0; node = pool[node].parent)
        pa[i] = pool[node].last;
    for (node = b, i = lb; i-- > 0; node = pool[node].parent)
        pb[i] = pool[node].last;
    for (i = 0; i < la && i < lb; i++)
        if (pa[i] != pb[i]) return pa[i] < pb[i];
    return la < lb;
}

static void pset_push(const pset *pool, i64 *heap, i64 *n_heap, i64 node,
                      int32_t *pa, int32_t *pb) {
    i64 at = (*n_heap)++;
    while (at > 0 && pset_less(pool, node, heap[(at - 1) >> 1], pa, pb)) {
        heap[at] = heap[(at - 1) >> 1];
        at = (at - 1) >> 1;
    }
    heap[at] = node;
}

static i64 pset_pop(const pset *pool, i64 *heap, i64 *n_heap, int32_t *pa,
                    int32_t *pb) {
    i64 top = heap[0], node = heap[--(*n_heap)], at = 0, child;
    while ((child = 2 * at + 1) < *n_heap) {
        if (child + 1 < *n_heap &&
            pset_less(pool, heap[child + 1], heap[child], pa, pb))
            child++;
        if (!pset_less(pool, heap[child], node, pa, pb)) break;
        heap[at] = heap[child];
        at = child;
    }
    heap[at] = node;
    return top;
}

/* Query-directed Z^M probe sequences for a (q, m) block — the C twin of
 * ref.zm_probe_codes_ref (lsh/multiprobe.py row by row): squared boundary
 * distances stably sorted, then shift/expand successors popped in the
 * order of pset_less; a set touching one dimension twice is popped and
 * expanded but not emitted.  Row r's counts[r] <= n_probes codes follow
 * the earlier rows' in out (the set space runs out for small m).  Returns
 * the number of codes written, or -1 when scratch cannot be allocated. */
EXPORT i64 repro_zm_probe_codes(const double *y, const i64 *codes, i64 q,
                                i64 m, i64 n_probes, i64 *out, i64 *counts) {
    i64 n = 2 * m, cap = 2 * n_probes + 64, total = 0, serial = 0, r, i, j;
    double *dist = (double *)malloc((size_t)n * 2 * sizeof(double)), *score;
    int32_t *order = (int32_t *)malloc((size_t)n * 3 * sizeof(int32_t));
    int32_t *pa, *pb;
    i64 *stamp = (i64 *)calloc((size_t)m, sizeof(i64));
    pset *pool = (pset *)malloc((size_t)cap * sizeof(pset));
    i64 *heap = (i64 *)malloc((size_t)cap * sizeof(i64));
    if (!dist || !order || !stamp || !pool || !heap) goto fail;
    score = dist + n;
    pa = order + n;
    pb = pa + n;
    for (r = 0; r < q; r++) {
        const i64 *code = codes + r * m;
        i64 n_pool = 1, n_heap = 0, emitted = 0;
        for (j = 0; j < m; j++) {
            double resid = y[r * m + j] - (double)code[j];
            dist[j] = resid;            /* to the lower boundary: delta -1 */
            dist[m + j] = 1.0 - resid;  /* to the upper boundary: delta +1 */
        }
        for (i = 0; i < n; i++) {       /* stable argsort, ascending */
            for (j = i; j > 0 && dist[order[j - 1]] > dist[i]; j--)
                order[j] = order[j - 1];
            order[j] = (int32_t)i;
        }
        for (i = 0; i < n; i++) score[i] = dist[order[i]] * dist[order[i]];
        pool[0] = (pset){score[0], -1, 0, 1};
        pset_push(pool, heap, &n_heap, 0, pa, pb);
        while (n_heap && emitted < n_probes) {
            i64 cur = pset_pop(pool, heap, &n_heap, pa, pb), node;
            int32_t next = pool[cur].last + 1;
            int valid = 1;
            if (next < n) {             /* successors: shift, then expand */
                i64 up = pool[cur].parent;
                if (n_pool + 2 > cap) {
                    void *grown = realloc(pool, (size_t)(cap *= 2) * sizeof(pset));
                    if (!grown) goto fail;
                    pool = (pset *)grown;
                    grown = realloc(heap, (size_t)cap * sizeof(i64));
                    if (!grown) goto fail;
                    heap = (i64 *)grown;
                }
                pool[n_pool] = (pset){
                    (up < 0 ? 0.0 : pool[up].score) + score[next], up, next,
                    pool[cur].len};
                pool[n_pool + 1] = (pset){pool[cur].score + score[next], cur,
                                          next, pool[cur].len + 1};
                pset_push(pool, heap, &n_heap, n_pool++, pa, pb);
                pset_push(pool, heap, &n_heap, n_pool++, pa, pb);
            }
            serial++;
            for (node = cur; node >= 0 && valid; node = pool[node].parent) {
                i64 dim = order[pool[node].last] % m;
                valid = stamp[dim] != serial;
                stamp[dim] = serial;
            }
            if (!valid) continue;
            i64 *probe = out + total * m;
            memcpy(probe, code, (size_t)m * sizeof(i64));
            for (node = cur; node >= 0; node = pool[node].parent) {
                i64 column = order[pool[node].last];
                probe[column % m] += column < m ? -1 : 1;
            }
            total++;
            emitted++;
        }
        counts[r] = emitted;
    }
    free(dist); free(order); free(stamp); free(pool); free(heap);
    return total;
fail:
    free(dist); free(order); free(stamp); free(pool); free(heap);
    return -1;
}

/* --------------------------------------------------------- lattice codes */

/* Conway–Sloane D8 decoder: round every coordinate, and if the integer
 * sum is odd re-round the largest-error coordinate the other way
 * (first-max, step up at exact ties) — mirrors lattice/e8.py decode_d8. */
static void decode_d8(const double *x, double *f) {
    i64 j, parity_ll = 0;
    for (j = 0; j < 8; j++) {
        f[j] = floor(x[j] + 0.5);
        parity_ll += (i64)f[j];
    }
    if (((parity_ll % 2) + 2) % 2 != 0) {
        i64 worst = 0;
        double best = -1.0;
        for (j = 0; j < 8; j++) {
            double e = fabs(x[j] - f[j]);
            if (e > best) { best = e; worst = j; }
        }
        f[worst] += (x[worst] - f[worst] >= 0.0) ? 1.0 : -1.0;
    }
}

/* E8 = D8 ∪ (D8 + (1/2)^8): decode to both cosets, keep the closer one
 * (D8 at exact ties), squared distances via the 8-wide halving tree —
 * the spec lattice/e8.py decode_e8 follows via ref.tree_sq_dist.  Codes
 * are emitted in half-integer units (real coordinates * 2). */
static void e8_decode_block(const double *x, i64 *out) {
    double d8[8], half[8], shifted[8], err[8], buf[4];
    i64 j;
    decode_d8(x, d8);
    for (j = 0; j < 8; j++) shifted[j] = x[j] - 0.5;
    decode_d8(shifted, half);
    for (j = 0; j < 8; j++) half[j] += 0.5;
    for (j = 0; j < 8; j++) err[j] = x[j] - d8[j];
    double dist_d8 = tree_dot(err, err, 8, buf, 8);
    for (j = 0; j < 8; j++) err[j] = x[j] - half[j];
    double dist_half = tree_dot(err, err, 8, buf, 8);
    const double *pick = (dist_half < dist_d8) ? half : d8;
    for (j = 0; j < 8; j++) out[j] = (i64)llround(pick[j] * 2.0);
}

EXPORT void repro_e8_decode(const double *y, i64 n, i64 n_blocks,
                            i64 *codes) {
    for (i64 i = 0; i < n * n_blocks; i++)
        e8_decode_block(y + i * 8, codes + i * 8);
}

/* ------------------------------------------------------- hierarchy walk */

/* Words of one hierarchy's level table (E8Hierarchy.words), then of each
 * of its levels: sorted node codes, node count, node runs of the ids. */
enum { H_DIM, H_N_LEVELS, H_SETTLED, H_IDS, H_N_IDS, H_WORDS };
enum { V_CODES, V_N_NODES, V_STARTS, V_ENDS, V_WORDS };

/* ref.hierarchy_walk_ref one (table, row) at a time, over n_tables level
 * tables (hiers: their addresses) and (n_tables, n, dim) codes.  Level k's
 * ancestor is code_k * 2^k, code_k = DECODE(code_{k-1} / 2) in half units:
 * E8Lattice.ancestor_chain's exact float steps.  Writes (start, size,
 * depth) per (table, row).  Returns 0, -1 when scratch cannot be
 * allocated, -2 for a table of another width (or one not a multiple of 8),
 * -3 for a node outside its id array. */
EXPORT i64 repro_hierarchy_walk(const i64 *hiers, i64 n_tables,
                                const i64 *codes, i64 n, i64 dim,
                                i64 min_count, i64 *start, i64 *size,
                                i64 *depth) {
    i64 rc = -1, t, r, j, level;
    double *x = (double *)malloc((size_t)(dim + 1) * sizeof(double));
    i64 *cd = (i64 *)malloc((size_t)(3 * dim + 1) * sizeof(i64));
    if (!x || !cd) goto done;
    i64 *anc = cd + dim, *below = anc + dim;
    for (t = 0, rc = 0; t < n_tables; t++) {
        const i64 *h = PTR(hiers[t]);
        if (h[H_DIM] != dim || dim % 8) {
            rc = -2;
            goto done;
        }
        for (r = 0; r < n; r++) {
            i64 best = 0, at = 0, deep = 0;
            memcpy(cd, codes + (t * n + r) * dim, (size_t)dim * sizeof(i64));
            for (level = 0; level < h[H_N_LEVELS]; level++) {
                const i64 *v = h + H_WORDS + level * V_WORDS;
                if (level) {
                    for (j = 0; j < dim; j++) x[j] = (double)cd[j] / 4.0;
                    for (j = 0; j < dim; j += 8)
                        e8_decode_block(x + j, cd + j);
                }
                for (j = 0; j < dim; j++)
                    anc[j] = (i64)ldexp((double)cd[j], (int)level);
                i64 node = find_bucket(PTR(v[V_CODES]), v[V_N_NODES], dim,
                                       anc);
                if (node >= 0) {
                    i64 s = PTR(v[V_STARTS])[node], e = PTR(v[V_ENDS])[node];
                    if (s < 0 || e < s || e > h[H_N_IDS]) {
                        rc = -3;
                        goto done;
                    }
                    if (e - s > best) { best = e - s; at = s; deep = level; }
                }
                if (best >= min_count) break;
                if (level >= h[H_SETTLED]) {
                    /* Nodes only double from here: a matched row keeps its
                     * node, one whose own code only doubles never will. */
                    int doubled = level > 0;
                    for (j = 0; j < dim && doubled; j++)
                        doubled = anc[j] == 2 * below[j];
                    if (node >= 0 || doubled) break;
                }
                memcpy(below, anc, (size_t)dim * sizeof(i64));
            }
            start[t * n + r] = at;
            size[t * n + r] = best;
            depth[t * n + r] = deep;
        }
    }
done:
    free(x);
    free(cd);
    return rc;
}

/* Version tag checked by the loader: bumped with every exported-signature
 * change so a library built from another revision is refused. */
EXPORT i64 repro_kernels_abi(void) { return 9; }
