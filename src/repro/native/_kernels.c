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

/* Bucket index per query code row.  No query path calls it (bucket_union
 * and hierarchy_walk search with find_bucket); it stays on the table
 * only because benchmarks/e2e wraps it by name. */
EXPORT void repro_lookup_codes(const i64 *bucket_codes, i64 n_buckets,
                               i64 m, const i64 *codes, i64 r, i64 *bidx) {
    for (i64 i = 0; i < r; i++)
        bidx[i] = find_bucket(bucket_codes, n_buckets, m, codes + i * m);
}

/* ----------------------------------------------------------------- dedup */

/* In-place ascending sort for the sparse dedup path: insertion sort for
 * short segments, heapsort (no recursion, O(n log n) worst case) above. */
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

/* A segment takes the bitmap path unless its id range spans more than
 * this many 64-bit words per id: past that, skipping the empty words
 * costs more than sorting the few ids.  Measured crossover (random ids,
 * this file's two paths): about 32 words per id at 32 ids, 100 at 128 and
 * 110 from 1024 up; well below it the bitmap wins by up to 4x. */
#define SPARSE_WORDS_PER_ID 64

/* rank_topk scores consecutive queries of the short-list as one tile of
 * at most RANK_TILE candidates and 64 queries (one bit each in a row's
 * query mask).  64 k candidates is 27-55 batch_plain rows, about a third
 * of one RP-tree group's rows in a 2 000-row batch; 32 k tiles ranked
 * that batch 9 % slower, 128 k ones (64 queries) no faster. */
#define RANK_TILE 65536
#define RANK_TILE_QUERIES 64

/* A tile of two or more queries is inverted — each candidate row read
 * once and scored against every query of the tile holding it — when it
 * holds at least this many candidates per row of its id range.  Measured
 * on the batch_plain corpus, 1 183 ascending candidates per query, the
 * inverted path against the query-major one: at 2 per row 1.8-1.9x
 * faster with 55 queries, 1.0-1.5x with 8-16, 0.83-1.04x with 3; at 1
 * per row 1.1-1.4x with 8-55 queries but 0.7-0.8x with 3; at 0.25-0.5
 * per row (where 8- and 50-row calls spread over the groups land)
 * 0.5-0.96x.  A batch_plain tile holds 5 (two groups' runs) or 10 (one)
 * per row. */
#define RANK_REUSE 2

#define TOMBSTONED(id) \
    (deleted && (uint64_t)(id) < (uint64_t)del_len && deleted[id])

/* Tombstone filter + per-query sort + dedup of flattened candidates.
 * Output segments are sorted by (query, id) ascending — identical in
 * content and order to StandardLSH._dedup_per_query.  Survivors are
 * counting-sorted by query; each segment then marks its ids, relative to
 * its smallest, in a bitmap and reads the words back with ctz (ascending
 * and unique by construction, cleared on the way) — or, when its id range
 * is much wider than the segment is long, is sorted in place and scanned.
 * Which path runs depends on the segment alone.  Returns the number of
 * surviving ids (out_ids/out_qidx hold n entries, counts nq), or -1 when
 * scratch memory cannot be allocated.  No query path calls it (every
 * short-list is one bucket_union); it stays on the table only because
 * benchmarks/e2e wraps it by name. */
EXPORT i64 repro_dedup_candidates(const i64 *ids, const i64 *qidx, i64 n,
                                  i64 nq, const unsigned char *deleted,
                                  i64 del_len, i64 *out_ids, i64 *out_qidx,
                                  i64 *counts) {
    i64 i, q, total = 0, seg_start = 0, bits_cap = 0;
    uint64_t *bits = NULL;
    i64 *cursors = (i64 *)calloc((size_t)nq + 1, sizeof(i64));
    i64 *tmp = (i64 *)malloc((size_t)(n > 0 ? n : 1) * sizeof(i64));
    if (!cursors || !tmp) goto fail;
    /* Pass 1: survivors per query. */
    for (i = 0; i < n; i++)
        if (!TOMBSTONED(ids[i])) cursors[qidx[i] + 1]++;
    for (q = 0; q < nq; q++) cursors[q + 1] += cursors[q];
    /* Pass 2: bucket survivors by query (counting sort, stable); this
     * advances cursors[q] from segment q's start to its end. */
    for (i = 0; i < n; i++)
        if (!TOMBSTONED(ids[i])) tmp[cursors[qidx[i]]++] = ids[i];
    /* Pass 3: ascending unique ids of each segment into the output. */
    for (q = 0; q < nq; q++) {
        i64 *seg = tmp + seg_start, *dst = out_ids + total;
        i64 len = cursors[q] - seg_start, kept = 0, words;
        i64 lo = len ? seg[0] : 0, hi = lo;
        seg_start = cursors[q];
        for (i = 1; i < len; i++) {
            if (seg[i] < lo) lo = seg[i];
            if (seg[i] > hi) hi = seg[i];
        }
        words = ((hi - lo) >> 6) + 1;
        if (words > SPARSE_WORDS_PER_ID * len) {
            sort_i64(seg, len);
            for (i = 0; i < len; i++)
                if (!kept || dst[kept - 1] != seg[i]) dst[kept++] = seg[i];
        } else {
            if (words > bits_cap) {  /* all-zero between segments: no copy */
                free(bits);
                bits_cap = words > 2 * bits_cap ? words : 2 * bits_cap;
                bits = (uint64_t *)calloc((size_t)bits_cap, sizeof(uint64_t));
                if (!bits) goto fail;
            }
            for (i = 0; i < len; i++)
                bits[(seg[i] - lo) >> 6] |= (uint64_t)1 << ((seg[i] - lo) & 63);
            for (i = 0; i < words; i++) {
                uint64_t word = bits[i];
                if (!word) continue;
                bits[i] = 0;
                for (; word; word &= word - 1)
                    dst[kept++] = lo + ((i << 6) | __builtin_ctzll(word));
            }
        }
        for (i = 0; i < kept; i++) out_qidx[total + i] = q;
        counts[q] = kept;
        total += kept;
    }
    free(bits); free(cursors); free(tmp);
    return total;
fail:
    free(bits); free(cursors); free(tmp);
    return -1;
}

/* ---------------------------------------------------------- bucket union */

/* Addresses cross in int64 words (numpy rows built by the caller). */
#define PTR(word) ((const i64 *)(intptr_t)(word))

/* Words of one sorted layout (a table's published base, or its insert
 * overlay): lsh/table.py SortedLayout.pointers. */
enum { L_CODES, L_N_BUCKETS, L_STARTS, L_ENDS, L_IDS, L_N_IDS, L_WORDS };
/* Words of one table's entry: how many of the lookup rows are its own
 * (tables' rows follow each other in `codes` / `row_q`) and how many
 * layouts (consecutive in `layouts`) they are searched in. */
enum { T_ROWS, T_N_LAYOUTS, T_WORDS };
/* Words of one non-empty bucket interval a lookup row hit. */
enum { S_IDS, S_LEN, S_QUERY, S_WORDS };

/* Step 1 of the query-major short-list: binary-search every lookup row of
 * every table in each of the table's layouts and keep the non-empty
 * intervals of sorted_ids it hit.  row_q[i] is the query lookup row i
 * belongs to; raw[q] is the number of ids behind query q's intervals
 * (duplicates and tombstones included), misses[t] the rows of table t
 * that hit nothing.  Allocates nothing.  Returns the number of spans
 * written (at most one per row and layout), -2 for a row whose query is
 * outside [0, nq), -3 for an interval outside its sorted_ids. */
EXPORT i64 repro_bucket_spans(const i64 *codes, const i64 *row_q,
                              const i64 *tables, i64 n_tables,
                              const i64 *layouts, i64 m, i64 nq, i64 *spans,
                              i64 *raw, i64 *misses) {
    i64 n_spans = 0;
    memset(raw, 0, (size_t)nq * sizeof(i64));
    for (i64 t = 0; t < n_tables; t++, tables += T_WORDS) {
        i64 n_layouts = tables[T_N_LAYOUTS], missed = 0;
        for (i64 i = 0; i < tables[T_ROWS]; i++, codes += m, row_q++) {
            i64 q = *row_q, hit = 0;
            if ((uint64_t)q >= (uint64_t)nq) return -2;
            for (i64 s = 0; s < n_layouts; s++) {
                const i64 *lay = layouts + s * L_WORDS;
                i64 b = find_bucket(PTR(lay[L_CODES]), lay[L_N_BUCKETS], m,
                                    codes);
                if (b < 0) continue;
                i64 start = PTR(lay[L_STARTS])[b];
                i64 len = PTR(lay[L_ENDS])[b] - start;
                if (start < 0 || len < 0 || start + len > lay[L_N_IDS])
                    return -3;
                if (!len) continue;
                spans[S_IDS] = (i64)(intptr_t)(PTR(lay[L_IDS]) + start);
                spans[S_LEN] = len;
                spans[S_QUERY] = q;
                spans += S_WORDS;
                n_spans++;
                raw[q] += len;
                hit = 1;
            }
            missed += !hit;
        }
        misses[t] = missed;
        layouts += n_layouts * L_WORDS;
    }
    return n_spans;
}

/* Step 2: the spans — not the ids behind them — are counting-sorted by
 * query, then each query ORs the ids of its spans into a bitmap of n_rows
 * bits and reads the touched words back with ctz (ascending and unique by
 * construction, cleared on the way), dropping tombstones.  A query with
 * few ids against the id range (the dedup rule above, on raw[q] and
 * n_rows) collects and sorts them instead, so a huge index does not scan
 * its whole bitmap per query.  Output is the ids repro_dedup_candidates
 * leaves — sorted by (query, id) — and counts per query, which say where
 * each query's ids are (rank_topk reads no per-id query index); the
 * caller sizes out_ids by sum(min(raw[q], n_rows)).  Returns the number of
 * ids written, -1 when scratch cannot be allocated, -2 for an id outside
 * [0, n_rows) — refused before anything is written past the bitmap. */
EXPORT i64 repro_bucket_union(const i64 *spans, i64 n_spans, const i64 *raw,
                              i64 nq, i64 n_rows,
                              const unsigned char *deleted, i64 del_len,
                              i64 *out_ids, i64 *counts) {
    i64 words = (n_rows + 63) >> 6, total = 0, at = 0, rc = -1, i, q;
    uint64_t *bits = NULL;
    i64 *cursors = (i64 *)calloc((size_t)nq + 1, sizeof(i64));
    const i64 **order = (const i64 **)malloc(
        (size_t)(n_spans > 0 ? n_spans : 1) * sizeof(i64 *));
    if (!cursors || !order) goto done;
    for (i = 0; i < n_spans; i++) cursors[spans[i * S_WORDS + S_QUERY] + 1]++;
    for (q = 0; q < nq; q++) cursors[q + 1] += cursors[q];
    /* Advances cursors[q] from the start of query q's spans to their end. */
    for (i = 0; i < n_spans; i++)
        order[cursors[spans[i * S_WORDS + S_QUERY]]++] = spans + i * S_WORDS;
    for (q = 0; q < nq; q++) {
        i64 *dst = out_ids + total, kept = 0, end = cursors[q];
        if (words > SPARSE_WORDS_PER_ID * raw[q]) {
            i64 len = 0;
            for (; at < end; at++) {
                const i64 *ids = PTR(order[at][S_IDS]);
                for (i = 0; i < order[at][S_LEN]; i++) {
                    i64 id = ids[i];
                    if ((uint64_t)id >= (uint64_t)n_rows) goto refused;
                    if (!TOMBSTONED(id)) dst[len++] = id;
                }
            }
            sort_i64(dst, len);
            for (i = 0; i < len; i++)
                if (!kept || dst[kept - 1] != dst[i]) dst[kept++] = dst[i];
        } else {
            i64 lo = words, hi = -1;
            if (!bits) {        /* all-zero between queries: cleared below */
                bits = (uint64_t *)calloc((size_t)(words > 0 ? words : 1),
                                          sizeof(uint64_t));
                if (!bits) goto done;
            }
            for (; at < end; at++) {
                const i64 *ids = PTR(order[at][S_IDS]);
                for (i = 0; i < order[at][S_LEN]; i++) {
                    i64 id = ids[i], w = id >> 6;
                    if ((uint64_t)id >= (uint64_t)n_rows) goto refused;
                    bits[w] |= (uint64_t)1 << (id & 63);
                    if (w < lo) lo = w;
                    if (w > hi) hi = w;
                }
            }
            for (i = lo; i <= hi; i++) {
                uint64_t word = bits[i];
                if (!word) continue;
                bits[i] = 0;
                for (; word; word &= word - 1) {
                    i64 id = (i << 6) | __builtin_ctzll(word);
                    if (!TOMBSTONED(id)) dst[kept++] = id;
                }
            }
        }
        counts[q] = kept;
        total += kept;
    }
    rc = total;
    goto done;
refused:
    rc = -2;
done:
    free(bits); free(cursors); free(order);
    return rc;
}

/* ------------------------------------------------------------------ rank */

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

/* Tile [q0, q1) query by query: each candidate row is read once per query
 * that holds it, all of it fetched PREFETCH_AHEAD candidates early. */
static inline __attribute__((always_inline)) void
rank_query_major(const double *data, i64 dim, const double *sq_norms,
                 const i64 *cand, const i64 *counts, i64 k, topk *st,
                 i64 q0, i64 q1, i64 at, double *buf, i64 pw) {
    for (i64 q = q0; q < q1; q++) {
        topk *t = st + (q - q0);
        i64 end = at + counts[q];
        for (i64 c = at; c < end; c++) {
            i64 id = cand[c];
            const double *row = data + id * dim;
            if (c + PREFETCH_AHEAD < end) {
                const double *next = data + cand[c + PREFETCH_AHEAD] * dim;
                for (i64 off = 0; off < dim; off += LINE_DOUBLES)
                    __builtin_prefetch(next + off);
                __builtin_prefetch(next + dim - 1);  /* a row off a line start */
            }
            double dot = rank_dot(row, t->q, dim, buf, pw);
            double row_sq = sq_norms ? sq_norms[id]
                                     : rank_dot(row, row, dim, buf, pw);
            offer(t, k, row_sq - 2.0 * dot + t->qs, id);
        }
        at = end;
    }
}

/* Tile [q0, q1) row by row: one pass over the tile's candidates sets bit
 * q - q0 of mask[id - lo] for every query q holding row id, then each row
 * of [lo, lo + range) is read once, in ascending id, and scored against
 * the queries of its mask.  Every run of the tile is strictly ascending
 * (checked by the caller), so each query still meets each of its
 * candidates once, in their order in cand: same insertions, same output. */
static inline __attribute__((always_inline)) void
rank_inverted(const double *data, i64 dim, const double *sq_norms,
              const i64 *cand, const i64 *counts, i64 k, topk *st, i64 q0,
              i64 q1, i64 at, i64 lo, i64 range, uint64_t *mask,
              double *buf, i64 pw) {
    i64 q, c, r, end;
    memset(mask, 0, (size_t)range * sizeof(uint64_t));
    for (q = q0, c = at; q < q1; q++)
        for (end = c + counts[q]; c < end; c++)
            mask[cand[c] - lo] |= (uint64_t)1 << (q - q0);
    for (r = 0; r < range; r++) {
        uint64_t holders = mask[r];
        if (!holders) continue;
        i64 id = lo + r;
        const double *row = data + id * dim;
        double row_sq = sq_norms ? sq_norms[id]
                                 : rank_dot(row, row, dim, buf, pw);
        for (; holders; holders &= holders - 1) {
            topk *t = st + __builtin_ctzll(holders);
            offer(t, k, row_sq - 2.0 * rank_dot(row, t->q, dim, buf, pw)
                            + t->qs, id);
        }
    }
}

/* Fused gather + cached-norm distance + per-query top-k selection.
 * Query q's candidates are the next counts[q] entries of cand.  sel/dist
 * rows are ordered by (distance, id) ascending — the vectorized
 * lexsort((cand, dists, qidx)) convention — padded with -1 / inf.
 * sq_norms may be NULL (out-of-core data): row norms are then computed
 * with the same tree_dot the reference uses.  Queries are ranked in tiles
 * (RANK_TILE); a tile whose queries share their candidate rows
 * (RANK_REUSE) is inverted, any other is scored query by query.  Returns
 * -1 when scratch memory cannot be allocated. */
EXPORT SIMD_CLONES int repro_rank_topk(const double *data, i64 dim,
                                       const double *sq_norms,
                                       const double *queries, i64 nq,
                                       const double *q_sq, const i64 *cand,
                                       const i64 *counts, i64 k,
                                       i64 *sel_out, double *dist_out) {
    i64 pw = next_pow2(dim), q0 = 0, at = 0;
    topk st[RANK_TILE_QUERIES];
    uint64_t *mask = NULL;
    double *buf = (double *)malloc((size_t)(pw > 1 ? pw >> 1 : 1) *
                                   sizeof(double));
    if (!buf) return -1;
    while (q0 < nq) {
        i64 q1 = q0, total = 0, lo = INT64_MAX, hi = -1, q, c;
        int inverted;
        /* The tile: one query, then more while they fit — so a tile of
         * two or more holds at most RANK_TILE candidates. */
        do {
            total += counts[q1];
            q1++;
        } while (q1 < nq && q1 - q0 < RANK_TILE_QUERIES &&
                 total + counts[q1] <= RANK_TILE);
        for (q = q0; q < q1; q++) {
            topk *t = st + (q - q0);
            t->q = queries + q * dim;
            t->qs = q_sq[q];
            t->sel = sel_out + q * k;
            t->dst = dist_out + q * k;
            t->filled = 0;
            t->bound = INFINITY;
            for (i64 j = 0; j < k; j++) {
                t->sel[j] = -1;
                t->dst[j] = INFINITY;
            }
        }
        /* Reuse from the runs' ends — their id range when every run is
         * ascending, which is checked id by id before a tile inverts. */
        for (q = q0, c = at; q < q1; c += counts[q], q++) {
            if (!counts[q]) continue;
            if (cand[c] < lo) lo = cand[c];
            if (cand[c + counts[q] - 1] > hi) hi = cand[c + counts[q] - 1];
        }
        inverted = q1 - q0 > 1 && hi >= lo && hi - lo < total / RANK_REUSE;
        for (q = q0, c = at; q < q1 && inverted; c += counts[q], q++)
            for (i64 j = 1; j < counts[q] && inverted; j++)
                inverted = cand[c + j] > cand[c + j - 1];
        if (inverted && !mask) {
            mask = (uint64_t *)malloc((size_t)(RANK_TILE / RANK_REUSE) *
                                      sizeof(uint64_t));
            if (!mask) {
                free(buf);
                return -1;
            }
        }
        if (inverted)
            rank_inverted(data, dim, sq_norms, cand, counts, k, st, q0, q1,
                          at, lo, hi - lo + 1, mask, buf, pw);
        else
            rank_query_major(data, dim, sq_norms, cand, counts, k, st, q0,
                             q1, at, buf, pw);
        at += total;
        q0 = q1;
    }
    free(buf);
    free(mask);
    return 0;
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
EXPORT i64 repro_kernels_abi(void) { return 7; }
