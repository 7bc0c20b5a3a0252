/* ThreadSanitizer driver for the kernels' work queue.
 *
 * Calls repro_rank_topk and both steps of the bucket union
 * (repro_bucket_spans, repro_bucket_union) of src/repro/native/_kernels.c
 * on inputs past their inline thresholds at P = 4 and compares every
 * output word with the P = 1 call: both paths of the rank tiles, both paths
 * of the union (bitmap and sort), queries with nothing, tombstones, and a
 * bad id or a bad lookup row early and late, which must be refused with
 * the code P = 1 returns.  The union's output buffer carries a
 * guard past the bound the caller sizes, which no thread may touch.  A
 * standalone program because an interpreter cannot load libtsan late.
 *
 *   cc -O1 -g -fsanitize=thread -pthread tools/tsan_kernels.c \
 *      src/repro/native/_kernels.c -o tsan_kernels -lm && ./tsan_kernels
 *
 * Exit status 0 when every comparison holds (TSan itself exits non-zero
 * on a report).
 */

#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>

typedef int64_t i64;

int repro_rank_topk(const double *data, i64 dim, const double *sq_norms,
                    const double *queries, i64 nq, const double *q_sq,
                    const i64 *cand, const i64 *counts, i64 k, i64 *sel_out,
                    double *dist_out, i64 n_threads);
i64 repro_bucket_spans(const i64 *codes, const i64 *row_q, const i64 *tables,
                       i64 n_tables, const i64 *layouts, i64 m, i64 nq,
                       i64 *spans, i64 *raw, i64 *misses, i64 n_threads);
i64 repro_bucket_union(const i64 *spans, i64 n_spans, const i64 *raw, i64 nq,
                       i64 n_rows, const unsigned char *deleted, i64 del_len,
                       i64 *out_ids, i64 *counts, i64 n_threads);

#define GUARD 64
#define GUARD_WORD ((i64)0x5a5a5a5a5a5a5a5a)

static uint64_t state = 88172645463325252ULL;

static uint64_t next(void) {  /* xorshift64 */
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
}

static i64 below(i64 n) { return (i64)(next() % (uint64_t)n); }

static int failures = 0;

static void check(int ok, const char *what) {
    if (!ok) {
        fprintf(stderr, "FAIL: %s\n", what);
        failures++;
    }
}

/* nq queries; query q ranks up to `per` strictly ascending candidates of
 * n_rows rows (every third query none): sparse runs when n_rows is large
 * against per, dense ones otherwise.  With and without cached norms. */
static void rank_case(i64 nq, i64 per, i64 n_rows, i64 dim, i64 k) {
    double *data = malloc(sizeof(double) * n_rows * dim);
    double *norms = malloc(sizeof(double) * n_rows);
    double *queries = malloc(sizeof(double) * nq * dim);
    double *q_sq = malloc(sizeof(double) * nq);
    i64 *counts = malloc(sizeof(i64) * nq), total = 0, gap = n_rows / per;
    i64 *cand = malloc(sizeof(i64) * nq * per), *sel[2];
    double *dist[2];
    for (i64 i = 0; i < n_rows * dim; i++)
        data[i] = (double)below(2001) / 1000.0 - 1.0;
    for (i64 r = 0; r < n_rows; r++) {
        norms[r] = 0.0;
        for (i64 j = 0; j < dim; j++)
            norms[r] += data[r * dim + j] * data[r * dim + j];
    }
    for (i64 q = 0; q < nq; q++) {
        q_sq[q] = 0.0;
        for (i64 j = 0; j < dim; j++) {
            queries[q * dim + j] = (double)below(2001) / 1000.0 - 1.0;
            q_sq[q] += queries[q * dim + j] * queries[q * dim + j];
        }
        counts[q] = 0;
        for (i64 id = below(gap); q % 3 != 2 && counts[q] < per &&
                                  id < n_rows; id += 1 + below(gap)) {
            cand[total++] = id;
            counts[q]++;
        }
    }
    for (int v = 0; v < 2; v++) {
        sel[v] = malloc(sizeof(i64) * nq * k);
        dist[v] = malloc(sizeof(double) * nq * k);
    }
    for (int with_norms = 0; with_norms < 2; with_norms++) {
        for (int v = 0; v < 2; v++)
            check(repro_rank_topk(data, dim, with_norms ? norms : NULL,
                                  queries, nq, q_sq, cand, counts, k, sel[v],
                                  dist[v], v ? 4 : 1) == 0,
                  "rank_topk returns 0");
        check(!memcmp(sel[0], sel[1], sizeof(i64) * nq * k),
              "rank ids at P = 4");
        check(!memcmp(dist[0], dist[1], sizeof(double) * nq * k),
              "rank distances at P = 4");
    }
    for (int v = 0; v < 2; v++) { free(sel[v]); free(dist[v]); }
    free(data); free(norms); free(queries); free(q_sq); free(counts);
    free(cand);
}

/* Union spans over one id array: nq queries, each `spans_per` spans of
 * `len` ids (every fifth query none); with bad_query >= 0, the last id of
 * that query's last span is out of range. */
static void union_case(i64 nq, i64 spans_per, i64 len, i64 n_rows,
                       i64 bad_query) {
    i64 n_ids = 1 << 16, n_spans = 0, bound = 0, rc[2], *out[2], *counts[2];
    i64 del_len = n_rows < 40000 ? n_rows / 2 : 20000;
    i64 *ids = malloc(sizeof(i64) * n_ids);
    i64 *spans = malloc(sizeof(i64) * 3 * nq * spans_per);
    i64 *raw = calloc((size_t)nq, sizeof(i64));
    unsigned char *deleted = malloc((size_t)del_len);
    for (i64 i = 0; i < n_ids; i++) ids[i] = below(n_rows);
    for (i64 i = 0; i < del_len; i++) deleted[i] = below(10) < 3;
    for (i64 q = 0; q < nq; q++) {
        if (q % 5 == 4) continue;
        for (i64 s = 0; s < spans_per; s++) {
            i64 at = below(n_ids - len);
            spans[3 * n_spans] = (i64)(intptr_t)(ids + at);
            spans[3 * n_spans + 1] = len;
            spans[3 * n_spans + 2] = q;
            n_spans++;
            raw[q] += len;
        }
    }
    if (bad_query >= 0)
        for (i64 s = n_spans - 1; s >= 0; s--)
            if (spans[3 * s + 2] == bad_query) {
                ((i64 *)(intptr_t)spans[3 * s])[len - 1] = n_rows;
                break;
            }
    for (i64 q = 0; q < nq; q++) bound += raw[q] < n_rows ? raw[q] : n_rows;
    for (int v = 0; v < 2; v++) {
        out[v] = malloc(sizeof(i64) * (bound + GUARD));
        counts[v] = malloc(sizeof(i64) * nq);
        for (i64 i = 0; i < bound + GUARD; i++) out[v][i] = GUARD_WORD;
        rc[v] = repro_bucket_union(spans, n_spans, raw, nq, n_rows, deleted,
                                   del_len, out[v], counts[v], v ? 4 : 1);
        for (i64 i = bound; i < bound + GUARD; i++)
            check(out[v][i] == GUARD_WORD, "union guard untouched");
    }
    check(rc[0] == rc[1], "union return code at P = 4");
    if (bad_query >= 0) {
        check(rc[1] == -2, "union refuses a bad id at P = 4");
    } else {
        check(rc[0] > 0, "union at P = 1");
        check(!memcmp(out[0], out[1], sizeof(i64) * (size_t)rc[0]),
              "union ids at P = 4");
        check(!memcmp(counts[0], counts[1], sizeof(i64) * nq),
              "union counts at P = 4");
    }
    for (int v = 0; v < 2; v++) { free(out[v]); free(counts[v]); }
    free(ids); free(spans); free(raw); free(deleted);
}

/* n_tables tables of one layout each over m = 2 codes (b x b buckets of
 * ids), rows lookup rows per table with codes drawn one past the grid (so
 * some miss); bad_table >= 0 puts a row of an unknown query in that table,
 * bad_interval >= 0 a bucket end past its ids in that table. */
static void spans_case(i64 n_tables, i64 rows, i64 nq, i64 bad_table,
                       i64 bad_interval) {
    i64 b = 12, n_buckets = b * b, n_ids = 4 * n_buckets, total = 0;
    i64 n_rows = n_tables * rows, rc[2];
    i64 *bucket_codes = malloc(sizeof(i64) * 2 * n_buckets);
    i64 *starts = malloc(sizeof(i64) * n_buckets * n_tables);
    i64 *ends = malloc(sizeof(i64) * n_buckets * n_tables);
    i64 *ids = malloc(sizeof(i64) * n_ids);
    i64 *layouts = malloc(sizeof(i64) * 6 * n_tables);
    i64 *tables = malloc(sizeof(i64) * 2 * n_tables);
    i64 *codes = malloc(sizeof(i64) * 2 * n_rows);
    i64 *row_q = malloc(sizeof(i64) * n_rows), *spans[2], *raw[2], *miss[2];
    for (i64 c = 0; c < n_buckets; c++) {
        bucket_codes[2 * c] = c / b;
        bucket_codes[2 * c + 1] = c % b;
    }
    for (i64 i = 0; i < n_ids; i++) ids[i] = below(1000);
    for (i64 t = 0; t < n_tables; t++) {
        i64 *st = starts + t * n_buckets, *en = ends + t * n_buckets;
        for (i64 c = 0, at = 0; c < n_buckets; c++) {
            st[c] = at;
            at += below(9);
            en[c] = at < n_ids ? at : n_ids;
            at = en[c];
        }
        if (t == bad_interval) en[n_buckets / 2] = n_ids + 1;
        i64 words[6] = {(i64)(intptr_t)bucket_codes, n_buckets,
                        (i64)(intptr_t)st, (i64)(intptr_t)en,
                        (i64)(intptr_t)ids, n_ids};
        memcpy(layouts + 6 * t, words, sizeof(words));
        tables[2 * t] = rows;
        tables[2 * t + 1] = 1;
    }
    for (i64 i = 0; i < n_rows; i++) {
        codes[2 * i] = below(b + 1);
        codes[2 * i + 1] = below(b);
        row_q[i] = below(nq);
        if (i / rows == bad_interval) {     /* every row hits the bad end */
            codes[2 * i] = (n_buckets / 2) / b;
            codes[2 * i + 1] = (n_buckets / 2) % b;
        }
    }
    if (bad_table >= 0) row_q[bad_table * rows + rows / 2] = nq;
    for (int v = 0; v < 2; v++) {
        spans[v] = malloc(sizeof(i64) * 3 * n_rows);
        raw[v] = malloc(sizeof(i64) * nq);
        miss[v] = malloc(sizeof(i64) * n_tables);
        rc[v] = repro_bucket_spans(codes, row_q, tables, n_tables, layouts, 2,
                                   nq, spans[v], raw[v], miss[v], v ? 4 : 1);
    }
    check(rc[0] == rc[1], "spans return code at P = 4");
    if (bad_table >= 0) check(rc[1] == -2, "spans refuse an unknown query");
    else if (bad_interval >= 0) check(rc[1] == -3, "spans refuse a bad end");
    else {
        check(rc[0] == n_rows, "one span per row and layout");
        check(!memcmp(spans[0], spans[1], sizeof(i64) * 3 * n_rows),
              "spans at P = 4");
        check(!memcmp(raw[0], raw[1], sizeof(i64) * nq), "raw at P = 4");
        check(!memcmp(miss[0], miss[1], sizeof(i64) * n_tables),
              "misses at P = 4");
        for (i64 t = 0; t < n_tables; t++) total += miss[0][t];
        check(total > 0 && total < n_rows, "some rows miss, some hit");
    }
    for (int v = 0; v < 2; v++) {
        free(spans[v]); free(raw[v]); free(miss[v]);
    }
    free(bucket_codes); free(starts); free(ends); free(ids); free(layouts);
    free(tables); free(codes); free(row_q);
}

int main(void) {
    spans_case(40, 200, 100, -1, -1);
    spans_case(40, 200, 100, 0, -1);        /* unknown query, first table */
    spans_case(40, 200, 100, 39, -1);       /* unknown query, last table */
    spans_case(40, 200, 100, -1, 37);       /* bad interval, late table */
    rank_case(200, 400, 20000, 16, 10);     /* inverted tiles */
    rank_case(150, 300, 2000000, 8, 5);     /* query-major tiles */
    union_case(60, 20, 1000, 50000, -1);    /* bitmap path */
    union_case(60, 20, 1000, 1LL << 28, -1);  /* sort path */
    union_case(60, 20, 1000, 50000, 58);    /* bad id, last range */
    union_case(60, 20, 1000, 50000, 0);     /* bad id, first range */
    if (failures) {
        fprintf(stderr, "%d comparison(s) failed\n", failures);
        return 1;
    }
    printf("work queue: P = 4 equals P = 1\n");
    return 0;
}
