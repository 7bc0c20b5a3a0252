/* ThreadSanitizer driver for the kernels' work queue.
 *
 * Calls repro_bucket_spans and repro_rank_topk of
 * src/repro/native/_kernels.c on inputs past their inline thresholds at
 * P = 4 and compares every output word with the P = 1 call: both tile
 * paths of the rank (inverted, and query by query through the bitmap or
 * the sort), the same ids in several spans, queries with nothing,
 * tombstones, the counting mode (k = 0), and a bad id or a bad lookup row
 * early and late, which must be refused with the code P = 1 returns.  The
 * rows rank reads end at a page no thread may touch (a refused id is
 * refused before its row is read), and the outputs carry a guard past
 * their bound.  A standalone program because an interpreter cannot load
 * libtsan late.
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
#include <sys/mman.h>
#include <unistd.h>

typedef int64_t i64;

i64 repro_rank_topk(const double *data, i64 dim, const double *sq_norms,
                    const double *queries, i64 nq, const i64 *bases,
                    const i64 *spans, i64 n_spans, i64 spill, i64 n_rows,
                    const unsigned char *deleted, i64 del_len, i64 k,
                    i64 *sel_out, double *dist_out, i64 *counts,
                    i64 n_threads);
i64 repro_bucket_spans(const i64 *codes, const i64 *row_q, const i64 *tables,
                       i64 n_tables, const i64 *layouts, i64 m, i64 nq,
                       i64 *spans, i64 *misses, i64 n_threads);

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

/* n doubles that end where an inaccessible page begins. */
static double *guarded(i64 n, void **map, size_t *len) {
    size_t page = (size_t)sysconf(_SC_PAGESIZE), bytes = (size_t)n * 8;
    size_t body = (bytes + page - 1) / page * page;
    char *base = mmap(NULL, body + page, PROT_READ | PROT_WRITE,
                      MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (base == MAP_FAILED || mprotect(base + body, page, PROT_NONE)) {
        perror("guarded rows");
        exit(2);
    }
    *map = base;
    *len = body + page;
    return (double *)(base + body - bytes);
}

/* nq queries over n_rows rows of one id array: query q gets `copies` spans
 * of the same `per` ids (every third query none), ids drawn within `width`
 * rows of a start that moves with q — narrow widths make inverted tiles,
 * wide ones bitmap or sorted queries.  bad_query >= 0 sets the last id of
 * that query's last span to n_rows.  Ranked at k, with and without norms,
 * and counted (k = 0), at P = 1 and P = 4. */
static void rank_case(i64 nq, i64 per, i64 copies, i64 width, i64 n_rows,
                      i64 dim, i64 k, i64 bad_query) {
    void *map;
    size_t map_len;
    double *data = guarded(n_rows * dim, &map, &map_len);
    double *norms = malloc(sizeof(double) * n_rows);
    double *queries = malloc(sizeof(double) * nq * dim);
    i64 n_ids = nq * per, n_spans = 0, rc[2];
    i64 *ids = malloc(sizeof(i64) * (n_ids + 1));
    i64 *spans = malloc(sizeof(i64) * 4 * nq * copies), base[1];
    i64 *sel[2], *counts[2];
    double *dist[2];
    unsigned char *deleted = malloc((size_t)(n_rows / 2 + 1));
    for (i64 i = 0; i < n_rows * dim; i++)
        data[i] = (double)below(2001) / 1000.0 - 1.0;
    for (i64 r = 0; r < n_rows; r++) {
        norms[r] = 0.0;
        for (i64 j = 0; j < dim; j++)
            norms[r] += data[r * dim + j] * data[r * dim + j];
    }
    for (i64 i = 0; i < n_rows / 2 + 1; i++) deleted[i] = below(10) < 2;
    for (i64 i = 0; i < nq * dim; i++)
        queries[i] = (double)below(2001) / 1000.0 - 1.0;
    base[0] = (i64)(intptr_t)ids;
    for (i64 q = 0; q < nq; q++) {
        i64 start = q * (n_rows - width) / nq;
        for (i64 i = 0; i < per; i++) ids[q * per + i] = start + below(width);
        for (i64 c = 0; q % 3 != 2 && c < copies; c++, n_spans++) {
            i64 w[4] = {0, q * per, c ? per / 2 : per, q};
            memcpy(spans + 4 * n_spans, w, sizeof(w));
        }
    }
    if (bad_query >= 0) ids[bad_query * per + per - 1] = n_rows;
    for (i64 kk = k; kk >= 0; kk -= k) {
        for (int with_norms = 0; with_norms < 2 - !kk; with_norms++) {
            for (int v = 0; v < 2; v++) {
                sel[v] = malloc(sizeof(i64) * (nq * kk + GUARD));
                dist[v] = malloc(sizeof(double) * (nq * kk + 1));
                counts[v] = malloc(sizeof(i64) * (nq + GUARD));
                for (i64 i = 0; i < GUARD; i++)
                    sel[v][nq * kk + i] = counts[v][nq + i] = GUARD_WORD;
                rc[v] = repro_rank_topk(
                    data, dim, with_norms ? norms : NULL, queries, nq, base,
                    spans, n_spans, 1, n_rows, deleted, n_rows / 2 + 1, kk,
                    sel[v], dist[v], counts[v], v ? 4 : 1);
                for (i64 i = 0; i < GUARD; i++)
                    check(sel[v][nq * kk + i] == GUARD_WORD &&
                              counts[v][nq + i] == GUARD_WORD,
                          "rank guards untouched");
            }
            check(rc[0] == rc[1], "rank return code at P = 4");
            if (bad_query >= 0) {
                check(rc[1] == -2, "rank refuses a bad id at P = 4");
            } else {
                check(rc[0] == 0, "rank at P = 1");
                check(!memcmp(counts[0], counts[1], sizeof(i64) * nq),
                      "rank counts at P = 4");
                check(!memcmp(sel[0], sel[1], sizeof(i64) * nq * kk),
                      "rank ids at P = 4");
                check(!memcmp(dist[0], dist[1], sizeof(double) * nq * kk),
                      "rank distances at P = 4");
            }
            for (int v = 0; v < 2; v++) {
                free(sel[v]); free(dist[v]); free(counts[v]);
            }
        }
        if (!kk) break;
    }
    munmap(map, map_len);
    free(norms); free(queries); free(ids); free(spans); free(deleted);
}

/* n_tables tables of one layout each over m = 2 codes (b x b buckets of
 * ids), rows lookup rows per table with codes drawn one past the grid (so
 * some miss); bad_table >= 0 puts a row of an unknown segment in that
 * table, bad_interval >= 0 a bucket end past its ids in that table. */
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
    i64 *row_q = malloc(sizeof(i64) * n_rows), *spans[2], *miss[2];
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
        spans[v] = malloc(sizeof(i64) * 4 * n_rows);
        miss[v] = malloc(sizeof(i64) * n_tables);
        rc[v] = repro_bucket_spans(codes, row_q, tables, n_tables, layouts, 2,
                                   nq, spans[v], miss[v], v ? 4 : 1);
    }
    check(rc[0] == rc[1], "spans return code at P = 4");
    if (bad_table >= 0) check(rc[1] == -2, "spans refuse an unknown segment");
    else if (bad_interval >= 0) check(rc[1] == -3, "spans refuse a bad end");
    else {
        check(rc[0] == n_rows, "one span per row and layout");
        check(!memcmp(spans[0], spans[1], sizeof(i64) * 4 * n_rows),
              "spans at P = 4");
        check(!memcmp(miss[0], miss[1], sizeof(i64) * n_tables),
              "misses at P = 4");
        for (i64 t = 0; t < n_tables; t++) total += miss[0][t];
        check(total > 0 && total < n_rows, "some rows miss, some hit");
    }
    for (int v = 0; v < 2; v++) {
        free(spans[v]); free(miss[v]);
    }
    free(bucket_codes); free(starts); free(ends); free(ids); free(layouts);
    free(tables); free(codes); free(row_q);
}

int main(void) {
    spans_case(40, 200, 100, -1, -1);
    spans_case(40, 200, 100, 0, -1);        /* unknown segment, first table */
    spans_case(40, 200, 100, 39, -1);       /* unknown segment, last table */
    spans_case(40, 200, 100, -1, 37);       /* bad interval, late table */
    rank_case(200, 400, 2, 600, 3000, 16, 10, -1);      /* inverted tiles */
    rank_case(150, 300, 2, 40000, 60000, 8, 5, -1);     /* bitmap queries */
    rank_case(300, 100, 3, 2000000, 2000000, 2, 5, -1); /* sorted queries */
    rank_case(200, 400, 2, 600, 3000, 16, 10, 0);       /* bad id, first */
    rank_case(200, 400, 2, 600, 3000, 16, 10, 199);     /* bad id, last */
    if (failures) {
        fprintf(stderr, "%d comparison(s) failed\n", failures);
        return 1;
    }
    printf("work queue: P = 4 equals P = 1\n");
    return 0;
}
