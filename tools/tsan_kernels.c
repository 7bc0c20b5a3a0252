/* ThreadSanitizer driver for the kernels' work queue.
 *
 * Calls repro_bucket_spans, repro_rank_topk and repro_zm_probe_codes of
 * src/repro/native/_kernels.c on inputs past their inline thresholds at
 * P = 4 and compares every output word with the P = 1 call: the indexed
 * bucket search (layouts whose rows crowd into one run of cells, and
 * rows that miss), both tile paths of the rank (inverted, and query by
 * query through the bitmap or the sort), the same ids in several spans,
 * queries with nothing, tombstones, the counting mode (k = 0), a bad id
 * or a bad lookup row early and late, which must be refused with the code
 * P = 1 returns, and probe sequences of rows that run out of sets.  It
 * also walks repro_hierarchy_walk's indexed levels (one thread), every
 * level-0 node found where it lies.  The rows rank reads end at a page no
 * thread may touch (a refused id is refused before its row is read), and
 * the outputs carry a guard past their bound.  A standalone program
 * because an interpreter cannot load libtsan late.
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
i64 repro_bucket_index(const i64 *arrays, i64 n_arrays, int32_t *cells,
                       i64 *at);
i64 repro_zm_probe_codes(const double *y, const i64 *codes, i64 q, i64 m,
                         i64 n_probes, i64 *out, i64 *counts,
                         i64 n_threads);
i64 repro_hierarchy_walk(const i64 *hiers, i64 n_tables, const i64 *codes,
                         i64 n, i64 dim, i64 min_count, i64 *start,
                         i64 *size, i64 *depth);

/* The cells of one array of n rows of m codes (2^b >= 2n, b >= 1). */
static int32_t *index_of(const i64 *codes, i64 n, i64 m) {
    i64 words[3] = {(i64)(intptr_t)codes, n, m}, at[2], cells = 2;
    int32_t *out;
    while (cells < 2 * n) cells *= 2;
    out = malloc(sizeof(int32_t) * cells);
    if (repro_bucket_index(words, 1, out, at) != cells) {
        fprintf(stderr, "bucket_index of %lld rows failed\n", (long long)n);
        exit(2);
    }
    return out;
}

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
 * ids, codes spaced by `stride`: stride 2^58 leaves the hash little to
 * spread, so rows crowd into runs of cells), rows lookup rows per table
 * with codes drawn one past the grid (so some miss); bad_table >= 0 puts
 * a row of an unknown segment in that table, bad_interval >= 0 a bucket
 * end past its ids in that table. */
static void spans_case(i64 n_tables, i64 rows, i64 nq, i64 bad_table,
                       i64 bad_interval, i64 stride) {
    i64 b = 12, n_buckets = b * b, n_ids = 4 * n_buckets, total = 0;
    i64 n_rows = n_tables * rows, rc[2];
    i64 *bucket_codes = malloc(sizeof(i64) * 2 * n_buckets);
    i64 *starts = malloc(sizeof(i64) * n_buckets * n_tables);
    i64 *ends = malloc(sizeof(i64) * n_buckets * n_tables);
    i64 *ids = malloc(sizeof(i64) * n_ids);
    i64 *layouts = malloc(sizeof(i64) * 7 * n_tables);
    i64 *tables = malloc(sizeof(i64) * 2 * n_tables);
    i64 *codes = malloc(sizeof(i64) * 2 * n_rows);
    i64 *row_q = malloc(sizeof(i64) * n_rows), *spans[2], *miss[2];
    int32_t *cells;
    for (i64 c = 0; c < n_buckets; c++) {
        bucket_codes[2 * c] = c / b * stride;
        bucket_codes[2 * c + 1] = c % b * stride;
    }
    cells = index_of(bucket_codes, n_buckets, 2);
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
        i64 words[7] = {(i64)(intptr_t)bucket_codes, n_buckets,
                        (i64)(intptr_t)st, (i64)(intptr_t)en,
                        (i64)(intptr_t)ids, n_ids, (i64)(intptr_t)cells};
        memcpy(layouts + 7 * t, words, sizeof(words));
        tables[2 * t] = rows;
        tables[2 * t + 1] = 1;
    }
    for (i64 i = 0; i < n_rows; i++) {
        codes[2 * i] = below(b + 1) * stride;
        codes[2 * i + 1] = below(b) * stride;
        row_q[i] = below(nq);
        if (i / rows == bad_interval) {     /* every row hits the bad end */
            codes[2 * i] = (n_buckets / 2) / b * stride;
            codes[2 * i + 1] = (n_buckets / 2) % b * stride;
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
    free(tables); free(codes); free(row_q); free(cells);
}

/* q rows of m-wide probe sequences, n_probes each (fewer for m = 1, 2),
 * at P = 4 against P = 1; the output carries a guard past its bound. */
static void probe_case(i64 q, i64 m, i64 n_probes) {
    double *y = malloc(sizeof(double) * q * m);
    i64 *codes = malloc(sizeof(i64) * q * m), *out[2], *counts[2], rc[2];
    for (i64 i = 0; i < q * m; i++) {
        y[i] = (double)below(4001) / 400.0 - 5.0;
        codes[i] = (i64)(y[i] + 10.0) - 10;   /* floor */
    }
    for (int v = 0; v < 2; v++) {
        out[v] = malloc(sizeof(i64) * (q * n_probes * m + GUARD));
        counts[v] = malloc(sizeof(i64) * q);
        for (i64 i = 0; i < GUARD; i++) out[v][q * n_probes * m + i] = GUARD_WORD;
        rc[v] = repro_zm_probe_codes(y, codes, q, m, n_probes, out[v],
                                     counts[v], v ? 4 : 1);
        for (i64 i = 0; i < GUARD; i++)
            check(out[v][q * n_probes * m + i] == GUARD_WORD,
                  "probe guards untouched");
    }
    check(rc[0] > 0 && rc[0] == rc[1], "probe totals at P = 4");
    check(!memcmp(counts[0], counts[1], sizeof(i64) * q),
          "probe counts at P = 4");
    check(rc[0] == rc[1] &&
              !memcmp(out[0], out[1], sizeof(i64) * (rc[0] > 0 ? rc[0] : 0) * m),
          "probe codes at P = 4");
    for (int v = 0; v < 2; v++) {
        free(out[v]); free(counts[v]);
    }
    free(y); free(codes);
}

/* One hierarchy of n_levels levels over 8-wide codes: level 0 holds n
 * nodes (ascending, runs of 1-4 ids), the levels above copies of it.
 * Rows are every node's code, walked with min_count 1 (each stops at its
 * own node, level 0), and codes one past them (they climb or miss). */
static void walk_case(i64 n, i64 n_levels) {
    i64 dim = 8, n_ids = 0;
    i64 *codes = malloc(sizeof(i64) * n * dim);
    i64 *starts = malloc(sizeof(i64) * n), *ends = malloc(sizeof(i64) * n);
    i64 *words = malloc(sizeof(i64) * (5 + 5 * n_levels));
    i64 *rows = malloc(sizeof(i64) * 2 * n * dim), *out = malloc(sizeof(i64) * 6 * n);
    i64 *ids, hier;
    int32_t *cells;
    for (i64 i = 0; i < n; i++) {
        for (i64 j = 0; j < dim; j++)     /* ascending: the first word is i */
            codes[i * dim + j] = j ? 2 * below(8) - 8 : 2 * i - n;
        starts[i] = n_ids;
        n_ids += 1 + below(4);
        ends[i] = n_ids;
    }
    ids = malloc(sizeof(i64) * n_ids);
    for (i64 i = 0; i < n_ids; i++) ids[i] = i;
    cells = index_of(codes, n, dim);
    i64 head[5] = {dim, n_levels, n_levels, (i64)(intptr_t)ids, n_ids};
    memcpy(words, head, sizeof(head));
    for (i64 level = 0; level < n_levels; level++) {
        i64 v[5] = {(i64)(intptr_t)codes, n, (i64)(intptr_t)starts,
                    (i64)(intptr_t)ends, (i64)(intptr_t)cells};
        memcpy(words + 5 + 5 * level, v, sizeof(v));
    }
    memcpy(rows, codes, sizeof(i64) * n * dim);
    for (i64 i = 0; i < n * dim; i++) rows[n * dim + i] = codes[i] + 1;
    hier = (i64)(intptr_t)words;
    check(repro_hierarchy_walk(&hier, 1, rows, 2 * n, dim, 1, out,
                               out + 2 * n, out + 4 * n) == 0,
          "walk over indexed levels");
    for (i64 i = 0; i < n; i++)
        check(out[i] == starts[i] && out[2 * n + i] == ends[i] - starts[i] &&
                  out[4 * n + i] == 0,
              "walk finds every level-0 node");
    free(codes); free(starts); free(ends); free(words); free(rows);
    free(out); free(ids); free(cells);
}

int main(void) {
    spans_case(40, 200, 100, -1, -1, 1);
    spans_case(40, 200, 100, -1, -1, (i64)1 << 58);  /* crowded cells */
    spans_case(40, 200, 100, 0, -1, 1);     /* unknown segment, first table */
    spans_case(40, 200, 100, 39, -1, 1);    /* unknown segment, last table */
    spans_case(40, 200, 100, -1, 37, 1);    /* bad interval, late table */
    probe_case(3000, 8, 32);
    probe_case(700, 2, 32);                 /* 8 sets: every row runs out */
    probe_case(700, 1, 5);                  /* 2 sets */
    walk_case(300, 1);
    walk_case(300, 3);
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
