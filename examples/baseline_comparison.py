"""Baseline comparison: every index family in the library on one workload.

Puts the paper's contribution next to every baseline the library ships:

- brute force (exact, the recall=1 reference),
- Kd-tree (the exact tree method the paper's intro cites),
- standard LSH and multiprobe standard LSH,
- Bi-level LSH with per-group tuned widths (the contribution).

For each method it reports the fraction of the dataset touched per query
(distance evaluations or short-list size — the honest cost proxy across
exact and approximate methods) and the achieved recall.

Run:  python examples/baseline_comparison.py
"""

import time

import numpy as np

from repro.core.bilevel import BiLevelLSH
from repro.core.config import BiLevelConfig
from repro.datasets.synthetic import labelme_like, train_query_split
from repro.evaluation.groundtruth import brute_force_knn
from repro.evaluation.metrics import recall_ratio
from repro.exact.kdtree import KDTree
from repro.lsh.index import StandardLSH

N_POINTS, N_QUERIES, DIM, K = 4000, 200, 64, 10


def report(name, recall, touched_fraction, seconds):
    print(f"{name:<28} recall={recall:5.3f}  touched={touched_fraction:7.4f}  "
          f"wall={seconds:6.2f}s")


def main():
    data = labelme_like(n_points=N_POINTS + N_QUERIES, dim=DIM, seed=17)
    train, queries = train_query_split(data, N_QUERIES, seed=18)
    exact_ids, exact_d = brute_force_knn(train, queries, K)
    width = 2.0 * float(np.median(exact_d[:, -1]))
    n = train.shape[0]

    print(f"workload: {n} points, dim {DIM}, {N_QUERIES} queries, k={K}\n")

    report("brute force (exact)", 1.0, 1.0, 0.0)

    t0 = time.perf_counter()
    kd = KDTree(leaf_size=16).fit(train)
    ids, _ = kd.query(queries, K)
    report("kd-tree (exact)", recall_ratio(exact_ids, ids).mean(),
           kd.last_distance_evals / (N_QUERIES * n), time.perf_counter() - t0)

    t0 = time.perf_counter()
    std = StandardLSH(n_hashes=8, n_tables=10, bucket_width=width,
                      seed=20).fit(train)
    ids, _, stats = std.query_batch(queries, K)
    report("standard LSH", recall_ratio(exact_ids, ids).mean(),
           stats.n_candidates.mean() / n, time.perf_counter() - t0)

    t0 = time.perf_counter()
    mp = StandardLSH(n_hashes=8, n_tables=10, bucket_width=width,
                     n_probes=32, seed=20).fit(train)
    ids, _, stats = mp.query_batch(queries, K)
    report("multiprobe standard LSH", recall_ratio(exact_ids, ids).mean(),
           stats.n_candidates.mean() / n, time.perf_counter() - t0)

    t0 = time.perf_counter()
    bi = BiLevelLSH(BiLevelConfig(n_groups=16, n_hashes=8, n_tables=10,
                                  tune_params=True, target_recall=0.9,
                                  seed=21)).fit(train)
    ids, _, stats = bi.query_batch(queries, K)
    report("Bi-level LSH (tuned)", recall_ratio(exact_ids, ids).mean(),
           stats.n_candidates.mean() / n, time.perf_counter() - t0)

    print("\n'touched' = distance evaluations (exact methods) or short-list "
          "size (approximate methods), as a fraction of the dataset; this "
          "is the paper's selectivity axis generalized to exact baselines.")


if __name__ == "__main__":
    main()
