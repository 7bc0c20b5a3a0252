"""GPU simulation: the parallel short-list search of Section V.

Answers one batch with a real ``query_batch`` and prices its per-query
candidate counts under the four pipelines of the paper's Fig. 4 — serial
CPU (LSHKIT-style), GPU hash table + CPU short-list, and full GPU with
either the naive per-thread or the work-queue short-list.  Every pipeline
returns the same neighbors; only the modeled clock differs.

Run:  python examples/gpu_simulation.py
"""

import numpy as np

from repro import StandardLSH
from repro.datasets.synthetic import labelme_like, train_query_split
from repro.evaluation.groundtruth import brute_force_knn
from repro.evaluation.metrics import recall_ratio
from repro.gpu.device import CPUModel, DeviceModel
from repro.gpu.pipeline import MODES, price_query_batch

N_POINTS, N_QUERIES, DIM, K = 8000, 128, 128, 200


def main():
    data = labelme_like(n_points=N_POINTS + N_QUERIES, dim=DIM, seed=51)
    train, queries = train_query_split(data, N_QUERIES, seed=52)

    # A standard LSH index answers the batch (Bi-level works too).
    exact, d = brute_force_knn(train, queries, K)
    width = 2.0 * float(np.median(d[:32, -1]))
    index = StandardLSH(n_hashes=8, n_tables=10, bucket_width=width,
                        seed=5).fit(train)

    device = DeviceModel()  # GTX-480-like: 480 cores @ 1.4 GHz
    cpu = CPUModel()        # Core-i7-like: 1 core @ 3.2 GHz
    (ids, _, stats), timings = price_query_batch(index, queries, K,
                                                 device=device, cpu=cpu)
    recall = float(np.mean(recall_ratio(exact, ids)))
    print(f"mean candidates per query: {np.mean(stats.n_candidates):.0f}; "
          f"k = {K}; recall@{K} = {recall:.3f}\n")

    print(f"{'pipeline':<16} {'hash (s)':>12} {'short-list (s)':>15} "
          f"{'total (s)':>12} {'speedup':>9}")
    base = timings["cpu_lshkit"].total_seconds
    for mode in MODES:
        t = timings[mode]
        print(f"{mode:<16} {t.lookup_seconds:>12.3e} "
              f"{t.shortlist_seconds:>15.3e} {t.total_seconds:>12.3e} "
              f"{base / t.total_seconds:>8.1f}x")

    print("\nOne real query_batch answered every pipeline; the differences "
          "above are purely the simulated execution model over its "
          "candidate counts, mirroring the paper's Fig. 4.")


if __name__ == "__main__":
    main()
