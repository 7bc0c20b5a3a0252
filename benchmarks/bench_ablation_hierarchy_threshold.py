"""Ablation: hierarchy escalation threshold (fitted median vs fixed).

The paper escalates queries whose short-list is below the *median*
short-list size; each group fits that median over its own rows
(``escalation_threshold``, printed).  This bench compares the fitted
rule against fixed thresholds to show the trade-off: higher thresholds
escalate more queries (more candidates, higher recall floor), lower
ones escalate fewer.
"""

import numpy as np

from repro.core.bilevel import BiLevelLSH
from repro.core.config import BiLevelConfig
from repro.evaluation.metrics import recall_ratio
from repro.experiments.workloads import make_workload


def test_ablation_hierarchy_threshold(benchmark, scale):
    workload = make_workload("labelme", scale)
    width = workload.absolute_widths()[len(scale.widths) // 2]
    exact_ids, _ = workload.ground_truth.neighbors(scale.k)

    def run():
        cfg = BiLevelConfig(n_groups=scale.n_groups, n_hashes=scale.n_hashes,
                            n_tables=scale.n_tables, bucket_width=width,
                            hierarchy=True, seed=scale.seed)
        idx = BiLevelLSH(cfg).fit(workload.train)
        print("\nfitted per-group thresholds:",
              [g.escalation_threshold for g in idx.group_indexes])
        rows = []
        for threshold in (None, scale.k, 4 * scale.k):
            ids, _, stats = idx.query_batch(workload.queries, scale.k,
                                            hierarchy_threshold=threshold)
            rec = float(recall_ratio(exact_ids, ids).mean())
            sel = float(stats.n_candidates.mean() / workload.train.shape[0])
            esc = float(stats.escalated.mean())
            name = "fitted" if threshold is None else str(threshold)
            rows.append((name, rec, sel, esc))
        print(f"{'threshold':>10} {'recall':>8} {'select.':>8} {'escalated':>10}")
        for name, rec, sel, esc in rows:
            print(f"{name:>10} {rec:>8.4f} {sel:>8.4f} {esc:>10.2f}")
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    by_name = {name: (rec, sel, esc) for name, rec, sel, esc in rows}
    # A larger fixed threshold escalates at least as many queries and
    # cannot reduce the candidate pool.
    assert by_name[str(4 * scale.k)][1] >= by_name[str(scale.k)][1] - 1e-9
