"""The scalar oracle, spelled for every index class the parity tests use.

``repro.lsh.index.oracle_query_batch`` answers one :class:`StandardLSH`
query by query; a :class:`BiLevelLSH` is its routing plus one such index
per group, so its oracle is composed here: route as the index routes,
answer each group's rows by the scalar oracle, and keep each query's
``k`` best by ``(distance, id)`` in plain Python.
"""

import numpy as np

from repro.exec import QueryStats
from repro.lsh.index import StandardLSH, oracle_query_batch


def oracle_query(index, queries, k, hierarchy_threshold="median"):
    if isinstance(index, StandardLSH):
        return oracle_query_batch(index, queries, k, hierarchy_threshold)
    queries = np.asarray(queries, dtype=np.float64)
    nq = queries.shape[0]
    spill = min(index.config.multi_assign, len(index.group_indexes))
    if spill <= 1:
        routes = [[g] for g in index.partitioner.assign(queries)]
    else:
        routes = index.partitioner.assign_multi(queries, spill)
    best = [[] for _ in range(nq)]
    n_candidates = np.zeros(nq, dtype=np.int64)
    escalated = np.zeros(nq, dtype=bool)
    for g, group in enumerate(index.group_indexes):
        rows = np.array([qi for qi, leaves in enumerate(routes)
                         if g in leaves], dtype=np.int64)
        if not rows.size:
            continue
        ids_g, dists_g, stats_g = oracle_query_batch(
            group, queries[rows], k, hierarchy_threshold)
        for qi, row_ids, row_dists in zip(rows, ids_g, dists_g):
            best[qi] += [(d, i) for d, i in zip(row_dists, row_ids) if i >= 0]
        n_candidates[rows] += stats_g.n_candidates
        escalated[rows] |= stats_g.escalated
    ids = np.full((nq, k), -1, dtype=np.int64)
    dists = np.full((nq, k), np.inf, dtype=np.float64)
    for qi, pool in enumerate(best):
        top = sorted(pool)[:k]
        ids[qi, :len(top)] = [i for _, i in top]
        dists[qi, :len(top)] = [d for d, _ in top]
    return ids, dists, QueryStats(n_candidates, escalated)
