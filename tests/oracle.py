"""The scalar oracle: the seed's per-query path, the reference the parity
tests hold the plan to.

:func:`oracle_query_batch` answers one :class:`StandardLSH` query by
query.  It shares no gather, dedup or distance code with the plan (one
bucket lookup per code, ``numpy.unique``, direct ``||x - q||``) and is
not reachable from any query front-end.  A :class:`BiLevelLSH` is its
routing plus one such index per group, so its oracle is composed here
(:func:`oracle_query`): route as the index routes, answer each group's
rows by the scalar oracle, and keep each query's ``k`` best by
``(distance, id)`` in plain Python.
"""

from typing import List, Optional, Tuple

import numpy as np

from repro.exec import QueryStats
from repro.exec.plan import check_hierarchy_threshold, validate_query_batch
from repro.lsh.index import StandardLSH


def _filter_deleted(index: StandardLSH, local_ids: np.ndarray) -> np.ndarray:
    deleted = index._deleted
    if deleted is None or local_ids.size == 0:
        return local_ids
    # Ids at/above the mask length were inserted after the snapshot was
    # taken and therefore cannot be tombstoned.
    drop = np.zeros(local_ids.size, dtype=bool)
    in_mask = local_ids < deleted.shape[0]
    drop[in_mask] = deleted[local_ids[in_mask]]
    return local_ids[~drop]


def _gather_candidates(index: StandardLSH, projections: List[np.ndarray],
                       codes: List[np.ndarray], qi: int) -> np.ndarray:
    """Union of bucket hits for query ``qi`` across all tables (local ids)."""
    parts = []
    for t in range(index.n_tables):
        code = codes[t][qi]
        parts.append(index._tables[t].gather_batch(code)[0])
        if index.n_probes > 0:
            probes = index._lattice.probe_codes(projections[t][qi], code,
                                                index.n_probes)
            for probe in probes:
                parts.append(index._tables[t].gather_batch(probe)[0])
    merged = np.concatenate(parts) if parts else np.empty(0, dtype=np.int64)
    merged = np.unique(merged) if merged.size else merged
    return _filter_deleted(index, merged)


def _escalate(index: StandardLSH, codes: List[np.ndarray], qi: int,
              min_count: int, base: np.ndarray) -> np.ndarray:
    """Grow query ``qi``'s candidate set via the bucket hierarchies."""
    parts = [base]
    for t in range(index.n_tables):
        extra = index._hierarchies[t].candidates(codes[t][qi], min_count)
        if extra.size:
            parts.append(extra)
    merged = np.concatenate(parts)
    merged = np.unique(merged) if merged.size else merged
    return _filter_deleted(index, merged)


def oracle_query_batch(index: StandardLSH, queries: np.ndarray, k: int,
                       hierarchy_threshold: Optional[int] = None,
                       ) -> Tuple[np.ndarray, np.ndarray, QueryStats]:
    """:meth:`StandardLSH.query_batch` by the per-query reference path.

    Same ids, candidate counts and escalation flags as the plan; the
    distances agree to the last ulp or so (direct ``||x - q||`` here,
    ``||x||^2 - 2 x.q + ||q||^2`` there) and exact ties may order
    differently.
    """
    index._check_fitted()
    queries, k = validate_query_batch(queries, k, index._data.shape[1])
    hierarchy_threshold = check_hierarchy_threshold(hierarchy_threshold)
    nq = queries.shape[0]
    ids_out = np.full((nq, k), -1, dtype=np.int64)
    dists_out = np.full((nq, k), np.inf, dtype=np.float64)
    escalated = np.zeros(nq, dtype=bool)
    projections = [family.project(queries) for family in index._families]
    codes = [index._lattice.quantize(proj) for proj in projections]
    candidate_sets = [_gather_candidates(index, projections, codes, qi)
                      for qi in range(nq)]
    if index.use_hierarchy:
        threshold = index._resolve_threshold(k, hierarchy_threshold)
        for qi in range(nq):
            if candidate_sets[qi].size < threshold:
                candidate_sets[qi] = _escalate(index, codes, qi, threshold,
                                               candidate_sets[qi])
                escalated[qi] = True
    for qi, cand in enumerate(candidate_sets):
        if cand.size == 0:
            continue
        diffs = index._data[cand] - queries[qi]
        dists = np.sqrt(np.einsum("ij,ij->i", diffs, diffs))
        take = min(k, cand.size)
        top = np.argpartition(dists, take - 1)[:take]
        top = top[np.argsort(dists[top], kind="stable")]
        ids_out[qi, :take] = index._ids[cand[top]]
        dists_out[qi, :take] = dists[top]
    n_candidates = np.array([c.size for c in candidate_sets], dtype=np.int64)
    return ids_out, dists_out, QueryStats(n_candidates, escalated)


def oracle_query(index, queries, k, hierarchy_threshold=None):
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
