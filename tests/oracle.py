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

A ``Z^M`` escalation is held to the Morton rule in Python ints
(:func:`morton_encode`, :class:`ZmCurve`), which sorts a table's buckets
along the curve itself and reads nothing of the index's keys or walk.
"""

from bisect import bisect_left
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.lsh.index import StandardLSH
from repro.lsh.query import QueryStats
from repro.utils.validation import (check_hierarchy_threshold,
                                    validate_query_batch)


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


def morton_encode(codes, bits: int) -> List[int]:
    """Interleave the binary digits of each row of ``codes`` (an integer
    array or rows of Python ints), as Python ints: bit ``b`` of
    coordinate ``j`` lands at position ``b * M + (M - 1 - j)``, higher
    positions more significant.  Every entry must be non-negative and
    fit in ``bits`` bits."""
    rows = codes.tolist() if isinstance(codes, np.ndarray) else codes
    out = []
    for row in rows:
        if any(c < 0 or c >> bits for c in row):
            raise ValueError("codes must be non-negative and fit in the "
                             "bit budget")
        key, m = 0, len(row)
        for b in range(bits):
            for j, c in enumerate(row):
                key |= ((c >> b) & 1) << (b * m + m - 1 - j)
        out.append(key)
    return out


def morton_box(codes: np.ndarray) -> Tuple[List[int], int]:
    """``(offset, bits)`` of ``(n, M)`` code rows in Python ints: the
    coordinate-wise minimum, and the bit length of the largest coordinate
    less it."""
    rows = codes.tolist()
    offset = ([min(column) for column in zip(*rows)] if rows
              else [0] * codes.shape[1])
    bits = max((c - o for row in rows for c, o in zip(row, offset)),
               default=0).bit_length()
    return offset, bits


def morton_interleave(codes: np.ndarray) -> List[int]:
    """The Python-int Morton keys of ``codes`` in their own box."""
    offset, bits = morton_box(codes)
    return morton_encode([[c - o for c, o in zip(row, offset)]
                          for row in codes.tolist()], bits)


def morton_order(codes: np.ndarray) -> List[int]:
    """The rows of ``codes`` by their Morton keys in their own box, ties
    by row: the order every sorted code array keeps."""
    keys = morton_interleave(codes)
    return sorted(range(len(keys)), key=lambda i: (keys[i], i))


class ZmCurve:
    """A ``Z^M`` table's base buckets sorted along the Morton curve in
    Python ints, and the escalation window rule over them."""

    def __init__(self, table):
        layout = table.layouts()[0]
        codes = layout.bucket_codes
        self.m = codes.shape[1]
        self.offset, bits = morton_box(codes)
        self.bits = max(bits, 1)
        keys = morton_encode([[c - o for c, o in zip(row, self.offset)]
                              for row in codes.tolist()], self.bits)
        self.curve = sorted(range(len(keys)), key=keys.__getitem__)
        self.keys = [keys[b] for b in self.curve]
        self.runs = [layout.sorted_ids[layout.starts[b]:layout.ends[b]]
                     for b in self.curve]
        self.cum = np.cumsum([0] + [run.size for run in self.runs])

    def encode_query(self, code: Sequence[int]) -> int:
        """The Morton key of ``code`` clamped into the table's box."""
        limit = (1 << self.bits) - 1
        return morton_encode([[min(max(int(c) - o, 0), limit) for c, o in
                               zip(code, self.offset)]], self.bits)[0]

    def prefix_window(self, key: int, dropped: int) -> Tuple[int, int]:
        """Curve range ``[lo, hi)`` of the buckets sharing ``key``'s bits
        above its ``dropped`` low-order ones."""
        prefix = key >> dropped
        return (bisect_left(self.keys, prefix << dropped),
                bisect_left(self.keys, (prefix + 1) << dropped))

    def window(self, code: Sequence[int],
               min_count: int) -> Tuple[int, int, int]:
        """``(lo, hi, dropped)``: the exact-prefix window plus the insert
        position's two neighbours, one more bit dropped per step until
        it holds ``min_count`` ids, covers the curve or has dropped all
        ``M * bits``."""
        key = self.encode_query(code)
        n = len(self.keys)
        pos = bisect_left(self.keys, key)
        dropped = 0
        lo, hi = self.prefix_window(key, dropped)
        lo, hi = min(lo, max(pos - 1, 0)), max(hi, min(pos + 1, n))
        while (self.cum[hi] - self.cum[lo] < min_count
               and (lo > 0 or hi < n) and dropped < self.bits * self.m):
            dropped += 1
            lo2, hi2 = self.prefix_window(key, dropped)
            lo, hi = min(lo, lo2), max(hi, hi2)
        return lo, hi, dropped

    def candidates(self, code: Sequence[int], min_count: int) -> np.ndarray:
        """The ids of :meth:`window`'s buckets, ascending."""
        lo, hi, _ = self.window(code, min_count)
        parts = self.runs[lo:hi]
        return (np.sort(np.concatenate(parts)) if parts
                else np.empty(0, dtype=np.int64))


def _escalate(index: StandardLSH, codes: List[np.ndarray], qi: int,
              min_count: int, base: np.ndarray,
              curves: Optional[list]) -> np.ndarray:
    """Grow query ``qi``'s candidate set via the bucket hierarchies: a
    ``Z^M`` table's window by :class:`ZmCurve` (``curves``), an ``E8``
    table's node by its hierarchy."""
    parts = [base]
    for t in range(index.n_tables):
        source = index._hierarchies[t] if curves is None else curves[t]
        extra = source.candidates(codes[t][qi], min_count)
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
        curves = ([ZmCurve(table) for table in index._tables]
                  if index.lattice_kind.lower() == "zm" else None)
        for qi in range(nq):
            if candidate_sets[qi].size < threshold:
                candidate_sets[qi] = _escalate(index, codes, qi, threshold,
                                               candidate_sets[qi], curves)
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
