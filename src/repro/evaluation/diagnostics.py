"""Index and partition diagnostics.

Tools for inspecting *why* the Bi-level scheme behaves as it does:

- :func:`aspect_ratio` / :func:`partition_roundness` quantify the paper's
  central geometric claim (Section IV-A.3, Fig. 2): RP-tree leaves have
  bounded aspect ratio, which is what makes a single bucket width work
  for all projection directions inside a leaf.
- :func:`bucket_statistics` summarizes the bucket-size distribution of an
  LSH table (skew drives short-list imbalance — the motivation for the
  GPU work-queue design).
- :func:`routing_loss` measures the fraction of true k-nearest neighbors
  a query loses *solely* because they live outside its level-1 group —
  the quantity that caps Bi-level recall and dominates its query-wise
  variance at small scale (see EXPERIMENTS.md, Figs. 11/12).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Sequence, Union

import numpy as np

from repro import obs
from repro.obs.registry import CounterFamily, HistogramFamily, MetricsRegistry
from repro.utils.validation import as_float_matrix

if TYPE_CHECKING:  # pragma: no cover - import-time types only
    from repro.core.bilevel import BiLevelLSH
    from repro.lsh.index import QueryStats
    from repro.lsh.table import LSHTable


def aspect_ratio(points: np.ndarray) -> float:
    """Singular-value aspect ratio of a point set (1.0 = perfectly round).

    Computed as the ratio of the largest to smallest non-negligible
    singular value of the centered data; degenerate sets (rank < 2 or
    fewer than 3 points) return ``inf``.
    """
    points = as_float_matrix(points, name="points")
    if points.shape[0] < 3:
        return float("inf")
    centered = points - points.mean(axis=0)
    s = np.linalg.svd(centered, compute_uv=False)
    tol = s[0] * 1e-9 if s.size and s[0] > 0 else 0.0
    significant = s[s > tol]
    if significant.size < 2:
        return float("inf")
    return float(significant[0] / significant[-1])


def partition_roundness(data: np.ndarray,
                        leaf_indices: Sequence[np.ndarray]) -> np.ndarray:
    """Aspect ratio of each partition cell (lower = rounder).

    Pass ``RPTree.leaf_indices()`` (or the K-means adapter's) to compare
    partitioners; the paper's claim is that RP-tree max-rule cells have
    *bounded* aspect ratio, so their distribution should be tighter than
    both the unpartitioned dataset's and K-means cells'.
    """
    data = as_float_matrix(data)
    out = np.empty(len(leaf_indices), dtype=np.float64)
    for i, idx in enumerate(leaf_indices):
        out[i] = aspect_ratio(data[np.asarray(idx, dtype=np.int64)])
    return out


@dataclass(frozen=True)
class BucketStatistics:
    """Summary of one LSH table's bucket-size distribution."""

    n_buckets: int
    n_points: int
    mean_size: float
    max_size: int
    gini: float


def _gini(sizes: np.ndarray) -> float:
    """Gini coefficient of a non-negative size distribution (0 = even)."""
    sizes = np.sort(np.asarray(sizes, dtype=np.float64))
    n = sizes.size
    total = sizes.sum()
    if n == 0 or total == 0:
        return 0.0
    ranks = np.arange(1, n + 1)
    return float((2.0 * np.sum(ranks * sizes) / (n * total)) - (n + 1) / n)


def bucket_statistics(table: LSHTable) -> BucketStatistics:
    """Summarize a :class:`~repro.lsh.table.LSHTable`'s bucket sizes."""
    sizes = table.bucket_sizes()
    return BucketStatistics(
        n_buckets=int(sizes.size),
        n_points=int(sizes.sum()),
        mean_size=float(sizes.mean()) if sizes.size else 0.0,
        max_size=int(sizes.max()) if sizes.size else 0,
        gini=_gini(sizes),
    )


def routing_loss(index: BiLevelLSH, queries: np.ndarray,
                 exact_ids: np.ndarray) -> np.ndarray:
    """Fraction of each query's true neighbors outside its level-1 group.

    Parameters
    ----------
    index:
        A fitted :class:`~repro.core.bilevel.BiLevelLSH`.
    queries:
        ``(q, D)`` query batch.
    exact_ids:
        ``(q, k)`` exact neighbor ids (from the ground truth).

    Returns
    -------
    numpy.ndarray
        ``(q,)`` loss values in ``[0, 1]``; this is a hard ceiling on
        ``1 - recall`` no matter how wide the second-level buckets are.
    """
    queries = as_float_matrix(queries, name="queries")
    exact_ids = np.atleast_2d(np.asarray(exact_ids, dtype=np.int64))
    groups = index.partitioner.assign(queries)
    # Map every training point to its group once.
    n = index.n_points
    point_group = np.empty(n, dtype=np.int64)
    for g, idx in enumerate(index.partitioner.leaf_indices()):
        point_group[idx] = g
    q, k = exact_ids.shape
    out = np.empty(q, dtype=np.float64)
    for qi in range(q):
        neighbor_groups = point_group[exact_ids[qi]]
        out[qi] = float(np.mean(neighbor_groups != groups[qi]))
    return out


def escalation_report(stats: "Union[QueryStats, MetricsRegistry]",
                      ) -> Dict[str, float]:
    """Summarize an escalation pass from either data source.

    Accepts a :class:`~repro.lsh.index.QueryStats` (one batch's exact
    per-query arrays) or a live :class:`~repro.obs.registry.MetricsRegistry`
    recorded by an instrumented run (``repro.obs``), in which case the
    candidate distribution comes from the ``repro_shortlist_size``
    histogram — percentiles are then bucket-interpolated estimates and
    min/max are the 0th/100th bucket percentiles.

    All ratios are guarded: an empty batch, or a batch where *every*
    query escalated (leaving no unescalated slice to average), reports
    ``0.0`` instead of dividing by zero.
    """
    if isinstance(stats, MetricsRegistry):
        return _escalation_report_from_registry(stats)
    n = stats.n_candidates
    escalated = stats.escalated
    report = {
        "n_queries": int(escalated.size),
        "n_escalated": int(escalated.sum()),
        "escalated_fraction": float(escalated.mean())
        if escalated.size else 0.0,
        "candidates_mean": float(n.mean()) if n.size else 0.0,
        "candidates_min": int(n.min()) if n.size else 0,
        "candidates_max": int(n.max()) if n.size else 0,
    }
    if n.size:
        p50, p95, p99 = np.percentile(n, [50.0, 95.0, 99.0])
        report["candidates_p50"] = float(p50)
        report["candidates_p95"] = float(p95)
        report["candidates_p99"] = float(p99)
    else:
        report["candidates_p50"] = 0.0
        report["candidates_p95"] = 0.0
        report["candidates_p99"] = 0.0
    escalated_slice = n[escalated]
    unescalated_slice = n[~escalated]
    report["candidates_mean_escalated"] = (
        float(escalated_slice.mean()) if escalated_slice.size else 0.0)
    report["candidates_mean_unescalated"] = (
        float(unescalated_slice.mean()) if unescalated_slice.size else 0.0)
    return report


def _escalation_report_from_registry(registry: MetricsRegistry,
                                     ) -> Dict[str, float]:
    """The registry-backed path of :func:`escalation_report`."""
    queries = registry.get(obs.QUERIES_TOTAL)
    n_queries = (queries.total()
                 if isinstance(queries, CounterFamily) else 0.0)
    escalations = registry.get(obs.ESCALATIONS_TOTAL)
    n_escalated = (escalations.total()
                   if isinstance(escalations, CounterFamily) else 0.0)
    report: Dict[str, float] = {
        "n_queries": int(n_queries),
        "n_escalated": int(n_escalated),
        "escalated_fraction": (n_escalated / n_queries
                               if n_queries else 0.0),
        "candidates_mean": 0.0,
        "candidates_min": 0,
        "candidates_max": 0,
        "candidates_p50": 0.0,
        "candidates_p95": 0.0,
        "candidates_p99": 0.0,
    }
    shortlist = registry.get(obs.SHORTLIST_SIZE)
    if isinstance(shortlist, HistogramFamily) and shortlist.count:
        hist = shortlist.labels()
        report["candidates_mean"] = hist.sum / hist.count
        report["candidates_min"] = int(hist.percentile(0.0))
        report["candidates_max"] = int(np.ceil(hist.percentile(100.0)))
        report["candidates_p50"] = hist.percentile(50.0)
        report["candidates_p95"] = hist.percentile(95.0)
        report["candidates_p99"] = hist.percentile(99.0)
    return report
