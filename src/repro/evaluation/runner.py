"""Experiment runner reproducing the paper's measurement protocol.

One *run* = build an index with a fresh projection seed, answer every
query, and record per-query recall, error ratio and selectivity.  One
*experiment* = several runs of the same method (fresh seeds each time) so
that the projection-wise and query-wise deviations can be decomposed with
:func:`repro.evaluation.variance.decompose_variance`.  One *sweep* =
experiments over a grid of bucket widths ``W``, producing the
selectivity-vs-recall/error curves that every figure of the paper plots.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Protocol, Sequence, Tuple

import numpy as np

from repro.evaluation.groundtruth import GroundTruth
from repro.evaluation.metrics import error_ratio, recall_ratio, selectivity
from repro.evaluation.variance import VarianceSummary, decompose_variance

#: An index factory: seed -> unfitted index with fit()/query_batch().
IndexFactory = Callable[[int], object]


@dataclass(frozen=True)
class MethodSpec:
    """A named method under evaluation.

    Attributes
    ----------
    name:
        Label used in printed tables (e.g. ``"bilevel+multiprobe"``).
    factory:
        Callable mapping an integer seed to an unfitted index exposing
        ``fit(data)`` and ``query_batch(queries, k) -> (ids, dists, stats)``.
    """

    name: str
    factory: IndexFactory


@dataclass
class RunMeasurement:
    """Per-query metrics of a single run (one projection draw)."""

    recall: np.ndarray
    error: np.ndarray
    selectivity: np.ndarray


@dataclass
class ExperimentResult:
    """All runs of one method at one parameter point.

    The ``(n_runs, n_queries)`` matrices feed the variance decomposition;
    the summaries are cached for printing.
    """

    method: str
    recall_matrix: np.ndarray
    error_matrix: np.ndarray
    selectivity_matrix: np.ndarray
    params: Dict[str, object] = field(default_factory=dict)

    @property
    def recall(self) -> VarianceSummary:
        return decompose_variance(self.recall_matrix)

    @property
    def error(self) -> VarianceSummary:
        return decompose_variance(self.error_matrix)

    @property
    def selectivity(self) -> VarianceSummary:
        return decompose_variance(self.selectivity_matrix)

    def row(self) -> Dict[str, float]:
        """Flat dict of the headline numbers (for table printing)."""
        rec, err, sel = self.recall, self.error, self.selectivity
        out = {
            "selectivity": sel.mean,
            "selectivity_std_proj": sel.std_projections,
            "selectivity_std_query": sel.std_queries,
            "recall": rec.mean,
            "recall_std_proj": rec.std_projections,
            "recall_std_query": rec.std_queries,
            "error": err.mean,
            "error_std_proj": err.std_projections,
            "error_std_query": err.std_queries,
        }
        out.update({f"param_{k}": v for k, v in self.params.items()})
        return out


class KNNIndex(Protocol):
    """Structural type of anything evaluable: fit + batch query."""

    def fit(self, data: np.ndarray) -> "KNNIndex":
        ...

    def query_batch(self, queries: np.ndarray, k: int,
                    ) -> Tuple[np.ndarray, np.ndarray, "QueryStats"]:
        ...


def evaluate_index(index: KNNIndex, data: np.ndarray, queries: np.ndarray,
                   k: int, ground_truth: GroundTruth, *,
                   deadline_ms: Optional[float] = None) -> RunMeasurement:
    """Fit-and-query one index, returning per-query metrics.

    ``deadline_ms`` reaches the index's ``query_batch`` as a keyword
    only when given — pass it for indexes whose ``query_batch`` accepts
    it (``StandardLSH`` and ``BiLevelLSH`` do; the bare
    :class:`KNNIndex` protocol does not).
    """
    index.fit(data)
    given = {} if deadline_ms is None else {"deadline_ms": deadline_ms}
    ids, dists, stats = index.query_batch(queries, k, **given)
    exact_ids, exact_dists = ground_truth.neighbors(k)
    return RunMeasurement(
        recall=recall_ratio(exact_ids, ids),
        error=error_ratio(exact_dists, dists),
        selectivity=selectivity(stats.n_candidates, data.shape[0]),
    )


def run_method(spec: MethodSpec, data: np.ndarray, queries: np.ndarray,
               k: int, n_runs: int = 3, base_seed: int = 0,
               ground_truth: Optional[GroundTruth] = None,
               params: Optional[Dict[str, object]] = None, *,
               deadline_ms: Optional[float] = None) -> ExperimentResult:
    """Run ``spec`` ``n_runs`` times with independent projection seeds.

    ``deadline_ms`` is forwarded to
    :func:`evaluate_index` for every run (each run gets its own fresh
    ``deadline_ms`` budget).
    """
    if n_runs <= 0:
        raise ValueError(f"n_runs must be positive, got {n_runs}")
    if ground_truth is None:
        ground_truth = GroundTruth(data, queries, k)
    recalls, errors, selectivities = [], [], []
    for run in range(n_runs):
        index = spec.factory(base_seed + 7919 * run)
        m = evaluate_index(index, data, queries, k, ground_truth,
                           deadline_ms=deadline_ms)
        recalls.append(m.recall)
        errors.append(m.error)
        selectivities.append(m.selectivity)
    return ExperimentResult(
        method=spec.name,
        recall_matrix=np.vstack(recalls),
        error_matrix=np.vstack(errors),
        selectivity_matrix=np.vstack(selectivities),
        params=dict(params or {}),
    )


def sweep_bucket_width(make_spec: Callable[[float], MethodSpec],
                       widths: Sequence[float], data: np.ndarray,
                       queries: np.ndarray, k: int, n_runs: int = 3,
                       base_seed: int = 0,
                       ground_truth: Optional[GroundTruth] = None, *,
                       deadline_ms: Optional[float] = None,
                       ) -> List[ExperimentResult]:
    """Evaluate a method along a grid of bucket widths ``W``.

    ``make_spec(W)`` must return the :class:`MethodSpec` configured with
    bucket width ``W``; the returned results are ordered like ``widths``
    and each carries ``params={'W': W}`` for table printing.  The exact
    ground truth is computed once and shared across the sweep.
    ``deadline_ms`` is forwarded to every :func:`run_method` call.
    """
    if ground_truth is None:
        ground_truth = GroundTruth(data, queries, k)
    results = []
    for w in widths:
        spec = make_spec(float(w))
        results.append(run_method(spec, data, queries, k, n_runs=n_runs,
                                  base_seed=base_seed,
                                  ground_truth=ground_truth,
                                  params={"W": float(w)},
                                  deadline_ms=deadline_ms))
    return results


def format_results_table(results: Sequence[ExperimentResult],
                         title: str = "") -> str:
    """Render experiment results as the fixed-width table the benches print."""
    lines = []
    if title:
        lines.append(title)
    header = (f"{'method':<28} {'W':>8} {'select.':>8} {'±proj':>7} {'±query':>7} "
              f"{'recall':>7} {'±proj':>7} {'±query':>7} "
              f"{'error':>7} {'±proj':>7} {'±query':>7}")
    lines.append(header)
    lines.append("-" * len(header))
    for res in results:
        sel, rec, err = res.selectivity, res.recall, res.error
        w = res.params.get("W", float("nan"))
        lines.append(
            f"{res.method:<28} {w:>8.3g} "
            f"{sel.mean:>8.4f} {sel.std_projections:>7.4f} {sel.std_queries:>7.4f} "
            f"{rec.mean:>7.4f} {rec.std_projections:>7.4f} {rec.std_queries:>7.4f} "
            f"{err.mean:>7.4f} {err.std_projections:>7.4f} {err.std_queries:>7.4f}")
    return "\n".join(lines)
