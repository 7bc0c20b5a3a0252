"""Benchmark workloads: dataset + query set + cached exact ground truth.

The paper evaluates on two image-descriptor corpora (LabelMe GIST-512,
Tiny Images GIST-384); the synthetic stand-ins from
:mod:`repro.datasets.synthetic` reproduce their distributional shape.  A
:class:`Scale` bundles every size knob so benchmarks can be run at smoke
scale by default and at paper scale on demand.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Optional, Tuple

import numpy as np

from repro.datasets.synthetic import labelme_like, tiny_like, train_query_split
from repro.evaluation.groundtruth import GroundTruth
from repro.utils.rng import ensure_rng

#: The paper's experimental constants (Section VI-B.2).
PAPER_M = 8
PAPER_K = 500
PAPER_L_VALUES = (10, 20, 30)
PAPER_N_GROUPS = 16
PAPER_N_PROBES = 240
PAPER_N_RUNS = 10


@dataclass(frozen=True)
class Scale:
    """Size knobs of one experiment run.

    ``widths`` are *relative*: each entry multiplies the workload's
    reference width (the median exact k-NN distance of a training sample),
    so the same sweep is meaningful at any dimension or dataset scale —
    the paper likewise "increases the bucket size W gradually" from a
    dataset-dependent starting point.

    Defaults are smoke scale; ``Scale.paper()`` gives the paper's setting.
    """

    n_train: int = 4000
    n_queries: int = 300
    dim: int = 64
    k: int = 50
    n_runs: int = 3
    n_groups: int = PAPER_N_GROUPS
    n_hashes: int = PAPER_M
    n_tables: int = 10
    n_probes: int = 32
    widths: Tuple[float, ...] = (0.5, 1.0, 2.0, 4.0)
    seed: int = 0

    @staticmethod
    def paper() -> "Scale":
        """The full configuration of Section VI (days of CPU time)."""
        return Scale(n_train=100_000, n_queries=100_000, dim=512, k=PAPER_K,
                     n_runs=PAPER_N_RUNS, n_probes=PAPER_N_PROBES,
                     widths=tuple(np.geomspace(0.25, 8.0, 8)))

    @staticmethod
    def smoke() -> "Scale":
        """Tiny configuration for CI-grade runs (seconds)."""
        return Scale(n_train=1200, n_queries=100, dim=32, k=10, n_runs=2,
                     n_tables=5, n_probes=8, widths=(1.0, 3.0))

    def with_(self, **changes: Any) -> "Scale":
        return replace(self, **changes)


@dataclass
class Workload:
    """A (train, queries, ground-truth) triple plus its provenance.

    ``reference_width`` is the median exact k-NN distance of a training
    sample; the relative ``Scale.widths`` multiply it to form absolute
    bucket widths (:meth:`absolute_widths`).
    """

    name: str
    train: np.ndarray
    queries: np.ndarray
    ground_truth: GroundTruth
    scale: Scale
    reference_width: float = 1.0

    def absolute_widths(self) -> Tuple[float, ...]:
        """The sweep's absolute bucket widths for this workload."""
        return tuple(m * self.reference_width for m in self.scale.widths)


def _reference_width(train: np.ndarray, k: int, seed: int,
                     sample_size: int = 256) -> float:
    """Median exact k-NN distance of a small training sample."""
    from repro.evaluation.groundtruth import brute_force_knn

    rng = ensure_rng(seed)
    m = min(sample_size, train.shape[0])
    sample = train[rng.choice(train.shape[0], size=m, replace=False)]
    kk = min(k + 1, train.shape[0])
    _, dists = brute_force_knn(train, sample, kk)
    # Column 0 is the sample point itself (distance 0); use the k-th.
    ref = float(np.median(dists[:, -1]))
    return ref if ref > 0 else 1.0


def make_workload(name: str = "labelme", scale: Optional[Scale] = None) -> Workload:
    """Build a named workload at the given scale.

    Parameters
    ----------
    name:
        ``'labelme'`` (GIST-512-like) or ``'tiny'`` (GIST-384-like).  The
        generator dimension is overridden by ``scale.dim`` so smoke runs
        stay cheap; pass ``scale.with_(dim=512)`` for the real shape.
    scale:
        Size knobs; defaults to ``Scale()``.
    """
    scale = scale if scale is not None else Scale()
    total = scale.n_train + scale.n_queries
    if name == "labelme":
        data = labelme_like(n_points=total, dim=scale.dim, seed=scale.seed)
    elif name == "tiny":
        data = tiny_like(n_points=total, dim=scale.dim, seed=scale.seed)
    else:
        raise ValueError(f"unknown workload {name!r}; expected 'labelme' or 'tiny'")
    train, queries = train_query_split(data, scale.n_queries,
                                       seed=scale.seed + 1)
    gt = GroundTruth(train, queries, scale.k)
    ref = _reference_width(train, scale.k, scale.seed + 2)
    return Workload(name=name, train=train, queries=queries,
                    ground_truth=gt, scale=scale, reference_width=ref)
