"""Bi-level Locality Sensitive Hashing for k-Nearest Neighbor Computation.

A complete, self-contained reproduction of Pan & Manocha (ICDE 2012):

- :class:`BiLevelLSH` / :class:`BiLevelConfig` — the paper's contribution:
  an RP-tree first level over per-group tuned LSH tables, with multi-probe
  and hierarchical-table variants over ``Z^M`` or ``E8`` lattices;
- :class:`StandardLSH` — the single-level baseline family;
- :mod:`repro.evaluation` — the recall / error-ratio / selectivity metrics
  and the variance-decomposition experiment harness;
- :mod:`repro.gpu` — the paper's GPU acceleration study (Fig. 4) as a cost
  model over the candidate counts of one real ``query_batch``;
- :mod:`repro.datasets` — synthetic GIST-like datasets standing in for
  LabelMe and Tiny Images.

Quickstart
----------
>>> import numpy as np
>>> from repro import BiLevelLSH, BiLevelConfig
>>> data = np.random.default_rng(0).standard_normal((1000, 64))
>>> index = BiLevelLSH(BiLevelConfig(n_groups=8, bucket_width=4.0, seed=1))
>>> ids, dists = index.fit(data).query(data[3], k=5)
"""

from repro.core.bilevel import BiLevelLSH
from repro.core.config import BiLevelConfig
from repro.lsh.index import StandardLSH
from repro.evaluation.groundtruth import brute_force_knn

__version__ = "1.0.0"

__all__ = [
    "BiLevelLSH",
    "BiLevelConfig",
    "StandardLSH",
    "brute_force_knn",
    "__version__",
]
