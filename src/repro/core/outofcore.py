"""Out-of-core index construction (the paper's stated future work).

Section VII lists "efficient out-of-core algorithms to handle very large
datasets (e.g. > 100GB)" as future work.  This module provides the
building blocks that make the Bi-level pipeline memmap-friendly:

- :func:`chunked_codes` computes LSH codes in bounded-memory passes, so
  the projection step never materializes more than ``chunk_size`` rows;
- :func:`fit_standard_chunked` builds a :class:`StandardLSH` over a
  ``numpy.memmap`` (or any array-like) while keeping the *reference* to
  the on-disk data — short-list distance evaluations then fault in only
  the candidate rows;
- :func:`fit_bilevel_chunked` fits the RP-tree on an in-memory sample
  (trees only need ``O(sample)`` memory), streams the group assignment
  over chunks, and builds each group's tables from its (much smaller)
  row subset.

The result indexes answer queries identically to their in-memory
counterparts — property-tested — while peak memory stays bounded by
``chunk_size`` rows plus the integer code arrays.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.bilevel import BiLevelLSH
from repro.core.config import BiLevelConfig
from repro.lsh.index import StandardLSH, table_codes
from repro.lattice.base import Lattice
from repro.lsh.functions import PStableHashFamily
from repro.resilience.errors import QueryValidationError
from repro.utils.rng import ensure_rng, spawn_rngs
from repro.utils.validation import check_matrix_2d, check_positive

DEFAULT_CHUNK = 8192


def _validate_2d(data: np.ndarray, name: str = "data") -> np.ndarray:
    """Shared memmap-safe shape check, with the typed error the query
    path raises (:class:`QueryValidationError` is a ``ValueError``, so
    pre-existing callers keep working)."""
    try:
        return check_matrix_2d(data, name)
    except ValueError as error:
        raise QueryValidationError(str(error), field=name) from error


def chunked_codes(family: PStableHashFamily, lattice: Lattice,
                  data: np.ndarray,
                  chunk_size: int = DEFAULT_CHUNK) -> np.ndarray:
    """Quantized codes of ``data`` computed in bounded-memory chunks."""
    check_positive(chunk_size, "chunk_size")
    _validate_2d(data)
    return table_codes(family, lattice, data, chunk_size)


def fit_standard_chunked(index: StandardLSH, data: np.ndarray,
                         ids: Optional[np.ndarray] = None,
                         chunk_size: int = DEFAULT_CHUNK) -> StandardLSH:
    """Fit ``index`` over ``data`` without materializing it in RAM.

    ``data`` may be a ``numpy.memmap``; it is stored by reference, so
    queries fault in only the candidate rows they rank.
    """
    check_positive(chunk_size, "chunk_size")
    return index._fit(_validate_2d(data), ids, chunk_size)


def fit_bilevel_chunked(config: BiLevelConfig, data: np.ndarray,
                        sample_size: int = 4096,
                        chunk_size: int = DEFAULT_CHUNK,
                        seed: Optional[int] = None) -> BiLevelLSH:
    """Build a :class:`BiLevelLSH` over on-disk data.

    Parameters
    ----------
    config:
        The Bi-level configuration (``tune_params``/``scale_widths`` are
        honored; their samples are drawn from the in-memory group rows).
    data:
        2-D array-like, typically a ``numpy.memmap``.
    sample_size:
        Rows sampled (into RAM) to fit the first-level partitioner.  The
        RP-tree splits generalize from a sample because its medians are
        robust statistics.
    chunk_size:
        Rows per streaming pass for group assignment and hashing.
    seed:
        Overrides ``config.seed`` for the sampling step when given.

    Notes
    -----
    Each group's training rows are gathered into memory to build the
    group's tables — with ``g`` groups that is ``~n/g`` rows at a time,
    the knob that bounds peak memory for a given corpus.
    """
    _validate_2d(data)
    check_positive(sample_size, "sample_size")
    n = data.shape[0]
    rng = ensure_rng(config.seed if seed is None else seed)
    index = BiLevelLSH(config)
    # 1. Fit the partitioner on a sample.
    m = min(int(sample_size), n)
    sample_rows = np.sort(rng.choice(n, size=m, replace=False))
    sample = np.asarray(data[sample_rows], dtype=np.float64)
    tree_seed = config.tree_seed if config.tree_seed is not None else config.seed
    index.partitioner = index._make_partitioner(ensure_rng(tree_seed))
    index.partitioner.fit(sample)
    # 2. Stream the group assignment.
    groups = np.empty(n, dtype=np.int64)
    for start in range(0, n, chunk_size):
        stop = min(start + chunk_size, n)
        block = np.asarray(data[start:stop], dtype=np.float64)
        groups[start:stop] = index.partitioner.assign(block)
    # Re-point the partitioner's leaves at the *full* dataset's rows so
    # leaf_indices()/diagnostics reflect the real partition.
    full_leaf_indices = [np.nonzero(groups == g)[0].astype(np.int64)
                         for g in range(index.partitioner.n_leaves)]
    _override_leaf_indices(index.partitioner, full_leaf_indices)
    # 3. Build one LSH index per group from its row subset.
    index._data = data
    index.group_indexes = []
    index.group_widths = []
    group_rngs = spawn_rngs(config.seed, len(full_leaf_indices) + 1)
    for g, rows in enumerate(full_leaf_indices):
        if rows.size == 0:
            rows = np.array([0], dtype=np.int64)  # degenerate guard
        group_data = np.asarray(data[rows], dtype=np.float64)
        width = config.bucket_width
        if config.tune_params and group_data.shape[0] > 1:
            from repro.lsh.params import CollisionModel, tune_bucket_width

            model = CollisionModel(group_data, k=config.tuner_k,
                                   sample_size=config.tuner_sample_size,
                                   seed=group_rngs[-1])
            width = tune_bucket_width(model, config.n_hashes,
                                      config.n_tables,
                                      target_recall=config.target_recall
                                      ).bucket_width
        sub = StandardLSH(n_hashes=config.n_hashes, n_tables=config.n_tables,
                          bucket_width=width, lattice=config.lattice,
                          n_probes=config.n_probes,
                          hierarchy=config.hierarchy,
                          seed=group_rngs[g])
        sub.fit(group_data, ids=rows)
        index.group_indexes.append(sub)
        index.group_widths.append(width)
    return index


def _override_leaf_indices(partitioner, leaf_indices) -> None:
    """Point a fitted partitioner's leaves at externally computed rows."""
    from repro.rptree.tree import RPTree

    if isinstance(partitioner, RPTree):
        for leaf, rows in zip(partitioner.leaves, leaf_indices):
            leaf.indices = rows
    else:
        partitioner._leaf_indices = list(leaf_indices)
