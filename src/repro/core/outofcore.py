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
  over chunks, and builds each group's tables over its rows of the
  on-disk matrix, which the index keeps by reference.

The result indexes answer queries identically to their in-memory
counterparts — property-tested — while peak memory stays bounded by
``chunk_size`` rows plus the integer code arrays.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.bilevel import BiLevelLSH, rows_by_group
from repro.core.config import BiLevelConfig
from repro.lsh.index import RowStore, StandardLSH, table_codes
from repro.lattice.base import Lattice
from repro.lsh.functions import PStableHashFamily
from repro.resilience.errors import QueryValidationError
from repro.utils.rng import ensure_rng
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
    return index._fit(RowStore(_validate_2d(data), ids),
                      chunk_size=chunk_size)


def fit_bilevel_chunked(config: BiLevelConfig, data: np.ndarray,
                        sample_size: int = 4096,
                        chunk_size: int = DEFAULT_CHUNK,
                        seed: Optional[int] = None) -> BiLevelLSH:
    """Build a :class:`BiLevelLSH` over on-disk data.

    Parameters
    ----------
    config:
        The Bi-level configuration; every field reaches the group
        indexes as in :meth:`BiLevelLSH.fit` (tuner samples are drawn
        from the in-memory group rows).
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
    Each group's rows are gathered into memory while its tables are
    built — ``~n/g`` rows at a time, the knob that bounds peak memory —
    and dropped after: the index keeps ``data`` by reference.
    """
    _validate_2d(data)
    check_positive(sample_size, "sample_size")
    n = data.shape[0]
    rng = ensure_rng(config.seed if seed is None else seed)
    index = BiLevelLSH(config)
    # 1. Fit the partitioner on a sample.
    m = min(int(sample_size), n)
    sample_rows = np.sort(rng.choice(n, size=m, replace=False))
    rngs = index._fit_partitioner(
        np.asarray(data[sample_rows], dtype=np.float64))
    # 2. Stream the group assignment.
    groups = np.empty(n, dtype=np.int64)
    for start in range(0, n, chunk_size):
        stop = min(start + chunk_size, n)
        block = np.asarray(data[start:stop], dtype=np.float64)
        groups[start:stop] = index.partitioner.assign(block)
    # Re-point the partitioner's leaves at the *full* dataset's rows so
    # leaf_indices()/diagnostics reflect the real partition.
    _override_leaf_indices(
        index.partitioner,
        rows_by_group(groups, index.partitioner.n_leaves))
    # 3. Build one LSH index per group over its rows.
    return index._build_groups(data, *rngs)


def _override_leaf_indices(partitioner, leaf_indices) -> None:
    """Point a fitted partitioner's leaves at externally computed rows."""
    from repro.rptree.tree import RPTree

    if isinstance(partitioner, RPTree):
        for leaf, rows in zip(partitioner.leaves, leaf_indices):
            leaf.indices = rows
    else:
        partitioner._leaf_indices = list(leaf_indices)
