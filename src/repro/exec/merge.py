"""Shared top-k merge: the executor's single merge choke point.

Every merge of top-k blocks in the repository funnels through
:func:`merge_topk_rows` — the batched (row, distance, id) lexsort merge
that :class:`repro.core.bilevel.BiLevelLSH` introduced for spilled
queries, which the brute-force fallback scan also folds its blocks with.
"""

from __future__ import annotations

import numpy as np

from repro.exec.context import Rows


def merge_topk_rows(ids_out: np.ndarray, dists_out: np.ndarray,
                    rows: Rows, new_ids: np.ndarray,
                    new_dists: np.ndarray, k: int) -> None:
    """Merge new top-k blocks into the running top-k (in place).

    All ``rows`` are merged at once: current and new ``(r, k)`` blocks
    are stacked to ``(r, 2k)`` and each row's best ``k`` selected with
    one flat ``lexsort`` by ``(row, distance, id)``.  Padding entries
    (id ``-1``) carry distance ``inf`` so they sort last; callers merge
    disjoint id sets (groups partition the point set, a scan visits a
    row once), so the same id never arrives twice and no dedup pass is
    needed.  Exact distance ties break by ascending id, matching the
    scalar merge (unique-by-id then stable distance sort).
    """
    cur_ids = ids_out[rows]
    cur_dists = dists_out[rows]
    all_ids = np.concatenate([cur_ids, new_ids], axis=1)
    all_dists = np.concatenate([cur_dists, new_dists], axis=1)
    all_dists[all_ids < 0] = np.inf
    r, w = all_ids.shape
    rowidx = np.repeat(np.arange(r, dtype=np.int64), w)
    flat_order = np.lexsort((all_ids.ravel(), all_dists.ravel(), rowidx))
    col_order = (flat_order.reshape(r, w)
                 - np.arange(r, dtype=np.int64)[:, None] * w)
    top = col_order[:, :k]
    sel_ids = np.take_along_axis(all_ids, top, axis=1)
    sel_dists = np.take_along_axis(all_dists, top, axis=1)
    pad = ~np.isfinite(sel_dists)
    sel_ids[pad] = -1
    sel_dists[pad] = np.inf
    ids_out[rows] = sel_ids
    dists_out[rows] = sel_dists
