"""The kernel numeric spec in numpy — and the kernels without a compiler.

The compiled kernels (:mod:`repro.native.kernels_cext`) promise
**bit-identical** results to the functions here.  Floating-point
summation is not associative, so "the same math" is not enough — both
sides must execute the *same summation tree*.  This module is that
tree, written once in numpy:

- :func:`tree_rowdot` is the dot product behind every ranked distance
  and cached norm, and the E8 decoder calls :func:`tree_sq_dist` for its
  D8-vs-half-coset comparison;
- the compiled backend replicates the identical pairwise power-of-two
  halving order, element by element.

The ``*_ref`` functions are the only numpy implementation of bucket
lookup, candidate dedup, short-list ranking and ``Z^M`` probe
enumeration: :class:`repro.native.registry.NumpyKernels` serves them
under the kernel names when nothing compiled, memmapped corpora are
always ranked by :func:`rank_topk_ref`, and the parity tests diff every
compiled build against them.  Anything here must stay importable with
numpy alone.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Sequence, Tuple

import numpy as np

if TYPE_CHECKING:  # cycles at run time: repro.lsh imports this module
    from repro.hierarchy.e8_hierarchy import E8Hierarchy
    from repro.lsh.table import TableLayouts

__all__ = ["tree_rowdot", "tree_sq_dist", "bucket_union_ref",
           "dedup_candidates_ref", "hierarchy_walk_ref", "lookup_codes_ref",
           "rank_topk_ref", "span_table", "union_tables",
           "zm_probe_codes_ref"]

#: ``(arrays, starts, sizes, slots)``: span ``(r, j)`` is ``arrays[r]
#: [starts[r, j]:][:sizes[r, j]]``, ids of segment ``slots[j]``.
SpanSet = Tuple[Sequence[np.ndarray], np.ndarray, np.ndarray, np.ndarray]


def tree_rowdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise dot product with a fixed halving-tree summation order.

    The ``d`` products of each row are padded with zeros to the next
    power of two ``P`` and reduced by repeated halving:
    ``x[i] <- x[i] + x[i + w]`` for ``w = P/2, P/4, ..., 1``.  The
    compiled ``tree_dot`` implements this exact order, which is what
    makes compiled distances bit-identical to the numpy reference.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    prod = a * b
    n, d = prod.shape
    if d == 0:
        return np.zeros(n, dtype=np.float64)
    pw = 1 << (d - 1).bit_length()
    if pw != d:
        padded = np.zeros((n, pw), dtype=np.float64)
        padded[:, :d] = prod
        prod = padded
    w = pw
    while w > 1:
        w >>= 1
        prod = prod[:, :w] + prod[:, w:2 * w]
    return np.ascontiguousarray(prod[:, 0])


def tree_sq_dist(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Row-wise squared distance ``||x - y||^2`` with tree summation.

    Used by the E8 decoder's nearest-coset comparison so the compiled
    decoders can reproduce the comparison bit for bit.
    """
    err = np.asarray(x, dtype=np.float64) - np.asarray(y, dtype=np.float64)
    return tree_rowdot(err, err)


def lookup_codes_ref(bucket_codes: np.ndarray,
                     codes: np.ndarray) -> np.ndarray:
    """Reference for ``lookup_codes``: lexicographic binary search.

    ``bucket_codes`` is the ``(B, M)`` lexicographically sorted array of
    distinct bucket codes (not written to after its first lookup — its
    packed keys are remembered); returns the bucket index per query row,
    ``-1`` for rows with no bucket.  No query path calls the kernel; it
    stays on the tables because ``benchmarks/e2e`` wraps it by name.
    """
    from repro.lsh.table import LSHTable, pack_codes, packed_keys  # cycle

    return LSHTable._searchsorted_keys(packed_keys(bucket_codes),
                                       pack_codes(codes))


def dedup_candidates_ref(local_ids: np.ndarray, qidx: np.ndarray, nq: int,
                         deleted: "np.ndarray | None" = None,
                         ) -> "tuple[np.ndarray, np.ndarray, np.ndarray]":
    """Reference for ``dedup_candidates``: tombstone filter + (q, id) dedup.

    Drop tombstoned ids (ids at or past the mask's length were inserted
    after it was taken and cannot be tombstoned), sort by ``(query,
    id)``, drop per-query duplicates, return ``(ids, qidx, counts)``
    with ``counts`` per query.  No query path calls the kernel; it stays
    on the tables because ``benchmarks/e2e`` wraps it by name.
    """
    local_ids = np.asarray(local_ids, dtype=np.int64)
    qidx = np.asarray(qidx, dtype=np.int64)
    if deleted is not None and local_ids.size:
        drop = np.zeros(local_ids.size, dtype=bool)
        in_mask = local_ids < deleted.shape[0]
        drop[in_mask] = deleted[local_ids[in_mask]]
        local_ids = local_ids[~drop]
        qidx = qidx[~drop]
    if local_ids.size:
        order = np.lexsort((local_ids, qidx))
        local_ids = local_ids[order]
        qidx = qidx[order]
        keep = np.ones(local_ids.size, dtype=bool)
        keep[1:] = (qidx[1:] != qidx[:-1]) | (local_ids[1:] != local_ids[:-1])
        local_ids = local_ids[keep]
        qidx = qidx[keep]
    counts = np.bincount(qidx, minlength=nq).astype(np.int64)
    return local_ids, qidx, counts


def union_tables(layouts: "TableLayouts", codes: np.ndarray,
                 row_q: np.ndarray, table_rows: np.ndarray) -> np.ndarray:
    """The ``(T, 2)`` int64 words ``(rows, layouts)`` per table that both
    ``bucket_union`` tables hand their search, after checking the call's
    shape: ``(r, code_dim)`` code rows, one query per row, and
    ``table_rows`` — one non-negative count per table of ``layouts`` —
    summing to ``r``.  A :class:`ValueError` otherwise: the compiled
    search reads exactly that many rows."""
    counts = layouts.n_layouts
    table_rows = np.asarray(table_rows, dtype=np.int64)
    r = codes.shape[0]
    if codes.ndim != 2 or row_q.shape != (r,) \
            or table_rows.shape != counts.shape \
            or (counts.shape[0] and codes.shape[1] != layouts.code_dim) \
            or int(table_rows.sum()) != r or table_rows.min(initial=0) < 0:
        raise ValueError(
            f"bucket_union: needs (r, {layouts.code_dim}) code rows with "
            f"one query each, split {counts.shape[0]} ways by table_rows")
    words = np.empty((counts.shape[0], 2), dtype=np.int64)
    words[:, 0] = table_rows
    words[:, 1] = counts
    return words


def span_table(extra: Sequence[SpanSet], nq: int,
               ) -> Tuple[List[np.ndarray], np.ndarray]:
    """``extra``'s arrays (int64, contiguous) and its spans as ``(s, 4)``
    rows ``(array, start, size, slot)`` — starts and sizes broadcast to
    ``(R, c)`` — checked to lie inside their arrays and ``[0, nq)``."""
    arrays: List[np.ndarray] = []
    blocks = [np.empty((0, 4), dtype=np.int64)]
    if not extra:
        return arrays, blocks[0]
    for values, starts, sizes, slots in extra:
        block = np.empty((len(values), np.shape(slots)[0], 4), dtype=np.int64)
        block[..., 0] = np.arange(len(arrays), len(arrays) + len(values),
                                  dtype=np.int64)[:, None]
        block[..., 1], block[..., 2], block[..., 3] = starts, sizes, slots
        arrays += [np.ascontiguousarray(a, dtype=np.int64) for a in values]
        blocks.append(block.reshape(-1, 4))
    spans = np.concatenate(blocks)
    ends = spans[:, 1] + spans[:, 2]
    if spans.size and (
            spans[:, 1:].min() < 0 or spans[:, 3].max() >= nq
            or (ends > np.array([a.shape[0] for a in arrays])[spans[:, 0]])
            .any()):
        raise IndexError("bucket_union: extra span outside its array or "
                         f"of a segment outside [0, {nq})")
    return arrays, spans


def bucket_union_ref(layouts: "TableLayouts", codes: np.ndarray,
                     row_q: np.ndarray, table_rows: np.ndarray, nq: int,
                     n_rows: int,
                     deleted: "np.ndarray | None" = None,
                     extra: Sequence[SpanSet] = (),
                     ) -> "tuple[np.ndarray, np.ndarray, np.ndarray]":
    """Reference for ``bucket_union``: the per-query short-list.

    ``layouts`` is a :class:`repro.lsh.table.TableLayouts` — per table
    its sorted layouts (the base, then a live insert overlay).  The
    ``(r, M)`` ``codes`` are every table's lookup rows stacked in table
    order, ``table_rows[t]`` of them table ``t``'s (``0`` leaves the
    table out), and ``row_q`` the query each row belongs to.  The spec
    is the composition of the table-major pieces:
    ``LSHTable.gather_layouts`` per table (the :func:`lookup_codes_ref`
    search, ``SortedLayout.spans``, ``_gather_segments``), then
    :func:`dedup_candidates_ref` over everything gathered.  ``extra``
    adds more ids to the union: each :data:`SpanSet`'s spans
    (:func:`span_table` checks them), gathered the same way.

    Returns ``(ids, counts, misses)``: the ids and per-query counts
    :func:`dedup_candidates_ref` leaves (query ``q``'s ids are the
    ``counts[q]`` after the earlier queries'), ``misses[t]`` the rows of
    table ``t`` that hit no id in any of its layouts.  An id outside
    ``[0, n_rows)`` raises :class:`IndexError` (the compiled kernel's
    bitmap has ``n_rows`` bits).
    """
    from repro.lsh.table import LSHTable  # cycle

    codes = np.asarray(codes, dtype=np.int64)
    row_q = np.asarray(row_q, dtype=np.int64)
    rows = union_tables(layouts, codes, row_q, table_rows)[:, 0]
    if row_q.size and not 0 <= row_q.min() <= row_q.max() < nq:
        raise IndexError(f"bucket_union: lookup row of a query outside "
                         f"[0, {nq})")
    id_parts: "list[np.ndarray]" = []
    q_parts: "list[np.ndarray]" = []
    misses = np.zeros(rows.shape[0], dtype=np.int64)
    starts = np.cumsum(rows) - rows
    for t, per_table in enumerate(layouts.per_table):
        part = slice(starts[t], starts[t] + rows[t])
        ids, hits = LSHTable.gather_layouts(per_table, codes[part])
        id_parts.append(ids)
        q_parts.append(np.repeat(row_q[part], hits))
        misses[t] = np.count_nonzero(hits == 0)
    arrays, spans = span_table(extra, nq)
    for owner, values in enumerate(arrays):
        _, at, size, slot = spans[spans[:, 0] == owner].T
        id_parts.append(LSHTable._gather_segments(values, at, size))
        q_parts.append(np.repeat(slot, size))
    empty = np.empty(0, dtype=np.int64)
    ids = np.concatenate(id_parts) if id_parts else empty
    if ids.size and not 0 <= ids.min() <= ids.max() < n_rows:
        raise IndexError(f"bucket_union: bucket id outside [0, {n_rows})")
    ids, _, counts = dedup_candidates_ref(
        ids, np.concatenate(q_parts) if q_parts else empty, nq,
        deleted=deleted)
    return ids, counts, misses


def hierarchy_walk_ref(hierarchies: Sequence["E8Hierarchy"], codes: np.ndarray,
                       min_count: int,
                       ) -> "tuple[np.ndarray, np.ndarray, np.ndarray]":
    """Reference for ``hierarchy_walk``: the Eq. (10) ancestor walk of
    the ``(L, n, code_dim)`` ``codes`` up ``L`` :class:`repro.hierarchy.
    e8_hierarchy.E8Hierarchy`, one decode pass and node search per level.
    A row keeps the first largest node it matches and stops once that
    holds ``min_count`` ids — or, from the first settled level on (codes
    only double there), once it matched or its code only doubled.
    Returns ``(start, size, depth)``, each ``(L, n)``: the node's run of
    ``ids`` and level, ``(0, 0, 0)`` when nothing matched."""
    codes = np.asarray(codes, dtype=np.int64)
    out = np.zeros((3,) + codes.shape[:2], dtype=np.int64)
    for t, hier in enumerate(hierarchies):
        start, size, depth = out[:, t]
        todo = np.arange(codes.shape[1], dtype=np.int64)
        for level, anc in hier.lattice.ancestor_chain(codes[t],
                                                      hier.n_levels):
            # Node index per ancestor-code row, -1 where absent.
            node = lookup_codes_ref(hier.level_codes[level], anc[todo])
            hit = node >= 0
            rows, node = todo[hit], node[hit]
            starts, ends = hier.level_starts[level], hier.level_ends[level]
            found = ends[node] - starts[node]
            grew = found > size[rows]
            rows, node = rows[grew], node[grew]
            size[rows] = found[grew]
            start[rows] = starts[node]
            depth[rows] = level
            climbing = size[todo] < min_count
            if level >= hier.settled:
                climbing &= ~hit
                if level:
                    climbing &= (anc[todo] != 2 * below[todo]).any(axis=1)
            todo, below = todo[climbing], anc
            if not todo.size:
                break
    return out[0], out[1], out[2]


#: Flattened-candidate rows ranked per chunk of :func:`rank_topk_ref`
#: (bounds the gathered ``(rows, D)`` temporary to ~chunk * D floats).
RANK_CHUNK = 1 << 20


def rank_topk_ref(data: np.ndarray, sq_norms: "np.ndarray | None",
                  queries: np.ndarray, q_sq: np.ndarray,
                  cand: np.ndarray, counts: np.ndarray, k: int,
                  ) -> "tuple[np.ndarray, np.ndarray]":
    """Reference for ``rank_topk``: fused cached-norm top-k ranking.

    Distances come from ``||x||^2 - 2 x.q + ||q||^2`` (no ``data[cand] -
    query`` temporaries; ``sq_norms=None`` takes the norms of the
    gathered rows instead, so a memmapped ``data`` is read only at its
    candidate rows).  Top-k selection is one global ``lexsort`` by
    ``(query, distance, id)`` followed by segment-offset arithmetic.

    Returns ``(sel, dists)`` of shape ``(nq, k)``: ``sel`` holds *local*
    candidate row indices (``-1`` pad), ``dists`` the matching distances
    (``inf`` pad), ordered by ``(distance, id)`` ascending per query.
    """
    nq = int(counts.shape[0])
    sel = np.full((nq, k), -1, dtype=np.int64)
    dists_out = np.full((nq, k), np.inf, dtype=np.float64)
    if cand.size == 0:
        return sel, dists_out
    qidx = np.repeat(np.arange(nq, dtype=np.int64), counts)
    d2 = np.empty(cand.size, dtype=np.float64)
    for s in range(0, cand.size, RANK_CHUNK):
        e = min(s + RANK_CHUNK, cand.size)
        rows = data[cand[s:e]]
        dots = tree_rowdot(rows, queries[qidx[s:e]])
        if sq_norms is None:
            row_sq = tree_rowdot(rows, rows)
        else:
            row_sq = sq_norms[cand[s:e]]
        d2[s:e] = row_sq - 2.0 * dots + q_sq[qidx[s:e]]
    np.maximum(d2, 0.0, out=d2)
    dists = np.sqrt(d2)
    order = np.lexsort((cand, dists, qidx))
    offsets = np.cumsum(counts) - counts
    take = np.minimum(counts, k)
    rel = np.arange(int(take.sum()), dtype=np.int64)
    rel -= np.repeat(np.cumsum(take) - take, take)
    pick = order[np.repeat(offsets, take) + rel]
    rows_out = np.repeat(np.arange(nq, dtype=np.int64), take)
    sel[rows_out, rel] = cand[pick]
    dists_out[rows_out, rel] = dists[pick]
    return sel, dists_out


def zm_probe_codes_ref(y: np.ndarray, codes: np.ndarray, n_probes: int,
                       ) -> "tuple[np.ndarray, np.ndarray]":
    """Reference for ``zm_probe_codes``: Lv et al. sequences, row by row.

    Returns ``(probes, counts)``: row ``i``'s ``counts[i] <= n_probes``
    probe codes, most promising first, stacked after the earlier rows'
    (:func:`repro.lsh.multiprobe.query_directed_probes` is the spec).
    """
    from repro.lsh.multiprobe import query_directed_probes  # local: cycle

    y = np.atleast_2d(np.asarray(y, dtype=np.float64))
    codes = np.atleast_2d(np.asarray(codes, dtype=np.int64))
    parts = [query_directed_probes(y_row, code, n_probes)
             for y_row, code in zip(y, codes)]
    counts = np.array([part.shape[0] for part in parts], dtype=np.int64)
    return np.concatenate(parts, axis=0), counts
