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
indexing and lookup, candidate dedup, short-list ranking and ``Z^M`` probe
enumeration: :class:`repro.native.registry.NumpyKernels` serves them
under the kernel names when nothing compiled, memmapped corpora are
always ranked by :func:`rank_topk_ref`, and the parity tests diff every
compiled build against them.  Anything here must stay importable with
numpy alone.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple, Sequence, Tuple

import numpy as np

if TYPE_CHECKING:  # cycles at run time: repro.lsh imports this module
    from repro.hierarchy.e8_hierarchy import E8Hierarchy
    from repro.lsh.table import TableLayouts

__all__ = ["Spans", "tree_rowdot", "tree_sq_dist", "bucket_index_ref",
           "bucket_spans_ref", "cell_bits", "dedup_candidates_ref",
           "hierarchy_walk_ref", "lookup_codes_ref", "query_split",
           "rank_ids_ref", "rank_topk_ref", "row_hash_ref", "spans_union_ref",
           "union_tables", "zm_probe_codes_ref"]

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


HASH_MUL = np.uint64(0x9E3779B97F4A7C15)  # 2^64 over the golden ratio


def row_hash_ref(codes: np.ndarray) -> np.ndarray:
    """The uint64 hash of each ``(n, M)`` code row: every coordinate xored
    in and times :data:`HASH_MUL` (wrapping), then a xor-shift and one more
    multiply."""
    bits = np.ascontiguousarray(codes, dtype=np.int64).view(np.uint64)
    h = np.zeros(bits.shape[0], dtype=np.uint64)
    for column in bits.T:
        h = (h ^ column) * HASH_MUL
    return (h ^ (h >> np.uint64(32))) * HASH_MUL


def cell_bits(n: int) -> int:
    """``b >= 1`` of an ``n``-row array's ``2^b >= 2 n`` index cells."""
    return max(1, (2 * int(n) - 1).bit_length())


#: The numpy table's cells of any array: none, as its search reads none.
#: The compiled search refuses a layout or hierarchy level over them.
NO_CELLS = np.empty(0, dtype=np.int32)


def bucket_index_ref(arrays: Sequence[np.ndarray]) -> "list[np.ndarray]":
    """Reference for ``bucket_index``: the ``2^b`` int32 cells through
    which the compiled search finds a row of each array of distinct ``(n,
    M)`` code rows in one hash probe.  Row ``i`` is homed at the top ``b``
    bits of its :func:`row_hash_ref` and put, in row order, in the first
    free cell at or past its home, the last cell followed by the first; a
    lookup reads cells from its home to its row or a ``-1``."""
    out = []
    for codes in arrays:
        bits = cell_bits(codes.shape[0])
        cells = np.full(1 << bits, -1, dtype=np.int32)
        homes = row_hash_ref(codes) >> np.uint64(64 - bits)
        for row, cell in enumerate(homes.tolist()):
            while cells[cell] >= 0:
                cell = (cell + 1) % cells.shape[0]
            cells[cell] = row
        out.append(cells)
    return out


def lookup_codes_ref(bucket_codes: np.ndarray,
                     codes: np.ndarray) -> np.ndarray:
    """Reference for ``lookup_codes``, the search the hashed bucket index
    must agree with: the index of each code row in the ``(B, M)`` sorted,
    distinct, never rewritten ``bucket_codes`` (their packed keys are
    remembered), ``-1`` where absent, by one binary search.  The compiled
    table serves it from here: only ``benchmarks/e2e`` calls the kernel."""
    from repro.lsh.table import pack_codes, packed_keys  # cycle

    keys, rows = packed_keys(bucket_codes), pack_codes(codes)
    at = np.minimum(np.searchsorted(keys, rows), max(keys.size - 1, 0))
    hit = keys[at] == rows if keys.size else False
    return np.where(hit, at, -1).astype(np.int64)


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
    ``bucket_spans`` tables hand their search, after checking the call's
    shape: ``(r, code_dim)`` code rows, one segment per row, and
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
            f"bucket_spans: needs (r, {layouts.code_dim}) code rows with "
            f"one segment each, split {counts.shape[0]} ways by table_rows")
    words = np.empty((counts.shape[0], 2), dtype=np.int64)
    words[:, 0] = table_rows
    words[:, 1] = counts
    return words


class Spans(NamedTuple):
    """A batch's short-list before it is one: its spans, not its ids.

    Row ``s`` of ``words`` is ``(array, start, size, segment)``: the ids
    ``arrays[array][start:start + size]`` belong to segment ``segment``
    of ``n_segments``; ``bases[a]`` is the address of ``arrays[a]`` for
    the compiled rank (the tuple keeps every array alive).  ``bucket_spans``
    writes one span per lookup row and layout, over the layouts'
    ``sorted_ids``; ``misses[t]`` counts the rows of table ``t`` that hit
    nothing.  Ids may repeat, be tombstoned or be out of range: only
    ``rank_topk`` reads them.
    """

    arrays: Tuple[np.ndarray, ...]
    bases: np.ndarray
    words: np.ndarray
    n_segments: int
    misses: np.ndarray

    def with_extra(self, extra: Sequence[SpanSet]) -> "Spans":
        """These spans and ``extra``'s — the hierarchy nodes a row
        escalates to — whose starts and sizes
        broadcast to ``(len(arrays), len(slots))``, checked to lie inside
        their arrays and segments."""
        arrays, blocks = list(self.arrays), [self.words]
        for values, starts, sizes, slots in extra:
            block = np.empty((len(values), np.shape(slots)[0], 4),
                             dtype=np.int64)
            block[..., 0] = np.arange(len(arrays), len(arrays) + len(values),
                                      dtype=np.int64)[:, None]
            block[..., 1], block[..., 2], block[..., 3] = starts, sizes, slots
            arrays += [np.ascontiguousarray(a, dtype=np.int64) for a in values]
            blocks.append(block.reshape(-1, 4))
        if len(blocks) == 1:
            return self
        words = np.concatenate(blocks)
        new = words[self.words.shape[0]:]
        if new.size and (
                new[:, 1:].min() < 0 or new[:, 3].max() >= self.n_segments
                or (new[:, 1] + new[:, 2] > np.array(
                    [a.shape[0] for a in arrays])[new[:, 0]]).any()):
            raise IndexError("extra span outside its array or of a segment "
                             f"outside [0, {self.n_segments})")
        added = [a.ctypes.data for a in arrays[len(self.arrays):]]
        return self._replace(arrays=tuple(arrays), words=words,
                             bases=np.append(self.bases, np.array(
                                 added, dtype=np.int64)))


def bucket_spans_ref(layouts: "TableLayouts", codes: np.ndarray,
                     row_q: np.ndarray, table_rows: np.ndarray,
                     n_segments: int) -> Spans:
    """Reference for ``bucket_spans``: the per-segment lookups' spans.

    ``layouts`` is a :class:`repro.lsh.table.TableLayouts` — per table
    its sorted layouts (the base, then a live insert overlay).  The
    ``(r, M)`` ``codes`` are every table's lookup rows stacked in table
    order, ``table_rows[t]`` of them table ``t``'s (``0`` leaves the
    table out), and ``row_q`` the segment each row belongs to.  Every row
    is searched (:func:`lookup_codes_ref`) in each of its table's
    layouts, and each search is one span, row by row and layout by
    layout (``SortedLayout.spans``; a miss is of size 0)."""
    codes = np.asarray(codes, dtype=np.int64)
    row_q = np.asarray(row_q, dtype=np.int64)
    rows = union_tables(layouts, codes, row_q, table_rows)[:, 0]
    if row_q.size and not 0 <= row_q.min() <= row_q.max() < n_segments:
        raise IndexError(f"bucket_spans: lookup row of a segment outside "
                         f"[0, {n_segments})")
    parts = [np.empty((0, 4), dtype=np.int64)]
    misses = np.zeros(rows.shape[0], dtype=np.int64)
    first, at = 0, np.cumsum(rows) - rows
    for t, per_table in enumerate(layouts.per_table):
        own = slice(at[t], at[t] + rows[t])
        block = np.empty((rows[t], len(per_table), 4), dtype=np.int64)
        for j, lay in enumerate(per_table):
            block[:, j, 0] = first + j
            block[:, j, 1], block[:, j, 2] = lay.spans(
                lookup_codes_ref(lay.bucket_codes, codes[own]))
        block[..., 3] = row_q[own, None]
        misses[t] = np.count_nonzero(~block[..., 2].any(axis=1))
        parts.append(block.reshape(-1, 4))
        first += len(per_table)
    return Spans(layouts.ids, layouts.bases, np.concatenate(parts),
                 int(n_segments), misses)


def spans_union_ref(spans: Spans, nq: int, n_rows: int,
                    deleted: "np.ndarray | None" = None,
                    ) -> "tuple[np.ndarray, np.ndarray]":
    """The short-list behind ``spans``, query by query: the ids of query
    ``q``'s segments ``[q * spill, (q + 1) * spill)`` (``spill =
    n_segments / nq``), gathered (``LSHTable._gather_segments``) and
    handed to :func:`dedup_candidates_ref`.  Returns ``(ids, counts)``:
    query ``q``'s distinct live ids ascending, after the earlier queries'.
    An id outside ``[0, n_rows)`` raises :class:`IndexError`."""
    from repro.lsh.table import LSHTable  # cycle

    spill = spans.n_segments // nq if nq else 1
    array, start, size, segment = spans.words.T
    ids = [np.empty(0, dtype=np.int64)]
    owner = [np.empty(0, dtype=np.int64)]
    for a in np.unique(array):
        mine = array == a
        ids.append(LSHTable._gather_segments(spans.arrays[a], start[mine],
                                             size[mine]))
        owner.append(np.repeat(segment[mine] // spill, size[mine]))
    cand = np.concatenate(ids)
    if cand.size and not 0 <= cand.min() <= cand.max() < n_rows:
        raise IndexError(f"rank_topk: id outside [0, {n_rows})")
    cand, _, counts = dedup_candidates_ref(cand, np.concatenate(owner), nq,
                                           deleted=deleted)
    return cand, counts


def query_split(spans: Spans, queries: "np.ndarray | None") -> int:
    """How many queries a ``rank_topk`` call answers: one per row of
    ``queries``, each owning ``spans.n_segments / nq`` consecutive
    segments, or one per segment without queries.  A
    :class:`ValueError` when the segments do not split evenly."""
    nq = spans.n_segments if queries is None else int(queries.shape[0])
    if (nq == 0) != (spans.n_segments == 0) or (nq and spans.n_segments % nq):
        raise ValueError(f"rank_topk: {spans.n_segments} segments do not "
                         f"split over {nq} queries")
    return nq


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


#: Flattened-candidate rows ranked per chunk of :func:`rank_ids_ref`
#: (bounds the gathered ``(rows, D)`` temporary to ~chunk * D floats).
RANK_CHUNK = 1 << 20


def rank_ids_ref(data: np.ndarray, sq_norms: "np.ndarray | None",
                 queries: np.ndarray, cand: np.ndarray, counts: np.ndarray,
                 k: int) -> "tuple[np.ndarray, np.ndarray]":
    """Fused cached-norm top-k ranking of a short-list: query ``q``'s
    candidates are the ``counts[q]`` ids of ``cand`` after the earlier
    queries'.

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
    if cand.size == 0 or k == 0:
        return sel, dists_out
    q_sq = tree_rowdot(queries, queries)
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


def rank_topk_ref(data: "np.ndarray | None", sq_norms: "np.ndarray | None",
                  queries: "np.ndarray | None", spans: Spans, n_rows: int,
                  deleted: "np.ndarray | None", k: int,
                  ) -> "tuple[np.ndarray, np.ndarray, np.ndarray]":
    """Reference for ``rank_topk``: Section V's short-list
    (:func:`spans_union_ref`), then its top ``k`` (:func:`rank_ids_ref`).
    Returns ``(sel, dists, counts)``: the ``(nq, k)`` ranking and each
    query's short-list size (:func:`query_split` says which query owns
    which segment).  ``k = 0`` only counts and reads neither ``data`` nor
    ``queries``."""
    nq = query_split(spans, queries)
    cand, counts = spans_union_ref(spans, nq, n_rows, deleted)
    sel, dists = rank_ids_ref(data, sq_norms, queries, cand, counts, int(k))
    return sel, dists, counts


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
