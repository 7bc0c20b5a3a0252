"""Query-directed multi-probe sequence for ``Z^M`` LSH tables.

Implements the probing algorithm of Lv et al., "Multi-Probe LSH" (VLDB
2007), which the paper uses for its *multiprobed* variants with the ``Z^M``
lattice (Section VI-B.4b, "we use the heap-based method in [8] to compute
the optimal search order for each query").

Given the query's real-valued projections ``y`` (in units of the bucket
width ``W``) and its code ``c = floor(y)``, a *perturbation set* is a set of
``(dimension, delta)`` pairs with ``delta`` in ``{-1, +1}``; applying it
yields the probe code ``c + sum(delta * e_dim)``.  The *score* of a set is
the sum of squared distances from the query to the relevant cell boundaries
— a proxy for the probability that the probed bucket contains near
neighbors.  Sets are enumerated in increasing score order with a min-heap
using the classic *shift* / *expand* successor operations, which visits
every set exactly once without materializing the exponential set space.
"""

from __future__ import annotations

import heapq
from typing import Iterator, List, Sequence, Tuple

import numpy as np

from repro import obs

Perturbation = Tuple[int, int]  # (dimension, delta)


def boundary_distances(y: np.ndarray, code: np.ndarray) -> Tuple[np.ndarray, List[Perturbation]]:
    """Sorted boundary distances and their (dimension, delta) labels.

    Parameters
    ----------
    y:
        The query's projections in bucket-width units, shape ``(M,)``.
    code:
        ``floor(y)``, shape ``(M,)``.

    Returns
    -------
    scores:
        ``(2M,)`` array of squared boundary distances, ascending.
    labels:
        For each score, the perturbation ``(i, delta)`` it corresponds to.
    """
    y = np.asarray(y, dtype=np.float64)
    code = np.asarray(code, dtype=np.int64)
    if y.shape != code.shape or y.ndim != 1:
        raise ValueError("y and code must be 1-D arrays of equal length")
    resid = y - code  # in [0, 1) when code == floor(y)
    dist_down = resid          # distance to the lower boundary (delta = -1)
    dist_up = 1.0 - resid      # distance to the upper boundary (delta = +1)
    dists = np.concatenate([dist_down, dist_up])
    labels = [(i, -1) for i in range(y.size)] + [(i, +1) for i in range(y.size)]
    order = np.argsort(dists, kind="stable")
    scores = (dists[order]) ** 2
    sorted_labels = [labels[i] for i in order]
    return scores, sorted_labels


def perturbation_sets(scores: Sequence[float],
                      labels: Sequence[Perturbation],
                      max_sets: int) -> Iterator[List[Perturbation]]:
    """Enumerate valid perturbation sets in increasing score order.

    A set is represented by sorted positions into the score-ascending list;
    the *shift* successor replaces the largest position ``j`` with ``j + 1``
    and the *expand* successor adds position ``j + 1``.  Sets probing both
    boundaries of the same dimension are skipped (the two moves cancel), as
    in the original algorithm.

    Yields at most ``max_sets`` sets, each as a list of ``(dim, delta)``.
    """
    n = len(scores)
    if n == 0 or max_sets <= 0:
        return

    def set_score(positions: Tuple[int, ...]) -> float:
        return float(sum(scores[p] for p in positions))

    # Heap entries are distinct — every set has exactly one parent (the
    # expand parent when its two largest positions are adjacent, the shift
    # parent otherwise) — so the pop order is the total order of
    # (score, positions) itself, which the compiled twin reproduces.
    heap: List[Tuple[float, Tuple[int, ...]]] = [(float(scores[0]), (0,))]
    emitted = 0
    while heap and emitted < max_sets:
        score, positions = heapq.heappop(heap)
        last = positions[-1]
        # Successors first, so the frontier stays complete even when the
        # popped set itself is invalid.
        if last + 1 < n:
            for successor in (positions[:-1] + (last + 1,),   # shift
                              positions + (last + 1,)):       # expand
                heapq.heappush(heap, (set_score(successor), successor))
        dims = [labels[p][0] for p in positions]
        if len(set(dims)) == len(dims):  # no dimension probed twice
            emitted += 1
            yield [labels[p] for p in positions]


def boundary_distances_batch(y: np.ndarray, codes: np.ndarray,
                             ) -> Tuple[np.ndarray, np.ndarray]:
    """Batched :func:`boundary_distances` over a ``(q, M)`` sub-batch.

    Returns ``(scores, order)`` where ``scores[qi]`` are query ``qi``'s
    squared boundary distances ascending and ``order[qi]`` the matching
    column indices into the ``[(0,-1) .. (M-1,-1), (0,+1) .. (M-1,+1)]``
    label layout (see :func:`column_label`).  The sort is stable, so each
    row reproduces :func:`boundary_distances` exactly.
    """
    y = np.atleast_2d(np.asarray(y, dtype=np.float64))
    codes = np.atleast_2d(np.asarray(codes, dtype=np.int64))
    if y.shape != codes.shape:
        raise ValueError("y and codes must have matching shapes")
    resid = y - codes  # in [0, 1) when code == floor(y)
    dists = np.concatenate([resid, 1.0 - resid], axis=1)  # (q, 2M)
    order = np.argsort(dists, axis=1, kind="stable")
    scores = np.take_along_axis(dists, order, axis=1) ** 2
    return scores, order


def column_label(column: int, m: int) -> Perturbation:
    """The ``(dimension, delta)`` label of one boundary-distance column."""
    return (column, -1) if column < m else (column - m, +1)


def _emit_adaptive(code: np.ndarray, scores: Sequence[float],
                   labels: Sequence[Perturbation], max_probes: int,
                   confidence: float) -> np.ndarray:
    """Core of :func:`adaptive_probes` given precomputed boundary scores."""
    label_score = dict(zip(labels, scores))
    sigma_sq = 0.25  # (W/2)^2 in bucket-width units
    candidates = []
    weights = []
    for pset in perturbation_sets(scores, labels, max_probes):
        s = sum(label_score[p] for p in pset)
        candidates.append(pset)
        weights.append(np.exp(-s / (2.0 * sigma_sq)))
    if not candidates:
        return np.empty((0, code.size), dtype=np.int64)
    weights = np.asarray(weights, dtype=np.float64)
    total = weights.sum()
    cumulative = (np.cumsum(weights) / total if total > 0
                  else np.ones(len(weights), dtype=np.float64))
    # Rounding can leave cumulative[-1] a hair under 1.0, so confidence=1.0
    # may find no position: every candidate is wanted, not one more.
    cutoff = min(int(np.searchsorted(cumulative, confidence, side="left")) + 1,
                 len(candidates))
    out = np.empty((cutoff, code.size), dtype=np.int64)
    for row, pset in enumerate(candidates[:cutoff]):
        probe = code.copy()
        for dim, delta in pset:
            probe[dim] += delta
        out[row] = probe
    return out


def adaptive_probes_batch(y: np.ndarray, codes: np.ndarray, max_probes: int,
                          confidence: float = 0.9) -> List[np.ndarray]:
    """Batched :func:`adaptive_probes` over a ``(q, M)`` query sub-batch.

    The boundary-distance scoring — the vectorizable part — is computed for
    the whole sub-batch in one shot; the heap-based set enumeration, which
    is inherently sequential per query, then runs on the precomputed rows.
    Returns one probe-code array per query, identical to calling
    :func:`adaptive_probes` row by row.
    """
    if not 0.0 < confidence <= 1.0:
        raise ValueError(f"confidence must be in (0, 1], got {confidence}")
    y = np.atleast_2d(np.asarray(y, dtype=np.float64))
    codes = np.atleast_2d(np.asarray(codes, dtype=np.int64))
    q, m = codes.shape
    if max_probes <= 0:
        return [np.empty((0, m), dtype=np.int64)] * q
    scores, order = boundary_distances_batch(y, codes)
    out = []
    for qi in range(q):
        labels = [column_label(int(c), m) for c in order[qi]]
        out.append(_emit_adaptive(codes[qi], scores[qi], labels,
                                  max_probes, confidence))
    ob = obs.active()
    if ob is not None and out:
        ob.record_adaptive_budget(
            np.array([probes.shape[0] for probes in out], dtype=np.int64))
    return out


def adaptive_probes(y: np.ndarray, code: np.ndarray, max_probes: int,
                    confidence: float = 0.9) -> np.ndarray:
    """Query-adaptive probe budget (a-posteriori multi-probe).

    Joly & Buisson (MM 2008) — the paper's reference [18] — improve
    multi-probe by choosing how many buckets to probe *per query* from the
    query's position inside its cell, instead of a fixed budget.  This
    implementation scores each perturbation set by a Gaussian surrogate of
    its success likelihood, ``exp(-score / (2 sigma^2))`` with ``sigma``
    half the bucket width (in normalized units, 0.5), and emits probes in
    the usual best-first order until the emitted sets account for
    ``confidence`` of the total likelihood mass of the ``max_probes`` best
    sets.

    Queries near a cell's center (all boundaries far) concentrate their
    mass in the first few probes and stop early; queries near a corner
    (many near boundaries) spread it and receive a larger budget.

    Returns the chosen probe codes, most promising first.
    """
    if not 0.0 < confidence <= 1.0:
        raise ValueError(f"confidence must be in (0, 1], got {confidence}")
    if max_probes <= 0:
        return np.empty((0, np.asarray(code, dtype=np.int64).size),
                        dtype=np.int64)
    y = np.asarray(y, dtype=np.float64)
    code = np.asarray(code, dtype=np.int64)
    scores, labels = boundary_distances(y, code)
    return _emit_adaptive(code, scores, labels, max_probes, confidence)


def query_directed_probes(y: np.ndarray, code: np.ndarray, n_probes: int) -> np.ndarray:
    """Return up to ``n_probes`` probe codes for one ``Z^M`` query.

    Parameters
    ----------
    y:
        The query's projections in bucket-width units, shape ``(M,)``.
    code:
        The query's own code ``floor(y)``; not included in the output.
    n_probes:
        Number of additional codes wanted.

    Returns
    -------
    numpy.ndarray
        ``int64`` array of shape ``(<= n_probes, M)``, most promising first.
    """
    y = np.asarray(y, dtype=np.float64)
    code = np.asarray(code, dtype=np.int64)
    scores, labels = boundary_distances(y, code)
    out = np.empty((n_probes, code.size), dtype=np.int64)
    count = 0
    for pset in perturbation_sets(scores, labels, n_probes):
        probe = code.copy()
        for dim, delta in pset:
            probe[dim] += delta
        out[count] = probe
        count += 1
    return out[:count]
