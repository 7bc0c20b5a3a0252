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
