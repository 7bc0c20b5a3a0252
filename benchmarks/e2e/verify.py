"""The one answer checker and the durability verifier of all four workloads.

Both run outside every timed region.  A row that breaks any rule makes
the operation that returned it a failed operation.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Tuple

import numpy as np

#: Squared-distance tolerance, relative to ``1 + |x|^2 + |q|^2``: the
#: engines compute ``|x|^2 - 2 x.q + |q|^2``, whose rounding error scales
#: with the norms, not with the distance.
SQ_TOL = 1e-9


class PointStore:
    """id -> point for the corpus plus any points inserted later."""

    def __init__(self, train: np.ndarray) -> None:
        self.train = train
        self.extra: Dict[int, np.ndarray] = {}

    def add(self, ids: Iterable[int], points: np.ndarray) -> None:
        for i, point in zip(ids, points):
            self.extra[int(i)] = np.asarray(point, dtype=np.float64)

    def known(self, ids: np.ndarray, limit: int) -> np.ndarray:
        """Which ids name a point (``limit`` caps corpus ids, e.g. the
        first 20 k rows for the hierarchy index)."""
        ok = (ids >= 0) & (ids < limit)
        if self.extra:
            ok |= np.isin(ids, np.fromiter(self.extra, dtype=np.int64))
        return ok

    def points(self, ids: np.ndarray) -> np.ndarray:
        """Points of ``ids`` (any shape); unknown ids give NaN rows."""
        flat = ids.ravel()
        n = self.train.shape[0]
        out = np.full((flat.size, self.train.shape[1]), np.nan)
        corpus = (flat >= 0) & (flat < n)
        out[corpus] = self.train[flat[corpus]]
        for pos in np.nonzero(~corpus & (flat >= 0))[0]:
            point = self.extra.get(int(flat[pos]))
            if point is not None:
                out[pos] = point
        return out.reshape(ids.shape + (self.train.shape[1],))


def check_answers(queries: np.ndarray, ids: np.ndarray, dists: np.ndarray,
                  store: PointStore, k: int,
                  id_limit: Optional[int] = None,
                  forbidden: Optional[Callable[[int], np.ndarray]] = None,
                  ) -> np.ndarray:
    """Per-row verdict (True = correct) for one batch of answers.

    A row is correct when: it has ``k`` slots; its ids are distinct and
    each names a known point (corpus ids below ``id_limit``); padding
    (id -1, distance inf) sits only at the tail; distances ascend; every
    distance equals the recomputed true distance to that id; and no id
    is in ``forbidden(row)`` (ids whose delete was acknowledged before
    the read was sent).
    """
    queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
    nq = queries.shape[0]
    ids = np.asarray(ids)
    dists = np.asarray(dists, dtype=np.float64)
    if ids.shape != (nq, k) or dists.shape != (nq, k) \
            or not np.issubdtype(ids.dtype, np.integer):
        return np.zeros(nq, dtype=bool)
    limit = store.train.shape[0] if id_limit is None else id_limit
    pad = ids < 0
    ok = np.all(~pad | ((ids == -1) & np.isposinf(dists)), axis=1)
    # Padding only at the tail: once a slot is padding, all later ones are.
    ok &= np.all(pad[:, 1:] >= pad[:, :-1], axis=1)
    ok &= np.all(pad | store.known(ids, limit), axis=1)
    sorted_ids = np.sort(np.where(pad, -np.arange(1, k + 1), ids), axis=1)
    ok &= np.all(sorted_ids[:, 1:] != sorted_ids[:, :-1], axis=1)
    finite = np.where(pad, 0.0, dists)
    ok &= np.all(np.isfinite(finite) & (finite >= 0.0), axis=1)
    ordered = np.where(pad, np.inf, dists)
    ok &= np.all(ordered[:, 1:] >= ordered[:, :-1], axis=1)
    points = store.points(np.where(pad, 0, ids))
    diff = points - queries[:, None, :]
    true_sq = np.einsum("qkd,qkd->qk", diff, diff)
    scale = (1.0 + np.einsum("qkd,qkd->qk", points, points)
             + np.einsum("qd,qd->q", queries, queries)[:, None])
    close = np.abs(finite * finite - true_sq) <= SQ_TOL * scale
    ok &= np.all(pad | close, axis=1)      # NaN (unknown id) compares False
    if forbidden is not None:
        for row in np.nonzero(ok)[0]:
            banned = forbidden(int(row))
            if banned.size and np.isin(ids[row], banned).any():
                ok[row] = False
    return ok


def verify_durability(snapshot: str, wal_path: str,
                      inserted: Dict[int, np.ndarray],
                      deleted: Iterable[int], k: int,
                      ) -> Tuple[int, List[str]]:
    """Recover ``snapshot`` + ``wal_path`` and check every acked write.

    ``inserted`` maps each acknowledged inserted id to its point;
    ``deleted`` lists ids whose delete was acknowledged.  After recovery
    every inserted, not-later-deleted id must come back at distance 0 for
    its own point, and no deleted id may come back at all.  Returns
    ``(checks made, violations)``; each violation is a failed operation.
    """
    from repro.runtime import IndexRuntime, QueryRequest, RuntimeConfig

    from benchmarks.e2e.workloads import ENGINE

    gone = {int(i) for i in deleted}
    order = sorted(inserted)
    if not order:
        return 0, []
    points = np.stack([inserted[i] for i in order])
    with IndexRuntime.open(snapshot, RuntimeConfig(engine=ENGINE),
                           wal_path=wal_path) as runtime:
        response = runtime.submit(QueryRequest(queries=points, k=k))
    problems: List[str] = []
    returned = response.ids
    for row, ident in enumerate(order):
        if ident in gone:
            continue
        hit = np.nonzero(returned[row] == ident)[0]
        if hit.size == 0:
            problems.append(f"acked insert {ident} lost after recovery")
        elif abs(float(response.distances[row, hit[0]])) > 1e-6:
            problems.append(f"acked insert {ident} recovered at distance "
                            f"{response.distances[row, hit[0]]!r}")
    if gone:
        ghosts = np.intersect1d(returned.ravel(),
                                np.fromiter(gone, dtype=np.int64))
        problems.extend(f"acked delete {int(g)} returned after recovery"
                        for g in ghosts)
    return len(order), problems
