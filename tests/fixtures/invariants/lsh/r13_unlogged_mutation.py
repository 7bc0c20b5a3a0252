"""Seeded violation: R13 (and only R13) must fire on this file.

``UnloggedIndex`` answers queries (``query_batch``) and accepts live
mutation, but its ``insert``/``delete`` never append to a write-ahead
log — an acknowledged write would be unrecoverable after a crash.
Everything else is fully annotated, dtype-explicit, lock-disciplined
and exception-clean so no other rule trips.
"""

from __future__ import annotations

import threading
from typing import Tuple

import numpy as np


class UnloggedIndex:
    """A queryable, mutable index with no durability plumbing."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._rows: np.ndarray = np.zeros((0, 4), dtype=np.float64)
        self._row_ids: np.ndarray = np.zeros(0, dtype=np.int64)

    def insert(self, points: np.ndarray) -> np.ndarray:
        with self._lock:
            start = self._row_ids.shape[0]
            new_ids = np.arange(start, start + points.shape[0],
                                dtype=np.int64)
            self._rows = np.concatenate([self._rows, points], axis=0)
            self._row_ids = np.concatenate([self._row_ids, new_ids])
        return new_ids

    def delete(self, ids: np.ndarray) -> int:
        with self._lock:
            keep = ~np.isin(self._row_ids, ids)
            removed = int(self._row_ids.shape[0] - np.count_nonzero(keep))
            self._rows = self._rows[keep]
            self._row_ids = self._row_ids[keep]
        return removed

    def query_batch(self, queries: np.ndarray,
                    k: int) -> Tuple[np.ndarray, np.ndarray]:
        nq = queries.shape[0]
        return (np.full((nq, k), -1, dtype=np.int64),
                np.full((nq, k), np.inf, dtype=np.float64))
