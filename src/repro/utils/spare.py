"""Append-only arrays that grow at the cost of the rows appended.

An index publishes its row arrays (points, ids, norms, tombstones) as
plain ndarrays that lock-free readers snapshot by reference, so a writer
may never rewrite a published row.  Appending with ``np.vstack`` honours
that by copying everything on every insert; :class:`SpareRows` honours it
by keeping spare capacity *behind* the published prefix: new rows are
written where no reader can see them, and only then is the longer prefix
view handed back to be published.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

__all__ = ["SpareRows"]

#: A reallocation leaves room for 1/8 more rows (and a few, so tiny
#: arrays do not reallocate on every append): copies stay amortised
#: O(rows appended), and the untouched tail of ``np.empty`` is never
#: resident, so the headroom costs address space, not memory.
HEADROOM_DIVISOR = 8
MIN_HEADROOM = 16


class SpareRows:
    """The buffers behind one owner's append-only arrays, by name.

    Not thread-safe: the owner appends under its writer lock.
    """

    def __init__(self) -> None:
        self._buffers: Dict[str, np.ndarray] = {}

    def append(self, key: str, live: np.ndarray,
               rows: np.ndarray) -> np.ndarray:
        """``live`` followed by ``rows``, as a prefix view of ``key``'s
        buffer.

        ``live`` is either the view the previous ``append(key, ...)``
        returned — then the rows go into the spare capacity behind it,
        which no published view covers — or any other array (adopted,
        read-only, memmapped, or replaced since): that one is copied
        into a fresh buffer first, as ``np.vstack`` would.
        """
        n, m = live.shape[0], rows.shape[0]
        buf = self._buffers.get(key)
        if buf is None or live.base is not buf or buf.shape[0] < n + m:
            capacity = n + m + (n + m) // HEADROOM_DIVISOR + MIN_HEADROOM
            buf = np.empty((capacity,) + live.shape[1:], dtype=live.dtype)
            buf[:n] = live
            self._buffers[key] = buf
        buf[n:n + m] = rows
        return buf[:n + m]
