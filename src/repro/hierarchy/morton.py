"""Morton-curve hierarchy over ``Z^M`` LSH buckets.

The paper builds its ``Z^M`` hierarchy by interleaving the binary digits
of each bucket's code into a Morton (Z-order) code and sorting buckets
along the resulting curve (Section IV-B.2a).  Every table layout keeps
its buckets in that order (:func:`repro.lsh.table.morton_keys`), so the
hierarchy is a view of its table's base layout:

- nearby cells in ``Z^M`` tend to be nearby on the curve, so the buckets
  adjacent to a query's *insertion position* are good extra probes;
- all cells sharing the top ``b`` Morton bits form an aligned power-of-two
  box in ``Z^M`` *and* a contiguous run of the sorted curve, so "go one
  level up the hierarchy" is just "widen the shared-prefix window", found
  with two binary searches over the layout's keys.

Queries outside the table's code box are clamped into it, which maps
them to the nearest populated region of the curve.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from repro.lsh.table import LSHTable, SortedLayout, morton_keys, packed_keys


def _curve_range(keys: np.ndarray, words: np.ndarray,
                 low: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Half-open range of the sorted ``keys`` sharing each row of the
    ``(n, W)`` key ``words``' bits above its ``low`` low-order ones."""
    width = words.shape[1]
    # Bits to clear (or set) per word, most significant word first.
    shift = np.clip(low[:, None] - 64 * np.arange(width - 1, -1, -1), 0, 64)
    mask = np.uint64(2 ** 64 - 1) >> (64 - shift).astype(np.uint64)
    ends = [words & ~mask, words | mask]
    if width > 1:  # big-endian words as bytes, as the keys are
        ends = [end.astype(">u8").view(f"S{8 * width}") for end in ends]
    return (np.searchsorted(keys, ends[0].ravel(), "left"),
            np.searchsorted(keys, ends[1].ravel(), "right"))


def morton_walk(layout: SortedLayout, codes: np.ndarray, min_count: int,
                ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(start, size, dropped_bits)`` per ``(n, M)`` code row: the run of
    ``layout.sorted_ids`` the row escalates to.  A row starts from its
    exact-prefix window plus the buckets either side of its insert
    position (the paper's insert-position probing) and drops one Morton
    bit per step — a whole bit plane would grow the window ``2^M``-fold
    and overshoot the budget — until the window holds ``min_count`` ids
    or covers the curve.  Rows still short step together."""
    keys, offset, bits = packed_keys(layout.bucket_codes)
    n_buckets, total_bits = keys.shape[0], codes.shape[1] * bits
    edges = np.append(layout.starts, layout.sorted_ids.shape[0])
    query = morton_keys(codes, (offset, bits))[0]
    words = (query[:, None] if query.dtype == np.uint64 else
             query.view(">u8").reshape(query.shape[0], -1).astype(np.uint64))
    # Keys are left-aligned: the curve's lowest bit is above ``pad`` zeros.
    pad = 64 * words.shape[1] - total_bits
    dropped = np.zeros(query.shape[0], dtype=np.int64)
    lo, hi = _curve_range(keys, words, dropped + pad)
    lo, hi = np.maximum(lo - 1, 0), np.maximum(hi, np.minimum(lo + 1, n_buckets))
    todo = np.arange(query.shape[0])
    while True:
        below, above = lo[todo], hi[todo]
        todo = todo[(edges[above] - edges[below] < min_count)
                    & ((below > 0) | (above < n_buckets))
                    & (dropped[todo] < total_bits)]
        if not todo.size:
            return edges[lo], edges[hi] - edges[lo], dropped
        dropped[todo] += 1
        wider = _curve_range(keys, words[todo], dropped[todo] + pad)
        lo[todo] = np.minimum(lo[todo], wider[0])
        hi[todo] = np.maximum(hi[todo], wider[1])


class MortonHierarchy:
    """Hierarchy over the buckets of one ``Z^M`` :class:`LSHTable`: a view
    of its base layout.  ``ids`` is the layout's ``sorted_ids``, so any
    window of the curve is a slice of it; the layout's keys are made on
    the first walk."""

    #: ``repro_escalation_depth`` label of the Morton bits its walk drops.
    depth_label = "morton"

    def __init__(self, table: LSHTable):
        self.table = table
        self.layout = table.layouts()[0]
        self.ids = self.layout.sorted_ids

    @staticmethod
    def walk(hierarchies: Sequence["MortonHierarchy"], codes: np.ndarray,
             min_count: int, kernels: Optional[object] = None,
             ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(start, size, dropped_bits)``, each ``(L, n)``, of each row of
        the ``(L, n, M)`` ``codes`` (:func:`morton_walk`), as
        :meth:`E8Hierarchy.walk` does; ``kernels`` is unused."""
        out = np.empty((3,) + codes.shape[:2], dtype=np.int64)
        for t, hier in enumerate(hierarchies):
            out[:, t] = morton_walk(hier.layout, codes[t], min_count)
        return out[0], out[1], out[2]

    def candidates(self, code: np.ndarray, min_count: int) -> np.ndarray:
        """The ids :meth:`walk` escalates ``code`` to, ascending."""
        start, size, _ = self.walk([self], np.atleast_2d(code)[None],
                                   min_count)
        return np.sort(LSHTable._gather_segments(self.ids, start[0], size[0]))
