"""Morton-curve hierarchy over ``Z^M`` LSH buckets.

The paper builds its ``Z^M`` hierarchy by interleaving the binary
representations of each bucket's LSH code into a Morton (Z-order /
Lebesgue) code and sorting buckets along the resulting one-dimensional
curve (Section IV-B.2a).  Two facts make this a usable hierarchy:

- nearby cells in ``Z^M`` tend to be nearby on the curve, so the buckets
  adjacent to a query's *insertion position* are good extra probes;
- all cells sharing the top ``b`` Morton bits form an aligned power-of-two
  box in ``Z^M`` *and* a contiguous run of the sorted curve, so "go one
  level up the hierarchy" is just "widen the shared-prefix window", found
  with two binary searches.

Codes may be negative (floor of a centered projection), so each hierarchy
instance shifts codes by the per-table coordinate-wise minimum before
interleaving; queries falling outside the table's code bounding box are
clamped to it, which maps them to the nearest populated region of the
curve.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import List, Optional, Tuple

import numpy as np

from repro import obs
from repro.lsh.table import LSHTable


def morton_encode(codes: np.ndarray, bits: int) -> List[int]:
    """Interleave the binary digits of each row of ``codes``.

    Parameters
    ----------
    codes:
        Non-negative ``(n, M)`` integer array; every entry must fit in
        ``bits`` bits.
    bits:
        Number of bits taken from each coordinate.

    Returns
    -------
    list of int
        Python integers (arbitrary precision, so any ``M * bits`` fits).
        Bit ``b`` of coordinate ``j`` lands at position ``b * M + j`` with
        higher positions more significant — coordinate-0 bits are the most
        significant within each bit plane.
    """
    codes = np.atleast_2d(np.asarray(codes, dtype=np.int64))
    if codes.size and (codes.min() < 0 or (bits < 63 and codes.max() >= (1 << bits))):
        raise ValueError("codes must be non-negative and fit in the bit budget")
    n, m = codes.shape
    # uint64 while the interleaved code fits, Python ints (object) past it.
    out = np.zeros(n, dtype=np.uint64 if bits * m <= 62 else object)
    for b in range(bits):
        for j in range(m):
            bitvals = ((codes[:, j] >> b) & 1).astype(out.dtype)
            out |= bitvals << (b * m + (m - 1 - j))
    return out.tolist()


class MortonHierarchy:
    """Hierarchy over the buckets of one ``Z^M`` :class:`LSHTable`.

    Bucket membership is copied out of ``table`` into one id array in
    curve order, so any window of the curve is a slice.
    """

    def __init__(self, table: LSHTable):
        self.table = table
        codes = table.bucket_codes  # (B, M), lexicographically sorted
        self.m = codes.shape[1]
        self.offset = codes.min(axis=0)
        shifted = codes - self.offset
        span = int(shifted.max()) if shifted.size else 0
        self.bits = max(int(span).bit_length(), 1)
        self.total_bits = self.bits * self.m
        mortons = morton_encode(shifted, self.bits)
        if self.total_bits <= 62:
            order = np.argsort(np.array(mortons, dtype=np.int64))
        else:  # past int64: exact Python-int sort
            order = np.array(sorted(range(len(mortons)),
                                    key=mortons.__getitem__), dtype=np.int64)
        self._sorted_mortons = [mortons[i] for i in order]
        sizes = table.bucket_sizes()[order]
        self._cum_sizes = np.concatenate(([0], np.cumsum(sizes))).astype(np.int64)
        self._ids = LSHTable._gather_segments(table.sorted_ids,
                                              table._starts[order], sizes)

    @property
    def n_buckets(self) -> int:
        return len(self._sorted_mortons)

    def _encode_query(self, codes: np.ndarray) -> List[int]:
        codes = np.atleast_2d(np.asarray(codes, dtype=np.int64))
        limit = (1 << self.bits) - 1
        return morton_encode(np.clip(codes - self.offset, 0, limit), self.bits)

    def _prefix_window(self, morton: int, dropped_bits: int) -> tuple:
        """Half-open curve range ``(lo, hi)`` of the buckets sharing
        ``morton``'s bits above the ``dropped_bits`` low-order ones."""
        prefix = morton >> dropped_bits
        return (bisect_left(self._sorted_mortons, prefix << dropped_bits),
                bisect_left(self._sorted_mortons, (prefix + 1) << dropped_bits))

    def window_size(self, lo: int, hi: int) -> int:
        """Number of points stored in curve positions ``[lo, hi)``."""
        return int(self._cum_sizes[hi] - self._cum_sizes[lo])

    def _window(self, morton: int, min_count: int) -> Tuple[int, int, int]:
        """``(lo, hi, dropped_bits)``: one query's escalated curve window.

        Starts from the exact-prefix window plus the immediate predecessor
        and successor buckets (the paper's insert-position probing) and
        drops one more Morton bit per step until the window holds
        ``min_count`` points or covers the curve.  Single-bit steps keep
        the escalation fine-grained: a full bit plane would grow the
        window by ``2^M`` at once and overshoot the candidate budget.
        """
        pos = bisect_left(self._sorted_mortons, morton)
        dropped = 0
        lo, hi = self._prefix_window(morton, dropped)
        lo = min(lo, max(pos - 1, 0))
        hi = max(hi, min(pos + 1, self.n_buckets))
        while (self.window_size(lo, hi) < min_count
               and (lo > 0 or hi < self.n_buckets)
               and dropped < self.total_bits):
            dropped += 1
            lo2, hi2 = self._prefix_window(morton, dropped)
            lo = min(lo, lo2)
            hi = max(hi, hi2)
        return lo, hi, dropped

    def candidates_batch(self, codes: np.ndarray, min_count: int,
                         kernels: Optional[object] = None,
                         ) -> Tuple[np.ndarray, np.ndarray]:
        """Candidate ids near every code row, flattened: ``(ids, counts)``.

        Same call shape as :meth:`E8Hierarchy.candidates_batch`;
        ``kernels`` is unused (the walk is exact big-int arithmetic).
        """
        windows = np.array([self._window(morton, min_count)
                            for morton in self._encode_query(codes)],
                           dtype=np.int64).reshape(-1, 3)
        ob = obs.active()
        if ob is not None:
            ob.record_escalation_depth("morton", windows[:, 2])
        starts = self._cum_sizes[windows[:, 0]]
        counts = self._cum_sizes[windows[:, 1]] - starts
        return LSHTable._gather_segments(self._ids, starts, counts), counts

    def candidates(self, code: np.ndarray, min_count: int) -> np.ndarray:
        """One row of :meth:`candidates_batch`, ids ascending."""
        return np.sort(self.candidates_batch(code, min_count)[0])

    def shared_msb(self, code: np.ndarray) -> int:
        """Most-significant bits shared with the nearest curve neighbors.

        The paper uses this count to decide how far up the hierarchy a
        query must travel: few shared bits means the query sits in a sparse
        region and should use a coarse (large) bucket.
        """
        morton = self._encode_query(code)[0]
        pos = bisect_left(self._sorted_mortons, morton)
        best = 0
        for neighbor_pos in (pos - 1, pos):
            if 0 <= neighbor_pos < self.n_buckets:
                diff = morton ^ self._sorted_mortons[neighbor_pos]
                best = max(best, self.total_bits - diff.bit_length())
        return best
