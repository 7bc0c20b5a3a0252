"""Bucketed LSH hash table.

Maps discrete lattice codes (optionally prefixed by an RP-tree group index —
the Bi-level code ``H~(v) = (RPtree(v), H(v))``) to buckets of point ids.
Unlike an ordinary hash table, an LSH table *wants* collisions: all points
whose code matches share a bucket and become short-list candidates for any
query landing in that bucket (Section IV-B.1 of the paper).

Internally buckets are stored CSR-style (one sorted id array plus per-bucket
start/end offsets — a :class:`SortedLayout`), mirroring the paper's GPU
layout of "a linear array along with an indexing table"; points inserted
after the build live in a second layout of the same shape, and the plan's
``bucket_union`` kernel searches both.  For the numpy lookups the index
table is an array
of *packed keys*: each ``(M,)`` int64 code row is packed into one fixed-width
big-endian byte string whose lexicographic byte order equals the
lexicographic order of the code tuple, so a whole batch of codes resolves to
bucket indices with a single :func:`numpy.searchsorted` call
(:meth:`lookup_batch`) instead of one dict probe per code.
"""

from __future__ import annotations

import threading
import weakref
from typing import Dict, Iterable, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro import obs

#: Sign-bit flip making the unsigned byte order of an int64 match its
#: signed numeric order.
_SIGN_FLIP = np.uint64(1 << 63)


def codes_to_keys(codes: np.ndarray) -> List[bytes]:
    """Convert an ``(n, M)`` int code array to hashable byte keys."""
    codes = np.ascontiguousarray(np.atleast_2d(codes), dtype=np.int64)
    return [row.tobytes() for row in codes]


def pack_codes(codes: np.ndarray) -> np.ndarray:
    """Pack ``(n, M)`` int64 codes into ``(n,)`` sortable fixed-width keys.

    Each row is mapped to an ``S(8*M)`` byte string: the sign bit of every
    coordinate is flipped (so signed order becomes unsigned order) and the
    coordinates are laid out big-endian, most-significant coordinate first.
    Comparing two keys byte-wise is then exactly the lexicographic
    comparison of the two code tuples, which makes the keys directly
    usable with :func:`numpy.sort` / :func:`numpy.searchsorted`.
    """
    codes = np.ascontiguousarray(np.atleast_2d(codes), dtype=np.int64)
    n, m = codes.shape
    if n == 0:
        return np.empty(0, dtype=f"S{8 * m}")
    packed = (codes.view(np.uint64) ^ _SIGN_FLIP).astype(">u8")
    return np.ascontiguousarray(packed, dtype=">u8").view(f"S{8 * m}").ravel()


#: Packed keys of the sorted code arrays searched so far, by ``id`` of the
#: array, dropped when the array dies.  Tables and hierarchy levels publish
#: their code arrays once and never write to them, and search the same ones
#: on every batch — repacking per call would cost more than the search.
_PACKED: Dict[int, Tuple["weakref.ref[np.ndarray]", np.ndarray]] = {}


def packed_keys(sorted_codes: np.ndarray) -> np.ndarray:
    """:func:`pack_codes` of a published (never rewritten) code array,
    remembered for as long as the array lives."""
    token = id(sorted_codes)
    entry = _PACKED.get(token)
    if entry is not None and entry[0]() is sorted_codes:
        return entry[1]
    keys = pack_codes(sorted_codes)
    _PACKED[token] = (
        weakref.ref(sorted_codes,
                    lambda _ref, token=token: _PACKED.pop(token, None)),
        keys)
    return keys


class SortedLayout(NamedTuple):
    """One immutable sorted bucket layout: distinct codes, the run of
    ``sorted_ids`` each owns, and where those arrays live.

    A table publishes one for its base and one for its insert overlay;
    nothing writes to the arrays afterwards.  ``pointers`` is derived
    data for the compiled ``bucket_union`` kernel, built once here and
    never per call: the int64 words ``(bucket_codes address, n_buckets,
    starts address, ends address, sorted_ids address, n_ids)`` — valid
    for as long as this tuple keeps the arrays referenced.
    """

    bucket_codes: np.ndarray
    starts: np.ndarray
    ends: np.ndarray
    sorted_ids: np.ndarray
    pointers: np.ndarray

    @classmethod
    def adopt(cls, bucket_codes: np.ndarray, starts: np.ndarray,
              ends: np.ndarray, sorted_ids: np.ndarray) -> "SortedLayout":
        """A layout over existing arrays, by reference — read-only
        views included.  The kernel reads them through
        raw addresses, so anything but C-contiguous int64 is refused."""
        for arr in (bucket_codes, starts, ends, sorted_ids):
            if arr.dtype != np.int64 or not arr.flags.c_contiguous:
                raise ValueError("layout arrays must be C-contiguous int64, "
                                 f"got {arr.dtype} (contiguous: "
                                 f"{arr.flags.c_contiguous})")
        n_buckets = starts.shape[0]
        if bucket_codes.ndim != 2 or bucket_codes.shape[0] != n_buckets \
                or ends.shape != (n_buckets,) or sorted_ids.ndim != 1:
            raise ValueError(
                f"inconsistent layout: bucket_codes {bucket_codes.shape}, "
                f"starts {starts.shape}, ends {ends.shape}, sorted_ids "
                f"{sorted_ids.shape}")
        return cls(bucket_codes, starts, ends, sorted_ids, np.array(
            [bucket_codes.ctypes.data, n_buckets, starts.ctypes.data,
             ends.ctypes.data, sorted_ids.ctypes.data, sorted_ids.shape[0]],
            dtype=np.int64))

    @classmethod
    def sort(cls, codes: np.ndarray, ids: np.ndarray) -> "SortedLayout":
        """Group ``ids`` by their ``(n, M)`` code rows — the "sorted
        linear array" with its indexing table of Section V-A.  The sort
        is stable: ids sharing a code keep their order."""
        n = codes.shape[0]
        if n == 0:
            empty = np.empty(0, dtype=np.int64)
            return cls.adopt(codes, empty, empty, empty)
        order = np.lexsort(codes.T[::-1])
        sorted_codes = codes[order]
        sorted_ids = ids[order]
        # Boundaries between runs of identical codes.
        change = np.flatnonzero(
            (sorted_codes[1:] != sorted_codes[:-1]).any(axis=1)) + 1
        bounds = np.empty(change.shape[0] + 2, dtype=np.int64)
        bounds[0], bounds[1:-1], bounds[-1] = 0, change, n
        return cls.adopt(sorted_codes[bounds[:-1]], bounds[:-1], bounds[1:],
                         sorted_ids)

    def row_codes(self) -> np.ndarray:
        """The code of every row of ``sorted_ids`` (buckets tile it
        contiguously, so this is the bucket codes repeated by size)."""
        return np.repeat(self.bucket_codes, self.ends - self.starts, axis=0)

    def spans(self, bucket_index: np.ndarray,
              ) -> Tuple[np.ndarray, np.ndarray]:
        """``(starts, lengths)`` inside ``sorted_ids`` per bucket index
        (as ``lookup_codes`` returns them); ``-1`` is an empty span."""
        found = bucket_index >= 0
        if not self.starts.shape[0]:
            zeros = np.zeros(bucket_index.shape[0], dtype=np.int64)
            return zeros, zeros
        safe = np.where(found, bucket_index, 0)
        starts = np.where(found, self.starts[safe], 0)
        return starts, np.where(found, self.ends[safe] - starts, 0)


class LSHTable:
    """One LSH hash table: code -> bucket of point ids.

    Parameters
    ----------
    codes:
        ``(n, M)`` integer array, the full (possibly group-prefixed) code of
        every indexed point.  Row ``i`` is the code of point id ``ids[i]``.
    ids:
        Optional ``(n,)`` integer ids; defaults to ``arange(n)``.
    """

    def __init__(self, codes: np.ndarray, ids: Optional[np.ndarray] = None):
        codes = np.ascontiguousarray(np.atleast_2d(codes), dtype=np.int64)
        n = codes.shape[0]
        if ids is None:
            ids = np.arange(n, dtype=np.int64)
        else:
            ids = np.asarray(ids, dtype=np.int64)
            if ids.shape != (n,):
                raise ValueError(f"ids must have shape ({n},), got {ids.shape}")
        self.code_dim = codes.shape[1]
        self.n_points = n
        self._base = base = SortedLayout.sort(codes, ids)
        self._bucket_codes, self._starts, self._ends, self._sorted_ids = \
            base[:4]
        # Post-build insertions: one more sorted layout, rebuilt by every
        # ``add`` under the lock and published with a single assignment —
        # readers take the reference once and never see it change.
        self._overlay_lock = threading.Lock()
        self._overlay: Optional[SortedLayout] = None

    @classmethod
    def from_arrays(cls, bucket_codes: np.ndarray, starts: np.ndarray,
                    ends: np.ndarray, sorted_ids: np.ndarray) -> "LSHTable":
        """A table over an existing CSR layout, adopted by reference.

        No sort and no copy: an adopter may hand in read-only
        views of the layout :meth:`arrays` exported.  The overlay starts
        empty, as after any build.
        """
        table = cls(bucket_codes[:0])
        table._bucket_codes = bucket_codes
        table._starts = starts
        table._ends = ends
        table._sorted_ids = sorted_ids
        table._base = SortedLayout.adopt(bucket_codes, starts, ends,
                                         sorted_ids)
        table.n_points = sorted_ids.shape[0]
        return table

    def arrays(self) -> Dict[str, np.ndarray]:
        """The sorted layout :meth:`from_arrays` takes, by its keyword
        names (the overlay is not part of it — fold it first)."""
        return {"bucket_codes": self._bucket_codes, "starts": self._starts,
                "ends": self._ends, "sorted_ids": self._sorted_ids}

    def layouts(self) -> Tuple[SortedLayout, ...]:
        """The sorted layouts holding this table's points — the base,
        then the insert overlay while there is one: what the
        ``bucket_union`` kernel searches.  One consistent snapshot."""
        overlay = self._overlay
        return (self._base,) if overlay is None else (self._base, overlay)

    @property
    def n_buckets(self) -> int:
        return self._starts.shape[0]

    @property
    def n_extra(self) -> int:
        """Points inserted after the initial build (overlay, not CSR)."""
        overlay = self._overlay
        return 0 if overlay is None else overlay.sorted_ids.shape[0]

    def add(self, codes: np.ndarray, ids: np.ndarray) -> None:
        """Insert points after the initial build.

        Additions land in the overlay layout, which is re-sorted here —
        once per ``add``, never by a reader; ids sharing a code keep
        insertion order.  Every lookup merges it with the base layout.
        Callers that care about the CSR invariants (e.g. the bucket
        hierarchies) should rebuild the table once :attr:`n_extra` grows
        past their tolerance.
        """
        codes = np.ascontiguousarray(np.atleast_2d(codes), dtype=np.int64)
        ids = np.asarray(ids, dtype=np.int64)
        if codes.shape[0] != ids.shape[0]:
            raise ValueError("codes and ids must have matching lengths")
        if codes.shape[1] != self.code_dim:
            raise ValueError(
                f"codes must have {self.code_dim} columns, got {codes.shape[1]}")
        with self._overlay_lock:
            self.n_points += ids.shape[0]
            overlay = self._overlay
            if overlay is not None:
                codes = np.concatenate([overlay.row_codes(), codes], axis=0)
                ids = np.concatenate([overlay.sorted_ids, ids])
            self._overlay = SortedLayout.sort(codes, ids)
        ob = obs.active()
        if ob is not None:
            ob.record_overlay_merge()

    def compacted(self, drop: Optional[np.ndarray] = None) -> "LSHTable":
        """A fresh table with the overlay folded in and ``drop`` ids removed.

        Reconstructs every row's code from the sorted layouts (base rows,
        then overlay rows), masks out ids flagged in the boolean ``drop``
        array (indexed by id), and builds a brand-new :class:`LSHTable` —
        no re-projection needed, making this safe to run off the owning
        index's writer lock.  ``self`` is untouched.
        """
        layouts = self.layouts()
        codes = np.concatenate([lay.row_codes() for lay in layouts], axis=0)
        ids = np.concatenate([lay.sorted_ids for lay in layouts])
        if drop is not None and drop.size and ids.size:
            dropped = (ids < drop.shape[0]) & drop[np.minimum(
                ids, drop.shape[0] - 1)]
            if np.any(dropped):
                keep = ~dropped
                codes = codes[keep]
                ids = ids[keep]
        return LSHTable(codes, ids=ids)

    @property
    def bucket_codes(self) -> np.ndarray:
        """The distinct codes, one row per bucket (lexicographically sorted)."""
        return self._bucket_codes

    @property
    def sorted_ids(self) -> np.ndarray:
        """Point ids in bucket-grouped order (the linear array)."""
        return self._sorted_ids

    def bucket_bounds(self, bucket_index: int) -> Tuple[int, int]:
        """Start/end offsets of one bucket inside :attr:`sorted_ids`."""
        return int(self._starts[bucket_index]), int(self._ends[bucket_index])

    def bucket_sizes(self) -> np.ndarray:
        """Sizes of all buckets."""
        return (self._ends - self._starts).astype(np.int64)

    # ---------------------------------------------------------------- lookup

    @staticmethod
    def _searchsorted_keys(sorted_keys: np.ndarray,
                           query_keys: np.ndarray) -> np.ndarray:
        """Indices of ``query_keys`` inside ``sorted_keys`` (-1 if absent)."""
        if sorted_keys.size == 0:
            return np.full(query_keys.shape[0], -1, dtype=np.int64)
        pos = np.searchsorted(sorted_keys, query_keys).astype(np.int64)
        clipped = np.minimum(pos, sorted_keys.size - 1)
        found = (pos < sorted_keys.size) & (sorted_keys[clipped] == query_keys)
        return np.where(found, clipped, np.int64(-1))

    def lookup_batch(self, codes: np.ndarray) -> np.ndarray:
        """Bucket index per code row (``-1`` for codes with no bucket).

        One :func:`numpy.searchsorted` over the packed sorted bucket keys
        resolves the whole batch — this is the array-at-a-time replacement
        for per-code dict probing (overlay points are *not* consulted; use
        :meth:`gather_batch` for candidate gathering that includes them).
        """
        codes = np.ascontiguousarray(np.atleast_2d(codes), dtype=np.int64)
        if codes.shape[1] != self.code_dim:
            raise ValueError(
                f"codes must have {self.code_dim} columns, got {codes.shape[1]}")
        return self._searchsorted_keys(packed_keys(self._bucket_codes),
                                       pack_codes(codes))

    @staticmethod
    def _gather_segments(values: np.ndarray, starts: np.ndarray,
                         lengths: np.ndarray,
                         out: Optional[np.ndarray] = None,
                         out_starts: Optional[np.ndarray] = None) -> np.ndarray:
        """Gather ``values[starts[i]:starts[i]+lengths[i]]`` for every row.

        With ``out``/``out_starts`` the segments are scattered into ``out``
        at per-row offsets instead of packed contiguously.
        """
        total = int(lengths.sum())
        rel = np.arange(total, dtype=np.int64)
        row_ends = np.cumsum(lengths)
        rel -= np.repeat(row_ends - lengths, lengths)
        src = np.repeat(starts, lengths) + rel
        gathered = values[src]
        if out is None:
            return gathered
        out[np.repeat(out_starts, lengths) + rel] = gathered
        return out

    @staticmethod
    def gather_layouts(layouts: Sequence[SortedLayout], codes: np.ndarray,
                       ) -> Tuple[np.ndarray, np.ndarray]:
        """:meth:`gather_batch` over explicit ``layouts``: per code row
        the members of its bucket in the first layout, then in the next.
        One ``searchsorted`` per layout and pure offset arithmetic — no
        per-row Python work."""
        keys = pack_codes(codes)
        spans = [lay.spans(LSHTable._searchsorted_keys(
            packed_keys(lay.bucket_codes), keys)) for lay in layouts]
        if len(layouts) == 1:
            starts, counts = spans[0]
            return (LSHTable._gather_segments(layouts[0].sorted_ids, starts,
                                              counts), counts)
        counts = np.sum([lens for _, lens in spans], axis=0, dtype=np.int64)
        out = np.empty(int(counts.sum()), dtype=np.int64)
        offsets = np.cumsum(counts) - counts
        for lay, (starts, lens) in zip(layouts, spans):
            LSHTable._gather_segments(lay.sorted_ids, starts, lens, out=out,
                                      out_starts=offsets)
            offsets = offsets + lens
        return out, counts

    def gather_batch(self, codes: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Candidate ids for every code row, flattened CSR-style.

        Returns ``(ids, counts)`` where ``counts[i]`` is the number of ids
        gathered for row ``i`` and ``ids`` is their concatenation (base
        bucket members first, then overlay members, per row).
        """
        codes = np.ascontiguousarray(np.atleast_2d(codes), dtype=np.int64)
        if codes.shape[1] != self.code_dim:
            raise ValueError(
                f"codes must have {self.code_dim} columns, got {codes.shape[1]}")
        return self.gather_layouts(self.layouts(), codes)

    def lookup(self, code: np.ndarray) -> np.ndarray:
        """Return the ids in the bucket matching ``code`` (empty if none)."""
        code = np.ascontiguousarray(code, dtype=np.int64).reshape(1, -1)
        ids, _ = self.gather_batch(code)
        return ids

    def lookup_many(self, codes: Iterable[np.ndarray]) -> np.ndarray:
        """Union of the buckets matching each code (deduplicated ids)."""
        codes = np.atleast_2d(np.asarray(codes, dtype=np.int64))
        if codes.shape[0] == 0:
            return np.empty(0, dtype=np.int64)
        merged, _ = self.gather_batch(codes)
        if merged.size == 0:
            return merged
        return np.unique(merged)

    def bucket_index(self, code: np.ndarray) -> Optional[int]:
        """Index of the bucket holding ``code``, or ``None``."""
        code = np.ascontiguousarray(code, dtype=np.int64).reshape(1, -1)
        idx = int(self.lookup_batch(code)[0])
        return idx if idx >= 0 else None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"LSHTable(n_points={self.n_points}, n_buckets={self.n_buckets}, "
                f"code_dim={self.code_dim})")
