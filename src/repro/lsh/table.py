"""Bucketed LSH hash table.

Maps discrete lattice codes (optionally prefixed by an RP-tree group index —
the Bi-level code ``H~(v) = (RPtree(v), H(v))``) to buckets of point ids.
Unlike an ordinary hash table, an LSH table *wants* collisions: all points
whose code matches share a bucket and become short-list candidates for any
query landing in that bucket (Section IV-B.1 of the paper).

Internally buckets are stored CSR-style (one sorted id array plus per-bucket
start/end offsets) after :meth:`build`, mirroring the paper's GPU layout of
"a linear array along with an indexing table".  The index table is an array
of *packed keys*: each ``(M,)`` int64 code row is packed into one fixed-width
big-endian byte string whose lexicographic byte order equals the
lexicographic order of the code tuple, so a whole batch of codes resolves to
bucket indices with a single :func:`numpy.searchsorted` call
(:meth:`lookup_batch`) instead of one dict probe per code.
"""

from __future__ import annotations

import threading
import weakref
from typing import Dict, Iterable, List, Optional, Tuple

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
        if n == 0:
            self._sorted_ids = np.empty(0, dtype=np.int64)
            self._starts = np.empty(0, dtype=np.int64)
            self._ends = np.empty(0, dtype=np.int64)
            self._bucket_codes = codes.reshape(0, self.code_dim)
        else:
            # Sort by code (lexicographically) to collect equal codes
            # together — the "sorted linear array" layout of Section V-A.
            order = np.lexsort(codes.T[::-1])
            sorted_codes = codes[order]
            self._sorted_ids = ids[order]
            # Boundaries between runs of identical codes.
            change = np.nonzero(
                np.any(sorted_codes[1:] != sorted_codes[:-1], axis=1))[0] + 1
            self._starts = np.concatenate(([0], change)).astype(np.int64)
            self._ends = np.concatenate((change, [n])).astype(np.int64)
            self._bucket_codes = sorted_codes[self._starts]

        # Dynamic overlay for post-build insertions (kept as raw row/id
        # chunks; a sorted CSR view over them is built lazily).  The lock
        # serializes overlay mutation (``add``) against the lazy CSR merge
        # (``_overlay_csr``), which batch queries hit from n_jobs worker
        # threads; readers receive an immutable tuple snapshot, never the
        # live attributes.
        self._overlay_lock = threading.Lock()
        self._extra_codes: List[np.ndarray] = []
        self._extra_ids: List[np.ndarray] = []
        self._overlay: Optional[Tuple[np.ndarray, np.ndarray,
                                      np.ndarray, np.ndarray]] = None
        self._n_extra = 0

    @classmethod
    def from_arrays(cls, bucket_codes: np.ndarray, starts: np.ndarray,
                    ends: np.ndarray, sorted_ids: np.ndarray) -> "LSHTable":
        """A table over an existing CSR layout, adopted by reference.

        No sort and no copy: the shared-memory workers hand in read-only
        views of the layout :meth:`arrays` exported.  The overlay starts
        empty, as after any build.
        """
        table = cls(bucket_codes[:0])
        table._bucket_codes = bucket_codes
        table._starts = starts
        table._ends = ends
        table._sorted_ids = sorted_ids
        table.n_points = sorted_ids.shape[0]
        return table

    def arrays(self) -> Dict[str, np.ndarray]:
        """The sorted layout :meth:`from_arrays` takes, by its keyword
        names (the overlay is not part of it — fold it first)."""
        return {"bucket_codes": self._bucket_codes, "starts": self._starts,
                "ends": self._ends, "sorted_ids": self._sorted_ids}

    @property
    def n_buckets(self) -> int:
        return self._starts.shape[0]

    @property
    def n_extra(self) -> int:
        """Points inserted after the initial build (overlay, not CSR)."""
        return self._n_extra

    def add(self, codes: np.ndarray, ids: np.ndarray) -> None:
        """Insert points after the initial build.

        Additions land in an overlay; :meth:`lookup` / :meth:`lookup_batch`
        merge them with the sorted base layout.  Callers that care about
        the CSR invariants (e.g. the bucket hierarchies) should rebuild the
        table once :attr:`n_extra` grows past their tolerance.
        """
        codes = np.ascontiguousarray(np.atleast_2d(codes), dtype=np.int64)
        ids = np.asarray(ids, dtype=np.int64)
        if codes.shape[0] != ids.shape[0]:
            raise ValueError("codes and ids must have matching lengths")
        if codes.shape[1] != self.code_dim:
            raise ValueError(
                f"codes must have {self.code_dim} columns, got {codes.shape[1]}")
        with self._overlay_lock:
            self._extra_codes.append(codes)
            self._extra_ids.append(ids)
            self._overlay = None
            self._n_extra += ids.shape[0]
            self.n_points += ids.shape[0]

    def _overlay_csr(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Sorted CSR view over the overlay: ``(keys, ids, starts, ends)``.

        The stable sort keeps insertion order within each key, matching the
        append semantics of the old per-code id lists.  The merge runs
        under the overlay lock and is published as one immutable tuple, so
        a concurrent :meth:`lookup_batch` / :meth:`gather_batch` observes
        either the previous snapshot or the fully merged one — never
        half-updated ``starts``/``ends`` arrays.
        """
        with self._overlay_lock:
            overlay = self._overlay
            if overlay is None:
                if not self._extra_codes:
                    empty_keys = np.empty(0, dtype=f"S{8 * self.code_dim}")
                    empty = np.empty(0, dtype=np.int64)
                    overlay = (empty_keys, empty, empty, empty)
                else:
                    codes = np.concatenate(self._extra_codes, axis=0)
                    ids = np.concatenate(self._extra_ids)
                    keys = pack_codes(codes)
                    order = np.argsort(keys, kind="stable")
                    keys = keys[order]
                    ids = ids[order]
                    change = np.nonzero(keys[1:] != keys[:-1])[0] + 1
                    starts = np.concatenate(([0], change)).astype(np.int64)
                    ends = np.concatenate(
                        (change, [keys.shape[0]])).astype(np.int64)
                    overlay = (keys[starts], ids, starts, ends)
                    ob = obs.active()
                    if ob is not None:
                        ob.record_overlay_merge()
                self._overlay = overlay
        return overlay

    def compacted(self, drop: Optional[np.ndarray] = None) -> "LSHTable":
        """A fresh table with the overlay folded in and ``drop`` ids removed.

        Reconstructs every base row's code from the CSR layout (buckets
        tile ``sorted_ids`` contiguously, so per-row codes are a
        ``repeat`` of the bucket codes by bucket size), appends an
        immutable snapshot of the overlay, masks out ids flagged in the
        boolean ``drop`` array (indexed by id), and builds a brand-new
        :class:`LSHTable` — no re-projection needed, making this safe to
        run off the owning index's writer lock.  ``self`` is untouched.
        """
        sizes = self._ends - self._starts
        base_codes = np.repeat(self._bucket_codes, sizes, axis=0)
        with self._overlay_lock:
            extra_codes = list(self._extra_codes)
            extra_ids = list(self._extra_ids)
        codes = np.concatenate([base_codes] + extra_codes, axis=0) \
            if extra_codes else base_codes
        ids = np.concatenate([self._sorted_ids] + extra_ids) \
            if extra_ids else self._sorted_ids
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

    def bucket_spans(self, bucket_index: np.ndarray,
                     ) -> Tuple[np.ndarray, np.ndarray]:
        """``(starts, lengths)`` inside :attr:`sorted_ids` per bucket index
        (as :meth:`lookup_batch` returns them); ``-1`` is an empty span."""
        found = bucket_index >= 0
        if not self.n_buckets:
            zeros = np.zeros(bucket_index.shape[0], dtype=np.int64)
            return zeros, zeros
        safe = np.where(found, bucket_index, 0)
        starts = np.where(found, self._starts[safe], 0)
        return starts, np.where(found, self._ends[safe] - starts, 0)

    def gather_batch(self, codes: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Candidate ids for every code row, flattened CSR-style.

        Returns ``(ids, counts)`` where ``counts[i]`` is the number of ids
        gathered for row ``i`` and ``ids`` is their concatenation (base
        bucket members first, then overlay members, per row).  The whole
        batch is resolved with two ``searchsorted`` calls and pure offset
        arithmetic — no per-row Python work.
        """
        codes = np.ascontiguousarray(np.atleast_2d(codes), dtype=np.int64)
        if codes.shape[1] != self.code_dim:
            raise ValueError(
                f"codes must have {self.code_dim} columns, got {codes.shape[1]}")
        keys = pack_codes(codes)
        base_starts, base_lens = self.bucket_spans(
            self._searchsorted_keys(packed_keys(self._bucket_codes), keys))
        if self._n_extra == 0:
            return (self._gather_segments(self._sorted_ids, base_starts,
                                          base_lens), base_lens)
        ex_keys, ex_ids, ex_starts_all, ex_ends_all = self._overlay_csr()
        eidx = self._searchsorted_keys(ex_keys, keys)
        efound = eidx >= 0
        esafe = np.where(efound, eidx, 0)
        extra_starts = np.where(efound, ex_starts_all[esafe], 0)
        extra_lens = np.where(efound,
                              ex_ends_all[esafe] - ex_starts_all[esafe], 0)
        counts = base_lens + extra_lens
        out = np.empty(int(counts.sum()), dtype=np.int64)
        out_starts = np.cumsum(counts) - counts
        self._gather_segments(self._sorted_ids, base_starts, base_lens,
                              out=out, out_starts=out_starts)
        self._gather_segments(ex_ids, extra_starts, extra_lens,
                              out=out, out_starts=out_starts + base_lens)
        return out, counts

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
