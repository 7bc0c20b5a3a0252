"""Bucketed LSH hash table.

Maps discrete lattice codes (optionally prefixed by an RP-tree group index —
the Bi-level code ``H~(v) = (RPtree(v), H(v))``) to buckets of point ids.
Unlike an ordinary hash table, an LSH table *wants* collisions: all points
whose code matches share a bucket and become short-list candidates for any
query landing in that bucket (Section IV-B.1 of the paper).

Internally buckets are stored CSR-style (one sorted id array plus per-bucket
start/end offsets — a :class:`SortedLayout`), mirroring the paper's GPU
layout of "a linear array along with an indexing table"; points inserted
after the build live in a second layout of the same shape.  The plan's
``bucket_spans`` kernel searches both, every table's at once (one
:class:`TableLayouts`), each through its hashed bucket index: one hash
probe a lookup.  Buckets lie in the Morton order of their codes
(:func:`morton_keys`), so a ``Z^M`` table is its own hierarchy, and the
numpy lookups search the keys with one :func:`numpy.searchsorted` a
batch (:meth:`gather_batch`).
"""

from __future__ import annotations

import functools
import threading
import weakref
from contextlib import ExitStack
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro import obs
from repro.native.ref import NO_CELLS, lookup_codes_ref
from repro.native.registry import resolved_kernels


@functools.lru_cache(maxsize=64)
def _spread_table(m: int, bits: int) -> np.ndarray:
    """``(M, ceil(bits / 8), 256, W)`` uint64: at ``[j, k, x]`` the key
    words (most significant first) that value ``x`` of byte ``k`` of
    coordinate ``j`` puts into a :func:`morton_keys` key."""
    n_bytes, words = -(-bits // 8), max(1, -(-m * bits // 64))
    bit = np.arange(8 * n_bytes, dtype=np.int64)
    # Where bit ``b`` of coordinate ``j`` lands, from the key's lowest bit.
    pos = (64 * words - m * bits + bit * m + np.arange(
        m - 1, -1, -1, dtype=np.int64)[:, None])[:, None, :, None]
    on = (np.arange(256, dtype=np.int64)[:, None] >> bit % 8) & 1 & (bit < bits)
    table = np.where(pos // 64 == np.arange(words - 1, -1, -1, dtype=np.int64),
                     on[..., None].astype(np.uint64) << (pos % 64).astype(np.uint64), 0)
    table = table.reshape(m, 256, n_bytes, 8, words).sum(axis=3).transpose(0, 2, 1, 3)
    table.flags.writeable = False  # one table serves every caller
    return table


def morton_keys(codes: np.ndarray,
                box: Optional[Tuple[np.ndarray, int]] = None,
                ) -> Tuple[np.ndarray, np.ndarray, int]:
    """``(keys, offset, bits)`` of ``(n, M)`` int64 code rows, the keys in
    the order of the Morton curve (Section IV-B.2a): each row's ``bits``
    low bits of its coordinates less ``offset`` (the coordinate-wise
    minimum; ``bits`` fits the largest), interleaved plane by plane from
    the most significant, coordinate 0 first, left-aligned in ``W =
    ceil(M * bits / 64)`` words — a ``uint64``, or past one word the
    words big-endian as ``S(8 W)`` bytes.  Equal keys are equal rows.
    With ``box = (offset, bits)`` rows are keyed, clamped, in that box."""
    codes = np.ascontiguousarray(np.atleast_2d(codes), dtype=np.int64)
    n, m = codes.shape
    if box is None:
        offset = codes.min(axis=0) if n else np.zeros(m, dtype=np.int64)
        # Exact in uint64: no code is below the offset.
        shifted = codes.view(np.uint64) - offset.view(np.uint64)
        bits = int(shifted.max(initial=0)).bit_length()
    else:
        offset, bits = box
        shifted = np.minimum(
            np.maximum(codes, offset).view(np.uint64) - offset.view(np.uint64),
            np.uint64(2 ** 64 - 1) >> np.uint64(64 - bits))
    table = _spread_table(m, bits)
    low = shifted.astype("<u8", copy=False).view(np.uint8).reshape(n, m, 8)
    words = np.zeros((n, table.shape[3]), dtype=np.uint64)
    for j, k in np.ndindex(*table.shape[:2]):
        words |= table[j, k][low[:, j, k]]
    keys = (words[:, 0] if words.shape[1] == 1 else
            words.astype(">u8").view(f"S{8 * words.shape[1]}").ravel())
    return keys, offset, bits


#: Morton keys of the sorted code arrays searched so far, by ``id`` of
#: the array, dropped when the array dies: tables and hierarchy levels
#: publish their code arrays once and search them on every batch.
_PACKED: Dict[int, Tuple["weakref.ref[np.ndarray]",
                         Tuple[np.ndarray, np.ndarray, int]]] = {}


def packed_keys(sorted_codes: np.ndarray,
                ) -> Tuple[np.ndarray, np.ndarray, int]:
    """:func:`morton_keys` of a published (never rewritten) code array,
    with its ``(offset, bits)``, remembered for as long as the array
    lives."""
    token = id(sorted_codes)
    entry = _PACKED.get(token)
    if entry is not None and entry[0]() is sorted_codes:
        return entry[1]
    keyed = morton_keys(sorted_codes)
    _PACKED[token] = (
        weakref.ref(sorted_codes,
                    lambda _ref, token=token: _PACKED.pop(token, None)),
        keyed)
    return keyed


def sort_runs(codes: np.ndarray, ids: np.ndarray,
              ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``ids`` grouped by their ``(n, M)`` int64 code rows: ``(distinct
    codes in Morton order, starts, ends, sorted ids)``, each code's ids
    the run ``[start, end)`` of the sorted ids.  The sort is stable: ids
    sharing a code keep their order."""
    n = codes.shape[0]
    keys = morton_keys(codes)[0]
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    # Where each run of identical codes starts (none when there are none).
    starts = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1]))[:n])
    ends = np.append(starts[1:], n)[:starts.size]
    return codes[order[starts]], starts, ends, ids[order]


class SortedLayout(NamedTuple):
    """One immutable sorted bucket layout: distinct codes, the run of
    ``sorted_ids`` each owns, and where those arrays live.

    A table publishes one for its base and one for its insert overlay;
    nothing writes to the arrays afterwards.  ``cells`` (the
    ``bucket_index`` of the codes) and ``pointers`` are derived data for
    the compiled ``bucket_spans``, built once here and never per call: the
    int64 words ``(bucket_codes address, n_buckets, starts address, ends
    address, sorted_ids address, n_ids, cells address)``, valid for as
    long as this tuple keeps the arrays referenced.
    """

    bucket_codes: np.ndarray
    starts: np.ndarray
    ends: np.ndarray
    sorted_ids: np.ndarray
    cells: np.ndarray
    pointers: np.ndarray

    @classmethod
    def adopt_all(cls, runs: Sequence[Sequence[np.ndarray]],
                  ) -> List["SortedLayout"]:
        """A layout over each ``(bucket_codes, starts, ends, sorted_ids)``
        of ``runs``, by reference, their cells built in one call."""
        for run in runs:
            cls.check(*run)
        cells = resolved_kernels().bucket_index([run[0] for run in runs])
        return [cls(codes, starts, ends, ids, c, np.array(
            [codes.ctypes.data, starts.shape[0], starts.ctypes.data,
             ends.ctypes.data, ids.ctypes.data, ids.shape[0], c.ctypes.data],
            dtype=np.int64))
            for (codes, starts, ends, ids), c in zip(runs, cells)]

    @staticmethod
    def check(bucket_codes: np.ndarray, starts: np.ndarray,
              ends: np.ndarray, sorted_ids: np.ndarray) -> None:
        """:class:`ValueError` unless C-contiguous int64 of one layout's
        shapes: the kernel reads the arrays through raw addresses."""
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

    @classmethod
    def flaw(cls, n_rows: int, bucket_codes: np.ndarray, starts: np.ndarray,
             ends: np.ndarray, sorted_ids: np.ndarray,
             ) -> Optional[Tuple[str, str]]:
        """What :meth:`sort` guarantees and stored layout arrays (as
        :meth:`adopt` takes them, once :meth:`check` passes) break, as
        ``(array, reason)``, or ``None``: non-empty buckets tiling
        ``sorted_ids`` in order, strictly ascending codes, and ids that
        are rows below ``n_rows``.  O(buckets + ids); nothing sorts."""
        cls.check(bucket_codes, starts, ends, sorted_ids)
        last = int(ends[-1]) if ends.shape[0] else 0
        if (starts[:1].any() or last != sorted_ids.shape[0]
                or not np.array_equal(starts[1:], ends[:-1])
                or (ends <= starts).any()):
            return "ends", f"does not tile the {sorted_ids.shape[0]} sorted ids"
        keys = morton_keys(bucket_codes)[0]
        if (keys[1:] <= keys[:-1]).any():
            return "bucket_codes", "is not strictly ascending along the curve"
        if sorted_ids.shape[0] and (sorted_ids.min() < 0
                                    or sorted_ids.max() >= n_rows):
            return "sorted_ids", f"holds ids outside [0, {n_rows})"
        return None

    @classmethod
    def sort(cls, codes: np.ndarray, ids: np.ndarray) -> "SortedLayout":
        """Group ``ids`` by their ``(n, M)`` code rows (:func:`sort_runs`)
        — the "sorted linear array" with its indexing table of Section
        V-A."""
        return cls.adopt_all([sort_runs(codes, ids)])[0]

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


class TableLayouts(NamedTuple):
    """Every table's sorted layouts as one immutable snapshot: what one
    ``bucket_spans`` call searches.

    ``per_table[t]`` is table ``t``'s :meth:`LSHTable.layouts` (the
    base, then a live insert overlay), ``n_layouts[t]`` how many there
    are, and ``pointers`` their :attr:`SortedLayout.pointers` rows
    stacked in table order — the pointer table the compiled kernel
    walks; ``ids`` and ``bases`` are the layouts' ``sorted_ids`` and
    their addresses in that order, what a span's array index names;
    ``indexed`` whether every layout has cells (the numpy table builds
    none).  An index builds one per published table list or overlay
    (:meth:`of` checks the code widths) and swaps it in by reference; the
    tuple keeps every array its words point into alive.
    """

    per_table: Tuple[Tuple[SortedLayout, ...], ...]
    n_layouts: np.ndarray
    pointers: np.ndarray
    code_dim: int
    ids: Tuple[np.ndarray, ...]
    bases: np.ndarray
    indexed: bool

    @classmethod
    def of(cls, per_table: Sequence[Sequence[SortedLayout]],
           code_dim: int) -> "TableLayouts":
        per_table = tuple(tuple(layouts) for layouts in per_table)
        flat = [layout for layouts in per_table for layout in layouts]
        for layout in flat:
            if layout.bucket_codes.shape[1] != code_dim:
                raise ValueError(
                    f"layout of {layout.bucket_codes.shape[1]}-wide codes "
                    f"in a table of {code_dim}-wide codes")
        pointers = np.array([layout.pointers for layout in flat],
                            dtype=np.int64).reshape(-1, 7)
        return cls(per_table,
                   np.array([len(layouts) for layouts in per_table],
                            dtype=np.int64),
                   pointers, int(code_dim),
                   tuple(layout.sorted_ids for layout in flat),
                   np.ascontiguousarray(pointers[:, 4], dtype=np.int64),
                   all(layout.cells is not NO_CELLS for layout in flat))


class LSHTable:
    """One LSH hash table: code -> bucket of point ids.

    Parameters
    ----------
    codes:
        ``(n, M)`` integer array, the full (possibly group-prefixed) code of
        every indexed point.  Row ``i`` is the code of point id ``ids[i]``.
    ids:
        Optional ``(n,)`` integer ids; defaults to ``arange(n)``.
    base:
        Instead, a :class:`SortedLayout` taken as it stands: no sort.
    """

    def __init__(self, codes: Optional[np.ndarray],
                 ids: Optional[np.ndarray] = None,
                 base: Optional[SortedLayout] = None):
        if base is None:
            codes = np.ascontiguousarray(np.atleast_2d(codes), dtype=np.int64)
            n = codes.shape[0]
            if ids is None:
                ids = np.arange(n, dtype=np.int64)
            else:
                ids = np.asarray(ids, dtype=np.int64)
                if ids.shape != (n,):
                    raise ValueError(
                        f"ids must have shape ({n},), got {ids.shape}")
            base = SortedLayout.sort(codes, ids)
        self.code_dim = base.bucket_codes.shape[1]
        self.n_points = base.sorted_ids.shape[0]
        self._base = base
        self._bucket_codes, self._starts, self._ends, self._sorted_ids = \
            base[:4]
        # Post-build insertions: one more sorted layout, rebuilt by every
        # ``add_all`` under the lock and published with a single assignment —
        # readers take the reference once and never see it change.
        self._overlay_lock = threading.Lock()
        self._overlay: Optional[SortedLayout] = None

    def arrays(self) -> Dict[str, np.ndarray]:
        """The sorted layout :meth:`SortedLayout.adopt_all` takes, by name
        (the overlay is not part of it — fold it first)."""
        return {"bucket_codes": self._bucket_codes, "starts": self._starts,
                "ends": self._ends, "sorted_ids": self._sorted_ids}

    def layouts(self) -> Tuple[SortedLayout, ...]:
        """The sorted layouts holding this table's points — the base,
        then the insert overlay while there is one: what the
        ``bucket_spans`` kernel searches.  One consistent snapshot."""
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

    @staticmethod
    def add_all(tables: Sequence["LSHTable"], codes: Sequence[np.ndarray],
                ids: np.ndarray) -> None:
        """Insert ``ids`` after the initial build, under table ``t``'s
        ``codes[t]``: each table's overlay is re-sorted here (never by a
        reader; ids sharing a code keep insertion order), every overlay's
        cells built by one ``bucket_index`` call.  Lookups merge it with
        the base layout; callers that care about the CSR invariants (e.g.
        the hierarchies) rebuild once :attr:`n_extra` grows too large."""
        ids = np.asarray(ids, dtype=np.int64)
        runs = []
        with ExitStack() as held:
            for table, block in zip(tables, codes):
                block = np.ascontiguousarray(np.atleast_2d(block),
                                             dtype=np.int64)
                if block.shape != (ids.shape[0], table.code_dim):
                    raise ValueError(f"codes must be {ids.shape[0]} rows of "
                                     f"{table.code_dim}, got {block.shape}")
                held.enter_context(table._overlay_lock)
                overlay, own = table._overlay, ids
                if overlay is not None:
                    block = np.concatenate([overlay.row_codes(), block])
                    own = np.concatenate([overlay.sorted_ids, ids])
                runs.append(sort_runs(block, own))
            for table, layout in zip(tables, SortedLayout.adopt_all(runs)):
                table.n_points += ids.shape[0]
                table._overlay = layout
        ob = obs.active()
        for _ in tables if ob is not None else ():
            ob.record_overlay_merge()

    def compacted_runs(self, drop: Optional[np.ndarray] = None,
                       ) -> Tuple[np.ndarray, ...]:
        """:func:`sort_runs` of a fresh table with the overlay folded in
        and ``drop`` ids removed.

        Reconstructs every row's code from the sorted layouts (base rows,
        then overlay rows) and masks out ids flagged in the boolean
        ``drop`` array (indexed by id) — no re-projection needed, making
        this safe to run off the owning index's writer lock.  ``self`` is
        untouched.
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
        return sort_runs(codes, ids)

    @property
    def bucket_codes(self) -> np.ndarray:
        """The distinct codes, one row per bucket, in Morton order."""
        return self._bucket_codes

    @property
    def sorted_ids(self) -> np.ndarray:
        """Point ids in bucket-grouped order (the linear array)."""
        return self._sorted_ids

    def bucket_sizes(self) -> np.ndarray:
        """Sizes of all buckets."""
        return (self._ends - self._starts).astype(np.int64)

    # ---------------------------------------------------------------- lookup

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

    def gather_batch(self, codes: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Candidate ids for every code row, flattened CSR-style: one
        ``searchsorted`` per layout and pure offset arithmetic.

        Returns ``(ids, counts)`` where ``counts[i]`` is the number of ids
        gathered for row ``i`` and ``ids`` is their concatenation (base
        bucket members first, then overlay members, per row).
        """
        codes = np.ascontiguousarray(np.atleast_2d(codes), dtype=np.int64)
        if codes.shape[1] != self.code_dim:
            raise ValueError(
                f"codes must have {self.code_dim} columns, got {codes.shape[1]}")
        layouts = self.layouts()
        spans = [lay.spans(lookup_codes_ref(lay.bucket_codes, codes))
                 for lay in layouts]
        counts = np.sum([lens for _, lens in spans], axis=0, dtype=np.int64)
        out = np.empty(int(counts.sum()), dtype=np.int64)
        offsets = np.cumsum(counts) - counts
        for lay, (starts, lens) in zip(layouts, spans):
            LSHTable._gather_segments(lay.sorted_ids, starts, lens, out=out,
                                      out_starts=offsets)
            offsets = offsets + lens
        return out, counts

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"LSHTable(n_points={self.n_points}, n_buckets={self.n_buckets}, "
                f"code_dim={self.code_dim})")
