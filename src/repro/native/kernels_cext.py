"""The compiled backend: build ``_kernels.c`` on demand, bind via ctypes.

The shared object is compiled once per (source, flags, compiler) into a
cache directory, loaded with :mod:`ctypes`, and wrapped in numpy-facing
functions with the exact signatures the dispatch table in
:mod:`repro.native.registry` expects.

The flag contract is ``-O3 -ffp-contract=off`` and never
``-ffast-math``: the optimiser may vectorise the halving-tree sums that
make the kernels bit-identical to :mod:`repro.native.ref`, but it may
neither re-associate them nor contract a product and the tree's first
add into one FMA (which rounds once where the reference rounds twice).
``repro_rank_topk`` is built as an ``avx2``/``default`` ``target_clones``
pair where the toolchain can; when that compile fails the same source is
built without the clones, so a missing ifunc costs speed, not the tier.

Arguments cross as raw addresses (``c_void_p``): every wrapper first
brings its arrays to the C-contiguous dtype the kernel reads — a no-op
for the arrays the engine passes — so the per-argument ``ndpointer``
check would only re-verify what the line above it established, at
several microseconds per array per call.  Every address is read through
:func:`_address`.

Nothing outside :mod:`repro.native` may import this module (invariant
R9): kernels are reachable only through ``registry.load_kernels()``.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import subprocess
import tempfile
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

import numpy as np

from repro.native.ref import span_table, union_tables

if TYPE_CHECKING:  # annotation only: repro.lsh imports repro.native
    from repro.hierarchy.e8_hierarchy import E8Hierarchy
    from repro.lsh.table import TableLayouts
    from repro.native.ref import SpanSet

#: ABI tag — must match repro_kernels_abi() in _kernels.c; bump both when
#: an exported signature changes so a library from another revision is
#: refused.
KERNELS_ABI = 7

_SOURCE_PATH = os.path.join(os.path.dirname(__file__), "_kernels.c")

#: Strict-FP build flags (see the module docstring); part of the cache key.
_CFLAGS = ["-O3", "-ffp-contract=off", "-fPIC", "-shared",
           "-fvisibility=hidden"]
#: Tried first; turns on the target_clones pair in _kernels.c.
_SIMD_FLAG = "-DREPRO_SIMD_CLONES"


def _cache_dir() -> str:
    root = os.environ.get("REPRO_NATIVE_CACHE")
    if not root:
        root = os.path.join(tempfile.gettempdir(),
                            f"repro-native-{os.getuid()}")
    os.makedirs(root, exist_ok=True)
    return root


def _find_compiler() -> Optional[str]:
    override = os.environ.get("REPRO_NATIVE_CC")
    candidates = [override] if override else ["cc", "gcc", "clang"]
    for name in candidates:
        if name is None:
            continue
        for path in os.environ.get("PATH", "").split(os.pathsep):
            full = os.path.join(path, name)
            if os.path.isfile(full) and os.access(full, os.X_OK):
                return full
    return None


def _compile(source_path: str) -> Tuple[str, List[str]]:
    """Build the kernel source into the cache dir.

    Returns ``(so_path, flags)``.  The cache key covers everything that
    decides the object code — source bytes, flag list, ``cc --version`` —
    so a flag or toolchain change can never reuse a stale library.
    """
    cc = _find_compiler()
    if cc is None:
        raise RuntimeError("no C compiler found (set REPRO_NATIVE_CC)")
    with open(source_path, "rb") as fh:
        source = fh.read()
    version = subprocess.run([cc, "--version"], capture_output=True,
                             timeout=30).stdout
    cache_dir = _cache_dir()
    errors = []
    for flags in (_CFLAGS + [_SIMD_FLAG], _CFLAGS):
        key = hashlib.sha256(b"\0".join(
            [source, " ".join(flags).encode(), version])).hexdigest()[:16]
        so_path = os.path.join(cache_dir, f"repro_kernels_{key}.so")
        if os.path.exists(so_path):
            return so_path, flags
        tmp_path = so_path + f".tmp{os.getpid()}"
        cmd = [cc, *flags, source_path, "-o", tmp_path, "-lm"]
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=120)
        if proc.returncode == 0:
            os.replace(tmp_path, so_path)  # atomic for concurrent builders
            return so_path, flags
        errors.append(f"{' '.join(cmd)}: {proc.stderr}")
    raise RuntimeError("kernel compilation failed (" + "; ".join(errors) + ")")


def _address(arr: np.ndarray) -> int:
    """Where a C-contiguous array's data starts.  Through a writable
    buffer this is a fifth of the cost of ``arr.ctypes.data``, which
    builds a helper object per call; read-only and empty arrays take
    that road."""
    try:
        return ctypes.addressof(ctypes.c_char.from_buffer(arr))
    except (TypeError, ValueError):
        return arr.ctypes.data


class CExtKernels:
    """ctypes bindings over the compiled kernel library."""

    backend = "cext"

    def __init__(self, lib: ctypes.CDLL, flags: List[str]) -> None:
        self._lib = lib
        #: Compiler flags the loaded library was built with.
        self.flags = tuple(flags)
        lib.repro_kernels_abi.restype = ctypes.c_int64
        abi = int(lib.repro_kernels_abi())
        if abi != KERNELS_ABI:
            raise RuntimeError(
                f"kernel ABI mismatch: library reports {abi}, "
                f"loader expects {KERNELS_ABI}")
        i64, ptr = ctypes.c_int64, ctypes.c_void_p
        lib.repro_lookup_codes.restype = None
        lib.repro_lookup_codes.argtypes = [ptr, i64, i64, ptr, i64, ptr]
        lib.repro_dedup_candidates.restype = i64
        lib.repro_dedup_candidates.argtypes = [
            ptr, ptr, i64, i64, ptr, i64, ptr, ptr, ptr]
        lib.repro_bucket_spans.restype = i64
        lib.repro_bucket_spans.argtypes = [ptr, ptr, ptr, i64, ptr, i64, i64,
                                           ptr, ptr, ptr]
        lib.repro_bucket_union.restype = i64
        lib.repro_bucket_union.argtypes = [
            ptr, i64, ptr, i64, i64, ptr, i64, ptr, ptr]
        lib.repro_rank_topk.restype = ctypes.c_int
        lib.repro_rank_topk.argtypes = [
            ptr, i64, ptr, ptr, i64, ptr, ptr, ptr, i64, ptr, ptr]
        lib.repro_zm_probe_codes.restype = i64
        lib.repro_zm_probe_codes.argtypes = [ptr, ptr, i64, i64, i64, ptr, ptr]
        lib.repro_e8_decode.restype = None
        lib.repro_e8_decode.argtypes = [ptr, i64, i64, ptr]
        lib.repro_hierarchy_walk.restype = i64
        lib.repro_hierarchy_walk.argtypes = [ptr, i64, ptr, i64, i64, i64,
                                             ptr, ptr, ptr]

    # -- kernel wrappers ---------------------------------------------------
    # Each wrapper owns the pointer contract the C side relies on: inputs
    # pass through np.ascontiguousarray (which returns the array itself
    # when it already conforms), outputs are allocated here, and every
    # array stays referenced by a local until the call returns.

    def lookup_codes(self, bucket_codes: np.ndarray,
                     codes: np.ndarray) -> np.ndarray:
        bucket_codes = np.ascontiguousarray(bucket_codes, dtype=np.int64)
        codes = np.ascontiguousarray(codes, dtype=np.int64)
        r = codes.shape[0]
        bidx = np.empty(r, dtype=np.int64)
        self._lib.repro_lookup_codes(
            _address(bucket_codes), bucket_codes.shape[0], codes.shape[1],
            _address(codes), r, _address(bidx))
        return bidx

    @staticmethod
    def _tombstones(deleted: Optional[np.ndarray],
                    ) -> Tuple[Optional[np.ndarray], Optional[int], int]:
        """``(array kept alive, address, length)`` of a tombstone mask."""
        if deleted is None:
            return None, None, 0
        if deleted.dtype == np.bool_:  # same bytes, no copy
            deleted = deleted.view(np.uint8)
        deleted = np.ascontiguousarray(deleted, dtype=np.uint8)
        return deleted, _address(deleted), deleted.shape[0]

    def dedup_candidates(self, local_ids: np.ndarray, qidx: np.ndarray,
                         nq: int, deleted: Optional[np.ndarray] = None,
                         ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        local_ids = np.ascontiguousarray(local_ids, dtype=np.int64)
        qidx = np.ascontiguousarray(qidx, dtype=np.int64)
        n = local_ids.shape[0]
        out_ids = np.empty(n, dtype=np.int64)
        out_qidx = np.empty(n, dtype=np.int64)
        counts = np.empty(nq, dtype=np.int64)
        deleted, del_ptr, del_len = self._tombstones(deleted)
        total = int(self._lib.repro_dedup_candidates(
            _address(local_ids), _address(qidx), n, int(nq), del_ptr,
            del_len, _address(out_ids), _address(out_qidx),
            _address(counts)))
        if total < 0:
            raise MemoryError("dedup_candidates scratch allocation failed")
        return out_ids[:total], out_qidx[:total], counts

    def bucket_union(self, layouts: "TableLayouts", codes: np.ndarray,
                     row_q: np.ndarray, table_rows: np.ndarray, nq: int,
                     n_rows: int, deleted: Optional[np.ndarray] = None,
                     extra: "Sequence[SpanSet]" = (),
                     ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        nq, n_rows = int(nq), int(n_rows)
        # The C side takes the lookup rows stacked table by table, the
        # (rows, layouts) words per table and the pointer table of every
        # layout — built and checked once per published snapshot
        # (``TableLayouts``), which keeps the arrays it names alive.
        codes = np.ascontiguousarray(codes, dtype=np.int64)
        row_q = np.ascontiguousarray(row_q, dtype=np.int64)
        tables = union_tables(layouts, codes, row_q, table_rows)
        n_tables = tables.shape[0]
        # ``extra``'s spans become the words repro_bucket_spans writes,
        # after the ones it found; ``arrays`` keeps what they name alive.
        arrays, added = span_table(extra, nq)
        n_extra = added.shape[0]
        # Small outputs share one buffer and one address: raw ids per
        # query, misses per table, kept ids per query.
        small = np.empty(2 * nq + n_tables, dtype=np.int64)
        small_at = _address(small)
        spans = np.empty((int(tables[:, 0] @ tables[:, 1]) + n_extra, 3),
                         dtype=np.int64)
        spans_at = _address(spans)
        n_spans = int(self._lib.repro_bucket_spans(
            _address(codes), _address(row_q), _address(tables), n_tables,
            _address(layouts.pointers), codes.shape[1], nq, spans_at,
            small_at, small_at + 8 * nq))
        if n_spans < 0:
            raise IndexError(
                f"bucket_union: lookup row of a query outside [0, {nq})"
                if n_spans == -2 else
                "bucket_union: bucket interval outside its sorted_ids")
        raw = small[:nq]
        if n_extra:
            words = spans[n_spans:n_spans + n_extra]
            words[:, 0] = np.array([_address(a) for a in arrays],
                                   dtype=np.int64)[added[:, 0]]
            words[:, 0] += 8 * added[:, 1]
            words[:, 1:] = added[:, 2:]
            raw += np.bincount(added[:, 3], added[:, 2], nq).astype(np.int64)
            n_spans += n_extra
        # A query cannot keep more ids than its intervals hold, nor more
        # than there are rows: the output bound the kernel writes within.
        out = np.empty(int(np.minimum(raw, n_rows).sum()), dtype=np.int64)
        deleted, del_ptr, del_len = self._tombstones(deleted)
        total = int(self._lib.repro_bucket_union(
            spans_at, n_spans, small_at, nq, n_rows, del_ptr,
            del_len, _address(out), small_at + 8 * (nq + n_tables)))
        if total == -2:
            raise IndexError(f"bucket_union: bucket id outside [0, {n_rows})")
        if total < 0:
            raise MemoryError("bucket_union scratch allocation failed")
        return out[:total], small[nq + n_tables:], small[nq:nq + n_tables]

    def rank_topk(self, data: np.ndarray, sq_norms: Optional[np.ndarray],
                  queries: np.ndarray, q_sq: np.ndarray, cand: np.ndarray,
                  counts: np.ndarray, k: int,
                  ) -> Tuple[np.ndarray, np.ndarray]:
        data = np.ascontiguousarray(data, dtype=np.float64)
        queries = np.ascontiguousarray(queries, dtype=np.float64)
        q_sq = np.ascontiguousarray(q_sq, dtype=np.float64)
        cand = np.ascontiguousarray(cand, dtype=np.int64)
        counts = np.ascontiguousarray(counts, dtype=np.int64)
        nq = counts.shape[0]
        sel = np.empty((nq, int(k)), dtype=np.int64)
        dists = np.empty((nq, int(k)), dtype=np.float64)
        norms_ptr = None
        if sq_norms is not None:
            sq_norms = np.ascontiguousarray(sq_norms, dtype=np.float64)
            norms_ptr = _address(sq_norms)
        rc = self._lib.repro_rank_topk(
            _address(data), data.shape[1], norms_ptr, _address(queries),
            nq, _address(q_sq), _address(cand), _address(counts),
            int(k), _address(sel), _address(dists))
        if rc != 0:
            raise MemoryError("rank_topk scratch allocation failed")
        return sel, dists

    def zm_probe_codes(self, y: np.ndarray, codes: np.ndarray,
                       n_probes: int) -> Tuple[np.ndarray, np.ndarray]:
        y = np.ascontiguousarray(y, dtype=np.float64)
        codes = np.ascontiguousarray(codes, dtype=np.int64)
        if y.shape != codes.shape or codes.ndim != 2:
            raise ValueError(f"zm_probe_codes needs matching (q, M) blocks, "
                             f"got {y.shape} and {codes.shape}")
        q, m = codes.shape
        n_probes = max(int(n_probes), 0)
        out = np.empty((q * n_probes, m), dtype=np.int64)
        counts = np.empty(q, dtype=np.int64)
        total = int(self._lib.repro_zm_probe_codes(
            _address(y), _address(codes), q, m, n_probes,
            _address(out), _address(counts)))
        if total < 0:
            raise MemoryError("zm_probe_codes scratch allocation failed")
        return out[:total], counts

    def hierarchy_walk(self, hierarchies: Sequence["E8Hierarchy"],
                       codes: np.ndarray, min_count: int,
                       ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        codes = np.ascontiguousarray(codes, dtype=np.int64)
        n_tables, n, dim = codes.shape
        if len(hierarchies) != n_tables:
            raise ValueError(f"hierarchy_walk: {len(hierarchies)} "
                             f"hierarchies for {n_tables} tables of codes")
        # The level tables are built with their hierarchies, never here.
        tables = np.array([_address(h.words) for h in hierarchies],
                          dtype=np.int64)
        out = np.empty((3, n_tables, n), dtype=np.int64)
        out_at, step = _address(out), 8 * n_tables * n
        rc = int(self._lib.repro_hierarchy_walk(
            _address(tables), n_tables, _address(codes), n, dim,
            int(min_count), out_at, out_at + step, out_at + 2 * step))
        if rc == -1:
            raise MemoryError("hierarchy_walk scratch allocation failed")
        if rc == -2:
            raise ValueError(f"hierarchy_walk: a level table is not over "
                             f"{dim}-wide E8 codes")
        if rc < 0:
            raise IndexError("hierarchy_walk: node outside its id array")
        return out[0], out[1], out[2]

    def e8_decode(self, y: np.ndarray) -> np.ndarray:
        y = np.ascontiguousarray(y, dtype=np.float64)
        n, padded = y.shape
        if padded % 8:
            raise ValueError(f"e8_decode needs a multiple-of-8 width, "
                             f"got {padded}")
        codes = np.empty((n, padded), dtype=np.int64)
        self._lib.repro_e8_decode(_address(y), n, padded // 8,
                                  _address(codes))
        return codes


def load() -> CExtKernels:
    """Compile (if needed) and bind the C kernel backend."""
    so_path, flags = _compile(_SOURCE_PATH)
    return CExtKernels(ctypes.CDLL(so_path), flags)
