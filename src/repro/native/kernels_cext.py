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
several microseconds per array per call.

Nothing outside :mod:`repro.native` may import this module (invariant
R9): kernels are reachable only through ``registry.load_kernels()``.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import subprocess
import tempfile
from typing import TYPE_CHECKING, List, Optional, Tuple

import numpy as np

from repro.native.ref import union_tables

if TYPE_CHECKING:  # annotation only: repro.lsh imports repro.native
    from repro.lsh.table import TableLayouts

#: ABI tag — must match repro_kernels_abi() in _kernels.c; bump both when
#: an exported signature changes so a library from another revision is
#: refused.
KERNELS_ABI = 4

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
            ptr, i64, ptr, i64, i64, ptr, i64, ptr, ptr, ptr]
        lib.repro_rank_topk.restype = ctypes.c_int
        lib.repro_rank_topk.argtypes = [
            ptr, i64, ptr, ptr, i64, ptr, ptr, ptr, i64, ptr, ptr]
        lib.repro_zm_probe_codes.restype = i64
        lib.repro_zm_probe_codes.argtypes = [ptr, ptr, i64, i64, i64, ptr, ptr]
        lib.repro_dm_decode.restype = None
        lib.repro_dm_decode.argtypes = [ptr, i64, i64, ptr]
        lib.repro_e8_decode.restype = None
        lib.repro_e8_decode.argtypes = [ptr, i64, i64, ptr]

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
            bucket_codes.ctypes.data, bucket_codes.shape[0], codes.shape[1],
            codes.ctypes.data, r, bidx.ctypes.data)
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
            local_ids.ctypes.data, qidx.ctypes.data, n, int(nq), del_ptr,
            del_len, out_ids.ctypes.data, out_qidx.ctypes.data,
            counts.ctypes.data))
        if total < 0:
            raise MemoryError("dedup_candidates scratch allocation failed")
        return out_ids[:total], out_qidx[:total], counts

    def bucket_union(self, layouts: "TableLayouts", codes: np.ndarray,
                     row_q: np.ndarray, table_rows: np.ndarray, nq: int,
                     n_rows: int, deleted: Optional[np.ndarray] = None,
                     ) -> Tuple[np.ndarray, np.ndarray, np.ndarray,
                                np.ndarray]:
        nq, n_rows = int(nq), int(n_rows)
        # The C side takes the lookup rows stacked table by table, the
        # (rows, layouts) words per table and the pointer table of every
        # layout — built and checked once per published snapshot
        # (``TableLayouts``), which keeps the arrays it names alive.
        codes = np.ascontiguousarray(codes, dtype=np.int64)
        row_q = np.ascontiguousarray(row_q, dtype=np.int64)
        tables = union_tables(layouts, codes, row_q, table_rows)
        n_tables = tables.shape[0]
        # Small outputs share one buffer and one address: raw ids per
        # query, misses per table, kept ids per query.
        small = np.empty(2 * nq + n_tables, dtype=np.int64)
        small_at = _address(small)
        spans = np.empty((int(tables[:, 0] @ tables[:, 1]), 3),
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
        # A query cannot keep more ids than its intervals hold, nor more
        # than there are rows: the output bound the kernel writes within.
        bound = int(np.minimum(raw, n_rows).sum())
        out = np.empty((2, bound), dtype=np.int64)
        out_at = _address(out)
        deleted, del_ptr, del_len = self._tombstones(deleted)
        total = int(self._lib.repro_bucket_union(
            spans_at, n_spans, small_at, nq, n_rows, del_ptr,
            del_len, out_at, out_at + 8 * bound,
            small_at + 8 * (nq + n_tables)))
        if total == -2:
            raise IndexError(f"bucket_union: bucket id outside [0, {n_rows})")
        if total < 0:
            raise MemoryError("bucket_union scratch allocation failed")
        return (out[0, :total], out[1, :total], small[nq + n_tables:],
                small[nq:nq + n_tables])

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
            norms_ptr = sq_norms.ctypes.data
        rc = self._lib.repro_rank_topk(
            data.ctypes.data, data.shape[1], norms_ptr, queries.ctypes.data,
            nq, q_sq.ctypes.data, cand.ctypes.data, counts.ctypes.data,
            int(k), sel.ctypes.data, dists.ctypes.data)
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
            y.ctypes.data, codes.ctypes.data, q, m, n_probes,
            out.ctypes.data, counts.ctypes.data))
        if total < 0:
            raise MemoryError("zm_probe_codes scratch allocation failed")
        return out[:total], counts

    def dm_decode(self, y: np.ndarray) -> np.ndarray:
        y = np.ascontiguousarray(y, dtype=np.float64)
        codes = np.empty(y.shape, dtype=np.int64)
        self._lib.repro_dm_decode(y.ctypes.data, y.shape[0], y.shape[1],
                                  codes.ctypes.data)
        return codes

    def e8_decode(self, y: np.ndarray) -> np.ndarray:
        y = np.ascontiguousarray(y, dtype=np.float64)
        n, padded = y.shape
        if padded % 8:
            raise ValueError(f"e8_decode needs a multiple-of-8 width, "
                             f"got {padded}")
        codes = np.empty((n, padded), dtype=np.int64)
        self._lib.repro_e8_decode(y.ctypes.data, n, padded // 8,
                                  codes.ctypes.data)
        return codes


def load() -> CExtKernels:
    """Compile (if needed) and bind the C kernel backend."""
    so_path, flags = _compile(_SOURCE_PATH)
    return CExtKernels(ctypes.CDLL(so_path), flags)
