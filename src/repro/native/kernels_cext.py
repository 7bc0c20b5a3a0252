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
``rank_topk``'s tile kernel is built as an ``avx2``/``default``
``target_clones`` pair where the toolchain can; when that compile fails
the same source is built without the clones, so a missing ifunc costs
speed, not the tier.

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

from repro.native.ref import (NO_CELLS, Spans, cell_bits,
                              dedup_candidates_ref, lookup_codes_ref,
                              query_split, union_tables)

_NO_CELLS = ("a layout or hierarchy level without cells: built on the numpy "
             "kernel table, whose search reads none")

if TYPE_CHECKING:  # annotation only: repro.lsh imports repro.native
    from repro.hierarchy.e8_hierarchy import E8Hierarchy
    from repro.lsh.table import TableLayouts

#: ABI tag — must match repro_kernels_abi() in _kernels.c; bump both when
#: an exported signature changes so a library from another revision is
#: refused.
KERNELS_ABI = 10

_SOURCE_PATH = os.path.join(os.path.dirname(__file__), "_kernels.c")

#: Strict-FP build flags (see the module docstring); part of the cache key.
_CFLAGS = ["-O3", "-ffp-contract=off", "-fPIC", "-shared",
           "-fvisibility=hidden", "-pthread"]
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

    # No query path calls these two: no compiled twin, the numpy spec
    # under the names benchmarks/e2e wraps.
    lookup_codes = staticmethod(lookup_codes_ref)
    dedup_candidates = staticmethod(dedup_candidates_ref)

    def __init__(self, lib: ctypes.CDLL, flags: List[str],
                 threads: int = 1) -> None:
        self._lib = lib
        #: Compiler flags the loaded library was built with.
        self.flags = tuple(flags)
        #: P: the threads of the kernels that run on the work queue.
        self.threads = threads
        lib.repro_kernels_abi.restype = ctypes.c_int64
        abi = int(lib.repro_kernels_abi())
        if abi != KERNELS_ABI:
            raise RuntimeError(
                f"kernel ABI mismatch: library reports {abi}, "
                f"loader expects {KERNELS_ABI}")
        i64, ptr = ctypes.c_int64, ctypes.c_void_p
        lib.repro_bucket_spans.restype = i64
        lib.repro_bucket_spans.argtypes = [ptr, ptr, ptr, i64, ptr, i64, i64,
                                           ptr, ptr, i64]
        lib.repro_rank_topk.restype = i64
        lib.repro_rank_topk.argtypes = [
            ptr, i64, ptr, ptr, i64, ptr, ptr, i64, i64, i64, ptr, i64, i64,
            ptr, ptr, ptr, i64]
        lib.repro_zm_probe_codes.restype = i64
        lib.repro_zm_probe_codes.argtypes = [ptr, ptr, i64, i64, i64, ptr, ptr,
                                             i64]
        lib.repro_bucket_index.restype = i64
        lib.repro_bucket_index.argtypes = [ptr, i64, ptr, ptr]
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

    def bucket_spans(self, layouts: "TableLayouts", codes: np.ndarray,
                     row_q: np.ndarray, table_rows: np.ndarray,
                     n_segments: int) -> Spans:
        # The C side takes the lookup rows stacked table by table, the
        # (rows, layouts) words per table and the pointer table of every
        # layout — built and checked once per published snapshot
        # (``TableLayouts``), which keeps the arrays it names alive.
        if not layouts.indexed:
            raise ValueError(_NO_CELLS)
        codes = np.ascontiguousarray(codes, dtype=np.int64)
        row_q = np.ascontiguousarray(row_q, dtype=np.int64)
        tables = union_tables(layouts, codes, row_q, table_rows)
        n_tables = tables.shape[0]
        words = np.empty((int(tables[:, 0] @ tables[:, 1]), 4),
                         dtype=np.int64)
        misses = np.empty(n_tables, dtype=np.int64)
        n_spans = int(self._lib.repro_bucket_spans(
            _address(codes), _address(row_q), _address(tables), n_tables,
            _address(layouts.pointers), codes.shape[1], int(n_segments),
            _address(words), _address(misses), self.threads))
        if n_spans == -1:
            raise MemoryError("bucket_spans scratch allocation failed")
        if n_spans < 0:
            raise IndexError(
                f"bucket_spans: lookup row of a segment outside "
                f"[0, {n_segments})" if n_spans == -2 else
                "bucket_spans: bucket interval outside its sorted_ids")
        return Spans(layouts.ids, layouts.bases, words, int(n_segments),
                     misses)

    def rank_topk(self, data: Optional[np.ndarray],
                  sq_norms: Optional[np.ndarray],
                  queries: Optional[np.ndarray], spans: Spans, n_rows: int,
                  deleted: Optional[np.ndarray], k: int,
                  ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        nq, k, n_rows = query_split(spans, queries), int(k), int(n_rows)
        # Counting (k = 0) reads neither rows nor queries.
        data, sq_norms, queries = (
            None if a is None or not k else
            np.ascontiguousarray(a, dtype=np.float64)
            for a in (data, sq_norms, queries))
        if k and n_rows > min(a.shape[0] for a in (data, sq_norms)
                              if a is not None):
            raise ValueError(f"rank_topk: {n_rows} rows asked of fewer")
        if deleted is not None:  # a bool mask is the same bytes
            deleted = np.ascontiguousarray(deleted.view(np.uint8)
                                           if deleted.dtype == np.bool_
                                           else deleted, dtype=np.uint8)
        words = np.ascontiguousarray(spans.words, dtype=np.int64)
        counts = np.empty(nq, dtype=np.int64)
        sel = np.empty((nq, k), dtype=np.int64)
        dists = np.empty((nq, k), dtype=np.float64)
        at = [None if a is None else _address(a)
              for a in (data, sq_norms, queries, deleted)]
        rc = self._lib.repro_rank_topk(
            at[0], 0 if data is None else data.shape[1], at[1], at[2], nq,
            _address(spans.bases), _address(words), words.shape[0],
            spans.n_segments // nq if nq else 1, n_rows, at[3],
            0 if deleted is None else deleted.shape[0], k, _address(sel),
            _address(dists), _address(counts), self.threads)
        if rc == -1:
            raise MemoryError("rank_topk scratch allocation failed")
        if rc < 0:
            raise IndexError(f"rank_topk: id outside [0, {n_rows})")
        return sel, dists, counts

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
            _address(out), _address(counts), self.threads))
        if total < 0:
            raise MemoryError("zm_probe_codes scratch allocation failed")
        return out[:total], counts

    def bucket_index(self, arrays: Sequence[np.ndarray]) -> List[np.ndarray]:
        # One pass over every (n, M) array, its cells packed in one buffer.
        arrays = [np.ascontiguousarray(a, dtype=np.int64) for a in arrays]
        words = np.array([(_address(a), a.shape[0], a.shape[1])
                          for a in arrays], dtype=np.int64).reshape(-1, 3)
        cells = np.empty(sum(1 << cell_bits(a.shape[0]) for a in arrays),
                         dtype=np.int32)
        at = np.empty(len(arrays) + 1, dtype=np.int64)
        self._lib.repro_bucket_index(_address(words), len(arrays),
                                     _address(cells), _address(at))
        bounds = at.tolist()
        return [cells[a:b] for a, b in zip(bounds, bounds[1:])]

    def hierarchy_walk(self, hierarchies: Sequence["E8Hierarchy"],
                       codes: np.ndarray, min_count: int,
                       ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        codes = np.ascontiguousarray(codes, dtype=np.int64)
        n_tables, n, dim = codes.shape
        if len(hierarchies) != n_tables:
            raise ValueError(f"hierarchy_walk: {len(hierarchies)} "
                             f"hierarchies for {n_tables} tables of codes")
        if any(h.level_cells[0] is NO_CELLS for h in hierarchies):
            raise ValueError(_NO_CELLS)
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


def load(threads: int = 1) -> CExtKernels:
    """Compile (if needed) and bind the C kernel backend, run on
    ``threads`` threads."""
    so_path, flags = _compile(_SOURCE_PATH)
    return CExtKernels(ctypes.CDLL(so_path), flags, threads)
