"""The one dispatch table for kernel entry points (invariant R9).

The query path (:mod:`repro.lsh.query`) calls its hot inner loops as
``kernels.<name>`` on whatever :func:`load_kernels` returns — there is
no engine to choose, only the table that loaded:

1. ``cext`` — ``_kernels.c`` compiled on demand via the system C
   compiler, bound with ctypes;
2. ``numpy`` — :class:`NumpyKernels`, the numeric spec itself
   (:mod:`repro.native.ref` plus the lattice decoders), when no
   toolchain is usable: one :class:`RuntimeWarning` and an obs counter on
   the first query, bit-identical answers.

No other module may import the backend module
(:mod:`repro.native.kernels_cext`) directly; rule R9 of the invariant
checker enforces this, which keeps exactly one seam where the backend
can be pinned or disabled.

``REPRO_NATIVE_BACKEND`` is ``auto`` (default; same as ``cext``),
``cext``, or ``none`` (force the numpy table; used by the
no-compiled-tier CI job and the parity tests, which re-pin through
:func:`reset`).

P, the threads of the compiled kernels on Section V's work queue
(DESIGN.md §12), resolves with the table:
the CPUs this process may run on, or ``REPRO_NATIVE_THREADS``.
"""

from __future__ import annotations

import os
import threading
import warnings
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import obs
from repro.native import ref

__all__ = ["KERNEL_NAMES", "NUMPY_KERNELS", "NumpyKernels",
           "check_legacy_engine", "load_kernels", "native_backend",
           "native_status", "reset", "resolved_kernels"]

#: Kernel entry points every table must provide (the table's schema).
#: No query path calls ``lookup_codes`` or ``dedup_candidates`` any more;
#: they stay because ``benchmarks/e2e`` wraps them by name.
KERNEL_NAMES: Tuple[str, ...] = ("lookup_codes", "dedup_candidates",
                                 "rank_topk", "e8_decode", "zm_probe_codes",
                                 "bucket_spans", "hierarchy_walk",
                                 "bucket_index")

_VALID_PINS = ("auto", "cext", "none")


class NumpyKernels:
    """The kernel table with no compiler behind it: the spec, by name.

    The scalar test oracle always decodes and looks up through this
    table (:data:`NUMPY_KERNELS`); a fit decodes through whichever
    table loaded, which the parity tests hold to the same codes.
    """

    backend = "numpy"

    lookup_codes = staticmethod(ref.lookup_codes_ref)
    dedup_candidates = staticmethod(ref.dedup_candidates_ref)
    rank_topk = staticmethod(ref.rank_topk_ref)
    zm_probe_codes = staticmethod(ref.zm_probe_codes_ref)
    bucket_spans = staticmethod(ref.bucket_spans_ref)
    hierarchy_walk = staticmethod(ref.hierarchy_walk_ref)

    @staticmethod
    def bucket_index(arrays: Sequence[np.ndarray]) -> List[np.ndarray]:
        """:data:`ref.NO_CELLS` each (spec: :func:`ref.bucket_index_ref`)."""
        return [ref.NO_CELLS] * len(arrays)

    # The decoder lives with its lattice, which imports ``ref`` for the
    # summation tree — hence the call-time import.

    @staticmethod
    def e8_decode(y: np.ndarray) -> np.ndarray:
        from repro.lattice.e8 import e8_decode

        return e8_decode(y)


NUMPY_KERNELS = NumpyKernels()

_lock = threading.Lock()
_resolved = False
_kernels: object = NUMPY_KERNELS
_setup_seconds: float = 0.0
_threads = 1
_errors: Dict[str, str] = {}
_warned = False


def _resolve_locked() -> None:
    global _resolved, _kernels, _setup_seconds, _threads
    if _resolved:
        return
    pin = os.environ.get("REPRO_NATIVE_BACKEND", "auto").lower()
    if pin not in _VALID_PINS:
        _errors["config"] = (f"invalid REPRO_NATIVE_BACKEND={pin!r}; "
                             f"expected one of {_VALID_PINS}")
        pin = "none"
    threads = os.environ.get("REPRO_NATIVE_THREADS", "").strip()
    _threads = int(threads) if threads.isdigit() else 0
    if not threads:  # unset or empty: every CPU this process may use
        _threads = len(os.sched_getaffinity(0))
    elif _threads < 1:
        _errors["threads"] = (f"invalid REPRO_NATIVE_THREADS={threads!r}; "
                              f"expected a positive integer")
        _threads = 1
    if pin != "none":
        # One-time setup (the cc invocation) is timed here and recorded
        # via obs below, never on the per-query path.
        import time  # invariant: disable=R6 — one-time setup timing

        from repro.native import kernels_cext

        t0 = time.perf_counter()  # invariant: disable=R6 — setup-only timing
        try:
            _kernels = kernels_cext.load(_threads)
        except Exception as error:  # any build/load failure -> numpy table
            _errors["cext"] = f"{type(error).__name__}: {error}"
        else:
            _setup_seconds = time.perf_counter() - t0  # invariant: disable=R6 — setup-only timing
            ob = obs.active()
            if ob is not None:
                ob.record_native_setup("cext", _setup_seconds)
    _resolved = True


def load_kernels() -> object:
    """The resolved kernel table: compiled, else :data:`NUMPY_KERNELS`.

    The first call that resolves to the numpy table emits a single
    :class:`RuntimeWarning` and bumps ``repro_native_fallbacks_total`` —
    a missing compiler costs speed loudly-once, never an answer.
    """
    global _warned
    with _lock:
        _resolve_locked()
        kernels = _kernels
        if kernels is NUMPY_KERNELS and not _warned:
            _warned = True
            reason = "; ".join(f"{k}: {v}" for k, v in _errors.items()) \
                or "disabled (REPRO_NATIVE_BACKEND=none)"
            warnings.warn(
                f"native kernels unavailable ({reason}); "
                f"queries run on the numpy kernel table",
                RuntimeWarning, stacklevel=3)
            ob = obs.active()
            if ob is not None:
                ob.record_native_fallback(
                    "unavailable" if _errors else "disabled")
    return kernels


def resolved_kernels() -> object:
    """:func:`load_kernels`' table without its warning: what a fit, load
    or insert builds with, so a missing compiler still warns once, at
    the first query."""
    with _lock:
        _resolve_locked()
        return _kernels


def check_legacy_engine(engine: Optional[str]) -> None:
    """Name-check an inert ``engine=`` value; it selects nothing.

    There is one engine: the staged plan over whichever table
    :func:`load_kernels` resolved.  The keyword survives only where the
    pinned benchmark spells it (``StandardLSH`` / ``BiLevelLSH``
    ``.query_batch`` and ``.execution_plan``,
    :class:`repro.runtime.RuntimeConfig`, the ``/query`` body,
    ``serve --engine``) and goes with the next benchmark PR.  Until then
    the two names that meant "the fast path" pass; ``'scalar'`` and
    anything unknown are refused rather than silently served by
    something else.
    """
    if engine is None or engine in ("native", "vectorized"):
        return
    raise ValueError(
        f"unknown engine {engine!r}: engine= no longer selects anything "
        f"('native' and 'vectorized' are accepted and ignored); the "
        f"per-query scalar path is the test oracle oracle_query_batch "
        f"(tests/oracle.py), not an engine")


def native_backend() -> Optional[str]:
    """Name of the compiled backend (``'cext'``), ``None`` without one."""
    backend = native_status()["backend"]
    return None if backend == "numpy" else str(backend)


def native_status() -> Dict[str, object]:
    """Diagnostic snapshot: the table serving queries (``backend`` is
    ``'cext'`` or ``'numpy'``), P (``threads``), setup time, resolution
    errors."""
    with _lock:
        _resolve_locked()
        return {"backend": getattr(_kernels, "backend"),
                "threads": _threads,
                "setup_seconds": _setup_seconds,
                "errors": dict(_errors)}


def reset() -> None:
    """Forget the cached resolution (tests re-pin via the env var)."""
    global _resolved, _kernels, _setup_seconds, _threads, _warned
    with _lock:
        _resolved = False
        _kernels = NUMPY_KERNELS
        _setup_seconds = 0.0
        _threads = 1
        _errors.clear()
        _warned = False
