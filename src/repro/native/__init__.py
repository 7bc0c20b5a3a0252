"""Compiled kernels for the hot inner loops (DESIGN.md §12).

The staged LSH plan runs hash→probe→gather→dedup→rank through one
kernel table: compiled from ``_kernels.c`` by the system toolchain when
there is one, the numpy spec otherwise — **bit-identical** either way,
enforced by ``tests/test_native.py``.

Layout:

- :mod:`repro.native.ref` — the numeric spec in numpy (summation trees,
  tie-breaks), which is also the table without a compiler;
- :mod:`repro.native.registry` — the single dispatch table + backend
  resolution (invariant R9: kernels are unreachable except through it);
- :mod:`repro.native.kernels_cext` — the backend (never import it
  directly).

This package imports nothing heavyweight at module load: the backend
resolves lazily, at the first fit, load or query.
"""

from __future__ import annotations

from repro.native.registry import (KERNEL_NAMES, load_kernels,
                                   native_backend, native_status)

__all__ = ["KERNEL_NAMES", "load_kernels", "native_backend",
           "native_status"]
