"""Optional compiled-kernel tier for the hot inner loops (DESIGN.md §12).

``engine="native"`` runs the hash→probe→gather→rank pipeline through
kernels compiled from ``_kernels.c`` by the system toolchain, with
**bit-identical** results to the vectorized reference engine, enforced
by ``tests/test_native.py``.

Layout:

- :mod:`repro.native.ref` — the numpy numeric spec (summation trees,
  tie-breaks) both the vectorized engine and the backend follow;
- :mod:`repro.native.registry` — the single dispatch table + backend
  resolution (invariant R9: kernels are unreachable except through it);
- :mod:`repro.native.kernels_cext` — the backend (never import it
  directly).

This package imports nothing heavyweight at module load: the backend
resolves lazily on the first ``engine="native"`` query.
"""

from __future__ import annotations

from repro.native.registry import (KERNEL_NAMES, REGISTERED_ENGINES,
                                   load_kernels, native_backend,
                                   native_status)

__all__ = ["KERNEL_NAMES", "REGISTERED_ENGINES", "load_kernels",
           "native_backend", "native_status"]
