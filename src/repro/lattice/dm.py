"""The checkerboard lattice ``D_M`` quantizer.

``D_M`` is the set of integer vectors with even coordinate sum — the
construction block of ``E8 = D8 ∪ (D8 + (1/2)^8)`` (Section IV-B.2b of the
paper).  Unlike ``E8`` it exists for *any* dimension ``M >= 2``, with
density strictly between ``Z^M`` and the best known lattices, so it gives
the library a middle point on the cell-roundness axis (used by the lattice
ablation bench): denser cells than ``Z^M`` without being locked to
dimension 8.

The decoder is Conway--Sloane: round every coordinate, and if the sum is
odd re-round the coordinate with the largest rounding error the other way
(the same :func:`~repro.lattice.e8.decode_d8` routine, generalized to any
``M``).  The minimal vectors are the ``2 M (M - 1)`` permutations of
``(±1, ±1, 0^{M-2})``; the hierarchy uses the scaling property
``2 D_M ⊆ D_M`` exactly as ``E8`` does (Eq. (10) with the ``D_M``
decoder).
"""

from __future__ import annotations

from functools import lru_cache

from typing import Iterator, Tuple

import numpy as np

from repro.lattice.base import Lattice
from repro.native.registry import NUMPY_KERNELS


def decode_dm(x: np.ndarray) -> np.ndarray:
    """Decode points to the nearest ``D_M`` lattice point.

    Parameters
    ----------
    x:
        Array of shape ``(n, M)`` with ``M >= 2``.

    Returns
    -------
    numpy.ndarray
        Float array whose rows are integer vectors with even sums.
    """
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    if x.shape[1] < 2:
        raise ValueError(f"D_M needs dimension >= 2, got {x.shape[1]}")
    # Round half up, not ``np.rint``'s banker's rounding: any nearest
    # point is acceptable at ties, but a fixed convention keeps the
    # decoder deterministic across numpy versions.
    f = np.floor(x + 0.5)
    parity = np.mod(f.sum(axis=1), 2.0)
    odd = parity != 0
    if np.any(odd):
        f = f.copy()
        err = x[odd] - f[odd]
        worst = np.argmax(np.abs(err), axis=1)
        rows = np.nonzero(odd)[0]
        # Re-round the worst coordinate the other way; for an exact integer
        # (err == 0) both directions are equidistant, step up by convention.
        step = np.where(err[np.arange(rows.size, dtype=np.int64), worst] >= 0.0, 1.0, -1.0)
        f[rows, worst] += step
    return f


@lru_cache(maxsize=8)
def dm_minimal_vectors(dim: int) -> np.ndarray:
    """The ``2 * dim * (dim - 1)`` minimal vectors of ``D_dim`` (int64)."""
    if dim < 2:
        raise ValueError(f"D_M needs dimension >= 2, got {dim}")
    vecs = []
    for i in range(dim):
        for j in range(i + 1, dim):
            for si in (1, -1):
                for sj in (1, -1):
                    v = np.zeros(dim, dtype=np.int64)
                    v[i] = si
                    v[j] = sj
                    vecs.append(v)
    out = np.array(vecs, dtype=np.int64)
    assert out.shape == (2 * dim * (dim - 1), dim)
    out.setflags(write=False)
    return out


class DMLattice(Lattice):
    """Quantizer onto the checkerboard lattice ``D_M`` (any ``M >= 2``)."""

    def __init__(self, dim: int):
        if dim < 2:
            raise ValueError(f"D_M needs dimension >= 2, got {dim}")
        super().__init__(dim)

    @property
    def code_dim(self) -> int:
        return self.dim

    def _check(self, y: np.ndarray) -> np.ndarray:
        y = np.atleast_2d(np.asarray(y, dtype=np.float64))
        if y.shape[1] != self.dim:
            raise ValueError(f"expected projected dim {self.dim}, got {y.shape[1]}")
        return y

    def quantize(self, y: np.ndarray) -> np.ndarray:
        return decode_dm(self._check(y)).astype(np.int64)

    def quantize_with(self, y: np.ndarray, kernels: object) -> np.ndarray:
        return kernels.dm_decode(self._check(y))

    def probe_codes(self, y: np.ndarray, code: np.ndarray, n_probes: int) -> np.ndarray:
        """Adjacent ``D_M`` cells, ordered by distance to the query."""
        if n_probes <= 0:
            return np.empty((0, self.dim), dtype=np.int64)
        y = np.asarray(y, dtype=np.float64).reshape(self.dim)
        code = np.asarray(code, dtype=np.int64)
        if code.shape != (self.dim,):
            raise ValueError(f"code must have shape ({self.dim},), got {code.shape}")
        candidates = code[None, :] + dm_minimal_vectors(self.dim)
        d = np.sum((y[None, :] - candidates) ** 2, axis=1)
        order = np.argsort(d, kind="stable")[:n_probes]
        return candidates[order]

    def ancestor(self, codes: np.ndarray, k: int) -> np.ndarray:
        """Scaled-lattice ancestors: ``2^k * DECODE(... DECODE(c/2)/2 ...)``."""
        if k < 0:
            raise ValueError(f"ancestor level must be non-negative, got {k}")
        for _, level in self.ancestor_chain(codes, k + 1):
            pass
        return level

    def ancestor_chain(self, codes: np.ndarray, max_k: int,
                       kernels: object = NUMPY_KERNELS,
                       ) -> Iterator[Tuple[int, np.ndarray]]:
        codes = np.atleast_2d(np.asarray(codes, dtype=np.int64))
        if codes.shape[1] != self.dim:
            raise ValueError(f"codes must have {self.dim} columns, got {codes.shape[1]}")
        current = codes.astype(np.float64)
        for k in range(max_k):
            if k > 0:
                current = kernels.dm_decode(current / 2.0).astype(np.float64)
            yield k, np.round(current * float(2 ** k)).astype(np.int64)
