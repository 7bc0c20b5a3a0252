"""p-stable LSH hash families.

Implements the hash function of Eq. (2) in the paper,

    h_i(v) = floor((a_i . v + b_i) / W),

with ``a_i`` i.i.d. Gaussian (2-stable, so collisions are governed by the
Euclidean distance) and ``b_i ~ U[0, W)``.  The family produces the *real
valued* projections ``(a_i . v + b_i) / W``; the lattice quantizer
(:mod:`repro.lattice`) turns them into discrete codes, so the same family
serves both the ``Z^M`` and the ``E8`` variants.
"""

from __future__ import annotations

from typing import Dict, NamedTuple, Sequence

import numpy as np

from repro.utils.rng import SeedLike, ensure_rng
from repro.utils.validation import check_positive


class HashFamily:
    """Base class for LSH hash families producing real-valued projections."""

    def project(self, data: np.ndarray) -> np.ndarray:
        """Project ``(n, D)`` data to ``(n, M)`` pre-quantization values."""
        raise NotImplementedError

    @property
    def n_hashes(self) -> int:
        raise NotImplementedError


class PStableHashFamily(HashFamily):
    """A bundle of ``M`` 2-stable (Gaussian) hash projections.

    Parameters
    ----------
    dim:
        Dimensionality ``D`` of the input vectors.
    n_hashes:
        Number of 1-D hash functions ``M`` (the code length).
    bucket_width:
        The quantization width ``W``.  Larger ``W`` merges more points per
        bucket (higher recall, higher selectivity).
    seed:
        Seed or generator for drawing ``a_i`` and ``b_i``.

    Notes
    -----
    The offsets ``b_i`` are stored in units of ``W`` so that
    :meth:`with_bucket_width` can retune ``W`` on the same projection
    directions — the paper's per-leaf parameter tuning re-uses directions
    while adjusting only the bucket size.
    """

    def __init__(self, dim: int, n_hashes: int, bucket_width: float,
                 seed: SeedLike = None):
        check_positive(dim, "dim")
        check_positive(n_hashes, "n_hashes")
        check_positive(bucket_width, "bucket_width")
        rng = ensure_rng(seed)
        self.bucket_width = float(bucket_width)
        # (D, M) so projection is a single GEMV/GEMM.
        self.directions = rng.standard_normal((int(dim), int(n_hashes)))
        self.offsets_unit = rng.uniform(0.0, 1.0, size=int(n_hashes))

    @classmethod
    def from_arrays(cls, directions: np.ndarray, offsets_unit: np.ndarray,
                    bucket_width: float) -> "PStableHashFamily":
        """A family over existing arrays, adopted by reference.

        The one way a family is made without drawing it: snapshot
        restore (read-only views included) and
        :meth:`with_bucket_width` all come through here.
        """
        family = cls(1, 1, bucket_width, seed=0)
        family.directions = directions
        family.offsets_unit = offsets_unit
        return family

    def arrays(self) -> Dict[str, np.ndarray]:
        """The arrays :meth:`from_arrays` takes, by its keyword names."""
        return {"directions": self.directions,
                "offsets_unit": self.offsets_unit}

    @property
    def dim(self) -> int:
        return self.directions.shape[0]

    @property
    def n_hashes(self) -> int:
        return self.directions.shape[1]

    @property
    def offsets(self) -> np.ndarray:
        """The offsets ``b_i`` in data units (``b_i ~ U[0, W)``)."""
        return self.offsets_unit * self.bucket_width

    def project(self, data: np.ndarray) -> np.ndarray:
        """Compute ``(a_i . v + b_i) / W`` for every row of ``data``.

        Parameters
        ----------
        data:
            Array of shape ``(n, D)`` (or ``(D,)`` for a single vector).

        Returns
        -------
        numpy.ndarray
            Array of shape ``(n, M)`` of pre-quantization values.
        """
        arr = np.atleast_2d(np.asarray(data, dtype=np.float64))
        if arr.shape[1] != self.directions.shape[0]:
            raise ValueError(f"expected input dim {self.dim}, got {arr.shape[1]}")
        return arr @ self.directions / self.bucket_width + self.offsets_unit

    def with_bucket_width(self, bucket_width: float) -> "PStableHashFamily":
        """A copy of this family with a different ``W`` but identical ``a_i``.

        Used by per-group parameter tuning: the Bi-level scheme tunes the
        bucket size per RP-tree leaf while sharing projection directions.
        """
        return self.from_arrays(bucket_width=bucket_width, **self.arrays())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"PStableHashFamily(dim={self.dim}, n_hashes={self.n_hashes}, "
                f"bucket_width={self.bucket_width:g})")


class StackedProjection(NamedTuple):
    """``L`` hash families as one ``(D, L * M)`` projection: every
    table's :meth:`PStableHashFamily.project` from one GEMM.

    Derived data — the families stay the source of truth.  Column block
    ``t`` holds family ``t``'s directions, divided by its own ``W`` and
    offset by its own ``b`` in the order :meth:`~PStableHashFamily.project`
    applies them, so a table's block is that family's projection; BLAS
    may tile an ``M``-column product differently from the same columns
    inside a wider one, which can move the last bit but, short of a
    value within that bit of a cell boundary, never the code.
    """

    directions: np.ndarray
    bucket_widths: np.ndarray
    offsets_unit: np.ndarray
    n_tables: int

    @classmethod
    def of(cls, families: Sequence[PStableHashFamily]) -> "StackedProjection":
        """The stack of ``families``, which share ``D`` and ``M``."""
        return cls(
            np.concatenate([f.directions for f in families], axis=1),
            np.concatenate([np.full(f.n_hashes, f.bucket_width,
                                    dtype=np.float64)
                            for f in families]),
            np.concatenate([f.offsets_unit for f in families]),
            len(families))

    def project(self, data: np.ndarray) -> np.ndarray:
        """``(L, n, M)``: every table's projections of ``data``'s ``n``
        rows, table ``t``'s at ``[t]``, C-contiguous."""
        arr = np.atleast_2d(np.asarray(data, dtype=np.float64))
        flat = arr @ self.directions / self.bucket_widths + self.offsets_unit
        return np.ascontiguousarray(flat.reshape(
            arr.shape[0], self.n_tables, -1).transpose(1, 0, 2),
            dtype=np.float64)
