"""The ``E8`` lattice quantizer.

``E8 = D8 U (D8 + (1/2)^8)`` where ``D8`` is the set of integer vectors with
even coordinate sum (Section IV-B.2b of the paper).  ``E8`` is the densest
lattice in dimension 8, so its Voronoi cells are much closer to spheres than
``Z^8`` cells, which makes the items that share a bucket with a query better
k-nearest-neighbor candidates.

Codes are represented in **half-integer units** (real coordinates multiplied
by 2) so they can be stored as exact ``int64`` vectors: a ``D8`` point becomes
an all-even vector, a ``D8 + (1/2)^8`` point an all-odd vector.

For projected dimensions ``M > 8`` the quantizer uses ``ceil(M/8)``
independent E8 blocks (the paper's "combination of ceil(M/8) E8 lattices");
the final block is zero-padded when ``M`` is not a multiple of 8.

The decoder is the classic Conway--Sloane nearest-point algorithm: decode to
the nearest ``D8`` point and to the nearest ``D8 + (1/2)^8`` point, keep the
closer of the two (104 scalar operations in the paper's counting).
"""

from __future__ import annotations

from functools import lru_cache

from typing import Iterator, Tuple

import numpy as np

from repro.lattice.base import Lattice
from repro.lattice.dm import decode_dm
from repro.native.ref import tree_sq_dist
from repro.native.registry import NUMPY_KERNELS

BLOCK = 8


def decode_d8(x: np.ndarray) -> np.ndarray:
    """Decode points to the nearest ``D8`` lattice point.

    Parameters
    ----------
    x:
        Array of shape ``(n, 8)``.

    Returns
    -------
    numpy.ndarray
        Float array of shape ``(n, 8)`` whose rows are integer vectors with
        even coordinate sums.
    """
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    if x.shape[1] != BLOCK:
        raise ValueError(f"decode_d8 expects dim-8 input, got dim {x.shape[1]}")
    return decode_dm(x)


def decode_e8(x: np.ndarray) -> np.ndarray:
    """Decode points to the nearest ``E8`` lattice point (real coordinates).

    Returns a float array of shape ``(n, 8)``: rows are either all-integer
    (``D8``) or all-half-integer (``D8 + (1/2)^8``) vectors.
    """
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    d8 = decode_d8(x)
    half = decode_d8(x - 0.5) + 0.5
    # tree_sq_dist is the explicit halving-tree summation spec shared
    # with the compiled native decoders; the coset choice below must be
    # made on bit-identical distances or the kernel tables could disagree
    # at exact D8-vs-half ties.
    dist_d8 = tree_sq_dist(x, d8)
    dist_half = tree_sq_dist(x, half)
    take_half = dist_half < dist_d8
    out = np.where(take_half[:, None], half, d8)
    return out


def e8_decode(points: np.ndarray) -> np.ndarray:
    """Blockwise nearest-``E8`` codes of an ``(n, 8 * blocks)`` array.

    Codes are ``int64`` in half-integer units.  This is the numpy
    ``e8_decode`` kernel (:class:`repro.native.registry.NumpyKernels`);
    the compiled one returns the same codes bit for bit.
    """
    points = np.atleast_2d(np.asarray(points, dtype=np.float64))
    codes = np.empty(points.shape, dtype=np.int64)
    for b in range(points.shape[1] // BLOCK):
        sl = slice(b * BLOCK, (b + 1) * BLOCK)
        codes[:, sl] = np.round(decode_e8(points[:, sl]) * 2.0)
    return codes


@lru_cache(maxsize=1)
def _minimal_vectors_cached() -> np.ndarray:
    """The 240 minimal vectors of ``E8`` in half-integer units (int64).

    They come in two families (squared norm 2 in real units, i.e. 8 in
    half-integer units):

    - permutations of ``(+-1, +-1, 0^6)`` — in half-units ``(+-2, +-2, 0^6)``:
      ``C(8,2) * 4 = 112`` vectors;
    - ``(+-1/2)^8`` with an even number of minus signs — in half-units
      ``(+-1)^8`` with even minus count: ``2^7 = 128`` vectors.
    """
    vecs = []
    for i in range(BLOCK):
        for j in range(i + 1, BLOCK):
            for si in (2, -2):
                for sj in (2, -2):
                    v = np.zeros(BLOCK, dtype=np.int64)
                    v[i] = si
                    v[j] = sj
                    vecs.append(v)
    for mask in range(1 << BLOCK):
        if bin(mask).count("1") % 2 == 0:
            v = np.ones(BLOCK, dtype=np.int64)
            for bit in range(BLOCK):
                if mask & (1 << bit):
                    v[bit] = -1
            vecs.append(v)
    out = np.array(vecs, dtype=np.int64)
    assert out.shape == (240, BLOCK)
    out.setflags(write=False)
    return out


def e8_minimal_vectors() -> np.ndarray:
    """Return the 240 minimal vectors of ``E8`` in half-integer units."""
    return _minimal_vectors_cached()


class E8Lattice(Lattice):
    """Quantizer onto (blocks of) the ``E8`` lattice.

    Parameters
    ----------
    dim:
        Projected dimension ``M``.  Internally handled as
        ``ceil(M/8)`` blocks of 8; the last block is zero-padded.
    """

    def __init__(self, dim: int):
        super().__init__(dim)
        self.n_blocks = (self.dim + BLOCK - 1) // BLOCK
        self.padded_dim = self.n_blocks * BLOCK

    @property
    def code_dim(self) -> int:
        return self.padded_dim

    def _pad(self, y: np.ndarray) -> np.ndarray:
        y = np.atleast_2d(np.asarray(y, dtype=np.float64))
        if y.shape[1] != self.dim:
            raise ValueError(f"expected projected dim {self.dim}, got {y.shape[1]}")
        if self.padded_dim == self.dim:
            return y
        padded = np.zeros((y.shape[0], self.padded_dim), dtype=np.float64)
        padded[:, : self.dim] = y
        return padded

    def quantize(self, y: np.ndarray) -> np.ndarray:
        return e8_decode(self._pad(y))

    def quantize_with(self, y: np.ndarray, kernels: object) -> np.ndarray:
        return kernels.e8_decode(self._pad(y))

    #: Query rows scored per block of :meth:`probe_codes` (bounds the
    #: ``(rows, blocks, 240, 8)`` candidate temporaries to a few MB).
    PROBE_CHUNK = 256

    def probe_codes(self, y: np.ndarray, code: np.ndarray, n_probes: int) -> np.ndarray:
        """Neighboring ``E8`` cells ordered by distance to the query.

        For each block, candidate codes are ``code_block + m`` for each of
        the 240 minimal vectors ``m``; candidates across blocks are merged
        and sorted (stably) by the squared distance between the query's
        (scaled) projection and the perturbed lattice point.

        ``y``/``code`` are one query, giving ``(<= n_probes, padded_dim)``,
        or a ``(q, M)``/``(q, padded_dim)`` block, giving
        ``(q, <= n_probes, padded_dim)`` with every row the one-query
        result.
        """
        code = np.asarray(code, dtype=np.int64)
        if code.ndim not in (1, 2) or code.shape[-1] != self.padded_dim:
            raise ValueError(
                f"code must have shape ({self.padded_dim},) or "
                f"(q, {self.padded_dim}), got {code.shape}"
            )
        codes = np.atleast_2d(code)
        minimal = e8_minimal_vectors()
        width = min(max(int(n_probes), 0), self.n_blocks * minimal.shape[0])
        out = np.repeat(codes[:, None, :], width, axis=1)
        y2 = self._pad(np.asarray(y, dtype=np.float64)) * 2.0  # half-integer units
        lanes = np.arange(BLOCK, dtype=np.int64)
        for s in range(0, codes.shape[0], self.PROBE_CHUNK):
            rows = slice(s, s + self.PROBE_CHUNK)
            blocks = codes[rows].reshape(-1, self.n_blocks, 1, BLOCK)
            target = y2[rows].reshape(-1, self.n_blocks, 1, BLOCK)
            d = np.sum((target - (blocks + minimal)) ** 2, axis=3)
            order = np.argsort(d.reshape(blocks.shape[0], -1), axis=1,
                               kind="stable")[:, :width]
            b, m_idx = np.divmod(order, minimal.shape[0])
            cols = (b * BLOCK)[:, :, None] + lanes
            moved = np.take_along_axis(out[rows], cols, axis=2) + minimal[m_idx]
            np.put_along_axis(out[rows], cols, moved, axis=2)
        return out if code.ndim == 2 else out[0]

    def ancestor(self, codes: np.ndarray, k: int) -> np.ndarray:
        """Eq. (10): ``H^k = 2^k * DECODE(1/2 * DECODE(1/2 * ... c))``.

        The inner iteration is ``d_{i+1} = DECODE(d_i / 2)`` (each step
        halves the point and re-snaps it to ``E8``); the ``2^k`` scaling is
        applied once at the end, so the level-``k`` codes are points of the
        ``2^k``-scaled ``E8`` lattice.  Unlike ``Z^M`` (Eq. (8)) the decode
        function does not telescope, so the ``k`` levels must be applied
        one at a time.
        """
        if k < 0:
            raise ValueError(f"ancestor level must be non-negative, got {k}")
        for _, level in self.ancestor_chain(codes, k + 1):
            pass
        return level

    def ancestor_chain(self, codes: np.ndarray, max_k: int,
                       kernels: object = NUMPY_KERNELS,
                       ) -> Iterator[Tuple[int, np.ndarray]]:
        """Incremental Eq. (10) iteration: one decode pass per level.

        Yields ``(k, ancestor(codes, k))`` while reusing the previous
        level's half-point, turning the naive ``O(max_k^2)`` decode count
        of repeated :meth:`ancestor` calls into ``O(max_k)``.  Each pass
        is one ``kernels.e8_decode`` call.
        """
        codes = np.atleast_2d(np.asarray(codes, dtype=np.int64))
        if codes.shape[1] != self.padded_dim:
            raise ValueError(
                f"codes must have {self.padded_dim} columns, got {codes.shape[1]}"
            )
        current = codes.astype(np.float64) / 2.0  # real units: d_0 = c
        for k in range(max_k):
            if k > 0:  # the kernel hands back half-integer codes
                current = kernels.e8_decode(current / 2.0) / 2.0
            real = current * float(2 ** k)
            yield k, np.round(real * 2.0).astype(np.int64)

    def cell_center(self, codes: np.ndarray) -> np.ndarray:
        return np.asarray(codes, dtype=np.float64) / 2.0
