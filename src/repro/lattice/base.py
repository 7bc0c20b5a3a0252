"""Abstract interface for the space quantizers used by LSH tables.

A lattice turns the real-valued projected vector ``y = (a_i . v + b_i) / W``
into a discrete code (the LSH hash code).  Beyond plain quantization the
Bi-level pipeline needs two more operations from a lattice:

- *probe sequences* for multi-probe LSH: nearby lattice cells ordered by how
  promising they are for a given query (Section IV-B.2b of the paper), and
- *ancestors* for the hierarchical LSH table: the code of the enclosing cell
  ``k`` levels up, defined through the lattice scaling property
  (Eqs. (7)–(10)).
"""

from __future__ import annotations

from abc import ABC, abstractmethod

from typing import Iterator, Tuple

import numpy as np

from repro.native.registry import NUMPY_KERNELS


class Lattice(ABC):
    """A quantizer from ``R^M`` to integer code vectors.

    Parameters
    ----------
    dim:
        Dimension ``M`` of the projected space being quantized.
    """

    def __init__(self, dim: int):
        if dim <= 0:
            raise ValueError(f"lattice dim must be positive, got {dim}")
        self.dim = int(dim)

    @property
    @abstractmethod
    def code_dim(self) -> int:
        """Length of the integer code vectors produced by :meth:`quantize`."""

    @abstractmethod
    def quantize(self, y: np.ndarray) -> np.ndarray:
        """Quantize projected vectors.

        Parameters
        ----------
        y:
            Array of shape ``(n, dim)`` of projected values.

        Returns
        -------
        numpy.ndarray
            ``int64`` array of shape ``(n, code_dim)``.
        """

    def quantize_with(self, y: np.ndarray, kernels: object) -> np.ndarray:
        """:meth:`quantize` decoded through ``kernels``, the table the query
        plan holds — same codes bit for bit.  Lattices with a decoder in
        the table override this; a plain floor has nothing to hand over."""
        return self.quantize(y)

    @abstractmethod
    def probe_codes(self, y: np.ndarray, code: np.ndarray, n_probes: int) -> np.ndarray:
        """Return up to ``n_probes`` additional codes to probe for one query.

        Parameters
        ----------
        y:
            The query's projected vector, shape ``(dim,)``.
        code:
            The query's own code, shape ``(code_dim,)`` (as returned by
            :meth:`quantize`); it is *not* included in the output.
        n_probes:
            Maximum number of neighboring codes to return, ordered from most
            to least promising.

        Returns
        -------
        numpy.ndarray
            ``int64`` array of shape ``(<= n_probes, code_dim)``.
        """

    @abstractmethod
    def ancestor(self, codes: np.ndarray, k: int) -> np.ndarray:
        """Map codes to their ``k``-th ancestor in the lattice hierarchy.

        ``k = 0`` is the identity.  Ancestors are expressed in the same
        integer units as the level-0 codes, so codes at level ``k`` are
        lattice points of the ``2^k``-scaled lattice.
        """

    def ancestor_chain(self, codes: np.ndarray, max_k: int,
                       kernels: object = NUMPY_KERNELS,
                       ) -> Iterator[Tuple[int, np.ndarray]]:
        """Yield ``(k, ancestor(codes, k))`` for ``k = 0 .. max_k - 1``.

        Subclasses override this when ancestors can be computed
        incrementally (one level from the previous) instead of from
        scratch at every level; the default delegates to :meth:`ancestor`.
        ``kernels`` is the kernel table (see :meth:`quantize_with`): a
        lattice with a decoder in it steps through that decoder.
        """
        for k in range(max_k):
            yield k, self.ancestor(codes, k)

    def cell_center(self, codes: np.ndarray) -> np.ndarray:
        """Representative real-space point for each code (for diagnostics)."""
        return np.asarray(codes, dtype=np.float64)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(dim={self.dim})"
