"""Space quantizers used by the LSH tables.

The paper evaluates every algorithm under two quantizers:

- :class:`~repro.lattice.zm.ZMLattice` — the integer lattice ``Z^M`` used by
  standard p-stable LSH (the floor function in Eq. (2)).
- :class:`~repro.lattice.e8.E8Lattice` — the densest dim-8 lattice, used to
  fight the curse of dimensionality of ``Z^M`` (Section IV-B.2b); dimensions
  above 8 are handled as ``ceil(M/8)`` concatenated E8 blocks.
"""

from repro.lattice.base import Lattice
from repro.lattice.zm import ZMLattice
from repro.lattice.e8 import E8Lattice, decode_d8, decode_e8, e8_minimal_vectors

__all__ = [
    "Lattice",
    "ZMLattice",
    "E8Lattice",
    "decode_d8",
    "decode_e8",
    "e8_minimal_vectors",
]
