"""Hierarchical LSH table structures (Section IV-B.2 of the paper).

Two implementations, one per lattice:

- :class:`~repro.hierarchy.morton.MortonHierarchy` — a view of a ``Z^M``
  table, whose layout keeps its buckets along a Morton (Z-order) curve;
  coarser levels are most-significant-bit prefixes, so escalating a query
  means widening a contiguous window of the table's own ids.
- :class:`~repro.hierarchy.e8_hierarchy.E8Hierarchy` — uses the ``E8``
  scaling property (Eq. (10)): the ``k``-th ancestor of a bucket is the
  bucket re-decoded in the ``2^k``-scaled lattice; the structure is a linear
  array of buckets plus an index tree of ``(start, end, code)`` ranges.
"""

from repro.hierarchy.morton import MortonHierarchy
from repro.hierarchy.e8_hierarchy import E8Hierarchy

__all__ = ["MortonHierarchy", "E8Hierarchy"]
